"""Invariant factors of CM elliptic curve reductions mod p.

For a CM elliptic curve E and each prime p of good reduction,
E(F_p) = Z/d_p + Z/e_p with d_p | e_p.  This package computes (d_p, e_p)
for every p up to a bound via Frobenius arithmetic in the class-number-one
imaginary quadratic orders, cross-checks the results against brute-force
group structure, and exposes the empirical sums and identities that the
per-prime data supports.
"""

__version__ = "0.1.0"
