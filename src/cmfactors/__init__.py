"""Invariant factors of CM elliptic curve reductions mod p.

For a CM elliptic curve E and each prime p of good reduction,
E(F_p) = Z/d_p + Z/e_p with d_p | e_p.  This package computes (d_p, e_p)
for every p up to a bound via Frobenius arithmetic in the class-number-one
imaginary quadratic orders, cross-checks the results against brute-force
group structure, and exposes the empirical sums and identities that the
per-prime data supports.
"""

from .cornacchia import NoRoot, solve_norm, splitting_type, sqrt_mod
from .eccurve import (
    CmCurve,
    add,
    cubic_splits,
    curve_table,
    custom_curve,
    get_curve,
    random_point,
    scalar_mul,
)
from .frobenius import (
    AmbiguousFrobenius,
    PrimeRecord,
    classify,
    dp_ep,
    frobenius_at,
    frobenius_by_sampling,
)
from .oracle import count_points, enumerate_points, group_structure
from .primesieve import euler_phi, factorize, primes_upto
from .quadorder import (
    OrderDesc,
    QuadInt,
    all_orders,
    conj,
    content,
    kronecker,
    maximal_orders,
    norm,
    order,
    phi_ideal,
    qi_mul,
    rep_count,
    rep_count_bruteforce,
    trace,
    units,
)
from .stats import (
    SumAccumulator,
    bt_counter,
    bt_ratio,
    decomposition_check,
    li,
    merge,
    scan,
    schur_sum,
    trivlem_check,
    wintner_sum,
)

__version__ = "0.1.0"
