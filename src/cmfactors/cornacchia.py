"""Square roots mod p and norm equations in the thirteen supported orders.

For a prime p, `solve_norm` runs one modified Cornacchia descent on the
order's own discriminant D = f^2 * Delta: the square root of D mod p is the
split test (none means inert, D = 0 mod p means ramified), and the
Euclidean descent from 2p yields u^2 + |D| v^2 = 4p, hence an element of
norm p that already lies in the order, whatever its conductor.
"""
from __future__ import annotations

import math

from .quadorder import OrderDesc, QuadInt, norm, unit_orbit

# perfbench/tracing.py times these by rebinding them in this module.
from .quadorder import conj, units  # noqa: F401


class NoRoot(ValueError):
    """Raised by sqrt_mod when the argument is a quadratic nonresidue."""


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks: the smaller root r (r <= p - r) of r^2 = a mod p.

    p must be an odd prime; raises NoRoot when a is a nonresidue.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NoRoot(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def _canonicalize(a: int, b: int, order_desc: OrderDesc) -> tuple[int, int]:
    """Deterministic representative of the unit-conjugation orbit of a + b*beta.

    Prefers the open positive quadrant (a > 0, b > 0) when the orbit meets
    it, then takes the lexicographically largest coordinate pair.
    """
    conj_a = a + b * order_desc.beta_trace
    return max(
        unit_orbit(a, b, order_desc) + unit_orbit(conj_a, -b, order_desc),
        key=lambda z: (z[0] > 0 and z[1] > 0, z[0], z[1]),
    )


def solve_norm(p: int, order_desc: OrderDesc) -> QuadInt | None:
    """An element of norm p in the order for split p, else None.

    Solves u^2 + |D| v^2 = 4p on the order's discriminant D by the modified
    Cornacchia algorithm (Cohen, Alg. 1.5.3); then a + b*beta with
    u = 2a + b*Tr(beta) and b = v has norm p.  The result is canonicalized
    so reruns are bit-identical.  Internal failure for a split prime would
    indicate a broken descent and raises.
    """
    f = order_desc.f
    if f > 1:
        if p % f == 0:
            raise ValueError("p must not divide the conductor")
        if p <= 3:
            raise ValueError("conductor > 1 requires p > 3")
    d = order_desc.disc
    if d % p == 0:
        return None
    if p == 2:
        if d % 8 != 1:
            return None
        r = 1
    else:
        try:
            r = sqrt_mod(d, p)
        except NoRoot:
            return None
        if (r - d) % 2:
            r = p - r
    # r^2 = D (mod 4p); descend from (2p, r) to the first remainder <= 2 sqrt(p).
    limit = math.isqrt(4 * p)
    m, u = 2 * p, r
    while u > limit:
        m, u = u, m % u
    v2, rem = divmod(4 * p - u * u, -d)
    v = math.isqrt(v2)
    if rem or v * v != v2:
        raise ArithmeticError(f"Cornacchia descent failed for split p={p}, D={d}")
    a, b = _canonicalize((u - v * order_desc.beta_trace) // 2, v, order_desc)
    x = QuadInt(a, b, order_desc)
    if norm(x) != p:
        raise ArithmeticError(f"descent returned a non-solution for p={p}, D={d}")
    return x
