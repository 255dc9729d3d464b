"""Splitting types and norm equations in the thirteen supported orders.

For a split prime p, `solve_norm` produces an element of norm p in the
order via Cornacchia's Euclidean descent on the norm form (the 4p variant
for odd field discriminants).  For conductors 2 and 3 the maximal-order
solution is steered into the suborder through the unit orbit.
"""
from __future__ import annotations

import math

from .quadorder import OrderDesc, QuadInt, kronecker, norm, order, unit_orbit

# perfbench/tracing.py times these by rebinding them in this module.
from .quadorder import conj, units  # noqa: F401

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class NoRoot(ValueError):
    """Raised by sqrt_mod when the argument is a quadratic nonresidue."""


def splitting_type(p: int, order_desc: OrderDesc) -> str:
    """How p decomposes in the field of the order (split/inert/ramified)."""
    chi = kronecker(order_desc.delta, p)
    if chi == 1:
        return SPLIT
    if chi == -1:
        return INERT
    return RAMIFIED


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


def _descend(a: int, b: int, limit: int) -> int:
    """Euclidean remainder chain from (a, b) down to the first value <= limit."""
    while b > limit:
        a, b = b, a % b
    return b


def _solve_maximal(p: int, g: int) -> tuple[int, int] | None:
    """One (a, b) with Nm(a + b*omega) = p in the maximal order, or None."""
    if g % 4 != 1:
        # Form X^2 + |g| Y^2 = p; classic Cornacchia from the larger root.
        r = sqrt_mod(g % p, p)
        r = max(r, p - r)
        x = _descend(p, r, math.isqrt(p))
        rem = p - x * x
        if rem % -g:
            return None
        y2 = rem // -g
        y = math.isqrt(y2)
        if y * y != y2:
            return None
        return (x, y)
    # Odd discriminant: solve u^2 + |g| v^2 = 4p with u, v of equal parity,
    # then a = (u - v)/2, b = v.
    if p == 2:
        # solve_norm passes p = 2 only where it splits (g = 1 mod 8): that is
        # g = -7 alone among these fields, and there omega has norm 2.
        return (0, 1)
    r = sqrt_mod(g % p, p)
    if r % 2 == 0:
        r = p - r
    limit = math.isqrt(4 * p)
    for x0 in (r, 2 * p - r):
        u = _descend(2 * p, x0, limit)
        rem = 4 * p - u * u
        if rem % -g:
            continue
        v2 = rem // -g
        v = math.isqrt(v2)
        if v * v != v2 or (u - v) % 2:
            continue
        return ((u - v) // 2, v)
    return None


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

    The result is canonicalized so reruns are bit-identical.  Internal
    failure for a split prime would indicate a broken descent and raises.
    """
    f = order_desc.f
    if f > 1:
        if p % f == 0:
            raise ValueError("p must not divide the conductor")
        if p <= 3:
            raise ValueError("conductor > 1 requires p > 3")
    if splitting_type(p, order_desc) != SPLIT:
        return None
    g = order_desc.g
    sol = _solve_maximal(p, g)
    if sol is None:
        raise ArithmeticError(f"Cornacchia descent failed for split p={p}, g={g}")
    a, b = sol
    if f > 1:
        # Steer into the suborder: some unit multiple has f | b.  This always
        # succeeds for the supported conductors and split p coprime to f.
        for a, b in unit_orbit(a, b, order(g, 1)):
            if b % f == 0:
                break
        else:
            raise ArithmeticError(
                f"no associate of norm {p} lies in the conductor-{f} order"
            )
        b //= f
    x = QuadInt(*_canonicalize(a, b, order_desc), order_desc)
    if norm(x) != p:
        raise ArithmeticError(f"descent returned a non-solution for p={p}, g={g}")
    return x
