"""Brute-force ground truth for small primes.

Enumerates E(F_p) directly and computes the invariant factors (d, e) by
exact torsion counting: d's q-adic valuation is the largest j for which
the q^j-torsion is fully rational, measured over every point of the group.
The points come from one table of square roots mod p.  The group law runs
on all points at once, with a doubling kernel and slopes taken through one
table of inverses mod p, so the whole group is a few dozen numpy passes.
"""
from __future__ import annotations

import numpy as np

from .eccurve import CmCurve, Point
from .primesieve import factorize

ENUMERATION_BOUND = 10**5

# count_points and the square-root table work on slices of this many residues,
# so their int64 temporaries stay bounded for large p.
_COUNT_CHUNK = 1 << 20


def _check_p(curve: CmCurve, p: int):
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    if p < 2 or p > ENUMERATION_BOUND:
        raise ValueError(f"p={p} outside the enumeration bound {ENUMERATION_BOUND}")


def _square_roots(p: int) -> np.ndarray:
    """root[x*x % p] = x over 0 <= x < p; 0 marks 0 and the non-residues."""
    root = np.zeros(p, dtype=np.int32 if p < 2**31 else np.int64)
    for lo in range(0, p, _COUNT_CHUNK):
        xs = np.arange(lo, min(lo + _COUNT_CHUNK, p), dtype=np.int64)
        root[xs * xs % p] = xs
    return root


def _rhs(curve: CmCurve, p: int, xs: np.ndarray) -> np.ndarray:
    return (xs * xs % p * xs + (curve.A % p) * xs + curve.B % p) % p


def count_points(curve: CmCurve, p: int) -> int:
    """#E(F_p) by direct quadratic-residue counting; works to large p."""
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    root = _square_roots(p)
    total = 1
    for lo in range(0, p, _COUNT_CHUNK):
        rhs = _rhs(curve, p, np.arange(lo, min(lo + _COUNT_CHUNK, p), dtype=np.int64))
        total += int((rhs == 0).sum()) + 2 * int((root[rhs] != 0).sum())
    return total


def _affine_arrays(curve: CmCurve, p: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(p, dtype=np.int64)
    rhs = _rhs(curve, p, xs)
    ys = _square_roots(p)[rhs]
    smooth = ys != 0
    x2, xs_sm, y_sm = xs[rhs == 0], xs[smooth], ys[smooth]
    X = np.concatenate([x2, xs_sm, xs_sm])
    Y = np.concatenate([np.zeros(len(x2), dtype=np.int64), y_sm, p - y_sm])
    return X, Y


def enumerate_points(curve: CmCurve, p: int) -> list[Point]:
    """All points of E(F_p) including infinity (as None)."""
    _check_p(curve, p)
    X, Y = _affine_arrays(curve, p)
    points: list[Point] = [None]
    points.extend(zip(X.tolist(), Y.tolist()))
    return points


def _inverses(p: int) -> np.ndarray:
    """inv[x] = x^-1 mod p for 0 < x < p, and inv[0] = 0, for a prime p.

    With g a generator, powers[k] = g^k runs over the units, and the
    inverse of g^k is g^(p-1-k).  The powers double in length each pass.
    """
    qs = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
    powers = np.ones(1, dtype=np.int64)
    while len(powers) < p - 1:
        powers = np.concatenate([powers, powers * pow(g, len(powers), p) % p])
    powers = powers[: p - 1]
    inv = np.zeros(p, dtype=np.int64)
    inv[powers] = powers[-np.arange(p - 1) % (p - 1)]
    return inv


def _vec_double(x, y, inf, a, p, inv):
    """Lane-wise P + P; inf is the infinity mask, inv the table of inverses."""
    s = (3 * x * x + a) * inv[2 * y % p] % p
    x3 = (s * s - 2 * x) % p
    return x3, (s * (x - x3) - y) % p, inf | (y == 0)


def _vec_add(x1, y1, i1, x2, y2, i2, a, p, inv):
    """Lane-wise P + Q on point arrays; i* are infinity masks, inv as in _vec_double."""
    dx = (x2 - x1) % p
    same_x = dx == 0
    vert = same_x & ((y1 + y2) % p == 0)
    dbl = same_x & ~vert
    num = np.where(dbl, (3 * x1 * x1 + a) % p, (y2 - y1) % p)
    den = np.where(dbl, 2 * y1 % p, dx)
    s = num * inv[den] % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    x3 = np.where(i1, x2, np.where(i2, x1, x3))
    y3 = np.where(i1, y2, np.where(i2, y1, y3))
    i3 = np.where(i1, i2, np.where(i2, i1, vert))
    return x3, y3, i3


def _vec_scalar_mul(n, X, Y, INF, a, p, inv):
    """n (X, Y) for n >= 1 by double-and-add; R starts at the lowest set bit."""
    R, Q = None, (X, Y, INF)
    while True:
        if n & 1:
            R = Q if R is None else _vec_add(*R, *Q, a, p, inv)
        n >>= 1
        if not n:
            return R
        Q = _vec_double(*Q, a, p, inv)


def group_structure(curve: CmCurve, p: int) -> tuple[int, int]:
    """Invariant factors (d, e), d | e, of E(F_p) by exact torsion counting.

    For each prime q, the q-valuation of d is the largest j with
    #{P : q^j P = infinity} = q^(2j); the count runs over the whole group,
    so the result is exact.  Candidate primes are cut down first: full
    q-torsion forces q | p - 1 (Weil pairing) and q^2 | N.
    """
    _check_p(curve, p)
    X, Y = _affine_arrays(curve, p)
    N = len(X) + 1
    a = curve.A % p
    d, inv = 1, None
    for q, k in factorize(N):
        if k < 2 or (p - 1) % q:
            continue
        if inv is None:
            inv = _inverses(p)
        TX, TY, TI = X, Y, np.zeros(len(X), dtype=bool)
        for j in range(1, k // 2 + 1):
            TX, TY, TI = _vec_scalar_mul(q, TX, TY, TI, a, p, inv)
            if 1 + int(TI.sum()) != q ** (2 * j):
                break
            d *= q
    e = N // d
    if d * e != N or e % d:
        raise AssertionError(f"inconsistent structure at p={p}: N={N}, d={d}")
    return d, e


def element_orders(curve: CmCurve, p: int) -> list[int]:
    """Exact order of every point; the lcm is the group exponent.

    Slow reference path (scalar arithmetic per point); used to cross-check
    group_structure on very small p.
    """
    _check_p(curve, p)
    from .eccurve import _scalar_mul

    pts = enumerate_points(curve, p)
    N = len(pts)
    factors = factorize(N)
    a = curve.A % p
    orders = []
    for P in pts:
        if P is None:
            orders.append(1)
            continue
        o = N
        for q, k in factors:
            for _ in range(k):
                if _scalar_mul(o // q, P, a, p) is None:
                    o //= q
                else:
                    break
        orders.append(o)
    return orders
