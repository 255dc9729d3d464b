"""Brute-force ground truth for small primes.

Enumerates E(F_p) directly and computes the invariant factors (d, e) by
exact torsion counting: d's q-adic valuation is the largest j for which
the q^j-torsion is fully rational, measured over every point of the group.
One counting pass over x mod p against a table of squares gives #E(F_p)
and the roots of the cubic, which settle the first 2-torsion level.  Only
a level past that builds the points and a table of inverses mod p; the
group law then runs on one lane per {P, -P}, weighted by the pair's size.
"""
from __future__ import annotations

import numpy as np

from .eccurve import CmCurve, Point, _scalar_mul
from .primesieve import factorize

ENUMERATION_BOUND = 10**5

# The counting pass and the table of squares work on slices of this many residues,
# so their int64 temporaries stay bounded for large p.
_COUNT_CHUNK = 1 << 20


def _check_p(curve: CmCurve, p: int):
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    if p < 2 or p > ENUMERATION_BOUND:
        raise ValueError(f"p={p} outside the enumeration bound {ENUMERATION_BOUND}")


def _slices(lo: int, hi: int):
    for start in range(lo, hi, _COUNT_CHUNK):
        yield np.arange(start, min(start + _COUNT_CHUNK, hi), dtype=np.int64)


def _rhs(curve: CmCurve, p: int, xs: np.ndarray) -> np.ndarray:
    """(x^2 + A) x + B mod p; one reduction while p^3 fits in int64, and one
    expression, so numpy reuses each temporary in place."""
    a, b = curve.A % p, curve.B % p
    return (((xs * xs if p < 1 << 21 else xs * xs % p) + a) * xs + b) % p


def _counting_pass(curve: CmCurve, p: int) -> tuple[int, int, np.ndarray]:
    """#E(F_p), #roots of x^3 + Ax + B mod p, and rhs over the last slice of
    x mod p, which is every x for p <= ENUMERATION_BOUND."""
    sq = np.zeros(p, dtype=bool)  # the nonzero squares mod p, one byte per residue
    for xs in _slices(1, (p + 1) // 2):
        sq[xs * xs % p] = True
    n, roots = 1, 0
    for xs in _slices(0, p):
        rhs = _rhs(curve, p, xs)
        roots += int(np.count_nonzero(rhs == 0))
        n += 2 * int(np.count_nonzero(sq[rhs]))
    return n + roots, roots, rhs


def count_points(curve: CmCurve, p: int) -> int:
    """#E(F_p) by direct quadratic-residue counting; works to large p."""
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    return _counting_pass(curve, p)[0]


def _affine_arrays(p: int, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One affine point per {P, -P}: x, y with y <= p // 2, those with y = 0 first."""
    root = np.zeros(p, dtype=np.int64)
    ys = np.arange(1, (p + 1) // 2, dtype=np.int64)
    root[ys * ys % p] = ys
    y = root[rhs]
    X = np.concatenate([np.flatnonzero(rhs == 0), np.flatnonzero(y)])
    return X, y[X]


def enumerate_points(curve: CmCurve, p: int) -> list[Point]:
    """All points of E(F_p) including infinity (as None)."""
    _check_p(curve, p)
    X, Y = _affine_arrays(p, _rhs(curve, p, np.arange(p, dtype=np.int64)))
    smooth = Y != 0
    points: list[Point] = [None]
    points.extend(zip(X.tolist(), np.where(smooth, p - Y, 0).tolist()))
    points.extend(zip(X[smooth].tolist(), Y[smooth].tolist()))
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
    q-torsion forces q | p - 1 (Weil pairing) and q^2 | N.  For q = 2, level
    j counts the P with 2^(j-1) P = O or with y = 0, so level 1 is 1 + the
    cubic's roots.  Other levels run the group law on one lane per {P, -P},
    weighted by its size (exact: [n](-P) = -[n]P, and -Q = O iff Q = O); the
    lanes and the table of inverses are built when first needed.
    """
    _check_p(curve, p)
    N, roots, rhs = _counting_pass(curve, p)
    a, d, lanes = curve.A % p, 1, None
    for q, k in factorize(N):
        if k < 2 or (p - 1) % q:
            continue
        T = None
        for j in range(1, k // 2 + 1):
            if q == 2 and j == 1:
                killed = roots
            else:
                lanes = lanes or (*_affine_arrays(p, rhs), _inverses(p))
                X, Y, inv = lanes
                T = T or (X, Y, np.zeros(len(X), dtype=bool))
                if q == 2:  # T = 2^(j-1) P, and 2^j P = O iff T = O or T has y = 0
                    T = _vec_double(*T, a, p, inv)
                    hit = T[2] | (T[1] == 0)
                else:
                    T = _vec_scalar_mul(q, *T, a, p, inv)
                    hit = T[2]
                killed = int(hit.sum()) + int((Y[hit] != 0).sum())  # P, and -P if y != 0
            if 1 + killed != q ** (2 * j):
                break
            d *= q
    e = N // d
    if d * e != N or e % d:
        raise AssertionError(f"inconsistent structure at p={p}: N={N}, d={d}")
    return d, e


def element_orders(curve: CmCurve, p: int) -> list[int]:
    """Exact order of every point by scalar arithmetic; a slow cross-check at small p."""
    _check_p(curve, p)
    pts = enumerate_points(curve, p)
    N, a, factors = len(pts), curve.A % p, factorize(len(pts))
    orders = [1]
    for P in pts[1:]:
        o = N
        for q, k in factors:
            for _ in range(k):
                if _scalar_mul(o // q, P, a, p) is not None:
                    break
                o //= q
        orders.append(o)
    return orders
