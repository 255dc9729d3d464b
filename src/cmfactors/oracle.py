"""Brute-force ground truth for small primes.

Enumerates E(F_p) directly and computes the invariant factors (d, e) by
exact torsion counting: d's q-adic valuation is the largest j for which
the q^j-torsion is fully rational, measured over every point of the group.
The arithmetic is vectorized over all points at once, with modular
inverses by Fermat exponentiation on arrays, so the whole group is
processed in a few dozen numpy passes.
"""
from __future__ import annotations

import numpy as np

from .eccurve import CmCurve, Point
from .primesieve import factorize

ENUMERATION_BOUND = 10**5

# count_points builds its int64 x and y arrays in slices of this many residues,
# so those temporaries stay bounded for large p.
_COUNT_CHUNK = 1 << 20


def _check_p(curve: CmCurve, p: int):
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    if p < 2 or p > ENUMERATION_BOUND:
        raise ValueError(f"p={p} outside the enumeration bound {ENUMERATION_BOUND}")


def _qr_table(p: int) -> np.ndarray:
    ys = np.arange(p, dtype=np.int64)
    table = np.zeros(p, dtype=bool)
    table[ys * ys % p] = True
    return table


def _rhs_values(curve: CmCurve, p: int) -> np.ndarray:
    xs = np.arange(p, dtype=np.int64)
    return (xs * xs % p * xs + (curve.A % p) * xs + curve.B) % p


def count_points(curve: CmCurve, p: int) -> int:
    """#E(F_p) by direct quadratic-residue counting; works to large p."""
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    qr = np.zeros(p, dtype=bool)
    for lo in range(0, p, _COUNT_CHUNK):
        ys = np.arange(lo, min(lo + _COUNT_CHUNK, p), dtype=np.int64)
        qr[ys * ys % p] = True
    a = curve.A % p
    b = curve.B % p
    total = 1
    for lo in range(0, p, _COUNT_CHUNK):
        xs = np.arange(lo, min(lo + _COUNT_CHUNK, p), dtype=np.int64)
        rhs = (xs * xs % p * xs + a * xs + b) % p
        zero = rhs == 0
        total += int(zero.sum()) + 2 * int((qr[rhs] & ~zero).sum())
    return total


def _affine_arrays(curve: CmCurve, p: int) -> tuple[np.ndarray, np.ndarray]:
    rhs = _rhs_values(curve, p)
    qr = _qr_table(p)
    ys = np.arange(p, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[ys * ys % p] = ys
    xs = np.arange(p, dtype=np.int64)
    two_torsion = rhs == 0
    smooth = qr[rhs] & ~two_torsion
    x2 = xs[two_torsion]
    xs_sm = xs[smooth]
    y_sm = root[rhs[smooth]]
    X = np.concatenate([x2, xs_sm, xs_sm])
    Y = np.concatenate([np.zeros(len(x2), dtype=np.int64), y_sm, (p - y_sm) % p])
    return X, Y


def enumerate_points(curve: CmCurve, p: int) -> list[Point]:
    """All points of E(F_p) including infinity (as None)."""
    _check_p(curve, p)
    X, Y = _affine_arrays(curve, p)
    points: list[Point] = [None]
    points.extend(zip(X.tolist(), Y.tolist()))
    return points


def _vec_modpow(base: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            result = result * b % p
        e >>= 1
        if e:
            b = b * b % p
    return result


def _vec_add(x1, y1, i1, x2, y2, i2, a, p):
    """Lane-wise group law on point arrays; i* are infinity masks."""
    dx = (x2 - x1) % p
    same_x = dx == 0
    vert = same_x & ((y1 + y2) % p == 0)
    dbl = same_x & ~vert
    num = np.where(dbl, (3 * x1 * x1 + a) % p, (y2 - y1) % p)
    den = np.where(dbl, 2 * y1 % p, dx)
    den = np.where(den == 0, 1, den)
    s = num * _vec_modpow(den, p - 2, p) % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    x3 = np.where(i1, x2, np.where(i2, x1, x3))
    y3 = np.where(i1, y2, np.where(i2, y1, y3))
    i3 = np.where(i1, i2, np.where(i2, i1, vert))
    return x3, y3, i3


def _vec_scalar_mul(n, X, Y, INF, a, p):
    RX = np.zeros_like(X)
    RY = np.zeros_like(Y)
    RI = np.ones_like(INF)
    QX, QY, QI = X, Y, INF
    while n:
        if n & 1:
            RX, RY, RI = _vec_add(RX, RY, RI, QX, QY, QI, a, p)
        n >>= 1
        if n:
            QX, QY, QI = _vec_add(QX, QY, QI, QX, QY, QI, a, p)
    return RX, RY, RI


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
    d = 1
    for q, k in factorize(N):
        if k < 2 or (p - 1) % q:
            continue
        TX, TY, TI = X, Y, np.zeros(len(X), dtype=bool)
        for j in range(1, k // 2 + 1):
            TX, TY, TI = _vec_scalar_mul(q, TX, TY, TI, a, p)
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
