"""Brute-force ground truth for small primes.

Enumerates E(F_p) directly and computes the invariant factors (d, e) by
exact torsion counting: d's q-adic valuation is the largest j for which
the q^j-torsion is fully rational, measured over every point of the group.
One counting pass over x mod p against a table of squares gives #E(F_p)
and the roots of the cubic, which settle the first 2-torsion level.  Every
other level evaluates the division polynomial psi_(q^j) on one lane per x
whose rhs is a nonzero square, that is per pair {P, -P}: no inverses, no
square roots and no group law.
"""
from __future__ import annotations

import numpy as np

from .eccurve import CmCurve, Point, _scalar_mul
from .primesieve import factorize

ENUMERATION_BOUND = 10**5

# count_points works for p <= COUNT_BOUND: the counting pass's largest int64
# value, (x^2 mod p + A mod p) x + B mod p, is below 2 p^2 <= 2^63.
COUNT_BOUND = 1 << 31

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


def _mod(v, p: int):
    """v mod p, in place on an int64 array (or on an int): equal to v % p for
    every int64 v, and faster than % on an array."""
    v -= v // p * p
    return v


def _rhs(curve: CmCurve, p: int, xs: np.ndarray) -> np.ndarray:
    """(x^2 + A) x + B mod p, in place on one temporary; x^2 is reduced only
    from p = 2^21, where (x^2 + A) x stops fitting in int64."""
    r = xs * xs
    if p >= 1 << 21:
        _mod(r, p)
    r += curve.A % p
    r *= xs
    r += curve.B % p
    return _mod(r, p)


def _counting_pass(curve: CmCurve, p: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """#E(F_p), #roots of x^3 + Ax + B mod p, and over the last slice of x
    mod p (every x for p <= ENUMERATION_BOUND) rhs and whether it is a
    nonzero square."""
    sq = np.zeros(p, dtype=bool)  # one byte per residue
    for xs in _slices(1, (p + 1) // 2):
        sq[_mod(xs * xs, p)] = True
    n, roots = 1, 0
    for xs in _slices(0, p):
        rhs = _rhs(curve, p, xs)
        roots += int(np.count_nonzero(rhs == 0))
        square = sq[rhs]
        n += 2 * int(np.count_nonzero(square))
    return n + roots, roots, rhs, square


def count_points(curve: CmCurve, p: int) -> int:
    """#E(F_p) by direct quadratic-residue counting, for p <= COUNT_BOUND."""
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    if p > COUNT_BOUND:
        raise ValueError(f"p={p} outside the counting bound {COUNT_BOUND}")
    return _counting_pass(curve, p)[0]


def enumerate_points(curve: CmCurve, p: int) -> list[Point]:
    """All points of E(F_p) including infinity (as None)."""
    _check_p(curve, p)
    rhs = _rhs(curve, p, np.arange(p, dtype=np.int64))
    root = np.zeros(p, dtype=np.int64)  # root[y^2 mod p] = y for 0 < y <= p // 2
    ys = np.arange(1, (p + 1) // 2, dtype=np.int64)
    root[ys * ys % p] = ys
    y = root[rhs]
    X = np.flatnonzero(y)
    Y = y[X]
    points: list[Point] = [None]
    points.extend((x, 0) for x in np.flatnonzero(rhs == 0).tolist())
    points.extend(zip(X.tolist(), (p - Y).tolist()))
    points.extend(zip(X.tolist(), Y.tolist()))
    return points


def _division_values(n: int, x: np.ndarray, r: np.ndarray, a: int, b: int, p: int) -> np.ndarray:
    """f_n(x) mod p on the lanes x, for 5 <= p < 2^17 and r = x^3 + ax + b.

    psi_n = f_n for odd n and 2y f_n for even n, with y^2 = r, so f_n is a
    polynomial in x alone (Washington, Elliptic Curves, 3.2).  The f_m are
    built in increasing m over the indices the recurrences reach from n;
    f_1 = f_2 = 1 stay the int 1.  With p < 2^17 every product stays under
    p^3 < 2^63.
    """
    assert 5 <= p < 1 << 17, p
    need, todo = set(), [n]
    while todo:
        m = todo.pop()
        if m > 4 and m not in need:
            k = m // 2
            todo.extend(range(k - 1, k + 3) if m & 1 else range(k - 2, k + 3))
        need.add(m)
    x2 = _mod(x * x, p)
    r16 = _mod(16 * r * r, p) if n > 4 else None
    f = {1: 1, 2: 1}
    for m in sorted(need - {1, 2}):
        k = m // 2
        if m == 3:  # 3x^4 + 6ax^2 + 12bx - a^2
            v = (3 * x2 + 6 * a) * x2 + 12 * b % p * x - a * a
        elif m == 4:  # 2(x^6 + 5ax^4 + 20bx^3 - 5a^2x^2 - 4abx - 8b^2 - a^3)
            v = _mod((2 * x2 + 10 * a % p) * x2, p) - 10 * a * a % p
            v *= x2
            v += _mod(40 * b % p * x2 - 8 * a * b % p, p) * x - (16 * b * b + 2 * a**3) % p
        elif m & 1:  # f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3, 16 r^2 on the even-indexed pair
            u = _mod(f[k] * f[k], p) * f[k] * f[k + 2]
            w = _mod(f[k + 1] * f[k + 1], p) * f[k + 1] * f[k - 1]
            if k & 1:
                w = _mod(w, p) * r16
            else:
                u = _mod(u, p) * r16
            v = u - w
        else:  # f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2)
            v = f[k + 2] * _mod(f[k - 1] * f[k - 1], p) - f[k - 2] * _mod(f[k + 1] * f[k + 1], p)
            v *= f[k]
        f[m] = _mod(v, p)
    return f[n]


def group_structure(curve: CmCurve, p: int) -> tuple[int, int]:
    """Invariant factors (d, e), d | e, of E(F_p) by exact torsion counting.

    For each prime q, the q-valuation of d is the largest j with
    #{P : q^j P = infinity} = q^(2j); the count runs over the whole group,
    so the result is exact.  Levels are cut down first: full q^j-torsion
    forces q^j | p - 1 (Weil pairing) and q^(2j) | N.  The 2-torsion is
    infinity and the cubic's roots, so level q = 2, j = 1 is 1 + roots.  Any
    other level needs q^(2j) | N with N <= p + 1 + 2 sqrt(p), hence p >= 5,
    and tests [n]P = O, n = q^j, as psi_n(P) = 0 (exact for P != O and
    q != p).  Each x with rhs a nonzero square is one lane for its two
    points; the y = 0 points lie in E[2^j] and in no E[q^j] for odd q.
    """
    _check_p(curve, p)
    N, roots, rhs, square = _counting_pass(curve, p)
    d, X = 1, None
    for q, k in factorize(N):
        for j in range(1, k // 2 + 1):
            if (p - 1) % q**j:
                break
            if q == 2 and j == 1:
                killed = roots
            else:
                if X is None:
                    X = np.flatnonzero(square)
                f = _division_values(q**j, X, rhs[X], curve.A % p, curve.B % p, p)
                killed = 2 * (len(f) - int(np.count_nonzero(f))) + (roots if q == 2 else 0)
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
