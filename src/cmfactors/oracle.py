"""Brute-force ground truth for small primes.

Enumerates E(F_p) directly and computes the invariant factors (d, e) by
exact torsion counting: d's q-adic valuation is the largest j for which
the q^j-torsion is fully rational, measured over every point of the group.
One counting pass over x mod p against a table of squares gives #E(F_p)
and the roots of the cubic, which settle the first 2-torsion level.  Up to
ENUMERATION_BOUND the pass reduces rows of a per-process table of x*x and
x^3 + Ax + B, exact in int64 and cached for one curve at a time, so no
prime evaluates the cubic again; past it, or for a model whose cubic does
not fit int64, it evaluates the cubic slice by slice.  Every other level
evaluates the division polynomial psi_(q^j) on one lane per x whose rhs is
a nonzero square, that is per pair {P, -P}: no inverses, no square roots
and no group law.  The levels of one prime share a memo of the f_m they
reach, so each is evaluated at most once per prime.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .eccurve import CmCurve, Point, _scalar_mul
from .primesieve import factorize

ENUMERATION_BOUND = 10**5

# count_points works for p <= COUNT_BOUND: the counting pass's largest int64
# value, (x^2 mod p + A mod p) x + B mod p, is below 2 p^2 <= 2^63.
COUNT_BOUND = 1 << 31

# The sliced pass and its table of squares work on slices of this many residues,
# so their int64 temporaries stay bounded for large p.
_COUNT_CHUNK = 1 << 20

# The exact table of one curve (see _exact_table): its (A, B), then x*x and
# x^3 + Ax + B for 0 <= x < len.  Its length, a power of two above p <=
# ENUMERATION_BOUND, stays at most _TABLE_CAP.
_TABLE_CAP = 1 << 17
_table_model: tuple[int, int] | None = None
_table_squares = _table_cubic = np.zeros(0, dtype=np.int64)


def _check_p(curve: CmCurve, p: int):
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label}")
    if p < 2 or p > ENUMERATION_BOUND:
        raise ValueError(f"p={p} outside the enumeration bound {ENUMERATION_BOUND}")


def _slices(lo: int, hi: int):
    for start in range(lo, hi, _COUNT_CHUNK):
        yield np.arange(start, min(start + _COUNT_CHUNK, hi), dtype=np.int64)


def _mod(v, p: int):
    """v mod p, in place on an int64 array (or on an int), with one
    temporary: equal to v % p for every int64 v, and faster than % on an
    array."""
    q = v // p
    q *= p
    v -= q
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


def _exact_table(curve: CmCurve, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """x*x and x^3 + Ax + B as exact int64 values for 0 <= x < L, L > p.

    A per-process cache holds the table of one curve.  It is built on first
    need, never at import, regrown to the next power of two L >= p + 1 when
    p passes its end, and replaced by the table of a different curve.  None
    for p > ENUMERATION_BOUND, or when the cubic may pass int64 below the
    cap: L^3 + |A| L + |B| >= 2^63 at L = _TABLE_CAP.
    """
    global _table_model, _table_squares, _table_cubic
    cap = _TABLE_CAP
    if p > ENUMERATION_BOUND or cap**3 + abs(curve.A) * cap + abs(curve.B) >= 1 << 63:
        return None
    if (curve.A, curve.B) != _table_model or p >= len(_table_cubic):
        x = np.arange(1 << p.bit_length(), dtype=np.int64)
        _table_squares = x * x
        _table_cubic = (_table_squares + curve.A) * x
        _table_cubic += curve.B
        _table_model = (curve.A, curve.B)
    return _table_squares, _table_cubic


def _counting_pass(curve: CmCurve, p: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """#E(F_p), #roots of x^3 + Ax + B mod p, and over the last slice of x
    mod p (every x for p <= ENUMERATION_BOUND) rhs and whether it is a
    nonzero square.

    Reduces the first p rows of the curve's exact table when it has one;
    past it (p > ENUMERATION_BOUND, or a model with large coefficients)
    evaluates the cubic slice by slice.
    """
    table = _exact_table(curve, p)
    if table is None:
        return _sliced_pass(curve, p)
    squares, cubic = table
    sq = np.zeros(p, dtype=bool)
    # The table is the cache's: reduce copies of its rows.
    sq[_mod(squares[1 : (p + 1) // 2].copy(), p)] = True
    rhs = _mod(cubic[:p].copy(), p)
    roots = p - int(np.count_nonzero(rhs))
    square = sq[rhs]
    return 1 + roots + 2 * int(np.count_nonzero(square)), roots, rhs, square


def _sliced_pass(curve: CmCurve, p: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """_counting_pass on slices of x, for every p <= COUNT_BOUND."""
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


@functools.cache
def _plan(n: int) -> tuple[int, ...]:
    """The indices m >= 3 whose f_m the recurrences reach from f_n, in increasing order."""
    need, todo = set(), [n]
    while todo:
        m = todo.pop()
        if m > 4 and m not in need:
            k = m // 2
            todo.extend(range(k - 1, k + 3) if m & 1 else range(k - 2, k + 3))
        need.add(m)
    return tuple(sorted(need - {1, 2}))


def _division_values(
    n: int, x: np.ndarray, r: np.ndarray, a: int, b: int, p: int, memo: dict | None = None
) -> np.ndarray:
    """f_n(x) mod p on the lanes x, for 5 <= p < 2^17 and r = x^3 + ax + b.

    psi_n = f_n for odd n and 2y f_n for even n, with y^2 = r, so f_n is a
    polynomial in x alone (Washington, Elliptic Curves, 3.2).  The f_m are
    built in increasing m over the indices the recurrences reach from n;
    f_1 = f_2 = 1 stay the int 1.  With p < 2^17 every product stays under
    p^3 < 2^63.  A memo shared by calls on the same lanes keeps every f_m
    (and x^2 and 16 r^2 mod p, under "x2" and "r16"), so each is computed
    once.
    """
    assert 5 <= p < 1 << 17, p
    f = {} if memo is None else memo
    if 1 not in f:
        f[1] = f[2] = 1
    todo = [m for m in _plan(n) if m not in f]
    if not todo:
        return f[n]
    if "x2" not in f:
        f["x2"] = _mod(x * x, p)
    if todo[-1] > 4 and "r16" not in f:
        f["r16"] = _mod(16 * r * r, p)
    x2, r16 = f["x2"], f.get("r16")
    for m in todo:
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
    forces q^j | p - 1 (Weil pairing) and q^(2j) | N, so only the primes of
    gcd(N, p - 1) are tried, each while both hold.  The 2-torsion is
    infinity and the cubic's roots, so level q = 2, j = 1 is 1 + roots.  Any
    other level needs q^(2j) | N with N <= p + 1 + 2 sqrt(p), hence p >= 5,
    and tests [n]P = O, n = q^j, as psi_n(P) = 0 (exact for P != O and
    q != p).  Each x with rhs a nonzero square is one lane for its two
    points; the y = 0 points lie in E[2^j] and in no E[q^j] for odd q.
    The levels share one memo of division values, so f_4 serves f_8 and
    f_3 serves f_9.
    """
    _check_p(curve, p)
    N, roots, rhs, square = _counting_pass(curve, p)
    d, X, memo = 1, None, {}
    for q, k in factorize(math.gcd(N, p - 1)):
        for j in range(1, k + 1):
            if N % q ** (2 * j):
                break
            if q == 2 and j == 1:
                killed = roots
            else:
                if X is None:
                    X = np.flatnonzero(square)
                    r = rhs[X]
                f = _division_values(q**j, X, r, curve.A % p, curve.B % p, p, memo)
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
