import math
from functools import reduce

import numpy as np
import pytest

from cmfactors import oracle
from cmfactors.eccurve import _add, _scalar_mul, scalar_mul
from cmfactors.frobenius import dp_ep
from cmfactors.oracle import (
    ENUMERATION_BOUND,
    _counting_pass,
    _inverses,
    _vec_add,
    _vec_double,
    _vec_scalar_mul,
    count_points,
    element_orders,
    enumerate_points,
    group_structure,
)
from cmfactors.primesieve import factorize, primes_upto

KERNEL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def test_enumerate_examples(curve_d4):
    assert len(enumerate_points(curve_d4, 5)) == 8
    # Over F_3 all three x values give y = 0.
    pts = enumerate_points(curve_d4, 3)
    assert len(pts) == 4
    assert set(pts) == {None, (0, 0), (1, 0), (2, 0)}


def test_enumerate_rejects_bad_primes(curve_d4):
    with pytest.raises(ValueError):
        enumerate_points(curve_d4, 2)
    with pytest.raises(ValueError):
        enumerate_points(curve_d4, 10**5 + 3)


def test_points_lie_on_curve(curve_d4):
    for p in (5, 13, 101):
        for P in enumerate_points(curve_d4, p):
            if P is not None:
                x, y = P
                assert (y * y - curve_d4.rhs(x, p)) % p == 0


def test_hasse_bound_on_counts(all_curves):
    for curve in all_curves:
        for p in primes_upto(1000):
            if p in curve.bad_primes:
                continue
            n = len(enumerate_points(curve, p))
            assert (n - (p + 1)) ** 2 <= 4 * p, (curve.label, p)


def test_count_points_agrees_with_enumeration(all_curves):
    for curve in all_curves:
        for p in (5, 7, 11, 101, 997):
            if p in curve.bad_primes:
                continue
            assert count_points(curve, p) == len(enumerate_points(curve, p))


def test_counting_pass_matches_enumeration(all_curves):
    for curve in all_curves:
        for p in primes_upto(2000):
            if p in curve.bad_primes:
                continue
            n, roots, rhs = _counting_pass(curve, p)
            pts = enumerate_points(curve, p)
            assert n == len(pts), (curve.label, p)
            assert roots == sum(1 for P in pts if P and P[1] == 0), (curve.label, p)
            assert len(rhs) == p


def test_count_points_at_large_p(all_curves):
    # Both sides of 2^21, where the cubic switches to two reductions; the
    # pipeline's N comes from Frobenius, not from counting.
    for curve in all_curves:
        for p in (1048583, 2097169):
            assert count_points(curve, p) == dp_ep(p, curve).N, (curve.label, p)


def _levels(curve, p):
    """Which torsion levels group_structure tests: (2-adic reaches j >= 2, an odd q passes)."""
    n, roots, _ = _counting_pass(curve, p)
    cut = {q: k for q, k in factorize(n) if k >= 2 and (p - 1) % q == 0}
    return cut.get(2, 0) >= 4 and roots == 3, any(q > 2 for q in cut)


def test_group_law_levels_match_element_orders(all_curves):
    seen = [0, 0]
    for curve in all_curves:
        for p in primes_upto(400):
            if p in curve.bad_primes:
                continue
            levels = _levels(curve, p)
            if not any(levels):
                continue
            seen = [s + x for s, x in zip(seen, levels)]
            e = max(element_orders(curve, p))
            assert group_structure(curve, p) == (count_points(curve, p) // e, e), (curve.label, p)
    assert min(seen) > 0, seen


def test_first_two_torsion_level_needs_no_group_law(all_curves, monkeypatch):
    cases = []
    for curve in all_curves:
        for p in primes_upto(500):
            if p not in curve.bad_primes and not any(_levels(curve, p)):
                cases.append((curve, p, group_structure(curve, p)))

    def forbidden(*args):
        raise AssertionError("group law tables built")

    monkeypatch.setattr(oracle, "_inverses", forbidden)
    monkeypatch.setattr(oracle, "_affine_arrays", forbidden)
    assert any(d % 2 == 0 for _, _, (d, _) in cases)
    for curve, p, expected in cases:
        assert group_structure(curve, p) == expected, (curve.label, p)


def test_group_structure_examples(curve_d4):
    assert group_structure(curve_d4, 5) == (2, 4)
    assert group_structure(curve_d4, 3) == (2, 2)
    assert group_structure(curve_d4, 17) == (4, 4)


def test_group_structure_invariants(all_curves):
    for curve in all_curves:
        for p in primes_upto(500):
            if p in curve.bad_primes:
                continue
            d, e = group_structure(curve, p)
            assert d * e == len(enumerate_points(curve, p))
            assert e % d == 0
            assert (p - 1) % d == 0, (curve.label, p)


def _full_torsion_d(curve, p):
    """Largest k with exactly k^2 points killed by k; the defining property."""
    pts = enumerate_points(curve, p)
    n = len(pts)
    a = curve.A % p
    best = 1
    for k in range(1, math.isqrt(n) + 1):
        if n % k:
            continue
        killed = sum(1 for P in pts if _scalar_mul(k, P, a, p) is None)
        if killed == k * k:
            best = max(best, k)
    return best


def test_d_is_largest_full_torsion_level(all_curves):
    for curve in all_curves:
        for p in primes_upto(200):
            if p in curve.bad_primes:
                continue
            d, _ = group_structure(curve, p)
            assert d == _full_torsion_d(curve, p), (curve.label, p)


def test_exponent_matches_lcm_of_element_orders(all_curves):
    for curve in all_curves[:4]:
        for p in primes_upto(200):
            if p in curve.bad_primes:
                continue
            d, e = group_structure(curve, p)
            orders = element_orders(curve, p)
            assert reduce(math.lcm, orders) == e
            assert max(orders) == e


def test_element_orders_divide_group_order(curve_d4):
    for p in (5, 13, 97):
        pts = enumerate_points(curve_d4, p)
        for P, o in zip(pts, element_orders(curve_d4, p)):
            assert len(pts) % o == 0
            assert scalar_mul(o, P, curve_d4, p) is None if P else o == 1


def test_inverse_table():
    near_bound = [p for p in primes_upto(ENUMERATION_BOUND) if p > ENUMERATION_BOUND - 300]
    for p in primes_upto(10**4) + near_bound:
        xs = np.arange(p, dtype=np.int64)
        inv = _inverses(p)
        assert inv[0] == 0, p
        assert (xs[1:] * inv[1:] % p == 1).all(), p


def _lanes(points):
    """Point list (None for infinity) as x, y arrays and an infinity mask."""
    xs = np.array([P[0] if P else 0 for P in points], dtype=np.int64)
    ys = np.array([P[1] if P else 0 for P in points], dtype=np.int64)
    return xs, ys, np.array([P is None for P in points])


def _points(lanes):
    x, y, inf = lanes
    return [None if i else (a, b) for a, b, i in zip(x.tolist(), y.tolist(), inf.tolist())]


def test_vector_kernels_match_scalar_group_law(all_curves):
    # Every pair of points, so the lanes include infinity on either side,
    # 2-torsion points, P + (-P) and P + P inside _vec_add.
    two_torsion = 0
    for curve in all_curves:
        for p in KERNEL_PRIMES:
            if p in curve.bad_primes:
                continue
            a = curve.A % p
            inv = _inverses(p)
            pts = enumerate_points(curve, p)
            two_torsion += sum(1 for P in pts if P and P[1] == 0)
            doubled = _points(_vec_double(*_lanes(pts), a, p, inv))
            assert doubled == [_add(P, P, a, p) for P in pts], (curve.label, p)
            left = [P for P in pts for _ in pts]
            right = pts * len(pts)
            summed = _points(_vec_add(*_lanes(left), *_lanes(right), a, p, inv))
            assert summed == [_add(P, Q, a, p) for P, Q in zip(left, right)], (curve.label, p)
    assert two_torsion > 0


def test_vector_scalar_mul_matches_scalar(all_curves):
    for curve in all_curves:
        for p in KERNEL_PRIMES:
            if p in curve.bad_primes:
                continue
            a = curve.A % p
            inv = _inverses(p)
            pts = enumerate_points(curve, p)
            for n in range(1, 13):
                got = _points(_vec_scalar_mul(n, *_lanes(pts), a, p, inv))
                assert got == [_scalar_mul(n, P, a, p) for P in pts], (curve.label, p, n)
