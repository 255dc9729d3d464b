import math
import os
import random
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

from cmfactors import oracle
from cmfactors.eccurve import CmCurve, _scalar_mul, get_curve
from cmfactors.frobenius import dp_ep
from cmfactors.oracle import (
    COUNT_BOUND,
    ENUMERATION_BOUND,
    _counting_pass,
    _division_values,
    _mod,
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
            n, roots, rhs, square = _counting_pass(curve, p)
            pts = enumerate_points(curve, p)
            assert n == len(pts), (curve.label, p)
            assert roots == sum(1 for P in pts if P and P[1] == 0), (curve.label, p)
            if p < 300:
                assert rhs.tolist() == [curve.rhs(x, p) for x in range(p)], (curve.label, p)
                squares = {y * y % p for y in range(1, p)}
                assert square.tolist() == [r in squares for r in rhs.tolist()], (curve.label, p)


def test_count_points_at_large_p(all_curves):
    # Both sides of 2^21, where the cubic switches to two reductions; the
    # pipeline's N comes from Frobenius, not from counting.
    for curve in all_curves:
        for p in (1048583, 2097169):
            assert count_points(curve, p) == dp_ep(p, curve).N, (curve.label, p)


def _levels(curve, p):
    """Which torsion levels group_structure tests: (2-adic reaches j >= 2, an odd q passes)."""
    n, roots, *_ = _counting_pass(curve, p)
    cut = {q: k for q, k in factorize(n) if k >= 2 and (p - 1) % q == 0}
    return cut.get(2, 0) >= 4 and roots == 3 and (p - 1) % 4 == 0, any(q > 2 for q in cut)


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
        raise AssertionError("division polynomial evaluated")

    monkeypatch.setattr(oracle, "_division_values", forbidden)
    assert any(d % 2 == 0 for _, _, (d, _) in cases)
    for curve, p, expected in cases:
        assert group_structure(curve, p) == expected, (curve.label, p)


def test_levels_past_the_weil_bound_fail_the_count(all_curves):
    # group_structure tests no level q^j that does not divide p - 1, since
    # the Weil pairing rules out full q^j-torsion there: every such level
    # with q^(2j) | N must fail the division-polynomial count.
    skipped = 0
    for curve in all_curves:
        for p in primes_upto(3000):
            if p < 5 or p in curve.bad_primes:
                continue
            n, roots, rhs, square = _counting_pass(curve, p)
            X = np.flatnonzero(square)
            for q, k in factorize(n):
                for j in range(1, k // 2 + 1):
                    if (p - 1) % q**j == 0:
                        continue
                    f = _division_values(q**j, X, rhs[X], curve.A % p, curve.B % p, p)
                    killed = 2 * (len(f) - int(np.count_nonzero(f))) + (roots if q == 2 else 0)
                    assert 1 + killed != q ** (2 * j), (curve.label, p, q, j)
                    skipped += 1
    assert skipped > 100, skipped


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
            assert _scalar_mul(o, P, curve_d4.A % p, p) is None if P else o == 1


def test_mod_matches_python_mod():
    rng = np.random.default_rng(20261018)
    for p in (2, 3, 5, 97, 131071, 2**31 - 1, 2**61 - 1):
        v = rng.integers(-(2**62) + 1, 2**62, size=5000, dtype=np.int64)
        v[:6] = [0, -1, 2**62 - 1, -(2**62) + 1, 2**63 - 1, -(2**63)]
        assert (_mod(v.copy(), p) == v % p).all(), p
        for x in v[:50].tolist():
            assert _mod(x, p) == x % p, (x, p)


def test_division_values_match_scalar_group_law(all_curves):
    # Every point with y != 0 at small p, on the lanes group_structure builds:
    # psi_n(P) = 0 exactly when [n]P = O, n = 1..27, including n divisible by
    # p.  f_1 = f_2 = 1 come back as an int and are broadcast.
    hits = 0
    for curve in all_curves:
        for p in KERNEL_PRIMES:
            if p < 5 or p in curve.bad_primes:
                continue
            _, _, rhs, square = _counting_pass(curve, p)
            X = np.flatnonzero(square)
            pts = [P for P in enumerate_points(curve, p) if P and P[1]]
            assert len(pts) == 2 * len(X)
            a, b = curve.A % p, curve.B % p
            for n in range(1, 28):
                f = np.broadcast_to(_division_values(n, X, rhs[X], a, b, p), X.shape)
                killed = {P[0] for P in pts if _scalar_mul(n, P, a, p) is None}
                assert set(X[f == 0].tolist()) == killed, (curve.label, p, n)
                hits += len(killed)
    assert hits > 0


def _f_exact(n, x, r, a, b, p, memo):
    """f_n(x) mod p on one x by the recurrences on Python ints; no overflow possible."""
    if n not in memo:
        k = n // 2
        if n <= 2:
            v = 1
        elif n == 3:
            v = 3 * x**4 + 6 * a * x**2 + 12 * b * x - a * a
        elif n == 4:
            v = 2 * (x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a * a * x * x - 4 * a * b * x - 8 * b * b - a**3)
        elif n & 1:
            u = _f_exact(k + 2, x, r, a, b, p, memo) * _f_exact(k, x, r, a, b, p, memo) ** 3
            w = _f_exact(k - 1, x, r, a, b, p, memo) * _f_exact(k + 1, x, r, a, b, p, memo) ** 3
            v = 16 * r * r * u - w if k % 2 == 0 else u - 16 * r * r * w
        else:
            v = _f_exact(k, x, r, a, b, p, memo) * (
                _f_exact(k + 2, x, r, a, b, p, memo) * _f_exact(k - 1, x, r, a, b, p, memo) ** 2
                - _f_exact(k - 2, x, r, a, b, p, memo) * _f_exact(k + 1, x, r, a, b, p, memo) ** 2
            )
        memo[n] = v % p
    return memo[n]


def test_division_values_near_enumeration_bound(all_curves):
    # The overflow edge: the three largest primes the oracle accepts.  Each
    # sampled point comes with a multiple that n kills, so both outcomes occur.
    ns = (3, 4, 5, 7, 8, 9, 16, 25, 27, 64, 81)
    top = primes_upto(ENUMERATION_BOUND)[-3:]
    rng = random.Random(20261018)
    hits = 0
    for curve in all_curves:
        for p in top:
            if p in curve.bad_primes:
                continue
            a, b = curve.A % p, curve.B % p
            pts = enumerate_points(curve, p)
            N = len(pts)
            sample = rng.sample(pts[1:], 20)
            for n in ns:
                lanes = sample + [_scalar_mul(N // math.gcd(n, N), P, a, p) for P in sample]
                lanes = [P for P in lanes if P and P[1]]
                X = np.array([P[0] for P in lanes], dtype=np.int64)
                r = np.array([curve.rhs(x, p) for x in X.tolist()], dtype=np.int64)
                f = _division_values(n, X, r, a, b, p).tolist()
                assert f == [_f_exact(n, x, y * y, a, b, p, {}) for x, y in lanes], (curve.label, p, n)
                killed = [_scalar_mul(n, P, a, p) is None for P in lanes]
                assert [v == 0 for v in f] == killed, (curve.label, p, n)
                hits += sum(killed)
    assert hits > 0


def test_count_points_refuses_p_past_count_bound(curve_d4, monkeypatch):
    # The check comes before any table is built; a count is never run here.
    def forbidden(*args):
        raise AssertionError("counting pass started")

    monkeypatch.setattr(oracle, "_counting_pass", forbidden)
    for p in (COUNT_BOUND + 11, 2**61 - 1):
        with pytest.raises(ValueError, match="counting bound"):
            count_points(curve_d4, p)
    assert COUNT_BOUND * COUNT_BOUND < 2**63


def test_rhs_exact_up_to_count_bound(all_curves):
    # At the largest prime count_points accepts, (x^2 mod p + A mod p) x can
    # come within 2^34 of 2^63; a sample of x, and no count, checks the cubic.
    p = 2**31 - 1
    assert factorize(p) == [(p, 1)] and p <= COUNT_BOUND < p + 2
    xs = random.Random(20261018).sample(range(p), 3000) + list(range(p - 100, p))
    for curve in all_curves:
        got = oracle._rhs(curve, p, np.array(xs, dtype=np.int64)).tolist()
        assert got == [curve.rhs(x, p) for x in xs], curve.label


def _curves_without_cm(curve_d4):
    """Ten random nonsingular models with small coefficients; the oracle reads
    only A, B and the bad primes (D4's order is a placeholder)."""
    rng = random.Random(20261018)
    curves = []
    for i in range(10):
        while True:
            A, B = rng.randint(-60, 60), rng.randint(-60, 60)
            if 4 * A**3 + 27 * B**2:
                break
        curves.append(CmCurve(f"random-{i}", A, B, curve_d4.order))
    return curves


def test_oracle_on_curves_without_cm(curve_d4):
    # psi_n is generic, so the oracle must hold on any nonsingular model.
    seen = [0, 0]
    for curve in _curves_without_cm(curve_d4):
        A, B = curve.A, curve.B
        for p in primes_upto(300):
            if p in curve.bad_primes:
                continue
            seen = [s + x for s, x in zip(seen, _levels(curve, p))]
            e = max(element_orders(curve, p))
            assert group_structure(curve, p) == (count_points(curve, p) // e, e), (A, B, p)
    assert min(seen) > 0, seen


def test_table_pass_matches_sliced_pass(all_curves, curve_d4, monkeypatch):
    # The rows of the cached exact table, reduced mod p, against the cubic
    # evaluated slice by slice, which every p past the table still takes.
    primes = primes_upto(2 * 10**4) + primes_upto(ENUMERATION_BOUND)[-3:]
    for curve in list(all_curves) + _curves_without_cm(curve_d4):
        for p in primes:
            if p in curve.bad_primes:
                continue
            n, roots, rhs, square = _counting_pass(curve, p)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_exact_table", lambda curve, p: None)
                s_n, s_roots, s_rhs, s_square = _counting_pass(curve, p)
            assert (n, roots) == (s_n, s_roots), (curve.label, p)
            assert np.array_equal(rhs, s_rhs) and np.array_equal(square, s_square), (curve.label, p)
            assert rhs.dtype == s_rhs.dtype and square.dtype == s_square.dtype, (curve.label, p)


def test_exact_table_is_built_lazily_and_held_for_one_curve(all_curves):
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    code = ("import cmfactors, cmfactors.cli; from cmfactors import oracle; "
            "print(oracle._table_model, len(oracle._table_squares), len(oracle._table_cubic))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "None 0 0\n"
    first, second = all_curves[0], all_curves[-1]
    for curve, p in ((first, 101), (second, 5), (second, 1009), (second, 97)):
        group_structure(curve, p)
    # One table, the second curve's, grown to 1024 > 1009 and not shrunk.
    assert oracle._table_model == (second.A, second.B)
    assert len(oracle._table_squares) == len(oracle._table_cubic) == 1024
    group_structure(second, primes_upto(ENUMERATION_BOUND)[-1])
    L = len(oracle._table_cubic)
    assert L == 1 << 17 and L & (L - 1) == 0
    # count_points past the enumeration bound keeps the sliced pass.
    assert oracle._exact_table(second, 100003) is None and factorize(100003) == [(100003, 1)]
    x = random.Random(20261018).sample(range(L), 500)
    assert oracle._table_squares[x].tolist() == [v * v for v in x]
    assert oracle._table_cubic[x].tolist() == [v**3 + second.A * v + second.B for v in x]


def test_large_model_takes_the_sliced_pass(monkeypatch):
    # At L = 2^17, A x reaches 2^64 > 2^63: no exact int64 table for this model.
    A = 2**47
    curve = CmCurve("large", A, 0, get_curve("D4").order)
    assert 2**51 + A * 2**17 >= 2**63 and curve.bad_primes == {2}
    assert oracle._exact_table(curve, 5) is None
    sliced, passes = oracle._sliced_pass, []
    monkeypatch.setattr(oracle, "_sliced_pass", lambda curve, p: passes.append(p) or sliced(curve, p))
    primes = [p for p in primes_upto(400) if p != 2]
    for p in primes:
        n, roots, rhs, square = _counting_pass(curve, p)
        pts = enumerate_points(curve, p)
        assert n == len(pts) and roots == sum(1 for P in pts if P and P[1] == 0), p
        assert rhs.tolist() == [curve.rhs(x, p) for x in range(p)], p
        e = max(element_orders(curve, p))
        assert group_structure(curve, p) == (n // e, e), p
    assert passes == [p for p in primes for _ in range(2)]


def test_levels_share_one_memo_of_division_values(curve_d4, monkeypatch):
    # At a prime where group_structure tests the 2-adic levels 4 and then
    # 8, the level-8 call finds f_4 in the memo and does not compute it again.
    calls = []
    division_values = oracle._division_values

    def spy(n, x, r, a, b, p, memo=None):
        before = dict(memo)
        f = division_values(n, x, r, a, b, p, memo)
        calls.append((p, n, memo, before))
        return f

    monkeypatch.setattr(oracle, "_division_values", spy)
    p = next(p for p in primes_upto(2000) if p % 8 == 1 and group_structure(curve_d4, p)[0] % 8 == 0)
    calls.clear()
    group_structure(curve_d4, p)
    (p4, n4, memo4, before4), (p8, n8, memo8, before8) = calls[:2]
    assert (p4, n4, p8, n8) == (p, 4, p, 8) and memo4 is memo8
    assert 4 not in before4 and before8[4] is memo8[4]
    assert 8 in memo8
    # A memo shared in any order of n gives the values of fresh calls.
    _, _, rhs, square = _counting_pass(curve_d4, p)
    X = np.flatnonzero(square)
    a, b = curve_d4.A % p, curve_d4.B % p
    memo = {}
    for n in random.Random(20261018).sample(range(1, 40), 39):
        shared = division_values(n, X, rhs[X], a, b, p, memo)
        assert np.array_equal(shared, division_values(n, X, rhs[X], a, b, p)), n
