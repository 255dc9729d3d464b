import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmfactors.eccurve import (
    CmCurve,
    _add,
    _parse_table,
    _scalar_mul,
    cubic_splits,
    custom_curve,
    get_curve,
    model_bad_primes,
    random_point,
)
from cmfactors.oracle import enumerate_points
from cmfactors.primesieve import factorize, primes_upto
from cmfactors.quadorder import order

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def test_table_covers_thirteen_orders(all_curves):
    assert len(all_curves) == 13
    pairs = {(c.order.g, c.order.f) for c in all_curves}
    assert len(pairs) == 13
    for c in all_curves:
        assert 4 * c.A**3 + 27 * c.B**2 != 0
        assert 2 in c.bad_primes


def test_curve_lookup_by_label_and_alias():
    assert get_curve("j1728-D4").label == "j1728-D4"
    assert get_curve("D4").label == "j1728-D4"
    assert get_curve("D163").order.g == -163
    with pytest.raises(KeyError):
        get_curve("D5")


def test_model_bad_primes():
    # y^2 = x^3 - x: discriminant contribution 4A^3 + 27B^2 = -4.
    assert model_bad_primes(-1, 0) == frozenset({2})
    # Odd discriminant still leaves 2 bad: char-2 models are singular.
    assert model_bad_primes(0, 1) == frozenset({2, 3})
    assert model_bad_primes(1, 1) == frozenset({2, 31})
    # Twists by a prime above 10^6: 4 * 1000003^3 and 27 * 1000003^2 are out
    # of factorize's reach, the coefficient is not.
    assert model_bad_primes(-1000003, 0) == frozenset({2, 1000003})
    assert model_bad_primes(0, 1000003) == frozenset({2, 3, 1000003})


def assert_model_facts(curve):
    """The curve's derived facts against a factorisation of its whole discriminant."""
    disc = -4 * curve.A**3 - 27 * curve.B**2
    fac = factorize(abs(disc))
    assert curve.disc == disc, curve.label
    assert curve.bad_primes == {2} | {q for q, _ in fac}, curve.label
    assert curve.odd_disc_primes == tuple(q for q, e in fac if e % 2), curve.label


def test_derived_model_facts(all_curves, curve_d4, monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    from sweep_check import TWISTS
    from test_oracle import _curves_without_cm

    curves = [*all_curves, *(custom_curve(*m) for m in TWISTS), *_curves_without_cm(curve_d4)]
    for curve in curves:
        assert_model_facts(curve)
    assert [c.odd_disc_primes for c in curves[:3]] == [(3,), (), (7,)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-300, 300), st.integers(-300, 300))
def test_derived_model_facts_of_small_models(A, B):
    assume(4 * A**3 + 27 * B**2 != 0)
    assert_model_facts(CmCurve("small", A, B, order(-1, 1)))


def test_singular_model_fails_at_construction():
    # 4(-3)^3 + 27 * 2^2 = 0: x^3 - 3x + 2 = (x - 1)^2 (x + 2).
    for A, B in ((-3, 2), (0, 0)):
        with pytest.raises(ValueError, match="singular"):
            CmCurve("singular", A, B, order(-1, 1))


def test_group_law_examples(curve_d4):
    P, a = (2, 1), curve_d4.A % 5
    assert _scalar_mul(1, P, a, 5) == P
    assert _scalar_mul(2, P, a, 5) == (0, 0)
    # #E(F_5) = 8, so 8P = infinity for every point.
    for Q in enumerate_points(curve_d4, 5):
        assert _scalar_mul(8, Q, a, 5) is None


def test_add_identity_and_inverse(curve_d4):
    P, a = (2, 1), curve_d4.A % 5
    assert _add(P, None, a, 5) == P
    assert _add(None, P, a, 5) == P
    assert _add(P, (2, 4), a, 5) is None  # P + (-P)


def test_random_point_contract(curve_d4):
    r1 = random.Random(424242)
    r2 = random.Random(424242)
    assert random_point(curve_d4, 97, r1) == random_point(curve_d4, 97, r2)
    rng = random.Random(5)
    affine = {P for P in enumerate_points(curve_d4, 5) if P is not None}
    assert len(affine) == 7
    for _ in range(50):
        P = random_point(curve_d4, 5, rng)
        assert P in affine
    for _ in range(50):
        x, y = random_point(curve_d4, 10007, rng)
        assert (y * y - curve_d4.rhs(x, 10007)) % 10007 == 0


def test_cubic_splits_examples(curve_d4):
    assert cubic_splits(curve_d4, 7)  # x^3 - x = x(x-1)(x+1)
    # y^2 = x^3 + 1 has #E(F_5) = 6, even, but x^3 + 1 has the one root 4 mod 5.
    assert not cubic_splits(get_curve("D3"), 5)
    with pytest.raises(ValueError):
        cubic_splits(curve_d4, 3)


def test_cubic_splits_matches_two_torsion(all_curves):
    # Independent count: rational 2-torsion = points with y = 0, plus infinity.
    # cubic_splits answers for good p > 3 where #E(F_p) is even.
    for curve in all_curves:
        for p in primes_upto(1000):
            if p <= 3 or p in curve.bad_primes:
                continue
            points = enumerate_points(curve, p)
            if len(points) % 2:
                continue
            two_torsion = 1 + sum(1 for P in points if P is not None and P[1] == 0)
            assert cubic_splits(curve, p) == (two_torsion == 4), (curve.label, p)


def test_group_law_associative_commutative(all_curves):
    p = 10**4 + 7
    rng = random.Random(31337)
    for curve in all_curves:
        assert p not in curve.bad_primes
        a = curve.A % p
        for _ in range(1000):
            P = random_point(curve, p, rng)
            Q = random_point(curve, p, rng)
            R = random_point(curve, p, rng)
            assert _add(P, Q, a, p) == _add(Q, P, a, p)
            left = _add(_add(P, Q, a, p), R, a, p)
            right = _add(P, _add(Q, R, a, p), a, p)
            assert left == right


def test_scalar_mul_additive(curve_d4):
    p = 10007
    a = curve_d4.A % p
    rng = random.Random(8)
    for _ in range(40):
        P = random_point(curve_d4, p, rng)
        m, n = rng.randint(0, 500), rng.randint(0, 500)
        lhs = _scalar_mul(m + n, P, a, p)
        rhs = _add(_scalar_mul(m, P, a, p), _scalar_mul(n, P, a, p), a, p)
        assert lhs == rhs


def test_parse_table_rejects_corrupt_bad_primes():
    assert [c.label for c in _parse_table("# comment\nmine -1 0 -1 1 2\n")] == ["mine"]
    with pytest.raises(ValueError):
        _parse_table("demo -1 0 -1 1 2,3\n")
