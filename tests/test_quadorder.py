import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfactors.cornacchia import solve_norm
from cmfactors.eccurve import curve_table
from cmfactors.oracle import group_structure
from cmfactors.quadorder import (
    FIELD_PARAMS,
    ORDER_PARAMS,
    OrderDesc,
    QuadInt,
    all_orders,
    conj,
    content,
    kronecker,
    maximal_orders,
    norm,
    order,
    phi_ideal,
    qi_mul,
    rep_count,
    trace,
    unit_orbit,
    units,
)

O1 = order(-1)
O3 = order(-3)


def test_order_inventory():
    assert len(FIELD_PARAMS) == 9
    assert len(ORDER_PARAMS) == 13
    assert all(f in (1, 2, 3) for _, f in ORDER_PARAMS)
    # w = 4 only for Z[i], w = 6 only for Z[omega].
    for od in all_orders():
        expect = 4 if (od.g, od.f) == (-1, 1) else 6 if (od.g, od.f) == (-3, 1) else 2
        assert od.w == expect


def test_field_discriminants():
    assert order(-1).delta == -4
    assert order(-2).delta == -8
    assert order(-3).delta == -3
    assert order(-7).delta == -7
    assert order(-3, 3).disc == -27
    assert order(-7, 2).disc == -28


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        order(-5, 1)
    with pytest.raises(ValueError):
        order(-1, 3)


def test_value_types_compare_hash_and_print_by_their_fields():
    assert order(-1) == order(-1, 1) and hash(order(-1)) == hash(order(-1, 1))
    # A fresh OrderDesc equals the cached one and derives the same facts.
    fresh = OrderDesc(-7, 2)
    assert fresh is not order(-7, 2) and fresh == order(-7, 2) and hash(fresh) == hash(order(-7, 2))
    assert (fresh.delta, fresh.disc, fresh.w, fresh.beta_trace, fresh.beta_norm) == (-7, -28, 2, 2, 8)
    assert order(-7) != order(-7, 2)
    assert QuadInt(1, 2, O1) == QuadInt(1, 2, order(-1, 1)) != QuadInt(1, 2, order(-1, 2))
    assert hash(QuadInt(1, 2, O1)) == hash(QuadInt(1, 2, order(-1, 1)))
    assert QuadInt(3, 0, O1) != 3
    assert repr(order(-7, 2)) == "OrderDesc(g=-7, f=2)"
    assert repr(QuadInt(1, 2, O1)) == "QuadInt(1, 2, g=-1, f=1)"
    with pytest.raises(ValueError, match=r"\(g=-5, f=1\) is not a class-number-one order"):
        OrderDesc(-5)


def test_value_types_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        order(-1).w = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        QuadInt(1, 2, O1).a = 0


def test_value_types_survive_pickle():
    # The scan pickles its chunk arguments, each curve and its order among them.
    curves = curve_table()
    assert len(curves) == 13
    for curve in curves:
        back = pickle.loads(pickle.dumps(curve))
        assert back == curve and back.order.beta_norm == curve.order.beta_norm, curve.label
        assert back.disc == curve.disc and back.odd_disc_primes == curve.odd_disc_primes
    x = QuadInt(-3, 5, order(-7, 2))
    assert pickle.loads(pickle.dumps(x)) == x


def test_mul_examples():
    x = QuadInt(1, 1, O1) * QuadInt(1, -1, O1)
    assert (x.a, x.b) == (2, 0)
    y = QuadInt(7, -3, O3)
    assert y * QuadInt(1, 0, O3) == y
    # (1 + w)^2 = 3w in Z[w] since w^2 = w - 1.
    z = QuadInt(1, 1, O3) * QuadInt(1, 1, O3)
    assert (z.a, z.b) == (0, 3)
    assert norm(z) == 9


def test_mul_mixed_orders_rejected():
    with pytest.raises(ValueError):
        qi_mul(QuadInt(1, 0, O1), QuadInt(1, 0, O3))


def test_mul_overflow_signals_range_error():
    big = QuadInt(1 << 40, 1 << 40, O1)
    with pytest.raises(OverflowError):
        qi_mul(big, big)


def test_norm_trace_conj_examples():
    assert norm(QuadInt(2, 3, O1)) == 13
    assert norm(QuadInt(1, 2, O3)) == 7  # x^2 + xy + y^2
    assert trace(QuadInt(3, 2, O1)) == 6
    c = conj(QuadInt(3, 2, O1))
    assert (c.a, c.b) == (3, -2)


def test_norm_positive_definite(rng):
    for od in all_orders():
        assert norm(QuadInt(0, 0, od)) == 0
        for _ in range(200):
            x = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50), od)
            n = norm(x)
            assert n >= 0
            assert (n == 0) == (x.a == 0 and x.b == 0)


def test_multiplicativity_bulk(rng):
    # Nm(xy) = Nm(x) Nm(y) and conj(xy) = conj(x) conj(y), 10^4 random pairs.
    orders = all_orders()
    for _ in range(10**4):
        od = rng.choice(orders)
        x = QuadInt(rng.randint(-999, 999), rng.randint(-999, 999), od)
        y = QuadInt(rng.randint(-999, 999), rng.randint(-999, 999), od)
        assert norm(x * y) == norm(x) * norm(y)
        assert conj(x * y) == conj(x) * conj(y)
        assert trace(x) == (x + conj(x)).a
        assert (x + conj(x)).b == 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ORDER_PARAMS),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)
def test_mul_commutes_and_norm_is_form(gf, a, b, c, d):
    od = order(*gf)
    x, y = QuadInt(a, b, od), QuadInt(c, d, od)
    assert x * y == y * x
    assert norm(x) == x.a**2 + x.a * x.b * od.beta_trace + x.b**2 * od.beta_norm


def test_content_examples():
    assert content(QuadInt(-2, 2, O1)) == 2
    assert content(QuadInt(0, 4, O1)) == 4
    with pytest.raises(ValueError):
        content(QuadInt(0, 0, O1))


def test_content_of_frobenius_matches_oracle(curve_d4):
    # d_13 = 2 by full enumeration over F_13; content(pi - 1) must agree.
    d, _ = group_structure(curve_d4, 13)
    assert d == 2
    pi = solve_norm(13, O1)
    assert (pi.a, pi.b) == (3, 2)
    assert content(pi - 1) == 2


def test_content_conjugation_invariant(rng):
    for _ in range(2000):
        od = rng.choice(all_orders())
        x = QuadInt(rng.randint(-500, 500), rng.randint(-500, 500), od)
        if x.a == 0 and x.b == 0:
            continue
        assert content(x) == content(conj(x))


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 2) == 0
    assert kronecker(-3, 7) == 1
    # Confirmed independently: 7 is a norm from Q(sqrt(-3)).
    assert norm(solve_norm(7, O3)) == 7


def test_kronecker_rejects_bad_discriminant():
    with pytest.raises(ValueError):
        kronecker(-5, 3)
    with pytest.raises(ValueError):
        kronecker(-4, 0)


def test_kronecker_multiplicative_and_periodic(rng):
    for g in FIELD_PARAMS:
        delta = order(g).delta
        for _ in range(300):
            m = rng.randint(1, 10**6)
            n = rng.randint(1, 10**6)
            assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)
            assert kronecker(delta, m + abs(delta)) == kronecker(delta, m)
        assert kronecker(delta, 1) == 1
        vals = {n: kronecker(delta, n) for n in range(1, abs(delta) + 1)}
        assert all(
            (vals[n] == 0) == (math.gcd(n, abs(delta)) > 1) for n in vals
        )


def _phi_residue_count(d: int, od) -> int:
    """Count invertible residues of O_K/dO_K directly on the d x d grid."""
    a = np.arange(d, dtype=np.int64).reshape(-1, 1)
    b = np.arange(d, dtype=np.int64).reshape(1, -1)
    nm = (a * a + a * b * od.beta_trace + b * b * od.beta_norm) % d
    return int(np.count_nonzero(np.gcd(nm, d) == 1))


def test_phi_ideal_examples():
    assert phi_ideal(1, O1) == 1
    # Oracle: the 9 residues of Z[i]/(3) hold 8 units.
    assert _phi_residue_count(3, O1) == 8
    assert phi_ideal(3, O1) == 8
    assert _phi_residue_count(5, O1) == 16
    assert phi_ideal(5, O1) == 16


def test_phi_ideal_matches_residue_count():
    for od in maximal_orders():
        for d in range(1, 60):
            assert phi_ideal(d, od) == _phi_residue_count(d, od), (od.g, d)


def test_phi_ideal_dominates_phi_squared():
    from cmfactors.primesieve import euler_phi

    for od in maximal_orders():
        for d in range(1, 1001):
            assert phi_ideal(d, od) >= euler_phi(d) ** 2


def test_phi_ideal_nonmaximal_rejected():
    with pytest.raises(ValueError):
        phi_ideal(5, order(-3, 2))


def test_rep_count_examples():
    assert rep_count(1, O1) == 4
    assert rep_count(5, O1) == 8
    assert rep_count(3, O1) == 0
    assert rep_count(7, O3) == 12


def test_rep_count_nonmaximal_rejected():
    with pytest.raises(ValueError):
        rep_count(5, order(-1, 2))


def test_units_tables():
    u1 = units(O1)
    assert len(u1) == 4
    assert {(u.a, u.b) for u in u1} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    u3 = units(O3)
    assert len(u3) == 6
    assert all(norm(u) == 1 for u in u3)
    assert len(units(order(-7))) == 2
    # Closed under negation and multiplication.
    for od in all_orders():
        us = units(od)
        coords = {(u.a, u.b) for u in us}
        assert {(-u.a, -u.b) for u in us} == coords
        for x in us:
            for y in us:
                z = x * y
                assert (z.a, z.b) in coords
        assert units(od) is us
        x = QuadInt(5, -3, od)
        assert unit_orbit(x.a, x.b, od) == [((u * x).a, (u * x).b) for u in us]
