import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from conftest import scan_records

from cmfactors import frobenius, frobrules, oracle
from cmfactors.cli import main, oracle_mismatches
from cmfactors.eccurve import CmCurve, curve_table, custom_curve, get_curve, random_point
from cmfactors.frobenius import (
    AmbiguousFrobenius,
    classify,
    dp_ep,
    frobenius_at,
    frobenius_by_sampling,
)
from cmfactors.frobrules import FrobeniusRule, format_rule, parse_rules, rule_for
from cmfactors.oracle import count_points, group_structure
from cmfactors.primesieve import factorize, primes_upto
from cmfactors.quadorder import QuadInt, conj, content, norm, order, trace


def test_classify_examples(curve_d4):
    assert classify(2, curve_d4) == "bad"
    assert classify(3, curve_d4) == "small"
    assert classify(5, curve_d4) == "ord"
    assert classify(7, curve_d4) == "ss"


def test_frobenius_at_examples(curve_d4):
    # Expected N values come from the brute-force count.
    for p, pi_set in ((5, {(-1, 2), (-1, -2)}), (13, {(3, 2), (3, -2)}), (17, {(1, 4), (1, -4)})):
        n_true = count_points(curve_d4, p)
        for frobenius in (frobenius_by_sampling, frobenius_at):
            pi, n = frobenius(p, curve_d4)
            assert n == n_true
            assert norm(pi) == p
            assert (pi.a, pi.b) in pi_set, (p, pi)
    assert count_points(curve_d4, 5) == 8
    assert count_points(curve_d4, 13) == 8
    assert count_points(curve_d4, 17) == 16


def test_frobenius_at_rejects_non_ordinary(curve_d4):
    with pytest.raises(ValueError):
        frobenius_at(7, curve_d4)
    with pytest.raises(ValueError):
        frobenius_by_sampling(7, curve_d4)


def test_dp_ep_examples(curve_d4):
    r5 = dp_ep(5, curve_d4)
    assert (r5.d_p, r5.e_p) == group_structure(curve_d4, 5) == (2, 4)
    assert content(QuadInt(r5.pi_a, r5.pi_b, curve_d4.order) - 1) == 2
    r17 = dp_ep(17, curve_d4)
    assert (r17.d_p, r17.e_p) == (4, 4)
    r11 = dp_ep(11, curve_d4)
    assert r11.kind == "ss"
    assert (r11.N, r11.d_p, r11.e_p) == (12, 2, 6)
    r2 = dp_ep(2, curve_d4)
    assert (r2.d_p, r2.e_p, r2.N) == (0, 0, 0)
    r3 = dp_ep(3, curve_d4)
    assert r3.kind == "small"
    assert (r3.d_p, r3.e_p) == (2, 2)


def test_oracle_equivalence_to_2000():
    for label in ("j1728-D4", "j0-D3", "j16581375-D28"):
        curve = get_curve(label)
        for p in primes_upto(2000):
            if p in curve.bad_primes:
                continue
            rec = dp_ep(p, curve)
            d, e = group_structure(curve, p)
            assert (rec.d_p, rec.e_p, rec.N) == (d, e, d * e), (label, p)
            assert rec.a_p == p + 1 - d * e


def test_record_invariants_on_scan(curve_d4):
    _, records = scan_records(curve_d4, 10**4)
    for r in records:
        if r.kind == "bad":
            assert r.d_p == r.e_p == r.N == 0
            continue
        assert r.a_p * r.a_p <= 4 * r.p
        assert r.N == r.p + 1 - r.a_p
        assert r.d_p * r.e_p == r.N
        assert r.e_p % r.d_p == 0
        assert (r.p - 1) % r.d_p == 0
        if r.kind == "ord":
            assert r.d_p <= math.isqrt(r.p) + 1
            pi = QuadInt(r.pi_a, r.pi_b, curve_d4.order)
            assert norm(pi) == r.p
            assert trace(pi) == r.a_p
        if r.kind == "ss":
            assert r.a_p == 0
            assert r.N == r.p + 1
            assert r.d_p in (1, 2)
            assert (r.pi_a, r.pi_b) == (0, 0)


def test_conjugation_invariance_on_frobenius_values(curve_d4):
    for p in primes_upto(2000):
        if classify(p, curve_d4) != "ord":
            continue
        pi, _ = frobenius_at(p, curve_d4)
        assert content(pi - 1) == content(conj(pi) - 1)


def test_determinism_same_seed(curve_d4):
    a = scan_records(curve_d4, 3 * 10**4)[1]
    b = scan_records(curve_d4, 3 * 10**4)[1]
    assert a == b


def test_point_stream_does_not_change_values(curve_d4, monkeypatch):
    # The resolved Frobenius is unique; the random points only drive the sampling.
    results = []
    for seed in (1, 999):
        stream = random.Random(seed)
        monkeypatch.setattr(
            frobenius, "random_point", lambda curve, p, rng: random_point(curve, p, stream))
        results.append([frobenius_by_sampling(p, curve_d4) for p in (5, 13, 17, 29, 37)])
    assert results[0] == results[1] == [frobenius_at(p, curve_d4) for p in (5, 13, 17, 29, 37)]


def test_validate_curve_accepts_table_entries(all_curves):
    for curve in all_curves:
        checked, mismatches = oracle_mismatches(curve, 1000)
        assert mismatches == []
        assert checked == len([p for p in primes_upto(1000) if p not in curve.bad_primes])


def test_validate_curve_flags_wrong_order():
    # y^2 = x^3 + 2 has j = 0 (CM by g = -3); claiming g = -1 must fail loudly.
    # No unit multiple of Cornacchia's element passes sampling at p = 5.
    liar = custom_curve(0, 2, -1, 1, label="liar")
    with pytest.raises(AmbiguousFrobenius) as err:
        oracle_mismatches(liar, 200)
    assert err.value.p == 5


def test_ambiguous_frobenius_carries_prime():
    err = AmbiguousFrobenius(101)
    assert err.p == 101
    assert "101" in str(err)


def test_sampling_past_count_bound_is_ambiguous(curve_d4, monkeypatch):
    # With no sampling rounds, every candidate reaches the exact count, and
    # past COUNT_BOUND count_points refuses before building anything.
    def forbidden(*args):
        raise AssertionError("counting pass started")

    p = 2147483693
    assert factorize(p) == [(p, 1)] and p > oracle.COUNT_BOUND
    monkeypatch.setattr(frobenius, "MAX_SAMPLE_POINTS", 0)
    monkeypatch.setattr(oracle, "_counting_pass", forbidden)
    with pytest.raises(AmbiguousFrobenius) as err:
        frobenius_by_sampling(p, curve_d4)
    assert err.value.p == p


def test_packaged_rules_cover_the_table_models():
    models = {(c.A, c.B, c.order.g, c.order.f) for c in curve_table()}
    assert set(frobrules._packaged_fields()) == models
    assert {rule_for(c).model for c in curve_table()} == models


@pytest.fixture
def fresh_rule_cache():
    """rule_for's caches, empty for the test and emptied again after it."""
    for cache in (frobrules._packaged_fields, frobrules._packaged_rule):
        cache.cache_clear()
    yield
    for cache in (frobrules._packaged_fields, frobrules._packaged_rule):
        cache.cache_clear()


def test_rule_for_builds_only_its_models_rule(monkeypatch, fresh_rule_cache):
    built = []

    class Counted(FrobeniusRule):
        def __init__(self, model, *rest):
            built.append(model)
            super().__init__(model, *rest)

    monkeypatch.setattr(frobrules, "FrobeniusRule", Counted)
    d163 = get_curve("D163")
    model = (d163.A, d163.B, d163.order.g, d163.order.f)
    assert rule_for(d163) is rule_for(d163) is not None
    assert built == [model]


def test_rule_for_checks_the_thirteen_orders_on_first_use(monkeypatch, fresh_rule_cache):
    # A data file that lost the D163 line fails every lookup, that of D4 too.
    parse = frobrules.parse_rules

    def without_d163(text):
        return {m: f for m, f in parse(text).items() if m[2] != -163}

    monkeypatch.setattr(frobrules, "parse_rules", without_d163)
    with pytest.raises(ValueError, match="do not cover the thirteen orders"):
        rule_for(get_curve("D4"))


def test_rule_residues_conjugation_closed_and_meet_each_orbit_once():
    for rule in map(rule_for, curve_table()):
        model = rule.model
        classes = set(rule.classes())
        assert rule.residues <= classes, model
        assert {rule.conj(r) for r in rule.residues} == rule.residues, model
        for orbit in rule.orbits():
            assert len(orbit & rule.residues) == 1, (model, sorted(orbit))
        assert parse_rules(format_rule(rule)) == {
            model: (rule.kind, rule.modulus, sorted(rule.residues))}


def test_inconsistent_or_incomplete_rule_raises():
    # 1 and i are associates in Z[i].
    with pytest.raises(ValueError):
        FrobeniusRule((-1, 0, -1, 1), "pi", 4, [(1, 0), (0, 1)])
    # Without 3 + 2i, the orbit of 3 + 2i (p = 13) has no allowed residue.
    partial = FrobeniusRule((-1, 0, -1, 1), "pi", 4, [(1, 0)])
    with pytest.raises(ValueError):
        partial.select_arrays(*np.array([[13], [3], [2]]))


@pytest.mark.parametrize("label,kind,bad", [("D4", "pi", (13, 2, 0, "(2, 0)")),
                                            ("D163", "trace", (10007, 1, -2, "(0, 23)"))])
def test_rule_key_on_arrays_matches_per_element_keys(label, kind, bad):
    # select_arrays indexes its tables by key() on whole arrays; its error
    # names the failing element's key as plain ints.
    rule = rule_for(get_curve(label))
    assert rule.kind == kind
    rng = random.Random(3)
    p, a, b = (np.array([rng.randint(lo, 10**6) for _ in range(500)], dtype=np.int64)
               for lo in (5, -10**6, -10**6))
    keys = [rule.key(*v) for v in zip(p.tolist(), a.tolist(), b.tolist())]
    assert all(type(x) is int for k in keys for x in k)
    assert list(zip(*(part.tolist() for part in rule.key(p, a, b)))) == keys
    q, x, y, key = bad
    with pytest.raises(ValueError) as err:
        rule.select_arrays(*np.array([[q], [x], [y]], dtype=np.int64))
    assert str(err.value) == f"no allowed residue in the unit orbit of key {key} at p={q}"


def test_rule_path_agrees_with_sampling_to_1e5(all_curves):
    for curve in all_curves:
        for p in primes_upto(10**5):
            if classify(p, curve) != "ord":
                continue
            pi, n = frobenius_at(p, curve)
            ref, n_ref = frobenius_by_sampling(p, curve)
            assert (pi, n) == (ref, n_ref), (curve.label, p)


def test_twisted_table_model_takes_sampling_path(capsys, monkeypatch):
    # y^2 = x^3 - 4x is the quadratic twist of j1728-D4 by 2: same label and
    # order, different Frobenius, so the D4 rule must not apply to it.
    twist = CmCurve("j1728-D4", -4, 0, order(-1, 1))
    assert rule_for(twist) is None
    sampled = []
    monkeypatch.setattr(
        frobenius, "frobenius_by_sampling",
        lambda p, curve, pi0=None: sampled.append(p) or frobenius_by_sampling(p, curve, pi0),
    )
    assert oracle_mismatches(twist, 2000)[1] == []
    assert 5 in sampled
    code = main(["verify", "--custom=-4,0,-1,1", "--pmax", "2000"])
    assert code == 0, capsys.readouterr().out


def test_frobenius_rules_tool_imports():
    # --help exits before any rule is learned or the data file is written,
    # so this only checks that the tool's imports from cmfactors resolve.
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "frobenius_rules.py")
    out = subprocess.run([sys.executable, tool, "--help"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "PMAX" in out.stdout
