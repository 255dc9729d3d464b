"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavyweight scans are shared through module-scoped fixtures.  Run with
`pytest tests/test_acceptance.py -v -s` to watch the per-criterion lines.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import scan_records

from cmfactors.cli import CSV_HEADER, _record_line
from cmfactors.eccurve import cubic_splits, curve_table, get_curve
from cmfactors.frobenius import dp_ep
from cmfactors.oracle import _counting_pass, group_structure
from cmfactors.primesieve import euler_phi, primes_array
from cmfactors.quadorder import maximal_orders, phi_ideal, rep_count
from cmfactors.stats import (
    _scan_chunk,
    decomposition_check,
    li,
    merge,
    scan,
    schur_sum,
    trivlem_check,
)

CURVES = curve_table()
D4 = get_curve("j1728-D4")


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scan_1e6():
    t0 = time.time()
    acc, records = scan_records(D4, 10**6, workers=1)
    return (acc, records), time.time() - t0


@pytest.fixture(scope="module")
def scan_1e8():
    t0 = time.time()
    result = scan(
        D4,
        10**8,
        checkpoints=[10**5, 10**6, 10**7, 10**8],
        workers=2,
    )
    return result, time.time() - t0


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    primes = primes_array(10**4).tolist()
    mismatches = 0
    checked = 0
    for curve in CURVES:
        for p in primes:
            if p in curve.bad_primes:
                continue
            checked += 1
            rec = dp_ep(p, curve)
            d, e = group_structure(curve, p)
            if (rec.d_p, rec.e_p, rec.N, rec.a_p) != (d, e, d * e, p + 1 - d * e):
                mismatches += 1
    elapsed = time.time() - t0
    _report(
        1,
        "oracle equivalence, 13 curves, p <= 1e4",
        mismatches == 0 and elapsed < 120.0,
        f"{checked} good primes, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_decomposition_identity():
    ok = True
    for curve in CURVES:
        lhs, rhs, equal = decomposition_check(curve, 10**4)
        ok = ok and equal and lhs == rhs
    _report(2, "exact decomposition identity at x = 1e4, 13 curves", ok)


def test_criterion_3_supersingular_law():
    ok = True
    detail = ""
    for curve in CURVES:
        _, records = scan_records(curve, 10**5)
        for r in records:
            if r.kind != "ss":
                continue
            splits = cubic_splits(curve, r.p)
            if not (
                r.d_p in (1, 2)
                and r.a_p == 0
                and r.N == r.p + 1
                and (r.d_p == 2) == splits
            ):
                ok = False
                detail = f"first failure at {curve.label} p={r.p}"
                break
            if r.p <= 10**4:
                # Independent count of rational 2-torsion: infinity and one
                # point per root of the cubic, over every x mod p.
                two = 1 + _counting_pass(curve, r.p)[1]
                if (r.d_p == 2) != (two == 4):
                    ok = False
                    detail = f"2-torsion mismatch at {curve.label} p={r.p}"
                    break
        if not ok:
            break
    _report(3, "supersingular law to 1e5 with oracle cross-check to 1e4", ok, detail)


def test_criterion_4_hasse_and_divisibility(scan_1e6):
    (_, records), elapsed = scan_1e6
    ok = True
    for r in records:
        if r.kind == "bad":
            if (r.d_p, r.e_p, r.N) != (0, 0, 0):
                ok = False
                break
            continue
        if not (
            r.a_p * r.a_p <= 4 * r.p
            and (r.p - 1) % r.d_p == 0
            and r.e_p % r.d_p == 0
            and r.d_p * r.e_p == r.N
            and r.N == r.p + 1 - r.a_p
        ):
            ok = False
            break
        if r.kind == "ord" and r.d_p > math.isqrt(r.p) + 1:
            ok = False
            break
        if r.kind == "ss" and not (r.a_p == 0 and r.N == r.p + 1 and r.d_p <= 2):
            ok = False
            break
    ok = ok and elapsed < 60.0
    _report(
        4,
        "Hasse bound and divisibility over a 1e6 scan",
        ok,
        f"{len(records)} records, single worker {elapsed:.1f}s",
    )


def test_criterion_5_sum_dp_ratio_stability(scan_1e8):
    result, elapsed = scan_1e8
    ratios = [c.sum_dp / c.x for c in result.checkpoints]
    ok = (
        len(ratios) == 4
        and all(r > 0 for r in ratios)
        and max(ratios) / min(ratios) <= 1.25
        and elapsed < 600.0
    )
    _report(
        5,
        "S_d(x)/x stability at x in {1e5, 1e6, 1e7, 1e8}",
        ok,
        f"ratios {[round(r, 4) for r in ratios]}, 2 workers {elapsed:.0f}s",
    )


def test_criterion_6_sum_ep_over_li(scan_1e8):
    result, _ = scan_1e8
    cps = {c.x: c for c in result.checkpoints}
    r6, r7, r8 = (cps[x].sum_ep / li(float(x) ** 2) for x in (10**6, 10**7, 10**8))
    ok = 0.0 < r6 < 1.0 and abs(r7 / r6 - 1.0) < 0.10 and abs(r8 / r6 - 1.0) < 0.10
    _report(
        6,
        "S_e(x)/Li(x^2) inside (0,1) with <10% drift",
        ok,
        f"r(1e6)={r6:.4f}, r(1e7)={r7:.4f}, r(1e8)={r8:.4f}",
    )


def _rep_counts_bruteforce_bulk(order, bound: int) -> np.ndarray:
    """Histogram of Nm(X + Y omega) over the whole lattice disk, <= bound."""
    g = order.g
    if g % 4 == 1:
        # Nm = (X + Y/2)^2 + |g| (Y/2)^2, so |X| <= sqrt(bound) + ymax/2.
        ymax = math.isqrt(4 * bound // -g)
        ys = np.arange(-ymax, ymax + 1, dtype=np.int64)
        xmax = math.isqrt(bound) + ymax // 2 + 2
        xs = np.arange(-xmax, xmax + 1, dtype=np.int64)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        nm = X * X + X * Y + Y * Y * ((1 - g) // 4)
    else:
        ymax = math.isqrt(bound // -g)
        ys = np.arange(-ymax, ymax + 1, dtype=np.int64)
        xs = np.arange(-math.isqrt(bound), math.isqrt(bound) + 1, dtype=np.int64)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        nm = X * X + Y * Y * (-g)
    nm = nm.ravel()
    return np.bincount(nm[(nm >= 1) & (nm <= bound)], minlength=bound + 1)


def test_criterion_7_formula_oracles():
    bound = 10**4
    ok = True
    detail = ""
    for od in maximal_orders():
        counts = _rep_counts_bruteforce_bulk(od, bound)
        for m in range(1, bound + 1):
            if rep_count(m, od) != int(counts[m]):
                ok, detail = False, f"rep_count({m}) g={od.g}"
                break
        if not ok:
            break
    if ok:
        for od in maximal_orders():
            for d in range(1, 201):
                a = np.arange(d, dtype=np.int64).reshape(-1, 1)
                b = np.arange(d, dtype=np.int64).reshape(1, -1)
                nm = (a * a + a * b * od.beta_trace + b * b * od.beta_norm) % d
                direct = int(np.count_nonzero(np.gcd(nm, d) == 1))
                if phi_ideal(d, od) != direct:
                    ok, detail = False, f"phi_ideal({d}) g={od.g}"
                    break
            if not ok:
                break
    if ok:
        for od in maximal_orders():
            for d in range(1, bound + 1):
                if phi_ideal(d, od) < euler_phi(d) ** 2:
                    ok, detail = False, f"Phi >= phi^2 fails at d={d} g={od.g}"
                    break
            if not ok:
                break
    _report(7, "rep_count/phi_ideal formula oracles", ok, detail)


def test_criterion_8_schur_linear_growth():
    r5 = schur_sum(10**5, exact=False) / 10**5
    r6 = schur_sum(10**6, exact=False) / 10**6
    ok = abs(r6 / r5 - 1.0) <= 0.05
    _report(8, "Schur sum(t)/t agreement at t = 1e5 vs 1e6", ok, f"{r5:.5f} vs {r6:.5f}")


def test_criterion_9_trivlem_randomized():
    rng = random.Random(20250501)
    primes = [p for p in primes_array(1000).tolist()]
    failures = 0
    for _ in range(10**3):
        gmap = {p: Fraction(rng.randint(0, 8), 4) for p in primes}
        k = rng.randint(1, 100)
        t = rng.randint(1, 1000)
        res = trivlem_check(lambda p: gmap[p], k, t)
        if not res.holds:
            failures += 1
    _report(9, "squarefree restriction inequality, 1000 random cases", failures == 0)


def test_criterion_10_determinism_and_merge():
    a = scan_records(D4, 10**5)[1]
    b = scan_records(D4, 10**5)[1]
    csv_a = "\n".join([CSV_HEADER] + [_record_line(r) for r in a])
    csv_b = "\n".join([CSV_HEADER] + [_record_line(r) for r in b])
    ok = csv_a.encode() == csv_b.encode()
    # Four explicit chunks merged vs one monolithic accumulation.
    primes = primes_array(10**5).tolist()
    quarter = len(primes) // 4
    parts = []
    lo = 2
    for i in range(4):
        hi = 10**5 if i == 3 else primes[(i + 1) * quarter - 1]
        parts.append(_scan_chunk(D4, lo, hi, (10**4, 5 * 10**4), False)[0])
        lo = hi + 1
    merged = parts[0]
    for part in parts[1:]:
        merged = merge(merged, part)
    mono = _scan_chunk(D4, 2, 10**5, (10**4, 5 * 10**4), False)[0]
    ok = ok and merged == mono
    _report(10, "byte-identical reruns and 4-chunk merge equality", ok)


def test_criterion_11_zero_ambiguous(scan_1e6, scan_1e8):
    # AmbiguousFrobenius aborts a scan; criteria 1-6 completing means the
    # count is zero across every prime they touched.
    ok = scan_1e6[0][0].pi_x == 78498 and scan_1e8[0].pi_x == 5761455
    _report(11, "zero AmbiguousFrobenius across criteria 1-6", ok)
