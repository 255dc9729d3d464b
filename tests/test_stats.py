import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import drop_largest, prime_records, scan_records, split_points_dropping

from cmfactors.eccurve import cubic_splits, curve_table, custom_curve, get_curve
from cmfactors.frobenius import BAD, KINDS, SMALL, AmbiguousFrobenius, classify, dp_ep
from cmfactors.cornacchia import solve_norm
from cmfactors.frobrules import FrobeniusRule
from cmfactors.primesieve import euler_phi, factorize, primes_upto
from cmfactors.quadorder import QuadInt, maximal_orders, norm, order, phi_element
from cmfactors import frobenius, stats
from cmfactors.stats import (
    _scan_chunk,
    bt_counter,
    bt_ratio,
    comaximal,
    decomposition_check,
    li,
    merge,
    scan,
    schur_sum,
    trivlem_check,
    wintner_sum,
)

O1 = order(-1)


# --- scan and accumulator -----------------------------------------------------


def test_scan_example_to_20(curve_d4):
    acc, recs = scan_records(curve_d4, 20)
    assert acc.sum_dp == 16
    by_p = {r.p: r.d_p for r in recs}
    assert by_p == {2: 0, 3: 2, 5: 2, 7: 2, 11: 2, 13: 2, 17: 4, 19: 2}


def test_scan_example_to_4(curve_d4):
    acc, recs = scan_records(curve_d4, 4)
    assert acc.sum_dp == 2
    assert [(r.p, r.kind) for r in recs] == [(2, "bad"), (3, "small")]


def test_scan_rejects_tiny_bound(curve_d4):
    with pytest.raises(ValueError):
        scan(curve_d4, 1)


def test_scan_rejects_bound_past_limit(curve_d4, monkeypatch):
    # The bound is checked before any job is built: a job list for 2^50
    # would hold about 1.7 * 10^10 tuples.  Should the check go, this span
    # makes one job, and the missing sieve fails it at once.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 1 << 70)
    monkeypatch.setattr(stats, "odd_mask", None)
    for x in (stats.X_MAX_LIMIT, 10**20):
        with pytest.raises(ValueError, match="2\\^50"):
            scan(curve_d4, x)


def test_scan_rejects_workers_past_limit(curve_d4):
    # A bound of 100 is one range, so nothing would fork without the check,
    # and a count below 1 would run serially.
    for workers in (0, -1, stats.MAX_WORKERS + 1):
        with pytest.raises(ValueError, match=rf"^workers must lie in \[1, {stats.MAX_WORKERS}\], "
                                             rf"got {workers}$"):
            scan(curve_d4, 100, workers=workers)


def test_merge_equals_monolithic(curve_d4, monkeypatch):
    x = 2 * 10**4
    mono = scan_records(curve_d4, x)
    monkeypatch.setattr(stats, "CHUNK_SPAN", 512)
    chunked = scan_records(curve_d4, x)
    assert chunked == mono


def test_merge_random_chunkings(curve_d4, monkeypatch):
    x = 10**5
    rng = random.Random(17)
    reference = scan(curve_d4, x, checkpoints=[100, 5000])
    for _ in range(4):
        monkeypatch.setattr(stats, "CHUNK_SPAN", rng.randint(500, 9000))
        assert scan(curve_d4, x, checkpoints=[100, 5000]) == reference


def test_merge_commutative_associative(curve_d4):
    cut1, cut2 = 20, 100
    part = lambda lo, hi: _scan_chunk(curve_d4, lo, hi, (), False)[0]
    a = part(2, cut1)
    b = part(cut1 + 1, cut2)
    c = part(cut2 + 1, 199)
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    # Every kind keeps its key, in KINDS' order, also at a zero count: above
    # p = 20 no prime of D4 is bad or small.
    assert b.counts[BAD] == b.counts[SMALL] == c.counts[BAD] == c.counts[SMALL] == 0
    for acc in (a, b, c, merge(a, b), merge(b, c), merge(merge(a, b), c)):
        assert tuple(acc.counts) == KINDS
        assert acc.pi_x == sum(acc.counts.values())
    with pytest.raises(ValueError):
        merge(a, c)


def test_accumulator_consistency(curve_d4):
    acc = scan(curve_d4, 10**4, checkpoints=[10, 100, 1000])
    assert acc.sum_dp == sum(d * c for d, c in acc.hist_dp.items())
    assert acc.pi_x == 1229
    xs = [c.x for c in acc.checkpoints]
    assert xs == sorted(xs)
    for earlier, later in zip(acc.checkpoints, acc.checkpoints[1:]):
        assert later.sum_dp >= earlier.sum_dp
        assert later.sum_ep >= earlier.sum_ep


def test_checkpoint_values(curve_d4):
    acc = scan(curve_d4, 100, checkpoints=[20, 100])
    assert acc.checkpoints[0] == (20, 16, 34, 8)
    assert acc.checkpoints[1].pi_x == 25


def test_parallel_scan_matches_serial(curve_d4, monkeypatch):
    serial_acc, serial_recs = scan_records(curve_d4, 5 * 10**4, checkpoints=[10**4])
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    par_acc, par_recs = scan_records(curve_d4, 5 * 10**4, checkpoints=[10**4], workers=3)
    chunked_acc, chunked_recs = scan_records(curve_d4, 5 * 10**4, checkpoints=[10**4])
    assert par_recs == chunked_recs
    assert par_acc == chunked_acc
    # Chunking choices never change the values.
    assert par_recs == serial_recs
    assert par_acc == serial_acc


def _no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _span_ranges(x):
    """The [lo, hi] of scan's jobs for x at the current CHUNK_SPAN, in order."""
    return [(max(hi - stats.CHUNK_SPAN + 1, 2), hi)
            for hi in reversed(range(x, 1, -stats.CHUNK_SPAN))]


def _fail_in_a_child(monkeypatch, lo, fail):
    """Make _scan_chunk call fail(lo, hi) on the range from lo; it must run in a child."""
    parent, real = os.getpid(), stats._scan_chunk

    def chunk(curve, lo_, hi, *rest):
        if lo_ == lo:
            assert os.getpid() != parent, "the range was meant for a child"
            fail(lo_, hi)
        return real(curve, lo_, hi, *rest)

    monkeypatch.setattr(stats, "_scan_chunk", chunk)


@pytest.mark.parametrize("workers, k", [(2, 1), (2, 9), (3, 2), (3, 40)])
def test_child_error_follows_the_earlier_ranges(curve_d4, monkeypatch, deadline, workers, k):
    # Range k belongs to child k % workers; its exception reaches the caller
    # with its type and message once every range before it is in the sink,
    # and no process is left running.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    reference = []
    scan(curve_d4, 5 * 10**4, records=reference.append)
    lo = _span_ranges(5 * 10**4)[k][0]

    def ambiguous(lo, hi):
        raise AmbiguousFrobenius(lo)

    _fail_in_a_child(monkeypatch, lo, ambiguous)
    blocks = []
    with pytest.raises(AmbiguousFrobenius) as err:
        scan(curve_d4, 5 * 10**4, workers=workers, records=blocks.append)
    assert (err.value.p, str(err.value)) == (lo, f"ambiguous Frobenius candidates at p={lo}")
    assert len(blocks) == k
    assert all(np.array_equal(a, b) for a, b in zip(blocks, reference))
    _no_child_left()


def test_child_that_dies_names_its_range(curve_d4, monkeypatch, deadline):
    # Range 5 is the last child's: only the parent's own close of that
    # child's pipe end lets its death end the pipe.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    lo, hi = _span_ranges(5 * 10**4)[5]
    _fail_in_a_child(monkeypatch, lo, lambda lo, hi: os._exit(1))
    with pytest.raises(stats.WorkerLost, match=rf"\[{lo}, {hi}\] ended with exit code 1 "):
        scan(curve_d4, 5 * 10**4, workers=3)
    _no_child_left()


def test_scan_leaves_no_child_running(curve_d4, monkeypatch, deadline):
    # After a clean scan, and after the caller's sink raises on the first
    # range while the children are still sweeping (or blocked on a full pipe).
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    assert scan(curve_d4, 5 * 10**4, workers=3).pi_x == 5133
    _no_child_left()

    def sink(rows):
        raise KeyError("sink")

    with pytest.raises(KeyError, match="sink"):
        scan(curve_d4, 5 * 10**4, workers=3, records=sink)
    _no_child_left()


@pytest.fixture
def two_cpus():
    """The first two usable CPUs, made this process's whole mask for the test."""
    if len(stats.usable_cpus()) < 2 or not hasattr(os, "sched_setaffinity"):
        pytest.skip("placement needs an affinity mask of at least 2 CPUs")
    full = os.sched_getaffinity(0)
    cpus = stats.usable_cpus()[:2]
    os.sched_setaffinity(0, cpus)
    yield cpus
    os.sched_setaffinity(0, full)


def test_scan_pins_each_process_to_its_own_cpu(curve_d4, monkeypatch, deadline, two_cpus):
    # On a 2-CPU mask at 2 workers the caller sweeps its ranges on the
    # mask's first CPU and the child on its second; the caller's mask comes
    # back after a clean scan, after a child's error and after the sink's.
    cpus = two_cpus
    original = os.sched_getaffinity(0)
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)

    def where(rows):
        return os.sched_getaffinity(0)

    masks = []
    scan(curve_d4, 5 * 10**4, workers=2, records=masks.append, render=where)
    assert len(masks) == len(_span_ranges(5 * 10**4))
    assert masks[0::2] == [{cpus[0]}] * len(masks[0::2])
    assert masks[1::2] == [{cpus[1]}] * len(masks[1::2])
    assert os.sched_getaffinity(0) == original

    def sink(mask):
        raise KeyError("sink")

    with pytest.raises(KeyError, match="sink"):
        scan(curve_d4, 5 * 10**4, workers=2, records=sink, render=where)
    assert os.sched_getaffinity(0) == original

    def ambiguous(lo, hi):
        raise AmbiguousFrobenius(lo)

    _fail_in_a_child(monkeypatch, _span_ranges(5 * 10**4)[3][0], ambiguous)
    with pytest.raises(AmbiguousFrobenius):
        scan(curve_d4, 5 * 10**4, workers=2, records=masks.append, render=where)
    assert os.sched_getaffinity(0) == original
    _no_child_left()


@pytest.mark.parametrize("mask, workers, refuse", [
    ({0}, 2, False),
    ({0, 1}, 3, False),
    ({0, 1, 2}, 2, False),
    ({0, 1}, 2, True),
], ids=["one-cpu-at-2", "two-cpus-at-3", "three-cpus-at-2", "setaffinity-fails"])
def test_scan_without_placement_matches_serial(curve_d4, monkeypatch, deadline,
                                               mask, workers, refuse):
    # A mask of other than `workers` CPUs pins nothing; a refused pin is
    # ignored.  Every call is the caller's: the child's CPU, inherited at the
    # fork, then its own, then the restore of its mask.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    reference = scan_records(curve_d4, 5 * 10**4, checkpoints=[10**4])
    calls = []

    def setaffinity(pid, cpus):
        calls.append((pid, set(cpus)))
        if refuse:
            raise OSError("refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", setaffinity, raising=False)
    assert scan_records(curve_d4, 5 * 10**4, checkpoints=[10**4], workers=workers) == reference
    assert calls == ([(0, {1}), (0, {0}), (0, {0, 1})] if refuse else [])
    _no_child_left()


def test_children_leave_the_callers_buffered_output_alone():
    # A child leaves by os._exit alone, so the line that the caller holds in
    # its stdout buffer at the forks is written once, by the caller.
    src = os.path.dirname(os.path.dirname(stats.__file__))
    code = ("from cmfactors import stats\n"
            "from cmfactors.eccurve import get_curve\n"
            "stats.CHUNK_SPAN = 701\n"
            "print('before')\n"
            "print('after', stats.scan(get_curve('D4'), 5 * 10**4, workers=3).pi_x)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "before\nafter 5133\n", "")


def test_scan_with_an_empty_chunk(curve_d4, monkeypatch):
    reference = scan_records(curve_d4, 100, checkpoints=[91])
    monkeypatch.setattr(stats, "CHUNK_SPAN", 4)
    # The chunks are [2, 4], [5, 8], ..., [97, 100], and [93, 96] holds no prime.
    assert 96 in range(100, 1, -stats.CHUNK_SPAN)
    assert len(stats.primes_array(96, lo=93)) == 0
    assert scan_records(curve_d4, 100, checkpoints=[91]) == reference


def test_scan_sieves_one_chunk_at_a_time(curve_d4, monkeypatch):
    spans = []
    sieve = stats.odd_mask

    def recording(x, lo=2):
        spans.append(x - lo + 1)
        return sieve(x, lo)

    monkeypatch.setattr(stats, "odd_mask", recording)
    acc = scan(curve_d4, 10**5, workers=1)
    assert acc.pi_x == 9592
    assert spans and max(spans) <= stats.CHUNK_SPAN


def test_scan_memory_does_not_grow_with_x_max(curve_d4, monkeypatch):
    # 62,500 ranges of 16 integers: up to the first range swept, scan holds
    # nothing per range, as a list of jobs built up front would (~10 MB).
    class FirstChunk(Exception):
        pass

    def first_chunk(*args):
        raise FirstChunk(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(stats, "CHUNK_SPAN", 16)
    monkeypatch.setattr(stats, "_scan_chunk", first_chunk)
    tracemalloc.start()
    try:
        with pytest.raises(FirstChunk) as peak:
            scan(curve_d4, 10**6, workers=1)
    finally:
        tracemalloc.stop()
    assert peak.value.args[0] < 256 * 1024


def _random_spans(rng, x):
    """[2, 2], [3, <16], then spans of random length, some under 16, up to x."""
    spans = [(2, 2), (3, 3 + rng.randint(0, 12))]
    while spans[-1][1] < x:
        lo = spans[-1][1] + 1
        size = rng.randint(1, 15) if rng.random() < 0.3 else rng.randint(16, 6000)
        spans.append((lo, min(lo + size - 1, x)))
    return spans


def _fold(records, lo, hi, checkpoints):
    """The accumulator over [lo, hi] of records in increasing p, folded one
    at a time, with its snapshots at the checkpoints in [lo, hi]."""
    acc = stats.SumAccumulator(x_lo=lo, x_processed=hi)
    pending = sorted(x for x in checkpoints if lo <= x <= hi)
    for rec in records:
        while pending and pending[0] < rec.p:
            acc.snapshot(pending.pop(0))
        acc.accumulate(rec)
    for x in pending:
        acc.snapshot(x)
    return acc


def _dp_ep_chunk(curve, lo, hi, checkpoints):
    """The records of the primes in [lo, hi] by dp_ep, folded one record at a time."""
    recs = [dp_ep(p, curve) for p in stats.primes_array(hi, lo=lo).tolist()]
    return _fold(recs, lo, hi, checkpoints), recs


# Models without a residue rule, which the sweep hands to point sampling:
# the quartic twist x^3 - 4x, the sextic twist x^3 + 2 and a quadratic
# twist of the D11 model.
RULELESS = [custom_curve(-4, 0, -1, 1), custom_curve(0, 2, -3, 1),
            custom_curve(-264, -1694, -11, 1)]


@pytest.mark.parametrize("curve", curve_table() + RULELESS, ids=lambda c: c.label)
def test_sweep_matches_dp_ep_loop(curve):
    # The sweep against dp_ep prime by prime, the exact path: records and
    # accumulators, every p <= 1e5.
    rng = random.Random(f"sweep:{curve.label}")
    swept, looped = [], []
    for lo, hi in _random_spans(rng, 10**5):
        cps = tuple(rng.randint(lo, hi) for _ in range(2))
        loop_acc, loop_recs = _dp_ep_chunk(curve, lo, hi, cps)
        acc, rows = _scan_chunk(curve, lo, hi, cps, True)
        assert acc == loop_acc, (curve.label, lo, hi)
        swept.extend(prime_records(rows))
        looped.extend(loop_recs)
    assert len(swept) == 9592
    assert swept == looped


@pytest.mark.parametrize("curve", curve_table() + RULELESS, ids=lambda c: c.label)
def test_column_accumulator_matches_the_records_folded(curve):
    # The accumulator built from the sweep's columns, with and without rows,
    # against SumAccumulator.accumulate over the same range's records, with
    # checkpoints on, just below and just above the range's ends.
    rng = random.Random(f"columns:{curve.label}")
    for lo, hi in _random_spans(rng, 10**5):
        cps = (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, rng.randint(lo, hi))
        acc, rows = _scan_chunk(curve, lo, hi, cps, True)
        assert acc == _fold(prime_records(rows), lo, hi, cps), (curve.label, lo, hi)
        assert _scan_chunk(curve, lo, hi, cps, False) == (acc, None), (curve.label, lo, hi)


@pytest.mark.parametrize("curve", curve_table() + RULELESS, ids=lambda c: c.label)
def test_sweep_at_the_edges_of_the_mask(curve, monkeypatch):
    # The odd-only mask has no slot for 2 nor for an even lo, and 3 and the
    # odd bad primes leave it for dp_ep.  Scans to 2, 3, 4 and 5, windows
    # from an odd or even lo whose first or last slot is 3 or a bad prime,
    # and scans whose ranges put it at every slot: dp_ep's records and
    # accumulators, with and without rows.
    for x in (2, 3, 4, 5):
        cps = sorted({2, x})
        assert scan_records(curve, x, checkpoints=cps) == _dp_ep_chunk(curve, 2, x, cps), x
    for q in sorted({3, *curve.bad_primes} - {2}):
        for lo, hi in ((q - 1, q), (q, q), (q - 1, q + 4), (q, q + 5), (q - 6, q), (q - 5, q + 1)):
            lo, cps = max(lo, 2), (lo, q, hi)
            acc, rows = _scan_chunk(curve, lo, hi, cps, True)
            assert (acc, prime_records(rows)) == _dp_ep_chunk(curve, lo, hi, cps), (lo, hi)
            assert _scan_chunk(curve, lo, hi, cps, False) == (acc, None), (lo, hi)
        for span in (4, 5):
            monkeypatch.setattr(stats, "CHUNK_SPAN", span)
            for x in range(q, q + span):
                assert scan_records(curve, x, checkpoints=[q]) == _dp_ep_chunk(curve, 2, x, [q])


def test_top_range_sums_are_exact_in_int64():
    # The accumulator sums a range's d_p and e_p in int64.  The top range of
    # CHUNK_SPAN integers below X_MAX_LIMIT (of D163, whose arrays over b are
    # the smallest) sums e_p to about 3.6 * 10^18, 39% of 2^63: each sum,
    # and the checkpoint's, must equal the Python-int sum of its rows.
    hi = stats.X_MAX_LIMIT - 1
    acc, rows = _scan_chunk(get_curve("D163"), hi - stats.CHUNK_SPAN + 1, hi, (hi,), True)
    d, e = (sum(rows[:, j].tolist()) for j in (6, 7))
    assert (acc.sum_dp, acc.sum_ep) == (d, e)
    assert acc.checkpoints == [(hi, d, e, len(rows))]
    assert 2**61 < e < 2**62


def test_top_range_sums_are_exact_past_int64(monkeypatch):
    # At a span of 2^20 the top D163 range below X_MAX_LIMIT sums e_p to about
    # 2.9 * 10^19, past 2^63: each sum, and the checkpoints', must still equal
    # the Python-int sum of its rows.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 1 << 20)
    hi = stats.X_MAX_LIMIT - 1
    lo = hi - stats.CHUNK_SPAN + 1
    mid = lo + stats.CHUNK_SPAN // 2
    acc, rows = _scan_chunk(get_curve("D163"), lo, hi, (mid, hi), True)
    d, e = (rows[:, j].tolist() for j in (6, 7))
    assert (acc.sum_dp, acc.sum_ep) == (sum(d), sum(e))
    below = int(np.searchsorted(rows[:, 0], mid, side="right"))
    assert acc.checkpoints == [(mid, sum(d[:below]), sum(e[:below]), below),
                               (hi, sum(d), sum(e), len(rows))]
    assert 2**64 < sum(e) < 2**65


def test_scan_without_records_builds_no_rows(curve_d4, monkeypatch):
    # Without a records sink no range builds its (n, 8) rows, the top range
    # checked past RULES_CHECKED_TO included, at one worker and two.
    x = frobenius.RULES_CHECKED_TO + 100
    reference = scan_records(curve_d4, x, checkpoints=[10**5, x])[0]

    def no_rows(cols, lo, primes):
        raise AssertionError("record rows were built")

    monkeypatch.setattr(stats, "_record_block", no_rows)
    for workers in (1, 2):
        assert scan(curve_d4, x, checkpoints=[10**5, x], workers=workers) == reference


def test_sweep_samples_in_increasing_p(monkeypatch):
    # Without a rule, sampling runs in increasing p, so an ambiguous
    # Frobenius is reported at the smallest p that sampling cannot settle.
    seen = []
    sampling = frobenius.frobenius_by_sampling

    def ambiguous_above_50(p, curve, pi0=None):
        seen.append(p)
        if p > 50:
            raise AmbiguousFrobenius(p)
        return sampling(p, curve, pi0)

    monkeypatch.setattr(frobenius, "frobenius_by_sampling", ambiguous_above_50)
    with pytest.raises(AmbiguousFrobenius) as err:
        _scan_chunk(RULELESS[0], 2, 1000, (), False)
    assert err.value.p == 53
    assert seen == [5, 13, 17, 29, 37, 41, 53]


def test_guarded_chunk_of_a_ruleless_model_samples_each_prime_once(monkeypatch):
    # A model without a rule has no picks to guard: a guarded range samples
    # each ordinary prime once, with the sweep's element as pi0, and no more.
    calls = []
    sampling = frobenius.frobenius_by_sampling

    def sample(p, curve, pi0=None):
        calls.append((p, pi0))
        return sampling(p, curve, pi0)

    monkeypatch.setattr(frobenius, "frobenius_by_sampling", sample)
    curve = RULELESS[0]
    _, rows = _scan_chunk(curve, 2, 3000, (), True, guard=True)
    ordinary = rows[rows[:, 1] == KINDS.index("ord"), 0].tolist()
    assert len(ordinary) > 100
    assert [p for p, _ in calls] == ordinary
    assert all(pi0 == solve_norm(p, curve.order) for p, pi0 in calls)


def test_supersingular_table_matches_cubic_splits():
    # The thirteen models and the quartic twist x^3 - 1000003x, whose
    # squarefree discriminant part is the prime 1000003.
    twist = custom_curve(-1000003, 0, -1, 1)
    for curve in curve_table() + [twist]:
        ss = [p for p in primes_upto(10**5)
              if p > 3 and p not in curve.bad_primes and classify(p, curve) == "ss"]
        d = stats._supersingular_dp(curve, np.array(ss, dtype=np.int64))
        for p, d_p in zip(ss, d.tolist()):
            assert (d_p == 2) == cubic_splits(curve, p), (curve.label, p)


def test_scan_past_checked_range_samples_its_top_primes(curve_d4, monkeypatch):
    sampled = []
    sampling = frobenius.frobenius_by_sampling
    monkeypatch.setattr(
        frobenius, "frobenius_by_sampling", lambda p, curve: sampled.append(p) or sampling(p, curve)
    )
    # Cut from 2 upwards, the ranges to 2 + 16 * CHUNK_SPAN would end in a
    # one-integer range with no ordinary prime to check.
    for x in (frobenius.RULES_CHECKED_TO + 100, 2 + 16 * stats.CHUNK_SPAN):
        sampled.clear()
        scan(curve_d4, x)
        assert len(sampled) == frobenius.GUARD_PRIMES, x
        assert sampled == sorted(sampled) and x - 1000 < sampled[0] < sampled[-1] <= x
    sampled.clear()
    scan(curve_d4, frobenius.RULES_CHECKED_TO)
    assert sampled == []


def test_scan_catches_a_corrupted_rule(curve_d4, monkeypatch):
    # -1 times the true rule's residues: consistent, complete and wrong
    # (it picks -pi_p), so only the sampling check can see it.
    wrong = FrobeniusRule((-1, 0, -1, 1), "pi", 4, [(3, 0), (1, 2)])
    monkeypatch.setattr(frobenius, "rule_for", lambda curve: wrong)
    with pytest.raises(ArithmeticError, match="disagrees with point sampling"):
        scan(curve_d4, frobenius.RULES_CHECKED_TO + 100)


def test_scan_catches_a_corrupted_rule_in_a_worker(curve_d4, monkeypatch):
    # The job that sweeps the top range runs the check, here in a forked
    # worker, and its ArithmeticError reaches the caller.
    wrong = FrobeniusRule((-1, 0, -1, 1), "pi", 4, [(3, 0), (1, 2)])
    monkeypatch.setattr(frobenius, "rule_for", lambda curve: wrong)
    with pytest.raises(ArithmeticError, match="disagrees with point sampling"):
        scan(curve_d4, frobenius.RULES_CHECKED_TO + 100, workers=2)


def test_scan_chunk_checks_its_split_primes(monkeypatch):
    # One range near 2*10^7, where no other test sweeps, whose sweep misses
    # its largest split prime.
    curve, lo = get_curve("D163"), 2 * 10**7 + 1
    hi = lo + stats.CHUNK_SPAN - 1
    assert _scan_chunk(curve, lo, hi, (), False)[0].pi_x > 0
    p = stats._split_points(curve.order, *stats.odd_mask(hi, lo))[0]
    monkeypatch.setattr(stats, "_split_points", split_points_dropping(drop_largest, 0))
    with pytest.raises(ArithmeticError, match=f"left the split prime p={p.max()} unclassified"):
        _scan_chunk(curve, lo, hi, (), False)


def test_ranges_matches_python_ranges():
    rng = random.Random(11)
    for step in (1, 2):
        for _ in range(200):
            k = rng.randint(0, 8)
            starts = [rng.randint(-30, 30) for _ in range(k)]
            stops = [s + rng.randint(-6, 15) for s in starts]
            tags = [rng.randint(1, 99) for _ in range(k)]
            x, t = stats._ranges(*(np.array(v, dtype=np.int64) for v in (starts, stops)),
                                 step, np.array(tags, dtype=np.int64))
            want = [(v, tag) for s, e, tag in zip(starts, stops, tags) for v in range(s, e, step)]
            assert list(zip(x.tolist(), t.tolist())) == want, (starts, stops, step)


def test_isqrt_is_exact_below_2_52():
    # _split_points takes _isqrt of 4*hi up to X_MAX_LIMIT = 2^50: check the
    # square boundaries k^2 - 1, k^2, k^2 + 2k where float rounding bites,
    # for k up to 2^26 - 1, whose k^2 + 2k is 2^52 - 1.
    ks = [1, 2, 3] + [k + i for k in (1 << 13, 1 << 25) for i in (-1, 0, 1)] + [(1 << 26) - j for j in (1, 2)]
    n = [m for k in ks for m in (k * k - 1, k * k, k * k + 2 * k)]
    rng = random.Random(52)
    n += [rng.randrange(1 << 52) for _ in range(20000)] + [rng.randrange(1 << bits) for bits in range(1, 53)]
    got = stats._isqrt(np.array(n, dtype=np.int64))
    assert got.tolist() == [math.isqrt(m) for m in n]


def test_odd_classes_are_the_odd_norms():
    # For each order, the kept classes of (a, b) mod 2 give odd norms and
    # the dropped ones even norms, by quadorder.norm on a block of points.
    for curve in curve_table():
        od = curve.order
        kept = stats._odd_classes(od)
        for a in range(-5, 6):
            for b in range(-5, 6):
                assert (norm(QuadInt(a, b, od)) % 2 == 1) == (a % 2 in kept[b % 2]), curve.label


@pytest.mark.parametrize("label,share", [("D4", 1 / 2), ("D3", 3 / 4), ("D7", 1 / 4),
                                         ("D163", 3 / 4)])
def test_sweep_generates_only_points_of_odd_norm(monkeypatch, label, share):
    # The lattice points the sweep builds for one range are exactly those
    # of odd norm in it with u = 2a + t*b > 0, and a > b when w > 2: one of
    # the w points with b >= 1 per norm.  So they are share / w of all its
    # points with b >= 1, where share is that of the odd norms: 1/8 for
    # D4, D3 and D7, 3/8 for D163.
    generated = []
    ranges = stats._ranges

    def recording(*args):
        a, b = ranges(*args)
        generated.append((a, b))
        return a, b

    monkeypatch.setattr(stats, "_ranges", recording)
    curve = get_curve(label)
    od = curve.order
    t, n, D = od.beta_trace, od.beta_norm, -od.disc
    lo = 10**6 - stats.CHUNK_SPAN + 1
    hi = 10**6 - 1  # the sweep's range ends at its mask's last odd number
    _scan_chunk(curve, lo, 10**6, (), False)
    (a, b), = generated
    bmax = math.isqrt(4 * hi // D)
    grid_a, grid_b = np.meshgrid(np.arange(-math.isqrt(4 * hi) - bmax, math.isqrt(4 * hi) + bmax),
                                 np.arange(1, bmax + 1))
    norms = grid_a * grid_a + t * grid_a * grid_b + n * grid_b * grid_b
    in_range = (norms >= lo) & (norms <= hi)
    sector = (2 * grid_a + t * grid_b > 0) & ((grid_a > grid_b) if od.w > 2 else True)
    kept = in_range & (norms % 2 == 1) & sector
    assert sorted(zip(a.tolist(), b.tolist())) == sorted(zip(grid_a[kept].tolist(),
                                                              grid_b[kept].tolist()))
    assert abs(len(a) / in_range.sum() - share / od.w) < 5e-3


def test_split_points_are_cornacchia_elements():
    # For every order and every split p <= 2*10^4 that the sweep treats
    # (p > 3, p prime to D), exactly one point of the sector has norm p,
    # and its image is solve_norm's element.
    top = 2 * 10**4
    for curve in curve_table():
        od = curve.order
        split = {p: solve_norm(p, od) for p in primes_upto(top) if p > 3 and od.disc % p}
        split = {p: (x.a, x.b) for p, x in split.items() if x is not None}
        low, mask = 3, np.zeros((top - 3) // 2 + 1, dtype=bool)
        mask[(np.array(list(split)) - low) // 2] = True
        p, a, b = stats._split_points(od, low, mask)
        assert sorted(p.tolist()) == sorted(split), curve.label
        assert {q: (x, y) for q, x, y in zip(p.tolist(), a.tolist(), b.tolist())} == split


def test_sweep_check_tool_finds_no_difference():
    # The scans of the thirteen curves and three twists through the CLI, at
    # one and two workers, with --out and without it (no rows are built),
    # against dp_ep on every prime up to 2*10^4.
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "sweep_check.py")
    out = subprocess.run([sys.executable, tool, "20000"], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "0 of 64 scans differ"


# --- decomposition identity ----------------------------------------------------


def test_decomposition_example_20(curve_d4):
    lhs, rhs, equal = decomposition_check(curve_d4, 20)
    assert (lhs, rhs, equal) == (16, 16, True)


def test_decomposition_example_4(curve_d4):
    lhs, rhs, equal = decomposition_check(curve_d4, 4)
    assert (lhs, rhs, equal) == (2, 2, True)


def test_decomposition_exact_at_1e4():
    for label in ("j1728-D4", "j-3375-D7"):
        curve = get_curve(label)
        lhs, rhs, equal = decomposition_check(curve, 10**4)
        assert equal, (label, lhs, rhs)


def test_decomposition_reuses_records(curve_d4):
    lhs, rhs, equal = decomposition_check(curve_d4, 2000)
    assert equal
    assert lhs == scan(curve_d4, 2000).sum_dp


# --- Brun-Titchmarsh countering -------------------------------------------------


def test_bt_examples():
    mu = QuadInt(3, 0, O1)
    one = QuadInt(1, 0, O1)
    assert bt_counter(50, mu, one) == 5
    assert bt_counter(10, mu, one) == 0
    assert bt_counter(10, QuadInt(1, 0, O1), one) == 16


def test_bt_preconditions():
    mu = QuadInt(3, 0, O1)
    with pytest.raises(ValueError):
        bt_counter(5, mu, QuadInt(1, 0, O1))  # Nm(mu) not < x
    with pytest.raises(ValueError):
        bt_counter(50, mu, QuadInt(3, 3, O1))  # not comaximal
    with pytest.raises(ValueError):
        bt_counter(50, QuadInt(3, 0, order(-3, 2)), QuadInt(1, 0, order(-3, 2)))


def test_comaximal():
    assert comaximal(QuadInt(3, 0, O1), QuadInt(1, 0, O1))
    assert not comaximal(QuadInt(2, 0, O1), QuadInt(1, 1, O1))  # both even norm


def test_phi_element_split_prime():
    # (2+i) has norm 5, a degree-one prime: Phi = 4.
    assert phi_element(QuadInt(2, 1, O1)) == 4


def test_bt_ratio_bounded():
    # Diagnostic shadow of the upper bound: frozen family, frozen bound.
    one = QuadInt(1, 0, O1)
    for mu_coords in [(2, 0), (3, 0), (4, 0), (1, 1), (2, 1)]:
        mu = QuadInt(*mu_coords, O1)
        assert bt_ratio(2000, mu, bt_counter(2000, mu, one)) <= 8.0


# Brute-force references: a lattice box, divisibility as membership of the
# lattice spanned by mu and mu*beta, and Phi and comaximality from "alpha is
# invertible mod mu", with no Kronecker symbol and no content.


def _box(od, x):
    """Every a + b*beta of norm <= x, as arrays (a, b, norm).

    The norm is at least 3/4 of max(a^2, b^2) in all nine maximal orders.
    """
    r = math.isqrt(4 * x) + 1
    a, b = np.mgrid[-r:r + 1, -r:r + 1].reshape(2, -1)
    nm = a * a + od.beta_trace * a * b + od.beta_norm * b * b
    return a[nm <= x], b[nm <= x], nm[nm <= x]


def _divides(mu, a, b):
    """Whether mu divides each a + b*beta: whether a + b*beta = c*mu + d*mu*beta
    for integers c, d, solved by Cramer's rule."""
    t, n = mu.order.beta_trace, mu.order.beta_norm
    det = mu.a * (mu.a + mu.b * t) + mu.b * mu.b * n
    c = a * (mu.a + mu.b * t) + b * mu.b * n
    d = mu.a * b - mu.b * a
    return (c % det == 0) & (d % det == 0)


def _invertible(mu, a, b):
    """Whether (a + b*beta) * y = 1 (mod mu) for some y, for each entry of the
    arrays a, b; y runs over [0, Nm(mu))^2, which holds every residue."""
    t, n = mu.order.beta_trace, mu.order.beta_norm
    ya, yb = np.mgrid[0:norm(mu), 0:norm(mu)].reshape(2, 1, -1)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    pa = a * ya - b * yb * n
    pb = a * yb + b * ya + b * yb * t
    return _divides(mu, pa - 1, pb).any(axis=-1)


def _prime_elements(od, x):
    """The points of prime norm <= x, and those of norm p^2 <= x with no point of norm p."""
    a, b, nm = _box(od, x)
    primes = [p for p in range(2, x + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    inert = [p * p for p in primes if p * p <= x and p not in nm]
    keep = np.isin(nm, primes + inert)
    return a[keep], b[keep]


# For each order, mu and alpha as coordinates: units, rational integers with
# inert, ramified and split factors, and multiples with content above 1.
_BT_MUS = [(1, 0), (0, 1), (2, 0), (3, 0), (5, 0), (6, 0), (1, 1), (2, 1), (-1, 2),
           (2, 2), (3, 3), (4, 2)]
_BT_ALPHAS = [(1, 0), (0, 1), (2, 1), (-3, 2), (5, -1), (7, 4)]


@pytest.mark.parametrize("od", maximal_orders(), ids=lambda od: f"g{od.g}")
def test_bt_counter_matches_bruteforce(od):
    for x in (2, 3, 50, 2000):
        pa, pb = _prime_elements(od, x)
        for mu in (QuadInt(a, b, od) for a, b in _BT_MUS):
            for alpha in (QuadInt(a, b, od) for a, b in _BT_ALPHAS):
                if norm(mu) >= x or not _invertible(mu, alpha.a, alpha.b):
                    with pytest.raises(ValueError):
                        bt_counter(x, mu, alpha)
                    continue
                expected = int(_divides(mu, pa - alpha.a, pb - alpha.b).sum())
                assert bt_counter(x, mu, alpha) == expected, (x, mu, alpha)


@pytest.mark.parametrize("od", maximal_orders(), ids=lambda od: f"g{od.g}")
def test_phi_element_and_comaximal_match_bruteforce(od):
    zero = QuadInt(0, 0, od)
    for mu in (QuadInt(a, b, od) for a, b in _BT_MUS):
        n = norm(mu)
        for alpha in (QuadInt(a, b, od) for a, b in _BT_ALPHAS):
            assert comaximal(mu, alpha) == _invertible(mu, alpha.a, alpha.b), (mu, alpha)
        assert not comaximal(mu, zero) and not comaximal(zero, mu)
        if n <= 50:
            # Each residue mod mu appears n times in [0, n)^2.
            units = sum(int(_invertible(mu, a, np.arange(n)).sum()) for a in range(n))
            assert phi_element(mu) * n == units, mu


def test_bt_counter_memory_does_not_grow_with_x():
    # The prime elements come range by range from the sweep, so the peak
    # is set by CHUNK_SPAN, not by x; a sieve of [2, x] alone takes 5 MB.
    mu, one = QuadInt(3, 0, O1), QuadInt(1, 0, O1)
    tracemalloc.start()
    try:
        bt_counter(10**7, mu, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- Schur and Wintner sums -----------------------------------------------------


def test_phi_sieve_matches_euler_phi():
    phi = [0] + [euler_phi(n) for n in range(1, 10**4 + 1)]
    assert stats._phi_sieve(10**4).tolist() == phi
    for t in range(1, 50):
        assert stats._phi_sieve(t).tolist() == phi[: t + 1], t


def test_phi_sieve_peak_memory():
    # phi (int64) and the cofactor (int32) take 12 bytes per value.  Every
    # step on phi runs in slices, so its int64 quotients and bool mask add
    # next to nothing; the quotient of phi[2::2] over the whole range took
    # the peak to 16 MiB, and the last step's quotient and mask to 21.
    t = 10**6
    tracemalloc.start()
    try:
        stats._phi_sieve(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


def test_schur_examples():
    assert schur_sum(1) == 1
    assert schur_sum(3) == Fraction(353, 16)


def test_schur_exact_vs_float():
    exact = schur_sum(2000, exact=True)
    approx = schur_sum(2000, exact=False)
    assert abs(float(exact) - approx) < 1e-9 * approx


def test_schur_float_path_peak_memory():
    # One float copy of phi, divided and raised to the fourth power in
    # place: the peak is _phi_sieve's own, about 21 bytes per value,
    # where a second float array and a temporary of the power took 24.
    t = 10**6
    tracemalloc.start()
    try:
        schur_sum(t, exact=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22.5 * t


def test_schur_growth_is_linear():
    r4 = schur_sum(10**4, exact=False) / 10**4
    r5 = schur_sum(10**5, exact=False) / 10**5
    assert abs(r5 / r4 - 1) < 0.05


def test_wintner_examples():
    assert wintner_sum(2) == Fraction(5, 4)
    # Direct summation oracle over d <= 10.
    expected = Fraction(0)
    for d in range(1, 11):
        if all(e == 1 for _, e in factorize(d)):
            expected += Fraction(euler_phi(d), d * d)
    assert expected == Fraction(16319, 8820)
    assert wintner_sum(10) == expected


def test_wintner_slope_stability():
    r5 = wintner_sum(10**5) / math.log(10**5)
    r6 = wintner_sum(10**6) / math.log(10**6)
    assert 0.9 <= r6 / r5 <= 1.1


# --- squarefree restriction inequality -------------------------------------------


def test_trivlem_example():
    res = trivlem_check(lambda p: Fraction(1), 2, 4)
    assert res.lhs == 2
    assert res.rhs == Fraction(3, 2)
    assert res.holds


def test_trivlem_k1_is_equality():
    res = trivlem_check(lambda p: Fraction(1, 3), 1, 50)
    assert res.lhs == res.rhs
    assert res.holds


def test_trivlem_randomized():
    rng = random.Random(7)
    primes = [p for p in range(2, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for _ in range(200):
        gmap = {p: Fraction(rng.randint(0, 8), 4) for p in primes}
        k = rng.randint(1, 100)
        t = rng.randint(1, 1000)
        res = trivlem_check(lambda p: gmap[p], k, t)
        assert res.holds


# --- logarithmic integral ----------------------------------------------------------


def _li_series(y: float) -> float:
    """Independent oracle: li(y) = gamma + ln ln y + sum (ln y)^n / (n n!)."""
    gamma = 0.5772156649015328606
    def li_point(v):
        L = math.log(v)
        total = gamma + math.log(L)
        term = 1.0
        for n in range(1, 400):
            term *= L / n
            add = term / n
            total += add
            if add < 1e-17 * abs(total) and n > L:
                break
        return total
    return li_point(y) - li_point(2.0)


@pytest.mark.parametrize("y", [10.0, 1e4, 1e8, 1e12, 1e14])
def test_li_quadrature_matches_series(y):
    assert abs(li(y) - _li_series(y)) <= 1e-8 * _li_series(y)


def test_sum_ep_ratio_strictly_inside_unit_interval(curve_d4):
    acc = scan(curve_d4, 10**4, checkpoints=[10**4])
    cp = acc.checkpoints[0]
    ratio = cp.sum_ep / li(float(cp.x) ** 2)
    assert 0.0 < ratio < 1.0
