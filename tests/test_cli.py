import argparse
import json
import math
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import drop_largest, drop_least_a, prime_records, split_points_dropping

import cmfactors

from cmfactors import cli, frobenius, oracle, stats
from cmfactors.cli import CSV_HEADER, _block_bytes, _record_line, build_parser, main
from cmfactors.eccurve import get_curve
from cmfactors.frobenius import KINDS, AmbiguousFrobenius
from cmfactors.frobrules import FrobeniusRule
from cmfactors.primesieve import odd_mask, primes_upto
from cmfactors.quadorder import QuadInt, order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_example(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code, stdout, _ = run(
        capsys, "scan", "--curve", "j1728-D4", "--xmax", "20", "--out", str(out)
    )
    assert code == 0
    # The temp files were renamed into place; nothing else is left.
    assert sorted(os.listdir(tmp_path)) == ["records.csv", "records.csv.summary.json"]
    summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
    assert summary["sum_dp"] == 16
    assert summary["curve"] == "j1728-D4"
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9  # 8 primes below 20
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[1] in {"bad", "ord", "ss", "small"}
        for i in (0, 2, 3, 4, 5, 6, 7):
            int(fields[i])  # strictly integer records


def test_scan_xmax_4(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, stdout, _ = run(capsys, "scan", "--curve", "D4", "--xmax", "4", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["2", "3"]
    assert json.loads((tmp_path / "r.csv.summary.json").read_text())["sum_dp"] == 2


def test_scan_empty_out_path_exit_2(tmp_path, monkeypatch, capsys):
    # An empty --out is a path that names no file, not a request for stdout only.
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "scan", "--curve", "D4", "--xmax", "100", "--out", "")
    assert (code, stdout, err) == (2, "", "error: --out: empty path\n")
    assert os.listdir(tmp_path) == []


def test_scan_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, *_ = run(
            capsys,
            "scan", "--curve", "D4", "--xmax", "3000", "--seed", "9",
            "--checkpoints", "1000,2000", "--out", str(path), "--workers", "2",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() == (
        tmp_path / "b.csv.summary.json"
    ).read_bytes()


def test_verify_ok(capsys):
    code, stdout, _ = run(capsys, "verify", "--curve", "j1728-D4", "--pmax", "300")
    assert code == 0
    assert "0 mismatches" in stdout


def test_verify_boundary_pmax_3(capsys):
    code, stdout, _ = run(capsys, "verify", "--curve", "j1728-D4", "--pmax", "3")
    assert code == 0


def test_verify_corrupted_entry_fails(capsys):
    # j = 0 model claimed to have CM by Z[i]: mismatches, exit 1.
    code, stdout, _ = run(
        capsys, "verify", "--custom", "0,2,-3,1", "--pmax", "100"
    )
    assert code == 0  # control: correct claim passes
    code, stdout, err = run(
        capsys, "verify", "--custom", "0,2,-1,1", "--pmax", "100"
    )
    assert code == 2  # the custom-curve gate rejects it before the verify loop
    assert stdout == "" and err == (
        "error: custom curve failed validation at p=5: ambiguous Frobenius\n")


def test_custom_gate_names_both_structures(capsys):
    # A Z[i] model claimed for the conductor-2 order: at p = 5 the group
    # order agrees and the structure does not, so the message must show both.
    code, stdout, err = run(capsys, "scan", "--custom=-4,0,-1,2", "--xmax", "100")
    assert code == 2 and stdout == ""
    assert err == ("error: custom curve failed validation at p=5: "
                   "pipeline(d,e,N,a)=(1,4,4,2) but oracle(d,e,N)=(2,2,4)\n")


@pytest.mark.parametrize("corrupt", ["supersingular-dp", "unit-selection"])
def test_verify_checks_the_records_scan_writes(capsys, monkeypatch, corrupt):
    # A sweep that writes wrong values must fail verify: the oracle is
    # compared with the sweep's records, not with a per-prime path.
    if corrupt == "supersingular-dp":
        monkeypatch.setattr(stats, "_supersingular_dp", lambda curve, p: np.ones_like(p))
    else:
        # Cornacchia's element as it comes, without the rule's unit.
        monkeypatch.setattr(FrobeniusRule, "select_arrays", lambda self, p, a, b: (a, b))
    code, stdout, _ = run(capsys, "verify", "--curve", "D4", "--pmax", "300")
    assert code == 1
    head, columns, *rows = stdout.splitlines()
    assert head == f"j1728-D4: {len(rows)} mismatches over 61 good primes"
    assert columns == "p,pipeline(d,e,N,a),oracle(d,e,N)" and len(rows) > 10
    # The first row in full: the record as scan wrote it, then the oracle's.
    first = {"supersingular-dp": "7,(1,8,8,0),(2, 4, 8)", "unit-selection": "5,(1,2,2,4),(2, 4, 8)"}
    assert rows[0] == first[corrupt]


def test_verify_asks_the_oracle_once_per_good_prime(monkeypatch):
    # perfbench's oracle counters time cli.group_structure: one call per
    # good prime, whatever the records hold.
    calls = []
    group_structure = cli.group_structure
    monkeypatch.setattr(cli, "group_structure", lambda curve, p: calls.append(p) or group_structure(curve, p))
    checked, mismatches = cli.oracle_mismatches(get_curve("D4"), 300)
    assert (checked, mismatches) == (61, [])
    assert calls == [p for p in primes_upto(300) if p != 2]


@pytest.mark.parametrize("label, expected", [("D4", [3]), ("D3", [])])
def test_verify_asks_frobenius_for_p_3_only_where_it_is_good(monkeypatch, capsys, label, expected):
    # The oracle's other caller: dp_ep, which scan runs at p <= 3 and the bad
    # primes, asks frobenius.group_structure once for p = 3 where 3 is good.
    # perfbench counts these calls under the same name as cli's.
    calls = []
    group_structure = frobenius.group_structure
    monkeypatch.setattr(frobenius, "group_structure",
                        lambda curve, p: calls.append(p) or group_structure(curve, p))
    code, _, _ = run(capsys, "verify", "--curve", label, "--pmax", "300")
    assert code == 0
    assert calls == expected


# The three models without a residue rule of tools/sweep_check.py: their
# sweep hands every ordinary p to point sampling.
@pytest.mark.parametrize("model", ["-4,0,-1,1", "0,2,-3,1", "-264,-1694,-11,1"])
def test_verify_twists_without_a_rule(capsys, model):
    code, stdout, _ = run(capsys, "verify", f"--custom={model}", "--pmax", "3000")
    assert code == 0
    assert " 0 mismatches over " in stdout and stdout.endswith(" good primes up to 3000\n")


def test_identity_cli(capsys):
    code, stdout, _ = run(capsys, "identity", "--curve", "j1728-D4", "--x", "20")
    assert code == 0
    assert "lhs=16 rhs=16" in stdout


def test_aux_schur(capsys):
    code, stdout, _ = run(capsys, "aux", "schur", "--t", "3")
    assert code == 0
    assert "353/16" in stdout


def test_aux_wintner(capsys):
    code, stdout, _ = run(capsys, "aux", "wintner", "--z", "10")
    assert code == 0
    assert "16319/8820" in stdout


@pytest.mark.parametrize("command, bound", [("wintner", 10000), ("schur", 20000)])
def test_aux_prints_an_exact_sum_past_the_int_digit_limit(capsys, command, bound):
    # The exact Fraction near EXACT_SUM_BOUND has more digits than Python
    # converts to str by default; the sum is printed in full all the same.
    flag = "--z" if command == "wintner" else "--t"
    int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # Python >= 3.11
    limit = int_digit_limit()
    code, stdout, err = run(capsys, "aux", command, flag, str(bound))
    assert (code, err) == (0, "")
    assert int_digit_limit() == limit  # lifted only around the print
    text = stdout.split()[0].removeprefix("sum=")
    assert len(text) > 4300
    expected = stats.wintner_sum(bound) if command == "wintner" else stats.schur_sum(bound)
    with cli._unlimited_int_text():
        assert Fraction(text) == expected


def test_aux_wintner_sums_once(capsys, monkeypatch):
    # The slope is read off the one sum.
    calls = []
    wintner_sum = stats.wintner_sum
    monkeypatch.setattr(stats, "wintner_sum", lambda *a: calls.append(a) or wintner_sum(*a))
    code, stdout, _ = run(capsys, "aux", "wintner", "--z", "30000")
    assert code == 0
    assert calls == [(30000,)]
    s = wintner_sum(30000)
    assert stdout == f"sum={s:.6f}\nslope={s / math.log(30000):.6f}\n"


def test_aux_bt(capsys):
    code, stdout, _ = run(
        capsys, "aux", "bt", "--x", "50", "--mu", "3", "--alpha", "1", "--g", "-1"
    )
    assert code == 0
    assert "count=5" in stdout


def test_aux_bt_counts_once(capsys, monkeypatch):
    # The ratio is computed from the one count.
    calls = []
    counter = stats.bt_counter
    monkeypatch.setattr(stats, "bt_counter", lambda *a: calls.append(a) or counter(*a))
    code, stdout, _ = run(
        capsys, "aux", "bt", "--x", "2000", "--mu", "2,1", "--alpha", "1", "--g", "-1"
    )
    assert code == 0
    assert len(calls) == 1
    count = int(stdout.split()[0].removeprefix("count="))
    ratio = stats.bt_ratio(2000, QuadInt(2, 1, order(-1)), count)
    assert stdout == f"count={count} ratio={ratio:.6f}\n"


def test_aux_bt_bad_args(capsys):
    code, _, err = run(
        capsys, "aux", "bt", "--x", "5", "--mu", "3", "--alpha", "1", "--g", "-1"
    )
    assert code == 2


def test_aux_trivlem(capsys):
    # One fixed grid of 9 patterns g, 9 values of k and 4 of t: the same line every run.
    for _ in range(2):
        assert run(capsys, "aux", "trivlem") == (0, "324/324 hold\n", "")


def test_aux_trivlem_exits_1_if_a_case_fails(capsys, monkeypatch):
    calls = []

    def fail_once(g, k, t):
        calls.append((k, t))
        res = check(g, k, t)
        return res._replace(holds=res.holds and len(calls) != 100)

    check = stats.trivlem_check
    monkeypatch.setattr(stats, "trivlem_check", fail_once)
    assert run(capsys, "aux", "trivlem") == (1, "323/324 hold\n", "")
    assert len(calls) == 324


def test_aux_trivlem_takes_no_options():
    for option in ("--trials", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["aux", "trivlem", option, "7"])
        assert exc.value.code == 2


def test_unknown_curve_label_exit_2(capsys):
    code, _, err = run(capsys, "scan", "--curve", "nope", "--xmax", "10")
    assert code == 2


def test_missing_required_args_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["scan"])
    assert exc.value.code == 2


def test_custom_twist_by_large_prime_scans(capsys):
    # x^3 - 1000003x: its bad primes come from A, not from 4|A|^3.
    code, stdout, _ = run(capsys, "scan", "--custom=-1000003,0,-1,1", "--xmax", "20000")
    assert code == 0
    assert json.loads(stdout[stdout.index("{"):])["curve"] == "custom--1000003-0"


def test_custom_past_the_squares_bound_exits_2(capsys, monkeypatch):
    # The discriminant 4 * 1000003^3 has an odd power of 1000003, whose
    # table of squares would pass the (lowered) bound: refused before any
    # range is swept.
    monkeypatch.setattr(stats, "SQUARES_BOUND", 10**6)
    monkeypatch.setattr(stats, "_scan_chunk", None)
    code, stdout, err = run(capsys, "scan", "--custom=-1000003,0,-1,1", "--xmax", "20000")
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --custom -1000003,0,-1,1: ") and err.count("\n") == 1
    assert "1000003, past the table-of-squares bound 1000000" in err


@pytest.mark.parametrize("command", [
    ["scan", "--xmax", "100"], ["verify", "--pmax", "100"], ["identity", "--x", "100"],
], ids=["scan", "verify", "identity"])
def test_table_option_is_rejected(tmp_path, command):
    table = tmp_path / "table.txt"
    table.write_text("mine -1 0 -1 1 2\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--table", str(table), "--curve", "mine"])
    assert exc.value.code == 2


def _option_strings(parser) -> set[str]:
    """Every option string of parser and of its subcommands, at any depth."""
    found = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_readme_names_only_options_the_cli_accepts():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", fh.read()))
    assert named and named - _option_strings(build_parser()) == set()


def _rows(values):
    return np.array(values, dtype=np.int64).reshape(-1, 8)


def test_block_bytes_matches_record_lines():
    # The byte formatter against _record_line, its exact slow path.
    edges = [0, 1, 2**32 - 1, 2**32, 2**62 - 1] + [
        v for k in range(1, 19) for v in (10**k - 1, 10**k)]
    rng = np.random.default_rng(5)
    random_rows = rng.integers(-(2**62) + 1, 2**62, size=(2000, 8)) >> rng.integers(0, 62, size=(2000, 8))
    random_rows[:, 1] = rng.integers(0, len(KINDS), size=2000)
    blocks = [
        _rows([]),
        _rows([[7, 1, -3, 2, -1, 11, 2, 4]]),
        # Every kind; negative a_p, pi_a and pi_b; all-zero columns.
        _rows([[p, k, -(p % 7), -p, p % 3 - 1, 0, 0, 0] for k in range(len(KINDS))
               for p in (2, 3, 101, 99991)]),
        # Each edge alone, so it sets its column's width, then all together.
        *(_rows([[v, i % len(KINDS), v, -v, v, v, -v, v]]) for i, v in enumerate(edges)),
        _rows([[v, i % len(KINDS), -v, v, -v, v, v, v] for i, v in enumerate(edges)]),
        random_rows,
    ]
    for rows in blocks:
        lines = "".join(_record_line(r) + "\n" for r in prime_records(rows))
        # Row-major, and column-major as _record_block builds them.
        assert _block_bytes(rows) == lines.encode()
        assert _block_bytes(np.asfortranarray(rows)) == lines.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--curve", "D4", "--xmax", "100", "--checkpoints", "abc"],
        ["scan", "--curve", "D4", "--xmax", "100", "--checkpoints", "50,1000"],
        ["verify", "--curve", "D4", "--pmax", "1"],
        ["identity", "--curve", "D4", "--x", "1"],
        ["aux", "schur", "--t", "0"],
        ["scan", "--custom", "1,2,x,1", "--xmax", "100"],
        ["scan", "--custom", "1,1,5,1", "--xmax", "100"],
        ["scan", "--custom", "0,0,-1,1", "--xmax", "100"],
        ["verify", "--custom", "10000000000000000007,1,-1,1", "--pmax", "100"],
        ["aux", "bt", "--x", "100", "--mu", "2", "--alpha", "1", "--g", "5"],
        ["aux", "bt", "--x", "100", "--mu", "2,x", "--alpha", "1"],
        ["aux", "bt", "--x", str(10**11), "--mu", "3", "--alpha", "1"],
        ["aux", "bt", "--x", "1000", "--mu", "3", "--alpha", f"{10**22},1"],
        ["aux", "wintner", "--z", str(10**11)],
        ["scan", "--curve", "D4", "--xmax", "100", "--out", "UNWRITABLE_PATH"],
        ["scan", "--curve", "D4", "--xmax", "100", "--out", "FIFO_PATH"],
        ["scan", "--curve", "D4", "--xmax", "100", "--workers", "0"],
        ["scan", "--curve", "D4", "--xmax", "100", "--workers", "-2"],
        # One range at this --xmax, so nothing would fork even without the bound.
        ["scan", "--curve", "D4", "--xmax", "100", "--workers", str(stats.MAX_WORKERS + 1)],
        ["scan", "--curve", "D163", "--custom=-1,0,-1,1", "--xmax", "100"],
        ["scan", "--curve", "D4", "--xmax", str(10**20)],
        ["scan", "--curve", "D4", "--xmax", str(2**50)],
        ["identity", "--curve", "D4", "--x", str(10**20)],
    ],
    ids=[
        "checkpoints-abc", "checkpoint-above-xmax", "verify-pmax-1", "identity-x-1",
        "schur-t-0", "custom-not-integer", "custom-not-class-number-one",
        "custom-singular", "custom-unfactorable",
        "bt-g-5", "bt-mu-not-integer", "bt-x-1e11", "bt-alpha-overflow", "wintner-z-1e11",
        "out-unwritable", "out-fifo", "workers-0", "workers-negative", "workers-past-limit",
        "custom-with-curve",
        "xmax-1e20", "xmax-2^50", "identity-x-1e20",
    ],
)
def test_bad_argument_values_exit_2(tmp_path, capsys, argv):
    fifo = tmp_path / "fifo.csv"
    if "FIFO_PATH" in argv:
        # os.replace would put a regular file in the FIFO's place.
        os.mkfifo(fifo)
    paths = {"UNWRITABLE_PATH": str(tmp_path / "missing" / "x.csv"), "FIFO_PATH": str(fifo)}
    code, stdout, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert stdout == ""
    assert os.listdir(tmp_path) == (["fifo.csv"] if "FIFO_PATH" in argv else [])
    if "FIFO_PATH" in argv:
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def _ambiguous_above_the_gate(monkeypatch):
    # Sampling settles every p up to the --custom gate's 200 and no p above it.
    def ambiguous(p, curve, pi0=None):
        if p > 200:
            raise AmbiguousFrobenius(p)
        return real(p, curve, pi0)

    real = frobenius.frobenius_by_sampling
    monkeypatch.setattr(frobenius, "frobenius_by_sampling", ambiguous)


def test_ambiguous_scan_leaves_no_output(tmp_path, capsys, monkeypatch):
    _ambiguous_above_the_gate(monkeypatch)
    # Small chunks, so rows below p = 200 reach the temp CSV before the failure.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 16)
    # The twist y^2 = x^3 - 4x has no residue rule, so its sweep hands each
    # ordinary p to point sampling, the only path that can meet an
    # ambiguous Frobenius.  Its first ordinary p above 200 is 229.
    out = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "scan", "--custom=-4,0,-1,1", "--xmax", "400",
        "--workers", "1", "--out", str(out),
    )
    assert code == 3
    assert err == "ambiguous Frobenius at p=229\n"
    assert stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("drop", [drop_largest, drop_least_a], ids=["one", "umin"])
def test_scan_exits_1_on_a_split_prime_the_sweep_missed(capsys, monkeypatch, deadline,
                                                        drop, workers):
    # A sweep that misses split primes from range 1 on, the child's first at
    # --workers 2, would write them as supersingular; the range's own check
    # of (Delta_K/p) names the least one it left.
    span = stats.CHUNK_SPAN
    curve = get_curve("D4")
    mutant = split_points_dropping(drop, span)
    low, mask = odd_mask(2 * span, span + 1)
    missed = np.setdiff1d(stats._split_points(curve.order, low, mask)[0],
                          mutant(curve.order, low, mask)[0])
    assert len(missed) == 1 if drop is drop_largest else len(missed) > 1
    monkeypatch.setattr(stats, "_split_points", mutant)
    code, stdout, err = run(capsys, "scan", "--curve", "D4", "--xmax", str(3 * span),
                            "--workers", str(workers))
    assert (code, stdout) == (1, "")
    assert err == (f"error: the sweep of {curve.label} left the split prime "
                   f"p={missed.min()} unclassified\n")


def _ambiguous(lo, hi):
    raise AmbiguousFrobenius(lo)


def _guard_fails(lo, hi):
    raise ArithmeticError(f"the Frobenius rule of j1728-D4 disagrees with point sampling at p={hi}")


@pytest.mark.parametrize("fail, code, message", [
    (lambda lo, hi: os._exit(1), 1,
     "error: the worker sweeping [{lo}, {hi}] ended with exit code 1 before sending its result\n"),
    (_ambiguous, 3, "ambiguous Frobenius at p={lo}\n"),
    (_guard_fails, 1,
     "error: the Frobenius rule of j1728-D4 disagrees with point sampling at p={hi}\n"),
], ids=["dies", "ambiguous", "guard"])
def test_scan_failure_in_a_worker_leaves_no_output(tmp_path, capsys, monkeypatch, deadline,
                                                   fail, code, message):
    # Range 3 of the scan belongs to the one child at --workers 2: whether
    # it dies without a result, raises AmbiguousFrobenius or fails the
    # guard's check, the scan ends with one line on stderr and its exit
    # code, and --out leaves no file behind.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    lo, hi = 1632, 2332
    parent, real = os.getpid(), stats._scan_chunk

    def chunk(curve, lo_, hi_, *rest):
        if lo_ == lo and os.getpid() != parent:
            fail(lo_, hi_)
        return real(curve, lo_, hi_, *rest)

    monkeypatch.setattr(stats, "_scan_chunk", chunk)
    out = tmp_path / "r.csv"
    got, stdout, err = run(
        capsys, "scan", "--curve", "D4", "--xmax", "50000", "--workers", "2", "--out", str(out))
    assert (got, err, stdout) == (code, message.format(lo=lo, hi=hi), "")
    assert os.listdir(tmp_path) == []


def test_child_that_exits_past_its_handler_leaves_no_output(tmp_path, capsys, monkeypatch,
                                                            deadline):
    # A SystemExit escapes the child's handler, which sends only an
    # Exception.  The child still leaves by os._exit, without unwinding into
    # the caller's --out cleanup, and the caller reports it lost: exit 1,
    # one line on stderr, and no target and no temp file.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 701)
    lo, hi = 1632, 2332
    parent, real = os.getpid(), stats._scan_chunk

    def chunk(curve, lo_, hi_, *rest):
        if lo_ == lo and os.getpid() != parent:
            raise SystemExit(0)
        return real(curve, lo_, hi_, *rest)

    monkeypatch.setattr(stats, "_scan_chunk", chunk)
    out = tmp_path / "r.csv"
    got, stdout, err = run(
        capsys, "scan", "--curve", "D4", "--xmax", "50000", "--workers", "2", "--out", str(out))
    assert (got, stdout) == (1, "")
    assert err == (f"error: the worker sweeping [{lo}, {hi}] ended with exit code 1 "
                   "before sending its result\n")
    assert os.listdir(tmp_path) == []


def test_workers_default_to_the_usable_cores(monkeypatch):
    # cpu_count counts every core of the machine; affinity may allow fewer.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert build_parser().parse_args(["scan", "--curve", "D4", "--xmax", "10"]).workers == 1


def test_verify_ends_on_an_ambiguous_prime_with_exit_3(capsys, monkeypatch):
    # verify ends where scan does: one line naming the prime, no mismatch rows.
    _ambiguous_above_the_gate(monkeypatch)
    code, stdout, err = run(capsys, "verify", "--custom=-4,0,-1,1", "--pmax", "1000")
    assert (code, stdout, err) == (3, "", "ambiguous Frobenius at p=229\n")


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(cmfactors.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cmfactors.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_multiprocessing_unloaded():
    # scan forks its workers by os.fork; importing multiprocessing cost the
    # CLI's import about 5 ms.
    src = os.path.dirname(os.path.dirname(cmfactors.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cmfactors.cli; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_count_past_its_bound_exits_3(capsys, monkeypatch):
    # Sampling that stalls falls back to count_points; past COUNT_BOUND
    # (lowered here, above the --custom gate's 200, so the scan stays small)
    # the scan ends with the one-line ambiguity message and exit 3, never
    # with a miscount or a traceback.
    monkeypatch.setattr(oracle, "COUNT_BOUND", 250)
    monkeypatch.setattr(frobenius, "MAX_SAMPLE_POINTS", 0)
    code, _, err = run(capsys, "scan", "--custom=-4,0,-1,1", "--xmax", "400", "--workers", "1")
    assert code == 3
    p = int(err.removeprefix("ambiguous Frobenius at p="))
    assert p > 250 and err == f"ambiguous Frobenius at p={p}\n"
