"""Tests of the benchmark itself: small mode end to end, the output checks, the tracer.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_mode_passes_its_checks(name, trace_flag):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace_flag), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace_flag else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace_flag:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".bench_tmp").exists()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "scan-D4-out", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def small_scan(tmp_path_factory):
    """One small scan-D4-out iteration, run in process: (workload, stdout, codes, csv)."""
    from cmfactors import cli

    wl = workloads.get("scan-D4-out", small=True)
    out_dir = tmp_path_factory.mktemp("scan")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes = [cli.main(argv) for argv in wl.argvs(5, 1, str(out_dir))]
    return wl, buf.getvalue(), codes, str(out_dir / workloads.CSV_NAME)


def _check(small_scan, stdout=None, csv_path=None):
    import random

    wl, out, codes, csv = small_scan
    return check.check_iteration(wl, stdout or out, codes, csv_path or csv,
                                 REFERENCE["scan-D4-out/small"], random.Random(0))


def test_untampered_output_passes(small_scan):
    assert _check(small_scan) == 2262


def test_tampered_csv_row_is_rejected(small_scan, tmp_path):
    _, _, _, csv = small_scan
    lines = Path(csv).read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ",ord," in ln and int(ln.split(",")[0]) > 1000)
    f = lines[i].split(",")
    f[7] = str(int(f[7]) + 1)  # e_p, so that d_p * e_p != N
    lines[i] = ",".join(f)
    tampered = tmp_path / "records.csv"
    tampered.write_text("\n".join(lines) + "\n")
    shutil.copy(csv + ".summary.json", str(tampered) + ".summary.json")
    with pytest.raises(check.CheckFailed, match="invariant"):
        _check(small_scan, csv_path=str(tampered))


def test_tampered_summary_is_rejected(small_scan):
    _, out, _, _ = small_scan
    summary = check.parse_summary(out)
    summary["sum_dp"] += 1
    with pytest.raises(check.CheckFailed, match="sum_dp"):
        _check(small_scan, stdout=json.dumps(summary, indent=2))


def test_self_time_subtracts_direct_children():
    parent = np.array([-1, 0, 0, 1])
    dur = np.array([10.0, 3.0, 4.0, 1.0])
    assert tracing.self_times(parent, dur).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_spans_nest_and_inherit_the_request_id(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("eccurve.inner", lambda: None)
    leaf = tracer.leaf("quadorder.leaf", lambda x: x)

    def body(p):
        inner()
        return leaf(p)

    outer = tracer.wrap("frobenius.outer", body, request=True)
    assert outer(101) == 101
    path = str(tmp_path / "spans.npz")
    tracer.save(path)
    with np.load(path) as z:
        assert z["parent"].tolist() == [-1, 0]
        assert z["req"].tolist() == [101, 101]
    table = tracing.SpanTable(path)
    assert table.calls("frobenius.outer") == 1 and table.calls("eccurve.inner") == 1
    assert table.leaf_total("quadorder")[1] == 1
    assert table.self_total("frobenius.outer") <= table.total("frobenius.outer")


def test_instrument_restores_every_name():
    tracer = tracing.Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._hooks(tracer)]
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError("leave the block early")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
