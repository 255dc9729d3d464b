"""Check that the array sweep of `scan` writes exactly what the per-prime loop writes.

Usage, from the root of a checkout:

    python3 tools/sweep_check.py XMAX

For each of the thirteen table curves, at --workers 1 and --workers 2, this
runs `scan --out` to XMAX (--seed 5, checkpoints at the powers of ten from
10^4 up to XMAX) twice in this process: once as shipped, where every table
model sweeps, and once with the per-prime dp_ep loop forced by hiding the
models' residue rules from `stats` (dp_ep itself still uses them).  The
CSV, the summary file and stdout must be byte-identical.  Exits 1 on any
difference.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cmfactors import cli, stats  # noqa: E402
from cmfactors.eccurve import curve_table  # noqa: E402


def run_scan(label: str, xmax: int, workers: int, out: Path) -> bytes:
    """CSV, summary and stdout of one `scan --out`, concatenated with separators."""
    checkpoints = [10**k for k in range(4, len(str(xmax))) if 10**k <= xmax] or [xmax]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "scan", "--curve", label, "--xmax", str(xmax), "--seed", "5",
            "--workers", str(workers), "--checkpoints", ",".join(map(str, checkpoints)),
            "--out", str(out),
        ])
    if code != 0:
        raise SystemExit(f"{label}: scan exited {code}")
    summary = out.with_name(out.name + ".summary.json")
    return b"\0".join((out.read_bytes(), summary.read_bytes(), stdout.getvalue().encode()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("xmax", type=int, metavar="XMAX", help="scan bound, at least 2")
    args = parser.parse_args()
    if args.xmax < 2:
        parser.error("XMAX must be at least 2")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.csv"
        for curve in curve_table():
            for workers in (1, 2):
                t0 = time.perf_counter()
                swept = run_scan(curve.label, args.xmax, workers, out)
                t1 = time.perf_counter()
                rule_for = stats.rule_for
                stats.rule_for = lambda curve: None
                try:
                    looped = run_scan(curve.label, args.xmax, workers, out)
                finally:
                    stats.rule_for = rule_for
                t2 = time.perf_counter()
                same = swept == looped
                differ += not same
                print(f"{curve.label} workers={workers}: {'same' if same else 'DIFFERENT'}"
                      f" (sweep {t1 - t0:.2f} s, loop {t2 - t1:.2f} s)", flush=True)
    print(f"{differ} of {2 * len(curve_table())} scans differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
