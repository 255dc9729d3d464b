"""Check that the array sweep of `scan` gives exactly what dp_ep gives prime by prime.

Usage, from the root of a checkout:

    python3 tools/sweep_check.py XMAX

For each of the thirteen table curves, and for three models without a
residue rule given through --custom (the twists x^3 - 4x, x^3 + 2 and a
quadratic twist of the D11 model), this runs `scan` to XMAX (--seed 5,
checkpoints at the powers of ten from 10^4 up to XMAX) at --workers 1 and
--workers 2, each with --out and without it.  The reference calls dp_ep on
every prime up to XMAX, writes its rows with the CLI's record formatter and
builds the summary from those records, folded one at a time.  With --out,
the CSV, the summary file and stdout must be byte-identical to it; without,
stdout, which is the summary alone, must be.  Exits 1 on any difference.
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
from cmfactors.eccurve import curve_table, custom_curve  # noqa: E402
from cmfactors.frobenius import dp_ep  # noqa: E402
from cmfactors.primesieve import primes_upto  # noqa: E402

SEED = 5
TWISTS = ((-4, 0, -1, 1), (0, 2, -3, 1), (-264, -1694, -11, 1))


def outputs(csv: str, summary: str, stdout: str) -> bytes:
    """CSV, summary file and stdout of one scan, concatenated with separators."""
    return b"\0".join(part.encode() for part in (csv, summary, stdout))


def run_scan(curve_args: list[str], xmax: int, checkpoints: list[int], workers: int,
             out: Path | None) -> bytes:
    """The outputs of one `scan` through the CLI: with `--out out` unless out
    is None, when stdout is the only output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "scan", *curve_args, "--xmax", str(xmax), "--seed", str(SEED),
            "--workers", str(workers), "--checkpoints", ",".join(map(str, checkpoints)),
            *(["--out", str(out)] if out else []),
        ])
    if code != 0:
        raise SystemExit(f"{' '.join(curve_args)}: scan exited {code}")
    if out is None:
        return stdout.getvalue().encode()
    summary = out.with_name(out.name + ".summary.json")
    return outputs(out.read_text(), summary.read_text(), stdout.getvalue())


def reference(curve, xmax: int, checkpoints: list[int], out: Path) -> tuple[bytes, bytes]:
    """The same outputs from dp_ep on every prime, folded one record at a
    time: those of `scan --out out`, and those of `scan` without --out."""
    acc = stats.SumAccumulator(x_lo=2, x_processed=xmax)
    lines = [cli.CSV_HEADER]
    pending = sorted(checkpoints)
    for p in primes_upto(xmax):
        while pending and pending[0] < p:
            acc.snapshot(pending.pop(0))
        rec = dp_ep(p, curve)
        acc.accumulate(rec)
        lines.append(cli._record_line(rec))
    for x in pending:
        acc.snapshot(x)
    summary = cli._summary_text(curve, SEED, acc, xmax)
    stdout = f"wrote {acc.pi_x} records to {out}\nwrote summary to {out}.summary.json\n{summary}\n"
    return outputs("\n".join(lines) + "\n", summary + "\n", stdout), f"{summary}\n".encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("xmax", type=int, metavar="XMAX", help="scan bound, at least 2")
    args = parser.parse_args()
    if args.xmax < 2:
        parser.error("XMAX must be at least 2")
    checkpoints = [10**k for k in range(4, len(str(args.xmax))) if 10**k <= args.xmax] or [args.xmax]
    models = [(curve, ["--curve", curve.label]) for curve in curve_table()]
    models += [(custom_curve(*m), [f"--custom={','.join(map(str, m))}"]) for m in TWISTS]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.csv"
        for curve, curve_args in models:
            t0 = time.perf_counter()
            expected = dict(zip((out, None), reference(curve, args.xmax, checkpoints, out)))
            t1 = time.perf_counter()
            for workers in (1, 2):
                for target, ref in expected.items():
                    t2 = time.perf_counter()
                    same = run_scan(curve_args, args.xmax, checkpoints, workers, target) == ref
                    differ += not same
                    print(f"{curve.label} workers={workers}{' --out' if target else ''}: "
                          f"{'same' if same else 'DIFFERENT'}"
                          f" (sweep {time.perf_counter() - t2:.2f} s, dp_ep {t1 - t0:.2f} s)",
                          flush=True)
    print(f"{differ} of {4 * len(models)} scans differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
