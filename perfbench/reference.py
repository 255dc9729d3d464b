"""Regenerate reference.json, the outputs every benchmark iteration must reproduce.

Usage, from the root of a checkout:  python3 perfbench/reference.py

Runs each workload once, normal and small, in this process with seed 0
and one worker, and records each scan's summary without its `seed` field
and each verify's count of good primes per curve.  Before a result is
recorded it must pass the same CSV, oracle and exit-code checks as a
benchmark iteration.  Rerun only when a workload's definition changes.
"""
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def record(wl, tmp: str) -> dict:
    from cmfactors import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes = [cli.main(argv) for argv in wl.argvs(0, 1, tmp)]
    out = buf.getvalue()
    if wl.command == "verify":
        expected = {"checked": check.parse_verify(out)}
    else:
        summary = check.parse_summary(out)
        expected = {"summary": {k: v for k, v in summary.items() if k != "seed"}}
    csv_path = str(Path(tmp) / workloads.CSV_NAME) if wl.write_csv else None
    check.check_iteration(wl, out, codes, csv_path, expected, random.Random(0))
    return expected


def main() -> int:
    refs = {}
    scratch = HERE.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.WORKLOADS:
            for small in (False, True):
                refs[workloads.reference_key(name, small)] = record(workloads.get(name, small), tmp)
                print(f"recorded {workloads.reference_key(name, small)}", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
