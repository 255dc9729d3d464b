"""One iteration of a workload, in a fresh process: the cmfactors CLI as users run it.

Usage: python3 launch.py TIMING_JSON COMMANDS_JSON [--setup-only]

COMMANDS_JSON is a list of cmfactors argument lists.  The process imports
cmfactors and resolves every curve the commands name (set-up), then passes
each argument list to `cmfactors.cli.main` in turn (work), exactly as
`python -m cmfactors ...` would.  With --setup-only it stops after set-up.
It writes the set-up and work times and the exit codes to TIMING_JSON and
exits 0 only if every command did.
"""
import json
import sys
import time

_T0 = time.perf_counter()


def main() -> int:
    timing_path, commands = sys.argv[1], json.loads(sys.argv[2])
    setup_only = sys.argv[3:] == ["--setup-only"]
    from cmfactors import cli
    from cmfactors.eccurve import get_curve

    for argv in commands:
        get_curve(argv[argv.index("--curve") + 1])
    t1 = time.perf_counter()
    codes = [] if setup_only else [cli.main(argv) for argv in commands]
    t2 = time.perf_counter()
    sys.stdout.flush()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": t1 - _T0, "work_s": t2 - t1, "codes": codes}, fh)
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
