"""Benchmark of the cmfactors CLI: end-to-end metrics, or a traced run by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

--trace 0  runs the workload closed-loop, one fresh process per iteration,
           for S seconds, checks every iteration's output, and reports the
           end-to-end metrics of BENCHMARK.json (medians over iterations).
--trace 1  runs the workload in this process once untraced and once traced
           (a serial scan in place of a parallel one), checks both, and
           reports the per-layer metrics with the tracing overhead.
--small    uses the workload's small bounds; the benchmark's tests use it.

Everything a run writes (CSV, summaries, bytecode, spans) goes to a temp
directory under .bench_tmp/ that is removed at the end.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""
import os
import sys

# Pinned before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CMIF_SEED", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from check import CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
OVERRUN_FRAC = 0.15
# A run must end within 180 s; no iteration starts that could not end by this.
RUN_LIMIT_S = 165.0


@dataclass
class Sample:
    """One child process: its timings, resource use and captured output."""

    setup_s: float | None = None
    work_s: float | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    codes: list[int] = field(default_factory=list)
    stdout: str = ""
    error: str | None = None


class Runner:
    """Starts children with a pinned environment and collects their rusage."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))

    def run(self, commands: list[list[str]], setup_only: bool = False) -> Sample:
        timing = os.path.join(self.tmp, "timing.json")
        out_path = os.path.join(self.tmp, "stdout.txt")
        err_path = os.path.join(self.tmp, "stderr.txt")
        with contextlib.suppress(FileNotFoundError):
            os.remove(timing)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), timing, json.dumps(commands)]
                + (["--setup-only"] if setup_only else []),
                stdout=out, stderr=err, env=self.env, cwd=self.tmp, start_new_session=True,
            )
        status, ru, timed_out = self._wait(proc)
        s = Sample(cpu_s=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0)
        with open(out_path) as fh:
            s.stdout = fh.read()
        if timed_out:
            s.error = "timed out"
        elif not os.path.exists(timing):
            with open(err_path) as fh:
                tail = fh.read().strip().splitlines()[-1:] or [f"exit status {status}"]
            s.error = f"process failed: {tail[0]}"
        else:
            with open(timing) as fh:
                t = json.load(fh)
            s.setup_s, s.work_s, s.codes = t["setup_s"], t["work_s"], t["codes"]
        return s

    def _wait(self, proc):
        """Reap the child with its rusage, which includes its reaped workers."""
        timed_out = False
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, ru, timed_out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    """Where the numbers were measured."""
    info = {"nproc": nproc(), "cpu": "unknown", "l2": "unknown", "l3": "unknown"}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        with contextlib.suppress(OSError):
            with open(base + "level") as lv, open(base + "size") as sz:
                info[f"l{lv.read().strip()}"] = sz.read().strip()
    info.pop("l1", None)
    info["python"] = sys.version.split()[0]
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = "missing"
    return info


def _csv_path(wl, tmp):
    return os.path.join(tmp, workloads.CSV_NAME) if wl.write_csv else None


def _expected_primes(expected: dict) -> int:
    if "checked" in expected:
        return sum(expected["checked"].values())
    return sum(expected["summary"]["counts"].values())


class Tally:
    """Attempted and failed iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, wl, stdout, codes, csv_path, expected, rng, error=None) -> None:
        self.attempted += 1
        try:
            if error:
                raise CheckFailed(error)
            check.check_iteration(wl, stdout, codes, csv_path, expected, rng)
        except CheckFailed as e:
            self.failed += 1
            print(f"iteration {self.attempted} failed: {e}", file=sys.stderr)


def _room_for_one_more(start: float, seconds: float, lengths: list[float], deadline: float) -> bool:
    """Whether a typical iteration would end within the run's measuring time.

    The time may be overrun by OVERRUN_FRAC, so that iterations do not
    stop well short of it; the run's hard deadline is never overrun.
    """
    now = time.monotonic()
    fits = now + statistics.median(lengths) <= start + seconds * (1 + OVERRUN_FRAC)
    return fits and now + 2 * max(lengths) <= deadline


def timed_run(wl, seed, seconds, runner, expected, tally) -> dict:
    """Closed loop of fresh processes for `seconds`; end-to-end medians."""
    commands = wl.argvs(seed, min(wl.workers, nproc()), runner.tmp)
    setup = []
    for _ in range(SETUP_PROBES):
        s = runner.run(commands, setup_only=True)
        if s.setup_s is None:
            raise RuntimeError(f"set-up failed: {s.error}")
        setup.append(s.setup_s)
    rng = random.Random(seed)
    primes = _expected_primes(expected)
    samples, lengths = [], []
    start = time.monotonic()
    while not samples or _room_for_one_more(start, seconds, lengths, runner.deadline):
        t0 = time.monotonic()
        s = runner.run(commands)
        tally.check(wl, s.stdout, s.codes, _csv_path(wl, runner.tmp), expected, rng, s.error)
        lengths.append(time.monotonic() - t0)
        if s.work_s is None:
            break
        samples.append(s)
        setup.append(s.setup_s)
    if not samples:
        raise RuntimeError("no iteration completed")
    print("iterations (work_s/cpu_s): " + " ".join(f"{s.work_s:.2f}/{s.cpu_s:.2f}" for s in samples))
    print("set-up samples (s): " + " ".join(f"{t:.3f}" for t in setup))
    return {
        "primes_per_s": statistics.median(primes / s.work_s for s in samples),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "failed_frac": tally.failed / tally.attempted,
    }


def traced_run(wl, seed, runner, expected, tally) -> tuple[dict, object]:
    """One untraced and one traced in-process iteration, then the layer report."""
    from cmfactors import cli

    import tracing

    rng = random.Random(seed)
    csv_path = _csv_path(wl, runner.tmp)
    argvs = wl.argvs(seed, 1, runner.tmp)

    def iteration(tracer=None) -> float:
        gc.collect()
        buf = io.StringIO()
        scope = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), scope:
            t0 = time.perf_counter()
            codes = [cli.main(argv) for argv in argvs]
            wall = time.perf_counter() - t0
        tally.check(wl, buf.getvalue(), codes, csv_path, expected, rng)
        return wall

    untraced = iteration()
    tracer = tracing.Tracer()
    traced = iteration(tracer)
    csv_bytes = os.path.getsize(csv_path) if csv_path else 0
    workers = min(wl.workers, nproc())
    busy_wall = untraced
    if workers > 1:
        s = runner.run(wl.argvs(seed, workers, runner.tmp))
        tally.check(wl, s.stdout, s.codes, csv_path, expected, rng, s.error)
        if s.work_s is None:
            raise RuntimeError("parallel iteration did not complete")
        busy_wall = s.work_s
    spans_path = os.path.join(runner.tmp, "spans.npz")
    tracer.save(spans_path)
    del tracer
    table = tracing.SpanTable(spans_path)
    metrics = tracing.layer_metrics(
        table, workers=workers, busy_wall=busy_wall, csv_bytes=csv_bytes,
        traced_wall=traced, untraced_wall=untraced,
    )
    return metrics, (table, traced, untraced)


def print_span_table(table, traced_wall: float) -> None:
    print(f"{'span':32} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self%':>6}")
    for name, calls, incl, own in sorted(table.rows(), key=lambda r: -r[3]):
        print(f"{name:32} {calls:9d} {incl:9.3f} {own:9.3f} {100 * own / traced_wall:6.1f}")
    for name, (secs, calls) in sorted(table.leaves.items()):
        print(f"{name + ' (leaf)':32} {calls:9d} {secs:9.3f} {'':>9} {100 * secs / traced_wall:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    if not (SRC / "cmfactors" / "__init__.py").is_file():
        print(f"error: no cmfactors package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    with open(HERE / "reference.json") as fh:
        expected = json.load(fh)[workloads.reference_key(args.workload, args.small)]
    wl = workloads.get(args.workload, args.small)

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    tally = Tally()
    try:
        runner = Runner(tmp, t_begin + RUN_LIMIT_S)
        warm = runner.run(wl.argvs(args.seed, 1, tmp), setup_only=True)  # fills the bytecode cache
        if warm.setup_s is None:
            raise RuntimeError(f"cmfactors does not import: {warm.error}")
        if args.trace:
            values, (table, traced, untraced) = traced_run(wl, args.seed, runner, expected, tally)
        else:
            values = timed_run(wl, args.seed, args.seconds, runner, expected, tally)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload {wl.name}{' (small)' if args.small else ''}: seed {args.seed}, "
          f"{tally.attempted} iterations, {tally.failed} failed")
    if args.trace:
        print_span_table(table, traced)
        print(f"tracing overhead: traced {traced:.3f} s against untraced {untraced:.3f} s "
              f"({100 * values['trace.overhead_frac']:+.1f}%)")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in values.items():
        print(f"  {name:32} {value:>14.6g} {units.get(name, 'frac' if name == 'failed_frac' else '')}"
              f"{'' if name in units else '  (report only)'}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
