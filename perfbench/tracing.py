"""Span tracing of cmfactors from the outside, and the per-layer report.

`instrument` rebinds the module-level names through which one layer calls
another (`stats.dp_ep`, `frobenius.solve_norm`, the `QuadInt` operators,
...) to wrappers that record one span per call, and restores the originals
on exit.  Nothing under src/ knows it is traced.  A span has a name, a
start, an end, its parent span and a request id: the prime p of the
enclosing `dp_ep` call, or 0 outside any prime.
"""
from __future__ import annotations

import contextlib
import functools
import pickle
import time
from array import array

import numpy as np

# Children of frobenius_at that are not unit selection proper.
_FOREIGN_IN_UNIT_SELECT = ("cornacchia", "eccurve", "oracle")

QUADINT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    """Spans kept in flat in-memory arrays, plus leaf timers and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._req_idx = array("q")
        self._req_val = array("q")
        self._leaves: dict[str, list] = {}
        self.counters = {"primes": 0, "job_bytes": 0, "result_bytes": 0}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, *, request=False, inside=None, before=None, after=None):
        """fn, recording a span per call.

        `request` makes the first argument the span's request id, which its
        descendants inherit; `inside` post-processes the result within the
        span; `before` and `after` update counters outside it.
        """
        nid = self._intern(name)
        starts, ends, stack = self.start, self.end, self._stack
        add_name, add_parent, add_start, add_end = (
            self.name.append, self.parent.append, starts.append, ends.append)
        push, pop = stack.append, stack.pop
        add_req_idx, add_req = self._req_idx.append, self._req_val.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            if request:
                add_req_idx(idx)
                add_req(args[0])
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
                if inside is not None:
                    result = inside(result)
            finally:
                ends[idx] = clock()
                pop()
            if after is not None:
                after(args, result)
            return result

        return span

    def leaf(self, name, fn):
        """fn, adding its time and calls to a per-name timer instead of a span.

        For calls too small and too many to record one by one; their time
        stays inside the enclosing span's self time.
        """
        total = 0.0
        calls = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args):
            nonlocal total, calls
            t0 = clock()
            result = fn(*args)
            total += clock() - t0
            calls += 1
            return result

        self._leaves.setdefault(name, []).append(lambda: (total, calls))
        return timed

    @property
    def leaves(self) -> dict[str, tuple[float, int]]:
        """Leaf name -> (seconds, calls), summed over its wrapped functions."""
        out = {}
        for name, readers in self._leaves.items():
            got = [r() for r in readers]
            out[name] = (sum(t for t, _ in got), sum(c for _, c in got))
        return out

    def save(self, path: str) -> None:
        leaves = self.leaves
        parent = np.frombuffer(self.parent, dtype=np.int32)
        req = np.zeros(len(parent), dtype=np.int64)
        req[np.frombuffer(self._req_idx, dtype=np.int64)] = np.frombuffer(self._req_val, dtype=np.int64)
        # Parents precede their children, so one forward pass per nesting
        # level hands every span the request id of its nearest ancestor with one.
        nested = np.flatnonzero(parent >= 0)
        while True:
            inherit = nested[(req[nested] == 0) & (req[parent[nested]] != 0)]
            if not len(inherit):
                break
            req[inherit] = req[parent[inherit]]
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=parent,
            req=req,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            leaf_names=np.array(list(leaves)),
            leaf_s=np.array([t for t, _ in leaves.values()]),
            leaf_calls=np.array([c for _, c in leaves.values()]),
            **{k: np.array(v) for k, v in self.counters.items()},
        )


def _hooks(tracer: Tracer):
    """(owner, attribute, name, wrap options) for every traced boundary.

    Options None mark the quadorder calls, which are timed as leaves.
    """
    from cmfactors import cli, cornacchia, frobenius, quadorder, stats

    c = tracer.counters

    def count_primes(_args, result):
        c["primes"] += len(result)

    def job_bytes(args):
        c["job_bytes"] += len(pickle.dumps(args))

    def result_bytes(_args, result):
        c["result_bytes"] += len(pickle.dumps(result))

    def materialize(primes):
        # primes_upto returns a generator; draining it inside the span puts
        # the sieve's time in the sieve span.
        listed = list(primes)
        c["primes"] += len(listed)
        return iter(listed)

    hooks = [
        (cli, "cmd_scan", "cli.cmd_scan", {}),
        (cli, "cmd_verify", "cli.cmd_verify", {}),
        (cli, "scan", "stats.scan", {}),
        (cli, "dp_ep", "frobenius.dp_ep", {"request": True}),
        (cli, "group_structure", "oracle.group_structure", {}),
        (cli, "primes_upto", "primesieve.sieve", {"inside": materialize}),
        (stats, "primes_array", "primesieve.sieve", {"after": count_primes}),
        (stats, "_scan_chunk", "stats.chunk", {"before": job_bytes, "after": result_bytes}),
        (stats, "merge", "stats.merge", {}),
        (stats.SumAccumulator, "accumulate", "stats.accumulate", {}),
        (stats, "dp_ep", "frobenius.dp_ep", {"request": True}),
        (frobenius, "classify", "frobenius.classify", {}),
        (frobenius, "frobenius_at", "frobenius.frobenius_at", {}),
        (frobenius, "solve_norm", "cornacchia.solve_norm", {}),
        (frobenius, "random_point", "eccurve.random_point", {}),
        (frobenius, "_scalar_mul", "eccurve.scalar_mul", {}),
        (frobenius, "cubic_splits", "eccurve.cubic_splits", {}),
        (frobenius, "count_points", "oracle.count_points", {}),
        (frobenius, "group_structure", "oracle.group_structure", {}),
    ]
    for owner, names in ((frobenius, ("units", "trace", "content", "conj")),
                         (cornacchia, ("units", "conj", "norm"))):
        hooks += [(owner, n, f"quadorder.{n}", None) for n in names]
    hooks += [(quadorder.QuadInt, op, "quadorder.arith", None) for op in QUADINT_OPS]
    return hooks


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every traced name to its wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, opts in _hooks(tracer):
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.leaf(name, fn) if opts is None else tracer.wrap(name, fn, **opts))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    nested = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


class SpanTable:
    """Spans read back from a saved trace, summed by span name."""

    def __init__(self, path: str):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name = z["name"]
            self.parent = z["parent"]
            self.dur = z["end"] - z["start"]
            self.counters = {k: int(z[k]) for k in ("primes", "job_bytes", "result_bytes")}
            self.leaves = {str(n): (float(t), int(c)) for n, t, c in zip(z["leaf_names"], z["leaf_s"], z["leaf_calls"])}
        self.self_time = self_times(self.parent, self.dur)
        self.layer = np.array([n.split(".")[0] for n in self.names], dtype=str)[self.name]

    def _mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span_name)

    def total(self, span_name: str) -> float:
        return float(self.dur[self._mask(span_name)].sum())

    def self_total(self, span_name: str) -> float:
        return float(self.self_time[self._mask(span_name)].sum())

    def calls(self, span_name: str) -> int:
        return int(self._mask(span_name).sum())

    def leaf_total(self, layer: str) -> tuple[float, int]:
        """Summed time and calls of the leaf timers of one layer."""
        picked = [v for k, v in self.leaves.items() if k.split(".")[0] == layer]
        return sum(t for t, _ in picked), sum(c for _, c in picked)

    def unit_select(self) -> float:
        """frobenius_at time less its cornacchia, eccurve and oracle children."""
        at = self._mask("frobenius.frobenius_at")
        nested = self.parent >= 0
        foreign = nested & np.isin(self.layer, _FOREIGN_IN_UNIT_SELECT)
        foreign[nested] &= at[self.parent[nested]]
        return float(self.dur[at].sum() - self.dur[foreign].sum())

    def rows(self):
        """(span name, calls, inclusive s, self s) for every span name."""
        for i, n in enumerate(self.names):
            m = self.name == i
            yield n, int(m.sum()), float(self.dur[m].sum()), float(self.self_time[m].sum())


def layer_metrics(t: SpanTable, *, workers: int, busy_wall: float, csv_bytes: int,
                  traced_wall: float, untraced_wall: float) -> dict[str, float | int]:
    """The per-layer metrics of one traced iteration, by BENCHMARK.json name.

    `busy_wall` is the untraced wall time of the iteration as configured
    (with its worker count), against which the traced serial chunk time
    gives the parallel efficiency.
    """
    solve_s, solve_n = t.total("cornacchia.solve_norm"), t.calls("cornacchia.solve_norm")
    ordinary = t.calls("frobenius.frobenius_at")
    quad_s, quad_n = t.leaf_total("quadorder")
    chunk_s = t.total("stats.chunk")
    return {
        "primesieve.sieve_s": t.total("primesieve.sieve"),
        "primesieve.primes": t.counters["primes"],
        "cornacchia.solve_norm_s": solve_s,
        "cornacchia.solve_norm_calls": solve_n,
        "cornacchia.solve_norm_us": 1e6 * solve_s / solve_n if solve_n else 0.0,
        "frobenius.classify_s": t.total("frobenius.classify"),
        "frobenius.dp_ep_self_s": t.self_total("frobenius.dp_ep"),
        "frobenius.unit_select_s": t.unit_select(),
        "frobenius.points_per_ord": t.calls("eccurve.random_point") / ordinary if ordinary else 0.0,
        "frobenius.scalar_muls_per_ord": t.calls("eccurve.scalar_mul") / ordinary if ordinary else 0.0,
        "frobenius.exact_fallbacks": t.calls("oracle.count_points"),
        "eccurve.scalar_mul_s": t.total("eccurve.scalar_mul"),
        "eccurve.scalar_mul_calls": t.calls("eccurve.scalar_mul"),
        "eccurve.random_point_s": t.total("eccurve.random_point"),
        "eccurve.random_point_calls": t.calls("eccurve.random_point"),
        "eccurve.cubic_s": t.total("eccurve.cubic_splits"),
        "eccurve.cubic_calls": t.calls("eccurve.cubic_splits"),
        "quadorder.s": quad_s,
        "quadorder.calls": quad_n,
        "oracle.group_structure_s": t.total("oracle.group_structure"),
        "oracle.group_structure_calls": t.calls("oracle.group_structure"),
        "oracle.fallback_s": t.total("oracle.count_points"),
        "stats.accumulate_s": t.total("stats.accumulate"),
        "stats.merge_s": t.total("stats.merge"),
        "stats.chunks": t.calls("stats.chunk"),
        "stats.job_bytes": t.counters["job_bytes"],
        "stats.result_bytes": t.counters["result_bytes"],
        "stats.parallel_eff": chunk_s / (workers * busy_wall) if chunk_s else 0.0,
        "cli.output_s": t.self_total("cli.cmd_scan") + t.self_total("cli.cmd_verify"),
        "cli.csv_bytes": csv_bytes,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
