"""Aggregation and the empirical checks built on the per-prime records.

Covers the scan (a streaming fold over fixed ranges of p whose mergeable
accumulators are combined in order as the ranges complete; the records go
to a caller's sink, never into one list), the exact divisor decomposition
of sum d_p, the Brun-Titchmarsh prime-element counter (fed by the same
sweep, with comaximality in closed form and quadorder.phi_element's Phi
for its ratio), the Schur and Wintner
mean-value sums and the squarefree restriction inequality.
Identity checks use exact integer or rational arithmetic; only diagnostic
ratios go through floating point.

A scan on W workers runs W processes, the caller among them: range i goes
to process i % W by a fixed round robin.  Each of the W - 1 children is
forked by a bare os.fork, with no multiprocessing (whose import and first
pipe cost a short scan more than its fork), and sends its results pickled
down its own os.pipe, so the backlog is bounded.  A child leaves only by
os._exit, on every path, so it never runs the caller's cleanup nor
flushes the caller's buffered output; the caller reaps every child by
os.waitpid on every exit, after sending each one SIGTERM if the scan is
failing.  When the caller's CPU affinity mask holds exactly W CPUs,
process k is pinned to the k-th of them for the scan's duration, and the
caller's mask is restored afterwards.

Every range is sieved into the odd-only mask of primesieve.odd_mask and
swept as arrays into Columns, its records in three parts: p <= 3 and the
bad primes, p = 2 among them, through dp_ep; the ordinary primes, from the
lattice points of prime norm, looked up in the mask, with Cornacchia's
element, whose unit frobenius.select_units picks; and the supersingular
primes, what is left of the mask, whose d_p comes from residue tables.
The sweep builds one point per split p, in the sector where Cornacchia's
element lies, and of those only the points whose parity classes (a mod 2,
b mod 2) give an odd norm.  A range's accumulator is summed straight from
its columns; its primes array and (n, 8) int64 record rows are built only
when the caller keeps the records.  A range spans CHUNK_SPAN = 2^17
integers, the fastest power of two measured (see there).
"""
from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .eccurve import CmCurve
from .frobenius import (
    KINDS, ORDINARY, RULES_CHECKED_TO, SUPERSINGULAR, PrimeRecord, dp_ep, select_units,
)
from .primesieve import divisors, euler_phi, factorize, mask_primes, odd_mask, primes_array, runs
from .quadorder import OrderDesc, QuadInt, conj, kronecker, norm, phi_element, unit_orbit

# Each scan job covers this many consecutive integers.  A range costs about
# c1*span + c2*sqrt(hi), for its sieve and for _split_points' arrays over
# every b; 2^17 was the fastest power of two for D163 to 3*10^6 and D4 to
# 10^6 with CSV (2^16 and 2^18 were 4-16% slower).  An int64 sum over one
# range stays below 2^63: D163's top range below X_MAX_LIMIT sums e_p to
# 3.6*10^18, 39% of 2^63.
CHUNK_SPAN = 1 << 17

# Scans stop below this bound: _isqrt is exact below 2^52 and the sweep
# takes it of 4*hi.  The ranges are walked lazily, so no job list grows
# with x_max.
X_MAX_LIMIT = 1 << 50

# _supersingular_dp's largest table of squares, one byte per residue mod q:
# scan refuses a model whose discriminant has an odd power of a larger prime.
SQUARES_BOUND = 1 << 24

# scan runs one process per worker; it refuses more than this many.
MAX_WORKERS = 256

# bt_counter's largest x.  Its memory depends on CHUNK_SPAN, not on x; the
# time grows linearly with x, to about 3 s at 10^8.
BT_BOUND = 10**8

_ORD, _SS = KINDS.index(ORDINARY), KINDS.index(SUPERSINGULAR)


class Checkpoint(NamedTuple):
    x: int
    sum_dp: int
    sum_ep: int
    pi_x: int


@dataclass
class SumAccumulator:
    """Mergeable aggregate over a contiguous range of prime values.

    Covers primes p with x_lo <= p <= x_processed.  counts holds the number
    of primes of each kind, keyed by KINDS in that order, zeros included.
    Merging contiguous accumulators is exactly equivalent to one monolithic
    accumulation, field for field, checkpoints included.
    """

    x_lo: int
    x_processed: int
    sum_dp: int = 0
    sum_ep: int = 0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    hist_dp: dict[int, int] = field(default_factory=dict)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def pi_x(self) -> int:
        return sum(self.counts.values())

    def accumulate(self, rec: PrimeRecord) -> None:
        self.sum_dp += rec.d_p
        self.sum_ep += rec.e_p
        self.counts[rec.kind] += 1
        self.hist_dp[rec.d_p] = self.hist_dp.get(rec.d_p, 0) + 1

    def snapshot(self, x: int) -> None:
        self.checkpoints.append(Checkpoint(x, self.sum_dp, self.sum_ep, self.pi_x))


def merge(a: SumAccumulator, b: SumAccumulator) -> SumAccumulator:
    """Combine two accumulators over adjacent ranges (in either argument order)."""
    if b.x_lo < a.x_lo:
        a, b = b, a
    if b.x_lo != a.x_processed + 1:
        raise ValueError(
            f"ranges [{a.x_lo},{a.x_processed}] and [{b.x_lo},{b.x_processed}] "
            "are not contiguous"
        )
    hist = dict(a.hist_dp)
    for k, v in b.hist_dp.items():
        hist[k] = hist.get(k, 0) + v
    shifted = [
        Checkpoint(c.x, c.sum_dp + a.sum_dp, c.sum_ep + a.sum_ep, c.pi_x + a.pi_x)
        for c in b.checkpoints
    ]
    return SumAccumulator(
        x_lo=a.x_lo,
        x_processed=b.x_processed,
        sum_dp=a.sum_dp + b.sum_dp,
        sum_ep=a.sum_ep + b.sum_ep,
        counts={k: a.counts[k] + b.counts[k] for k in KINDS},
        hist_dp=hist,
        checkpoints=a.checkpoints + shifted,
    )


@functools.cache
def _squares(q: int) -> np.ndarray:
    """Whether each residue mod the odd prime q is a nonzero square."""
    table = np.zeros(q, dtype=bool)
    x = np.arange(1, q // 2 + 1, dtype=np.int64)
    x *= x
    x %= q
    table[x] = True
    return table


def _supersingular_dp(curve: CmCurve, p: np.ndarray) -> np.ndarray:
    """d_p of the curve at good supersingular primes p > 3, by table lookups.

    As in dp_ep, d_p = 2 exactly when p = 3 (mod 4) and (disc/p) = 1
    (eccurve.cubic_splits).  The primes dividing disc are bad, so (disc/p)
    is (-1/p) if disc < 0 times (q/p) over curve.odd_disc_primes.  For
    p = 3 (mod 4), (-1/p) = -1, (2/p) = 1 iff p = 7 (mod 8) and, by
    reciprocity, (q/p) = (-p/q) for odd q: a lookup in a table of size q.
    """
    nonsquare = np.full(len(p), curve.disc < 0)
    for q in curve.odd_disc_primes:
        nonsquare ^= p % 8 == 3 if q == 2 else ~_squares(q)[-p % q]
    return np.where((p % 4 == 3) & ~nonsquare, 2, 1)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) of nonnegative int64 values below 2^52, exactly."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _ranges(starts: np.ndarray, stops: np.ndarray, step: int, tags: np.ndarray):
    """(x, tag) for every x in range(starts[i], stops[i], step), tagged by tags[i]."""
    counts = np.maximum(-((starts - stops) // step), 0)
    return runs(starts, counts, step), np.repeat(tags, counts)


def _odd_classes(od: OrderDesc) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For b = 0 and b = 1 (mod 2), the classes of a mod 2 with Nm(a + b*beta) odd.

    Mod 2 the norm a^2 + t*a*b + n*b^2 depends only on (a, b, t, n) mod 2,
    and only a point of odd norm can have an odd prime norm.
    """
    t, n = od.beta_trace, od.beta_norm
    return tuple(
        tuple(a for a in (0, 1) if (a * a + t * a * b + n * b * b) % 2) for b in (0, 1)
    )


def _split_points(od: OrderDesc, low: int, mask: np.ndarray):
    """(p, a, b): Cornacchia's element a + b*beta of norm p, once for each p
    that is a norm and that the odd-only mask marks, slot i standing for
    low + 2i (primesieve.odd_mask); the marked p must be primes above 3.

    Writing u = 2a + t*b, 4 Nm(a + b*beta) = u^2 + |D| b^2.  Such a p has w
    points of norm p with b >= 1, and only one lies in the sector u > 0,
    and a > b if w > 2: for w = 2 the other has -u, and for D4 and D3 the
    sector is the smallest angle of the open quadrant.  For each b the
    sector points with norm in [low, hi], hi the mask's last odd number,
    form one run of a, empty once the sector's least norm exceeds hi.  Only
    the points of odd norm are built: one run of step 2 per class of a mod
    2 that _odd_classes allows for b mod 2 (an even b always allows a odd),
    which drops half the points for D4, a quarter for D3 and three quarters
    for D7; each norm's slot is (norm - low) / 2.  The element is the hit
    itself if a > 0, else (w = 2, t > 0) its conjugate a + t*b - b*beta.  A
    marked p dividing D, |D| = p*m, has no point in the sector: 4p >= |D| b^2
    leaves b = 2, u = 0 (m = 1) or b = 1, u^2 = (4 - m)p, and as p | u that
    needs u = 0 or p | 4 - m.
    """
    hi = low + 2 * (len(mask) - 1)
    t, n, D = od.beta_trace, od.beta_norm, -od.disc
    bmax = math.isqrt(4 * hi // D if od.w == 2 else hi // (1 + t + n))
    b = np.arange(1, bmax + 1, dtype=np.int64)
    bottom = 4 * low - D * b * b
    umax = _isqrt(4 * hi - D * b * b)
    umin = np.where(bottom > 0, _isqrt(np.maximum(bottom - 1, 0)) + 1, 1)
    tb = t * b
    # a from the least with u >= umin (and a > b for w > 2) to the last with u <= umax.
    starts = -((tb - umin) // 2)
    if od.w > 2:
        starts = np.maximum(starts, b + 1)
    stops = (umax - tb) // 2 + 1
    # The entries 1 - cb::2 hold the b = cb (mod 2); each allowed class ca
    # of a for them gives runs of step 2 that start on a = ca (mod 2).
    runs = [(slice(1 - cb, None, 2), ca)
            for cb, classes in enumerate(_odd_classes(od)) for ca in classes]
    a, b = _ranges(
        np.concatenate([starts[j] + (ca - starts[j]) % 2 for j, ca in runs]),
        np.concatenate([stops[j] for j, _ in runs]),
        2,
        np.concatenate([b[j] for j, _ in runs]),
    )
    # Nm = (a + t*b) * a + n*b^2, built in place: each temporary of the
    # length of a costs page faults as well as time.
    norms = t * b
    norms += a
    norms *= a
    norms += n * b * b
    slot = norms - low
    slot >>= 1
    # The hits' positions once, then one take per column: a boolean mask
    # index would scan the whole mask once per column.
    hit = np.flatnonzero(mask[slot])
    p, a, b = norms.take(hit), a.take(hit), b.take(hit)
    flip = a <= 0
    return p, np.where(flip, a + t * b, a), np.where(flip, -b, b)


class Columns(NamedTuple):
    """One range's records in three parts, each a tuple of columns that
    starts with p and ends with d_p and e_p.

    scalar: the PrimeRecord columns (p, kind, a_p, pi_a, pi_b, N, d_p, e_p)
        of p <= 3 and the bad primes, from dp_ep, in increasing p;
    ordinary: (p, a_p, pi_a, pi_b, N, d_p, e_p), in the sweep's order of p;
    supersingular: (p, N, d_p, e_p), in increasing p.
    """

    scalar: tuple[np.ndarray, ...]
    ordinary: tuple[np.ndarray, ...]
    supersingular: tuple[np.ndarray, ...]


def _sweep(curve: CmCurve, lo: int, low: int, mask: np.ndarray, guard: bool) -> Columns:
    """The records of the primes of one range from lo, as Columns; (low,
    mask) is the range's primesieve.odd_mask, which the sweep clears.

    2, if lo is 2, and the marked 3 and bad primes go to dp_ep and leave
    the mask.  The ordinary primes and Cornacchia's element of each come
    from _split_points on what is left, and select_units, guarded if guard,
    picks each one's unit.  Once the ordinary primes are cleared, the mask
    holds the supersingular ones, in increasing p.
    """
    # 2 has no slot; an odd q has one when low <= q <= the mask's last odd number.
    odd = [q for q in sorted({3, *curve.bad_primes} - {2})
           if 0 <= q - low < 2 * len(mask) and mask[(q - low) >> 1]]
    rows = []
    for q in [2] * (lo == 2) + odd:
        r = dp_ep(q, curve)
        rows.append((r.p, KINDS.index(r.kind), r.a_p, r.pi_a, r.pi_b, r.N, r.d_p, r.e_p))
    mask[[(q - low) >> 1 for q in odd]] = False
    od = curve.order
    p, a, b = _split_points(od, low, mask)
    a, b = select_units(curve, p, a, b, guard)
    mask[(p - low) >> 1] = False
    trace = 2 * a + b * od.beta_trace
    count, d = p + 1 - trace, np.gcd(a - 1, b)
    ss = mask_primes(low, mask)
    ss_count = ss + 1
    ss_d = _supersingular_dp(curve, ss)
    return Columns(
        tuple(np.array(rows, dtype=np.int64).reshape(-1, 8).T),
        (p, trace, a, b, count, d, count // d),
        (ss, ss_count, ss_d, ss_count // ss_d),
    )


def _accumulator(cols: Columns, lo: int, hi: int, checkpoints) -> SumAccumulator:
    """The accumulator over [lo, hi], whose primes' records cols holds."""
    counts = np.bincount(cols.scalar[1], minlength=len(KINDS))
    counts[_ORD] += len(cols.ordinary[0])
    counts[_SS] += len(cols.supersingular[0])
    p, d, e = (np.concatenate([part[j] for part in cols]) for j in (0, -2, -1))
    hist_d, hist_n = np.unique(d, return_counts=True)
    acc = SumAccumulator(x_lo=lo, x_processed=hi, sum_dp=int(d.sum()), sum_ep=int(e.sum()),
                         counts=dict(zip(KINDS, counts.tolist())),
                         hist_dp=dict(zip(hist_d.tolist(), hist_n.tolist())))
    for x in sorted(x for x in checkpoints if lo <= x <= hi):
        # Weights 0 or 1: a dot product sums without compressing d and e.
        upto = (p <= x).astype(np.int64)
        acc.checkpoints.append(Checkpoint(x, int(d @ upto), int(e @ upto), int(upto.sum())))
    return acc


def _record_block(cols: Columns, lo: int, primes: np.ndarray) -> np.ndarray:
    """The (n, 8) int64 record rows of the primes of one range from lo, in increasing p:
    PrimeRecord's fields, the kind as its index in KINDS, from the Columns.

    The rows are column-major, the layout cli._block_bytes reads, and are
    filled one column at a time."""
    rows = np.zeros((len(primes), 8), dtype=np.int64, order="F")
    rows[:, 0] = primes
    # Row of each prime by its offset from lo, in place of a search of the unsorted p.
    row = np.empty(int(primes[-1]) - lo + 1 if len(primes) else 0, dtype=np.int64)
    row[primes - lo] = np.arange(len(primes))
    # The scalar values start at the kind; the ordinary and supersingular
    # values are the rows' last columns.
    for (p, *values), kind in zip(cols, (None, _ORD, _SS)):
        at = row[p - lo]
        if kind is not None:
            rows[:, 1][at] = kind
        for j, v in enumerate(values, 8 - len(values)):
            rows[:, j][at] = v
    return rows


def _scan_chunk(curve: CmCurve, lo: int, hi: int, checkpoints: tuple[int, ...], keep: bool,
                render: Callable[[np.ndarray], object] | None = None, guard: bool = False):
    """The accumulator over the primes in [lo, hi] and, if keep, their
    record rows, or render(rows) if render is given; else None.

    The range is sieved once into an odd-only mask, which the sweep reads
    and clears.  The accumulator comes straight from the sweep's Columns;
    the primes array and the (n, 8) rows are built only if keep.  guard is
    passed to select_units.
    """
    low, mask = odd_mask(hi, lo)
    # Read out before the sweep clears the mask.
    primes = mask_primes(low, mask, two=lo == 2) if keep else None
    cols = _sweep(curve, lo, low, mask, guard)
    acc = _accumulator(cols, lo, hi, checkpoints)
    if not keep:
        return acc, None
    rows = _record_block(cols, lo, primes)
    return acc, rows if render is None else render(rows)


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, in increasing order: os.cpu_count()
    counts every CPU of the machine, also those that affinity rules out.
    Without sched_getaffinity, every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus) -> None:
    """Confine this process to cpus.  Placement is a hint: an OSError leaves
    the process where it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _send(out, obj) -> None:
    """Write obj down a child's pipe, pickled whole first, so that an object
    that fails to pickle sends nothing."""
    out.write(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    out.flush()


def _sweep_jobs(fd: int, jobs) -> None:
    """A child of scan: sweep jobs in order and send each one's (acc, kept)
    down the pipe fd.  An exception is sent in place of its job's result
    and ends the child; scan raises it when it reaches that range."""
    with open(fd, "wb") as out:
        try:
            for job in jobs:
                _send(out, _scan_chunk(*job))
        except Exception as err:
            _send(out, err)


def _fork(target, *args) -> int:
    """Fork a child that runs target(*args), and return its pid.

    The child leaves only by os._exit, with 0 once target returns and 1 if
    anything escapes it, so it never unwinds into the caller's frames (say,
    into a cleanup that removes the caller's output) and never flushes the
    caller's buffered streams."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            target(*args)
            code = 0
        finally:
            os._exit(code)
    return pid


class WorkerLost(RuntimeError):
    """A child of scan ended without sending the result of a range."""


def scan(
    curve: CmCurve,
    x_max: int,
    checkpoints: Iterable[int] = (),
    workers: int = 1,
    records: Callable[[object], object] | None = None,
    render: Callable[[np.ndarray], object] | None = None,
) -> SumAccumulator:
    """Every prime <= x_max's record, folded into one accumulator.

    [2, x_max] is cut into ranges of CHUNK_SPAN integers, counted down from
    x_max so that only the first may be shorter; each job sieves its own
    range.  `workers` W processes sweep, the caller among them: job i goes
    to process i % W by a fixed round robin, and each process builds its
    jobs one at a time from a lazy range.  Each of the W - 1 children,
    forked by os.fork (_fork), sends each result pickled down its own
    os.pipe, blocking once the pipe is full, so the backlog stays bounded.
    The caller walks the jobs in order, sweeping its own and receiving the
    others, merges the results in increasing p and calls `records`, if
    given, with each range's (n, 8) int64 record rows (_record_block), so
    memory does not grow with x_max.
    Without `records` no range builds its rows: its accumulator comes from
    the sweep's columns alone.  `render` is applied to each range's rows
    in the process that swept it, and `records` receives its result
    instead: that moves, say, CSV formatting into the children, and only
    its result crosses back.  A child's exception is raised when the walk
    reaches its range, after the records of every earlier range; a child
    that dies without sending all of a result raises WorkerLost.  On every
    exit each child is reaped by os.waitpid, and sent SIGTERM first if scan
    is failing.
    If the caller's affinity mask (usable_cpus) holds exactly W > 1 CPUs,
    process k runs on the k-th of them from its first range, and the
    caller's mask is restored on every exit.  With fewer or more CPUs, or
    no sched_setaffinity, no process is pinned; a failed pin is ignored.
    Every value is exact and depends on no random stream, so records and
    accumulator are the same at any worker count and chunk span.  Past
    RULES_CHECKED_TO, the top range, a full one, is swept with
    select_units' guard, in the process that sweeps it.
    x_max must lie below X_MAX_LIMIT and workers in [1, MAX_WORKERS]; either,
    or a model whose discriminant has an odd power of a prime past
    SQUARES_BOUND, raises ValueError before any job is built.
    """
    if not 2 <= x_max < X_MAX_LIMIT:
        raise ValueError(f"x_max must lie in [2, 2^50), got {x_max}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    odd = curve.odd_disc_primes
    if odd and odd[-1] > SQUARES_BOUND:
        raise ValueError(f"the discriminant of {curve.label} has an odd power of "
                         f"{odd[-1]}, past the table-of-squares bound {SQUARES_BOUND}")
    cps = tuple(sorted(set(int(x) for x in checkpoints)))
    keep = records is not None
    guard = x_max > RULES_CHECKED_TO
    # Loaded here, before any fork, the model's rule is inherited by every child.
    select_units(curve, *np.zeros((3, 0), dtype=np.int64))
    span = CHUNK_SPAN
    his = range(x_max, 1, -span)[::-1]

    def jobs(part):
        # The _scan_chunk arguments of the ranges that end at part, built as needed.
        for hi in part:
            yield curve, max(hi - span + 1, 2), hi, cps, keep, render, guard and hi == x_max

    w = min(workers, len(his))
    # One CPU per process when the mask has exactly w of them.  Unpinned, a
    # child's pipe write wakes the caller onto the child's CPU, and on a
    # short scan the two share one CPU for most of it.
    cpus = usable_cpus() if w > 1 else []
    pin = len(cpus) == w and hasattr(os, "sched_setaffinity")
    # The children inherit their jobs, render and any rebound module name
    # at the fork, with no pickling, and scan itself starts no thread.
    children, pipes, exit_codes = [], [], {}

    def reap(pid):
        # The child's exit code, negative for a signal; each child is reaped once.
        if pid not in exit_codes:
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return exit_codes[pid]

    acc = None
    try:
        for k in range(1, w):
            recv_end, send_end = os.pipe()
            pipes.append(open(recv_end, "rb"))
            if pin:
                # The child inherits this mask at the fork, before its first range.
                _pin({cpus[k]})
            try:
                children.append(_fork(_sweep_jobs, send_end, jobs(his[k::w])))
            finally:
                # Closed before the next fork, so only child k holds this end
                # and its death ends the pipe.
                os.close(send_end)
        if pin:
            _pin({cpus[0]})
        for i, job in enumerate(jobs(his)):
            if i % w == 0:
                part, kept = _scan_chunk(*job)
            else:
                child = i % w - 1
                try:
                    got = pickle.load(pipes[child])
                except (EOFError, pickle.UnpicklingError):
                    # Nothing, or part of a result, before the pipe ended.
                    raise WorkerLost(
                        f"the worker sweeping [{job[1]}, {job[2]}] ended with exit code "
                        f"{reap(children[child])} before sending its result"
                    ) from None
                if isinstance(got, BaseException):
                    raise got
                part, kept = got
            acc = part if acc is None else merge(acc, part)
            if keep:
                records(kept)
    except BaseException:
        for pid in children:
            if pid not in exit_codes:
                os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid in children:
            reap(pid)
        for pipe in pipes:
            pipe.close()
        if pin:
            _pin(cpus)
    return acc


def decomposition_check(curve: CmCurve, x: int) -> tuple[int, int, bool]:
    """Exact identity sum_{p<=x} d_p = sum_{d<=2 sqrt x} phi(d) #{good p: d | d_p}.

    Reads the scan accumulator's exact d_p histogram (its key 0 holds the
    bad primes), counts good primes by each divisor of d_p, weights by phi,
    and compares with the direct sum; returns (lhs, rhs, lhs == rhs).
    """
    hist = scan(curve, x).hist_dp
    lhs = 0
    div_counts: dict[int, int] = {}
    for d_p, count in hist.items():
        if d_p == 0:
            continue
        lhs += d_p * count
        for d in divisors(d_p):
            div_counts[d] = div_counts.get(d, 0) + count
    rhs = sum(euler_phi(d) * c for d, c in div_counts.items())
    return lhs, rhs, lhs == rhs


# --- Brun-Titchmarsh prime-element counting ---------------------------------


def comaximal(mu: QuadInt, alpha: QuadInt) -> bool:
    """No prime ideal divides both (mu) and (alpha): the 2x2 minors of the
    coordinates of mu, mu*beta, alpha and alpha*beta, which span (mu) +
    (alpha), are coprime.  Zero norms give False."""
    if norm(mu) == 0 or norm(alpha) == 0:
        return False
    t, n = mu.order.beta_trace, mu.order.beta_norm
    vs = [(z.a, z.b) for z in (mu, alpha)] + [(-z.b * n, z.a + z.b * t) for z in (mu, alpha)]
    minors = [a1 * b2 - a2 * b1 for i, (a1, b1) in enumerate(vs) for a2, b2 in vs[i + 1:]]
    return math.gcd(*minors) == 1


def bt_counter(x: int, mu: QuadInt, alpha: QuadInt) -> int:
    """#{prime elements pi: Nm(pi) <= x, pi = alpha (mod mu)}, for x <= BT_BOUND.

    Associates count separately; inert and ramified prime elements are
    included when their norms fit.  pi = alpha (mod mu) exactly when
    pi*conj(mu) and alpha*conj(mu) agree mod Nm(mu) in both coordinates,
    tested on int64 arrays whose products stay below about 4x.  The w unit
    multiples of _split_points' element and of its conjugate are the split
    prime elements over p >= 5, range by range; an inert p gives those of
    p; a small box holds every point of norm q in {2, 3} or dividing Delta.
    _split_points finds no point over a ramified p, so none counts twice.
    """
    if x > BT_BOUND:
        raise ValueError(f"need x <= {BT_BOUND}, got {x}")
    od = mu.order
    if not od.is_maximal():
        raise ValueError("maximal orders only")
    if alpha.order != od:
        raise ValueError("mu and alpha must live in the same order")
    n = norm(mu)
    if n >= x:
        raise ValueError("need Nm(mu) < x")
    if not comaximal(mu, alpha):
        raise ValueError("(mu) and (alpha) must be comaximal")
    # alpha * conj(mu) as a QuadInt product: past 64 bits it raises OverflowError.
    m, c = conj(mu), alpha * conj(mu)
    ca, cb = c.a % n, c.b % n
    t, bn = od.beta_trace, od.beta_norm

    def congruent(*points) -> int:
        # (a + b*beta) * conj(mu) against c, mod n in both coordinates.
        return sum(int(np.count_nonzero(((a * m.a - b * m.b * bn - ca) % n == 0)
                                        & ((a * m.b + b * (m.a + m.b * t) - cb) % n == 0)))
                   for a, b in points)

    # x >= 2, as 1 <= Nm(mu) < x, so q = 2 always fits; Nm >= 3/4 max(a^2, b^2).
    small = [q for q in sorted({2, 3, *(q for q, _ in factorize(-od.delta))}) if q <= x]
    r = math.isqrt(4 * small[-1]) + 1
    a, b = np.mgrid[-r:r + 1, -r:r + 1].reshape(2, -1).astype(np.int64)
    on = np.isin(a * a + t * a * b + bn * b * b, small)
    count = congruent((a[on], b[on]))
    inert = primes_array(max(math.isqrt(x), 2))
    inert = inert[[p * p <= x and kronecker(od.delta, p) == -1 for p in inert.tolist()]]
    count += congruent(*unit_orbit(inert, 0 * inert, od))
    for lo in range(5, x + 1, CHUNK_SPAN):
        _, a, b = _split_points(od, *odd_mask(min(lo + CHUNK_SPAN - 1, x), lo))
        count += congruent(*unit_orbit(a, b, od), *unit_orbit(a + t * b, -b, od))
    return count


def bt_ratio(x: int, mu: QuadInt, count: int) -> float:
    """count * Phi(mu) * log(x / Nm(mu)) / x, the bounded Brun-Titchmarsh
    ratio of count = bt_counter(x, mu, alpha)."""
    return count * phi_element(mu) * math.log(x / norm(mu)) / x


# --- Multiplicative-sum diagnostics ------------------------------------------


def _phi_sieve(t: int) -> np.ndarray:
    """Euler's phi of 0..t as int64, for t <= SUM_BOUND.

    Each prime p <= sqrt(t) scales its multiples by 1 - 1/p and is divided
    out of their cofactor, an int32 copy of 0..t; what is left of n > 1 is 1
    or the one prime factor of n above sqrt(t), applied in a last step.  Both
    steps run in slices of CHUNK_SPAN, so that their quotients and mask stay
    small beside the 12 bytes per value of phi and the cofactor.
    """
    phi = np.arange(t + 1, dtype=np.int64)
    rest = np.arange(t + 1, dtype=np.int32)
    rest[0] = 1
    for p in primes_array(math.isqrt(t)).tolist() if t >= 4 else ():
        multiples = phi[p::p]
        for i in range(0, len(multiples), CHUNK_SPAN):
            m = multiples[i:i + CHUNK_SPAN]
            m -= m // p
        q = p
        while q <= t:
            rest[q::q] //= p
            q *= p
    for i in range(0, t + 1, CHUNK_SPAN):
        ph, r = phi[i:i + CHUNK_SPAN], rest[i:i + CHUNK_SPAN]
        np.subtract(ph, ph // r, out=ph, where=r > 1)
    return phi


def _squarefree_sieve(t: int) -> np.ndarray:
    sq = np.ones(t + 1, dtype=bool)
    for p in range(2, math.isqrt(t) + 1):
        sq[p * p :: p * p] = False
    return sq


EXACT_SUM_BOUND = 20000
# The largest t of schur_sum and Z of wintner_sum; each peaks near 240 MB there.
SUM_BOUND = 10**7


def schur_sum(t: int, exact: bool | None = None):
    """sum_{m<=t} m^4 / phi(m)^4; exact Fraction for small t, float beyond."""
    if t < 1:
        raise ValueError("t must be positive")
    if t > SUM_BOUND:
        raise ValueError(f"need t <= {SUM_BOUND}, got {t}")
    if exact is None:
        exact = t <= EXACT_SUM_BOUND
    phi = _phi_sieve(t)
    if exact:
        return sum(Fraction(m, int(phi[m])) ** 4 for m in range(1, t + 1))
    # m / phi(m) in place in one float copy of phi, then its fourth power
    # in place; phi(m) < 2^53 is exact.
    terms, phi = phi.astype(np.float64), None
    np.divide(np.arange(1, t + 1, dtype=np.float64), terms[1:], out=terms[1:])
    np.power(terms[1:], 4, out=terms[1:])
    return float(terms[1:].sum())


def wintner_sum(Z: int, exact: bool | None = None):
    """sum_{d<=Z} mu^2(d) phi(d) / d^2."""
    if Z < 1:
        raise ValueError("Z must be positive")
    if Z > SUM_BOUND:
        raise ValueError(f"need Z <= {SUM_BOUND}, got {Z}")
    if exact is None:
        exact = Z <= EXACT_SUM_BOUND
    phi = _phi_sieve(Z)
    sq = _squarefree_sieve(Z)
    if exact:
        return sum(
            Fraction(int(phi[d]), d * d) for d in range(1, Z + 1) if sq[d]
        )
    # phi(d) / d^2 in place in one float copy of phi; d^2 < 2^53 is exact.
    terms, phi = phi.astype(np.float64), None
    dd = np.arange(Z + 1, dtype=np.float64)
    dd *= dd
    terms[1:] /= dd[1:]
    terms[~sq] = 0.0
    return float(terms[1:].sum())


# --- Squarefree restriction inequality ---------------------------------------


class TrivlemResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def trivlem_check(g: Callable[[int], Fraction], k: int, t: int) -> TrivlemResult:
    """Exact check of the coprime-restriction lower bound for multiplicative g.

    lhs = sum over squarefree n <= t coprime to k of prod_{p|n} g(p);
    rhs = (prod_{p|k} (1 + g(p))^-1) * (same sum without the coprimality).
    Returns both sides and whether lhs >= rhs.
    """
    lhs = Fraction(0)
    total = Fraction(0)
    for n in range(1, t + 1):
        fac = factorize(n)
        if any(e > 1 for _, e in fac):
            continue
        val = Fraction(1)
        for p, _ in fac:
            val *= g(p)
        total += val
        if math.gcd(n, k) == 1:
            lhs += val
    rhs = total
    for p, _ in factorize(k):
        rhs /= 1 + g(p)
    return TrivlemResult(lhs, rhs, lhs >= rhs)


# --- Logarithmic integral -----------------------------------------------------


def li(y: float) -> float:
    """Li(y) = integral from 2 to y of dt / log t.

    Substituting t = e^u gives the integral of e^u / u over [log 2, log y],
    taken panel by panel over unit intervals with a fixed 20-point
    Gauss-Legendre rule.  On a unit panel the integrand is analytic and
    slowly varying, so the rule is accurate to rounding out to very large y.
    """
    if y <= 2:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(20)
    lo = math.log(2.0)
    hi = math.log(y)
    total = 0.0
    u = lo
    while u < hi:
        v = min(u + 1.0, hi)
        half = (v - u) / 2
        w = u + half * (nodes + 1.0)
        total += half * float(np.dot(weights, np.exp(w) / w))
        u = v
    return total
