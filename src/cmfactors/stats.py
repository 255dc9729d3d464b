"""Aggregation and the empirical checks built on the per-prime records.

Covers the scan (a streaming fold over fixed ranges of p whose mergeable
accumulators are combined in order as the ranges complete; the records go
to a caller's sink, never into one list), the exact divisor decomposition
of sum d_p, the Brun-Titchmarsh prime-element counter (fed by the same
sweep, with Phi and comaximality in closed form), the Schur and Wintner
mean-value sums and the squarefree restriction inequality.
Identity checks use exact integer or rational arithmetic; only diagnostic
ratios go through floating point.

A scan on W workers runs W processes, the caller among them: range i goes
to process i % W by a fixed round robin, and each of the W - 1 forked
children sends its results over its own pipe, so the backlog is bounded.

Every range is swept as arrays into Columns, its records in three parts:
p <= 3 and the bad primes, p = 2 among them, through dp_ep; the ordinary
primes, from the lattice points of prime norm with Cornacchia's element,
whose unit frobenius.select_units picks; and the supersingular primes, the
rest of the range's bitmap, whose d_p comes from residue tables.  The sweep
builds one point per split p, in the sector where Cornacchia's element
lies, and of those only the points whose parity classes (a mod 2, b mod 2)
give an odd norm.  A range's accumulator is summed straight from its
columns; its (n, 8) int64 record rows are built only when the caller keeps
the records.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .eccurve import CmCurve
from .frobenius import (
    KINDS, ORDINARY, RULES_CHECKED_TO, SUPERSINGULAR, PrimeRecord, dp_ep, select_units,
)
from .primesieve import divisors, euler_phi, factorize, primes_array
from .quadorder import OrderDesc, QuadInt, conj, content, kronecker, norm, unit_orbit

# Each scan job covers this many consecutive integers.
CHUNK_SPAN = 1 << 16

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

    Covers primes p with x_lo <= p <= x_processed.  Merging contiguous
    accumulators is exactly equivalent to one monolithic accumulation,
    field for field, checkpoints included.
    """

    x_lo: int
    x_processed: int
    sum_dp: int = 0
    sum_ep: int = 0
    count_ord: int = 0
    count_ss: int = 0
    count_bad: int = 0
    count_small: int = 0
    hist_dp: dict[int, int] = field(default_factory=dict)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def pi_x(self) -> int:
        return self.count_ord + self.count_ss + self.count_bad + self.count_small

    def accumulate(self, rec: PrimeRecord) -> None:
        self.sum_dp += rec.d_p
        self.sum_ep += rec.e_p
        if rec.kind == "ord":
            self.count_ord += 1
        elif rec.kind == "ss":
            self.count_ss += 1
        elif rec.kind == "bad":
            self.count_bad += 1
        else:
            self.count_small += 1
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
        count_ord=a.count_ord + b.count_ord,
        count_ss=a.count_ss + b.count_ss,
        count_bad=a.count_bad + b.count_bad,
        count_small=a.count_small + b.count_small,
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


def _odd_disc_primes(curve: CmCurve) -> list[int]:
    """The primes that divide the discriminant -4A^3 - 27B^2 to an odd power.

    Raises ValueError if the bad primes do not cover the discriminant, or
    if an odd one passes SQUARES_BOUND, the largest table of squares."""
    disc, odd = -4 * curve.A**3 - 27 * curve.B**2, set()
    for q in curve.bad_primes:
        while disc % q == 0:
            disc, odd = disc // q, odd ^ {q}
    if abs(disc) != 1:
        raise ValueError(f"the bad primes of {curve.label} do not cover its discriminant")
    if odd and max(odd) > SQUARES_BOUND:
        raise ValueError(f"the discriminant of {curve.label} has an odd power of "
                         f"{max(odd)}, past the table-of-squares bound {SQUARES_BOUND}")
    return sorted(odd)


def _supersingular_dp(curve: CmCurve, p: np.ndarray) -> np.ndarray:
    """d_p of the curve at good supersingular primes p > 3, by table lookups.

    As in dp_ep, d_p = 2 exactly when p = 3 (mod 4) and (disc/p) = 1
    (eccurve.cubic_splits).  The primes dividing disc are bad, so (disc/p)
    is (-1/p) if disc < 0 times (q/p) over the bad q dividing disc to an
    odd power.  For p = 3 (mod 4), (-1/p) = -1, (2/p) = 1 iff p = 7 (mod 8)
    and, by reciprocity, (q/p) = (-p/q) for odd q: a lookup in a table of size q.
    """
    nonsquare = np.full(len(p), 4 * curve.A**3 + 27 * curve.B**2 > 0)
    for q in _odd_disc_primes(curve):
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
    first = np.cumsum(counts) - counts
    x = np.arange(counts.sum(), dtype=np.int64)
    x *= step
    x += np.repeat(starts - step * first, counts)
    return x, np.repeat(tags, counts)


def _odd_classes(od: OrderDesc) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For b = 0 and b = 1 (mod 2), the classes of a mod 2 with Nm(a + b*beta) odd.

    Mod 2 the norm a^2 + t*a*b + n*b^2 depends only on (a, b, t, n) mod 2,
    and only a point of odd norm can have an odd prime norm.
    """
    t, n = od.beta_trace, od.beta_norm
    return tuple(
        tuple(a for a in (0, 1) if (a * a + t * a * b + n * b * b) % 2) for b in (0, 1)
    )


def _split_points(od: OrderDesc, lo: int, usable: np.ndarray):
    """(p, a, b): Cornacchia's element a + b*beta of norm p, once for each p
    marked in usable[p - lo] that is a norm; the marked p must be odd primes
    above 3.

    Writing u = 2a + t*b, 4 Nm(a + b*beta) = u^2 + |D| b^2.  Such a p has w
    points of norm p with b >= 1, and only one lies in the sector u > 0,
    and a > b if w > 2: for w = 2 the other has -u, and for D4 and D3 the
    sector is the smallest angle of the open quadrant.  For each b the
    sector points with norm in [lo, hi] form one run of a, empty once the
    sector's least norm exceeds hi.  Only the points of odd norm are
    built: one run of step 2 per class of a mod 2 that _odd_classes allows
    for b mod 2 (an even b always allows a odd), which drops half the
    points for D4, a quarter for D3 and three quarters for D7.  The
    element is the hit itself if a > 0, else (w = 2, t > 0) its conjugate
    a + t*b - b*beta.  A marked p dividing D, |D| = p*m, has no point in
    the sector: 4p >= |D| b^2 leaves b = 2, u = 0 (m = 1) or b = 1,
    u^2 = (4 - m)p, and as p | u that needs u = 0 or p | 4 - m.
    """
    hi = lo + len(usable) - 1
    t, n, D = od.beta_trace, od.beta_norm, -od.disc
    bmax = math.isqrt(4 * hi // D if od.w == 2 else hi // (1 + t + n))
    b = np.arange(1, bmax + 1, dtype=np.int64)
    bottom = 4 * lo - D * b * b
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
    hit = usable[norms - lo]
    p, a, b = norms[hit], a[hit], b[hit]
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


def _sweep(curve: CmCurve, lo: int, primes: np.ndarray, guard: bool) -> Columns:
    """The records of `primes`, the primes of one range from lo, as Columns.

    The range bitmap marks the primes.  p <= 3 and the bad primes, p = 2
    among them, leave it for dp_ep.  The ordinary primes and Cornacchia's
    element of each come from _split_points on what is left, and
    select_units, guarded if guard, picks each one's unit.  Once the
    ordinary primes are cleared, the bitmap holds the supersingular ones,
    in increasing p.
    """
    hi = int(primes[-1]) if len(primes) else lo
    usable = np.zeros(hi - lo + 1, dtype=bool)
    usable[primes - lo] = True
    scalar = [q for q in sorted({2, 3, *curve.bad_primes}) if lo <= q <= hi and usable[q - lo]]
    rows = []
    for q in scalar:
        r = dp_ep(q, curve)
        rows.append((r.p, KINDS.index(r.kind), r.a_p, r.pi_a, r.pi_b, r.N, r.d_p, r.e_p))
        usable[q - lo] = False
    od = curve.order
    p, a, b = _split_points(od, lo, usable)
    a, b = select_units(curve, p, a, b, guard)
    usable[p - lo] = False
    trace = 2 * a + b * od.beta_trace
    count, d = p + 1 - trace, np.gcd(a - 1, b)
    ss = lo + np.flatnonzero(usable)
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
    hist_d, hist_n = np.unique(np.concatenate([part[-2] for part in cols]), return_counts=True)
    acc = SumAccumulator(
        x_lo=lo,
        x_processed=hi,
        sum_dp=sum(int(part[-2].sum()) for part in cols),
        sum_ep=sum(int(part[-1].sum()) for part in cols),
        hist_dp=dict(zip(hist_d.tolist(), hist_n.tolist())),
        **{f"count_{k}": c for k, c in zip(KINDS, counts.tolist())},
    )
    for x in sorted(x for x in checkpoints if lo <= x <= hi):
        upto = [part[0] <= x for part in cols]
        acc.checkpoints.append(Checkpoint(
            x,
            sum(int(part[-2][m].sum()) for part, m in zip(cols, upto)),
            sum(int(part[-1][m].sum()) for part, m in zip(cols, upto)),
            sum(int(m.sum()) for m in upto),
        ))
    return acc


def _record_block(cols: Columns, lo: int, primes: np.ndarray) -> np.ndarray:
    """The (n, 8) int64 record rows of the primes of one range from lo, in increasing p:
    PrimeRecord's fields, the kind as its index in KINDS, from the Columns."""
    rows = np.zeros((len(primes), 8), dtype=np.int64)
    rows[:, 0] = primes
    # Row of each prime by its offset from lo, in place of a search of the unsorted p.
    row = np.empty(int(primes[-1]) - lo + 1 if len(primes) else 0, dtype=np.int64)
    row[primes - lo] = np.arange(len(primes))
    p, *values = cols.scalar
    rows[row[p - lo], 1:] = np.column_stack(values)
    # The ordinary and supersingular values are the rows' last columns.
    for (p, *values), kind in zip(cols[1:], (_ORD, _SS)):
        at = row[p - lo]
        rows[at, 1] = kind
        rows[at, 8 - len(values):] = np.column_stack(values)
    return rows


def _scan_chunk(curve: CmCurve, lo: int, hi: int, checkpoints: tuple[int, ...], keep: bool,
                render: Callable[[np.ndarray], object] | None = None, guard: bool = False):
    """The accumulator over the primes in [lo, hi] and, if keep, their
    record rows, or render(rows) if render is given; else None.

    The accumulator comes straight from the sweep's Columns, and the
    (n, 8) rows are built only if keep.  guard is passed to select_units.
    """
    primes = primes_array(hi, lo=lo)
    cols = _sweep(curve, lo, primes, guard)
    acc = _accumulator(cols, lo, hi, checkpoints)
    if not keep:
        return acc, None
    rows = _record_block(cols, lo, primes)
    return acc, rows if render is None else render(rows)


def _sweep_jobs(conn, jobs) -> None:
    """A child of scan: sweep jobs in order and send each one's (acc, kept)
    over conn.  An exception is sent in place of its job's result and ends
    the child; scan raises it when it reaches that range."""
    with conn:
        try:
            for job in jobs:
                conn.send(_scan_chunk(*job))
        except Exception as err:
            conn.send(err)


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
    jobs one at a time from a lazy range.  Each of the W - 1 forked
    children sends each result over its own pipe, blocking once the pipe
    is full, so the backlog stays bounded.  The caller walks the jobs in
    order, sweeping its own and receiving the others, merges the results
    in increasing p and calls `records`, if given, with each range's (n, 8)
    int64 record rows (_record_block), so memory does not grow with x_max.
    Without `records` no range builds its rows: its accumulator comes from
    the sweep's columns alone.  `render` is applied to each range's rows
    in the process that swept it, and `records` receives its result
    instead: that moves, say, CSV
    formatting into the children, and only its result crosses back.  A
    child's exception is raised when the walk reaches its range, after the
    records of every earlier range; a child that dies without sending
    raises WorkerLost.  On every exit the children are joined, and
    terminated first if scan is failing.
    Every value is exact and depends on no random stream, so records and
    accumulator are the same at any worker count and chunk span.  Past
    RULES_CHECKED_TO, the top range, a full one, is swept with
    select_units' guard, in the process that sweeps it.
    x_max must lie below X_MAX_LIMIT and workers must not pass MAX_WORKERS;
    either, or a model that _odd_disc_primes refuses, raises ValueError
    before any job is built.
    """
    if not 2 <= x_max < X_MAX_LIMIT:
        raise ValueError(f"x_max must lie in [2, 2^50), got {x_max}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must not pass {MAX_WORKERS}, got {workers}")
    cps = tuple(sorted(set(int(x) for x in checkpoints)))
    keep = records is not None
    guard = x_max > RULES_CHECKED_TO
    _odd_disc_primes(curve)
    # Loaded here, before any fork, the model's rule is inherited by every child.
    select_units(curve, *np.zeros((3, 0), dtype=np.int64))
    span = CHUNK_SPAN
    his = range(x_max, 1, -span)[::-1]

    def jobs(part):
        # The _scan_chunk arguments of the ranges that end at part, built as needed.
        for hi in part:
            yield curve, max(hi - span + 1, 2), hi, cps, keep, render, guard and hi == x_max

    w = max(1, min(workers, len(his)))
    # fork, not spawn: the children inherit their jobs, render and any
    # rebound module name without pickling, and scan itself starts no thread.
    ctx = multiprocessing.get_context("fork")
    children, pipes = [], []
    acc = None
    try:
        for k in range(1, w):
            recv_end, send_end = ctx.Pipe(duplex=False)
            pipes.append(recv_end)
            children.append(ctx.Process(target=_sweep_jobs, args=(send_end, jobs(his[k::w]))))
            children[-1].start()
            # Closed before the next fork, so only child k holds this end and
            # its death ends the pipe.
            send_end.close()
        for i, job in enumerate(jobs(his)):
            if i % w == 0:
                part, kept = _scan_chunk(*job)
            else:
                child = i % w - 1
                try:
                    got = pipes[child].recv()
                except EOFError:
                    children[child].join()
                    raise WorkerLost(
                        f"the worker sweeping [{job[1]}, {job[2]}] ended with exit code "
                        f"{children[child].exitcode} before sending its result"
                    ) from None
                if isinstance(got, BaseException):
                    raise got
                part, kept = got
            acc = part if acc is None else merge(acc, part)
            if keep:
                records(kept)
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for pipe in pipes:
            pipe.close()
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


def phi_element(mu: QuadInt) -> int:
    """Phi of the principal ideal (mu): the unit count of O_K / mu O_K.

    Nm(mu) times 1 - 1/N(P) over the prime ideals P | mu: P = (p) for an
    inert p, one P of norm p for a ramified p, and for a split p one, or
    both if p | content(mu)."""
    if not mu.order.is_maximal():
        raise ValueError("maximal orders only")
    n = norm(mu)
    if n == 0:
        raise ValueError("Phi of the zero ideal is undefined")
    result = n
    for p, _ in factorize(n):
        chi = kronecker(mu.order.delta, p)
        q = p * p if chi == -1 else p
        result = result // q * (q - 1)
        if chi == 1 and content(mu) % p == 0:
            result = result // p * (p - 1)
    return result


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
        hi = min(lo + CHUNK_SPAN - 1, x)
        usable = np.zeros(hi - lo + 1, dtype=bool)
        usable[primes_array(hi, lo=lo) - lo] = True
        _, a, b = _split_points(od, lo, usable)
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
