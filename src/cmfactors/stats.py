"""Aggregation and the empirical checks built on the per-prime records.

Covers the scan (a streaming fold over fixed ranges of p whose mergeable
accumulators are combined in order as the ranges complete; the records go
to a caller's sink, never into one list), the exact divisor decomposition
of sum d_p, the Brun-Titchmarsh prime-element counter, the Schur and
Wintner mean-value sums and the squarefree restriction inequality.
Identity checks use exact integer or rational arithmetic; only diagnostic
ratios go through floating point.

A scan on W workers runs W processes, the caller among them: range i goes
to process i % W by a fixed round robin, and each of the W - 1 forked
children sends its results over its own pipe, so the backlog is bounded.

Every range is swept as arrays: its lattice points of prime norm give the
ordinary primes with Cornacchia's element, whose unit a residue rule
(frobrules) or, for a model without one, point sampling picks; residue
tables of p give the supersingular d_p.  The sweep builds one point per
split p, in the sector where Cornacchia's element lies, and of those only
the points whose parity classes (a mod 2, b mod 2) give an odd norm; p = 2
is never such a norm here and goes through dp_ep with p = 3 and the bad
primes.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .cornacchia import RAMIFIED, SPLIT, solve_norm, splitting_type
from .eccurve import CmCurve
from .frobenius import KINDS, ORDINARY, SUPERSINGULAR, PrimeRecord, dp_ep, frobenius_by_sampling
from .frobrules import rule_for
from .primesieve import divisors, euler_phi, factorize, primes_array
from .quadorder import OrderDesc, QuadInt, conj, norm, units

# Each scan job covers this many consecutive integers.
CHUNK_SPAN = 1 << 16

# Scans stop below this bound: _isqrt is exact below 2^52 and the sweep
# takes it of 4*hi, and the job list, built up front, stays small.
X_MAX_LIMIT = 1 << 50

# tools/frobenius_rules.py checks the packaged rules up to this bound; a
# scan beyond it re-derives its GUARD_PRIMES largest ordinary primes by
# point sampling, which needs no rule.
RULES_CHECKED_TO = 10**6
GUARD_PRIMES = 3

# bt_counter's largest x: its sieve of [2, x] peaks near 140 MB at 10^8,
# and the memory grows linearly with x.
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


@dataclass(frozen=True)
class RecordBlock:
    """The records of one range as an (n, 8) int64 array, in increasing p.

    Columns follow PrimeRecord's fields, with the kind as its index in
    frobenius.KINDS.  Iterating yields the PrimeRecords.
    """

    rows: np.ndarray

    def __iter__(self):
        for p, k, *rest in self.rows.tolist():
            yield PrimeRecord(p, KINDS[k], *rest)

    def accumulator(self, lo: int, hi: int, checkpoints) -> SumAccumulator:
        """The accumulator over [lo, hi], whose primes these rows are."""
        p, kind, d, e = self.rows[:, 0], self.rows[:, 1], self.rows[:, 6], self.rows[:, 7]
        counts = np.bincount(kind, minlength=len(KINDS)).tolist()
        hist_d, hist_n = np.unique(d, return_counts=True)
        acc = SumAccumulator(
            x_lo=lo,
            x_processed=hi,
            sum_dp=int(d.sum()),
            sum_ep=int(e.sum()),
            hist_dp=dict(zip(hist_d.tolist(), hist_n.tolist())),
            **{f"count_{k}": c for k, c in zip(KINDS, counts)},
        )
        xs = sorted(x for x in checkpoints if lo <= x <= hi)
        upto = np.searchsorted(p, xs, side="right")
        sums_d = np.concatenate(([0], np.cumsum(d)))[upto].tolist()
        sums_e = np.concatenate(([0], np.cumsum(e)))[upto].tolist()
        acc.checkpoints = [
            Checkpoint(*c) for c in zip(xs, sums_d, sums_e, upto.tolist())
        ]
        return acc


@functools.cache
def _squares(q: int) -> np.ndarray:
    """Whether each residue mod the odd prime q is a nonzero square."""
    table = np.zeros(q, dtype=bool)
    x = np.arange(1, q // 2 + 1, dtype=np.int64)
    table[x * x % q] = True
    return table


def _supersingular_dp(curve: CmCurve, p: np.ndarray) -> np.ndarray:
    """d_p of the curve at good supersingular primes p > 3, by table lookups.

    As in dp_ep, d_p = 2 exactly when p = 3 (mod 4) and (disc/p) = 1
    (eccurve.cubic_splits).  The primes dividing disc are bad, so (disc/p)
    is (-1/p) if disc < 0 times (q/p) over the bad q dividing disc to an
    odd power.  For p = 3 (mod 4), (-1/p) = -1, (2/p) = 1 iff p = 7 (mod 8)
    and, by reciprocity, (q/p) = (-p/q) for odd q: a lookup in a table of size q.
    """
    disc = -4 * curve.A**3 - 27 * curve.B**2
    nonsquare = np.full(len(p), disc < 0)
    for q in sorted(curve.bad_primes):
        odd = False
        while disc % q == 0:
            disc, odd = disc // q, not odd
        if odd:
            nonsquare ^= p % 8 == 3 if q == 2 else ~_squares(q)[-p % q]
    if abs(disc) != 1:
        raise ValueError(f"the bad primes of {curve.label} do not cover its discriminant")
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
    """(p, a, b): cornacchia's element a + b*beta of norm p, once for each p
    marked in usable[p - lo] that is a norm; the marked p must be prime to D.

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
    a + t*b - b*beta.
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


def _sweep(curve: CmCurve, lo: int, primes: np.ndarray) -> RecordBlock:
    """The records of `primes`, the primes of one range from lo.

    The ordinary primes and cornacchia's element of each come from
    _split_points.  The unit comes from the model's residue rule or else
    from frobenius_by_sampling, called in increasing p so that an
    AmbiguousFrobenius names the smallest such p.  Bad primes and p <= 3,
    p = 2 among them, go through dp_ep.
    """
    hi = int(primes[-1]) if len(primes) else lo
    rows = np.zeros((len(primes), 8), dtype=np.int64)
    rows[:, 0] = primes
    scalar = (primes <= 3) | np.isin(primes, list(curve.bad_primes))
    for i in np.flatnonzero(scalar).tolist():
        r = dp_ep(int(primes[i]), curve)
        rows[i] = (r.p, KINDS.index(r.kind), r.a_p, r.pi_a, r.pi_b, r.N, r.d_p, r.e_p)
    od = curve.order
    # Good primes > 3 not dividing D, which are ordinary exactly when they are norms.
    usable = np.zeros(hi - lo + 1, dtype=bool)
    usable[primes[~scalar & (primes % od.disc != 0)] - lo] = True
    p, a, b = _split_points(od, lo, usable)
    rule = rule_for(curve)
    if rule is not None:
        a, b = rule.select_arrays(p, a, b)
    else:
        by_p = np.argsort(p)
        p, a, b = p[by_p], a[by_p], b[by_p]
        pis = [frobenius_by_sampling(q, curve, pi0=QuadInt(x, y, od))[0]
               for q, x, y in zip(p.tolist(), a.tolist(), b.tolist())]
        a, b = np.array([(pi.a, pi.b) for pi in pis], dtype=np.int64).reshape(-1, 2).T
    at = np.searchsorted(primes, p)
    trace = 2 * a + b * od.beta_trace
    count, d = p + 1 - trace, np.gcd(a - 1, b)
    rows[at, 1] = _ORD
    rows[at, 2:] = np.column_stack((trace, a, b, count, d, count // d))
    # The rest are supersingular: a_p and pi stay 0.
    ss = ~scalar
    ss[at] = False
    count, d = primes[ss] + 1, _supersingular_dp(curve, primes[ss])
    rows[ss, 1] = _SS
    rows[ss, 5:] = np.column_stack((count, d, count // d))
    return RecordBlock(rows)


def _scan_chunk(curve: CmCurve, lo: int, hi: int, checkpoints: tuple[int, ...], keep: bool,
                render: Callable[[RecordBlock], object] | None = None, guard: bool = False):
    """The accumulator over the primes in [lo, hi] and, if keep, their
    RecordBlock, or render(block) if render is given.  With guard, the top
    of the block is first checked by _check_rule_at_top."""
    block = _sweep(curve, lo, primes_array(hi, lo=lo))
    if guard:
        _check_rule_at_top(curve, block)
    acc = block.accumulator(lo, hi, checkpoints)
    if not keep:
        return acc, None
    return acc, block if render is None else render(block)


def _check_rule_at_top(curve: CmCurve, block: RecordBlock) -> None:
    """Re-derive the largest ordinary rows of a block by point sampling.

    The rules are data checked only up to RULES_CHECKED_TO; sampling needs
    no rule, so agreement at the top of a longer scan is evidence that the
    rule still holds there.  Sampling solves its own norm equation, so the
    check does not rest on the sweep's lattice points.  Raises
    ArithmeticError on a mismatch.
    """
    ordinary = block.rows[block.rows[:, 1] == _ORD]
    for p, _, _, a, b, n, _, _ in ordinary[-GUARD_PRIMES:].tolist():
        pi, n_ref = frobenius_by_sampling(p, curve)
        if (pi.a, pi.b, n_ref) != (a, b, n):
            raise ArithmeticError(
                f"the Frobenius rule of {curve.label} disagrees with point sampling at p={p}"
            )


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
    render: Callable[[RecordBlock], object] | None = None,
) -> SumAccumulator:
    """Every prime <= x_max's record, folded into one accumulator.

    [2, x_max] is cut into ranges of CHUNK_SPAN integers, counted down from
    x_max so that only the first may be shorter; each job sieves its own
    range.  `workers` W processes sweep, the caller among them: job i goes
    to process i % W by a fixed round robin.  Each of the W - 1 forked
    children gets its whole job list at start and sends each result over
    its own pipe, blocking once the pipe is full, so the backlog stays
    bounded.  The caller walks the jobs in order, sweeping its own and
    receiving the others, merges the results in increasing p and calls
    `records`, if given, with each range's RecordBlock (iterating it yields
    the PrimeRecords in increasing p), so memory does not grow with x_max.
    `render` is applied to each RecordBlock in the process that swept it,
    and `records` receives its result instead: that moves, say, CSV
    formatting into the children, and only its result crosses back.  A
    child's exception is raised when the walk reaches its range, after the
    records of every earlier range; a child that dies without sending
    raises WorkerLost.  On every exit the children are joined, and
    terminated first if scan is failing.
    Every value is exact and depends on no random stream, so records and
    accumulator are the same at any worker count and chunk span.  Past
    RULES_CHECKED_TO, a model with a rule has the top of its last range, a
    full one, checked by point sampling in the process that sweeps it.
    x_max must lie below X_MAX_LIMIT; a larger bound raises ValueError
    before any job is built.
    """
    if not 2 <= x_max < X_MAX_LIMIT:
        raise ValueError(f"x_max must lie in [2, 2^50), got {x_max}")
    cps = tuple(sorted(set(int(x) for x in checkpoints)))
    keep = records is not None
    guard = x_max > RULES_CHECKED_TO and rule_for(curve) is not None
    jobs = [
        (curve, max(hi - CHUNK_SPAN + 1, 2), hi, cps, keep, render, guard and hi == x_max)
        for hi in reversed(range(x_max, 1, -CHUNK_SPAN))
    ]
    w = max(1, min(workers, len(jobs)))
    # fork, not spawn: the children inherit the jobs, render and any rebound
    # module name without pickling, and scan itself starts no thread.
    ctx = multiprocessing.get_context("fork")
    children, pipes = [], []
    acc = None
    try:
        for k in range(1, w):
            recv_end, send_end = ctx.Pipe(duplex=False)
            pipes.append(recv_end)
            children.append(ctx.Process(target=_sweep_jobs, args=(send_end, jobs[k::w])))
            children[-1].start()
            # Closed before the next fork, so only child k holds this end and
            # its death ends the pipe.
            send_end.close()
        for i, job in enumerate(jobs):
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


def _ramified_generator(order: OrderDesc, p: int) -> QuadInt:
    g = order.g
    if p == 2:
        return QuadInt(1, 1, order) if g == -1 else QuadInt(0, 1, order)
    # Odd ramified prime is |g| for g = 1 mod 4; sqrt(g) = 2*omega - 1.
    return QuadInt(-1, 2, order)


def prime_elements_above(p: int, order: OrderDesc) -> list[QuadInt]:
    """Generators (one per prime ideal over p), not expanded by units."""
    st = splitting_type(p, order)
    if st == SPLIT:
        pi0 = solve_norm(p, order)
        return [pi0, conj(pi0)]
    if st == RAMIFIED:
        return [_ramified_generator(order, p)]
    return [QuadInt(p, 0, order)]


def qi_divides(mu: QuadInt, z: QuadInt) -> bool:
    """Whether mu divides z in the order: z * conj(mu) = 0 mod Nm(mu)."""
    n = norm(mu)
    if n == 0:
        raise ValueError("division by zero element")
    q = z * conj(mu)
    return q.a % n == 0 and q.b % n == 0


def phi_element(mu: QuadInt) -> int:
    """Phi of the principal ideal (mu): the unit count of O_K / mu O_K."""
    if not mu.order.is_maximal():
        raise ValueError("maximal orders only")
    n = norm(mu)
    if n == 0:
        raise ValueError("Phi of the zero ideal is undefined")
    result = n
    for p, _ in factorize(n):
        for gen in prime_elements_above(p, mu.order):
            if qi_divides(gen, mu):
                np_ = norm(gen)
                result = result // np_ * (np_ - 1)
    return result


def comaximal(mu: QuadInt, alpha: QuadInt) -> bool:
    """No prime ideal divides both (mu) and (alpha)."""
    n = norm(mu)
    if n == 0 or norm(alpha) == 0:
        return False
    for p, _ in factorize(math.gcd(n, norm(alpha))):
        for gen in prime_elements_above(p, mu.order):
            if qi_divides(gen, mu) and qi_divides(gen, alpha):
                return False
    return True


def bt_counter(x: int, mu: QuadInt, alpha: QuadInt) -> int:
    """#{prime elements pi: Nm(pi) <= x, pi = alpha (mod mu)}, for x <= BT_BOUND.

    Associates count separately; inert and ramified prime elements are
    included when their norms fit.
    """
    if x > BT_BOUND:
        raise ValueError(f"need x <= {BT_BOUND}, got {x}")
    order = mu.order
    if not order.is_maximal():
        raise ValueError("maximal orders only")
    if alpha.order != order:
        raise ValueError("mu and alpha must live in the same order")
    if norm(mu) >= x:
        raise ValueError("need Nm(mu) < x")
    if not comaximal(mu, alpha):
        raise ValueError("(mu) and (alpha) must be comaximal")
    us = units(order)
    count = 0
    for p in map(int, primes_array(x)):
        for gen in prime_elements_above(p, order):
            if norm(gen) > x:
                continue
            for u in us:
                if qi_divides(mu, u * gen - alpha):
                    count += 1
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
    or the one prime factor of n above sqrt(t), applied in a single step.
    """
    phi = np.arange(t + 1, dtype=np.int64)
    rest = np.arange(t + 1, dtype=np.int32)
    rest[0] = 1
    for p in primes_array(math.isqrt(t)).tolist() if t >= 4 else ():
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= t:
            rest[q::q] //= p
            q *= p
    np.subtract(phi, phi // rest, out=phi, where=rest > 1)
    return phi


def _squarefree_sieve(t: int) -> np.ndarray:
    sq = np.ones(t + 1, dtype=bool)
    for p in range(2, math.isqrt(t) + 1):
        sq[p * p :: p * p] = False
    return sq


EXACT_SUM_BOUND = 20000
# The largest t of schur_sum and Z of wintner_sum; wintner_sum peaks near 350 MB there.
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
    ratios = np.arange(t + 1, dtype=np.float64)
    ratios[1:] /= phi[1:]
    return float(np.sum(ratios[1:] ** 4))


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
    ds = np.arange(Z + 1, dtype=np.float64)
    terms = np.zeros(Z + 1)
    terms[1:] = phi[1:] / ds[1:] ** 2
    terms[~sq] = 0.0
    return float(terms[1:].sum())


# --- Squarefree restriction inequality ---------------------------------------


class TrivlemResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def trivlem_check(
    g: Callable[[int], Fraction] | dict[int, Fraction],
    k: int,
    t: int,
) -> TrivlemResult:
    """Exact check of the coprime-restriction lower bound for multiplicative g.

    lhs = sum over squarefree n <= t coprime to k of prod_{p|n} g(p);
    rhs = (prod_{p|k} (1 + g(p))^-1) * (same sum without the coprimality).
    Returns both sides and whether lhs >= rhs.
    """
    if callable(g):
        gfun = g
    else:
        gfun = lambda p: g.get(p, Fraction(0))
    lhs = Fraction(0)
    total = Fraction(0)
    for n in range(1, t + 1):
        fac = factorize(n)
        if any(e > 1 for _, e in fac):
            continue
        val = Fraction(1)
        for p, _ in fac:
            val *= gfun(p)
        total += val
        if math.gcd(n, k) == 1:
            lhs += val
    rhs = total
    for p, _ in factorize(k):
        rhs /= 1 + gfun(p)
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
