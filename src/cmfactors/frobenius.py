"""Per-prime classification and invariant factors via Frobenius arithmetic.

For a good ordinary prime, the Frobenius element pi_p has norm p; the group
order is Nm(pi_p - 1) and the first invariant factor is the content of
pi_p - 1.  Cornacchia only pins pi_p down to a unit multiple, which
select_units alone picks: by a residue rule (see frobrules) for the table's
models, checked by sampling when guarded, and for any other model by
testing the candidates' orders and exponents against random points, each
prime seeding its own generator, so values never depend on a seed.
Supersingular primes need no group work at all: #E(F_p) = p + 1 and
d_p = 2 exactly when the 2-torsion is rational, which one Legendre symbol
of the discriminant of x^3 + Ax + B decides (eccurve.cubic_splits).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .cornacchia import SPLIT, solve_norm, splitting_type
from .eccurve import CmCurve, _scalar_mul, cubic_splits, negate, random_point
from .frobrules import rule_for
from .oracle import count_points, group_structure
from .quadorder import QuadInt, content, trace, units

# perfbench/tracing.py times this by rebinding it in this module.
from .quadorder import conj  # noqa: F401

BAD = "bad"
ORDINARY = "ord"
SUPERSINGULAR = "ss"
SMALL = "small"

KINDS = (BAD, ORDINARY, SUPERSINGULAR, SMALL)

MAX_SAMPLE_POINTS = 32

# tools/frobenius_rules.py checks the packaged rules up to this bound; a
# guarded select_units re-derives its GUARD_PRIMES largest picks by point
# sampling, which needs no rule.
RULES_CHECKED_TO = 10**6
GUARD_PRIMES = 3


class AmbiguousFrobenius(RuntimeError):
    """Unit disambiguation failed; carries the offending prime."""

    def __init__(self, p: int):
        super().__init__(f"ambiguous Frobenius candidates at p={p}")
        self.p = p

    def __reduce__(self):
        # The default rebuilds from args, the message, and would nest it.
        return type(self), (self.p,)


@dataclass(frozen=True, slots=True)
class PrimeRecord:
    """One prime's worth of results; zeros where a field does not apply."""

    p: int
    kind: str
    a_p: int
    pi_a: int
    pi_b: int
    N: int
    d_p: int
    e_p: int


def classify(p: int, curve: CmCurve) -> str:
    if p in curve.bad_primes:
        return BAD
    if p <= 3:
        return SMALL
    if splitting_type(p, curve.order) == SPLIT:
        return ORDINARY
    return SUPERSINGULAR


def select_units(curve: CmCurve, p: np.ndarray, a: np.ndarray, b: np.ndarray,
                 guard: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The Frobenius unit multiples of a + b*beta, norm p, as int64 arrays in input order.

    The packaged residue rule of the curve's model picks the units at once.
    A model without a rule hands each element, as pi0, to
    frobenius_by_sampling in increasing p, so that an AmbiguousFrobenius
    names the smallest such p.  With guard, a rule's picks at the
    GUARD_PRIMES largest p are re-derived by sampling, which solves its own
    norm equation and needs no rule; a disagreement raises ArithmeticError.
    """
    rule = rule_for(curve)
    if rule is not None:
        a, b = rule.select_arrays(p, a, b)
        if guard:
            for i in np.argsort(p)[-GUARD_PRIMES:].tolist():
                pi, _ = frobenius_by_sampling(int(p[i]), curve)
                if (pi.a, pi.b) != (int(a[i]), int(b[i])):
                    raise ArithmeticError(f"the Frobenius rule of {curve.label} disagrees "
                                          f"with point sampling at p={int(p[i])}")
        return a, b
    od = curve.order
    a, b = a.copy(), b.copy()
    for i in np.argsort(p).tolist():
        pi, _ = frobenius_by_sampling(int(p[i]), curve, pi0=QuadInt(int(a[i]), int(b[i]), od))
        a[i], b[i] = pi.a, pi.b
    return a, b


def frobenius_at(p: int, curve: CmCurve, pi0: QuadInt | None = None) -> tuple[QuadInt, int]:
    """The Frobenius element (up to conjugation) and N = #E(F_p).

    select_units picks the unit multiple of Cornacchia's pi0 (solve_norm's
    element, computed here unless the caller has it).
    """
    od = curve.order
    if pi0 is None:
        pi0 = solve_norm(p, od)
    if pi0 is None:
        raise ValueError(f"p={p} is not ordinary for {curve.label}")
    a, b = (int(v[0]) for v in select_units(curve, *np.array([[p], [pi0.a], [pi0.b]], np.int64)))
    return QuadInt(a, b, od), p + 1 - 2 * a - b * od.beta_trace


def frobenius_by_sampling(p: int, curve: CmCurve, pi0=None) -> tuple[QuadInt, int]:
    """frobenius_at by testing each unit multiple against random points.

    The exact slow path: it needs no rule, so it serves models outside the
    table and validates the rules.  Candidates are the unit multiples of a
    norm-p element; each claims a group order N_u = p + 1 - Tr(u pi0) and,
    via the content of u pi0 - 1, a full structure (d_u, e_u).  Random
    points kill wrong claims: first by the cheap order test
    (p+1)P = t_u P, then, among survivors, by the claimed exponent
    e_u P = infinity.  If sampling stalls, an exact point count settles it;
    an impossible mismatch raises AmbiguousFrobenius, and so does a p past
    oracle.COUNT_BOUND, where no count is made.  The points come from a
    generator seeded by p; without `pi0`, solve_norm gives the norm-p element.
    """
    rng = random.Random(f"cmfactors:{p}")
    if pi0 is None:
        pi0 = solve_norm(p, curve.order)
    if pi0 is None:
        raise ValueError(f"p={p} is not ordinary for {curve.label}")
    cands = []
    for u in units(curve.order):
        c = u * pi0
        t = trace(c)
        n = p + 1 - t
        d = content(c - 1)
        cands.append((c, t, n, d, n // d))
    # Full d-torsion forces d | p - 1 (Weil pairing); prune impossible claims.
    cands = [cd for cd in cands if (p - 1) % cd[3] == 0]
    a = curve.A % p
    for _ in range(MAX_SAMPLE_POINTS):
        if len(cands) <= 1:
            break
        P = random_point(curve, p, rng)
        R = _scalar_mul(p + 1, P, a, p)
        cache: dict[int, object] = {}
        survivors = []
        for cd in cands:
            t = cd[1]
            s = cache.get(abs(t))
            if s is None:
                s = _scalar_mul(abs(t), P, a, p)
                cache[abs(t)] = s
            if R == (s if t >= 0 else negate(s, p)):
                survivors.append(cd)
        cands = survivors
        if len(cands) <= 1:
            break
        cands = [cd for cd in cands if _scalar_mul(cd[4], P, a, p) is None]
    if len(cands) == 1:
        return cands[0][0], cands[0][2]
    # Sampling cannot separate claims whose exponents divide each other's
    # orders; the exact count is a last-resort discriminator, below its bound.
    try:
        n_true = count_points(curve, p)
    except ValueError:
        raise AmbiguousFrobenius(p) from None
    matches = [cd for cd in cands if cd[2] == n_true]
    if len(matches) == 1:
        return matches[0][0], matches[0][2]
    raise AmbiguousFrobenius(p)


def dp_ep(p: int, curve: CmCurve) -> PrimeRecord:
    """The full per-prime record: reduction type, a_p, pi_p, N, d_p, e_p.

    scan calls it for the bad primes and p <= 3 only; at every other p it is
    the reference the array sweep is checked against (tools/sweep_check.py).
    For a good p > 3, solve_norm is the one split test: it returns an
    element of norm p exactly when p is ordinary (split), as in classify.
    """
    if p in curve.bad_primes:
        return PrimeRecord(p, BAD, 0, 0, 0, 0, 0, 0)
    if p <= 3:
        d, e = group_structure(curve, p)
        n = d * e
        return PrimeRecord(p, SMALL, p + 1 - n, 0, 0, n, d, e)
    pi0 = solve_norm(p, curve.order)
    if pi0 is not None:
        pi, n = frobenius_at(p, curve, pi0)
        a, b = pi.a, pi.b
        d = math.gcd(a - 1, b)  # content(pi - 1)
        return PrimeRecord(p, ORDINARY, p + 1 - n, a, b, n, d, n // d)
    # Supersingular (inert or ramified): N = p + 1 is even, and d_p = 2
    # exactly when the cubic splits.  That is full 2-torsion, so 4 | p + 1:
    # testing p = 3 (mod 4) first skips the modular power at every p = 1 (mod 4).
    n = p + 1
    d = 2 if p % 4 == 3 and cubic_splits(curve, p) else 1
    return PrimeRecord(p, SUPERSINGULAR, 0, 0, 0, n, d, n // d)

