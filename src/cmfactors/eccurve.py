"""Short-Weierstrass arithmetic over F_p and the table of thirteen CM curves.

Points are affine (x, y) tuples with None standing for the point at
infinity.  The curve table ships as a human-readable data file; it is data,
not ground truth, and the test suite revalidates every entry against
brute-force point counts.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

from .cornacchia import NoRoot, sqrt_mod
from .primesieve import factorize
from .quadorder import ORDER_PARAMS, OrderDesc, order

Point = tuple[int, int] | None


@dataclass(frozen=True)
class CmCurve:
    """y^2 = x^3 + A x + B with CM by `order`, and what the model fixes.

    Derived when the curve is built, so that a singular model fails here:
    disc = -4A^3 - 27B^2, the discriminant of x^3 + Ax + B; bad_primes,
    model_bad_primes(A, B); and odd_disc_primes, the primes that divide
    disc to an odd power, in increasing order.
    """

    label: str
    A: int
    B: int
    order: OrderDesc
    disc: int = field(init=False)
    bad_primes: frozenset[int] = field(init=False)
    odd_disc_primes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # model_bad_primes refuses a singular model; its primes cover disc.
        bad = model_bad_primes(self.A, self.B)
        disc = rest = -4 * self.A**3 - 27 * self.B**2
        odd = set()
        for q in bad:
            while rest % q == 0:
                rest, odd = rest // q, odd ^ {q}
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "bad_primes", bad)
        object.__setattr__(self, "odd_disc_primes", tuple(sorted(odd)))

    def rhs(self, x: int, p: int) -> int:
        return (x * x % p * x + self.A * x + self.B) % p


def model_bad_primes(A: int, B: int) -> frozenset[int]:
    """Primes where the short-Weierstrass model is singular.

    2 is always bad (every y^2 = cubic model is singular in characteristic
    2); odd primes are bad exactly when they divide 4A^3 + 27B^2.  A
    singular model, with 4A^3 + 27B^2 = 0, raises ValueError.  For B = 0 the
    discriminant is 4|A|^3 and for A = 0 it is 27B^2, so the coefficient is
    factored, not its power: a prime A or B above 10^6 stays in reach.
    """
    disc = abs(4 * A**3 + 27 * B**2)
    if disc == 0:
        raise ValueError("singular model: 4A^3 + 27B^2 = 0")
    core = 2 * A if B == 0 else 3 * B if A == 0 else disc
    return frozenset({2} | {q for q, _ in factorize(abs(core))})


def custom_curve(A: int, B: int, g: int, f: int = 1, label: str | None = None) -> CmCurve:
    """User-supplied model; the caller claims CM by the (g, f) order.

    The CLI enforces the claim by the oracle gate of the shipped table
    (cli.oracle_mismatches up to p = 200); a wrong (g, f) fails loudly there.
    """
    if label is None:
        label = f"custom-{A}-{B}"
    return CmCurve(label, A, B, order(g, f))


def _parse_table(text: str) -> list[CmCurve]:
    curves = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"malformed curve record: {line!r}")
        label, a_s, b_s, g_s, f_s, bad_s = parts
        A, B, g, f = int(a_s), int(b_s), int(g_s), int(f_s)
        curve = CmCurve(label, A, B, order(g, f))
        if frozenset(int(t) for t in bad_s.split(",")) != curve.bad_primes:
            raise ValueError(f"bad-prime set for {label} disagrees with the model")
        curves.append(curve)
    return curves


@functools.cache
def curve_table() -> list[CmCurve]:
    """The packaged curve table, one model per class-number-one order."""
    text = resources.files(__package__).joinpath("data/curves.txt").read_text()
    curves = _parse_table(text)
    if {(c.order.g, c.order.f) for c in curves} != set(ORDER_PARAMS):
        raise ValueError("packaged table does not cover the thirteen orders")
    return curves


def get_curve(label: str) -> CmCurve:
    """Look a table curve up by exact label or by its D-suffix alias (e.g. 'D4')."""
    for c in curve_table():
        if c.label == label:
            return c
    for c in curve_table():
        if c.label.rsplit("-", 1)[-1] == label:
            return c
    raise KeyError(f"no curve labelled {label!r}")


def _add(P: Point, Q: Point, a: int, p: int) -> Point:
    """Group law with pre-reduced a = A mod p; no input validation."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        s = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    return (x3, (s * (x1 - x3) - y1) % p)


def _scalar_mul(n: int, P: Point, a: int, p: int) -> Point:
    if P is None or n == 0:
        return None
    R: Point = None
    Q = P
    while n:
        if n & 1:
            R = _add(R, Q, a, p)
        n >>= 1
        if n:
            Q = _add(Q, Q, a, p)
    return R


def negate(P: Point, p: int) -> Point:
    if P is None:
        return None
    return (P[0], (-P[1]) % p)


def random_point(curve: CmCurve, p: int, rng) -> Point:
    """A random affine point: rejection-sample x, pick a root by a coin toss."""
    if p <= 3 or p in curve.bad_primes:
        raise ValueError(f"p={p} is not usable for curve arithmetic on {curve.label}")
    while True:
        x = rng.randrange(p)
        t = curve.rhs(x, p)
        if t == 0:
            return (x, 0)
        try:
            y = sqrt_mod(t, p)
        except NoRoot:
            continue
        if rng.getrandbits(1):
            y = p - y
        return (x, y)


def cubic_splits(curve: CmCurve, p: int) -> bool:
    """True iff x^3 + Ax + B has three roots in F_p (all 2-torsion rational).

    Valid for a good prime p > 3 with #E(F_p) even, as at every
    supersingular p, where #E(F_p) = p + 1.  Then E(F_p) has a point of
    order 2 (Cauchy), so the cubic has a root mod p.  A squarefree cubic with
    a root has 1 or 3 roots, and 3 exactly when its discriminant
    -4A^3 - 27B^2 is a square mod p, because Frobenius then permutes the
    roots evenly.  So one Euler criterion decides it.
    """
    if p <= 3 or p in curve.bad_primes:
        raise ValueError(f"p={p} is not usable for curve arithmetic on {curve.label}")
    return pow(curve.disc, (p - 1) // 2, p) == 1
