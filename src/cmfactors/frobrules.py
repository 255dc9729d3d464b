"""Residue rules that fix the unit multiple of the Frobenius element.

On a CM curve the Frobenius pi_p is the value of a Hecke character at a
prime above p, so a congruence condition on pi_p picks it out of its unit
orbit (Rubin-Silverberg, "Choosing the correct elliptic curve in the CM
method", Math. Comp. 79, 2010).  Each rule lists the allowed residues of
pi_p for one curve model and has one of two kinds of key:

    pi     (a mod M, c mod M) for pi = a + c*omega in maximal-order
           coordinates (c = f*b for pi = a + b*(f*omega) in the order);
    trace  (Legendre(Tr(pi) mod M), p mod 24), with M = -g a prime
           congruent to 3 mod 4 and w = 2, so that negating pi flips the
           Legendre symbol.

The packaged rules in data/frobenius.txt are keyed by the model
(A, B, g, f): a twist that reuses a label, or any other model, has no
rule.  They are data learned from the point-sampling path, which stays the
exact slow path; the test suite checks them against it and the oracle.
frobenius.select_units reads a rule's table, which is built when it is made.
"""
from __future__ import annotations

import functools
import math
from importlib import resources

import numpy as np

from .quadorder import ORDER_PARAMS, kronecker_table, order, unit_orbit

PI = "pi"
TRACE = "trace"
KINDS = (PI, TRACE)

# The p-modulus of a trace key: the quadratic characters of conductor
# dividing 24 that a model's twist can introduce.
TRACE_P_MODULUS = 24

Model = tuple[int, int, int, int]


class FrobeniusRule:
    """The allowed Frobenius residues of one model, with a flat key -> unit table.

    Raises ValueError if a unit orbit meets the allowed set more than once,
    since the rule would then not pick a unique unit.
    """

    __slots__ = ("model", "kind", "modulus", "residues", "_order", "_chi", "_units")

    def __init__(self, model: Model, kind: str, modulus: int, residues):
        _, _, g, f = model
        od = order(g, f)
        if kind not in KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        if kind == TRACE and not (modulus == -g and modulus % 4 == 3 and od.w == 2):
            raise ValueError("a trace rule needs M = -g = 3 (mod 4) and w = 2")
        if modulus < 2:
            raise ValueError("the modulus must be at least 2")
        self.model = model
        self.kind = kind
        self.modulus = modulus
        self.residues = frozenset(residues)
        self._order = od
        # M = -g = |Delta_K|, and (-M/n) = (n/M) for n >= 1: the Legendre symbol mod M.
        self._chi = kronecker_table(od.delta) if kind == TRACE else None
        # Each class c = u*r in the orbit of an allowed residue r maps to u^-1 =
        # conj(u) (units have norm 1), in the order's coordinates, at _index(c);
        # every other key maps to (0, 0), which is no unit.
        unit_for: dict[tuple[int, int], tuple[int, int]] = {}
        for r in self.residues:
            for (ua, ub), c in zip(unit_orbit(1, 0, od), self.orbit(r)):
                inv = (ua + ub * od.beta_trace, -ub)
                if unit_for.setdefault(c, inv) != inv:
                    raise ValueError(f"residues {sorted(self.residues)} meet a unit orbit twice")
        at = [self._index(c) for c in unit_for]
        self._units = np.zeros((2, 3 * TRACE_P_MODULUS if kind == TRACE else modulus**2),
                               dtype=np.int64)
        self._units[:, at] = np.array(list(unit_for.values()), dtype=np.int64).reshape(-1, 2).T

    def key(self, p, a, b):
        """The residue key of pi = a + b*beta (coordinates in the model's order):
        a pair of ints for ints, a pair of arrays for int64 arrays."""
        od, M = self._order, self.modulus
        if self.kind == TRACE:
            chi = self._chi[(2 * a + b * od.beta_trace) % M]
            return (chi if isinstance(chi, np.ndarray) else int(chi), p % TRACE_P_MODULUS)
        return (a % M, od.f * b % M)

    def _index(self, key):
        """Position of a key (or of arrays of key parts) in the flat tables."""
        if self.kind == TRACE:
            return (key[0] + 1) * TRACE_P_MODULUS + key[1]
        return key[0] * self.modulus + key[1]

    def orbit(self, key: tuple[int, int]) -> list[tuple[int, int]]:
        """The keys of the unit multiples of an element with this key, in units() order."""
        if self.kind == TRACE:
            return [key, (-key[0], key[1])]
        M = self.modulus
        # Suborders have units +-1 only, which act the same in either basis.
        return [(x % M, y % M) for x, y in unit_orbit(key[0], key[1], self._order)]

    def conj(self, key: tuple[int, int]) -> tuple[int, int]:
        """The key of the conjugate element."""
        if self.kind == TRACE:
            return key
        M = self.modulus
        t = order(self._order.g, 1).beta_trace
        return ((key[0] + key[1] * t) % M, -key[1] % M)

    def classes(self) -> list[tuple[int, int]]:
        """Every key of an element of the order coprime to M (trace: to 24)."""
        if self.kind == TRACE:
            return [(s, r) for r in range(TRACE_P_MODULUS) if math.gcd(r, TRACE_P_MODULUS) == 1
                    for s in (1, -1)]
        M, od = self.modulus, self._order
        t, n = od.beta_trace, od.beta_norm
        return sorted({
            (a, od.f * b % M)
            for a in range(M)
            for b in range(M)
            if math.gcd(a * a + a * b * t + b * b * n, M) == 1
        })

    def orbits(self) -> set[frozenset[tuple[int, int]]]:
        """The unit orbits of classes(); a complete rule meets each exactly once."""
        return {frozenset(self.orbit(c)) for c in self.classes()}

    def select_arrays(self, p: np.ndarray, a: np.ndarray, b: np.ndarray):
        """The allowed unit multiples of a + b*beta over int64 arrays, as arrays.

        Each element is one lookup in the flat table and one product with
        its unit.  Raises ValueError at the first element whose unit orbit
        has no allowed residue, which the table marks with (0, 0).
        """
        od = self._order
        ua, ub = self._units.take(self._index(self.key(p, a, b)), axis=1)
        # Nonzero exactly where the table holds a unit.
        unit = ua | ub
        if not unit.all():
            bad = int(np.flatnonzero(unit == 0)[0])
            key = self.key(int(p[bad]), int(a[bad]), int(b[bad]))
            raise ValueError(
                f"no allowed residue in the unit orbit of key {key} at p={int(p[bad])}"
            )
        bb = ub * b
        return ua * a - bb * od.beta_norm, ua * b + ub * a + bb * od.beta_trace


def parse_rules(text: str) -> dict[Model, tuple[str, int, list[tuple[int, int]]]]:
    """The fields (kind, M, residues) of each model's rule in data-file text,
    one `A B g f kind M residues` line per model; no rule is built."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ValueError(f"malformed Frobenius rule: {line!r}")
        model = tuple(int(t) for t in parts[:4])
        residues = []
        for item in parts[6].split(","):
            x, _, y = item.partition(":")
            residues.append((int(x), int(y)))
        if model in fields:
            raise ValueError(f"duplicate Frobenius rule for model {model}")
        fields[model] = (parts[4], int(parts[5]), residues)
    return fields


def format_rule(rule: FrobeniusRule) -> str:
    """The data-file line of a rule; parse_rules reads it back."""
    A, B, g, f = rule.model
    residues = ",".join(f"{x}:{y}" for x, y in sorted(rule.residues))
    return f"{A} {B} {g} {f} {rule.kind} {rule.modulus} {residues}"


@functools.cache
def _packaged_fields() -> dict[Model, tuple[str, int, list[tuple[int, int]]]]:
    """The shipped rules' fields, read on first use and checked to cover the thirteen orders."""
    text = resources.files(__package__).joinpath("data/frobenius.txt").read_text()
    fields = parse_rules(text)
    if {(g, f) for _, _, g, f in fields} != set(ORDER_PARAMS):
        raise ValueError("packaged Frobenius rules do not cover the thirteen orders")
    return fields


@functools.cache
def _packaged_rule(model: Model) -> FrobeniusRule | None:
    fields = _packaged_fields().get(model)
    return None if fields is None else FrobeniusRule(model, *fields)


def rule_for(curve) -> FrobeniusRule | None:
    """The packaged rule for the curve's model (A, B, g, f), if there is one.

    Only that model's rule is built, tables and all, on first use: a scan of
    one curve builds one rule, not thirteen."""
    od = curve.order
    return _packaged_rule((curve.A, curve.B, od.g, od.f))
