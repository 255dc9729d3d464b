"""Exact arithmetic in the class-number-one imaginary quadratic orders.

There are nine imaginary quadratic fields Q(sqrt(g)) of class number one and
thirteen class-number-one orders inside them (conductors 1, 2 or 3).  This
module implements elements of those orders in the integral basis {1, beta}
with beta = f*omega, together with norm, trace, conjugation, content,
the Kronecker symbol, its table mod each field discriminant and the
quadratic residues mod a prime, the unit-group tables, and the two counting
formulas

    Phi(mu) = #(O_K / mu O_K)^x         (Euler product over primes P | mu)
    r(m)    = w * sum_{e | m} (Delta/e)  (lattice points of norm m)

phi_element is Phi's one closed form; phi_ideal(d) is its case mu = d.
Everything here is pure.  `order`, `units`, `squares` and `kronecker_table`
are cached, so each order and table is built once per process.  The
acceptance tests check rep_count against a count over the whole lattice
disk (criterion 7).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .primesieve import factorize

# The nine class-number-one field parameters g (squarefree, negative).
FIELD_PARAMS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

# The thirteen class-number-one orders as (g, conductor) pairs.
ORDER_PARAMS = (
    (-1, 1), (-1, 2),
    (-2, 1),
    (-3, 1), (-3, 2), (-3, 3),
    (-7, 1), (-7, 2),
    (-11, 1),
    (-19, 1),
    (-43, 1),
    (-67, 1),
    (-163, 1),
)

# qi_mul coefficient contract: results must stay below 2^63 in magnitude.
COEFF_LIMIT = 1 << 63


@dataclass(frozen=True)
class OrderDesc:
    """An imaginary quadratic order of class number one.

    Attributes:
        g: field parameter (squarefree negative integer).
        f: conductor (1, 2 or 3).
        delta: discriminant of the field K = Q(sqrt(g)).
        disc: discriminant of the order itself, f^2 * delta.
        w: number of roots of unity in K.
        beta_trace, beta_norm: trace and norm of the basis element
            beta = f*omega, so that beta^2 = beta_trace*beta - beta_norm.
    """

    g: int
    f: int = 1
    delta: int = field(init=False, repr=False, compare=False)
    disc: int = field(init=False, repr=False, compare=False)
    w: int = field(init=False, repr=False, compare=False)
    beta_trace: int = field(init=False, repr=False, compare=False)
    beta_norm: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, f = self.g, self.f
        if (g, f) not in _ORDER_SET:
            raise ValueError(f"(g={g}, f={f}) is not a class-number-one order")
        delta = g if g % 4 == 1 else 4 * g
        # omega = (1 + sqrt(g))/2, of trace 1 and norm (1-g)/4, if g = 1 mod 4; else sqrt(g).
        beta_trace, beta_norm = (f, f * f * (1 - g) // 4) if g % 4 == 1 else (0, f * f * (-g))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "disc", f * f * delta)
        object.__setattr__(self, "w", {(-1, 1): 4, (-3, 1): 6}.get((g, f), 2))
        object.__setattr__(self, "beta_trace", beta_trace)
        object.__setattr__(self, "beta_norm", beta_norm)

    def is_maximal(self) -> bool:
        return self.f == 1


_ORDER_SET = frozenset(ORDER_PARAMS)


@functools.cache
def order(g: int, f: int = 1) -> OrderDesc:
    """Cached accessor for the thirteen supported orders."""
    return OrderDesc(g, f)


def all_orders() -> list[OrderDesc]:
    return [order(g, f) for g, f in ORDER_PARAMS]


def maximal_orders() -> list[OrderDesc]:
    return [order(g, 1) for g in FIELD_PARAMS]


@dataclass(frozen=True, slots=True)
class QuadInt:
    """Element a + b*beta of an order, in the integral basis {1, beta}."""

    a: int
    b: int
    order: OrderDesc

    def __repr__(self):
        return f"QuadInt({self.a}, {self.b}, g={self.order.g}, f={self.order.f})"

    def _coerce(self, other) -> "QuadInt":
        if isinstance(other, QuadInt):
            if other.order != self.order:
                raise ValueError("mixed orders in arithmetic")
            return other
        if isinstance(other, int):
            return QuadInt(other, 0, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadInt(self.a + o.a, self.b + o.b, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadInt(self.a - o.a, self.b - o.b, self.order)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadInt(o.a - self.a, o.b - self.b, self.order)

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return qi_mul(self, o)

    __rmul__ = __mul__


def qi_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    """Product in the common order; beta^2 expands via beta's minimal polynomial."""
    if x.order != y.order:
        raise ValueError("mixed orders in qi_mul")
    od = x.order
    bd = x.b * y.b
    a = x.a * y.a - bd * od.beta_norm
    b = x.a * y.b + x.b * y.a + bd * od.beta_trace
    if not (-COEFF_LIMIT < a < COEFF_LIMIT and -COEFF_LIMIT < b < COEFF_LIMIT):
        raise OverflowError("qi_mul result exceeds the 64-bit coefficient range")
    return QuadInt(a, b, od)


def norm(x: QuadInt) -> int:
    od = x.order
    return x.a * x.a + x.a * x.b * od.beta_trace + x.b * x.b * od.beta_norm


def trace(x: QuadInt) -> int:
    return 2 * x.a + x.b * x.order.beta_trace


def conj(x: QuadInt) -> QuadInt:
    return QuadInt(x.a + x.b * x.order.beta_trace, -x.b, x.order)


def content(x: QuadInt) -> int:
    """Largest rational integer d with x in d*O; gcd of the basis coordinates."""
    if x.a == 0 and x.b == 0:
        raise ValueError("content of zero is undefined")
    return math.gcd(abs(x.a), abs(x.b))


_VALID_DELTAS = frozenset(g if g % 4 == 1 else 4 * g for g in FIELD_PARAMS)


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta/n) for the nine supported field discriminants."""
    if delta not in _VALID_DELTAS:
        raise ValueError(f"{delta} is not a supported field discriminant")
    if n < 1:
        raise ValueError("n must be positive")
    return _kronecker(delta, n)


@functools.cache
def kronecker_table(delta: int) -> np.ndarray:
    """(delta/r) for 0 <= r < |delta|, as a read-only int64 array, for the
    nine supported field discriminants.

    n -> (delta/n) is a primitive character mod |delta| for a fundamental
    discriminant, so (delta/n) = table[n % |delta|] for every n >= 1.
    """
    m = -delta
    table = np.array([kronecker(delta, r or m) for r in range(m)], dtype=np.int64)
    table.flags.writeable = False
    return table


@functools.cache
def squares(q: int) -> np.ndarray:
    """Whether each residue mod the odd prime q is a nonzero square."""
    table = np.zeros(q, dtype=bool)
    x = np.arange(1, q // 2 + 1, dtype=np.int64)
    x *= x
    x %= q
    table[x] = True
    return table


def _kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for any integer a and n >= 1; the Jacobi symbol for odd n."""
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def phi_ideal(d: int, order: OrderDesc) -> int:
    """Phi(d) = #(O_K/dO_K)^x = d^2 prod_{l|d} (1 - 1/l)(1 - (Delta/l)/l)."""
    if d < 1:
        raise ValueError("d must be positive")
    return phi_element(QuadInt(d, 0, order))


def rep_count(m: int, order: OrderDesc) -> int:
    """r(m) = w * sum_{e|m} (Delta/e): lattice points (X, Y) with Nm(X+Y*omega) = m."""
    if not order.is_maximal():
        raise ValueError("rep_count uses the field discriminant; maximal orders only")
    if m < 1:
        raise ValueError("m must be positive")
    total = 1
    for p, e in factorize(m):
        chi = kronecker(order.delta, p)
        if chi == 1:
            total *= e + 1
        elif chi == -1:
            if e % 2 == 1:
                return 0
        # chi == 0 contributes the single j=0 term, factor 1
    return order.w * total


@functools.cache
def units(order: OrderDesc) -> tuple[QuadInt, ...]:
    """The w roots of unity of the order, closed under negation; built once per order."""
    return tuple(QuadInt(a, b, order) for a, b in unit_orbit(1, 0, order))


def unit_orbit(a: int, b: int, order: OrderDesc) -> list[tuple[int, int]]:
    """Coordinates of the w unit multiples of a + b*beta, in the order of units().

    For w = 4 and w = 6 the basis element beta (i, resp. omega) generates the
    unit group, so the orbit is x, beta*x, beta^2*x, ... on plain ints.
    """
    if order.w == 2:
        return [(a, b), (-a, -b)]
    t = order.beta_trace
    out = [(a, b)]
    for _ in range(order.w - 1):
        a, b = -b, a + b * t
        out.append((a, b))
    return out
