"""Primes and integer factorisation: the package's one source of each.

`PrimeRange(lo, hi).segments()` is a segmented sieve of Eratosthenes
(odd-only numpy segments sized to stay cache-resident); `primes_array` and
`primes_upto` concatenate its segments.  `factorize` is trial division,
exact for every integer the package meets (group orders, element norms,
divisors of d_p, model discriminants); `euler_phi` and `divisors` are built
on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT_SIZE = 1 << 18

# factorize gives up on a cofactor above TRIAL_LIMIT^2 with no prime factor
# up to TRIAL_LIMIT.
TRIAL_LIMIT = 10**6


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve (the base primes of a segment)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


@dataclass(frozen=True)
class PrimeRange:
    """The primes in [lo, hi], both ends included."""

    lo: int
    hi: int
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self):
        if not (2 <= self.lo <= self.hi):
            raise ValueError("need 2 <= lo <= hi")
        if self.segment_size < 8:
            raise ValueError("segment_size too small")

    def segments(self):
        """Numpy arrays of primes, one per sieve segment, in increasing order."""
        lo, hi = self.lo, self.hi
        base = _simple_sieve(math.isqrt(hi))
        if lo <= 2 <= hi:
            yield np.array([2], dtype=np.int64)
        # Odd-only segments: each mask slot i represents the odd number low + 2i.
        low = max(lo, 3)
        if low % 2 == 0:
            low += 1
        span = 2 * self.segment_size
        odd_base = base[1:] if len(base) and base[0] == 2 else base
        while low <= hi:
            high = min(low + span, hi + 1)  # exclusive
            count = (high - low + 1) // 2
            mask = np.ones(count, dtype=bool)
            for p in odd_base.tolist():
                p2 = p * p
                if p2 >= high:
                    break
                start = max(p2, ((low + p - 1) // p) * p)
                if start % 2 == 0:
                    start += p
                if start < high:
                    mask[(start - low) // 2 :: p] = False
            seg = low + 2 * np.flatnonzero(mask).astype(np.int64)
            if len(seg):
                yield seg
            low = high if high % 2 == 1 else high + 1


def primes_array(x: int, lo: int = 2) -> np.ndarray:
    """The primes in [lo, x] as one int64 array (empty if there are none)."""
    if x < 2:
        raise ValueError("x must be at least 2")
    return np.concatenate([np.empty(0, dtype=np.int64), *PrimeRange(lo, x).segments()])


def primes_upto(x: int) -> list[int]:
    """The primes <= x, in increasing order."""
    return primes_array(x).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, primes increasing.

    Trial division by 2 and then by odd d.  Raises ValueError for n < 1 and
    for a cofactor above TRIAL_LIMIT^2 with no prime factor up to TRIAL_LIMIT.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_LIMIT:
            raise ValueError(
                f"cannot factor: cofactor {n} has no prime factor up to {TRIAL_LIMIT}"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, unsorted."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return divs
