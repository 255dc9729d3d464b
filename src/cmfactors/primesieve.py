"""Primes and integer factorisation: the package's one source of each.

`odd_mask(x, lo)` is a windowed sieve of Eratosthenes: one odd-only numpy
mask over [lo, x], struck segment by segment by the odd primes up to
sqrt(x).  The base primes come from a functools cache that holds only the
latest table, the odd primes up to the power of two at or above the root,
built on first need (never at import) by the same sieve.  Each base prime
below SLICE_BELOW strikes one strided slice per segment; all larger ones
strike a segment in one scatter, whose positions `runs` builds, one run per
base prime.  A scan range of stats.CHUNK_SPAN integers is one segment.

The mask is handed over as it is: the scan's sweep looks its lattice
points' norms up in it and clears from it the primes it has classified, so
a range that keeps no records never builds a primes array.
`primes_array(x, lo)` is the mask read out by `mask_primes`, and
`primes_upto` is the window [2, x] as a list.  `factorize` is trial
division, exact for every integer the package meets (group orders, element
norms, divisors of d_p, model discriminants); `euler_phi` and `divisors`
are built on it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

# factorize gives up on a cofactor above TRIAL_LIMIT^2 with no prime factor
# up to TRIAL_LIMIT.
TRIAL_LIMIT = 10**6


# Odd base primes below SLICE_BELOW strike one slice each; the larger ones
# strike in one scatter, where a slice's fixed cost would outweigh its work.
SLICE_BELOW = 1 << 7

# odd_mask strikes its mask this many slots (odd numbers) at a time, so
# a scatter's positions take about a megabyte whatever the window.
SEGMENT = 1 << 17

def _odd_base_primes(root: int) -> np.ndarray:
    """The odd primes <= root, a read-only view of the cached table of the
    power of two at or above root; empty, building nothing, below 3.  The
    root of X_MAX_LIMIT = 2^50, 2^25, holds about 2.1M primes (16 MB)."""
    if root < 3:
        return np.zeros(0, dtype=np.int64)
    base = _odd_primes_upto(1 << (root - 1).bit_length())
    return base[: np.searchsorted(base, root, side="right")]


@functools.lru_cache(maxsize=1)
def _odd_primes_upto(top: int) -> np.ndarray:
    """The odd primes <= top, the latest table only.  A regrow to top <= 2^25
    also rebuilds the two or three tables of at most 2^13 integers its own
    sieve reads, which the last regrow evicted: about 0.1 ms each."""
    base = primes_array(top, lo=3)
    base.flags.writeable = False
    return base


def _strike(mask: np.ndarray, low: int, base: np.ndarray) -> None:
    """Clear the odd multiples q*k >= q^2 of each q in base from mask, whose
    slot i stands for the odd number low + 2i."""
    small = np.searchsorted(base, SLICE_BELOW)
    for q in base[:small].tolist():
        start = max(q * q, (low + q - 1) // q * q)
        if start % 2 == 0:
            start += q
        mask[(start - low) // 2 :: q] = False
    q = base[small:]
    # Per q, the first odd multiple at or past max(q^2, low), as a slot, and
    # the number of its multiples (step 2q, one slot each q) in the mask.
    start = (low + q - 1) // q
    start *= q
    np.maximum(start, q * q, out=start)
    start += q * (1 - (start & 1))
    first = (start - low) >> 1
    counts = np.maximum((len(mask) - first + q - 1) // q, 0)
    mask[runs(first, counts, q)] = False


def runs(first: np.ndarray, counts: np.ndarray, step) -> np.ndarray:
    """first[i] + step * j for j < counts[i], run i after run i - 1, as one
    int64 array; step is one int for every run or an array of one per run."""
    before = np.cumsum(counts) - counts
    x = np.arange(counts.sum(), dtype=np.int64)
    x *= np.repeat(step, counts) if np.ndim(step) else step
    x += np.repeat(first - step * before, counts)
    return x


def odd_mask(x: int, lo: int = 2) -> tuple[int, np.ndarray]:
    """The sieve's window [lo, x] as (low, mask): slot i of the bool mask
    stands for the odd number low + 2i, True exactly when it is prime, and
    low = max(lo, 3) | 1.  The mask is empty exactly when the window holds
    no odd number above 2; the prime 2 has no slot."""
    if x < 2:
        raise ValueError("x must be at least 2")
    if not 2 <= lo <= x:
        raise ValueError("need 2 <= lo <= x")
    low = max(lo, 3) | 1
    mask = np.ones((x - low) // 2 + 1, dtype=bool)
    base = _odd_base_primes(math.isqrt(x))
    for i in range(0, len(mask), SEGMENT):
        seg = mask[i : i + SEGMENT]
        seg_low = low + 2 * i
        top = math.isqrt(seg_low + 2 * (len(seg) - 1))
        _strike(seg, seg_low, base[: np.searchsorted(base, top, side="right")])
    return low, mask


def mask_primes(low: int, mask: np.ndarray, two: bool = False) -> np.ndarray:
    """The odd numbers low + 2i that mask marks, after 2 if two, as one
    increasing int64 array."""
    odd = np.flatnonzero(mask).astype(np.int64, copy=False)
    odd <<= 1
    odd += low
    return np.concatenate((np.array([2], dtype=np.int64), odd)) if two else odd


def primes_array(x: int, lo: int = 2) -> np.ndarray:
    """The primes in [lo, x] as one int64 array (empty if there are none)."""
    return mask_primes(*odd_mask(x, lo), two=lo == 2)


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
