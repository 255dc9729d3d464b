"""Primes and integer factorisation: the package's one source of each.

`primes_array(x, lo)` is a windowed sieve of Eratosthenes: one odd-only
numpy mask over [lo, x], struck by the odd primes up to sqrt(x), which the
same sieve lists on the window [2, sqrt(x)].  A scan range of
stats.CHUNK_SPAN integers is one such window; `primes_upto` is the window
[2, x] as a list.  `factorize` is trial division, exact for every integer
the package meets (group orders, element norms, divisors of d_p, model
discriminants); `euler_phi` and `divisors` are built on it.
"""
from __future__ import annotations

import math

import numpy as np

# factorize gives up on a cofactor above TRIAL_LIMIT^2 with no prime factor
# up to TRIAL_LIMIT.
TRIAL_LIMIT = 10**6


def primes_array(x: int, lo: int = 2) -> np.ndarray:
    """The primes in [lo, x] as one int64 array (empty if there are none)."""
    if x < 2:
        raise ValueError("x must be at least 2")
    if not 2 <= lo <= x:
        raise ValueError("need 2 <= lo <= x")
    # Mask slot i stands for the odd number low + 2i; low <= x + 1, so the
    # mask is empty exactly when the window holds no odd number above 2.
    low = max(lo, 3) | 1
    mask = np.ones((x - low) // 2 + 1, dtype=bool)
    root = math.isqrt(x)
    for q in (primes_array(root)[1:].tolist() if root >= 2 else ()):
        start = max(q * q, (low + q - 1) // q * q)
        if start % 2 == 0:
            start += q
        mask[(start - low) // 2 :: q] = False
    odd = low + 2 * np.flatnonzero(mask).astype(np.int64)
    return np.concatenate((np.array([2], dtype=np.int64), odd)) if lo == 2 else odd


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
