import math
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right

import pytest

from cmfactors import primesieve
from cmfactors.primesieve import (
    TRIAL_LIMIT,
    divisors,
    euler_phi,
    factorize,
    primes_array,
    primes_upto,
)


def _reference_sieve(limit):
    """Independent plain sieve used as the oracle in this file."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


def test_primes_upto_examples():
    assert list(primes_upto(10)) == [2, 3, 5, 7]
    assert list(primes_upto(2)) == [2]
    with pytest.raises(ValueError):
        list(primes_upto(1))


def test_prime_count_to_one_million():
    assert len(primes_array(10**6)) == 78498


def test_segment_boundaries_invisible():
    # The sieve is cut at sqrt(x): primes below it strike the window above it.
    # No prefix [2, x] may show that cut.
    rng = random.Random(99)
    for _ in range(10):
        x = rng.randint(10, 10**6)
        assert primes_array(x).tolist() == _reference_sieve(x), x


def test_prime_range_window():
    # Emitted primes are exactly the primes in [lo, hi].
    full = _reference_sieve(5000)
    assert primes_array(5000, lo=1000).tolist() == [p for p in full if p >= 1000]


def test_primes_array_window():
    full = _reference_sieve(10**6)
    rng = random.Random(5)
    windows = [(lo, hi) for hi in range(2, 80) for lo in range(2, hi + 1)]
    for _ in range(300):
        # Whole prefixes, scan-range-sized windows, even and odd lo, lo = hi.
        hi = rng.randint(3, 10**6)
        short = max(2, hi - rng.randint(0, 1 << 16))
        windows += [(lo, hi) for lo in (2, 3, short, short - short % 2, hi)]
    windows += [(10**6, 10**6), (999_983, 999_983)]
    for lo, hi in windows:
        got = primes_array(hi, lo=lo)
        assert got.dtype == "int64"
        assert got.tolist() == full[bisect_left(full, lo) : bisect_right(full, hi)], (lo, hi)
    # A range with no prime gives an empty array, not an error.
    assert primes_array(93, lo=90).tolist() == []
    assert primes_array(2, lo=2).tolist() == [2]
    for lo, hi in ((1, 10), (11, 10), (2, 1)):
        with pytest.raises(ValueError):
            primes_array(hi, lo=lo)


_BASE = _reference_sieve(10**6)


def _reference_window(lo, hi):
    """The primes in [lo, hi], for hi <= 10^12, by a plain sieve of the
    window with the reference primes up to sqrt(hi)."""
    flags = bytearray([1]) * (hi - lo + 1)
    for p in _BASE[: bisect_right(_BASE, math.isqrt(hi))]:
        start = max(p * p, (lo + p - 1) // p * p)
        flags[start - lo :: p] = bytes(len(range(start - lo, hi - lo + 1, p)))
    return [lo + i for i, f in enumerate(flags) if f and lo + i >= 2]


def _windows(rng):
    """Random windows up to 10^12, lo = hi included, some wider than a segment."""
    windows = []
    for _ in range(60):
        hi = int(10 ** rng.uniform(1, 12))
        width = rng.choice((1, rng.randint(1, 200), rng.randint(1, 1 << 16),
                            rng.randint(1, 1 << 19)))
        windows.append((max(2, hi - width + 1), hi))
    # Windows narrower than most of their base primes, each of which strikes
    # such a window at most once.
    windows += [(hi - w, hi) for hi in (10**12, 999_999_999_989, 10**11 + 3)
                for w in (0, 5, 120, 3000)]
    return windows


def test_primes_array_matches_a_plain_sieve():
    rng = random.Random(2024)
    for lo, hi in _windows(rng):
        assert primes_array(hi, lo=lo).tolist() == _reference_window(lo, hi), (lo, hi)
    assert primes_array(93, lo=90).tolist() == []
    full = _reference_sieve(3000)
    for x in range(2, 3000):
        assert primes_array(x).tolist() == full[: bisect_right(full, x)], x
        if x >= 3:
            assert primes_array(x, lo=3).tolist() == full[1 : bisect_right(full, x)], x


def test_primes_array_segments_are_invisible(monkeypatch):
    # Segments of a few slots: each starts at a new odd number and strikes
    # with its own base primes.
    rng = random.Random(7)
    monkeypatch.setattr(primesieve, "SEGMENT", 7)
    for _ in range(40):
        hi = int(10 ** rng.uniform(1, 9))
        lo = max(2, hi - rng.randint(0, 3000))
        assert primes_array(hi, lo=lo).tolist() == _reference_window(lo, hi), (lo, hi)


@pytest.mark.parametrize("roots", [(10, 5000), (5000, 10), (3, 130, 129, 4096)])
def test_base_prime_cache_fills_in_either_order(roots):
    primesieve._odd_primes_upto.cache_clear()
    odd = _reference_sieve(max(roots))[1:]
    for root in roots:
        assert primesieve._odd_base_primes(root).tolist() == odd[: bisect_right(odd, root)]
        hi = root * root + 2 * root
        lo = max(2, hi - 500)
        assert primes_array(hi, lo=lo).tolist() == _reference_window(lo, hi)
    # One table is held, the odd primes up to the power of two at or above
    # the last root; a root below 3 builds nothing.
    info = primesieve._odd_primes_upto.cache_info
    top = 1 << (roots[-1] - 1).bit_length()
    base, misses = primesieve._odd_primes_upto(top), info().misses
    assert info().currsize == 1 and not base.flags.writeable
    assert base.tolist() == _reference_sieve(top)[1:]
    assert primesieve._odd_base_primes(2).tolist() == [] and info().misses == misses


def test_base_prime_cache_builds_each_power_once_on_a_walk_up(monkeypatch):
    # Windows whose root climbs from 3 to 2^12 one by one, as a scan's ranges do.
    primesieve._odd_primes_upto.cache_clear()
    built, sieve = [], primesieve.primes_array
    monkeypatch.setattr(primesieve, "primes_array",
                        lambda x, lo=2: (lo == 3 and built.append(x)) or sieve(x, lo))
    for root in range(3, (1 << 12) + 1):
        lo, hi = max(2, root * root - 300), root * root + 2 * root
        primes = sieve(hi, lo)
        if root % 97 == 0:
            assert primes.tolist() == _reference_window(lo, hi), root
    # Each power of two is built once as the root reaches it.  A regrow to
    # 2^k also builds the tables of its own sieve's roots, 2^ceil(k/2) and
    # below, which the previous regrow evicted.
    outer = [1 << k for k in range(2, 13)]
    assert [t for t in built if t > 64] == outer[5:]
    assert set(built) == set(outer) and len(built) <= 3 * len(outer)
    assert primesieve._odd_primes_upto.cache_info().misses == len(built)


def test_base_prime_cache_is_empty_at_import():
    code = ("from cmfactors import cli, primesieve, stats; "
            "assert primesieve._odd_primes_upto.cache_info().currsize == 0")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert euler_phi(30) == 8


def test_arith_function_examples():
    squarefree = lambda n: all(e == 1 for _, e in factorize(n))
    assert euler_phi(1) == 1
    assert squarefree(1)
    assert divisors(1) == [1]
    assert len(divisors(36)) == 9
    assert not squarefree(12)
    assert squarefree(30)


def test_phi_divisor_sum_identity():
    for m in range(1, 10**4 + 1):
        assert sum(euler_phi(d) for d in divisors(m)) == m


def test_factorize_against_reconstruction(rng):
    for _ in range(500):
        n = rng.randint(1, 10**5)
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_table_bound_error():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorize(n)
    with pytest.raises(ValueError):
        euler_phi(0)
    # A cofactor above TRIAL_LIMIT^2 with no prime factor up to TRIAL_LIMIT.
    q = 1000003  # the least prime above 10^6
    assert 999983 < TRIAL_LIMIT < q
    with pytest.raises(ValueError):
        factorize(q * q)
    with pytest.raises(ValueError):
        factorize(12 * q * q)
    assert factorize(12 * q) == [(2, 2), (3, 1), (q, 1)]
    assert factorize(999983 * 999983) == [(999983, 2)]  # largest prime below 10^6
