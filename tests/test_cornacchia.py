import math
import random
from collections import Counter

import pytest

from cmfactors import cornacchia, frobenius
from cmfactors.cornacchia import (
    NoRoot,
    _canonicalize,
    solve_norm,
    sqrt_mod,
)
from cmfactors.eccurve import custom_curve, get_curve
from cmfactors.frobenius import dp_ep
from cmfactors.primesieve import primes_array
from cmfactors.quadorder import (
    QuadInt,
    all_orders,
    conj,
    kronecker,
    maximal_orders,
    norm,
    order,
    units,
)

O1 = order(-1)
O3 = order(-3)


def test_splitting_examples():
    # Split, inert and ramified in Z[i].
    assert kronecker(O1.delta, 5) == 1
    assert kronecker(O1.delta, 7) == -1
    assert kronecker(O1.delta, 2) == 0


def test_sqrt_mod_examples():
    assert sqrt_mod(4, 7) == 2
    assert sqrt_mod(-1 % 13, 13) == 5
    with pytest.raises(NoRoot):
        sqrt_mod(3, 7)  # Euler: 3^3 = -1 mod 7
    assert sqrt_mod(0, 13) == 0


def test_sqrt_mod_random_roots():
    rng = random.Random(7)
    primes = [p for p in primes_array(5000).tolist() if p > 2]
    for _ in range(10**4):
        p = rng.choice(primes)
        a = rng.randrange(p)
        sq = a * a % p
        r = sqrt_mod(sq, p)
        assert r * r % p == sq
        assert r <= p - r


def test_solve_norm_examples():
    s = solve_norm(13, O1)
    assert (s.a, s.b) == (3, 2)
    assert norm(s) == 13
    s = solve_norm(7, O3)
    assert norm(s) == 7
    # The canonical pick is an associate of 1 + 2w.
    target = QuadInt(1, 2, O3)
    orbit = {(x.a, x.b) for u in units(O3) for x in (u * target, u * conj(target))}
    assert (s.a, s.b) in orbit
    assert solve_norm(7, O1) is None


def test_solve_norm_deterministic():
    for od in all_orders():
        assert solve_norm(101, od) == solve_norm(101, od)


def test_solve_norm_small_split_primes():
    # 2 splits only in Q(sqrt(-7)) among the nine fields.
    assert len(maximal_orders()) == 9
    for od in maximal_orders():
        s = solve_norm(2, od)
        if od.g == -7:
            assert kronecker(od.delta, 2) == 1
            assert norm(s) == 2
        else:
            assert kronecker(od.delta, 2) != 1
            assert s is None, od
    s = solve_norm(3, order(-11))
    assert norm(s) == 3


def test_solve_norm_conductor_preconditions():
    with pytest.raises(ValueError):
        solve_norm(2, order(-1, 2))
    with pytest.raises(ValueError):
        solve_norm(3, order(-3, 3))


def test_solve_norm_all_split_primes_to_1e5():
    # Norm correctness and Absent-iff-nonsplit over every supported order.
    primes = primes_array(10**5).tolist()
    for od in all_orders():
        for p in primes:
            if od.f > 1 and p <= 3:
                continue
            result = solve_norm(p, od)
            if kronecker(od.delta, p) == 1:
                assert result is not None, (od, p)
                assert norm(result) == p, (od, p)
                assert result.order == od
            else:
                assert result is None, (od, p)


def _norm_p_points(p, od):
    """Every (a, b) with Nm(a + b*beta) = p, walking the rows of 4*Nm = u^2 + |D| b^2."""
    t, d = od.beta_trace, -od.disc
    points = []
    bmax = math.isqrt(4 * p // d)
    for b in range(-bmax, bmax + 1):
        rest = 4 * p - d * b * b
        s = math.isqrt(rest)
        if s * s != rest:
            continue
        for u in {s, -s}:
            if (u - b * t) % 2 == 0:
                points.append(((u - b * t) // 2, b))
    assert all(norm(QuadInt(a, b, od)) == p for a, b in points)
    return points


def test_solve_norm_is_the_canonical_lattice_point():
    # solve_norm is the largest norm-p point under _canonicalize's key, and
    # None exactly when p is ramified in the order or no such point exists.
    for od in all_orders():
        for p in primes_array(3000).tolist():
            if od.f > 1 and (p % od.f == 0 or p <= 3):
                continue
            result = solve_norm(p, od)
            points = _norm_p_points(p, od)
            if od.disc % p == 0 or not points:
                assert result is None, (od, p)
                continue
            best = max(points, key=lambda z: (z[0] > 0 and z[1] > 0, z[0], z[1]))
            assert (result.a, result.b) == best, (od, p)


def test_scan_tests_splitting_once_per_prime(monkeypatch):
    # The scalar path: dp_ep decides splitting by solve_norm's square root
    # alone, with no Kronecker symbol before it.  The twist x^3 - 4x has no
    # residue rule, and its point sampling reuses that element.
    calls = []

    def counting_kronecker(delta, n):
        calls.append(n)
        return kronecker(delta, n)

    def counting_sqrt_mod(a, p):
        calls.append(p)
        return sqrt_mod(a, p)

    monkeypatch.setattr(frobenius, "kronecker", counting_kronecker)
    monkeypatch.setattr(cornacchia, "sqrt_mod", counting_sqrt_mod)
    curve = get_curve("D4")
    primes = primes_array(10**5).tolist()
    kinds = Counter(dp_ep(p, curve).kind for p in primes)
    assert sum(kinds.values()) == 9592 and kinds["ord"] == 4783
    assert max(Counter(calls).values()) == 1
    assert len(calls) == len(primes) - 2  # every p > 3; 2 is bad, 3 small
    calls.clear()
    twist = custom_curve(-4, 0, -1, 1)
    primes = primes_array(10**4).tolist()
    kinds = Counter(dp_ep(p, twist).kind for p in primes)
    assert twist.bad_primes == {2} and kinds["ord"] == 609
    assert max(Counter(calls).values()) == 1
    assert len(calls) == len(primes) - 2


def test_canonicalize_matches_quadint_reference():
    # Reference: the orbit built with QuadInt unit and conjugate products.
    rng = random.Random(23)
    for od in all_orders():
        for _ in range(300):
            x = QuadInt(rng.randint(-400, 400), rng.randint(-400, 400), od)
            if x.a == x.b == 0:
                continue
            orbit = [u * y for y in (x, conj(x)) for u in units(od)]
            best = max(orbit, key=lambda z: (z.a > 0 and z.b > 0, z.a, z.b))
            assert _canonicalize(x.a, x.b, od) == (best.a, best.b), (od, x)
