import random
import signal

import numpy as np
import pytest

from cmfactors import stats
from cmfactors.eccurve import curve_table, get_curve
from cmfactors.frobenius import KINDS, PrimeRecord
from cmfactors.stats import scan


@pytest.fixture(scope="session")
def curve_d4():
    return get_curve("j1728-D4")


@pytest.fixture(scope="session")
def all_curves():
    return curve_table()


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture()
def deadline():
    """Fail the test after 60 s instead of letting it hang, say on a pipe
    that a dead worker left open."""
    def expired(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def prime_records(rows):
    """The PrimeRecords of a scan's (n, 8) int64 record rows, row by row."""
    return [PrimeRecord(p, KINDS[k], *rest) for p, k, *rest in rows.tolist()]


def scan_records(curve, x, **kwargs):
    """scan's accumulator and the PrimeRecords it wrote, in increasing p."""
    records = []
    acc = scan(curve, x, records=lambda rows: records.extend(prime_records(rows)), **kwargs)
    return acc, records


def drop_largest(p, a, b):
    """Keep every hit of _split_points but the one of largest p: a sweep
    that misses one split prime per range."""
    return np.arange(len(p)) != p.argmax()


def drop_least_a(p, a, b):
    """Keep every hit of _split_points but, for each b, the one of least a:
    what a umin one too large drops.  For w > 2, where every hit has a > b."""
    order = np.lexsort((a, b))
    first = np.ones(len(p), dtype=bool)
    first[1:] = b[order][1:] != b[order][:-1]
    keep = np.ones(len(p), dtype=bool)
    keep[order[first]] = False
    return keep


def split_points_dropping(drop, above: int):
    """stats._split_points with the hits that drop rules out removed, in every
    range whose odd-only mask starts above `above`."""
    real = stats._split_points

    def split_points(od, low, mask):
        hits = real(od, low, mask)
        return hits if low <= above else tuple(v[drop(*hits)] for v in hits)

    return split_points
