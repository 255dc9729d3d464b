import random
import signal

import pytest

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
