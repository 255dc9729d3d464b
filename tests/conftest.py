import random
import signal

import pytest

from cmfactors.eccurve import curve_table, get_curve


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
