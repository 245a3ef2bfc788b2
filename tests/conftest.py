import signal

import pytest


@pytest.fixture
def time_limit():
    """time_limit(seconds) makes the test raise TimeoutError once that much
    wall time has passed: it bounds tests of calls that used to hang."""

    def timeout(signum, frame):
        raise TimeoutError("time limit reached")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
