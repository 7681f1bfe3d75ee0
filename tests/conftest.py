"""Shared fixtures and profiler counters.  The instances the tests share
live in `catalogue.py`, the plain computations they check against in
`references.py`."""

from __future__ import annotations

import cProfile
import fractions
import os
import pstats
import signal
from pathlib import Path

import pytest

from abyss import universe

# the CLI and demo subprocesses find the package where pytest's `pythonpath`
# setting finds it, so the suite runs in a checkout without an install
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def no_open_query_scope():
    """No query scope is open before or after a test, so a scope left open
    fails the test that left it (and is closed for the tests after it)."""
    assert universe._SCOPE.get() is None, "a query scope is open before the test"
    yield
    if universe._SCOPE.get() is not None:
        universe._SCOPE.set(None)
        pytest.fail("the test left a query scope open")


@pytest.fixture
def deadline():
    """`deadline(seconds)` fails the test once it has run that long, so an
    unbounded search fails quickly instead of stalling the suite.  Built on
    SIGALRM (main thread, POSIX); the timer is cleared at teardown."""

    def on_alarm(signum, frame):
        pytest.fail("test ran past its %s s deadline" % armed[0])

    armed = []
    old = signal.signal(signal.SIGALRM, on_alarm)

    def arm(seconds):
        armed[:] = [seconds]
        signal.setitimer(signal.ITIMER_REAL, seconds)

    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def calls_to(fn, filename: str, name: str) -> int:
    """How often fn() calls the function `name` defined in `filename`,
    counted by the profiler."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(nc for (file, _, func), (_, nc, *_) in pstats.Stats(prof).stats.items()
               if file == filename and func == name)


def fraction_news(fn) -> int:
    """How often fn() calls Fraction.__new__, counted by the profiler."""
    return calls_to(fn, fractions.__file__, "__new__")
