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

pytest_plugins = ["pytester"]

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


# set on a test item once its `deadline` fixture is set up, however the
# test asked for it (by name or through `request.getfixturevalue`)
DEADLINE_SET_UP = pytest.StashKey[bool]()


@pytest.fixture
def deadline(request):
    """`deadline(seconds)` fails the test once it has used that much CPU
    time, so an unbounded search fails quickly instead of stalling the
    suite, and a stall of the host (another process on the CPU) fails
    nothing.  Built on `ITIMER_PROF` and SIGPROF (main thread, POSIX), which
    count the process's own user and system time; the timer is cleared when
    the test body ends (`pytest_runtest_call`), before pytest reports a
    failure, and the handler is restored at teardown."""

    def on_alarm(signum, frame):
        pytest.fail("test ran past its %s s deadline" % armed[0])

    armed = []
    old = signal.signal(signal.SIGPROF, on_alarm)
    request.node.stash[DEADLINE_SET_UP] = True

    def arm(seconds):
        armed[:] = [seconds]
        signal.setitimer(signal.ITIMER_PROF, seconds)

    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """A `deadline` times the test body alone: an alarm that fired while
    pytest formats the failure would replace the report with its own."""
    yield
    if item.stash.get(DEADLINE_SET_UP, False):
        signal.setitimer(signal.ITIMER_PROF, 0)


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
