"""Shared pieces of the benchmark: the op record, the per-op wall-clock cap,
the host-speed reference, running and checking one op, and the summary
statistics.

Host speed.  A shared host can run the same code up to 1.8 times slower for
seconds at a time, when other tenants load the core.  So every op is
bracketed by a reference: a fixed loop of standard-library Fraction
arithmetic, timed right before and right after the op, outside the op's
timer.  An op's normalised latency is its wall time times REFERENCE_S over
the mean of its two reference times: the time it would have taken at the
speed at which the reference loop takes REFERENCE_S.  The reference runs no
abyss code, so a change to abyss moves normalised and wall times alike."""

from __future__ import annotations

import json
import os
import resource
import signal
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median  # noqa: F401  (shared with run.py and layers.py)
from typing import Callable, Optional


@dataclass
class Op:
    """One closed-loop request: `run` builds its instance and makes the call
    (both timed); `check` gets the result, or the exception it raised, and
    returns None when the answer is right, else the reason it is wrong.
    `defect` names the ROADMAP item of a known defect the op reproduces and
    `expect` the start of the failure reason that defect gives; a failure
    with any other reason is unexpected."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    defect: Optional[str] = None
    expect: Optional[str] = None

    def expected(self, reason: str) -> bool:
        return self.defect is not None and reason.startswith(self.expect)


class OpTimeout(BaseException):
    """Raised inside an op that outlived its wall-clock cap.  A BaseException,
    so library code catching Exception cannot swallow it."""


class CheckerError(Exception):
    """A checker itself failed; the run aborts instead of guessing."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# the reference loop's wall time on an idle core of the 2-vCPU host the
# benchmark was tuned on (about the fastest of many samples)
REFERENCE_S = 0.00012


def _fraction_loop(n):
    total = Fraction(0)
    for i in range(1, n):
        total += Fraction(1, i % 97 + 1)
    return total


def reference_s() -> float:
    """Wall time of the fixed reference loop at the host's current speed:
    the faster of two timings, after an untimed start that warms the
    caches a child process or a sleep may have left cold."""
    _fraction_loop(20)
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        _fraction_loop(60)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def normalised(timed):
    """(normalised seconds, wall seconds, result) of `timed()`, which
    returns (wall seconds, result)."""
    before = reference_s()
    wall, result = timed()
    return wall * 2 * REFERENCE_S / (before + reference_s()), wall, result


def resident_mib() -> float:
    """Resident memory of this process now, in MiB; where /proc is missing,
    its peak so far."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(op: Op, cap_s: float, profiler=None):
    """Time one op under a SIGALRM cap; returns (latency_s, result), where
    the result is the exception when the op raised."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = op.run()
        finally:
            if profiler is not None:
                profiler.disable()
    except OpTimeout:
        result = OpTimeout("exceeded the %.0f s per-op cap" % cap_s)
    except Exception as e:  # the op's failure is data for its check
        result = e
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return latency, result


def check_op(op: Op, result) -> Optional[str]:
    """The op's verdict; a crash inside the checker aborts the run."""
    try:
        return op.check(result)
    except Exception as e:
        raise CheckerError("checker for %s [%s] crashed: %r" % (op.kind, op.label, e)) from e


def raised(result) -> Optional[str]:
    """A failure reason when the op raised instead of answering."""
    if isinstance(result, BaseException):
        return "raised %s: %s" % (type(result).__name__, str(result)[:160])
    return None


def percentile(values, q):
    """The q-quantile by the nearest-rank rule (no interpolation)."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


class Tally:
    """Normalised latencies (and their wall times) and the verdicts of the
    ops a run made."""

    def __init__(self):
        self.latencies = []
        self.walls = []
        self.by_kind = defaultdict(list)
        self.kinds = Counter()
        self.failures = Counter()   # (kind, label, known defect or None, reason) -> count
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.rss_mib = 0.0  # the most resident memory seen between two ops
        self.capped = 0     # ops the per-op cap stopped, and their latency
        self.capped_s = 0.0

    def verdict(self, op, reason):
        self.attempted += 1
        self.kinds[op.kind] += 1
        if reason is not None:
            known = op.expected(reason)
            self.failed += 1
            self.unexpected += not known
            self.failures[(op.kind, op.label, op.defect if known else None, reason)] += 1

    def add(self, op, latency, wall, reason):
        self.latencies.append(latency)
        self.walls.append(wall)
        self.by_kind[op.kind].append(latency)
        self.verdict(op, reason)

    def merge(self, other, prefix=""):
        for key, n in other.failures.items():
            self.failures[key] += n
        for kind, n in other.kinds.items():
            self.kinds[prefix + kind] += n
        for kind, lat in other.by_kind.items():
            self.by_kind[prefix + kind].extend(lat)
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected

    def run(self, ops, cap_s, profiler=None):
        for op in ops:
            latency, wall, result = normalised(lambda: run_op(op, cap_s, profiler))
            self.add(op, latency, wall, check_op(op, result))
            if isinstance(result, OpTimeout):
                self.capped += 1
                self.capped_s += latency
            self.rss_mib = max(self.rss_mib, resident_mib())

    def check_only(self, ops, cap_s):
        """Run and check ops whose latency no metric includes."""
        for op in ops:
            _, result = run_op(op, cap_s)
            self.verdict(op, check_op(op, result))


def load_workload(name, seed):
    """Build the workload (imports, inputs, shared caches) and warm it up."""
    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
    if name == "positive-mix":
        import positive
        wl = positive.Workload(seed)
    elif name == "abyss-gap":
        import gap
        wl = gap.Workload(seed, golden)
    else:
        import cliwl
        wl = cliwl.Workload(seed, golden)
    for op in wl.warmup_ops:
        run_op(op, wl.op_cap_s)
    return wl
