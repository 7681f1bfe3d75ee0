"""The `cli` workload: fresh `python -m abyss.cli` processes, one at a time.

The invocations are the README's examples plus one `eval`, covering all 17
subcommands.  Every call pays interpreter start, importing abyss.cli,
argparse and serialize.dumps; `selftest` and `demo-abyss` carry the kernel.
A pass holds 112 ops, enough for ten samples beyond the 90th percentile:
the 14 light invocations (about 0.2 s each) seven times, `rm-code` and
`realiser` (about 0.8 s each) six times, so that the 90th percentile falls
among them and not in the spiky tail of process start-up, and `demo-abyss`
and `selftest` once.  Each invocation's stdout must hash to its golden
sha256 and its exit code match.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from core import Op, raised

ROOT = Path(__file__).resolve().parent.parent

INVOCATIONS = [
    "sup --fn thomae --interval 1/4 3/4 --k 10",
    "inf --fn penny --interval 0 1 --k 8",
    "osc --fn thomae --x 1/2 --k 8",
    "continuity --fn penny --x member:0",
    "modulus --fn thomae --kind continuity --probe member:0 --k 3",
    "point-of-continuity --fn thomae --k 8",
    "point-of-continuity --fn penny --method usco --k 8",
    "cousin --fn const:1/8",
    "limits --fn step:1/2 --x 1/2",
    "jumps --fn cover-psi-usco --limit 4",
    "variation --fn step:1/2 --x 1 --k 8",
    "jordan --fn step:1/2 --depth 3",
    "rm-code --open 1/4,3/4",
    "separator --c0 points:0 --c1 points:1",
    "realiser --family sup --k 16",
    "demo-abyss --family penny --depth 20",
    "selftest",
    "eval --fn penny --x member:0",
]
# invocations per pass by subcommand; the rest run LIGHT_REPEAT times
REPEAT = {"rm-code": 6, "realiser": 6, "demo-abyss": 1, "selftest": 1}
LIGHT_REPEAT = 7
SUBCOMMANDS = sorted({inv.split()[0] for inv in INVOCATIONS})
CHILD_TIMEOUT_S = 45


def child_env():
    env = dict(os.environ)
    env.pop("ABYSS_FUEL", None)  # the golden bytes are for the default fuel
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_command(invocation, profile_to=None):
    prefix = [sys.executable]
    if profile_to is not None:
        prefix += ["-m", "cProfile", "-o", str(profile_to)]
    return prefix + ["-m", "abyss.cli"] + invocation.split()


def invoke(invocation, profile_to=None):
    """(exit code, stdout bytes) of one fresh CLI process."""
    done = subprocess.run(cli_command(invocation, profile_to), cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def golden_check(want):
    def check(res):
        bad = raised(res)
        if bad:
            return bad
        code, out = res
        if code != want["exit"]:
            return "exit code %d, golden %d" % (code, want["exit"])
        got = digest(out)
        return None if got == want["sha256"] else \
            "stdout sha256 %s, golden %s" % (got[:16], want["sha256"][:16])
    return check


def import_seconds():
    """Seconds a fresh interpreter spends importing abyss.cli."""
    code = ("import time; t = time.perf_counter(); import abyss.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout)


class Workload:
    name = "cli"
    op_cap_s = CHILD_TIMEOUT_S + 5.0
    passes = 1  # timed passes per run
    check_only_ops = []

    def __init__(self, seed: int, golden: dict):
        self.rng = random.Random("cli:%d" % seed)
        self.golden = golden["cli"]
        missing = [inv for inv in INVOCATIONS if inv not in self.golden]
        if missing:
            raise KeyError("no golden bytes for %s" % missing)
        self.warmup_ops = [self.op("eval --fn penny --x member:0")]

    def op(self, invocation, profile_to=None):
        return Op(invocation.split()[0], invocation,
                  lambda: invoke(invocation, profile_to),
                  golden_check(self.golden[invocation]))

    def next_pass(self):
        ops = [self.op(inv) for inv in INVOCATIONS
               for _ in range(REPEAT.get(inv.split()[0], LIGHT_REPEAT))]
        self.rng.shuffle(ops)
        return ops

    def trace_ops(self):
        return [self.op(inv) for inv in INVOCATIONS]
