"""abyss benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload positive-mix --seed 1 --trace 0
    python3 perfbench/run.py                       # every workload, then a traced run

Workloads: `positive-mix` (positive algorithms on fresh seeded instances),
`abyss-gap` (adversarial scans over shared seed sets) and `cli` (fresh
`python -m abyss.cli` processes).  An untraced run (--trace 0) times a fixed
number of passes of seeded ops, checks every answer outside the timed
region, and prints the end-to-end metrics.  Times are normalised for the
host's speed (see core.py).  A traced run (--trace 1) profiles a fixed op
list of every workload, whatever --workload names, with cProfile and prints
the per-layer metrics (see layers.py).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

The run length is fixed: each workload's pass count is sized so that a run
measures about `run_seconds` of BENCHMARK.json.  --seconds is accepted only
with that value.

Failures on ops that reproduce a known defect (tagged with its ROADMAP
item and the failure it gives) count in `failed` but leave `correct` true;
any other failure makes it false.  A crash inside a checker aborts the run
with exit code 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("positive-mix", "abyss-gap", "cli")
SETUP_SAMPLES = 5
WALL_LIMIT_S = 100  # start no pass after this, so that a run ends within 180 s
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ok_frac": "ratio", "peak_rss_mib": "MiB"}


def setup_seconds(name, seed):
    """Median normalised wall time of fresh processes that start, set up and
    exit."""
    from core import median, normalised

    def one():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0, None
    return median(normalised(one)[0] for _ in range(SETUP_SAMPLES))


def timed_run(name, seed):
    from core import Tally, load_workload, median, percentile
    setup_s = setup_seconds(name, seed)
    wl = load_workload(name, seed)
    tally = Tally()
    t0 = time.perf_counter()
    for done in range(wl.passes):
        if time.perf_counter() - t0 >= WALL_LIMIT_S:
            print("stopped after %d of %d passes: wall limit %d s" % (done, wl.passes,
                                                                     WALL_LIMIT_S))
            break
        tally.run(wl.next_pass(), wl.op_cap_s)
    tally.check_only(wl.check_only_ops, wl.op_cap_s)
    lat, wall = tally.latencies, tally.walls
    print("wall (not normalised): ops_per_s %.4f op_p50_ms %.4f op_p90_ms %.4f over %.1f s; "
          "%d ops capped" % (len(wall) / sum(wall), 1000 * median(wall),
                             1000 * percentile(wall, 90), sum(wall), tally.capped))
    metrics = {
        "setup_s": setup_s,
        # ops that ran to an end: an op the cap stops counts in ok_frac, and
        # its time, which the cap sets, is left out
        "ops_per_s": (len(lat) - tally.capped) / (sum(lat) - tally.capped_s),
        "op_p50_ms": 1000 * median(lat),
        "op_p90_ms": 1000 * percentile(lat, 90),
        "ok_frac": 1 - tally.failed / tally.attempted,
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                         if name == "cli" else tally.rss_mib),
    }
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def provenance(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "abyss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        top_head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, subprocess.SubprocessError):
        top_head = []
    own = len(top_head) == 2 and Path(top_head[0]).resolve() == ROOT
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": top_head[1] if own else "not a git checkout",
            "src_sha256": digest.hexdigest()[:16]}


def report(title, prov, tally, metrics):
    print("== %s" % title)
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))
    print("ops per kind: " + " ".join("%s=%d" % kv for kv in sorted(tally.kinds.items())))
    print("failed_frac: %.4f (%d of %d ops)" % (tally.failed / tally.attempted,
                                                 tally.failed, tally.attempted))
    for (kind, label, defect, reason), n in sorted(tally.failures.items(), key=str):
        print("  FAILED x%d %s [%s]%s: %s" % (n, kind, label,
                                            " (known defect %s)" % defect if defect else "",
                                            reason))
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print("  %-*s %14.6f %s" % (width, name, value, unit))


def result_line(tally, metrics):
    return json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_all(seed):
    """Every workload untraced, then one traced run, each in its own process."""
    ok = True
    for name in WORKLOADS + ("trace",):
        argv = ["--workload", name if name != "trace" else WORKLOADS[0], "--seed", str(seed),
                "--trace", "1" if name == "trace" else "0"]
        done = subprocess.run([sys.executable, str(HERE / "run.py")] + argv, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        out = done.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        last = json.loads(out[-1]) if done.returncode == 0 else {"correct": False}
        ok = ok and last["correct"]
        print("correct=%s attempted=%s failed=%s\n" % (
            last["correct"], last.get("attempted"), last.get("failed")))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="must equal run_seconds in BENCHMARK.json, which the run length is "
                         "sized to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "abyss" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no abyss sources under %s\n" % SRC)
        return 2
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        sys.stderr.write("perfbench: the run length is fixed; --seconds must be %s\n"
                         % run_seconds)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        from core import load_workload
        load_workload(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed)
    from core import CheckerError
    try:
        if args.trace:
            import layers
            tally, metrics = layers.traced_run(args.seed)
            title = "traced run (all workloads), seed %d" % args.seed
        else:
            tally, metrics = timed_run(args.workload, args.seed)
            title = "%s, seed %d" % (args.workload, args.seed)
    except CheckerError:
        traceback.print_exc()
        return 3
    report(title, provenance(args.seed), tally, metrics)
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
