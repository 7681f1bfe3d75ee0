"""Paired benchmark runs of a parent commit and the working tree.

    python3 tests/bench_pairs.py PARENT --workload abyss-gap,positive-mix --seeds 301-310

Exports PARENT (any git ref) with `git archive` into a temporary directory,
and copies the working tree (its tracked files and its untracked files that
.gitignore does not name, as they stand) into a second one, once, so that
both sides start alike: fresh trees with no bytecode cache and no leftovers
of earlier runs.  Then for each workload W of the comma list and each seed
S it runs `perfbench/run.py --workload W --seed S --trace 0` once in each
tree, alternating which runs first (the parent in the first pair).  For each workload and each end-to-end metric of BENCHMARK.json
it prints both sides' median and quartiles, and how many pairs the change
won and tied.  A gain holds when the change wins at least 9 of every 10
pairs, ties counting for neither, and the medians differ by more than the
parent's interquartile range; a metric whose change median is worse than
the parent's by more than its bound is marked WORSE.  The last line names
every WORSE verdict of every workload, and the exit status is 1 if there is
one.

Stdlib only; run by hand (pytest does not collect it).  Each run takes about
`run_seconds` of BENCHMARK.json, so ten pairs take several minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    """'301-310' or '5,7,9' as a list of seeds."""
    if "-" in text:
        a, b = map(int, text.split("-"))
        return list(range(a, b + 1))
    return [int(s) for s in text.split(",")]


def export(ref: str, into: Path) -> None:
    data = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)


def copy_worktree(into: Path) -> None:
    """The working tree's tracked and unignored untracked files, as they stand."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout
    for name in sorted(set(names.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one untraced run in tree, by name."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit("run failed in %s (seed %d):\n%s" % (tree, seed, done.stderr))
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not last["correct"]:
        raise SystemExit("an answer was wrong in %s (seed %d)" % (tree, seed))
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q1, q2, q3


def summary(pairs: list[tuple[dict, dict]], spec: dict) -> list[str]:
    lines = ["%-13s %-28s %-28s %-9s %s" % ("metric", "parent median [q1-q3]",
                                            "change median [q1-q3]", "won/tied", "verdict")]
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(old, new))
        tied = sum(c == p for p, c in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        gap = (om - nm) if lower else (nm - om)
        verdict = "gain" if 10 * won >= 9 * len(pairs) and gap > o3 - o1 else "no gain"
        if om and -gap / abs(om) > m["bound"]:
            verdict = "WORSE (bound %g)" % m["bound"]
        lines.append("%-13s %-28s %-28s %-9s %s" % (
            name, "%.4g [%.4g-%.4g]" % (om, o1, o3), "%.4g [%.4g-%.4g]" % (nm, n1, n3),
            "%d/%d" % (won, tied), verdict))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git ref of the parent commit")
    ap.add_argument("--workload", default="positive-mix", help="a comma list of workloads")
    ap.add_argument("--seeds", default="301-310", help="'a-b' or a comma list")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        export(args.parent, parent)
        copy_worktree(change)
        for workload in args.workload.split(","):
            pairs = []
            for i, seed in enumerate(seeds_of(args.seeds)):
                order = [(0, parent), (1, change)] if i % 2 == 0 else [(1, change), (0, parent)]
                got = {}
                for side, tree in order:
                    got[side] = run_once(tree, workload, seed)
                pairs.append((got[0], got[1]))
                print("%s seed %d (%s first): %s" % (
                    workload, seed, "parent" if order[0][0] == 0 else "change",
                    " ".join("%s %.4g->%.4g" % (k, got[0][k], got[1][k]) for k in got[0])),
                    flush=True)
            lines = summary(pairs, spec)
            print("\n%s, %d pairs\n%s\n" % (workload, len(pairs), "\n".join(lines)), flush=True)
            worse += ["%s %s" % (workload, line.split()[0]) for line in lines if "WORSE" in line]
    print("WORSE: %s" % (", ".join(worse) or "none"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
