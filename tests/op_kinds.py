"""Per-kind op times of one benchmark run, to see which kinds a change moved.

    python3 tests/op_kinds.py --workload positive-mix --seed 101 [--tree DIR] [--fractions]
                              [--by-label]

Loads the workload of the tree DIR (default: this tree) through
`perfbench/core.load_workload`, runs one run's timed passes through
`core.Tally`, so each op's latency is normalised for the host's speed as
`core` normalises it, and prints one line per op kind: its ops, its share of
the run's op time, its median latency, and how many of its ops sit at or
above the run's p50 and p90 (the nearest-rank percentiles of `core`).
Then, for each of the p50 and p90, the ops at the nearest ranks around it
(three either side), each with its latency and kind: the kinds that set
the percentile, which a change must speed up to move it.

With --by-label it also prints one line per instance, an op kind and its
label, slowest median first: its ops, its median latency, and how many of
its ops sit at or above the p50 and p90.  A kind whose instances differ in
size (a seeded finite set and the shared sqrt2 set) shows there which of
them sit above a percentile.

With --fractions it runs the same passes again, untimed, and adds each
kind's `Fraction` constructions per op made by abyss itself: a construction
counts when the first caller outside `fractions` lies in the tree's src.
To compare a parent commit, export it (`git archive`) and pass --tree.

Stdlib only; run by hand (pytest does not collect it).  It changes nothing
under perfbench/.
"""

from __future__ import annotations

import argparse
import fractions
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEAREST = 3  # the ranks shown either side of each percentile


def fraction_counter(src: str):
    """(count, restore): count() returns how many `Fraction`s code under src
    has built since the patch; restore() takes the patch off."""
    original, made = fractions.Fraction.__new__, [0]
    lib = fractions.__file__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename == lib:
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.startswith(src):
            made[0] += 1
        return original(cls, *args, **kwargs)

    fractions.Fraction.__new__ = counted
    return (lambda: made[0]), (lambda: setattr(fractions.Fraction, "__new__", original))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="positive-mix")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--tree", default=str(ROOT), help="a checkout with src/ and perfbench/")
    ap.add_argument("--fractions", action="store_true",
                    help="also count the Fractions abyss builds per op")
    ap.add_argument("--by-label", action="store_true",
                    help="also print each instance's median and its ops at or above p50 and p90")
    args = ap.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    from core import Tally, load_workload, median, percentile

    wl = load_workload(args.workload, args.seed)
    passes = [wl.next_pass() for _ in range(wl.passes)]
    tally = Tally()
    for ops in passes:
        tally.run(ops, wl.op_cap_s)
    lat = tally.latencies
    total, p50, p90 = sum(lat), percentile(lat, 50), percentile(lat, 90)
    news = {}
    if args.fractions:
        count, restore = fraction_counter(str(tree / "src"))
        try:
            for ops in passes:
                for op in ops:
                    before = count()
                    try:
                        op.run()
                    except Exception:
                        pass  # a refusal is an answer; its Fractions count too
                    news.setdefault(op.kind, []).append(count() - before)
        finally:
            restore()
    print("%s seed %d, tree %s: %d ops, %.1f ms of op time, p50 %.4f ms, p90 %.4f ms" % (
        args.workload, args.seed, tree, len(lat), 1000 * total, 1000 * p50, 1000 * p90))
    width = max(map(len, tally.by_kind))
    print("%-*s %5s %7s %10s %6s %6s%s" % (width, "kind", "ops", "share", "median ms", ">=p50",
                                           ">=p90", "  Fractions/op" if news else ""))
    for kind, ks in sorted(tally.by_kind.items(), key=lambda kv: -sum(kv[1])):
        made = news.get(kind)
        print("%-*s %5d %6.1f%% %10.4f %6d %6d%s" % (
            width, kind, len(ks), 100 * sum(ks) / total, 1000 * median(ks),
            sum(x >= p50 for x in ks), sum(x >= p90 for x in ks),
            "  %12.1f" % (sum(made) / len(made)) if made else ""))
    if args.by_label:
        by_label = {}
        for x, op in zip(lat, (op for ops in passes for op in ops)):
            by_label.setdefault((op.kind, op.label), []).append(x)
        rows = sorted(by_label.items(), key=lambda kv: -median(kv[1]))
        width = max(len("%s %s" % key) for key in by_label)
        print("\n%-*s %5s %10s %6s %6s" % (width, "kind label", "ops", "median ms", ">=p50",
                                           ">=p90"))
        for (kind, label), ks in rows:
            print("%-*s %5d %10.4f %6d %6d" % (width, "%s %s" % (kind, label), len(ks),
                                               1000 * median(ks), sum(x >= p50 for x in ks),
                                               sum(x >= p90 for x in ks)))
        print()
    ranked = sorted(zip(lat, (op.kind for ops in passes for op in ops)))
    for q, value in ((50, p50), (90, p90)):
        rank = [x for x, _ in ranked].index(value) + 1
        print("p%d %.4f ms is rank %d of %d; the nearest ranks:" % (q, 1000 * value, rank,
                                                                 len(ranked)))
        for r in range(max(rank - NEAREST, 1), min(rank + NEAREST, len(ranked)) + 1):
            x, kind = ranked[r - 1]
            print("%s %5d %10.4f  %s" % (">" if r == rank else " ", r, 1000 * x, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
