"""The traced run: per-layer metrics from cProfile.

One traced run covers a fixed op list of every workload, so each run reports
every per-layer metric.  Each list runs twice in one process: untraced (its
per-kind medians are the `*_ms` metrics) and then under the profiler, which
is enabled only while an op runs, never while it is checked.  `cli` children
run under `python -m cProfile`.  Calls and self time are aggregated by the
source module that defines each function: the abyss modules are the layers,
and the standard library's `fractions` is the layer beneath `exact`.

Metric names use public functions only.  Call counts repeat exactly between
two traced runs of one seed; traced seconds are shares, not costs, because
the hook's cost grows with the number of calls.
"""

from __future__ import annotations

import cProfile
import fnmatch
import fractions
import inspect
import os
import pstats
import shutil
import tempfile
from collections import Counter
from pathlib import Path

from abyss import (algorithms, cli, exact, oracle, reductions, serialize, sets, universe,
                   variation)

import cliwl
from core import Tally, load_workload, median

LAYERS = ("exact", "sets", "universe", "oracle", "algorithms", "variation",
          "reductions", "serialize", "cli")
SEGMENTS = ("positive-mix", "abyss-gap", "cli")
ALGORITHM_CALLS = ("sup_qc", "inf_usco", "sup_baire1", "osc_point", "is_continuous_at",
                   "point_of_continuity_qc", "point_of_continuity_usco", "modulus_qc",
                   "cousin_subcover")
VARIATION_CALLS = ("limits_lr", "jump_enum", "total_variation_nbv", "jordan_nbv")
REDUCTION_CALLS = ("naive_rational_sup", "demo_abyss", "realiser_from_sup",
                   "realiser_from_cliq_modulus", "realiser_from_regulation_modulus",
                   "extract_enumeration_from_sup")
# count metric -> patterns over "<layer>.<qualified function name>"; a name
# counts when it matches a pattern and no "!"-prefixed one
COUNTS = {
    "fractions.new_calls": ["fractions.Fraction.__new__"],
    "exact.q2_new_calls": ["exact.Q2.__init__"],
    "exact.q2_cmp_calls": ["exact.Q2.__lt__", "exact.Q2.__le__",
                           "exact.Q2.__gt__", "exact.Q2.__ge__"],
    "exact.contains_calls": ["exact.DyadicInterval.contains"],
    "exact.rational_grid_calls": ["exact.rational_grid"],
    "sets.member_calls": ["sets.CountableSet.member"],
    "sets.members_in_calls": ["sets.CountableSet.members_in"],
    "sets.minimal_shift_calls": ["sets.minimal_shift_into_band"],
    "universe.eval_calls": ["universe.SymbolicFn.eval"],
    "universe.range_on_calls": ["universe.*.range_on", "!universe.Poly.*"],
    "universe.witness_calls": ["universe.*.witness_above", "universe.*.witness_below"],
    "universe.probe_points_calls": ["universe.probe_points"],
    "oracle.mu_search_calls": ["oracle.mu_search"],
    "oracle.exists_calls": ["oracle.exists_value_above", "oracle.exists_value_below"],
    "oracle.basis_at_calls": ["oracle.basis_at"],
    "serialize.dumps_calls": ["serialize.dumps"],
}
PER_OP = {"fractions.new_per_op": "fractions.new_calls",
          "exact.q2_cmp_per_op": "exact.q2_cmp_calls",
          "universe.eval_per_op": "universe.eval_calls"}


def _public_functions(module):
    return ["%s.%s" % (module.__name__.split(".")[-1], name)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


COUNTS["algorithms.calls"] = _public_functions(algorithms)
COUNTS["variation.calls"] = _public_functions(variation)


def _qualnames():
    """(file name, first line) -> qualified name, for every function and
    method defined in the abyss modules and in fractions."""
    out = {}
    for mod in (exact, sets, universe, oracle, algorithms, variation, reductions,
                serialize, cli, fractions):
        short = mod.__name__.split(".")[-1]
        base = os.path.basename(mod.__file__)

        def visit(obj, prefix):
            for name, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and member.__module__ == mod.__name__:
                    code = member.__code__
                    out[(base, code.co_firstlineno)] = "%s.%s%s" % (short, prefix, name)
                elif inspect.isclass(member) and member.__module__ == mod.__name__ \
                        and not prefix:
                    visit(member, name + ".")
        visit(mod, "")
    return out


def _layer_of(filename):
    if filename == fractions.__file__:
        return "fractions"
    parent, base = os.path.split(filename)
    mod = base[:-3] if base.endswith(".py") else None
    if os.path.basename(parent) == "abyss" and mod in LAYERS:
        return mod
    return None


class Aggregate:
    """Calls per qualified function and self seconds per layer."""

    def __init__(self, qualnames):
        self.qualnames = qualnames
        self.calls = Counter()
        self.self_s = Counter()

    def add(self, stats: pstats.Stats):
        for (filename, line, func), (cc, nc, tt, ct, callers) in stats.stats.items():
            layer = _layer_of(filename)
            if layer is None:
                continue
            self.self_s[layer] += tt
            name = self.qualnames.get((os.path.basename(filename), line),
                                      "%s.%s" % (layer, func))
            self.calls[name] += nc

    def count(self, patterns):
        take = [p for p in patterns if not p.startswith("!")]
        skip = [p[1:] for p in patterns if p.startswith("!")]
        return sum(n for name, n in self.calls.items()
                   if any(fnmatch.fnmatchcase(name, p) for p in take)
                   and not any(fnmatch.fnmatchcase(name, p) for p in skip))


class Sizes:
    """Thin wrappers that measure result sizes of public functions."""

    def __init__(self):
        self.members_returned = self.members_scanned = 0
        self.basis_queries = self.basis_points = 0
        self._member_calls = 0
        self._saved = []

    def install(self):
        member, members_in, basis_at = (sets.CountableSet.member,
                                        sets.CountableSet.members_in, oracle.basis_at)

        def counted_member(*args, **kwargs):
            self._member_calls += 1
            return member(*args, **kwargs)

        def sized_members_in(*args, **kwargs):
            before = self._member_calls
            out = members_in(*args, **kwargs)
            self.members_scanned += self._member_calls - before
            self.members_returned += len(out)
            return out

        def sized_basis_at(*args, **kwargs):
            out = basis_at(*args, **kwargs)
            self.basis_queries += 1
            self.basis_points += len(out)
            return out
        self._saved = [(sets.CountableSet, "member", member),
                       (sets.CountableSet, "members_in", members_in),
                       (oracle, "basis_at", basis_at)]
        sets.CountableSet.member = counted_member
        sets.CountableSet.members_in = sized_members_in
        oracle.basis_at = sized_basis_at

    def uninstall(self):
        for owner, name, original in self._saved:
            setattr(owner, name, original)


def traced_run(seed):
    qualnames = _qualnames()
    tally = Tally()
    agg = {seg: Aggregate(qualnames) for seg in SEGMENTS}
    plain = {}
    walls = {}
    sizes = Sizes()
    for seg in SEGMENTS:
        wl = load_workload(seg, seed)
        ops = wl.trace_ops()
        untraced = Tally()
        untraced.run(ops, wl.op_cap_s)
        plain[seg] = untraced
        traced = Tally()
        if seg == "cli":
            tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=cliwl.ROOT))
            try:
                for i, op in enumerate(ops):
                    prof = tmp / ("%d.prof" % i)
                    traced.run([wl.op(op.label, profile_to=prof)], wl.op_cap_s)
                    agg[seg].add(pstats.Stats(str(prof)))
            finally:
                shutil.rmtree(tmp)
        else:
            profiler = cProfile.Profile()
            sizes.install()
            try:
                traced.run(ops, 3 * wl.op_cap_s, profiler)
            finally:
                sizes.uninstall()
            agg[seg].add(pstats.Stats(profiler))
        walls[seg] = (sum(untraced.latencies), sum(traced.latencies), len(ops))
        for t in (untraced, traced):
            tally.merge(t, seg + "/")
    return tally, metrics(agg, plain, walls, sizes)


def metrics(agg, plain, walls, sizes):
    total = Aggregate({})
    for a in agg.values():
        total.calls.update(a.calls)
        total.self_s.update(a.self_s)
    out = {}
    for layer in ("fractions",) + LAYERS:
        out["%s.self_s" % layer] = (total.self_s[layer], "s")
    for name, patterns in COUNTS.items():
        out[name] = (total.count(patterns), "count")
    for name, count_name in PER_OP.items():
        for seg in SEGMENTS:
            out["%s.%s" % (name, seg)] = (agg[seg].count(COUNTS[count_name]) / walls[seg][2],
                                          "calls/op")
    out["sets.members_in_yield"] = (sizes.members_returned / max(1, sizes.members_scanned),
                                    "ratio")
    out["oracle.basis_points_per_query"] = (sizes.basis_points / max(1, sizes.basis_queries),
                                            "points")
    for names, seg, layer in ((ALGORITHM_CALLS, "positive-mix", "algorithms"),
                              (VARIATION_CALLS, "positive-mix", "variation"),
                              (REDUCTION_CALLS, "abyss-gap", "reductions"),
                              (cliwl.SUBCOMMANDS, "cli", "cli")):
        for fn in names:
            out["%s.%s_ms" % (layer, fn)] = (1000 * median(plain[seg].by_kind[fn]), "ms")
    out["cli.import_ms"] = (1000 * median([cliwl.import_seconds() for _ in range(3)]), "ms")
    for seg in SEGMENTS:
        untraced_s, traced_s, _ = walls[seg]
        out["trace.overhead_frac.%s" % seg] = (traced_s / untraced_s - 1, "ratio")
    return out
