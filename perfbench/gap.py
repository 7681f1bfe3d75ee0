"""The `abyss-gap` workload: the adversarial side, long exact scans.

The rational-grid baseline, the exhaustive oracle, the gap demonstration,
the three realisers, bit extraction and members of the banded copy make
`exact`, `fractions`, `sets.members_in` and `reductions` the whole cost.
Ops share one canonical sqrt2_family(), whose member cache set-up fills.
Each pass also draws fresh finite irrational seed sets for the grid
baseline, the exhaustive oracle and one extraction: about half of the ops
are these sub-2 ms scans, so the median lies among many independent draws
and does not depend on a few seeded sets.  Their sizes run through the same
values in every pass (only the points, subintervals and PennyK parameters
are drawn), so that the median does not move with how many small or large
sets a seed happens to draw.  A pass holds 56 ops, so that the
90th percentile falls among the realiser_from_regulation_modulus calls on
the canonical set, below its grid scans, demo_abyss and realiser_from_sup.

The banded copy's shift enumeration is refilled with O(i^2) work in every
process (ROADMAP 2d).  Set-up fills it through the fixed ANCHOR set, whose
bands reach index 931, and through TILDE_SETS seeded sets' bands whose minimal
shift index is within TILDE_INDEX_CAP: the refill lands in `setup_s` at
nearly the same size for every seed, and each `tilde_member` op scans at
most TILDE_INDEX_CAP cached entries.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import abyss
from abyss import serialize as ser
from abyss.selftest import run_selftest

import exactref as ref
from core import Op, raised
from positive import q2, seed_points, subinterval, unpair

K_BITS = 16
REALISER_FUEL = 16
TILDE_INDEX_CAP = 1024
TILDE_OPS = 6
TILDE_SETS = 6
FRESH_NAIVE = 24
FRESH_EXHAUSTIVE = 12
SLOW_KINDS = ("demo_abyss", "realiser_from_sup")

# a fixed seed set whose bands 0..7 need shift indices up to 931
ANCHOR = [(F(17, 32), F(1, 512)), (F(59, 128), F(1, 4)), (F(29, 128), F(1, 1 << 28)),
          (F(45, 64), F(1, 1 << 38)), (F(55, 64), F(1, 1 << 32)),
          (F(19, 128), F(1, 1 << 37)), (F(97, 128), F(1, 1 << 14)),
          (F(33, 128), F(1, 512))]

REALISERS = {
    "realiser_from_sup": lambda a: abyss.realiser_from_sup(
        abyss.exhaustive_sup_oracle(), a, K_BITS, fuel=REALISER_FUEL),
    "realiser_from_cliq_modulus": lambda a: abyss.realiser_from_cliq_modulus(
        abyss.canonical_cliq_modulus(a), a, K_BITS, fuel=REALISER_FUEL),
    "realiser_from_regulation_modulus": lambda a: abyss.realiser_from_regulation_modulus(
        abyss.canonical_regulation_modulus(a), a, K_BITS, fuel=REALISER_FUEL),
}


def finite(pts):
    return abyss.finite_set([q2(p) for p in pts])


def naive_check(want):
    def check(res):
        bad = raised(res)
        if bad:
            return bad
        return None if res == want else "grid max %s, exact grid max %s" % (res, want)
    return check


def outside_prefix(seeds: ref.SeedSet, z):
    """Reason when the realised point is not a rational of [0,1] that
    differs from every member of index <= REALISER_FUEL."""
    if not isinstance(z, F) or not 0 <= z <= 1:
        return "realised point %r is not a rational of [0,1]" % (z,)
    limit = REALISER_FUEL + 1 if seeds.size is None else min(REALISER_FUEL + 1, seeds.size)
    for n in range(limit):
        if ref.cmp(seeds.member(n), z) == 0:
            return "realised point %s is member %d" % (z, n)
    return None


class Workload:
    name = "abyss-gap"
    op_cap_s = 30.0
    passes = 7  # timed passes per run

    def __init__(self, seed: int, golden: dict):
        self.rng = random.Random("abyss-gap:%d" % seed)
        self.golden = golden
        self.A = abyss.sqrt2_family()
        self.canonical = ref.SeedSet()
        bands = [(pts, n, ref.shift_into_band(pts[n], n))
                 for pts in [ANCHOR] + [seed_points(self.rng) for _ in range(TILDE_SETS)]
                 for n in range(len(pts))]
        self.tilde = [(pts, n, q) for pts, n, (q, i) in bands if i <= TILDE_INDEX_CAP]
        # warm the shared caches: members of the canonical set, and the banded
        # copy's shift enumeration (the O(i^2) refill of ROADMAP 2d)
        abyss.naive_rational_sup(abyss.Penny(self.A), 0, 1, 8)
        for pts, n, _ in self.tilde:
            abyss.tilde_set(abyss.finite_set([q2(p) for p in pts])).member(n)
        # one op of each cheap kind: the others cost up to seconds and warm
        # nothing that set-up has not
        warm = {}
        for op in self._pass(random.Random("abyss-gap-warmup:%d" % seed)):
            if op.kind not in SLOW_KINDS and not op.label.startswith("penny(sqrt2)/"):
                warm.setdefault(op.kind, op)
        self.warmup_ops = list(warm.values())
        # golden bytes only: the transcript is checked once per run, untimed;
        # the cli workload times selftest
        self.check_only_ops = [self._selftest()]
        self.trace_rng = random.Random("abyss-gap-trace:%d" % seed)

    # -- op makers ----------------------------------------------------------------

    def _naive(self, rng):
        ops = []
        for d in (8, 16, 24):
            ops.append(Op("naive_rational_sup", "penny(sqrt2)/d%d" % d,
                          lambda d=d: abyss.naive_rational_sup(abyss.Penny(self.A), 0, 1, d),
                          naive_check(F(0))))
            k = rng.randrange(4, 16)
            ops.append(Op("naive_rational_sup", "pennyk(sqrt2,%d)/d%d" % (k, d),
                          lambda d=d, k=k: abyss.naive_rational_sup(
                              abyss.PennyK(self.A, k), 0, 1, d),
                          naive_check(F(0))))
        for i in range(FRESH_NAIVE):
            pts = seed_points(rng, size=1 + i // 2)
            d = (8, 16, 24)[i % 3]
            p, q = subinterval(rng)
            k = rng.randrange(0, 12)
            family = (lambda s: abyss.Penny(s)) if i % 2 == 0 else \
                (lambda s, k=k: abyss.PennyK(s, k))
            # members are irrational, so every grid value is 0
            ops.append(Op("naive_rational_sup", "%s(finite-%d)/d%d" % (
                              "penny" if i % 2 == 0 else "pennyk", len(pts), d),
                          lambda pts=pts, family=family, p=p, q=q, d=d:
                          abyss.naive_rational_sup(family(finite(pts)), p, q, d),
                          naive_check(F(0))))
        ops.append(Op("naive_rational_sup", "tilde-penny(sqrt2)/d24",
                      lambda: abyss.naive_rational_sup(abyss.TildePenny(self.A), 0, 1, 24),
                      naive_check(F(0)), defect="2c", expect="raised ValueError: "))
        return ops

    def _exhaustive(self, rng):
        ops = []
        for i in range(FRESH_EXHAUSTIVE + 1):
            pts = seed_points(rng, size=i) if i else None
            p, q = subinterval(rng)
            want, _ = ref.sup_inf(("penny", ref.SeedSet(pts), None), p, q)

            def check(res, want=want[0]):
                bad = raised(res)
                if bad:
                    return bad
                return None if res == want else "supremum %s, exact %s" % (res, want)
            ops.append(Op("exhaustive_sup_oracle",
                          "penny(finite-%d)" % len(pts) if pts else "penny(sqrt2)",
                          lambda pts=pts, p=p, q=q: abyss.exhaustive_sup_oracle()(
                              abyss.Penny(finite(pts) if pts else self.A), p, q),
                          check))
        return ops

    def _demo(self):
        bits = ref.bits_of(self.canonical.member(0), K_BITS)

        def check(rep):
            bad = raised(rep)
            if bad:
                return bad
            if rep.depths != [8, 16, 24] or any(v != 0 for v in rep.baseline_values):
                return "baseline values %s at depths %s" % (rep.baseline_values, rep.depths)
            if rep.oracle_value != F(1, 2) or rep.gap != F(1, 2):
                return "oracle value %s, gap %s" % (rep.oracle_value, rep.gap)
            if rep.realiser_bits != bits:
                return "bits %s, isqrt gives %s" % (rep.realiser_bits, bits)
            return outside_prefix(self.canonical, rep.realiser_point)
        return Op("demo_abyss", "sqrt2", lambda: abyss.demo_abyss(self.A), check)

    def _realisers(self):
        return [Op(kind, "sqrt2", lambda realise=realise: realise(self.A),
                   lambda z: raised(z) or outside_prefix(self.canonical, z))
                for kind, realise in REALISERS.items()]

    def _extract(self, rng):
        pts = seed_points(rng)
        ops = []
        for seeds, make, label in (
                (self.canonical, lambda: self.A, "sqrt2"),
                (ref.SeedSet(pts), lambda: finite(pts), "finite-%d" % len(pts))):
            bits = ref.bits_of(seeds.member(0), K_BITS)

            def check(res, seeds=seeds, bits=bits):
                bad = raised(res)
                if bad:
                    return bad
                first = res[0] if res else None
                if first is None or first.index != 0 or first.value != F(1, 2):
                    return "first extraction %r, expected member 0 at 1/2" % (first,)
                if first.bits != bits:
                    return "bits %s, isqrt gives %s" % (first.bits, bits)
                lo, hi = first.interval.lower, first.interval.upper
                return None if ref.in_closed(seeds.member(0), lo, hi) else \
                    "interval [%s, %s] misses member 0" % (lo, hi)
            ops.append(Op("extract_enumeration_from_sup", label,
                          lambda make=make: abyss.extract_enumeration_from_sup(
                              abyss.exhaustive_sup_oracle(), make(), K_BITS, rounds=1),
                          check))
        return ops

    def _tilde(self, rng):
        ops = []
        for _ in range(TILDE_OPS):
            pts, n, q = rng.choice(self.tilde)
            want = ref.sub(pts[n], q)

            def check(res, want=want):
                bad = raised(res)
                if bad:
                    return bad
                got = unpair(res)
                return None if got == want else \
                    "member %s, expected %s" % (ref.fmt(got), ref.fmt(want))
            ops.append(Op("tilde_member", "%sband%d" % ("anchor/" if pts is ANCHOR else "", n),
                          lambda pts=pts, n=n: abyss.tilde_set(finite(pts)).member(n),
                          check))
        return ops

    def _selftest(self):
        want = self.golden["selftest_sha256"]

        def check(res):
            bad = raised(res)
            if bad:
                return bad
            got = hashlib.sha256(res.encode()).hexdigest()
            return None if got == want else "transcript sha256 %s, golden %s" % (got[:16], want[:16])
        return Op("selftest", "run_selftest", lambda: ser.dumps(run_selftest()), check)

    def _pass(self, rng):
        ops = (self._naive(rng) + self._exhaustive(rng) + [self._demo()]
               + self._realisers() + self._extract(rng) + self._tilde(rng))
        rng.shuffle(ops)
        return ops

    def next_pass(self):
        return self._pass(self.rng)

    def trace_ops(self):
        return self._pass(self.trace_rng)
