"""Each fast path against the plain computation it shortcuts: one row per
path gives the path, its reference (`references.py`), the catalogue groups
it reads (`catalogue.py`) and the arguments it asks of each entry.  A case
builds its entry afresh and compares the answers and refusals (type and
message), or asks that the path's brackets hold the exact values.  A new
fast path adds a reference and a row, not a test file.

Beside the searches, builders and scans of the positive side, rows check
the universe (`minimal-shift`, the banded shift; `locate`, the cut
bisection; `index-of` and `member-scan` on seed sets; `below-witness`;
`spike-scans` with the spike count; `range-brute` and `osc-exact`, brackets
against sampled values; `tag-witness`, each class tag a family claims
against its defining property), the variation operators (`running-variation`,
`total-variation`, `regulation-windows`) and the reductions
(`grid-baseline`, `cliq-levels`, `sup-oracle`, `sup-extraction` with the
bisection sets, `demo-abyss`).  The kernel's property tests on their own
inputs (numbers and intervals) stay in their modules."""

from __future__ import annotations

import ast
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from abyss import (Baire1Above, Bracket, DyadicInterval, ExistsValueAbove, ExistsValueBelow,
                   OscBelow, PiecewiseRational, Poly, Q2, R2Rep, RMCode, SupOracle, Truth,
                   ValueBelowOnBall, canonical_cliq_modulus, constant, cousin_subcover,
                   demo_abyss, exhaustive_sup_oracle, extract_enumeration_from_sup, fn_sum,
                   indicator_baire1, inf_usco, jordan_nbv, linear, modulus_continuity_qc,
                   modulus_qc, modulus_regulation, mu_search, naive_rational_sup,
                   natural_usco_modulus, osc_exact, point_of_continuity_qc,
                   point_of_continuity_usco, rational_grid, realiser_from_cliq_modulus,
                   realiser_from_sup, rm_code_from_r2_baire1, scalar_multiple, staircase,
                   sup_baire1, sup_qc, tilde_set, total_variation_nbv)
from abyss.category import interior_numerators
from abyss.collapse import ball_clipped
from abyss.oracle import _ProbeState, basis_at
from abyss.serialize import dumps, fn_json
from abyss.sets import band_of, minimal_shift_into_band
from abyss.spikes import CoverPsi
from abyss.universe import (BV, CLIQUISH, NORMALISED_BV, QUASI_CONTINUOUS, REGULATED, USCO,
                            irrational_inside, query_scope)
from abyss.variation import _running_variation, limit_pair, regulated_within

import references as ref
from catalogue import A, ENTRIES, RATIONAL_SEEDS, S2, make, random_dyadic, random_subinterval

POINTS = [F(0), F(1), F(1, 2), F(1, 3), F(5, 16), A.member(1), S2(1), Q2(F(1, 3), F(1, 8))]
FUELS = (0, 1, 64)
UNIT = DyadicInterval(0, 1)
WALK_KINDS = frozenset({"Found", "NotFoundBelow", "FuelExhausted", "ClassRefusal"})


class Row(NamedTuple):
    name: str
    fast: Callable  # fast(f, *args): the answer of the fast path
    ref: Callable  # ref(f, *args): the answer of the reference
    accepts: tuple  # the catalogue groups whose entries it reads
    grid: Callable  # grid(f, entry, rng): the argument tuples, asked in order
    agree: Callable = None  # agree(f, got, want, *args); equality when None
    budget: tuple = None  # (name, seconds): one deadline its cases share with the name's
    kinds: frozenset = frozenset()  # answer kinds and refusal messages its cases must show
    min_checks: int = 0  # least number of comparisons over all its cases
    refusals: bool = False  # whether an answer may be a refusal (an exception)


def search(run):
    """A row side that asks the query q through run(q): its outcome, alone
    in a tuple, where the row reads the kind of its answer."""
    return lambda f, q: (ref.outcome(lambda: run(q)),)


def random_intervals(rng, count, depth_below):
    return [DyadicInterval(*random_subinterval(rng, rng.randrange(1, depth_below)))
            for _ in range(count)]


# --- the ball walks ---


def value_below_grid(f, entry, rng):
    """Four targets, and on a usco family but the ball-only sums five at the
    2^-8 margin: the top end of the smallest ball's inf bracket plus 2^-8,
    just either side of it, that top end, and its bracket's midpoint; then
    the entry's own (point, target) pairs at each fuel."""
    for x, fuel in itertools.product(POINTS, FUELS):
        qs = [F(0), F(1, 8), F(1, 2), F(1)]
        if USCO in f.tags and "ball" not in entry["groups"]:
            inf_b, _ = f.range_on(ball_clipped(x, fuel), 8)
            qs += [inf_b.hi + F(1, 256) + e for e in (F(-1, 1 << 40), F(0), F(1, 1 << 40))]
            qs += [inf_b.hi, (inf_b.lo + inf_b.hi) / 2]
        yield from ((ValueBelowOnBall(f, x, q, fuel),) for q in qs)
    for (x, q), fuel in itertools.product(entry.get("slack-inf", []), FUELS):
        yield ValueBelowOnBall(f, x, q, fuel),


def osc_grid(f, entry, rng):
    cases = entry.get("margin") or itertools.product(POINTS, (0, 1, 3, 6))
    return [(OscBelow(f, x, m, fuel),) for (x, m), fuel in itertools.product(cases, FUELS)]


# --- the positive side: polynomials, pieces, moduli, covers and searches ---


def poly_grid(f, entry, rng):
    points = sorted(Q2.of(x) for x in [F(0), F(1), F(1, 3), F(-2, 7), F(5, 8), F(22, 7), S2(0),
                                       Q2(F(1, 3), F(1, 8)), Q2(1, F(-1, 4)),
                                       Q2(F(-3, 5), F(7, 3))])
    for i, cs in enumerate(tuple(map(F, cs)) for cs in entry["fn"]["pieces"]):
        yield from [(i, cs)] + [(i, cs, x) for x in points] + [
            (i, cs, lo, hi) for lo, hi in itertools.combinations(points, 2)]


def poly_fast(f, i, cs, *pts):
    poly = f.pieces[i]
    if not pts:
        return poly.coeffs(), poly == Poly(*cs), poly.is_constant, poly.vertex
    return poly(*pts) if len(pts) == 1 else poly.range_on(*pts)


def poly_ref(f, i, cs, *pts):
    if not pts:
        return cs, True, cs[1] == cs[2] == 0, -cs[1] / (2 * cs[2]) if cs[2] else None
    return ref.horner(cs, *pts) if len(pts) == 1 else ref.plain_range(cs, *pts)


def scan_grid(f, entry, rng):
    """Intervals between grid points of depth 4, with ends on the rational
    cuts, and an interval inside each piece."""
    ivs = [DyadicInterval(a, b) for a, b in itertools.combinations(rational_grid(UNIT, 4), 2)]
    for c in f.cuts:
        if c.is_rational and 0 < c < 1:
            c = c.as_rational()
            ivs += [DyadicInterval(c, 1), DyadicInterval(0, c),
                    DyadicInterval(c - F(1, 64), c), DyadicInterval(c, c + F(1, 64))]
    for a, b in zip(f.cuts, f.cuts[1:]):
        lo, hi = a.approx(12), b.approx(12)
        ivs.append(DyadicInterval(lo + (hi - lo) / 3, hi - (hi - lo) / 3))
    return [(iv,) for iv in ivs]


def scan_ref(f, iv):
    vals = ref.full_scan_candidates(f, iv)
    return sorted(vals), (Bracket.of_q2(min(vals), 10), Bracket.of_q2(max(vals), 10))


# each piecewise builder and its plain reference, given an entry f and the arguments
BUILDS = {
    "sum": (fn_sum, ref.plain_piecewise_sum),
    "scale": (lambda f, c: scalar_multiple(c, f), lambda f, c: ref.plain_scale(c, f)),
    "staircase": (lambda f, jumps: staircase(jumps), lambda f, jumps: ref.plain_staircase(jumps)),
    "from-polys": (lambda f, policy: PiecewiseRational.from_polys(f.cuts, f.pieces, policy),
                   lambda f, policy: ref.plain_from_polys(f.cuts, f.pieces, policy)),
    "constant": (lambda f, c: constant(c),
                 lambda f, c: ref.plain_from_polys([0, 1], [Poly(c)], [c, c])),
    "linear": (lambda f, slope, c: linear(slope, c),
               lambda f, slope, c: ref.plain_from_polys([0, 1], [Poly(c, slope)])),
}


@functools.cache
def summand(name):
    """The entry name built once, as the second part of the sums: a sum
    reads its parts' tables and keeps no memo on them."""
    return make(name)


# the second parts of the sums: steps at 1/3, 1/2 and 3/4, cuts that many
# entries share; a step at the irrational cut sqrt2/4; and four pieces, one
# of them quadratic
SUMMANDS = ("staircase(3 steps)", "irrational-cut-staircase", "four-piece")


def build_grid(f, entry, rng):
    """f plus itself, so that every cut is shared, and plus each summand;
    f scaled by c < 0, c = 0 and c > 0; the staircase on f's cuts; f's
    pieces rebuilt by `from_polys` with and without a policy; and the
    constant and the line of f's first piece."""
    yield "sum", f
    yield from (("sum", summand(name)) for name in SUMMANDS)
    yield from (("scale", c) for c in (F(-3, 2), F(0), F(5, 4)))
    yield "staircase", [(c, piece.coeffs()[0]) for c, piece in zip(f.cuts[1:-1], f.pieces[1:])]
    yield "from-polys", None
    yield "from-polys", [v if i % 2 else "right" for i, v in enumerate(f.bp_values)]
    c0, c1, _ = f.pieces[0].coeffs()
    yield from [("constant", c0), ("linear", c1, c0)]


def probe_intervals(rng):
    """[0,1], intervals whose ends are special points or reach past [0,1],
    and random ones."""
    return [UNIT, DyadicInterval(F(1, 4), F(3, 4)), DyadicInterval(F(1, 3), F(1, 2)),
            DyadicInterval(F(-1, 4), F(1, 3)), DyadicInterval(F(3, 4), F(5, 4))] \
        + random_intervals(rng, 6, 9)


def probe_grid(f, entry, rng):
    """Every depth 0..8 on the probe intervals, depth 13 (past the grid cap
    of the widest ones) and the refused depth -1."""
    return itertools.product(probe_intervals(rng), [-1, *range(9), 13])


def state_grid(f, entry, rng):
    """Each interval the entry's probe, threshold and Baire-1 rows read, once."""
    ivs = probe_intervals(rng) if "probe" in entry["groups"] else []
    ivs += [DyadicInterval(p, q) for _, (p, q), *_ in entry.get("exists", [])]
    ivs += [DyadicInterval(*iv) for iv, *_ in entry.get("baire1", [])]
    return [(iv,) for iv in dict.fromkeys(ivs)]


def state_depths(f, iv):
    """Per depth up to the cap, the points the probe state's depth adds,
    built one depth at a time."""
    state = _ProbeState(f, iv)
    return [state.added(d) for d in range(state.cap + 1)]


# the points and precisions at which each class tag a family claims is witnessed
TAG_POINTS = rational_grid(UNIT, 3) + [F(1, 3), S2(0), S2(1), S2(2)]
WITNESSED_TAGS = (USCO, CLIQUISH, QUASI_CONTINUOUS, REGULATED, BV)


def tag_grid(f, entry, rng):
    """Each of the five tags f claims at the tag points and precisions 2, 4
    and 6, BV with the entry's bound at probe depths 3 and 8; then the
    entry's refutations."""
    for tag in (t for t in WITNESSED_TAGS if t in f.tags):
        yield from ([(BV, entry.get("bv"), d) for d in (3, 8)] if tag == BV else
                    ((tag, x, k) for x in TAG_POINTS for k in (2, 4, 6)))
    yield from entry.get("refutes", [])


def claims(f, tag, *args):
    """The tag as the family claims it, alone in a tuple for the row's kinds."""
    return ((tag,) if tag in f.tags else ("not " + tag,),)


def built_table(g):
    return (g.cuts, g.pieces, g.bp_values, g.sides, g.critical, g.tags, g._hull(),
            dumps(fn_json(g)))


def least_covering_prefix(psi):
    balls = cousin_subcover(psi)
    return next((balls[:i] for i in range(1, len(balls) + 1) if ref.covers_unit(balls[:i])), None)


def exists_grid(f, entry, rng):
    return [((ExistsValueAbove if side == "above" else ExistsValueBelow)(
        f, DyadicInterval(p, q), y, fuel),) for side, (p, q), y, fuel in entry["exists"]]


def halving_grid(f, entry, rng):
    """Each halving twice: the second run reads the probe state the first
    kept on the instance."""
    for (p, q), values, k, fuel, least in entry["halving"]:
        yield from [(DyadicInterval(p, q), *(values or f.range_bound()), k, fuel, least)] * 2


def sup_baire1_grid(f, entry, rng):
    """Each halving at its own fuel, and at fuel 12, below the grid cap of
    the narrower intervals, where a limit without a stabilizer decides the
    thresholds of its k = 10 halvings."""
    return [(p, q, values, k, fuel) for (p, q), values, k, own, _ in entry["halving"]
            for fuel in (own, 12)]


def sup_baire1_twice(f, p, q, values, k, fuel):
    """`sup_baire1`'s outcome, twice in one query scope: the second run reads
    the probe state of the first.  A limit that gives no value range (no
    stabilizer, no bounds) halves the range its entry names."""
    if values:
        f.range_bound = lambda: values
    with query_scope():
        return [ref.outcome(lambda: sup_baire1(f, p, q, k, fuel)) for _ in range(2)]


def halving_side(run):
    return lambda f, iv, lo, hi, k, fuel, least: ref.halving(f, iv, lo, hi, k, fuel, run)


def halving_args(f, entry, rng):
    return [(p, q, k) for (p, q), k in itertools.product(
        [(0, 1), (F(1, 8), F(5, 8)), (F(5, 16), F(3, 4)), (F(1, 2), F(9, 16))], (0, 3, 10, 20))]


def halving_sides(run, above):
    """The two sides of a value-halving row: the halving's outcome, twice,
    and the outcomes of its two references, the range read asked afresh at
    every threshold and the family's own witness in a plain `Fraction` loop."""
    def fast(f, p, q, k):
        return (ref.outcome(lambda: run(f, p, q, k)),) * 2

    def refs(f, p, q, k):
        return tuple(ref.outcome(lambda: plain(f, p, q, k, above))
                     for plain in (ref.fresh_halving, ref.plain_witness_halving))
    return fast, refs


def locate_grid(f, entry, rng):
    """Each cut, each piece's midpoint, points sqrt2/2^21 and sqrt2/2^41
    either side of each cut, eight irrational points, and four outside [0,1]."""
    cuts = list(f.cuts)
    pts = cuts + [(u + v) / 2 for u, v in zip(cuts, cuts[1:])]
    pts += [c + S2(j) for c in cuts[:-1] for j in (20, 40)]
    pts += [c - S2(j) for c in cuts[1:] for j in (20, 40)]
    pts += [irrational_inside(DyadicInterval(*random_subinterval(rng))) for _ in range(8)]
    return [(x,) for x in pts + [Q2(-1), -S2(30), Q2(1) + S2(30), Q2(2)]]


def variation_sides(f, x):
    """The running variation at x; on a normalised-BV f also Jordan's g, h
    plus f, and the total variation's bracket at 2^-12."""
    g = _running_variation(f)(x)
    if NORMALISED_BV not in f.tags:
        return (g,)
    jp = jordan_nbv(f)
    return g, jp.g(x), jp.h(x) + f.eval(x), total_variation_nbv(f, x, 12)


def variation_holds(f, got, want, x):
    return all(v == want for v in got[:3]) and (len(got) < 4 or got[3].contains(want))


def brute_grid(f, entry, rng):
    """25 drawn pairs of ends on the grid of 64ths, equal pairs dropped."""
    ends = [sorted((F(rng.randrange(64), 64), F(rng.randrange(64), 64))) for _ in range(25)]
    return [(DyadicInterval(lo, hi),) for lo, hi in ends if lo < hi]


def values_held(f, got, vals, iv):
    """Each bracket is at most 2^-12 wide and holds every sampled value."""
    inf_b, sup_b = got
    return max(inf_b.width, sup_b.width) <= F(1, 1 << 12) and \
        Q2.of(inf_b.lo) <= min(vals) and max(vals) <= Q2.of(sup_b.hi)


def brackets_hold(f, got, want, iv, k, breaks):
    (inf_b, sup_b), (lo, hi) = got, want
    return inf_b.width <= F(1, 1 << k) >= sup_b.width and inf_b.contains(lo) \
        and sup_b.contains(hi)


# --- the spike families ---


def member_intervals(a_set, rng, pad, members=6, j_of=lambda n, rng: rng.randrange(2, 12)):
    """An interval around each of the first members of a_set, its ends a
    bracket of the member at 2^-j, each widened by 2^-(j + pad)."""
    for n, p in a_set.members_upto(members):
        j = j_of(n, rng)
        lo, hi = p.bracket(j)
        w = F(1, 1 << (j + pad)) if pad is not None else 0
        yield DyadicInterval(max(F(0), lo - w), min(F(1), hi + w))


def spike_grid(f, entry, rng):
    """First-hit scans: 16 random intervals and tight ones around the first
    members, every precision 0..12, thresholds either side of each spike
    value.  Spike count: thresholds on and off the spike values on random
    intervals, [0,1], [0, 2^-40] (with each 2^-j and 5/2^j down to 2^-11),
    and at 3/4 and 1/2 of each first spike."""
    if "spikes" in entry["groups"]:
        ivs = random_intervals(rng, 16, 9)
        ivs += member_intervals(f.a_set, rng, 0, j_of=lambda n, rng: rng.randrange(2, 12) + 1)
        for iv in ivs:
            yield from ((iv, k, None) for k in range(13))
            for j in range(-1, 14):
                for y in (F(1, 1 << (j + 1)), F(3, 1 << (j + 3))):
                    yield iv, None, y if j >= 0 else -y
    if "spike-count" in entry["groups"]:
        ys = [F(1, 2), F(3, 5), F(3, 4), F(1), F(5), F(1, 1 << 70), F(3, 1 << 72)]
        ys += [F(1, 1 << j) for j in range(1, 12)] + [F(5, 1 << j) for j in range(3, 12)]
        ivs = random_intervals(rng, 8, 9) + [UNIT, DyadicInterval(0, F(1, 1 << 40))]
        yield from ((iv, None, y) for iv, y in itertools.product(ivs, ys))
        for (n, _), iv in zip(f.a_set.members_upto(6), member_intervals(
                f.a_set, rng, None, j_of=lambda n, rng: n + 8)):
            yield from ((iv, None, f.spike_value(n) * c) for c in (F(3, 4), F(1, 2)))


def spike_bracket_grid(f, entry, rng):
    """Intervals that hug the members of the banded seed set, reach 0, or
    are random, each with the members in it; a scan that stopped early on a
    finite banded set once claimed sup 0 beside a live spike."""
    banded = tilde_set(f.source)
    ivs = [UNIT, DyadicInterval(0, F(1, 1 << rng.randrange(1, 12)))] + random_intervals(rng, 3, 9)
    ivs += member_intervals(banded, rng, 2, 14 if banded.size is None else banded.size,
                            lambda n, rng: rng.choice((n + 3, n + 10, rng.randrange(2, 31))))
    for iv in ivs:
        # member n lies below 2^-n, so the first 64 hold every member in iv
        assert iv.lower == 0 or iv.lower >= F(1, 1 << 40)
        inside = ref.brute_members_in(f.a_set, iv)
        yield from ((iv, k, None, inside) for k in (0, 2, 4, 7, 11))
        yield from ((iv, None, y, inside) for y in (F(0), F(1, 64), F(3, 1 << 12), F(1, 1 << 14)))


def spike_bracket_fast(f, iv, k, y, inside):
    if y is None:
        return f.range_on(iv, k)
    return f.witness_below(iv, y) if isinstance(f, CoverPsi) else f.witness_above(iv, y)


def spike_bracket_ref(f, iv, k, y, inside):
    """The exact inf of `CoverPsi` over iv, or the exact sup of a spike
    function, from the members inside iv, tested one by one."""
    if not isinstance(f, CoverPsi):
        return max([F(0)] + [f.spike_value(n) for n in inside if n >= f.start])
    return F(0) if f.a_set.size is None and iv.lower == 0 else min(
        [f.BASE] + [f.spike_value(n) for n in inside])


def spike_brackets_hold(f, got, want, iv, k, y, inside):
    """Each bracket holds the exact extreme and is at most 2^-k wide, the
    other side is exact, and each threshold answer agrees with the extreme
    (a YES carries a point of iv where f is past y)."""
    psi = isinstance(f, CoverPsi)
    if y is None:
        inner, outer = got if psi else got[::-1]
        return (inner.lo <= want <= inner.hi and inner.hi - inner.lo <= F(1, 1 << k)
                and outer == Bracket.point(f.BASE if psi else 0))
    truth, p = got
    if psi:
        return truth != (Truth.YES if want >= y else Truth.NO)
    return truth != (Truth.YES if want <= y else Truth.NO) and (
        p is None or (iv.contains(p) and f.eval(p) > y))


def near_zero_and_half(rng):
    """Intervals at 0 and 1/2, two points, and 20 drawn on the grid of 1024ths
    (points among them)."""
    ends = [(F(0), F(1, 1024)), (F(0), F(1, 3)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)),
            (F(1, 4), F(1, 2)), (F(15, 32), F(17, 32))]
    ends += [sorted(F(rng.randrange(0, 1025), 1024) for _ in range(2)) for _ in range(20)]
    return [DyadicInterval(lo, hi) for lo, hi in ends]


def cover_usco_grid(f, entry, rng):
    """Band boundaries, whole bands, runs of bands (some reaching past the
    cap), random intervals, tight ones around members, and intervals at 0
    and 1/2."""
    ivs = random_intervals(rng, 12, 12) + near_zero_and_half(random.Random(13))
    for n in range(0, 52, 4):
        edge = F(1, 1 << (n + 1))
        ivs += [DyadicInterval(edge, 2 * edge), DyadicInterval(edge / 4, edge),
                DyadicInterval(0, edge), DyadicInterval(edge, edge + edge / 8),
                DyadicInterval(edge - edge / 8, edge)]
        if n % 12 == 0:
            ivs += [DyadicInterval(edge / (1 << j), edge) for j in (8, 9, 10, 20)]
    ivs += member_intervals(f.a_set, rng, None, j_of=lambda n, rng: n + 8)
    return itertools.product(ivs, list(range(13)) + [24, 48])


def member_scan_intervals(f, rng):
    """Intervals around each of the first members of the seed set, from its
    bracket at 2^-80: for a rational member its point, and each end on it;
    for an irrational one the bracket and the intervals just past its ends.
    Also its bracket at a drawn precision, a rational member as a point,
    [0,1], random intervals and the span of two members, which a descending
    scan leaves at the first member below it."""
    pts = [p for _, p in f.a_set.members_upto(8)]
    ivs = [UNIT] + random_intervals(rng, 10, 9)
    for p in pts:
        w = F(1, 1 << rng.randrange(3, 12))
        lo, hi = p.bracket(80)
        ivs += [DyadicInterval(lo, hi), DyadicInterval(max(F(0), lo - w), lo),
                DyadicInterval(hi, min(F(1), hi + w)),
                DyadicInterval(*p.bracket(rng.randrange(2, 12)))]
        if p.is_rational:
            ivs.append(DyadicInterval(p.as_rational(), p.as_rational()))
    for p, q in zip(pts, pts[2:]):
        (lo, _), (_, hi) = min(p, q).bracket(80), max(p, q).bracket(80)
        ivs.append(DyadicInterval(lo, hi))
    return ivs


def member_scan_grid(f, entry, rng):
    """The member-scan intervals, each asked over windows that start at 0
    (or by default), inside the set, and at or past the limit, every start
    up to one past the limit for the limits up to 20."""
    windows = [(64, 0), (200, 0), (64, 3), (5, 2), (2, 6)] + [
        (limit, start) for limit in (0, 1, 3, 8, 20) for start in [None, *range(limit + 2)]]
    return itertools.product(member_scan_intervals(f, rng), windows)


def scan_proof_grid(f, entry, rng):
    """The member-scan intervals, the brackets of members 8-24 (past a scan
    limit of 8 or 16) and, on a descending set, the gaps between members
    n + 1 and n for n < 24 (the one below the limit ends a scan there), at
    precisions 0, 4, 12 and 60: scan limits 8, 8, 16 and 64, or the
    family's bounded window."""
    ivs = member_scan_intervals(f, rng)
    pts = [p for _, p in f.a_set.members_upto(25)]
    ivs += [DyadicInterval(*p.bracket(80)) for p in pts[8:]]
    if f.a_set.values_descend:
        ivs += [DyadicInterval(q.bracket(80)[1], p.bracket(80)[0]) for p, q in zip(pts, pts[1:])]
    return itertools.product(ivs, (0, 4, 12, 60))


def scan_proof(f, iv, k):
    """How the one first-hit scan at precision k ended (a hit, or a miss
    whose end lies below the scan limit or at it) and `top_spike`'s
    verdict: the largest spike's index, -1 for none, None for unknown."""
    n, limit = f.top_spike(iv, k)
    end = f.a_set.scan(iv, limit, f.start)
    if end.__class__ is tuple:
        return ("hit",), n
    return ("%s: %s" % ("ended below the limit" if end < limit else "ran to the limit", n),), n


def member_scan(f, iv, window):
    """The scan's hit, or None on a miss, and the members in iv, over the
    window (limit, start), start by default when None."""
    limit, start = window
    hit = f.a_set.scan(iv, limit, start or 0)
    args = (iv, limit) if start is None else (iv, limit, start)
    return (hit if hit.__class__ is tuple else None), f.a_set.members_in(*args)


def shift_grid(f, entry, rng):
    """The first 41 members of the source set in their own bands, where the
    banded copy shifts them (bands 0-40 of the sqrt2 family); 40 points of
    [0,1) (every other one rational) in bands 0-10; 40 drawn points of
    [-1,2] in bands 0-14; bands 21 and 22 near simple rationals; points
    that no rational of [-1,1] shifts into their band; and in bands 0-12,
    points whose lower end falls below -1 or upper end past 1, whose open
    lower end is an integer, and points with a negative sqrt2 part."""
    cases = [(p, n) for n, p in f.source.members_upto(41)]
    pts = [Q2(F(rng.randrange(1, 127), 128), F(1, 1 << rng.randrange(3, 30)) if i % 2 else 0)
           for i in range(40)]
    cases += [(p, n) for p in pts if p < 1 for n in range(11)]
    for _ in range(40):
        d, band = rng.randrange(1, 201), rng.randrange(15)
        a = F(rng.randrange(-d, 2 * d + 1), d)
        b = F(rng.choice((1, -1)), 1 << rng.randrange(41)) if rng.randrange(2) else 0
        cases.append((Q2(a, b), band))
    for n in range(13):
        w = F(1, 1 << n)
        cases += [(Q2(-1 + 3 * w / 4), n), (Q2(-1 + 3 * w / 4, F(-1, 1 << (n + 5))), n),
                  (Q2(1 + 3 * w / 4), n), (Q2(1 + w, F(-1, 1 << (n + 4))), n),
                  (Q2(w), n), (Q2(w - 1), n), (Q2(F(1, 3) + w), n),
                  (Q2(F(2, 3), F(-1, 1 << n)), n), (Q2(1, F(-1, 2)), n)]
    return cases + [(Q2(F(3, 7), F(1, 32)), 22), (Q2(F(5, 9), F(-1, 64)), 21), (Q2(-1), 0),
                    (Q2(F(5, 2)), 1), (Q2(3), 0)]


def band_grid(f, entry, rng):
    """The minimal-shift row's points and each point its shift moves into
    its band (an irrational point of that band when the point is
    irrational); and the points sqrt2/2^(n+40) either side of each band end
    2^-(n+1), n < 64, where 1/x lies just below or just above a power of
    two.  Each is read half-open and closed."""
    pts = []
    for a, n in shift_grid(f, entry, rng):
        pts.append(a)
        try:
            pts.append(a - minimal_shift_into_band(a, n))
        except ValueError:  # no rational of [-1,1] shifts it into band n
            pass
    pts += [Q2(F(1, 1 << (n + 1)), F(side, 1 << (n + 40))) for n in range(64) for side in (1, -1)]
    return [(x, half_open) for x in pts for half_open in (True, False)]


def index_grid(f, entry, rng):
    """Each member of the finite seed set, and each moved by sqrt2/2^50; the
    grid of depth 5 as `Fraction`s, with 0 and 1 also as `int`s; and the
    first six members of the sqrt2 family."""
    pts = [p for _, p in f.a_set.members_upto(f.a_set.size)]
    pts += [p + Q2(0, F(1, 1 << 50)) for p in pts] + rational_grid(UNIT, 5) + [0, 1]
    return [(x,) for x in pts + [S2(n) for n in range(6)]]


def osc_holds(f, got, brute, x):
    """Each sampled ball oscillation bounds the oscillation at x from above."""
    return all(b >= Q2.of(got.lo) - Q2.of(F(1, 1 << 18)) for b in brute)


def scope_grid(ks):
    """Rational and irrational points, members of a seed set, 0 and 1, each
    asked for the precisions ks ascending, descending and shuffled; and the
    entry's own points, each with its precisions ascending and descending."""
    def grid(f, entry, rng):
        pts = [F(0), F(1), F(1, 2), F(1, 3), F(5, 16), S2(1), Q2(F(1, 3), F(1, 8))]
        if hasattr(f, "a_set"):
            pts += [p for _, p in f.a_set.members_upto(2)]
        own = [(p, order) for p, own_ks in entry.get("regulation", [])
               for order in (own_ks, own_ks[::-1])]
        return [(p, order) for p in pts for order in (ks, ks[::-1], rng.sample(ks, len(ks)))] + own
    return grid


def windows_read(regulated):
    """A row side: regulated(f, p, m, k) and the (window, precision) pairs it
    reads through f's `_range_on` hook, which `range_on` calls on a
    nondegenerate window inside [0,1] and the fast side calls directly."""
    def run(f, p, m, k):
        seen, read = [], f._range_on

        def spy(iv, prec):
            seen.append((iv, prec))
            return read(iv, prec)
        f._range_on = spy
        try:
            return regulated(f, p, m, k), seen
        finally:
            del f._range_on
    return run


def windows_grid(f, entry, rng):
    """Rational and irrational points, the ends of [0,1] and a seed among
    them, over a grid of (m, k)."""
    pts = [Q2.of(x) for x in (0, 1, F(1, 2), F(1, 3), F(5, 7), F(3, 8))]
    pts += [S2(0), S2(3), Q2(F(1, 3), F(1, 32)), RATIONAL_SEEDS.member(0)]
    return itertools.product(pts, range(0, 12, 2), (0, 1, 3, 6))


def in_one_scope(modulus):
    """A row side that asks modulus(f) at p for each k in turn inside one
    query scope, where each answer may start from what the ones before it
    kept."""
    def run(f, p, ks):
        m = modulus(f)
        with query_scope():
            return [ref.outcome(lambda: m(p, k)) for k in ks]
    return run


# --- the sup-functional reductions ---

# the integer walks over a seed set, and their Fraction references
WALKS = {"extract": (extract_enumeration_from_sup, ref.fraction_extraction),
         "realise": (realiser_from_sup, ref.fraction_realiser)}
HONEST = (exhaustive_sup_oracle, ref.fraction_sup_oracle)


def walk_side(side):
    """A row side that runs the walk (side 0) or its reference (side 1) on a
    fresh oracle behind a spy: its outcome and the log of queries and answers."""
    def run(f, walk, oracles, k, rounds):
        log, oracle = [], oracles[side]()

        def sup(g, iv):
            log.append((g.kind, g.start, iv.lower, iv.upper, oracle.sup(g, iv)))
            return log[-1][-1]
        return ref.outcome(lambda: WALKS[walk][side](SupOracle(sup), f.a_set, k, rounds)), log
    return run


def honest_grid(f, entry, rng):
    """Every k in 0..16 over 16 rounds, every round count in 1..16, four k
    over 5 rounds, a realiser."""
    pairs = [(k, 16) for k in range(17)] + [(r % 4, r) for r in range(1, 16)]
    pairs += [(k, 5) for k in (0, 1, 7, 16)]
    return [("extract", HONEST, k, rounds) for k, rounds in pairs] + [
        ("realise", HONEST, 16, 16)]


def extracts_every_round(f, got, want, walk, oracles, k, rounds):
    size, answer = f.a_set.size, got[0]
    return got == want and not isinstance(answer, tuple) and (
        walk == "realise" or len(answer) == (rounds if size is None else min(rounds, size)))


def liar(at, wrong):
    """The honest oracle, except that its at-th answer is wrong(answer)."""
    honest = exhaustive_sup_oracle()
    calls = []

    def sup(f, iv):
        calls.append(None)
        s = honest.sup(f, iv)
        return wrong(s) if len(calls) == at else s
    return SupOracle(sup)


LIARS = [lambda s=s: SupOracle(lambda f, iv: s)
         for s in (F(1, 2), F(1), F(-1, 2), F(3, 8), F(2), F(0), F(1, 4), 0)]
# answers every interval with the round's true supremum: each round's value
# is right, so only the located intervals are wrong
LIARS += [lambda: SupOracle(lambda f, iv, honest=exhaustive_sup_oracle(): honest(f, 0, 1))]
LIARS += [lambda at=at, wrong=wrong: liar(at, wrong) for at in range(1, 30)
          for wrong in (lambda s: 2 * s, lambda s: s / 2, lambda s: F(0), lambda s: 1 - s,
                        lambda s: s + F(1, 1024), lambda s: -s)]


def liar_grid(f, entry, rng):
    """Constant liars and liars that bend one answer, asked by both walks."""
    return [(walk, (lie, lie), *entry["liars"]) for lie in LIARS for walk in WALKS]


def cliq_levels(f, k, fuel):
    """The (n, c, d) of each level at which `realiser_from_cliq_modulus`
    asks the honest modulus, after its probes at the first members."""
    honest, calls = canonical_cliq_modulus(f.a_set), []

    def spy(x, k, n):
        c, d = honest(x, k, n)
        calls.append((n, c, d))
        return c, d
    realiser_from_cliq_modulus(spy, f.a_set, k, fuel=fuel)
    return calls[-max(k + 2, fuel + 1):]


def demo_report(demo):
    """A row side: the demo report on the entry's seed set at depths 8 and
    16, and its canonical JSON."""
    def run(f):
        rep = demo(f.a_set, (8, 16))
        return rep, dumps(rep.to_jsonable())
    return run


def sup_oracle_grid(f, entry, rng):
    """Every pair of 20 ends: reversed pairs and ends outside [0,1] among them."""
    ends = [F(0), F(1), F(1, 2), F(3, 8), F(1, 4), F(5, 7), F(-1, 2), F(3, 2)]
    ends += [random_dyadic(rng, 8) for _ in range(12)]
    return itertools.product(ends, ends)


# --- the grid baseline ---

# ends with denominators 3, 5 and 7, none on a dyadic grid, and a member of
# MIXED_SEEDS (1/3) as an end
_GRID_ENDS = [(F(1, 3), F(5, 7)), (F(2, 5), F(3, 5)), (F(1, 7), F(2, 3)), (F(0), F(1, 3))]


def grid_baseline_grid(f, entry, rng):
    """[0,1], two random dyadic subintervals and the ends above, at every
    depth 0..12 on a spike family (which reads the grid off its structure)
    and 0..10 on the others (whose grid both sides scan)."""
    ivs = [(F(0), F(1))] + [random_subinterval(rng) for _ in range(2)] + _GRID_ENDS
    return [(p, q, depth) for p, q in ivs for depth in range(13 if hasattr(f, "a_set") else 11)]


# --- the rows ---

ROWS = [
    Row("value-below-on-ball", search(mu_search), search(ref.plain_value_below_on_ball),
        ("walk", "ball", "slack-inf"), value_below_grid, budget=("value-below walks", 60),
        kinds=WALK_KINDS),
    Row("osc-below", search(mu_search), search(ref.plain_osc_below), ("walk", "ball", "margin"),
        osc_grid, budget=("osc walks", 60), kinds=WALK_KINDS),
    Row("modulus-continuity-qc", lambda f, fuel, x, m: modulus_continuity_qc(f, fuel)(x, m),
        lambda f, fuel, x, m: ref.plain_modulus_continuity(f, fuel)(x, m),
        ("walk", "slack-continuity"),
        lambda f, entry, rng: itertools.product(FUELS, POINTS, (0, 2, 5)),
        budget=("continuity walks", 3), refusals=True),
    Row("point-of-continuity-qc", point_of_continuity_qc, ref.plain_point_of_continuity_qc,
        ("walk", "slack-continuity", "continuity-point"),
        lambda f, entry, rng: itertools.product([0, 2, 5, 8] + entry.get("continuity-point", []),
                                                FUELS),
        budget=("continuity points", 1), refusals=True),
    Row("point-of-continuity-usco",
        lambda f, k, fuel: point_of_continuity_usco(f, natural_usco_modulus(f, fuel), k, fuel),
        ref.plain_point_of_continuity_usco, ("continuity-usco",),
        lambda f, entry, rng: itertools.product(range(2, 9), (8, 64)), refusals=True),
    Row("regulation-resume", in_one_scope(lambda f: modulus_regulation(f, 24)),
        lambda f, p, ks: [ref.outcome(lambda: modulus_regulation(f, 24)(p, k)) for k in ks],
        ("regulation",), scope_grid([0, 1, 3, 6])),
    Row("regulation-windows",
        windows_read(lambda f, p, m, k: regulated_within(f, p, m, k, limit_pair(f, p, k))),
        windows_read(ref.fraction_regulated_within), ("regulation-windows",), windows_grid),
    Row("usco-radius-scope", in_one_scope(lambda f: natural_usco_modulus(f, 32)),
        lambda f, p, ks: [ref.outcome(lambda: ref.plain_usco_radius(f, p, k, 32)) for k in ks],
        ("continuity-usco",), scope_grid([0, 3, 7, 12, 18])),
    Row("poly", poly_fast, poly_ref, ("poly",), poly_grid),
    Row("value-candidates", lambda f, iv: (sorted(f._value_candidates(iv)), f.range_on(iv, 10)),
        scan_ref, ("scan",), scan_grid),
    Row("piecewise-build", lambda f, kind, *args: built_table(BUILDS[kind][0](f, *args)),
        lambda f, kind, *args: ref.plain_table(*BUILDS[kind][1](f, *args)), ("piecewise-build",),
        build_grid),
    Row("locate", lambda f, x: f._locate(x), ref.linear_locate, ("locate", "scan", "variation"),
        locate_grid, refusals=True, min_checks=1081),
    Row("running-variation", variation_sides, ref.walked_variation,
        ("variation", "running-variation"),
        lambda f, entry, rng: [(x,) for x in ref.cell_probes(f)], variation_holds,
        min_checks=175),
    Row("total-variation", lambda f, x: total_variation_nbv(f, x, 10),
        lambda f, x: ref.partition_brute_variation(f, x, ref.variation_candidates(f), 12),
        ("variation",), lambda f, entry, rng: [(F(1, 2),), (F(1),)],
        lambda f, got, brute, x: Q2.of(got.lower) - Q2.of(F(1, 256)) <= brute
        <= Q2.of(got.upper)),
    Row("modulus-qc", lambda f, x, n, k: modulus_qc(f, x, k, n, fuel=8),
        lambda f, x, n, k: ref.sorted_fraction_modulus_qc(f, x, k, n, fuel=8),
        ("modulus-qc",), lambda f, entry, rng: itertools.product(
            [F(1, 2), F(5, 16), F(1, 3), S2(0)], (0, 1, 3, 5), (0, 3, 6, 9)), refusals=True),
    Row("probe-points", basis_at, ref.plain_probe_points, ("probe",), probe_grid, refusals=True),
    Row("tag-witness", claims, ref.witnessed, ("tag-witness",), tag_grid,
        lambda f, got, want, tag, *args: (got == ((tag,),)) == want,
        kinds=frozenset(WITNESSED_TAGS) | {"not " + t for t in (USCO, REGULATED, BV)}),
    Row("cousin-subcover", lambda psi: cousin_subcover(psi), least_covering_prefix,
        ("gauge",), lambda f, entry, rng: [()]),
    Row("exists-value", search(mu_search), search(ref.plain_exists), ("exists",), exists_grid),
    Row("sup-baire1-halving", halving_side(mu_search), halving_side(ref.plain_baire1_above),
        ("halving",), halving_grid, lambda f, got, want, *args: got == want
        and len(got[0]) > args[-1], ("one probe state", 20)),
    Row("sup-baire1", sup_baire1_twice, lambda f, *args: [ref.plain_sup_baire1(f, *args)] * 2,
        ("halving",), sup_baire1_grid, budget=("sup_baire1 runs", 15), kinds=frozenset({
            "DyadicInterval", "limit value indistinguishable from the threshold"})),
    Row("probe-state", state_depths, ref.plain_depths, ("probe", "exists", "baire1"), state_grid,
        budget=("probe states", 20)),
    Row("baire1-above", search(mu_search), search(ref.plain_baire1_above), ("baire1",),
        lambda f, entry, rng: [(Baire1Above(f, DyadicInterval(*iv), y, fuel),)
                               for iv, y, fuel in entry["baire1"]],
        budget=("one probe state", 20)),
    Row("sup-qc", *halving_sides(sup_qc, True), ("sup-qc",), halving_args,
        budget=("kept range bracket", 20)),
    Row("inf-usco", *halving_sides(inf_usco, False), ("inf-usco",), halving_args,
        budget=("kept range bracket", 20)),
    Row("sum-range", lambda f, iv, k, breaks: f.range_on(iv, k),
        lambda f, iv, k, breaks: ref.sum_reference(f, breaks, iv), ("sum",),
        lambda f, entry, rng: [(DyadicInterval(p, q), k, ref.breakpoints(entry["fn"]))
                               for (p, q), k in itertools.product(entry["sum"], (4, 8))],
        brackets_hold, ("sum ranges", 5)),
    Row("spike-scans",
        lambda f, iv, k, y: f.range_on(iv, k) if y is None else f.witness_above(iv, y),
        lambda f, iv, k, y: ref.plain_witness_above(f, iv, y) if y is not None
        else (Bracket.point(0), Bracket(*ref.plain_sup(f, iv, k))), ("spikes", "spike-count"),
        spike_grid, min_checks=32266),
    Row("spike-brackets", spike_bracket_fast, spike_bracket_ref, ("spike-brackets",),
        spike_bracket_grid, spike_brackets_hold, min_checks=15000),
    Row("range-brute", lambda f, iv: f.range_on(iv, 12), lambda f, iv: ref.brute_values(f, iv, 7),
        ("range-brute",), brute_grid, values_held, min_checks=242),
    Row("osc-exact", lambda f, x: osc_exact(f, x, 20),
        lambda f, x: [ref.brute_ball_osc(f, x, n, depth=6) for n in (4, 8, 12)], ("osc-exact",),
        lambda f, entry, rng: [(x,) for x in [p for _, p in f.a_set.members_upto(4)] + [
            F(1, 3), F(0)]], osc_holds),
    Row("below-witness", lambda f, iv: f._witness_below(iv, F(1, 8)), ref.grid_below_witness,
        ("below-witness",),
        lambda f, entry, rng: [(DyadicInterval(*iv),) for iv in entry["below"]]),
    Row("cover-usco-range", lambda f, iv, k: f.range_on(iv, k), ref.plain_cover_usco_range,
        ("cover-usco",), cover_usco_grid),
    Row("member-scan", member_scan, lambda f, iv, window: ref.plain_member_scan(
        f.a_set, iv, window[0], window[1] or 0), ("member-scan",), member_scan_grid,
        min_checks=8075),
    Row("scan-proof", scan_proof, ref.plain_top_spike, ("scan-proof",), scan_proof_grid,
        kinds=frozenset({"hit", "ended below the limit: -1", "ran to the limit: -1",
                         "ran to the limit: None"}), min_checks=3256),
    Row("index-of", lambda f, x: f.a_set.index_of(x), lambda f, x: ref.linear_index(f.a_set, x),
        ("index-of",), index_grid, min_checks=1032),
    Row("minimal-shift", lambda f, a, n: minimal_shift_into_band(a, n),
        lambda f, a, n: ref.plain_minimal_shift(a, n), ("minimal-shift",), shift_grid,
        refusals=True, min_checks=1248),
    Row("band-of", lambda f, x, half_open: band_of(x, half_open),
        lambda f, x, half_open: ref.q2_band_of(x, half_open), ("minimal-shift",), band_grid,
        min_checks=5424),
    Row("grid-baseline", naive_rational_sup, ref.plain_grid_max, ("grid-baseline",),
        grid_baseline_grid, budget=("grid baselines", 30), min_checks=3478),
    Row("cliq-levels", cliq_levels, lambda f, k, fuel: ref.plain_cliq_walk(f.a_set, k, fuel),
        ("cliq",), lambda f, entry, rng: [(10, 16), (8, 4), (6, 8), (9, 12)]),
    Row("sup-oracle", lambda f, p, q: exhaustive_sup_oracle()(f, p, q), ref.fraction_sup,
        ("sup-oracle",), sup_oracle_grid, refusals=True),
    Row("demo-abyss", demo_report(demo_abyss), demo_report(ref.two_pass_demo), ("demo",),
        lambda f, entry, rng: [()]),
    Row("sup-extraction", walk_side(0), walk_side(1), ("extraction", "bisection"), honest_grid,
        extracts_every_round),
    Row("lying-oracles", walk_side(0), walk_side(1), ("liars",), liar_grid, kinds=frozenset({
        "supremum grew on a subinterval", "supremum vanished on both halves",
        "supremum 1 is not a spike value", "supremum -1/2 is not a spike value",
        "extracted interval misses the member it located"})),
]

CASES = [(row, name) for row in ROWS for name, entry in ENTRIES.items()
         if set(row.accepts) & set(entry["groups"])]
COUNT = Counter(row.name for row, _ in CASES)
# the number of cases that share each budget
SHARES = Counter(row.budget[0] for row, _ in CASES if row.budget)
# per row: the kinds and messages its answers showed, its checks, its finished cases
SEEN = {row.name: [set(), 0, 0] for row in ROWS}


@pytest.fixture(scope="module", autouse=True)
def every_row_shows_its_answers():
    """After all of a row's cases: its answers showed each kind it names, and enough checks."""
    yield
    for row in ROWS:
        shown, checks, done = SEEN[row.name]
        if done == COUNT[row.name]:
            assert row.kinds <= shown and checks >= row.min_checks, (row.name, shown, checks)


@pytest.mark.parametrize("row, name", CASES, ids=["%s/%s" % (r.name, name) for r, name in CASES])
def test_fast_path_answers_as_its_reference(row, name, request):
    if row.budget:
        request.getfixturevalue("deadline")(row.budget[1] / SHARES[row.budget[0]])
    f, entry, seen = make(name), ENTRIES[name], SEEN[row.name]
    answer = ref.outcome if row.refusals else (lambda run: run())
    for args in row.grid(f, entry, random.Random("%s/%s" % (row.name, name))):
        got = answer(lambda: row.fast(f, *args))
        want = answer(lambda: row.ref(f, *args))
        assert row.agree(f, got, want, *args) if row.agree else got == want, (args, got, want)
        if row.kinds:  # a refusal shows its type name and message
            seen[0] |= set(got[0]) if isinstance(got[0], tuple) else {type(got[0]).__name__}
        seen[1] += 1
    seen[2] += 1


def test_a_deadline_leaves_the_failure_report_to_pytest(pytester):
    """A budget fails a case that runs long, yet a case that fails in time
    reports its own error, even when formatting the error outlasts the
    deadline: the alarm is off once the test body ends, whether the test
    named the fixture or asked for it through `request.getfixturevalue`, as
    a budgeted row does.  The deadline counts CPU time, so the formatting
    spins rather than sleeps."""
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile("""
        import time

        class SlowToRead(Exception):
            def __str__(self):
                start = time.process_time()
                while time.process_time() - start < 0.5:
                    pass
                return "the case's own message"

        def test_fails_in_time(deadline):
            deadline(0.2)
            raise SlowToRead()

        def test_fails_in_time_asked_by_request(request):
            request.getfixturevalue("deadline")(0.2)
            raise SlowToRead()
    """)
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=2)
    result.stdout.fnmatch_lines(["E   *SlowToRead: the case's own message"] * 2)


def test_every_row_reads_two_entries_and_every_entry_feeds_a_row():
    for row in ROWS:
        assert COUNT[row.name] >= 2, row.name
    assert {name for _, name in CASES} == set(ENTRIES)
    # the transcript seed sets: finite sets of 1..12 points and their banded copies
    sizes = [make(name).a_set.size for name, e in ENTRIES.items() if "extraction" in e["groups"]]
    assert sorted(s for s in sizes if s) == sorted(list(range(1, 13)) * 2)
    # the variation rows walk a cell that ends at a vertex inside a piece
    assert Q2.of(F(1, 2)) in make("bumps").special_points(DyadicInterval(0, 1), 0)


def test_the_shift_grid_reaches_every_branch_of_the_walk():
    """On each minimal-shift entry the cases hold a target interval (lo, hi]
    = (a - 2^-n, a - 2^-(n+1)] whose lower end lies below -1, one whose
    upper end lies past 1 (each holds that integer), an open lower end
    that is an integer (the walk's first step sends its upper end to
    infinity), a negative sqrt2 part, and refusals; the sqrt2 family's
    cases are its members in bands 0-40."""
    for name in [n for n, e in ENTRIES.items() if "minimal-shift" in e["groups"]]:
        f, shown = make(name), Counter()
        cases = shift_grid(f, ENTRIES[name], random.Random("minimal-shift/%s" % name))
        for a, n in cases:
            lo, hi = a - F(1, 1 << n), a - F(1, 1 << (n + 1))
            if lo >= 1 or hi < -1:
                shown["refused"] += 1
                continue
            shown["below -1"] += lo < -1
            shown["past 1"] += hi > 1
            shown["open integer end"] += lo >= -1 and lo.is_rational and lo.d == 1
            shown["negative sqrt2 part"] += a.q < 0
        assert len(shown) == 5 and all(shown.values()), (name, shown)
        if f.source.size is None:
            assert [(a, n) for a, n in cases if a == S2(n)] == [(S2(n), n) for n in range(41)]


def test_every_reference_is_called_from_a_test():
    """A reference whose check has moved or gone fails here instead of
    rotting: every public function of `references.py` is read in some test
    module as `ref.<name>` or imported by name from `references`, and a name
    no test reads shows."""
    here = Path(__file__).parent
    public = {node.name for node in ast.parse((here / "references.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    read = set()
    for path in here.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "references":
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ref":
                read.add(node.attr)
    assert sorted(public - read) == []


# --- the order of the Baire-category candidates, not a function of the catalogue ---


def test_interior_candidates_come_nearest_the_midpoint_first(deadline):
    """The merged walk down and up from the midpoint lists the candidates
    in the sorted order, ties to the lower one, at depths 0..13 on 600
    seeded intervals: dyadic and other denominators, ends outside [0,1],
    and degenerate intervals."""
    deadline(10)
    rng, shown = random.Random("interior order"), Counter()
    for _ in range(600):
        d = rng.choice((1, 2, 3, 8, 12, 64, 96, rng.randrange(1, 5000)))
        a, width = rng.randrange(-d, 2 * d), rng.randrange(2 * d + 1) if rng.randrange(8) else 0
        iv = DyadicInterval.of_ints(a, a + width, d)
        shown["degenerate"] += iv.ln == iv.un
        shown["not dyadic"] += iv.d & (iv.d - 1) != 0
        for depth in range(14):
            got = list(interior_numerators(iv, depth))
            assert got == ref.sorted_interior_numerators(iv, depth), (iv, depth, got)
            # a tie: the first two candidates sit as far below the midpoint as above
            shown["tie"] += len(got) > 1 and iv.d * (got[0] + got[1]) == (iv.ln + iv.un) << depth
    assert all(shown[kind] for kind in ("degenerate", "not dyadic", "tie")), shown


# --- a conversion of sets, not a function of the catalogue ---


def random_open_set(rng):
    """Up to four open intervals with ends in [-1/4, 5/4] over denominators
    3, 4, 6 and 16, the stream's own ends among them; a step of one end
    makes two intervals touch."""
    d = rng.choice((3, 4, 6, 16))
    ends = sorted({F(rng.randrange(-d // 4, d + d // 4 + 1), d)
                   for _ in range(rng.randrange(1, 9))})
    spans, i = [], 0
    while i + 1 < len(ends):
        spans.append((ends[i], ends[i + 1]))
        i += rng.choice((1, 2))
    return R2Rep.from_intervals(spans)


def one_interval(rng, i):
    """An interval from j/16, 1/16 to 7/16 long, or (every other one) 2^-r
    long: a seed radius that is itself a power of two meets its bound."""
    a = F(rng.randrange(0, 16), 16)
    return R2Rep.from_intervals([(a, a + (F(rng.randrange(1, 8), 16) if i % 2
                                          else F(1, 1 << rng.randrange(1, 5))))])


def test_rm_code_answers_as_the_set_reads(deadline):
    """The conversion's one range read per interval against the interval
    test on the set's own open intervals, over 200 seeded sets and 12 single
    intervals: touching intervals, ends outside [0,1], empty sets, sets that
    miss (0, 1), and a seed ball whose radius is the set's own radius at its
    centre (only the seed ball can be: an interval's ball sits strictly
    inside the set)."""
    deadline(20)
    rng, shown = random.Random("rm-code"), Counter()
    for o in [random_open_set(rng) for _ in range(200)] + [one_interval(rng, i) for i in range(12)]:
        shown["touching"] += any(b == a for (_, b), (a, _) in zip(o.intervals, o.intervals[1:]))
        shown["outside"] += any(a < 0 or b > 1 for a, b in o.intervals)
        shown["misses"] += all(b <= 0 or a >= 1 for a, b in o.intervals) and o.intervals != ()
        for fuel in (0, 16, 64):
            got = ref.outcome(lambda: rm_code_from_r2_baire1(o, indicator_baire1(o), fuel))
            want = ref.outcome(lambda: ref.plain_rm_code(o, fuel))
            assert got == want, (o, fuel, got, want)
            if not isinstance(got, RMCode):
                kind = got[0]
            else:  # the empty code, the seed alone, or intervals besides it
                kind = ("empty", "seed", "many")[min(len(set(got.prefix)), 2)]
                shown["power"] += any(r == o.radius(c) for c, r in got.prefix)
            shown[kind] += 1
    assert all(shown[kind] for kind in ("touching", "outside", "misses", "empty", "seed",
                                        "many", "power")), shown
