"""The instances the differential tests run on, each written once.

An entry is plain data: an abyss/1 function document ("fn"), the row groups
of `test_differential.py` that read it ("groups"), and for some groups the
arguments their rows ask of it, under the group's name.  `make(name)` builds
a fresh instance through `serialize.fn_from_json` at every use.  No instance
keeps query state (what a halving learns lives in its query scope), so a
fresh instance and a shared one answer alike; a fresh one keeps the methods
a test patches on it to that test.  A test double with no document kind is
a named builder ("wrap", `WRAPS`) around the document's function."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

from sympy import primefactors

from abyss import (Baire1Limit, ComplementOfR2Open, CountableSet, CoverPsi, CoverPsiUsco,
                   FinitePointSet, FuelExhausted, Indicator, Penny, PennyK, PiecewiseRational,
                   Poly, Q2, R2Rep, TildePenny, constant, constant_seq_limit, finite_set,
                   fn_difference, fn_sum, linear, pennyk_limit, restrict_tags, scalar_multiple,
                   sqrt2_family, staircase, thomae, unit_rationals)
from abyss.composites import RestrictedView, ScalarMultiple, Sum
from abyss.exact import Bracket
from abyss.serialize import dumps, fn_from_json, fn_json
from abyss.universe import BAIRE1, BV, CLIQUISH, QUASI_CONTINUOUS, REGULATED, USCO

S2 = Q2.sqrt2_scaled
A = sqrt2_family()
build = fn_from_json


# --- seeded generators of documents, sets and intervals ---


def random_dyadic(rng: random.Random, depth=6) -> F:
    return F(rng.randrange(0, (1 << depth) + 1), 1 << depth)


def random_cuts(rng, max_interior=4):
    interior = sorted({random_dyadic(rng) for _ in range(rng.randrange(1, max_interior + 1))}
                      - {F(0), F(1)})
    return [F(0)] + interior + [F(1)]


def random_continuous_piecewise(rng) -> dict:
    """Continuous piecewise-linear interpolation through random dyadic knots,
    with an occasional quadratic piece matched at both ends."""
    cuts = random_cuts(rng)
    knots = [F(rng.randrange(-8, 9), 8) for _ in cuts]
    pieces = []
    for (a, b), (ya, yb) in zip(zip(cuts, cuts[1:]), zip(knots, knots[1:])):
        slope = (yb - ya) / (b - a)
        if rng.random() < 0.3:
            # quadratic with the same endpoints: add c2 (x-a)(x-b)
            c2 = F(rng.randrange(-4, 5), 4)
            pieces.append(Poly(ya - slope * a + c2 * a * b,
                               slope - c2 * (a + b), c2))
        else:
            pieces.append(Poly(ya - slope * a, slope))
    return fn_json(PiecewiseRational(cuts, pieces, [Q2.of(v) for v in knots]))


def random_staircase(rng) -> dict:
    return fn_json(staircase([(c, F(rng.randrange(-8, 9), 8)) for c in random_cuts(rng)[1:-1]]))


def random_staircase_plus_linear(rng) -> dict:
    return fn_json(fn_sum(build(random_staircase(rng)), linear(F(rng.randrange(0, 5), 4))))


def distinct_points(size, draw, inside=lambda p: 0 < p < 1) -> list:
    """size distinct points drawn by draw(), each kept if inside it."""
    pts = []
    while len(pts) < size:
        p = draw()
        if inside(p) and all(p != e for e in pts):
            pts.append(p)
    return pts


def random_finite_set(rng, max_size=12) -> CountableSet:
    size = rng.randrange(1, max_size + 1)
    return finite_set(distinct_points(size, lambda: Q2(
        random_dyadic(rng, 7), F(1, 1 << rng.randrange(2, 40)))), name="random-%d" % size)


def random_subinterval(rng, depth=5):
    lo, hi = sorted((random_dyadic(rng, depth), random_dyadic(rng, depth)))
    if lo == hi:  # one grid step wide, inside [0,1]
        hi = min(F(1), lo + F(1, 1 << depth))
        lo = min(lo, hi - F(1, 1 << depth))
    return lo, hi


def part(rng, slot):
    """A part of a sum, drawn on the slot's own grid: j/7, j/9 or j/11 for
    the rational breakpoints and j/8 + sqrt2/2^m with m in {4, 5}, {6, 7} or
    {8, 9} for the spike members, so the breakpoints of two slots never
    meet."""
    grid = [F(j, 7 + 2 * slot) for j in range(1, 7 + 2 * slot)]
    pick = rng.randrange(7)
    if pick == 0:
        f = Indicator(FinitePointSet.of(sorted(rng.sample(grid, rng.randrange(1, 4)))))
    elif pick == 1:
        breaks = sorted(rng.sample(grid, 2 * rng.randrange(1, 3)))
        spans = list(zip(breaks[::2], breaks[1::2]))
        f = Indicator(ComplementOfR2Open(R2Rep.from_intervals(spans)))
    elif pick in (2, 3):
        breaks = [F(j, 8) + S2(0) / (8 << (2 * slot + rng.randrange(2)))
                  for j in rng.sample(range(8), rng.randrange(1, 5))]
        a_set = finite_set(breaks)
        f = Penny(a_set) if pick == 2 else PennyK(a_set, rng.randrange(len(breaks)))
    elif pick == 4:
        breaks = sorted(rng.sample(grid, rng.randrange(1, 4)))
        f = staircase([(b, F(rng.randrange(-4, 5), 4)) for b in breaks])
        if rng.random() < 0.5:
            f = fn_sum(f, linear(F(rng.randrange(-4, 5), 4)))
    elif pick == 5:
        f = linear(F(rng.randrange(-4, 5), 4), F(rng.randrange(-4, 5), 8))
    else:
        f = constant(F(rng.randrange(-4, 5), 8))
    if rng.random() < 0.5:
        f = scalar_multiple(rng.choice([F(-3, 2), F(-1), F(0), F(1, 2), F(5, 4)]), f)
    return f


def seed_sets():
    """The sqrt2 family, and per size 1-14 the seeds 1/3 + sqrt2/2^(i+5)
    and a seeded random irrational set."""
    rng = random.Random(2301)
    out = [A]
    for size in range(1, 15):
        out.append(finite_set([Q2(F(1, 3), F(1, 1 << (i + 5))) for i in range(size)]))
        out.append(finite_set(distinct_points(size, lambda: Q2(
            F(rng.randrange(1, 64), 64), F(rng.choice((1, -1)), 1 << rng.randrange(7, 40))),
            lambda p: True)))
    return out


def transcript_seed_sets():
    """The sqrt2 family and finite sets of 1..12 irrational points."""
    rng = random.Random(73)
    return [A] + [finite_set(distinct_points(n, lambda: Q2(
        random_dyadic(rng, 7), F(1, 1 << rng.randrange(2, 40))))) for n in range(1, 13)]


RATIONAL_SEEDS = finite_set([Q2(F(1, 4), F(1, 16)), F(3, 8), F(1, 2), F(5, 7)])
IRRATIONAL_SEEDS = finite_set([Q2(F(3, 4), F(1, 64)), Q2(F(1, 3), F(1, 32)),
                               Q2(F(1, 8), F(1, 128))])
MIXED_SEEDS = finite_set([S2(2), F(1, 3), Q2(F(1, 2), F(1, 64)), F(5, 8), S2(0), F(1, 16)])


# --- test doubles with no document kind ---


class FussyPenny(Penny):
    """The spike function, refusing to bracket a ball narrower than 2^-40."""

    def _range_on(self, iv, k):
        if (iv.un - iv.ln) << 40 < iv.d:
            raise FuelExhausted("ball narrower than 2^-40")
        return super()._range_on(iv, k)


class Blurred(PiecewiseRational):
    """f with brackets centred on the exact value and never exact: the
    witness of a threshold at a rational extremum answers UNKNOWN."""

    def __init__(self, f):
        super().__init__(f.cuts, f.pieces, f.bp_values)

    def _range_on(self, iv, k):
        inf_b, sup_b = super()._range_on(iv, k)
        assert inf_b.exact and sup_b.exact
        w = F(1, 2 << k)
        return Bracket(inf_b.lo - w, inf_b.lo + w), Bracket(sup_b.lo - w, sup_b.lo + w)


class Slack(RestrictedView):
    """f with brackets as loose as `range_on`'s contract allows: each holds
    the exact value and is 2^-k wide.  On a ball narrower than 2^-30 the
    value sits at the inner end (the inf bracket's top, the sup bracket's
    bottom), on a wider ball at the outer end.  So the smallest ball's
    brackets sit as far as they may from the others', which the early miss
    must allow for with its margins."""

    def __init__(self, f):
        super().__init__(f, f.tags)

    def _range_on(self, iv, k):
        inf_b, sup_b = self.f.range_on(iv, k)
        assert inf_b.exact and sup_b.exact
        w, narrow = F(1, 1 << k), (iv.un - iv.ln) << 30 < iv.d
        if narrow:
            return Bracket(inf_b.lo - w, inf_b.lo), Bracket(sup_b.lo, sup_b.lo + w)
        return Bracket(inf_b.lo, inf_b.lo + w), Bracket(sup_b.lo - w, sup_b.lo)


def generic_limit(a_set, tags=(BAIRE1,)):
    """The truncations of the spike function with the convergence modulus
    alone: no stabilizer, so each value is decided through the modulus."""
    return Baire1Limit(lambda n: PennyK(a_set, n), conv_modulus=lambda x, j: j, tags=tags)


def all_unit_rationals() -> CountableSet:
    """Q cap [0,1] in `unit_rationals` order with its exact inverse: a seed
    set that holds every dyadic rational.  Fraction p/d (d >= 2) has index
    2 + phi(2) + ... + phi(d - 1) + #{1 <= p' < p : gcd(p', d) = 1}."""
    gen, listed = unit_rationals(), []
    phi_sums = [0, 0, 0]  # phi_sums[d] = phi(2) + ... + phi(d - 1)

    def member(n):
        while len(listed) <= n:
            listed.append(next(gen))
        return listed[n]

    def coprime_below(p, d):  # by inclusion and exclusion over d's primes
        primes = primefactors(d)
        return sum((-1) ** r * ((p - 1) // math.prod(c))
                   for r in range(len(primes) + 1) for c in itertools.combinations(primes, r))

    def index_of(x):
        if not x.is_rational or x < 0 or x > 1:
            return None
        r = x.as_rational()
        p, d = r.numerator, r.denominator
        if d == 1:
            return p
        while len(phi_sums) <= d:
            j = len(phi_sums) - 1
            phi_sums.append(phi_sums[-1] + coprime_below(j + 1, j))
        return 2 + phi_sums[d] + coprime_below(p, d)

    return CountableSet(member, index_of, name="unit-rationals")


# name -> the test double built around the document's function
WRAPS = {"constant-seq-limit": constant_seq_limit,
         "generic-limit": lambda f: generic_limit(f.a_set), "slack": Slack,
         "unit-rationals": lambda f: Penny(all_unit_rationals(), start=f.start)}


# --- the entries ---

ENTRIES: dict[str, dict] = {}
_NAMES: dict[str, str] = {}  # canonical document -> the name it was entered under


def add(groups: str, name: str, f, **extra) -> None:
    """Enter f's document (or the document f) under name for the row groups
    listed in groups; a document entered before keeps its first name and
    gains the groups."""
    doc = f if isinstance(f, dict) else fn_json(f)
    key = dumps({"fn": doc, "wrap": extra.get("wrap")})
    assert key in _NAMES or name not in ENTRIES, name
    name = _NAMES.setdefault(key, name)
    entry = ENTRIES.setdefault(name, {"fn": doc, "groups": []})
    assert all(entry.get(key, value) == value for key, value in extra.items()), name
    entry["groups"] += groups.split()
    entry.update(extra)


def make(name: str):
    """A fresh instance of the entry name."""
    entry = ENTRIES[name]
    return WRAPS.get(entry.get("wrap"), lambda f: f)(build(entry["fn"]))


# named instances that several rows and tests read
add("scan modulus-qc sup-qc inf-usco exists", "four-piece", PiecewiseRational(
    # continuous: 2x, then 1/2, a quadratic with its vertex 11/16 inside
    # (1/2, 3/4), then x - 1/2
    [0, F(1, 4), F(1, 2), F(3, 4), 1],
    [Poly(0, 2), Poly(F(1, 2)), Poly(4, -11, 8), Poly(F(-1, 2), 1)],
    [0, F(1, 2), F(1, 2), F(1, 4), F(1, 2)]))
# 0 at 1/2 and away from it, with a tent of height 1 on each side of 1/2:
# the two grid pairs next to 1/2 fail, the next two tie and pass
_TENTS = [(0, 0), (F(3, 8), 0), (F(7, 16), 1), (F(1, 2), 0), (F(9, 16), 1), (F(5, 8), 0), (1, 0)]
add("modulus-qc sup-qc", "twin-bumps", PiecewiseRational(
    [a for a, _ in _TENTS],
    [Poly(ya - (yb - ya) / (b - a) * a, (yb - ya) / (b - a))
     for (a, ya), (b, yb) in zip(_TENTS, _TENTS[1:])], [y for _, y in _TENTS]))
# a normalised-BV staircase on a falling line, its first jump at the
# irrational cut sqrt2/4: past the jump the grid max sits at the first grid
# point after the cut, which no coarse grid holds
add("walk scan sup-qc", "irrational-cut-staircase", fn_sum(
    staircase([(Q2(0, F(1, 4)), F(1, 2)), (F(5, 8), F(-1, 4))]), linear(F(-1, 2))))
# a quadratic piece on (0, 5/16) whose vertex 2/5 lies past the piece, inside
# [0,1] and most test intervals, then a falling line
add("scan sup-qc inf-usco", "vertex-off-its-piece", PiecewiseRational.from_polys(
    [0, F(5, 16), 1], [Poly(0, F(16, 5), -4), Poly(F(1, 4), F(-1, 4))]))

# the ball-walk families; then, for the two ball searches only, the two sums
# whose brackets once read the parts' as exact and two whose parts have
# disjoint breakpoints (`Indicator({1/3}) + staircase([(1/3, 1)])` waits for
# sums that close cells at a common jump: each ball around 1/3 runs every cell)
_CLOSED = [Indicator(FinitePointSet.of([F(1, 3), F(1, 2), S2(1)])),
           Indicator(ComplementOfR2Open(R2Rep.from_intervals(
               [(F(1, 8), F(1, 4)), (F(5, 8), F(3, 4))])))]
_D2A = [Sum(Indicator(FinitePointSet.of([F(1, 3)])), Indicator(FinitePointSet.of([F(2, 3)]))),
        Sum(scalar_multiple(-1, Indicator(FinitePointSet.of([F(1, 3)]))),
            scalar_multiple(-1, Indicator(FinitePointSet.of([F(2, 3)]))))]
_rng = random.Random(2401)
for _name, _f in [
        ("penny(sqrt2)", Penny(A)), ("pennyk(sqrt2,3)", PennyK(A, 3)),
        ("tilde-penny(sqrt2)", TildePenny(A)), ("thomae", thomae()),
        ("cover-psi(sqrt2)", CoverPsi(A)), ("cover-psi-usco(sqrt2)", CoverPsiUsco(A)),
        ("indicator(points)", _CLOSED[0]), ("indicator(complement)", _CLOSED[1]),
        ("staircase(3 steps)", staircase([(F(1, 3), F(1, 2)), (F(1, 2), F(1, 8)),
                                          (F(3, 4), F(3, 4))])),
        ("staircase(2 steps)", staircase([(F(1, 3), F(1, 4)), (F(3, 4), F(1, 2))])),
        # usco: -x/2, then up by 1/2 at the irrational cut sqrt2/4, so the
        # infimum of every ball around the cut is -sqrt2/8, approached and never
        # taken, and its brackets are never exact
        ("rising-cut-staircase", fn_sum(staircase([(S2(1), F(1, 2))]), linear(F(-1, 2)))),
        ("continuous(2401a)", build(random_continuous_piecewise(_rng))),
        ("continuous(2401b)", build(random_continuous_piecewise(_rng))),
        ("-3/4 indicator(complement)", ScalarMultiple(F(-3, 4), _CLOSED[1])),
        ("-thomae", ScalarMultiple(-1, thomae())),
        ("penny(sqrt2)|usco", restrict_tags(Penny(A), {USCO})),
        ("thomae|usco", restrict_tags(thomae(), {USCO})),
        ("1/3 + penny(sqrt2)", Sum(constant(F(1, 3)), Penny(A))),
        ("thomae - 1/4", Sum(thomae(), constant(F(-1, 4))))]:
    add("walk", _name, _f)
for _name, _f in [
        ("indicator(1/3) + indicator(2/3)", _D2A[0]),
        ("-indicator(1/3) - indicator(2/3)", _D2A[1]),
        ("penny(1 member) + staircase(2/7)",
         Sum(Penny(finite_set([S2(0) / 16 + F(1, 2)])), staircase([(F(2, 7), F(1, 4))]))),
        ("indicator(complement) + penny(2 members)",
         Sum(_CLOSED[1], Penny(finite_set([S2(0) / 32 + F(3, 8), S2(0) / 64 + F(7, 8)]))))]:
    add("ball", _name, _f)
# at the early miss's margins, bracketed as loosely as allowed: on every ball inside
# (1/4, 1] inf 1/2, in (1/4, 3/4) oscillation 1/8 + d, in (7/16, 33/64) oscillation 1/2.
# At 3/4 ("slack-inf": point and target) and at the continuity point of
# precision 1, the smallest ball's bracket alone would wrongly say "miss"
# at 1/2 + 2^-9 and at the hit that only its low end leaves open
add("slack-inf", "slack(1/2 at 1/4)", staircase([(F(1, 4), F(1, 2))]), wrap="slack",
    **{"slack-inf": [(F(3, 4), F(1, 2) + F(1, 512)),
                     (F(3, 4), F(1, 2) + F(1, 256) + F(1, 1 << 40))]})
for _d in (F(1, 1 << 40), F(1, 1 << 16) + F(1, 1 << 40)):
    add("margin", "slack(1/2 at 1/4, %s at 1/2)" % (F(5, 8) + _d),
        staircase([(F(1, 4), F(1, 2)), (F(1, 2), F(5, 8) + _d)]), wrap="slack",
        margin=[(F(1, 2), 3)])
add("slack-continuity", "slack(1/2 at 1/2, 1 at 33/64)",
    staircase([(F(1, 2), F(1, 2)), (F(33, 64), F(1))]), wrap="slack",
    **{"continuity-point": [1]})


def _margin_steps(m):
    """Staircases whose jump at 1/2 is 2^-m + 2^-(m+13), either side of it,
    2^-m, or just above 2^-m; and multiples of the irrational-cut staircase,
    whose oscillation at its cut sqrt2/4 is half the multiple on every ball
    around the cut inside [0, 5/8), at the same heights: inexact brackets, so
    the plain walk straddles 2^-m just above it."""
    edge = F(1, 1 << m) + F(1, 1 << (m + 13))
    jumps = [edge + e for e in (F(-1, 1 << (m + 20)), F(0), F(1, 1 << (m + 20)))]
    jumps.append(F(1, 1 << m) + F(1, 1 << (m + 40)))
    for h in jumps + [F(1, 1 << m)]:
        add("margin", "step %s at 1/2" % h, staircase([(F(1, 2), h)]),
            margin=[(F(1, 2), m)])
    cut = make("irrational-cut-staircase")
    for h, c in itertools.product(jumps + [edge - F(1, 1 << (m + 14))], (1, -1)):
        add("margin", "%s cut-staircase" % (c * 2 * h), ScalarMultiple(c * 2 * h, cut),
            margin=[(S2(1), m)])


for _m in (1, 3):
    _margin_steps(_m)

# every coefficient triple's polynomial, six to a document, written here
_TRIPLES = [list(cs) for cs in itertools.product(["0", "1", "-1", "3/4", "-5/6", "7/2"], repeat=3)]
for _i in range(0, 216, 6):
    add("poly", "polys(%d-%d)" % (_i, _i + 5), {"kind": "piecewise", "values": ["0"] * 7,
        "cuts": ["%d/6" % j for j in range(7)], "pieces": _TRIPLES[_i:_i + 6]})

add("scan", "3/7", constant(F(3, 7)))
_rng = random.Random(17)
for _i in range(6):
    add("scan", "continuous(17-%d)" % _i, build(random_continuous_piecewise(_rng)))
for _i in range(6):
    add("scan", "staircase+linear(17-%d)" % _i, build(random_staircase_plus_linear(_rng)))
# the cut search: eight irrational cuts, listed falling, and 63 steps
add("locate", "staircase(8 irrational cuts)",
    staircase([(S2(j), F(j + 1, 8)) for j in range(7, -1, -1)]))
add("locate", "staircase(63 steps)", staircase([(F(i, 64), F(i, 64)) for i in range(1, 64)]))
add("modulus-qc", "staircase(1/3, 3/4)", staircase([(F(1, 3), F(1, 4)), (F(3, 4), F(-1, 2))]))
_f = make("four-piece")
add("modulus-qc", "four-piece|not-qc", restrict_tags(_f, _f.tags - {QUASI_CONTINUOUS}))
# slope 4, then -4 past 1/3: most grid cells of a ball lie wholly outside
# the 2^-6 band, and their ends show it
add("modulus-qc", "steep-tent(1/3)",
    PiecewiseRational.from_polys([0, F(1, 3), 1], [Poly(0, 4), Poly(F(8, 3), -4)]))
# the line 3x lifted by (sqrt2 - 1)/64 at each cut j/32: irrational values at
# the grid points down to depth 5, some inside the band only by their sqrt2 part
add("modulus-qc", "line(3) lifted at j/32", PiecewiseRational(
    [F(j, 32) for j in range(33)], [Poly(0, 3)] * 32,
    [Q2(F(3 * j, 32) - F(1, 64), F(1, 64)) for j in range(33)]))

# probe bases: special points on grid points and on the interval ends (every
# cut list holds 0 and 1), irrational members, and repeats (an indicator's
# point is both ends of its component; the sum's parts share 1/4 and 1/3)
for _name in ("staircase(3 steps)", "penny(sqrt2)", "indicator(points)"):
    add("probe", _name, make(_name))
_SHARED_JUMPS = "staircase(1/4, 1/3) + indicator(1/4, 1/3, sqrt2/8)"
add("probe", _SHARED_JUMPS, Sum(
    staircase([(F(1, 4), F(1, 2)), (F(1, 3), F(-1, 4))]),
    Indicator(FinitePointSet.of([F(1, 4), F(1, 3), S2(2)]))))

for _i, _psi in enumerate([
        constant(F(1, 32)), constant(F(7, 32)), constant(F(1, 2)), linear(F(1, 2), F(1, 16)),
        fn_sum(staircase([(F(1, 4), F(3, 8)), (F(5, 8), F(-1, 8))]), constant(F(1, 6))),
        PiecewiseRational.from_polys([0, 1], [Poly(F(17, 64), -1, 1)])]):
    add("gauge", "gauge-%d" % _i, _psi)

# threshold queries (above or below, interval, threshold, fuel)
_MID = (F(1, 8), F(7, 8))
add("exists", "thomae", thomae(),
    exists=[("above", _MID, F(1, 5), 64), ("above", (0, 1), F(3, 2), 64)])
ENTRIES["four-piece"]["exists"] = [("above", (0, 1), F(11, 32), 64),
                                   ("below", _MID, F(1, 4) + F(1, 1 << 12), 64)]
add("exists", "staircase(1/2) + x/4", fn_sum(staircase([(F(1, 2), F(-1, 2))]), linear(F(1, 4))),
    exists=[("above", (F(1, 4), F(3, 4)), F(1, 8) - F(1, 1 << 30), 6)])

# Baire-1 limits: halvings (interval, value range or None for the limit's
# own, k, fuel, least count of thresholds asked) and runs of threshold
# queries (interval, threshold, fuel) on one instance.  A threshold <= 0 runs
# out of fuel between positive ones, on an interval with no seed point; past
# the grid cap (15 here) pennyk_limit runs on to the depth its threshold
# names (18 for 2^-18)
_finite = finite_set([F(1, 3), Q2(0, F(1, 3)), F(5, 8), F(9, 10)])
_END = (F(11, 16), F(7, 8))
_RUN = [(_END, F(1, 8), 8), (_END, F(0), 8), (_END, F(1, 2), 8), (_END, F(-1, 4), 8)]
_TAIL = [(_END, F(0), 8), (_END, F(1, 4), 8)]
add("baire1 halving", "pennyk-limit(sqrt2)", pennyk_limit(A),
    halving=[(iv, None, 12, 64, 8) for iv in [(0, 1), (0, F(1, 4)), (F(3, 4), 1),
                                              (F(1, 32), F(1, 8))]],
    baire1=[((0, 1), y, 64) for y in (F(1, 4), F(1, 16), F(3, 4), F(0))])
add("baire1 halving", "pennyk-limit(4 seeds)", pennyk_limit(_finite),
    halving=[(iv, None, 12, 64, 8) for iv in [(0, 1), (F(1, 2), 1), (F(1, 4), F(3, 8))]],
    baire1=_RUN + [(_END, F(1, 1 << 18), 24)] + _TAIL)
add("halving", "constant-seq-limit(four-piece)", make("four-piece"), wrap="constant-seq-limit",
    halving=[(iv, None, 12, 64, 8) for iv in [(0, 1), (F(1, 8), F(5, 8))]])
add("halving", "constant-seq-limit(irrational-cut)", make("irrational-cut-staircase"),
    wrap="constant-seq-limit", halving=[((F(1, 4), F(3, 4)), None, 12, 64, 8)])
# no stabilizer: every value through the modulus, a threshold on a spike
# value undecided; the ends keep the thresholds off the spike values
add("baire1 halving", "generic-limit(4 seeds)", Penny(_finite), wrap="generic-limit",
    halving=[((F(1, 2), 1), (F(0), F(3, 4)), 10, 8, 4), ((0, 1), (F(0), F(3, 4)), 10, 8, 4),
             ((0, 1), (F(0), F(1)), 4, 8, 0)],
    baire1=_RUN + _TAIL)

_rng = random.Random(23)
for _i in range(4):
    add("sup-qc", "staircase+linear(23-%d)" % _i, build(random_staircase_plus_linear(_rng)))
# the running variation against its cell walk, and the total variation
# against partitions: staircases on lines, a vertex inside its piece; the
# walk alone at an irrational cut and where f jumps away from both one-sided
# limits at a cut, which no normalised-BV function does
for _name in ["staircase+linear(17-%d)" % i for i in range(6)] + [
        "staircase+linear(23-%d)" % i for i in range(4)]:
    add("variation", _name, make(_name))
_BUMPS = ([0, F(1, 3), F(3, 4), 1], [Poly(0, 2, -2), Poly(1, -3, 3), Poly(F(1, 2), 1)])
add("variation", "bumps", PiecewiseRational.from_polys(*_BUMPS))
add("running-variation", "irrational-cut-staircase", make("irrational-cut-staircase"))
for _values in ([1, 2, F(-1, 2), 3], ["right", 0, "right", 5]):
    add("running-variation", "bumps(%s)" % ", ".join(map(str, _values)),
        PiecewiseRational.from_polys(*_BUMPS, _values))
add("inf-usco", "1/3 + penny(3 seeds)",
    fn_sum(constant(F(1, 3)), Penny(finite_set([F(1, 3), F(5, 8), Q2(0, F(1, 3))]))))
add("inf-usco", "indicator(1/4, sqrt2/2)", Indicator(FinitePointSet.of([F(1, 4), Q2(0, F(1, 2))])))
# the families that decide their own thresholds, a combination of one, and
# two limits: pennyk-limit's range read refuses with UnsupportedVariant
add("sup-qc inf-usco", "thomae", thomae())
add("sup-qc inf-usco", "-thomae", ScalarMultiple(-1, thomae()))
for _name, _f in [("penny(sqrt2)", Penny(A)), ("penny(4 seeds)", Penny(_finite)),
                  ("pennyk(sqrt2,3)", PennyK(A, 3)), ("tilde-penny(sqrt2)", TildePenny(A)),
                  ("cover-psi-usco(sqrt2)", CoverPsiUsco(A)),
                  ("pennyk-limit(sqrt2)", pennyk_limit(A))]:
    add("inf-usco", _name, _f)
add("sup-qc inf-usco", "constant-seq-limit(four-piece)", make("four-piece"),
    wrap="constant-seq-limit")

# two-part sums, each with the two intervals its row reads: [0,1] and one
# drawn from the same stream
_rng = random.Random(2502)
_sums = list(_D2A)
for _i in range(40):
    _f, _g = part(_rng, 0), part(_rng, 1)
    _sums.append(Sum(_f, _g) if _rng.random() < 0.5 else Sum(_g, _f))
for _i, _s in enumerate(_sums):
    _a, _b = sorted(_rng.sample(range(17), 2))
    add("sum", "sum(2502-%d)" % _i, _s, sum=[(F(0), F(1)), (F(_a, 16), F(_b, 16))])
# three-part sums, which flatten into one combination of up to three terms
_rng = random.Random(3201)
for _i in range(8):
    _s = Sum(Sum(part(_rng, 0), part(_rng, 1)), part(_rng, 2))
    _a, _b = sorted(_rng.sample(range(17), 2))
    add("sum", "sum3(3201-%d)" % _i, _s, sum=[(F(0), F(1)), (F(_a, 16), F(_b, 16))])


# range brackets against the values on a probe basis: spike families,
# indicators of points and of a closed set, a staircase, and sums over the
# spike function, one with a scaled part
for _name in ("thomae", "penny(sqrt2)", "tilde-penny(sqrt2)", "cover-psi(sqrt2)",
              "cover-psi-usco(sqrt2)"):
    add("range-brute", _name, make(_name))
for _name, _f in [
        ("pennyk(sqrt2,4)", PennyK(A, 4)),
        ("indicator(1/2, sqrt2/8)", Indicator(FinitePointSet.of([F(1, 2), S2(2)]))),
        ("indicator(3 components)", Indicator(ComplementOfR2Open(R2Rep.from_intervals(
            [(F(-1, 8), F(1, 4)), (F(1, 4), F(5, 8)), (F(3, 4), F(9, 8))])))),
        ("staircase(1/3, 2/3)", staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))])),
        ("1 - penny(sqrt2)", fn_difference(constant(1), Penny(A))),
        ("1/3 + penny(sqrt2)/2", Sum(constant(F(1, 3)), ScalarMultiple(F(1, 2), Penny(A))))]:
    add("range-brute", _name, _f)

# the class tags against their witnesses: the spike families, both covering
# instances, steps at an irrational and at rational cuts, a vertex off its
# piece, a sum with a scaled part, a multiple, an indicator and a restricted
# view; each that claims BV gives its total variation ("bv"), and the plain
# covering instance the tags its witnesses refute ("refutes": tag and
# arguments; it is not usco at its band-0 member, has no right limit at 0,
# and varies by more than 2 over the depth-8 basis)
for _name, _bv in [("thomae", None), ("penny(sqrt2)", 2), ("tilde-penny(sqrt2)", 2),
                   ("cover-psi-usco(sqrt2)", F(3, 32)), ("irrational-cut-staircase", F(7, 4)),
                   ("vertex-off-its-piece", F(39, 32)), ("staircase(1/3, 2/3)", F(3, 4)),
                   ("1/3 + penny(sqrt2)/2", 1), ("-3/4 indicator(complement)", 3),
                   ("indicator(points)", 6), ("penny(sqrt2)|usco", None)]:
    add("tag-witness", _name, make(_name), **({} if _bv is None else {"bv": F(_bv)}))
add("tag-witness", "cover-psi(sqrt2)", make("cover-psi(sqrt2)"),
    refutes=[(USCO, S2(0), 6), (REGULATED, F(0), 2), (BV, F(2), 8)])


def _spiked(group, label, a_set, starts):
    """Spike families over a_set: its truncations at 0 and 3, the spike
    function from each start, and the banded one on an irrational set."""
    fs = [PennyK(a_set, 0), PennyK(a_set, 3)] + [Penny(a_set, start=s) for s in starts]
    for f in fs + ([TildePenny(a_set)] if a_set.all_irrational else []):
        add(group, "%s(%s)/%s" % (f.kind, label, getattr(f, "cutoff", f.start)), f)


_rng = random.Random(517)
for _label, _a_set in [("sqrt2", A), ("517a", random_finite_set(_rng)),
                       ("517b", random_finite_set(_rng)), ("mixed", MIXED_SEEDS)]:
    _spiked("spikes", _label, _a_set, range(6))
for _label, _a_set in [("sqrt2", A), ("1101", random_finite_set(random.Random(1101))),
                       ("mixed", MIXED_SEEDS)]:
    _spiked("spike-count", _label, _a_set, (0, 2))
for _i, _a_set in enumerate(seed_sets()):
    for _f in [CoverPsi(_a_set)] + [cls(_a_set, start=s) for cls in (TildePenny, Penny)
                                    for s in (0, 2)]:
        add("spike-brackets", "%s(seeds-%d)/%d" % (_f.kind, _i, getattr(_f, "start", 0)), _f)
    if _a_set.size:  # the index map of each finite set
        add("index-of", "penny(seeds-%d)/0" % _i, Penny(_a_set))
_rng = random.Random(1103)
for _i, _a_set in enumerate([A, random_finite_set(_rng), random_finite_set(_rng, 3),
                             finite_set([S2(0), S2(5)])]):
    add("cover-usco", "cover-psi-usco(1103-%d)" % _i, CoverPsiUsco(_a_set))
for _i, _a_set in enumerate(transcript_seed_sets()):
    for _f in (Penny(_a_set), TildePenny(_a_set)):
        add("extraction", "%s(transcript-%d)" % (_f.kind, _i), _f)
    # the grid baseline on the abyss-gap workload's shape: the spike function
    # and a truncation over the sqrt2 family and 1-12 irrational points
    add("grid-baseline", "penny(transcript-%d)" % _i, Penny(_a_set))
    add("grid-baseline", "pennyk(transcript-%d)" % _i, PennyK(_a_set, (_i * 5) % 13))
# and families whose two ends can differ: rational members, band values
for _name, _f in [("penny(rational-seeds)", Penny(RATIONAL_SEEDS)),
                  ("penny(mixed)/0", Penny(MIXED_SEEDS)), ("cover-psi(sqrt2)", CoverPsi(A)),
                  ("cover-psi-usco(sqrt2)", CoverPsiUsco(A))]:
    add("grid-baseline", _name, _f)
# and every other kind it reads: truncations, banded copies, the rational
# spikes, steps, a lone value 1 at the cut 5/32 and a vertex at 5/7 (off
# every coarse grid), multiples, a restriction, a sum and the named tables
for _name, _f in [
        ("pennyk(sqrt2,3)", PennyK(A, 3)), ("pennyk(rational-seeds,1)", PennyK(RATIONAL_SEEDS, 1)),
        ("tilde-penny(sqrt2)", TildePenny(A)),
        ("tilde-penny(irrational-seeds)", TildePenny(IRRATIONAL_SEEDS)), ("thomae", thomae()),
        ("staircase(1/3, 5/8)", staircase([(F(1, 3), F(1, 2)), (F(5, 8), F(-1, 4))])),
        ("lone 1 at 5/32", PiecewiseRational.from_polys(
            [0, F(5, 32), 1], [Poly(0, 1), Poly(0, F(10, 7), -1)], ["right", 1, "right"])),
        ("3/2 penny(rational-seeds)", ScalarMultiple(F(3, 2), Penny(RATIONAL_SEEDS))),
        ("-2 thomae", ScalarMultiple(F(-2), thomae())),
        ("penny(rational-seeds)|cliquish", restrict_tags(Penny(RATIONAL_SEEDS), {CLIQUISH})),
        ("thomae + x/4", fn_sum(thomae(), linear(F(1, 4)))),
        ("irrational-cut-staircase", make("irrational-cut-staircase")),
        ("vertex-off-its-piece", make("vertex-off-its-piece"))]:
    add("grid-baseline", _name, _f)
# the seed sets of the reductions' walks, each through its spike function:
# the sqrt2 family, one irrational point, rational and irrational points,
# and four drawn sets of up to 6 points
_rng = random.Random(71)
_WALKED = [("sqrt2", A), ("sqrt2/2", finite_set([S2(0)])), ("rational-seeds", RATIONAL_SEEDS),
           ("irrational-seeds", IRRATIONAL_SEEDS)]
for _name, _a_set in _WALKED + [("71-%d" % _i, random_finite_set(_rng, 6)) for _i in range(4)]:
    add("bisection cliq demo", "penny(%s)" % _name, Penny(_a_set))
# the exhaustive supremum: spike families, and a function whose value at the
# rational cut 1/2 is irrational
for _name, _f in [("penny(sqrt2)", Penny(A)), ("penny(sqrt2)/3", Penny(A, start=3)),
                  ("pennyk(sqrt2,2)", PennyK(A, 2)), ("pennyk(sqrt2,3)", PennyK(A, 3)),
                  ("penny(rational-seeds)", Penny(RATIONAL_SEEDS)),
                  ("tilde-penny(irrational-seeds)", TildePenny(IRRATIONAL_SEEDS)),
                  ("sqrt2/2 at 1/2", PiecewiseRational.from_polys(
                      [0, F(1, 2), 1], [Poly(0), Poly(F(1, 4))], ["right", S2(0), "right"]))]:
    add("sup-oracle", _name, _f)
# (k, rounds) of the extraction each lying oracle is asked for
for _label, _a_set, _run in (("sqrt2", A, (6, 4)), ("irrational-seeds", IRRATIONAL_SEEDS, (5, 3)),
                             ("rational-seeds", RATIONAL_SEEDS, (4, 4))):
    add("liars", "penny(%s)" % _label, Penny(_a_set), liars=_run)

# the seed sets of the member scan: the sqrt2 family, finite sets of
# rationals, of irrationals and of both, every rational of [0,1] (its spike
# function has no document), and the banded copy of each irrational set
_RATIONALS = finite_set([F(1, 3), F(5, 8), F(1, 2), F(1, 16), F(3, 4), F(0), F(1)])
for _name, _f in [("penny(sqrt2)", Penny(A)), ("tilde-penny(sqrt2)", TildePenny(A)),
                  ("penny(rational-seeds)", Penny(RATIONAL_SEEDS)),
                  ("penny(rationals)", Penny(_RATIONALS)),
                  ("penny(irrational-seeds)", Penny(IRRATIONAL_SEEDS)),
                  ("tilde-penny(irrational-seeds)", TildePenny(IRRATIONAL_SEEDS)),
                  ("penny(mixed)/0", Penny(MIXED_SEEDS))]:
    add("member-scan", _name, _f)
add("member-scan", "penny(unit-rationals)", Penny(_RATIONALS), wrap="unit-rationals")
_rng = random.Random(523)
for _i in range(3):
    _a_set = random_finite_set(_rng)
    add("member-scan", "penny(523-%d)" % _i, Penny(_a_set))
    add("member-scan", "tilde-penny(523-%d)" % _i, TildePenny(_a_set))
# the scan's own proof of a miss: the member-scan seed sets, a spike window
# that starts past 0 and a bounded one
for _name in [_n for _n, _e in ENTRIES.items() if "member-scan" in _e["groups"]] + [
        "penny(sqrt2)/3", "pennyk(sqrt2,3)"]:
    add("scan-proof", _name, ENTRIES[_name]["fn"], wrap=ENTRIES[_name].get("wrap"))
for _name in ("penny(rationals)", "penny(mixed)/0", "penny(rational-seeds)"):
    add("index-of", _name, make(_name))
for _name in ("penny(sqrt2)", "tilde-penny(sqrt2)", "penny(irrational-seeds)"):
    add("osc-exact", _name, make(_name))
# the banded shift, at the members of the source sets in their own bands
for _name in ("tilde-penny(sqrt2)", "tilde-penny(irrational-seeds)"):
    add("minimal-shift", _name, make(_name))

# the below-threshold witness over seed sets that hold whole dyadic grids,
# each with intervals whose ends lie on the set's grid (an end off the set is
# the witness at once): every rational of [0,1]; 90% of the grid at depth k
# and three ninths; the grid at depth k and 70% of depth k + 1, where the
# witness lies deeper
add("below-witness", "penny(unit-rationals)", Penny(_RATIONALS), wrap="unit-rationals",
    below=[(0, 1), (F(1, 3), F(5, 6))])
_rng = random.Random(1201)


def _below_intervals(den):
    ends = [sorted(F(_rng.randrange(0, den + 1), den) for _ in range(2)) for _ in range(6)]
    return [(lo, hi) for lo, hi in ends if lo < hi]


for _i in range(12):
    _k = _rng.randrange(1, 7)
    _pts = [F(j, 1 << _k) for j in range((1 << _k) + 1) if _rng.random() < 0.9]
    _pts += [F(_rng.randrange(1, 9), 9) for _ in range(3)]
    add("below-witness", "penny(1201-%d)" % _i, Penny(finite_set(sorted(set(_pts)))),
        below=_below_intervals(_rng.choice([96, 1 << _k])))
for _k in range(2, 6):
    _pts = [F(j, 1 << _k) for j in range((1 << _k) + 1)]
    _pts += [F(j, 2 << _k) for j in range(1, 2 << _k, 2) if _rng.random() < 0.7]
    add("below-witness", "penny(grid %d)" % _k, Penny(finite_set(_pts)),
        below=_below_intervals(1 << _k))
# the nested walks that resume: the continuity points of a continuous and a
# jumping piecewise function, past the stages where a stage's first ball is
# granted without a read
add("continuity-point", "four-piece", make("four-piece"))
add("continuity-point", "staircase+linear(17-0)", make("staircase+linear(17-0)"))
# a jump of 2^-15 - 2^-23 at 1/2, bracketed loosely: every ball around 1/2
# holds it, its oscillation bracket tops out at the jump on balls wider than
# 2^-30 and 2^-(m+7) above it on narrower ones, so the stage-15 ball around
# 1/2 (the first narrow one) fails its read though the ball holding it passed
add("continuity-point", "slack(255/8388608 at 1/2)", staircase([(F(1, 2), F(255, 1 << 23))]),
    wrap="slack", **{"continuity-point": [15]})
# the usco points and radii of spike, finite-set and indicator entries, and
# of a spike function over 14 seeds whose ball brackets are inexact below the
# scan limit, where a bracket kept from one precision would change a radius
# asked at another
for _name in ("penny(sqrt2)", "penny(4 seeds)", "1/3 + penny(3 seeds)", "indicator(points)",
              "indicator(complement)", "indicator(1/4, sqrt2/2)", "penny(seeds-27)/0"):
    add("continuity-usco", _name, make(_name))

# the regulation windows: spike functions over the sqrt2 family and over
# rational seeds, a step and a line
for _name, _f in [("penny(sqrt2)", Penny(A)), ("penny(rational-seeds)", Penny(RATIONAL_SEEDS)),
                  ("staircase(1 at 1/2)", staircase([(F(1, 2), 1)])), ("x", linear(1))]:
    add("regulation-windows", _name, _f)

# every regulated entry feeds the regulation row, but the sum whose parts
# jump at shared points: each of its range reads gives up after 256 cells
# (ROADMAP item 16) in 76 ms, on both of the row's sides alike; and the
# staircases whose bumps show that a search resumes only past trimmed
# windows, each at its point and precisions
for _name, _entry in ENTRIES.items():
    if REGULATED in make(_name).tags and _name != _SHARED_JUMPS:
        _entry["groups"].append("regulation")
for _p, _steps, _ks in [
        (F(1, 2), [(F(1, 2) + F(1, 1 << 38), 1), (F(1, 2) + F(1, 1 << 36), 0),
                   (F(1, 2) + F(3, 1 << 25), 1)], [0, 6]),
        (1 - F(1, 1 << 40), [(1 - F(1, 1 << 40) + F(1, 1 << 50), 1),
                             (1 - F(1, 1 << 40) + F(1, 1 << 48), 0)], [0, 17])]:
    add("regulation", "bumps past %s" % _p, staircase(_steps), regulation=[(_p, _ks)])
# every piecewise document feeds the build row, which sums it with each of
# them, but the long cut tables of the cut search
for _entry in ENTRIES.values():
    if _entry["fn"]["kind"] == "piecewise" and "wrap" not in _entry \
            and "locate" not in _entry["groups"]:
        _entry["groups"].append("piecewise-build")
