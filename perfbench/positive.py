"""The `positive-mix` workload: library traffic of the paper's positive side.

Each op draws a fresh instance from the seed and makes one public call on it;
building the instance is part of the op, because users pay for it.  Per-pass
counts weight the kinds so that none takes most of the time (Jordan sampling
is kept to one depth-4 grid per pass for that reason).  Every answer is
checked against `exactref`, never through the call under test.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import abyss
from abyss import oracle as orc
from abyss import serialize as ser
from abyss.errors import ClassRefusal
from abyss.universe import CLIQUISH

import exactref as ref
from core import Op, raised

K_SUP = 10
K_OSC = 8
FUEL = 64

# op kind -> ops per pass
PASS = {
    "sup_qc": 6, "inf_usco": 6, "sup_baire1": 3, "osc_point": 4,
    "is_continuous_at": 5, "point_of_continuity_qc": 3,
    "point_of_continuity_usco": 2, "modulus_qc": 3, "cousin_subcover": 3,
    "limits_lr": 4, "jump_enum": 4, "total_variation_nbv": 3, "jordan_nbv": 1,
    "mu_search": 15, "exists_value": 2, "range_on": 6, "refusal": 5,
}


# --- seeded instances: (label, spec for exactref, abyss constructor) ----------


def q2(x):
    x = ref.pair(x)
    return abyss.Q2(x[0], x[1])


def unpair(v):
    """An abyss value as a pair, read through its canonical JSON form."""
    doc = ser.q2_json(v)
    if isinstance(doc, str):
        return (F(doc), F(0))
    return (F(doc["a"]), F(doc["b"]))


def dyadic(rng, depth=6):
    return F(rng.randrange(0, (1 << depth) + 1), 1 << depth)


def subinterval(rng, depth=5):
    a, b = sorted((dyadic(rng, depth), dyadic(rng, depth)))
    if a == b:
        b = min(F(1), a + F(1, 1 << depth))
        a = b - F(1, 1 << depth)
    return a, b


def cuts(rng, max_interior=4):
    inner = sorted({dyadic(rng) for _ in range(rng.randrange(1, max_interior + 1))}
                   - {F(0), F(1)})
    return [F(0)] + inner + [F(1)]


def make_pw(cs, polys, vals):
    return lambda: abyss.PiecewiseRational(
        cs, [abyss.Poly(*c) for c in polys], [q2(v) for v in vals])


def continuous_pw(rng):
    """Piecewise-linear through random knots, sometimes a quadratic piece
    with the same endpoint values."""
    cs = cuts(rng)
    knots = [F(rng.randrange(-8, 9), 8) for _ in cs]
    polys = []
    for (a, b), (ya, yb) in zip(zip(cs, cs[1:]), zip(knots, knots[1:])):
        s = (yb - ya) / (b - a)
        if rng.random() < 0.3:
            c2 = F(rng.randrange(-4, 5), 4)
            polys.append((ya - s * a + c2 * a * b, s - c2 * (a + b), c2))
        else:
            polys.append((ya - s * a, s, F(0)))
    return "cont-pw", ("pw", cs, polys, knots), make_pw(cs, polys, knots)


def _steps(rng):
    cs = cuts(rng)
    levels = [F(0)] + [F(rng.randrange(-8, 9), 8) for _ in cs[1:-1]]
    return cs, levels


def _step_spec(cs, levels, slope, shift):
    # value `levels[j]` on [cs[j], cs[j+1]) and at 1 the last level: cadlag
    polys = [(lv + shift, slope, F(0)) for lv in levels]
    vals = [lv + shift + slope * c for lv, c in zip(levels, cs)]
    vals.append(levels[-1] + shift + slope)
    return ("pw", cs, polys, vals)


def staircase(rng):
    cs, levels = _steps(rng)
    jumps = list(zip(cs[1:-1], levels[1:]))
    return ("staircase", _step_spec(cs, levels, F(0), F(0)),
            lambda: abyss.staircase(jumps))


def staircase_linear(rng):
    cs, levels = _steps(rng)
    jumps = list(zip(cs[1:-1], levels[1:]))
    slope = F(rng.randrange(0, 5), 4)
    return ("staircase+linear", _step_spec(cs, levels, slope, F(0)),
            lambda: abyss.fn_sum(abyss.staircase(jumps), abyss.linear(slope)))


def positive_gauge(rng, pick):
    """A strictly positive gauge: constant, linear, or shifted staircase."""
    if pick == 0:
        c = F(rng.randrange(1, 8), 32)
        return ("const", ("pw", [F(0), F(1)], [(c, F(0), F(0))], [c, c]),
                lambda: abyss.constant(c))
    if pick == 1:
        s, c = F(rng.randrange(0, 3), 4), F(rng.randrange(1, 6), 16)
        return ("linear", ("pw", [F(0), F(1)], [(c, s, F(0))], [c, c + s]),
                lambda: abyss.linear(s, c))
    cs, levels = _steps(rng)
    shift = F(1, 8) - min(levels)
    jumps = list(zip(cs[1:-1], levels[1:]))
    return ("shifted-staircase", _step_spec(cs, levels, F(0), shift),
            lambda: abyss.fn_sum(abyss.staircase(jumps), abyss.constant(shift)))


def thomae(rng):
    return "thomae", ("thomae",), abyss.thomae


def scaled_thomae(rng):
    c = F(rng.randrange(1, 9), 4)
    return ("scaled-thomae", ("scale", c, ("thomae",)),
            lambda: abyss.scalar_multiple(c, abyss.thomae()))


def seed_points(rng, max_size=12, size=None):
    """`size` (by default 1 to 12, drawn) distinct irrational points
    q + 2^-m sqrt2 of (0, 1)."""
    size = size or rng.randrange(1, max_size + 1)
    pts = []
    while len(pts) < size:
        p = (dyadic(rng, 7), F(1, 1 << rng.randrange(2, 40)))
        if ref.sign(p) > 0 and ref.lt(p, 1) and all(ref.cmp(p, e) != 0 for e in pts):
            pts.append(p)
    return pts


def make_finite_set(pts):
    return lambda: abyss.finite_set([q2(p) for p in pts])


def penny_finite(rng):
    pts = seed_points(rng)
    make = make_finite_set(pts)
    return ("penny(finite-%d)" % len(pts), ("penny", ref.SeedSet(pts), None),
            lambda: abyss.Penny(make()))


def penny_a(rng):
    return "penny(sqrt2)", ("penny", ref.SeedSet(), None), \
        lambda: abyss.Penny(abyss.sqrt2_family())


def pennyk_a(rng):
    k = rng.randrange(0, 12)
    return ("pennyk(sqrt2,%d)" % k, ("penny", ref.SeedSet(), k),
            lambda: abyss.PennyK(abyss.sqrt2_family(), k))


def penny_limit(rng, canonical=False):
    if canonical:
        return ("pennyk-limit(sqrt2)", ("penny", ref.SeedSet(), None),
                lambda: abyss.pennyk_limit(abyss.sqrt2_family()))
    pts = seed_points(rng)
    make = make_finite_set(pts)
    return ("pennyk-limit(finite-%d)" % len(pts), ("penny", ref.SeedSet(pts), None),
            lambda: abyss.pennyk_limit(make()))


def sum_const_penny(rng):
    c = F(rng.randrange(0, 9), 8)
    pts = seed_points(rng)
    make = make_finite_set(pts)
    spec = ("sum", ("pw", [F(0), F(1)], [(c, F(0), F(0))], [c, c]),
            ("penny", ref.SeedSet(pts), None))
    return ("const+penny", spec,
            lambda: abyss.fn_sum(abyss.constant(c), abyss.Penny(make())))


def scaled_penny(rng):
    c = F(rng.randrange(1, 9), 4) * (1 if rng.random() < 0.5 else -1)
    pts = seed_points(rng)
    make = make_finite_set(pts)
    return ("scaled-penny(%s)" % c, ("scale", c, ("penny", ref.SeedSet(pts), None)),
            lambda: abyss.scalar_multiple(c, abyss.Penny(make())))


def indicator_points(rng):
    pts = sorted({F(rng.randrange(0, 33), 32) for _ in range(rng.randrange(1, 5))})
    return ("ind-points", ("ind-points", pts),
            lambda: abyss.Indicator(abyss.FinitePointSet.of(pts)))


def indicator_complement(rng):
    marks = sorted({dyadic(rng, 5) for _ in range(2 * rng.randrange(1, 4))})
    spans = [(a, b) for a, b in zip(marks[::2], marks[1::2]) if a < b]
    return ("ind-complement", ("ind-complement", spans),
            lambda: abyss.Indicator(abyss.ComplementOfR2Open(
                abyss.R2Rep.from_intervals(spans))))


SUM_DEFECT = ("sum(ind{1/3},ind{2/3})",
              ("sum", ("ind-points", [F(1, 3)]), ("ind-points", [F(2, 3)])),
              lambda: abyss.fn_sum(abyss.Indicator(abyss.FinitePointSet.of([F(1, 3)])),
                                   abyss.Indicator(abyss.FinitePointSet.of([F(2, 3)]))))
SUM_DEFECT_REASON = "sup bracket [2, 2] excludes exact 1"


# --- answer checks ---------------------------------------------------------------


def bracket_reason(lo, hi, want, k, what="value"):
    if hi - lo > F(1, 1 << k):
        return "%s bracket [%s, %s] wider than 2^-%d" % (what, lo, hi, k)
    if not ref.in_closed(want, lo, hi):
        return "%s bracket [%s, %s] excludes exact %s" % (what, lo, hi, ref.fmt(want))
    return None


def interval_check(want, k, what="value"):
    def check(res):
        return raised(res) or bracket_reason(res.lower, res.upper, want, k, what)
    return check


def recertify(make, x, k):
    """Re-certify a continuity point with osc_point at doubled fuel."""
    cert = abyss.osc_point(make(), x, k, fuel=2 * FUEL)
    if cert.upper > F(1, 1 << k):
        return "re-certification at fuel %d gives oscillation up to %s" % (2 * FUEL, cert.upper)
    return None


def continuity_point_check(spec, make, k):
    def check(res):
        bad = raised(res)
        if bad:
            return bad
        osc = ref.oscillation(spec, ref.pair(F(res)))
        if ref.lt(F(1, 1 << k), osc):
            return "point %s has exact oscillation %s > 2^-%d" % (res, ref.fmt(osc), k)
        return recertify(make, res, k)
    return check


def mu_check(expected, fuel=FUEL):
    """expected: an int (Found at that exponent), True (Found at any depth up
    to fuel), or None (NotFoundBelow)."""
    def check(res):
        bad = raised(res)
        if bad:
            return bad
        if isinstance(res, orc.NotFoundBelow):
            return None if expected is None else "NotFoundBelow, expected a witness"
        if not isinstance(res, orc.Found):
            return "unexpected answer %r" % (res,)
        got = res.witness.value
        if expected is None:
            return "Found(%d), expected NotFoundBelow" % got
        if expected is True:
            return None if 0 <= got <= fuel else "witness depth %d outside [0, fuel]" % got
        return None if got == expected else "Found(%d), expected %d" % (got, expected)
    return check


def refusal_check(res):
    if isinstance(res, ClassRefusal):
        return None
    bad = raised(res)
    return bad or "answered %r where a ClassRefusal was due" % (res,)


def ball(x, n):
    r = F(1, 1 << n)
    return max(F(0), x - r), min(F(1), x + r)


def least_osc_exponent(spec, x, m, fuel=FUEL):
    bound = (F(1, 1 << m), F(0))
    for n in range(fuel + 1):
        lo, hi = ball(x, n)
        s, i = ref.sup_inf(spec, lo, hi)
        if ref.le(ref.sub(s, i), bound):
            return n
    return None


# --- op makers ---------------------------------------------------------------------


# Supremum only approached (the left limit 1/8 at the downward jump at 1/2):
# the witness search behind sup_qc scans ever finer grids for it.  About a
# quarter of the seeded staircase+linear draws approach their suprema too;
# this fixed instance puts the slow path in every pass.
APPROACHED = ("staircase+linear/approached",
              ("pw", [F(0), F(1, 2), F(1)], [(F(0), F(1, 4), F(0)), (F(-1, 2), F(1, 4), F(0))],
               [F(0), F(-3, 8), F(-1, 4)]),
              lambda: abyss.fn_sum(abyss.staircase([(F(1, 2), F(-1, 2))]),
                                   abyss.linear(F(1, 4))))


def op_sup_qc(rng, i):
    if i % 6 == 5:
        (label, spec, make), (p, q) = APPROACHED, (F(1, 4), F(3, 4))
    else:
        label, spec, make = [continuous_pw, staircase, thomae, scaled_thomae,
                             staircase_linear][i % 6](rng)
        p, q = subinterval(rng)
    want, _ = ref.sup_inf(spec, p, q)
    # the witness search behind sup_qc has no bound the caller controls
    # (ROADMAP 2b): a search the per-op cap stops is that known defect
    return Op("sup_qc", label, lambda: abyss.sup_qc(make(), p, q, K_SUP),
              interval_check(want, K_SUP, "sup"), defect="2b", expect="raised OpTimeout")


def op_inf_usco(rng, i):
    label, spec, make = [penny_finite, pennyk_a, continuous_pw, thomae,
                         sum_const_penny, penny_finite][i % 6](rng)
    p, q = subinterval(rng)
    _, want = ref.sup_inf(spec, p, q)
    return Op("inf_usco", label, lambda: abyss.inf_usco(make(), p, q, K_SUP),
              interval_check(want, K_SUP, "inf"))


def op_sup_baire1(rng, i):
    label, spec, make = penny_limit(rng, canonical=(i % 3 == 2))
    p, q = subinterval(rng)
    want, _ = ref.sup_inf(spec, p, q)
    return Op("sup_baire1", label, lambda: abyss.sup_baire1(make(), p, q, K_SUP),
              interval_check(want, K_SUP, "sup"))


def op_osc_point(rng, i):
    pick = i % 4
    if pick == 0:
        label, spec, make = penny_a(rng)
        x = spec[1].member(rng.randrange(25))
    else:
        label, spec, make = [None, staircase, thomae, continuous_pw][pick](rng)
        x = ref.pair(rng.choice(spec[1]) if spec[0] == "pw" and rng.random() < 0.5
                     else dyadic(rng, 5))
    want = ref.oscillation(spec, x)
    return Op("osc_point", label, lambda: abyss.osc_point(make(), q2(x), K_OSC),
              interval_check(want, K_OSC, "oscillation"))


def op_is_continuous_at(rng, i):
    pick = i % 5
    if pick == 0:
        label, spec, make = staircase(rng)
        x = ref.pair(rng.choice(spec[1]))
    elif pick == 1:
        label, spec, make = thomae(rng)
        x = ref.pair(F(rng.randrange(1, 16), 16))
    elif pick == 2:
        label, spec, make = thomae(rng)
        x = (dyadic(rng, 4) / 2, F(1, 1 << rng.randrange(3, 20)))
    elif pick == 3:
        label, spec, make = penny_finite(rng)
        pts = spec[1].points
        x = pts[rng.randrange(len(pts))] if rng.random() < 0.5 else ref.pair(dyadic(rng))
    else:
        label, spec, make = continuous_pw(rng)
        x = ref.pair(dyadic(rng))
    want = "yes" if ref.sign(ref.oscillation(spec, x)) == 0 else "no"

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        got = res.value.value
        return None if got == want else "answered %s, exact oscillation says %s" % (got, want)
    return Op("is_continuous_at", label, lambda: abyss.is_continuous_at(make(), q2(x)),
              check)


def op_poc_qc(rng, i):
    label, spec, make = [thomae, continuous_pw, staircase][i % 3](rng)
    return Op("point_of_continuity_qc", label,
              lambda: abyss.point_of_continuity_qc(make(), K_OSC, fuel=FUEL),
              continuity_point_check(spec, make, K_OSC))


def op_poc_usco(rng, i):
    label, spec, make = [penny_finite, penny_a][i % 2](rng)
    k = 6

    def run():
        f = make()
        return abyss.point_of_continuity_usco(f, abyss.natural_usco_modulus(f), k)
    return Op("point_of_continuity_usco", label, run, continuity_point_check(spec, make, k))


def op_modulus_qc(rng, i):
    label, spec, make = [continuous_pw, staircase][i % 2](rng)
    x = dyadic(rng, 5)
    k, big_n = 6, 3

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        c, d = res
        blo, bhi = ball(x, big_n)
        if not (blo <= c < d <= bhi):
            return "(%s, %s) escapes the ball B(%s, 2^-%d)" % (c, d, x, big_n)
        return open_range_reason(spec, c, d, ref.value(spec, ref.pair(x)), F(1, 1 << k))
    return Op("modulus_qc", label, lambda: abyss.modulus_qc(make(), x, k, big_n), check)


def open_range_reason(spec, c, d, fx, tol):
    """Whether every value of a piecewise spec on the open (c, d) lies within
    tol of fx: attained values strictly, limits at the ends non-strictly."""
    _, cs, polys, vals = spec

    def off(v):
        return ref.pabs(ref.sub(v, fx))
    for cut, v in zip(cs, vals):
        if c < cut < d and ref.le(tol, off(ref.pair(v))):
            return "value %s at cut %s is not within %s of %s" % (v, cut, tol, ref.fmt(fx))
    for j, poly in enumerate(polys):
        s, t = max(cs[j], c), min(cs[j + 1], d)
        if s >= t:
            continue
        if poly[1] == poly[2] == 0:
            if ref.le(tol, off(ref.pair(poly[0]))):
                return "piece value %s is not within %s of %s" % (poly[0], tol, ref.fmt(fx))
            continue
        for end in (s, t):
            if ref.lt(tol, off(ref.poly_at(poly, ref.pair(end)))):
                return "values near %s leave the %s band around %s" % (end, tol, ref.fmt(fx))
        v = ref.poly_vertex(poly)
        if v is not None and s < v < t and ref.le(tol, off(ref.poly_at(poly, ref.pair(v)))):
            return "vertex value at %s is not within %s of %s" % (v, tol, ref.fmt(fx))
    return None


def op_cousin(rng, i):
    label, spec, make = positive_gauge(rng, i % 3)

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        for c, r in res:
            gauge = ref.value(spec, ref.pair(c))
            if not (r > 0 and ref.le(r, gauge)):
                return "radius %s at %s is not in (0, gauge %s]" % (r, c, ref.fmt(gauge))
        return None if ref.covers_unit(res) else "balls leave a gap in [0,1]"
    return Op("cousin_subcover", label, lambda: abyss.cousin_subcover(make()), check)


def op_limits(rng, i):
    label, spec, make = [staircase, continuous_pw, staircase_linear, staircase][i % 4](rng)
    x = rng.choice(spec[1]) if rng.random() < 0.5 else dyadic(rng)
    want = [ref.one_sided(spec, ref.pair(x), s) for s in (-1, 1)]

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        for side, got, w in (("left", res.left, want[0]), ("right", res.right, want[1])):
            if (got is None) != (w is None):
                return "%s limit %s, expected %s" % (side, got, ref.fmt(w))
            if got is not None:
                bad = bracket_reason(got.lower, got.upper, w, K_SUP, side + " limit")
                if bad:
                    return bad
        return None
    return Op("limits_lr", label, lambda: abyss.limits_lr(make(), x, K_SUP), check)


def op_jumps(rng, i):
    label, spec, make = [staircase, staircase_linear][i % 2](rng)
    want = [c for c in spec[1][1:-1]
            if ref.cmp(ref.one_sided(spec, ref.pair(c), -1),
                       ref.one_sided(spec, ref.pair(c), 1)) != 0]

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        got = sorted(unpair(p) for p in res)
        return None if got == [ref.pair(c) for c in want] else \
            "jumps %s, expected %s" % ([str(p) for p in res], [str(c) for c in want])
    return Op("jump_enum", label, lambda: abyss.jump_enum(make()), check)


def op_variation(rng, i):
    label, spec, make = staircase_linear(rng)
    x = F(1) if i % 3 == 0 else dyadic(rng)
    want = ref.variation(spec, x)
    return Op("total_variation_nbv", label,
              lambda: abyss.total_variation_nbv(make(), x, K_SUP),
              interval_check(want, K_SUP, "variation"))


def op_jordan(rng, i):
    label, spec, make = staircase_linear(rng)
    grid = [F(j, 16) for j in range(17)]

    def run():
        jp = abyss.jordan_nbv(make())
        return [(jp.g(x), jp.h(x)) for x in grid]

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        prev = None
        for x, (g, h) in zip(grid, res):
            g, h = unpair(g), unpair(h)
            v = ref.variation(spec, x)
            if g != v:
                return "g(%s) = %s, exact variation %s" % (x, ref.fmt(g), ref.fmt(v))
            if ref.sub(g, h) != ref.value(spec, ref.pair(x)):
                return "g - h differs from f at %s" % x
            if prev is not None and (ref.lt(g, prev[0]) or ref.lt(h, prev[1])):
                return "g or h decreases before %s" % x
            prev = (g, h)
        return None
    return Op("jordan_nbv", label, run, check)


def op_mu_search(rng, i):
    """Three per shape and pass, one for each family; ValueBelowOnBall
    alternates thresholds found at once and thresholds never found."""
    shape, pick = i % 5, i // 5
    y = F(rng.randrange(-4, 20), 16)
    if shape == 0:
        label, spec, make = [staircase, thomae, penny_a][pick](rng)
        x, m = F(rng.randrange(0, 33), 32), rng.randrange(1, 6)
        return Op("mu_search", "OscBelow/" + label,
                  lambda: orc.mu_search(orc.OscBelow(make(), x, m)),
                  mu_check(least_osc_exponent(spec, x, m)))
    if shape == 1:
        label, spec, make = [penny_finite, penny_a, penny_finite][pick](rng)
        x = F(rng.randrange(0, 33), 32)
        y = F(rng.randrange(-4, 1), 16) if pick == 0 else F(rng.randrange(1, 20), 16)
        # every member is irrational, so the rational infimum of a ball is 0
        return Op("mu_search", "ValueBelowOnBall/" + label,
                  lambda: orc.mu_search(orc.ValueBelowOnBall(make(), x, y)),
                  mu_check(0 if y <= 0 else None))
    p, q = subinterval(rng)
    if shape == 2:
        label, spec, make = [staircase, thomae, continuous_pw][pick](rng)
        s, _ = ref.sup_inf(spec, p, q)
        return Op("mu_search", "ExistsValueAbove/" + label,
                  lambda: orc.mu_search(orc.ExistsValueAbove(
                      make(), abyss.DyadicInterval(p, q), y)),
                  mu_check(True if ref.lt(y, s) else None))
    if shape == 3:
        label, spec, make = [penny_finite, continuous_pw, thomae][pick](rng)
        _, inf = ref.sup_inf(spec, p, q)
        return Op("mu_search", "ExistsValueBelow/" + label,
                  lambda: orc.mu_search(orc.ExistsValueBelow(
                      make(), abyss.DyadicInterval(p, q), y)),
                  mu_check(True if ref.lt(inf, y) else None))
    y = F(rng.randrange(1, 20), 16)
    label, spec, make = penny_limit(rng, canonical=(pick == 2))
    s, _ = ref.sup_inf(spec, p, q)
    return Op("mu_search", "Baire1Above/" + label,
              lambda: orc.mu_search(orc.Baire1Above(make(), abyss.DyadicInterval(p, q), y)),
              mu_check(True if ref.lt(y, s) else None))


def op_exists_value(rng, i):
    p, q = subinterval(rng)
    y = F(rng.randrange(-4, 20), 16)
    if i % 2 == 0:
        label, spec, make = [staircase, thomae][rng.randrange(2)](rng)
        s, _ = ref.sup_inf(spec, p, q)
        want = "yes" if ref.lt(y, s) else "no"
        call = orc.exists_value_above
    else:
        label, spec, make = [penny_finite, continuous_pw][rng.randrange(2)](rng)
        _, inf = ref.sup_inf(spec, p, q)
        want = "yes" if ref.lt(inf, y) else "no"
        call = orc.exists_value_below

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        got = res.value.value
        return None if got == want else "answered %s, expected %s" % (got, want)
    return Op("exists_value", label,
              lambda: call(make(), abyss.DyadicInterval(p, q), y), check)


def op_range_on(rng, i):
    pick = i % 6
    if pick == 0:
        label, spec, make = SUM_DEFECT
        p, q = F(0), F(1)
    else:
        label, spec, make = [None, indicator_points, indicator_complement, scaled_penny,
                             sum_const_penny, continuous_pw][pick](rng)
        p, q = subinterval(rng)
    want_sup, want_inf = ref.sup_inf(spec, p, q)

    def check(res):
        bad = raised(res)
        if bad:
            return bad
        inf_b, sup_b = res
        return (bracket_reason(sup_b.lo, sup_b.hi, want_sup, K_SUP, "sup")
                or bracket_reason(inf_b.lo, inf_b.hi, want_inf, K_SUP, "inf"))
    return Op("range_on", label,
              lambda: make().range_on(abyss.DyadicInterval(p, q), K_SUP), check,
              defect="2a" if pick == 0 else None, expect=SUM_DEFECT_REASON)


def op_refusal(rng, i):
    """Unruled (shape, class) pairs: the answer must be a ClassRefusal."""
    pick = i % 5
    p, q = subinterval(rng)
    if pick == 0:
        label, _, make = penny_finite(rng)
        run = lambda: abyss.sup_qc(make(), p, q, K_SUP)
    elif pick == 1:
        label, _, make = penny_a(rng)
        run = lambda: orc.mu_search(orc.ExistsValueAbove(
            make(), abyss.DyadicInterval(p, q), F(1, 4)))
    elif pick == 2:
        label, _, make = penny_a(rng)
        x = F(rng.randrange(0, 33), 32)
        run = lambda: orc.mu_search(orc.OscBelow(
            abyss.restrict_tags(make(), {CLIQUISH}), x, 3))
    elif pick == 3:
        label = "cover-psi(sqrt2)"
        run = lambda: abyss.cousin_subcover(abyss.build_cover_psi(abyss.sqrt2_family(), False))
    else:
        label, _, make = penny_finite(rng)
        run = lambda: abyss.total_variation_nbv(make(), F(1), K_SUP)
    return Op("refusal", label, run, refusal_check)


MAKERS = {
    "sup_qc": op_sup_qc, "inf_usco": op_inf_usco, "sup_baire1": op_sup_baire1,
    "osc_point": op_osc_point, "is_continuous_at": op_is_continuous_at,
    "point_of_continuity_qc": op_poc_qc, "point_of_continuity_usco": op_poc_usco,
    "modulus_qc": op_modulus_qc, "cousin_subcover": op_cousin, "limits_lr": op_limits,
    "jump_enum": op_jumps, "total_variation_nbv": op_variation, "jordan_nbv": op_jordan,
    "mu_search": op_mu_search, "exists_value": op_exists_value, "range_on": op_range_on,
    "refusal": op_refusal,
}


class Workload:
    name = "positive-mix"
    op_cap_s = 2.0
    trace_passes = 2
    passes = 30  # timed passes per run
    check_only_ops = []

    def __init__(self, seed: int):
        self.rng = random.Random("positive-mix:%d" % seed)
        self.trace_rng = random.Random("positive-mix-trace:%d" % seed)
        # the same warm-up for every seed: a seeded one would move setup_s with
        # the number of slow sup_qc draws it happens to hold
        self.warmup_ops = self._pass(random.Random("positive-mix-warmup"))

    def _pass(self, rng):
        ops = [MAKERS[kind](rng, i) for kind, n in PASS.items() for i in range(n)]
        rng.shuffle(ops)
        return ops

    def next_pass(self):
        return self._pass(self.rng)

    def trace_ops(self):
        return [op for _ in range(self.trace_passes) for op in self._pass(self.trace_rng)]
