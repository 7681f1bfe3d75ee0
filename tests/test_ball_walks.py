"""The nested-ball walk against the plain walk over 0..fuel.

`oracle._ball_walk` is the one walk over ball exponents.  Four searches end
it early once the smallest ball B(x, 2^-fuel) proves that no ball can hit:
`ValueBelowOnBall`, `OscBelow`, the `place` step of `point_of_continuity_qc`
and `modulus_continuity_qc`.  The proof rests on the clipped balls being
nested and on `range_on`'s contract (each bracket holds the value and is at
most 2^-k wide).  The plain walks kept here read every ball from 0, one
`_ball_clipped` at a time, and every answer, exception and message must
match theirs.

Sums of two non-constant parts are left out: their `range_on` can return a
bracket that misses the value (ROADMAP item 1, defect 2a), which breaks the
contract the early answer rests on, so no walk over them is sound today.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from abyss import (Bracket, CoverPsi, CoverPsiUsco, DyadicInterval, Found, FuelExhausted, Indicator,
                   MuWitness, NotFoundBelow, OscBelow, Penny, PennyK, Q2, TildePenny,
                   ValueBelowOnBall, constant, fn_sum, linear, modulus_continuity_qc, mu_search,
                   point_of_continuity_qc, restrict_tags, sqrt2_family, staircase, thomae,
                   universe)
from abyss.algorithms import _check_precision, _next_ball, _room
from abyss.exact import least_exponent
from abyss.oracle import (QueryTrace, _ball_clipped, _ball_walk, ball_oscillation,
                          require_rule)
from abyss.sets import ComplementOfR2Open, FinitePointSet, R2Rep
from abyss.universe import USCO, RestrictedView, ScalarMultiple, Sum

from conftest import calls_to, irrational_cut_staircase, random_continuous_piecewise

S2 = Q2.sqrt2_scaled
A = sqrt2_family()
FUELS = (0, 1, 64)


# ---------------------------------------------------------------------------
# the nesting lemma
# ---------------------------------------------------------------------------


def unit_frac(b: int) -> Q2:
    """The point b sqrt2 - floor(b sqrt2) of (0, 1)."""
    x = Q2(0, b)
    return x - Q2.of(x.__floor__())


NEST_POINTS = ([F(0), F(1), F(1, 2), F(1, 3), F(5, 7), F((1 << 70) - 1, 1 << 70)]
               + [A.member(i) for i in (0, 1, 5, 20)]
               + [S2(40), Q2(F(1, 3), F(1, 8)), unit_frac(10 ** 15 + 3),
                  unit_frac(-(10 ** 20 + 7)), unit_frac((1 << 90) + 1)])


@pytest.mark.parametrize("x", NEST_POINTS, ids=str)
def test_clipped_balls_are_nested(x):
    """B(x, 2^-(n+1)) lies inside B(x, 2^-n) for n = 0..70, and the walk
    yields the balls `_ball_clipped` gives, from any start."""
    walk = list(_ball_walk(x, 71))
    assert walk == [(n, _ball_clipped(x, n)) for n in range(72)]
    assert list(_ball_walk(x, 71, 30)) == walk[30:]
    for (_, big), (_, small) in zip(walk, walk[1:]):
        assert big.ln * small.d <= small.ln * big.d, (x, big, small)
        assert small.un * big.d <= big.un * small.d, (x, big, small)


# ---------------------------------------------------------------------------
# the plain walks over 0..fuel
# ---------------------------------------------------------------------------


def plain_osc_below(q, trace):
    require_rule("OscBelow", q.f, "mu_search/OscBelow")
    bound = F(1, 1 << q.m)
    for n in range(q.fuel + 1):
        osc = ball_oscillation(q.f, q.x, n, q.m + 4)
        trace.record("OscBelow", n, 0, "osc<=%s..%s" % (osc.lo, osc.hi))
        if osc.hi <= bound:
            return Found(MuWitness(n))
        if osc.lo <= bound:
            osc = ball_oscillation(q.f, q.x, n, q.m + 12)
            if osc.hi <= bound:
                return Found(MuWitness(n))
            if osc.lo <= bound:
                raise FuelExhausted("ball oscillation bracket straddles 2^-%d at "
                                    "exponent %d" % (q.m, n), fuel=q.fuel)
    return NotFoundBelow(q.fuel)


def plain_value_below_on_ball(q, trace):
    require_rule("ValueBelowOnBall", q.f, "mu_search/ValueBelowOnBall")
    for n in range(q.fuel + 1):
        inf_b, _ = q.f.range_on(_ball_clipped(q.x, n), 8)
        trace.record("ValueBelowOnBall", n, 0, "inf>=%s" % (inf_b.lo,))
        if inf_b.lo >= q.q:
            return Found(MuWitness(n))
        if not inf_b.exact and inf_b.hi >= q.q:
            raise FuelExhausted("ball infimum bracket straddles the target "
                                "at exponent %d" % n, fuel=q.fuel)
    return NotFoundBelow(q.fuel)


def plain_modulus_continuity(f, fuel):
    require_rule("OscBelow", f, "modulus_continuity_qc")
    return lambda x, m: next((n for n in range(fuel + 1)
                              if ball_oscillation(f, x, n, m + 6).hi <= F(1, 1 << (m + 1))), 0)


def plain_point_of_continuity_qc(f, k, fuel):
    _check_precision(k)
    require_rule("OscBelow", f, "point_of_continuity_qc")
    j = DyadicInterval(F(0), F(1))
    for m in range(k + 1):
        def place(cn, cd):
            n_size = least_exponent(*_room(j, cn, cd))
            c = F(cn, cd)
            for n in range(n_size, fuel + 1):
                w = ball_oscillation(f, c, n, m + 6)
                if w.hi <= F(1, 1 << m):
                    return DyadicInterval(c - F(1, 2 << n), c + F(1, 2 << n))
                if w.lo > F(1, 1 << m) and n > n_size + 24:
                    return None
            return None

        ball = _next_ball(j, place)
        if ball is None:
            raise FuelExhausted("no small-oscillation ball found inside the "
                                "current interval", best=j, fuel=fuel)
        j = ball
    return j.midpoint


def outcome(run):
    try:
        return run()
    except Exception as e:
        return (type(e).__name__, str(e))


def kind(answer) -> str:
    return answer[0] if isinstance(answer, tuple) else type(answer).__name__


def traced(search, q):
    trace = QueryTrace()
    return outcome(lambda: search(q, trace)), trace.lines


def same_walk(q, plain):
    """The walk and the plain one give the same answer, and the balls the
    walk reads above the smallest one are the plain walk's first ones."""
    got, lines = traced(mu_search, q)
    want, plain_lines = traced(plain, q)
    assert got == want, q
    short = [ln for ln in lines if ln["depth"] < q.fuel]
    assert short == [ln for ln in plain_lines if ln["depth"] < q.fuel][:len(short)], q
    return want


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------


def closed_sets():
    return [Indicator(FinitePointSet.of([F(1, 3), F(1, 2), S2(1)])),
            Indicator(ComplementOfR2Open(R2Rep.from_intervals(
                [(F(1, 8), F(1, 4)), (F(5, 8), F(3, 4))])))]


def rising_cut_staircase():
    """Usco: -x/2, then up by 1/2 at the irrational cut sqrt2/4, so the
    infimum of every ball around the cut is -sqrt2/8, approached and never
    taken, and its brackets are never exact."""
    return fn_sum(staircase([(S2(1), F(1, 2))]), linear(F(-1, 2)))


def families():
    rng = random.Random(2401)
    return ([Penny(A), PennyK(A, 3), TildePenny(A), thomae(), CoverPsi(A), CoverPsiUsco(A)]
            + closed_sets()
            + [staircase([(F(1, 3), F(1, 2)), (F(1, 2), F(1, 8)), (F(3, 4), F(3, 4))]),
               staircase([(F(1, 3), F(1, 4)), (F(3, 4), F(1, 2))]),
               irrational_cut_staircase(), rising_cut_staircase(),
               random_continuous_piecewise(rng), random_continuous_piecewise(rng),
               ScalarMultiple(F(-3, 4), closed_sets()[1]),
               ScalarMultiple(-1, thomae()),
               restrict_tags(Penny(A), {USCO}), restrict_tags(thomae(), {USCO}),
               Sum(constant(F(1, 3)), Penny(A)), Sum(thomae(), constant(F(-1, 4)))])


POINTS = [F(0), F(1), F(1, 2), F(1, 3), F(5, 16), A.member(1), S2(1), Q2(F(1, 3), F(1, 8))]


def test_value_below_on_ball_walks_answer_as_the_plain_walk(deadline):
    """Targets at the 2^-8 margin: the top end of the smallest ball's inf
    bracket plus 2^-8, and just either side of it; and at that top end."""
    deadline(60)
    seen = set()
    for f, x, fuel in itertools.product(families(), POINTS, FUELS):
        qs = [F(0), F(1, 8), F(1, 2), F(1)]
        if USCO in f.tags:
            inf_b, _ = f.range_on(_ball_clipped(x, fuel), 8)
            qs += [inf_b.hi + F(1, 256) + e for e in (F(-1, 1 << 40), F(0), F(1, 1 << 40))]
            qs += [inf_b.hi, (inf_b.lo + inf_b.hi) / 2]
        for q in qs:
            seen.add(kind(same_walk(ValueBelowOnBall(f, x, q, fuel),
                                    plain_value_below_on_ball)))
    assert seen >= {"Found", "NotFoundBelow", "FuelExhausted", "ClassRefusal"}


def margin_steps(m):
    """Staircases whose jump at 1/2 is 2^-m + 2^-(m+13), either side of it,
    2^-m, or just above 2^-m; and multiples of the irrational-cut staircase,
    whose oscillation at its cut sqrt2/4 is half the multiple on every ball
    around the cut inside [0, 5/8), at the same heights: inexact brackets, so the plain
    walk straddles 2^-m just above it."""
    edge = F(1, 1 << m) + F(1, 1 << (m + 13))
    jumps = [edge + e for e in (F(-1, 1 << (m + 20)), F(0), F(1, 1 << (m + 20)))]
    jumps.append(F(1, 1 << m) + F(1, 1 << (m + 40)))
    steps = [staircase([(F(1, 2), h)]) for h in jumps + [F(1, 1 << m)]]
    cut = irrational_cut_staircase()
    scaled = [ScalarMultiple(c * 2 * h, cut) for h in jumps + [edge - F(1, 1 << (m + 14))]
              for c in (1, -1)]
    return [(f, F(1, 2)) for f in steps] + [(f, S2(1)) for f in scaled]


def test_osc_below_walks_answer_as_the_plain_walk(deadline):
    deadline(60)
    seen = set()
    cases = [(f, x, m) for f, x, m in itertools.product(families(), POINTS, (0, 1, 3, 6))]
    cases += [(f, x, m) for m in (1, 3) for f, x in margin_steps(m)]
    for (f, x, m), fuel in itertools.product(cases, FUELS):
        seen.add(kind(same_walk(OscBelow(f, x, m, fuel), plain_osc_below)))
    assert seen >= {"Found", "NotFoundBelow", "FuelExhausted", "ClassRefusal"}


def test_continuity_walks_answer_as_the_plain_walk(deadline):
    """`modulus_continuity_qc` and the `place` step of
    `point_of_continuity_qc` against their plain walks."""
    deadline(60)
    for f, fuel in itertools.product(families(), FUELS):
        try:
            modulus = modulus_continuity_qc(f, fuel)
        except Exception as e:
            assert outcome(lambda: plain_modulus_continuity(f, fuel)) == (type(e).__name__, str(e))
            continue
        plain = plain_modulus_continuity(f, fuel)
        for x, m in itertools.product(POINTS, (0, 2, 5)):
            assert outcome(lambda: modulus(x, m)) == outcome(lambda: plain(x, m)), (f, x, m)
        for k in (0, 2):
            assert (outcome(lambda: point_of_continuity_qc(f, k, fuel))
                    == outcome(lambda: plain_point_of_continuity_qc(f, k, fuel))), (f, k, fuel)


def test_a_search_that_never_hits_reads_two_balls():
    """A ball search whose answer is no ball reads the first ball and the
    smallest, and the trace shows both."""
    for q in (ValueBelowOnBall(Penny(A), F(1, 3), F(1, 4)),
              ValueBelowOnBall(Penny(A), S2(1), F(1, 8)),
              OscBelow(thomae(), F(1, 2), 3), OscBelow(thomae(), F(1, 3), 5)):
        trace = QueryTrace()
        assert mu_search(q, trace) == NotFoundBelow(64)
        assert [ln["depth"] for ln in trace.lines] == [0, 64]
        assert calls_to(lambda: mu_search(q), universe.__file__, "range_on") == 2


class FussyPenny(Penny):
    """The spike function, refusing to bracket a ball narrower than 2^-40."""

    def _range_on(self, iv, k):
        if (iv.un - iv.ln) << 40 < iv.d:
            raise FuelExhausted("ball narrower than 2^-40")
        return super()._range_on(iv, k)


def test_a_smallest_ball_that_raises_leaves_the_walk_its_answer():
    """The smallest ball is read only to end a walk early; when reading it
    raises, the walk goes on and answers as it would without it."""
    f, fussy = Penny(A), FussyPenny(A)
    assert mu_search(OscBelow(fussy, F(1, 2), 3)) == mu_search(OscBelow(f, F(1, 2), 3)) \
        == Found(MuWitness(3))
    assert (modulus_continuity_qc(fussy)(F(1, 2), 3)
            == modulus_continuity_qc(f)(F(1, 2), 3) > 0)
    assert point_of_continuity_qc(fussy, 3) == point_of_continuity_qc(f, 3)
    with pytest.raises(FuelExhausted, match="narrower than 2"):
        mu_search(ValueBelowOnBall(fussy, F(1, 3), F(1, 4)))


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


def test_the_early_miss_keeps_its_margins_under_loose_brackets():
    """Each walk's answer on a family bracketed as loosely as allowed is the
    plain walk's, at the edge of each margin: the smallest ball's bracket
    alone would wrongly say "miss" in every case but the last of each."""
    # inf 1/2 on every ball inside (1/4, 1], 0 on the first: the 2^-8 margin
    rise = Slack(staircase([(F(1, 4), F(1, 2))]))
    for q in (F(1, 2) + F(1, 512), F(1, 2) + F(1, 256) + F(1, 1 << 40)):
        same_walk(ValueBelowOnBall(rise, F(3, 4), q), plain_value_below_on_ball)
    # oscillation 1/8 + d on every ball inside (1/4, 3/4): the 2^-(m+13) margin
    for d in (F(1, 1 << 40), F(1, 1 << 16) + F(1, 1 << 40)):
        f = Slack(staircase([(F(1, 4), F(1, 2)), (F(1, 2), F(5, 8) + d)]))
        same_walk(OscBelow(f, F(1, 2), 3), plain_osc_below)
    # oscillation exactly 1/2 on every ball inside (7/16, 33/64): a hit
    # that only the low end of the smallest ball's bracket leaves open
    f = Slack(staircase([(F(1, 2), F(1, 2)), (F(33, 64), F(1))]))
    assert modulus_continuity_qc(f)(F(1, 2), 0) == plain_modulus_continuity(f, 64)(F(1, 2), 0) == 7
    assert point_of_continuity_qc(f, 1) == plain_point_of_continuity_qc(f, 1, 64) == F(1, 2)
