"""The range of a two-part sum against a reference computed here: every
part is affine between its listed breakpoints, so the extremes of a sum over
an interval are among its values at the breakpoints and the ends and its
one-sided limits there."""

import random
from fractions import Fraction as F

import pytest

from abyss import (Bracket, ComplementOfR2Open, CoverPsiUsco, DyadicInterval, FinitePointSet,
                   Found, FuelExhausted, Indicator, MuWitness, Penny, PennyK, Q2, R2Rep,
                   Truth, ValueBelowOnBall, constant, finite_set, fn_sum, linear, mu_search,
                   scalar_multiple, staircase, thomae)
from abyss.universe import Sum

S2 = Q2.sqrt2_scaled
SCALES = [F(-3, 2), F(-1), F(0), F(1, 2), F(5, 4)]


def part(rng, slot):
    """(function, breakpoints) drawn on the slot's own grid, j/7 or j/9 for
    the rational breakpoints and j/8 + sqrt2/2^m with m in {4, 5} or {6, 7}
    for the spike members, so the breakpoints of two slots never meet."""
    grid = [F(j, 7 + 2 * slot) for j in range(1, 7 + 2 * slot)]
    pick = rng.randrange(7)
    if pick == 0:
        pts = sorted(rng.sample(grid, rng.randrange(1, 4)))
        f, breaks = Indicator(FinitePointSet.of(pts)), pts
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
        f, breaks = linear(F(rng.randrange(-4, 5), 4), F(rng.randrange(-4, 5), 8)), []
    else:
        f, breaks = constant(F(rng.randrange(-4, 5), 8)), []
    if rng.random() < 0.5:
        f = scalar_multiple(rng.choice(SCALES), f)
    return f, breaks


def reference(f, breaks, iv):
    """(inf, sup) of f over iv, for f affine between consecutive points of
    breaks: its values at the breakpoints and ends, one interior value per
    gap, and the one-sided limits at the gap's ends, read off the line
    through two interior points."""
    lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
    pts = sorted([lo, hi] + [Q2.of(b) for b in breaks if lo < b < hi])
    vals = [f.eval(p) for p in pts]
    for a, b in zip(pts, pts[1:]):
        u, v = a + (b - a) / 3, a + (b - a) * 2 / 3
        fu, fv = f.eval(u), f.eval(v)
        slope = (fv - fu) / (v - u)
        vals += [fu, fu - slope * (u - a), fv + slope * (b - v)]
    return min(vals), max(vals)


def ind(*pts):
    return Indicator(FinitePointSet.of(list(pts)))


# the two sums whose brackets once added the parts' brackets and read the
# sum as exact: sup [2, 2] where the supremum is 1, and its mirror, inf
# [-2, -2] where the infimum is -1
DEFECT_2A = [(Sum(ind(F(1, 3)), ind(F(2, 3))), [F(1, 3), F(2, 3)]),
             (Sum(scalar_multiple(-1, ind(F(1, 3))), scalar_multiple(-1, ind(F(2, 3)))),
              [F(1, 3), F(2, 3)])]


def test_sum_ranges_contain_the_reference(deadline):
    deadline(5)
    rng = random.Random(2502)
    cases = list(DEFECT_2A)
    for _ in range(40):
        (f, bf), (g, bg) = part(rng, 0), part(rng, 1)
        cases.append((Sum(f, g) if rng.random() < 0.5 else Sum(g, f), bf + bg))
    for s, breaks in cases:
        ivs = [DyadicInterval(0, 1)]
        a, b = sorted(rng.sample(range(17), 2))
        ivs.append(DyadicInterval(F(a, 16), F(b, 16)))
        for iv in ivs:
            want_inf, want_sup = reference(s, breaks, iv)
            for k in (4, 8):
                inf_b, sup_b = s.range_on(iv, k)
                assert inf_b.width <= F(1, 1 << k) and sup_b.width <= F(1, 1 << k)
                assert inf_b.contains(want_inf), (s.f, s.g, iv, k, inf_b, want_inf)
                assert sup_b.contains(want_sup), (s.f, s.g, iv, k, sup_b, want_sup)


def test_both_defect_2a_instances_are_exact():
    """The sup instance gets its supremum 1, and a value above 3/2 is
    refused.  The inf instance: 1 on the closed complement C of
    (1/8, 1/4) and (5/8, 3/4), plus the usco covering function of three
    members, is at least 1/256 (band 2's value, on (1/8, 1/4)), so its
    least ball exponent below 5/2^14 is 0."""
    unit = DyadicInterval(0, 1)
    s = DEFECT_2A[0][0]
    assert s.range_on(unit, 6)[1] == Bracket.point(1)
    assert s.witness_above(unit, F(3, 2)) == (Truth.NO, None)
    C = ComplementOfR2Open(R2Rep.from_intervals([(F(1, 8), F(1, 4)), (F(5, 8), F(3, 4))]))
    f = fn_sum(Indicator(C), CoverPsiUsco(finite_set([S2(0), S2(0) / 8, S2(0) / 64])))
    inf_b, _ = f.range_on(unit, 8)
    assert inf_b.contains(F(1, 256))
    assert mu_search(ValueBelowOnBall(f, 0, F(5, 1 << 14))) == Found(MuWitness(0))


def test_thomae_minus_thomae_runs_out_of_cells_soundly(deadline):
    """T - T is 0, but each part's brackets on a cell are [0, 1/q] and
    [-1/q, 0] however small the cell, so no cell is ever exact: the range
    gives up with brackets that hold 0."""
    deadline(5)
    with pytest.raises(FuelExhausted) as got:
        fn_sum(thomae(), scalar_multiple(-1, thomae())).range_on(DyadicInterval(0, 1), 10)
    inf_b, sup_b = got.value.best
    assert inf_b.contains(0) and sup_b.contains(0)
