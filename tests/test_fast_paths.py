"""Each fast path of the positive side against the plain computation it
replaces, kept here as a test-local reference: the integer `Poly`, the
bisected piece lookup, the integer-ordered `modulus_qc` candidates, the
incremental Cousin cover, the skip-seen probe searches and the work a
halving run keeps for its interval.  Cost guards count the work a fast path
may do."""

import itertools
import random
from fractions import Fraction as F

import pytest

from abyss import (Baire1Above, Baire1Limit, Bracket, DyadicInterval, ExistsValueAbove,
                   ExistsValueBelow, Found, FuelExhausted, Indicator, MuWitness,
                   NotFoundBelow, Penny, PennyK, PiecewiseRational, Poly, Q2, constant,
                   constant_seq_limit, cousin_subcover, exact, finite_set, fn_sum, inf_usco,
                   linear, modulus_qc, mu_search, pennyk_limit, restrict_tags, sqrt2_family,
                   staircase, sup_baire1, sup_qc, thomae, universe)
from abyss.algorithms import _halve_values
from abyss.exact import Truth, rational_grid
from abyss.oracle import (DEFAULT_FUEL, QueryTrace,
                          _ball_clipped, _baire1_value_above, basis_at,
                          grid_depth_cap)
from abyss.sets import FinitePointSet
from abyss.universe import QUASI_CONTINUOUS

from conftest import (calls_to, fraction_news, irrational_cut_staircase,
                      random_continuous_piecewise, random_staircase_plus_linear,
                      vertex_off_its_piece)

S2 = Q2.sqrt2_scaled
RATIONAL_POINTS = [F(0), F(1), F(1, 3), F(-2, 7), F(5, 8), F(22, 7)]
IRRATIONAL_POINTS = [S2(0), Q2(F(1, 3), F(1, 8)), Q2(1, F(-1, 4)), Q2(F(-3, 5), F(7, 3))]
COEFFS = [F(0), F(1), F(-1), F(3, 4), F(-5, 6), F(7, 2)]


def four_piece():
    """Continuous: 2x, then 1/2, a quadratic with its vertex 11/16 inside
    (1/2, 3/4), then x - 1/2."""
    return PiecewiseRational([0, F(1, 4), F(1, 2), F(3, 4), 1],
                             [Poly(0, 2), Poly(F(1, 2)), Poly(4, -11, 8), Poly(F(-1, 2), 1)],
                             [0, F(1, 2), F(1, 2), F(1, 4), F(1, 2)])


# ---------------------------------------------------------------------------
# Poly: integers over one denominator against Fraction Horner
# ---------------------------------------------------------------------------


def horner(cs, x) -> Q2:
    c0, c1, c2 = cs
    p = Q2.of(x)
    return (p * c2 + c1) * p + c0


def plain_range(cs, lo, hi):
    vals = [horner(cs, lo), horner(cs, hi)]
    c0, c1, c2 = cs
    if c2:
        v = Q2.of(-c1 / (2 * c2))
        if lo < v < hi:
            vals.append(horner(cs, v))
    return min(vals), max(vals)


def test_poly_evaluates_and_ranges_as_fraction_horner():
    points = sorted(Q2.of(x) for x in RATIONAL_POINTS + IRRATIONAL_POINTS)
    for cs in itertools.product(COEFFS, repeat=3):
        poly = Poly(*cs)
        assert poly.coeffs() == cs and poly == Poly(*cs)
        assert poly.is_constant == (cs[1] == cs[2] == 0)
        assert poly.vertex() == (-cs[1] / (2 * cs[2]) if cs[2] else None)
        for x in points:
            assert poly(x) == horner(cs, x), (cs, x)
        for lo, hi in itertools.combinations(points, 2):
            assert poly.range_on(lo, hi) == plain_range(cs, lo, hi), (cs, lo, hi)


def test_poly_integers_are_canonical():
    assert Poly(F(2, 4), F(3, 6), 0) == Poly(F(1, 2), F(1, 2))
    assert Poly(F(2, 4)).coeffs() == (F(1, 2), 0, 0)
    p = Poly(F(1, 6), F(-3, 4), F(5, 2))
    assert (p.n0, p.n1, p.n2, p.d) == (2, -9, 30, 12)
    with pytest.raises(TypeError):
        Poly(F(1, 2), 0.5)


# ---------------------------------------------------------------------------
# bisected piece lookup against the scan over every piece and cut
# ---------------------------------------------------------------------------


def full_scan_candidates(f, iv):
    vals = []
    lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
    for j, piece in enumerate(f.pieces):
        a, b = f.cuts[j], f.cuts[j + 1]
        s, t = max(a, lo), min(b, hi)
        if s < t:
            vals.extend(plain_range(piece.coeffs(), s, t))
    for i, c in enumerate(f.cuts):
        if iv.contains(c):
            vals.append(f.bp_values[i])
    return vals


def test_bisected_value_candidates_match_the_full_scan():
    rng = random.Random(17)
    fns = [irrational_cut_staircase(), vertex_off_its_piece(), constant(F(3, 7)), four_piece()]
    fns += [random_continuous_piecewise(rng) for _ in range(6)]
    fns += [random_staircase_plus_linear(rng) for _ in range(6)]
    grid = rational_grid(DyadicInterval(0, 1), 4)
    for f in fns:
        ivs = [DyadicInterval(a, b) for a, b in itertools.combinations(grid, 2)]
        # ends on the rational cuts, and an interval inside each piece
        for c in f.cuts:
            if c.is_rational and 0 < c < 1:
                c = c.as_rational()
                ivs += [DyadicInterval(c, 1), DyadicInterval(0, c),
                        DyadicInterval(c - F(1, 64), c), DyadicInterval(c, c + F(1, 64))]
        for a, b in zip(f.cuts, f.cuts[1:]):
            lo, hi = a.approx(12), b.approx(12)
            ivs.append(DyadicInterval(lo + (hi - lo) / 3, hi - (hi - lo) / 3))
        for iv in ivs:
            ref = full_scan_candidates(f, iv)
            assert sorted(f._value_candidates(iv)) == sorted(ref), (f.cuts, iv)
            assert f.range_on(iv, 10) == (Bracket.of_q2(min(ref), 10),
                                          Bracket.of_q2(max(ref), 10))


# ---------------------------------------------------------------------------
# modulus_qc against the order of sorted Fraction keys
# ---------------------------------------------------------------------------


def sorted_fraction_modulus_qc(f, x, k, big_n, fuel=DEFAULT_FUEL):
    p = Q2.of(x)
    fx = f.eval(p)
    tol = F(1, 1 << k)

    def candidate_ok(c, d):
        if not c < d:
            return False
        inf_b, sup_b = f.range_on(DyadicInterval(c, d), k + 4)
        return Q2.of(sup_b.hi) - fx < tol and fx - Q2.of(inf_b.lo) < tol

    ball_iv = _ball_clipped(p, big_n)
    for j in range(big_n + 2, big_n + 2 + min(fuel, 24)):
        r = F(1, 1 << j)
        blo, bhi = p.bracket(j + 2)
        c, d = max(ball_iv.lower, blo - r), min(ball_iv.upper, bhi + r)
        if candidate_ok(c, d):
            return (c, d)
        pts = rational_grid(ball_iv, min(j, grid_depth_cap(ball_iv)))
        pairs = sorted(zip(pts, pts[1:]), key=lambda cd: (abs((cd[0] + cd[1]) / 2 - blo), cd[0]))
        for c, d in pairs:
            if candidate_ok(c, d):
                return (c, d)
    raise FuelExhausted("no certified subinterval found within fuel", fuel=fuel)


def twin_bumps():
    """0 at 1/2 and away from it, with a tent of height 1 on each side of
    1/2: the two grid pairs next to 1/2 fail, the next two tie and pass."""
    knots = [(0, 0), (F(3, 8), 0), (F(7, 16), 1), (F(1, 2), 0), (F(9, 16), 1), (F(5, 8), 0), (1, 0)]
    pieces = [Poly(ya - (yb - ya) / (b - a) * a, (yb - ya) / (b - a))
              for (a, ya), (b, yb) in zip(knots, knots[1:])]
    return PiecewiseRational([a for a, _ in knots], pieces, [y for _, y in knots])


def outcome(run):
    try:
        return run()
    except FuelExhausted as e:
        return ("FuelExhausted", str(e))


@pytest.mark.parametrize("x", [F(1, 2), F(5, 16), F(1, 3), S2(0)],
                         ids=["dyadic", "dyadic-off-grid", "1/3", "sqrt2/2"])
def test_modulus_qc_orders_candidates_as_sorted_fractions(x):
    f = four_piece()
    fns = [f, twin_bumps(), staircase([(F(1, 3), F(1, 4)), (F(3, 4), F(-1, 2))]),
           restrict_tags(f, f.tags - {QUASI_CONTINUOUS})]  # checked by its range too
    for g, n, k in itertools.product(fns, (0, 1, 3, 5), (0, 3, 6, 9)):
        got = outcome(lambda: modulus_qc(g, x, k, n, fuel=8))
        assert got == outcome(lambda: sorted_fraction_modulus_qc(g, x, k, n, fuel=8)), (g, n, k)


def test_modulus_qc_builds_few_fractions():
    """Candidates ordered by `Fraction` keys made 57 `Fraction.__new__`
    calls here."""
    f = four_piece()
    assert modulus_qc(f, F(1, 2), 6, 3) == (F(15, 32), F(1, 2))
    assert modulus_qc(twin_bumps(), F(1, 2), 3, 1) == (F(1, 4), F(3, 8))  # the lower of a tie
    assert fraction_news(lambda: modulus_qc(f, F(1, 2), 6, 3)) <= 25


def test_poly_evaluation_reduces_once_and_builds_no_fraction():
    """Fraction Horner made four reductions per evaluation, 256 here."""
    poly = Poly(F(1, 3), F(-5, 4), F(7, 2))
    pts = [Q2.of(F(j, 64)) for j in range(64)]

    def run():
        return [poly(x) for x in pts]

    assert fraction_news(run) == 0
    assert calls_to(run, exact.__file__, "_reduced") == 64


# ---------------------------------------------------------------------------
# the incremental Cousin cover against the re-sorted span check
# ---------------------------------------------------------------------------


def covers_unit(spans):
    reach = F(0)
    started = False
    for lo, hi in sorted(spans):
        if not started:
            if lo < 0 <= hi:
                reach = max(reach, hi)
                started = True
            continue
        if lo >= reach:
            break
        reach = max(reach, hi)
    return started and reach > 1


def test_cousin_prefix_is_the_least_covering_one():
    gauges = [constant(F(1, 32)), constant(F(7, 32)), constant(F(1, 2)), linear(F(1, 2), F(1, 16)),
              fn_sum(staircase([(F(1, 4), F(3, 8)), (F(5, 8), F(-1, 8))]), constant(F(1, 6))),
              PiecewiseRational.from_polys([0, 1], [Poly(F(17, 64), -1, 1)])]
    for psi in gauges:
        balls = cousin_subcover(psi)
        spans = [(q - r, q + r) for q, r in balls]
        assert covers_unit(spans) and not covers_unit(spans[:-1]), psi


# ---------------------------------------------------------------------------
# the skip-seen probe searches against the searches that re-evaluate
# ---------------------------------------------------------------------------


def plain_exists(q, trace):
    above = type(q) is ExistsValueAbove
    shape = type(q).__name__
    y = F(q.threshold)
    truth, _ = (q.f.witness_above if above else q.f.witness_below)(q.interval, y)
    if truth is Truth.NO:
        trace.record(shape, q.fuel, 0, "no")
        return NotFoundBelow(q.fuel)
    for d in range(min(q.fuel, grid_depth_cap(q.interval)) + 1):
        pts = basis_at(q.f, q.interval, d)
        trace.record(shape, d, len(pts), "scan")
        for p in pts:
            v = q.f.eval(p)
            if (v > y) if above else (v < y):
                return Found(MuWitness(d))
    raise FuelExhausted("a witness exists but did not appear in the probe "
                        "basis within fuel", fuel=q.fuel)


def plain_baire1_above(q, trace):
    f, y = q.f_rep, F(q.threshold)
    last = f.witness_depth(y)
    for d in range(q.fuel + 1):
        pts = basis_at(f, q.interval, d)
        trace.record("Baire1Above", d, len(pts), "scan")
        for p in pts:
            if (f.eval(p) > y if f.stabilizer is not None
                    else _baire1_value_above(f, p, y, q.fuel)):
                return Found(MuWitness(d))
        if d >= (grid_depth_cap(q.interval) if last is None else last):
            break
    if y <= 0:
        raise FuelExhausted("non-positive threshold cannot be refuted on a "
                            "limit representation", fuel=q.fuel)
    return NotFoundBelow(q.fuel)


def traced(search, q):
    trace = QueryTrace()
    try:
        res = search(q, trace)
    except FuelExhausted as e:
        res = ("FuelExhausted", str(e))
    return res, trace.lines


def test_skip_seen_searches_answer_and_trace_as_the_plain_ones():
    unit, mid = DyadicInterval(0, 1), DyadicInterval(F(1, 8), F(7, 8))
    steps = fn_sum(staircase([(F(1, 2), F(-1, 2))]), linear(F(1, 4)))
    queries = [ExistsValueAbove(thomae(), mid, F(1, 5)),
               ExistsValueAbove(thomae(), unit, F(3, 2)),
               ExistsValueAbove(four_piece(), unit, F(11, 32)),
               ExistsValueBelow(four_piece(), mid, F(1, 4) + F(1, 1 << 12)),
               ExistsValueAbove(steps, DyadicInterval(F(1, 4), F(3, 4)), F(1, 8) - F(1, 1 << 30),
                                fuel=6)]
    rep = pennyk_limit(sqrt2_family())
    limits = [Baire1Above(rep, unit, y) for y in (F(1, 4), F(1, 16), F(3, 4), F(0))]
    for q, plain in [(q, plain_exists) for q in queries] + [(q, plain_baire1_above) for q in limits]:
        got = traced(lambda q, t: mu_search(q, t), q)
        assert got == traced(plain, q), q


# ---------------------------------------------------------------------------
# a halving run's kept work against the searches that start afresh
# ---------------------------------------------------------------------------


def halve_comparing(f, iv, lo, hi, k, fuel=DEFAULT_FUEL):
    """The value halving of `sup_baire1` over [lo, hi], each threshold asked
    through `mu_search`, which keeps one probe state on f, and through
    `plain_baire1_above`, query by query; the thresholds asked and the
    halving's outcome."""
    asked = []

    def decide(mid):
        q = Baire1Above(f, iv, mid, fuel)
        got = traced(mu_search, q)
        assert got == traced(plain_baire1_above, q), q
        asked.append(mid)
        return {Found: Truth.YES, NotFoundBelow: Truth.NO}.get(type(got[0]), Truth.UNKNOWN)

    return asked, outcome(lambda: _halve_values(lo, hi, k, decide))


def generic_limit(a_set):
    """The truncations of the spike function with the convergence modulus
    alone: no stabilizer, so each value is decided through the modulus."""
    return Baire1Limit(lambda n: PennyK(a_set, n), conv_modulus=lambda x, j: j)


def test_one_probe_state_answers_and_traces_as_the_plain_search(deadline):
    deadline(20)
    finite = finite_set([F(1, 3), Q2(0, F(1, 3)), F(5, 8), F(9, 10)])
    cases = [(pennyk_limit(sqrt2_family()), (0, 1), (0, F(1, 4)), (F(3, 4), 1),
              (F(1, 32), F(1, 8))),
             (pennyk_limit(finite), (0, 1), (F(1, 2), 1), (F(1, 4), F(3, 8))),
             (constant_seq_limit(four_piece()), (0, 1), (F(1, 8), F(5, 8))),
             (constant_seq_limit(irrational_cut_staircase()), (F(1, 4), F(3, 4)))]
    for f, *intervals in cases:
        for p, q in intervals:
            iv = DyadicInterval(p, q)
            lo, hi = f.range_bound()
            run = halve_comparing(f, iv, lo, hi, 12)
            assert len(run[0]) > 8 and f._probe_memo[0] == (iv.ln, iv.un, iv.d), (f, iv)
            state = f._probe_memo[1]
            # a second run on the same interval reads the same state
            assert halve_comparing(f, iv, lo, hi, 12) == run
            assert f._probe_memo[1] is state
            assert outcome(lambda: sup_baire1(f, p, q, 12)) == run[1]
    # no stabilizer: every value through the modulus, a threshold on a spike
    # value undecided; the ends keep the thresholds off the spike values
    f = generic_limit(finite)
    for p, q in ((F(1, 2), 1), (0, 1)):
        asked, _ = halve_comparing(f, DyadicInterval(p, q), F(0), F(3, 4), 10, fuel=8)
        assert len(asked) > 4
    asked, (tag, _) = halve_comparing(f, DyadicInterval(0, 1), F(0), F(1), 4, fuel=8)
    assert asked == [F(1, 2)] and tag == "FuelExhausted"
    # a threshold <= 0 with no value above it runs out of fuel, between
    # positive thresholds on one state; no seed point lies in iv.  Past the
    # grid cap (15 here) a search of pennyk_limit runs on to the depth its
    # threshold names (18 for 2^-18)
    iv = DyadicInterval(F(11, 16), F(7, 8))
    for f, deep in ((pennyk_limit(finite), [(F(1, 1 << 18), 24)]), (generic_limit(finite), [])):
        for y, fuel in [(F(1, 8), 8), (F(0), 8), (F(1, 2), 8), (F(-1, 4), 8)] + deep + [
                (F(0), 8), (F(1, 4), 8)]:
            q = Baire1Above(f, iv, y, fuel)
            got = traced(mu_search, q)
            assert got == traced(plain_baire1_above, q), (f, y)
        assert traced(mu_search, Baire1Above(f, iv, F(0), 8))[0][0] == "FuelExhausted"


def fresh_range_witness(f, iv, y, above):
    """The threshold answer read off `range_on`, asked afresh at every call."""
    yn, yd = y.as_integer_ratio()
    prec = max(8, yd.bit_length() + 4)
    for _ in range(2):
        inf_b, sup_b = f.range_on(iv, prec)
        t = sup_b if above else inf_b
        lo, hi = t.ln * yd - yn * t.d, t.un * yd - yn * t.d
        if (hi <= 0) if above else (lo >= 0):
            return Truth.NO
        if (lo > 0) if above else (hi < 0):
            return Truth.YES
        prec = 2 * prec + 16
    return Truth.UNKNOWN


def fresh_halving(f, p, q, k, above):
    iv = DyadicInterval(p, q)
    lo, hi = f.range_bound()
    return _halve_values(lo, hi, k, lambda mid: fresh_range_witness(f, iv, mid, above),
                         keep_upper_on=Truth.YES if above else Truth.NO)


def test_kept_range_bracket_halves_as_fresh_range_calls(deadline):
    deadline(20)
    rng = random.Random(23)
    spikes = Penny(finite_set([F(1, 3), F(5, 8), Q2(0, F(1, 3))]))
    sup_fns = [four_piece(), irrational_cut_staircase(), vertex_off_its_piece(),
               twin_bumps()] + [random_staircase_plus_linear(rng) for _ in range(4)]
    inf_fns = [four_piece(), vertex_off_its_piece(), fn_sum(constant(F(1, 3)), spikes),
               Indicator(FinitePointSet.of([F(1, 4), Q2(0, F(1, 2))]))]
    intervals = [(0, 1), (F(1, 8), F(5, 8)), (F(5, 16), F(3, 4)), (F(1, 2), F(9, 16))]
    for fns, algorithm, above in ((sup_fns, sup_qc, True), (inf_fns, inf_usco, False)):
        for f, (p, q), k in itertools.product(fns, intervals, (0, 3, 10, 20)):
            assert type(f)._witness_via_range is universe.SymbolicFn._witness_via_range
            got = outcome(lambda: algorithm(f, p, q, k))
            assert got == outcome(lambda: fresh_halving(f, p, q, k, above)), (f, p, q, k)
    # the sup bracket of the staircase is inexact at its irrational cut: every
    # threshold near it asks `range_on` again, as the fresh halving does
    for k in (10, 20):
        ranges = [calls_to(lambda: run(irrational_cut_staircase(), 0, 1, k, True),
                           universe.__file__, "_range_on") for run in (
                               lambda f, p, q, k, above: sup_qc(f, p, q, k), fresh_halving)]
        assert ranges[0] == ranges[1] > k // 2, ranges


def test_a_halving_run_keeps_its_probe_state_and_exact_bracket(deadline):
    """Rebuilding the basis for every threshold made 27, 55 and 34
    `probe_points` calls for the first three runs, and every threshold of
    `sup_qc` called `_range_on`: 21 at k = 20."""
    deadline(20)
    for p, q in ((0, 1), (0, F(1, 4)), (F(3, 4), 1), (F(1, 32), F(1, 8))):
        def run():
            return sup_baire1(pennyk_limit(sqrt2_family()), p, q, 10)

        iv = DyadicInterval(p, q)
        assert calls_to(run, universe.__file__, "probe_points") <= grid_depth_cap(iv) + 1, (p, q)
        # each point is evaluated once (one point check per evaluation), and
        # a second run on the same limit and interval evaluates nothing
        f = pennyk_limit(sqrt2_family())
        evaluations = calls_to(lambda: sup_baire1(f, p, q, 10), universe.__file__, "_unit_point")
        points = {(x.p, x.q, x.d) for d in range(len(f._probe_memo[1].sizes))
                  for x in basis_at(f, iv, d)}
        assert evaluations <= len(points), (p, q)
        for name in ("probe_points", "_unit_point"):
            assert calls_to(lambda: sup_baire1(f, p, q, 10), universe.__file__, name) == 0
    for k in (4, 10, 20):
        assert calls_to(lambda: sup_qc(four_piece(), 0, 1, k), universe.__file__, "_range_on") <= 2
        assert calls_to(lambda: inf_usco(four_piece(), F(1, 8), 1, k),
                        universe.__file__, "_range_on") <= 2
