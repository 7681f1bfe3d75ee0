"""Positive algorithms: frozen example values, bracketing against independent
brute force, certificates, covers, converters."""

import random
from fractions import Fraction as F

import pytest

from abyss import (Baire1Above, Baire1Limit, ClassRefusal, ComplementOfR2Open, DyadicInterval,
                   ExistsValueAbove, FinitePointSet, Found, FuelExhausted, Indicator,
                   InvalidModulus, Penny, PennyK, PiecewiseRational, Poly, Q2, R2Rep, RMCode,
                   RepresentationInsufficient, Truth, UnsupportedVariant, ball, build_cover_psi,
                   category, collapse, constant, cousin_subcover, finite_set, fn_difference,
                   fn_sum, indicator_baire1, inf_usco, is_continuous_at, limits, linear,
                   lsco_modulus_on_cf, modulus_continuity_qc, modulus_qc, modulus_regulation,
                   mu_search, natural_usco_modulus, oracle, osc_point, pennyk_limit,
                   point_of_continuity_qc, point_of_continuity_usco, rational_grid,
                   rational_spike, restrict_tags, rm_code_from_r2_baire1, sqrt2_family, spikes,
                   staircase, sup_baire1, sup_qc, thomae, piecewise, unit_rationals, universe,
                   usco_separator, variation)
from abyss.composites import Sum
from abyss.oracle import DEFAULT_FUEL, basis_at, grid_depth_cap
from abyss.reductions import canonical_regulation_modulus, realiser_from_regulation_modulus
from abyss.universe import CLIQUISH, QUASI_CONTINUOUS, query_scope, query_state

from catalogue import ENTRIES, make
from conftest import calls_to, fraction_news
from references import (brute_ball_osc, covers_unit, exact_symbolic_sup, fresh_halving, halving,
                        outcome, probe_basis)

A = sqrt2_family()
S2 = Q2.sqrt2_scaled


# --- suprema / infima ---


def test_sup_thomae_quarters():
    iv = sup_qc(thomae(), F(1, 4), F(3, 4), 10)
    # independent oracle: scan spikes by denominator
    want = exact_symbolic_sup(thomae(), DyadicInterval(F(1, 4), F(3, 4)))
    assert want == Q2.of(F(1, 2))
    assert iv.contains(F(1, 2)) and iv.width <= F(1, 1024)


def test_sup_constant():
    iv = sup_qc(constant(F(1, 3)), F(0), F(1), 20)
    assert iv.contains(F(1, 3)) and iv.width <= F(1, 1 << 20)


def test_sup_thomae_unit():
    iv = sup_qc(thomae(), F(0), F(1), 10)
    assert iv.contains(F(1))  # the integer endpoints carry value 1


def test_sup_monotone_in_interval():
    t = thomae()
    rng = random.Random(3)
    for _ in range(15):
        a, b = sorted(F(rng.randrange(0, 16), 16) for _ in range(2))
        if a == b:
            continue
        pad = F(1, 16)
        outer = sup_qc(t, max(F(0), a - pad), min(F(1), b + pad), 10)
        inner = sup_qc(t, a, b, 10)
        assert inner.lower <= outer.upper + F(1, 1 << 9)


# Staircase-plus-linear draws (jumps, slope, p, q) whose suprema are only
# approached.  Every YES of the value halving once ran a witness scan of ever
# finer grids (up to 2^40 points) that no caller used: the first two took
# seconds, the third stands for the slow path on every approached supremum.
APPROACHED_SUP_DRAWS = [
    ([(F(1, 64), F(1, 2)), (F(5, 64), F(-1, 2)), (F(31, 64), F(-5, 8)), (F(5, 8), F(3, 4))],
     F(1, 2), F(0), F(3, 8)),
    ([(F(15, 64), F(-7, 8)), (F(25, 32), F(-7, 8)), (F(61, 64), F(7, 8))],
     F(3, 4), F(3, 16), F(29, 32)),
    # the left limit 1/8 at the downward jump at 1/2
    ([(F(1, 2), F(-1, 2))], F(1, 4), F(1, 4), F(3, 4)),
]


@pytest.mark.parametrize("jumps,slope,p,q", APPROACHED_SUP_DRAWS)
def test_sup_qc_bounded_on_approached_suprema(jumps, slope, p, q, deadline, monkeypatch):
    deadline(3)
    f = fn_sum(staircase(jumps), linear(slope))
    iv = DyadicInterval(p, q)
    got = sup_qc(f, p, q, 10)
    assert got.contains(exact_symbolic_sup(f, iv)) and got.width <= F(1, 1024)
    # a YES decided by the range carries no point and evaluates nothing
    evals = []
    for name in ("eval", "_eval"):
        def counted(x, inner=getattr(f, name)):
            evals.append(x)
            return inner(x)
        monkeypatch.setattr(f, name, counted)
    y = got.lower - F(1, 1024)
    assert f.witness_above(iv, y) == (Truth.YES, None)
    assert evals == []
    monkeypatch.undo()
    # the witness search a caller may ask for is bounded by its fuel
    assert isinstance(mu_search(ExistsValueAbove(f, iv, y)), Found)
    try:
        short = mu_search(ExistsValueAbove(f, iv, y, fuel=2))
    except FuelExhausted:
        short = None
    assert short is None or isinstance(short, Found)


def test_sup_refused_for_spike_function():
    with pytest.raises(ClassRefusal):
        sup_qc(Penny(A), F(0), F(1), 8)


def test_inf_examples():
    assert inf_usco(Penny(A), F(0), F(1), 8).contains(F(0))
    ind = Indicator(FinitePointSet.of([F(1, 2)]))
    assert inf_usco(ind, F(0), F(1), 4).contains(F(0))
    with pytest.raises(ClassRefusal):
        inf_usco(fn_difference(constant(1), Penny(A)), F(0), F(1), 4)


def test_sup_baire1_examples():
    iv = sup_baire1(pennyk_limit(A), F(0), F(1), 6)
    assert iv.contains(F(1, 2)) and iv.width <= F(1, 64)
    from abyss import constant_seq_limit
    iv2 = sup_baire1(constant_seq_limit(constant(F(1, 4))), F(0), F(1), 8)
    assert iv2.contains(F(1, 4))
    with pytest.raises(RepresentationInsufficient):
        sup_baire1(Baire1Limit(lambda n: PennyK(A, n)), F(0), F(1), 6)


def test_sup_baire1_refuses_a_limit_whose_terms_carry_no_bound():
    """term(0) is 0 and every later term 5: bounds read off term(0) would put
    the supremum of a function that is 5 everywhere inside [0, 1]."""
    f = Baire1Limit(lambda n: constant(5 if n else 0), conv_modulus=lambda x, j: 1,
                    stabilizer=lambda x: 1)
    assert f.eval(F(1, 3)) == Q2.of(5)
    with pytest.raises(RepresentationInsufficient):
        f.range_bound()
    with pytest.raises(RepresentationInsufficient):
        sup_baire1(f, F(0), F(1), 4)
    # the built-in representations keep their bounds
    assert pennyk_limit(A).range_bound() == (F(0), F(1))
    from abyss import constant_seq_limit
    assert constant_seq_limit(constant(5)).range_bound() == (F(5), F(5))
    assert constant_seq_limit(constant(5)).is_positive()
    assert sup_baire1(constant_seq_limit(constant(5)), F(0), F(1), 4).contains(F(5))


def test_sup_baire1_subinterval():
    # on [0, 3/8] the largest surviving spike is the index-1 member
    iv = sup_baire1(pennyk_limit(A), F(0), F(3, 8), 8)
    assert iv.contains(F(1, 4))


def test_baire1_probes_reach_members_past_index_8():
    """A depth-d probe reads term d, so a spike of index 9 or more is seen:
    member 11 of the sqrt2 family (sqrt2/4096, value 1/4096) lies in
    [0, 1/2048], and member 10 of i/16 + sqrt2/64, i = 1..12 (value
    1/2048) lies in [11/16, 3/4].  Probes capped at term 8 gave
    [0, 1/16384] and `NotFoundBelow`."""
    assert A.member(11) == S2(11)
    assert sup_baire1(pennyk_limit(A), F(0), F(1, 2048), 14).contains(F(1, 4096))
    B = finite_set([F(i, 16) + S2(0) / 32 for i in range(1, 13)])
    assert B.member(10) == F(11, 16) + S2(0) / 32
    got = mu_search(Baire1Above(pennyk_limit(B), DyadicInterval(F(11, 16), F(3, 4)),
                                F(1, 4096)))
    assert isinstance(got, Found)


# --- oscillation and continuity ---


def test_osc_point_thomae_rational():
    iv = osc_point(thomae(), F(1, 2), 8)
    # independent: ball oscillation brute-forced at a deep exponent (rational
    # probes only get within a grid step of the irrational-side infimum)
    assert brute_ball_osc(thomae(), F(1, 2), 10, depth=8) >= Q2.of(F(1, 2) - F(1, 512))
    assert iv.contains(F(1, 2)) and iv.width <= F(1, 256)


def test_osc_point_thomae_irrational():
    iv = osc_point(thomae(), S2(0), 8)
    assert iv.contains(F(0)) and iv.width <= F(1, 256)


def test_osc_point_constant():
    assert osc_point(constant(0), F(2, 3), 6).contains(F(0))


def test_osc_point_penny_brackets_eval():
    f = Penny(A)
    for n in range(6):
        iv = osc_point(f, A.member(n), 8)
        v = f.eval(A.member(n)).as_rational()
        assert iv.contains(v) and iv.width <= F(1, 256)


def test_osc_point_refused_cliquish_only():
    with pytest.raises(ClassRefusal):
        osc_point(restrict_tags(Penny(A), {CLIQUISH}), F(1, 2), 6)


def test_is_continuous_at_examples():
    f = Penny(A)
    assert is_continuous_at(f, S2(0), 64).value is Truth.NO
    assert is_continuous_at(f, F(1, 3), 64).value is Truth.YES
    assert is_continuous_at(thomae(), F(2, 3), 64).value is Truth.NO


# --- moduli ---


def unit_ball(x, n):
    """ball(x, n) with its ends clipped to [0, 1]."""
    b = ball(x, n)
    return DyadicInterval(max(b.lower, 0), min(b.upper, 1))


def test_modulus_continuity_identity_fn():
    f = linear(1)
    G = modulus_continuity_qc(f)
    for x in (F(1, 3), F(1, 2)):
        for k in (2, 5):
            n = G(x, k)
            # continuity-modulus bound, checked on a grid
            for y in rational_grid(unit_ball(x, n), 8):
                assert abs(f.eval(y) - f.eval(x)) < Q2.of(F(1, 1 << k))


def test_modulus_continuity_thomae_irrational():
    G = modulus_continuity_qc(thomae())
    n = G(S2(0), 3)
    # frozen from the independent search: the first exponent whose ball
    # oscillation (spikes by denominator) drops to 2^-4
    expected = next(m for m in range(64)
                    if brute_ball_osc(thomae(), S2(0), m, depth=8) <= Q2.of(F(1, 16)))
    assert n == expected == 8
    iv = unit_ball(S2(0).approx(20), n)
    for y in rational_grid(iv, 8):
        assert thomae().eval(y) < Q2.of(F(1, 8))


def test_modulus_continuity_constant():
    G = modulus_continuity_qc(constant(F(1, 7)))
    assert G(F(1, 2), 6) == 0


def test_modulus_qc_thomae(deadline):
    """Thomae is 0 at every irrational, so no interval keeps it within 1/4
    of f(1/2) = 1/2 or within 1/8 of f(1/3): each search runs out of fuel.
    Grid probes passed (2047/4096, 2049/4096), where 1/2 + sqrt2/16384
    has value 0.  At sqrt2/2 an interval exists, and the one returned holds
    the bound at every point, by the exact range."""
    deadline(5)
    t = thomae()
    for x, k in ((F(1, 2), 2), (F(1, 3), 3)):
        with pytest.raises(FuelExhausted):
            modulus_qc(t, x, k, 3)
    assert t.eval(F(1, 2) + S2(0) / 8192) == 0
    c, d = modulus_qc(t, S2(0), 10, 3)
    inf_b, sup_b = t.range_on(DyadicInterval(c, d), 20)
    assert inf_b.lo == 0 and sup_b.hi < F(1, 1 << 10)


def test_modulus_qc_constant_and_penny():
    c, d = modulus_qc(constant(F(1, 5)), F(1, 2), 4, 3)
    assert F(3, 8) <= c < d <= F(5, 8)
    f = Penny(A)
    c, d = modulus_qc(f, S2(0), 0, 1)  # range bound 1/2 < 1 makes any interval fine
    assert c < d


def test_point_of_continuity_qc_certified():
    x = point_of_continuity_qc(thomae(), 6)
    cert = osc_point(thomae(), x, 6, fuel=128)  # doubled fuel re-verification
    assert cert.upper <= F(1, 64)
    assert point_of_continuity_qc(constant(5 * F(1, 7)), 8) == F(1, 2)
    xp = point_of_continuity_qc(Penny(A), 8)
    cert2 = osc_point(Penny(A), xp, 8, fuel=128)
    assert cert2.upper <= F(1, 256)


def test_point_of_continuity_usco():
    f = Penny(A)
    x = point_of_continuity_usco(f, natural_usco_modulus(f), 8)
    assert bool(is_continuous_at(f, x, 64))
    assert A.index_of(Q2.of(x)) is None
    ind = Indicator(FinitePointSet.of([F(1, 2)]))
    x2 = point_of_continuity_usco(ind, natural_usco_modulus(ind), 6)
    assert Q2.of(x2) != Q2.of(F(1, 2))
    c = constant(F(2, 7))
    assert point_of_continuity_usco(c, natural_usco_modulus(c), 6) == F(1, 2)


@pytest.mark.parametrize("run, error, message, best", [
    (lambda: cousin_subcover(constant(F(1, 64)), fuel=1), FuelExhausted,
     "enumeration prefix did not cover the interval", [(F(0), F(1, 64)), (F(1), F(1, 64))]),
    (lambda: point_of_continuity_usco(Penny(A), lambda c, k: 0, 4), InvalidModulus,
     "usco modulus gave the radius 0 at 1/2", None),
    (lambda: osc_point(linear(1), F(1, 2), 4, fuel=0), FuelExhausted,
     "ball oscillation did not close onto the cluster value", DyadicInterval(0, 0)),
], ids=["cousin-prefix", "usco-zero-radius", "osc-ball-walk"])
def test_exits_name_their_cause(run, error, message, best):
    """A gauge of radius 1/64 needs more than the two balls fuel 1 allows; a
    modulus of radius 0 is refused at the first centre; and with fuel 0 the
    oscillation walk reads only the ball [0, 1], whose oscillation 1 does
    not close onto the identity's 0 at 1/2."""
    with pytest.raises(error, match=message) as err:
        run()
    assert getattr(err.value, "best", None) == best


@pytest.mark.parametrize("radius", [F(0), F(-1)])
def test_point_of_continuity_usco_refuses_nonpositive_radius(radius, deadline):
    # a zero radius makes the nested interval degenerate, so the candidate
    # search cannot end; a negative one inverts the interval's endpoints
    deadline(5)
    with pytest.raises(InvalidModulus, match="usco modulus gave the radius"):
        point_of_continuity_usco(Penny(sqrt2_family()), lambda x, k: radius, 6)


def test_usco_modulus_defining_bound():
    f = Penny(A)
    psi = natural_usco_modulus(f)
    for x in (F(1, 3), S2(0), F(0)):
        for k in (2, 4):
            r = psi(x, k)
            assert r > 0
            fx = f.eval(x)
            p = Q2.of(x)
            c = p.as_rational() if p.is_rational else p.approx(40)
            window = DyadicInterval(max(F(0), c - r), min(F(1), c + r))
            for pt in probe_basis(f, window, 7):
                assert f.eval(pt) < fx + Q2.of(F(1, 1 << k))


def test_lsco_modulus_on_cf():
    f = Penny(A)
    g0 = lsco_modulus_on_cf(f)
    n = g0(F(1, 3), 4)
    iv = unit_ball(F(1, 3), n)
    # the guarantee at a continuity point: all values below f(x) + 2^-4
    for pt in probe_basis(f, iv, 7):
        assert f.eval(pt) < Q2.of(F(1, 16))
    # and the ball indeed avoids the members with index <= 4
    assert all(i > 4 for i, _ in A.members_in(iv, 12))
    assert lsco_modulus_on_cf(constant(F(1, 3)))(F(1, 2), 5) == 0
    # total at a member too, no guarantee asserted there
    assert isinstance(g0(S2(0), 3), int)


_PIN_FAMILIES = {
    "thomae": thomae,
    "penny": lambda: Penny(sqrt2_family()),
    "staircase": lambda: staircase([(F(1, 3), 1), (F(2, 3), F(1, 2))]),
    "indicator": lambda: Indicator(FinitePointSet.of([F(1, 2)])),
}
_PIN_PROBES = (F(1, 3), F(1, 2), S2(0), F(0), F(1))
_PIN_MODULI = {"continuity": modulus_continuity_qc, "usco": natural_usco_modulus,
               "lsco-on-cf": lsco_modulus_on_cf, "regulation": modulus_regulation}
# per family and modulus, one row per probe (1/3, 1/2, member 0, 0, 1) of the
# values at k = 2, 4, 6; usco radii are listed as n for the radius 2^-n
_PINNED_MODULI = {
    "thomae": {
        "continuity": [[0, 0, 0], [0, 0, 0], [8, 10, 15], [0, 0, 0], [0, 0, 0]],
        "usco": [[2, 3, 3], [2, 2, 2], [5, 8, 13], [0, 0, 0], [0, 0, 0]],
        "lsco-on-cf": [[3, 3, 3], [2, 2, 2], [8, 10, 15], [0, 0, 0], [0, 0, 0]],
        "regulation": [[3, 5, 7], [2, 4, 6], [4, 7, 12], [2, 4, 6], [2, 4, 6]],
    },
    "penny": {
        "continuity": [[6, 6, 6], [3, 3, 3], [0, 0, 0], [2, 4, 6], [2, 2, 2]],
        "usco": [[6, 6, 6], [3, 3, 3], [0, 0, 0], [2, 4, 6], [2, 2, 2]],
        "lsco-on-cf": [[6, 6, 6], [3, 3, 3], [0, 0, 0], [3, 5, 7], [2, 2, 2]],
        "regulation": [[5, 5, 5], [2, 2, 2], [1, 1, 1], [1, 3, 5], [1, 1, 1]],
    },
    "staircase": {
        "continuity": [[0, 0, 0], [3, 3, 3], [5, 5, 5], [2, 2, 2], [2, 2, 2]],
        "regulation": [[1, 1, 1], [2, 2, 2], [4, 4, 4], [1, 1, 1], [1, 1, 1]],
    },
    "indicator": {
        "continuity": [[3, 3, 3], [0, 0, 0], [3, 3, 3], [2, 2, 2], [2, 2, 2]],
        "usco": [[3, 3, 3], [0, 0, 0], [3, 3, 3], [2, 2, 2], [2, 2, 2]],
        "lsco-on-cf": [[3, 3, 3], [0, 0, 0], [3, 3, 3], [2, 2, 2], [2, 2, 2]],
        "regulation": [[2, 2, 2], [0, 0, 0], [2, 2, 2], [1, 1, 1], [1, 1, 1]],
    },
}
# (point_of_continuity_qc, point_of_continuity_usco) at k = 2, 4, 6
_PINNED_POINTS = {
    "thomae": ([F(31, 64)] * 3, [F(7, 16), F(895, 2048), F(895, 2048)]),
    "penny": ([F(1, 2)] * 3, [F(1, 2)] * 3),
    "staircase": ([F(1, 2)] * 3, None),
    "indicator": ([F(7, 16)] * 3, [F(1, 4)] * 3),
}


def test_moduli_and_continuity_points_pinned():
    """Every modulus factory, both continuity-point constructions, and the
    memo (each modulus is asked twice) against values recorded before the
    moduli shared one class; a family a factory refuses is left out."""
    for name, make in _PIN_FAMILIES.items():
        for kind, factory in _PIN_MODULI.items():
            want = _PINNED_MODULI[name].get(kind)
            if want is None:
                with pytest.raises(ClassRefusal):
                    factory(make())
                continue
            M = factory(make())
            for x, row in zip(_PIN_PROBES, want):
                for k, v in zip((2, 4, 6), row):
                    expect = F(1, 1 << v) if kind == "usco" else v
                    assert M(x, k) == expect and M(x, k) == expect, (name, kind, x, k)
        qc, usco = _PINNED_POINTS[name]
        for i, k in enumerate((2, 4, 6)):
            assert point_of_continuity_qc(make(), k) == qc[i], (name, k)
            f = make()
            if usco is None:
                with pytest.raises(ClassRefusal):
                    point_of_continuity_usco(f, lambda x, k: F(1), k)
            else:
                assert point_of_continuity_usco(f, natural_usco_modulus(f), k) == usco[i]


# --- Cousin subcovers ---


def test_cousin_uniform_gauge():
    balls = cousin_subcover(constant(F(1, 8)))
    assert covers_unit(balls)
    assert all(r == F(1, 8) for _, r in balls)


def test_cousin_linear_gauge():
    balls = cousin_subcover(linear(F(1, 2), F(1, 16)))
    assert covers_unit(balls)


def test_cousin_gauge_with_an_unattained_zero_limit():
    """1 on [0, 1/2] and x - 1/2 on (1/2, 1] is a positive quasi-continuous
    gauge although its right limit at 1/2 is 0; the ball at 1/2 alone
    covers [0,1]."""
    psi = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(1), Poly(F(-1, 2), 1)],
                                       ["right", 1, "right"])
    assert QUASI_CONTINUOUS in psi.tags and psi.is_positive()
    assert covers_unit(cousin_subcover(psi))


def test_cousin_gauge_plus_constant_zero():
    """The same gauge plus the constant 0 is positive too: once `Sum`
    answered from the gauge's infimum bracket [0, 0] and was refused."""
    psi = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(1), Poly(F(-1, 2), 1)],
                                       ["right", 1, "right"])
    gauge = fn_sum(constant(0), restrict_tags(psi, psi.tags))
    assert isinstance(gauge, Sum) and gauge.is_positive()
    assert covers_unit(cousin_subcover(gauge))


def test_cousin_gauges_through_composites():
    """The same gauge behind a double mirror is covered too; summed with
    Thomae it is positive, but the sum is neither quasi-continuous nor lsco,
    so the tag rule refuses it."""
    from abyss import scalar_multiple
    psi = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(1), Poly(F(-1, 2), 1)],
                                       ["right", 1, "right"])
    view = restrict_tags(psi, psi.tags)
    gauge = scalar_multiple(-1, scalar_multiple(-1, view))
    assert gauge.is_positive() and covers_unit(cousin_subcover(gauge))
    spiky = fn_sum(view, thomae())
    assert spiky.is_positive()
    with pytest.raises(ClassRefusal, match="quasi-continuous or lsco"):
        cousin_subcover(spiky)


def test_cousin_refusals():
    with pytest.raises(ClassRefusal):
        cousin_subcover(build_cover_psi(A, False))
    with pytest.raises(ClassRefusal):
        cousin_subcover(build_cover_psi(A, True))
    with pytest.raises(ClassRefusal):
        cousin_subcover(linear(1))  # vanishing gauge is not a positive gauge


def test_cover_psi_measure_bound():
    """Any ball multiset centred on the banded copy (plus 0) has total length
    strictly below 1: exact summation over every selection of size <= 12."""
    psi = build_cover_psi(A, False)
    til = psi.a_set
    candidates = [til.member(i) for i in range(12)]
    radii = [psi.eval(p).as_rational() for p in candidates]
    zero_r = psi.eval(F(0)).as_rational()
    from itertools import combinations
    idx = range(13)
    total_all = sum(2 * r for r in radii) + 2 * zero_r
    assert total_all < 1
    for size in range(1, 13):
        for sel in combinations(idx, size):
            tot = sum((2 * radii[i] if i < 12 else 2 * zero_r) for i in sel)
            assert tot < 1


# --- separator and code conversion ---


def test_usco_separator_examples():
    sep = usco_separator(FinitePointSet.of([F(0)]), FinitePointSet.of([F(1)]))
    assert sep.eval(F(1)) == Q2.of(1) and sep.eval(F(0)) == Q2.of(0)
    c0 = ComplementOfR2Open(R2Rep.from_intervals([(F(1, 4), F(9, 8))]))
    c1 = ComplementOfR2Open(R2Rep.from_intervals([(F(-1, 8), F(3, 4))]))
    sep2 = usco_separator(c0, c1)
    for g in rational_grid(DyadicInterval(0, 1), 5):
        want = 1 if c1.contains(g) else 0
        assert sep2.eval(g) == Q2.of(want)
        if c0.contains(g):
            assert sep2.eval(g) == Q2.of(0)
    with pytest.raises(ValueError):
        usco_separator(FinitePointSet.of([F(1, 2)]), FinitePointSet.of([F(1, 2)]))


def test_rm_code_membership_grid():
    o = R2Rep.from_intervals([(F(1, 4), F(3, 4))])
    code = rm_code_from_r2_baire1(o, indicator_baire1(o), fuel=64)
    assert code.prefix_of_infinite
    for g in rational_grid(DyadicInterval(0, 1), 8):
        if code.covers(g):
            assert o.contains(g)  # the code never leaves the set
    # and the prefix already covers a healthy interior sample
    for g in rational_grid(DyadicInterval(F(5, 16), F(11, 16)), 4):
        assert code.covers(g)


def test_rm_code_empty_and_split():
    assert rm_code_from_r2_baire1(R2Rep(()), indicator_baire1(R2Rep(())), 8).prefix == ()
    o = R2Rep.from_intervals([(F(0), F(1, 2)), (F(1, 2), F(1))])
    code = rm_code_from_r2_baire1(o, indicator_baire1(o), fuel=64)
    assert not code.covers(F(1, 2))


def test_rm_code_seed_radius_matches_its_loop():
    """The seed ball's radius is the largest 2^-m within the seed point's
    radius, as the loop it replaces counted it down, also where that radius
    is itself a power of two and the bound is met with equality."""
    rng = random.Random(97)
    exact_powers = 0
    for i in range(12):
        a = F(rng.randrange(0, 16), 16)
        b = a + F(rng.randrange(1, 8), 16) if i % 2 else a + F(1, 1 << rng.randrange(1, 5))
        o = R2Rep.from_intervals([(a, b)])
        x0 = next(x for x in unit_rationals() if o.contains(x))
        m0 = 0
        while F(1, 1 << m0) > o.radius(x0):
            m0 += 1
        code = rm_code_from_r2_baire1(o, indicator_baire1(o), fuel=16)
        assert (x0, F(1, 1 << m0)) in code.prefix, (a, b)
        exact_powers += F(1, 1 << m0) == o.radius(x0)
    assert exact_powers >= 2


def test_rm_code_checks_the_indicator_off_the_set_and_codes_a_set_off_the_unit_empty():
    """The indicator of (0, 1) does not match (1/4, 3/4), though both sets
    are nonempty; a set whose one interval misses (0, 1) is empty on [0,1]
    and gets the empty code, not a search for a seed point."""
    o = R2Rep.from_intervals([(F(1, 4), F(3, 4))])
    wide = indicator_baire1(R2Rep.from_intervals([(F(0), F(1))]))
    with pytest.raises(ValueError, match="representation mismatch"):
        rm_code_from_r2_baire1(o, wide, 64)
    off = R2Rep(((F(-1, 2), F(0)),))
    assert rm_code_from_r2_baire1(off, indicator_baire1(off), 64) == RMCode((), False)


def test_rm_code_needs_modulus():
    o = R2Rep.from_intervals([(F(1, 4), F(3, 4))])
    bare = Baire1Limit(lambda n: indicator_baire1(o).term(0))
    with pytest.raises(RepresentationInsufficient):
        rm_code_from_r2_baire1(o, bare, 8)


def test_rm_code_refuses_what_its_indicator_contradicts_or_cannot_range():
    """The empty set with the indicator of (1/4, 3/4) is a mismatch; a
    limit whose terms carry no range (a bare `Baire1Limit`, modulus given)
    cannot answer the per-interval read."""
    o = R2Rep.from_intervals([(F(1, 4), F(3, 4))])
    with pytest.raises(ValueError, match="representation mismatch"):
        rm_code_from_r2_baire1(R2Rep(()), indicator_baire1(o), 8)
    bare = Baire1Limit(lambda n: indicator_baire1(o).term(0), conv_modulus=lambda x, j: 0)
    with pytest.raises(UnsupportedVariant, match="consumed through its representation"):
        rm_code_from_r2_baire1(o, bare, 8)


# --- what the fast paths may cost (their answers: test_differential) ---


def test_rm_code_reads_one_range_per_interval():
    """Probing a depth-8 grid, the set's ends and the special points made
    1,480 indicator evaluations on (1/4, 3/4) at fuel 64; each interval is
    now one exact range read, as is each of the complement's components
    [0, 1/4] and [3/4, 1], and the empty set's one component [0, 1]."""
    for o, fuel, ranges in [(R2Rep.from_intervals([(F(1, 4), F(3, 4))]), 64, 66),
                            (R2Rep(()), 64, 1)]:
        ind, reads = indicator_baire1(o), {"range_on": 0, "eval": 0}
        for name in reads:
            def spy(*args, _read=getattr(ind, name), _name=name):
                reads[_name] += 1
                return _read(*args)
            setattr(ind, name, spy)
        rm_code_from_r2_baire1(o, ind, fuel)
        assert reads == {"range_on": ranges, "eval": 0}, (o, reads)


def test_modulus_qc_builds_few_fractions():
    """Candidates ordered by `Fraction` keys made 57 `Fraction.__new__`
    calls here."""
    f = make("four-piece")
    assert modulus_qc(f, F(1, 2), 6, 3) == (F(15, 32), F(1, 2))
    # the lower of a tie
    assert modulus_qc(make("twin-bumps"), F(1, 2), 3, 1) == (F(1, 4), F(3, 8))
    assert fraction_news(lambda: modulus_qc(f, F(1, 2), 6, 3)) <= 25


def test_modulus_qc_reads_the_range_of_in_band_cells_only():
    """Reading every grid cell nearer x than the first that passes made 259
    `range_on` reads on the continuous entry and 511 on the tents; a cell
    with an end outside the band now fails on its end values."""
    for name, x, n, want, most in [
            ("continuous(2401a)", F(5, 16), 0, (F(79, 256), F(81, 256)), 7),
            ("twin-bumps", F(1, 2), 3, (F(1023, 2048), F(1025, 2048)), 7)]:
        f, reads = make(name), []
        read = f.range_on
        f.range_on = lambda iv, k: reads.append(iv) or read(iv, k)
        assert modulus_qc(f, x, 6, n) == want and len(reads) <= most, (name, len(reads))


def test_point_of_continuity_qc_gives_up_before_any_ball_once_none_fits(deadline):
    """Trying every candidate centre took 13-23 ms per call on this instance
    when no ball small enough fits within the fuel; the best interval is
    the same."""
    deadline(2)
    bests = [(F(0), F(1))] * 2 + [(F(3, 8), F(5, 8))] * 2 + [(F(15, 32), F(17, 32))] * 2
    for fuel, best in enumerate(bests):
        with pytest.raises(FuelExhausted) as err:
            point_of_continuity_qc(Penny(A), 2, fuel=fuel)
        assert (err.value.best.lower, err.value.best.upper) == best, fuel
    assert calls_to(lambda: outcome(lambda: point_of_continuity_qc(Penny(A), 2, fuel=0)),
                    category.__file__, "_next_ball") == 0


# query-count rows: (name, run, counted, most) holds when run() calls each
# function (module, name) of counted at most most[i] times, by the profiler
QUERY_COUNTS = [
    # each level resumes its modulus search where the last one stopped
    # (searching each level from 0 asked 70 windows and 101 spike ranges)
    ("regulation realiser, sqrt2, k = 16, fuel 16",
     lambda: realiser_from_regulation_modulus(canonical_regulation_modulus(A), A, 16, 16),
     [(variation, "_regulated_within"), (spikes, "_range_on")], [36, 67]),
    # one scope over the stages: each ball supremum read once (not kept: 32)
    ("point_of_continuity_usco, penny(sqrt2), k = 6",
     lambda: point_of_continuity_usco(Penny(A), natural_usco_modulus(Penny(A)), 6),
     [(spikes, "_range_on")], [3]),
    # a stage's first ball inside a ball well below 2^-m is granted unread
    # (every first ball read: 9)
    ("point_of_continuity_qc, four-piece, k = 8", lambda: point_of_continuity_qc(
        make("four-piece"), 8), [(collapse, "_osc_on")], [3]),
    # the halving's one probe walk evaluates the limit at 3 points (a
    # Baire1Above search per midpoint evaluated it at 3 points too)
    ("sup_baire1, pennyk_limit(sqrt2), k = 10", lambda: sup_baire1(
        pennyk_limit(sqrt2_family()), 0, 1, 10), [(limits, "_eval")], [3]),
]


@pytest.mark.parametrize("name, run, counted, most", QUERY_COUNTS,
                         ids=[row[0] for row in QUERY_COUNTS])
def test_query_counts(name, run, counted, most):
    got = [calls_to(run, module.__file__, fn) for module, fn in counted]
    # a function that moved or was renamed would count 0
    assert all(0 < g <= m for g, m in zip(got, most)), (name, got, most)


def probe_states(scope):
    """The probe states in a query scope's dict, by (function, ln, un, d)."""
    return {key[1:]: state for key, state in scope.items() if key[0] == "probe"}


def test_a_halving_run_keeps_its_probe_state_and_exact_bracket(deadline):
    """Rebuilding the basis for every threshold made 27, 55 and 34
    `probe_points` calls for the first three runs, and every threshold of
    `sup_qc` called `_range_on`: 21 at k = 20.  A halving keeps one probe
    state per limit and interval in its query scope, which a second run in
    the same scope reads; a threshold on a spike value of a limit with no
    stabilizer is undecided.  An exact bracket, read once, decides every
    midpoint with no threshold query (at k = 20 the four runs below made 19
    or 20 `_witness` calls each, and their `Fraction`s grew with k); an
    inexact one asks `range_on` as often as the fresh halving.  The `sup-qc`
    and `inf-usco` rows check the answers."""
    deadline(20)
    for p, q in ((0, 1), (0, F(1, 4)), (F(3, 4), 1), (F(1, 32), F(1, 8))):
        def run():
            return sup_baire1(pennyk_limit(sqrt2_family()), p, q, 10)

        iv = DyadicInterval(p, q)
        assert calls_to(run, universe.__file__, "probe_points") <= grid_depth_cap(iv) + 1, (p, q)
        # each point is evaluated once (one point check per evaluation), and
        # a second run on the same limit and interval in the same scope
        # evaluates nothing
        f = pennyk_limit(sqrt2_family())
        with query_scope():
            evaluations = calls_to(lambda: sup_baire1(f, p, q, 10), universe.__file__,
                                   "_unit_point")
            states = probe_states(query_state())
            assert list(states) == [(f, iv.ln, iv.un, iv.d)], (p, q)
            points = {(x.p, x.q, x.d) for d in range(len(states[f, iv.ln, iv.un, iv.d].sizes))
                      for x in basis_at(f, iv, d)}
            assert evaluations <= len(points), (p, q)
            for name in ("probe_points", "_unit_point"):
                assert calls_to(lambda: sup_baire1(f, p, q, 10), universe.__file__, name) == 0
    for run, module in [(lambda k: sup_qc(make("four-piece"), 0, 1, k), piecewise),
                        (lambda k: inf_usco(make("four-piece"), F(1, 8), 1, k), piecewise),
                        (lambda k: sup_qc(thomae(), F(1, 4), F(3, 4), k), rational_spike),
                        (lambda k: inf_usco(Penny(A), 0, 1, k), spikes)]:
        for k in (4, 10, 20):
            assert calls_to(lambda: run(k), universe.__file__, "_witness") == 0, k
            assert calls_to(lambda: run(k), module.__file__, "_range_on") == 1, k
        assert fraction_news(lambda: run(10)) == fraction_news(lambda: run(40))
    assert calls_to(lambda: sup_qc(constant(F(1, 3)), 0, 1, 20), universe.__file__,
                    "range_on") == 0
    for name in ("pennyk-limit(sqrt2)", "pennyk-limit(4 seeds)",
                 "constant-seq-limit(four-piece)", "constant-seq-limit(irrational-cut)"):
        f = make(name)
        for (p, q), *_ in ENTRIES[name]["halving"]:
            iv = DyadicInterval(p, q)
            lo, hi = f.range_bound()
            with query_scope():
                run = halving(f, iv, lo, hi, 12, DEFAULT_FUEL, mu_search)
                states = probe_states(query_state())
                assert list(states) == [(f, iv.ln, iv.un, iv.d)], (name, iv)
                assert halving(f, iv, lo, hi, 12, DEFAULT_FUEL, mu_search) == run
                # the second run read the first run's state: the same object
                assert probe_states(query_state()) == states
            assert outcome(lambda: sup_baire1(f, p, q, 12)) == run[1]
    steps, (tag, _) = halving(make("generic-limit(4 seeds)"), DyadicInterval(0, 1), F(0), F(1),
                              4, 8, mu_search)
    assert [mid for mid, _ in steps] == [F(1, 2)] and tag == "FuelExhausted"
    for k in (10, 20):
        ranges = [calls_to(lambda: run(make("irrational-cut-staircase"), 0, 1, k),
                           piecewise.__file__, "_range_on")
                  for run in (sup_qc, lambda f, p, q, k: fresh_halving(f, p, q, k, True))]
        assert ranges[0] == ranges[1] > k // 2, ranges
    for name, entry in ENTRIES.items():
        if {"sup-qc", "inf-usco"} & set(entry["groups"]):
            assert type(make(name))._witness_via_range is universe.SymbolicFn._witness_via_range


def test_a_halving_shares_one_query_scope_and_closes_it():
    """`_halve_values` opens the query scope its thresholds share, and no
    scope is open once `sup_qc`, `inf_usco` or `sup_baire1` returns, or
    once a halving has given up."""
    scopes = []

    def watch(search):
        def decide(query, trace):
            scopes.append(universe._SCOPE.get())
            return search(query, trace)
        return decide

    for run in (lambda: sup_qc(make("four-piece"), 0, 1, 10),
                lambda: inf_usco(make("four-piece"), F(1, 8), 1, 10),
                lambda: sup_baire1(pennyk_limit(sqrt2_family()), 0, 1, 10)):
        run()
        assert universe._SCOPE.get() is None
    _, (tag, _) = halving(make("generic-limit(4 seeds)"), DyadicInterval(0, 1), F(0), F(1),
                          4, 8, watch(mu_search))
    assert tag == "FuelExhausted" and scopes[0] is not None and universe._SCOPE.get() is None
    scopes.clear()
    steps, _ = halving(make("pennyk-limit(sqrt2)"), DyadicInterval(0, 1), F(0), F(1), 10,
                       DEFAULT_FUEL, watch(mu_search))
    assert len(steps) == 10 and scopes[0] is not None
    assert all(scope is scopes[0] for scope in scopes)
    assert universe._SCOPE.get() is None


def test_a_shared_function_answers_as_fresh_instances_do(deadline):
    """Functions are values: one instance asked by halvings on different
    intervals, one after another or in one outer query scope, gives the
    answers fresh instances give."""
    deadline(20)
    runs = [("four-piece", lambda f, p, q: sup_qc(f, p, q, 12)),
            ("four-piece", lambda f, p, q: inf_usco(f, p, q, 12)),
            ("irrational-cut-staircase", lambda f, p, q: sup_qc(f, p, q, 12)),
            ("pennyk-limit(sqrt2)", lambda f, p, q: sup_baire1(f, p, q, 12)),
            ("constant-seq-limit(four-piece)", lambda f, p, q: sup_baire1(f, p, q, 12))]
    ivs = [(0, 1), (F(1, 8), F(1, 2)), (0, 1), (F(3, 4), 1), (F(1, 8), F(1, 2))]
    for name, run in runs:
        fresh = [run(make(name), p, q) for p, q in ivs]
        f = make(name)
        assert [run(f, p, q) for p, q in ivs] == fresh, name
        f = make(name)
        with query_scope():
            assert [run(f, p, q) for p, q in ivs] == fresh, name


def test_a_halving_in_an_outer_scope_joins_it():
    """Two halvings on one (f, iv) inside one `query_scope()` read its range
    once when the bracket is exact, and share one probe state; outside a
    scope each run reads afresh."""
    f = make("four-piece")

    def twice():
        return sup_qc(f, 0, 1, 10), sup_qc(f, 0, 1, 20)

    assert calls_to(twice, piecewise.__file__, "_range_on") == 2
    with query_scope():
        assert calls_to(twice, piecewise.__file__, "_range_on") == 1
    # a probe depth is built by `_ProbeState._grow`, once per state
    f = pennyk_limit(sqrt2_family())
    with query_scope():
        once = calls_to(lambda: sup_baire1(f, 0, 1, 10), oracle.__file__, "_grow")
        assert once > 0
        assert calls_to(lambda: sup_baire1(f, 0, 1, 12), oracle.__file__, "_grow") == 0
    assert calls_to(lambda: sup_baire1(f, 0, 1, 10), oracle.__file__, "_grow") == once
