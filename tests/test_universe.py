"""Function universe: exact evaluation, constructors, class tags (the
`tag-witness` row witnesses them), ranges against brute force,
serialization."""

import ast
import importlib
import inspect
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from abyss import (ConstructionError, CoverPsi, CoverPsiUsco, DomainError, DyadicInterval,
                   ExistsValueBelow, FinitePointSet, Found, FuelExhausted, Indicator, MuWitness,
                   NotPointwiseEvaluable, Penny, PennyK, PiecewiseRational, Poly, Q2, R2Rep,
                   TildePenny, Truth, UnsupportedVariant, ValueBelowOnBall, build_cover_psi,
                   constant, exact, finite_set, fn_difference, fn_sum, inf_usco, jump_enum, linear,
                   mu_search, osc_selfcheck, pennyk_limit, rational_grid, restrict_tags,
                   scalar_multiple, sqrt2_family, staircase, thomae, tilde_set, usco_separator)
from abyss import piecewise, universe
from abyss.composites import ScalarMultiple, Sum
from abyss.exact import Bracket
from abyss.sets import ComplementOfR2Open, band_of, minimal_shift_into_band
from abyss.serialize import fn_from_json, fn_json
from abyss.universe import (BAIRE1, BV, CLIQUISH, CONTINUOUS, LSCO, NORMALISED_BV, QUASI_CONTINUOUS,
                            REGULATED, SIMPLY_CONTINUOUS, USCO, unit_point)

from catalogue import (all_unit_rationals, build, make, random_continuous_piecewise,
                       random_staircase, random_subinterval)
from conftest import calls_to, fraction_news
from references import brute_values, loop_band_of, plain_probe_points

A = sqrt2_family()
S2 = Q2.sqrt2_scaled


# --- evaluation examples ---


def test_thomae_values():
    t = thomae()
    assert t.eval(F(1, 2)) == Q2.of(F(1, 2))
    assert t.eval(F(2, 4)) == Q2.of(F(1, 2))  # reduced form decides the value
    assert t.eval(F(0)) == Q2.of(1)
    assert t.eval(F(1)) == Q2.of(1)
    assert t.eval(F(2, 3)) == Q2.of(F(1, 3))
    assert t.eval(S2(0)) == Q2.of(0)


def test_penny_values():
    f = Penny(A)
    assert f.eval(F(1, 2)) == Q2.of(0)  # all members are irrational
    assert f.eval(S2(0)) == Q2.of(F(1, 2))
    assert f.eval(S2(1)) == Q2.of(F(1, 4))
    with pytest.raises(DomainError):
        f.eval(F(3, 2))


def test_penny_constructors():
    single = finite_set([S2(0)])
    f = Penny(single)
    assert f.eval(S2(0)) == Q2.of(F(1, 2))
    assert f.eval(F(1, 3)) == Q2.of(0)
    assert f.tags == frozenset({CLIQUISH, USCO, BV, REGULATED, BAIRE1})
    with pytest.raises(ValueError):
        finite_set([])  # empty seed set
    with pytest.raises(ValueError):
        finite_set([S2(0), S2(0)])  # duplicate breaks injectivity


def test_penny_positive_exactly_on_members():
    f = Penny(A)
    probes = [A.member(n) for n in range(8)]
    probes += [Q2.of(g) for g in rational_grid(DyadicInterval(0, 1), 4)]
    probes += [Q2(F(1, 3), F(1, 64))]
    for x in probes:
        assert (f.eval(x) > Q2.of(0)) == (A.index_of(x) is not None)


def test_penny_finitely_many_above_threshold():
    """At most k members exceed 2^-k: the values are index-determined."""
    for k in range(1, 10):
        big = [n for n in range(40) if F(1, 1 << (n + 1)) > F(1, 1 << k)]
        assert len(big) <= k
        assert big == list(range(k - 1))


def test_pennyk_truncation():
    f = PennyK(A, 1)
    assert f.eval(S2(0)) == Q2.of(F(1, 2))
    assert f.eval(S2(1)) == Q2.of(F(1, 4))
    assert f.eval(S2(2)) == Q2.of(0)  # truncated index


def test_pennyk_pointwise_limit_modulus():
    """The truncations converge with modulus m(x, j) = j."""
    full = Penny(A)
    probes = [p for _, p in A.members_upto(10)] + \
             [Q2.of(g) for g in rational_grid(DyadicInterval(0, 1), 3)]
    for x in probes:
        want = full.eval(x)
        for j in range(1, 12):
            for n in range(j, j + 4):
                got = PennyK(A, n).eval(x)
                assert abs(got - want) < Q2.of(F(1, 1 << j))


def test_baire1_limit_needs_modulus():
    from abyss import Baire1Limit
    rep = Baire1Limit(lambda n: PennyK(A, n))
    with pytest.raises(NotPointwiseEvaluable):
        rep.eval(F(1, 2))
    good = pennyk_limit(A)
    assert good.eval(S2(1)) == Q2.of(F(1, 4))
    assert good.eval_limit_approx(S2(1), 6) == F(1, 4)


# --- the banded copy and the covering instances ---


def test_tilde_of_canonical_is_itself():
    f = TildePenny(A)
    til = f.a_set
    for n in range(8):
        assert til.member(n) == A.member(n)
        assert f.eval(A.member(n)) == Q2.of(F(1, 1 << (n + 1)))
    assert f.eval(F(1, 3)) == Q2.of(0)
    assert til.index_of(Q2.of(0)) is None  # 0 is outside the banded copy


def test_tilde_bands_and_nowhere_density():
    rng = random.Random(7)
    for _ in range(6):
        pts = []
        while len(pts) < 5:
            p = Q2(F(rng.randrange(1, 127), 128), F(1, 1 << rng.randrange(3, 30)))
            if p < 1 and all(p != e for e in pts):
                pts.append(p)
        src = finite_set(pts)
        til = tilde_set(src)
        for n in range(5):
            y = til.member(n)
            assert band_of(y, half_open=True) == n  # one point per band
            assert y + minimal_shift_into_band(src.member(n), n) == src.member(n)


def test_tilde_rejects_rational_members():
    with pytest.raises(ValueError):
        tilde_set(finite_set([F(1, 3)]))
    with pytest.raises(ValueError):
        TildePenny(finite_set([Q2(F(1, 4), F(1, 8)), F(1, 2)]))


def test_cover_psi_values():
    psi = build_cover_psi(A, False)
    assert psi.eval(F(3, 4)) == Q2.of(F(1, 8))  # off the copy
    assert psi.eval(S2(0)) == Q2.of(F(1, 32))   # band-0 member: 2^-(0+5)
    assert psi.eval(F(0)) == Q2.of(F(1, 8))
    assert psi.is_positive()


def test_cover_psi_usco_values():
    psi = build_cover_psi(A, True)
    assert psi.eval(F(3, 4)) == Q2.of(F(1, 64))   # band 0 off-copy: 2^-(0+6)
    assert psi.eval(S2(0)) == Q2.of(F(1, 32))     # band-0 member: 2^-(0+5)
    assert psi.eval(F(3, 8)) == Q2.of(F(1, 128))  # band 1 off-copy
    assert psi.eval(F(1, 2)) == Q2.of(F(1, 64))   # boundary takes the larger band
    assert psi.eval(F(0)) == Q2.of(F(1, 64))
    assert psi.eval(F(1)) == Q2.of(F(1, 64))
    assert psi.is_positive()


def test_cover_tags():
    psi = build_cover_psi(A, False)
    assert CLIQUISH in psi.tags and USCO not in psi.tags
    assert QUASI_CONTINUOUS not in psi.tags
    usco = build_cover_psi(A, True)
    assert USCO in usco.tags and QUASI_CONTINUOUS not in usco.tags


def test_normalised_bv_tag_staircase():
    st = staircase([(F(1, 2), F(1, 4))])
    assert NORMALISED_BV in st.tags
    assert st.eval(F(0)) == Q2.of(0)
    lr_val = st.pieces[1](Q2.of(F(1, 2)))
    assert st.eval(F(1, 2)) == lr_val  # right-continuous at the jump
    assert NORMALISED_BV not in Penny(A).tags  # removable jumps break it


def test_simply_continuous_tag_tilde():
    f = TildePenny(A)
    assert SIMPLY_CONTINUOUS in f.tags
    assert SIMPLY_CONTINUOUS not in thomae().tags  # the classic non-example


def test_restricted_view():
    f = Penny(A)
    g = restrict_tags(f, {CLIQUISH})
    assert g.tags == frozenset({CLIQUISH})
    assert g.certificates == frozenset()
    assert g.eval(S2(0)) == f.eval(S2(0))
    with pytest.raises(ValueError):
        restrict_tags(f, {QUASI_CONTINUOUS})  # cannot add tags


# --- exact ranges against brute force ---


def test_brute_force_reads_the_members_of_a_scaled_part_inside_a_sum():
    """The probe basis unwraps a scaled part at every level: 1/3 + Penny/2
    peaks at 7/12 at the member sqrt2/2, which no grid point holds."""
    f = Sum(constant(F(1, 3)), ScalarMultiple(F(1, 2), Penny(A)))
    top = Q2.of(F(7, 12))
    assert max(brute_values(f, DyadicInterval(0, 1), 7)) == top
    assert f.range_on(DyadicInterval(0, 1), 7)[1] == Bracket.point(F(7, 12))


def test_cluster_bounds_examples():
    f = Penny(A)
    li, ls = f.cluster_bounds(S2(0), 20)
    assert li.exact and ls.exact and li.lo == 0 and ls.lo == 0
    t = thomae()
    li, ls = t.cluster_bounds(F(1, 2), 20)
    assert li.lo == ls.lo == 0
    st = staircase([(F(1, 2), 1)])
    li, ls = st.cluster_bounds(F(1, 2), 20)
    assert li.lo == 0 and ls.lo == 1
    psi = build_cover_psi(A, False)
    li, ls = psi.cluster_bounds(F(0), 20)
    assert li.lo == 0 and ls.lo == F(1, 8)


def test_cover_usco_osc_at_band_boundary():
    psi = build_cover_psi(A, True)
    from abyss import osc_point
    for n in (0, 1, 2):
        x = F(1, 1 << (n + 1))
        iv = osc_point(psi, x, 12)
        want = F(1, 1 << (n + 6)) - F(1, 1 << (n + 7))  # gap between the bands
        assert iv.contains(want)
    interior = osc_point(psi, F(3, 4), 12)
    assert interior.contains(F(0))


def test_cover_usco_regulation_modulus():
    from abyss import modulus_regulation
    psi = build_cover_psi(A, True)
    M = modulus_regulation(psi)
    m = M(F(1, 2), 8)
    # the window must stay inside the adjacent bands
    assert F(1, 1 << (m + 1)) <= F(1, 4)


def test_osc_selfcheck():
    assert osc_selfcheck(Penny(A))
    assert osc_selfcheck(Penny(finite_set([S2(0)])))
    assert osc_selfcheck(TildePenny(A))
    with pytest.raises(UnsupportedVariant):
        osc_selfcheck(constant(0))


def test_spike_scans_reach_the_member_they_once_missed():
    """Three brackets that once missed the exact value: `TildePenny` on 12
    seeds gave sup [0, 0] beside its member 10 (f = 1/2048 there), and
    `CoverPsi` gave inf [1/8, 1/8] there (f = 1/32768) and [0, 1/8],
    wider than 2^-4, beside member 9 of the sqrt2 family."""
    seeds = finite_set([Q2(F(1, 3), F(1, 1 << (i + 5))) for i in range(12)])

    def around(f, n, j):
        p = f.a_set.member(n)
        lo, hi = p.bracket(j)
        w = F(1, 1 << (j + 2))
        return DyadicInterval(lo - w, hi + w), p

    f = TildePenny(seeds)
    iv, p = around(f, 10, 20)
    _, sup_b = f.range_on(iv, 4)
    assert f.eval(p) == Q2.of(F(1, 2048)) and sup_b.lo <= F(1, 2048) <= sup_b.hi
    assert sup_b.hi - sup_b.lo <= F(1, 16)
    assert f.witness_above(iv, 0) == (Truth.YES, p)
    for psi, n, j, value in ((CoverPsi(seeds), 10, 20, F(1, 32768)),
                             (CoverPsi(A), 9, 30, F(1, 16384))):
        iv, p = around(psi, n, j)
        assert psi.eval(p) == Q2.of(value)
        assert psi.range_on(iv, 4) == (Bracket.point(value), Bracket.point(F(1, 8)))


def test_finite_set_refuses_in_the_order_of_its_passes():
    """Every point is read first (a float is refused), then each is checked
    against [0,1], and only then are duplicates looked for, by value."""
    with pytest.raises(ValueError, match=r"^point 2 outside \[0,1\]$"):
        finite_set([2, 2])
    for points in ([2, 2, 0.5], [F(1, 3), F(1, 3), 0.5], [0.5, 2]):
        with pytest.raises(TypeError, match="^float 0.5 refused"):
            finite_set(points)
    with pytest.raises(ValueError, match=r"^duplicate point 1/3 \(index map must be "
                                         r"injective\)$"):
        finite_set([F(1, 3), S2(0), Q2.of(F(2, 6))])


@pytest.mark.parametrize("kind", [list, set, frozenset])
def test_an_unknown_class_tag_is_refused_by_its_sorted_name(kind):
    tags = kind(["usco", "zeta", "BV", "alpha"])
    with pytest.raises(ValueError, match=r"^unknown class tags: \['alpha', 'zeta'\]$"):
        universe.SymbolicFn(tags)
    assert universe.SymbolicFn(kind([USCO, BV])).tags == frozenset({USCO, BV})


def test_constant_refuses_an_irrational_value():
    with pytest.raises(ConstructionError):
        constant(Q2(0, F(1, 2)))
    assert constant(F(2, 3))._hull()[:2] == (Q2.of(F(2, 3)), Q2.of(F(2, 3)))


def test_sum_with_a_constant_side_is_exact_in_one_cell(monkeypatch):
    """Where one part takes a single value, the cell rule's brackets are
    the other part's brackets at 2^-(k+1) plus that value, so a sum with a
    constant side answers from one `range_on` call of each atom of its
    terms: with a zero multiple (which leaves no term), the indicator of the
    empty set or of all of [0,1], a restricted constant (whose atom is the
    constant), a constant sequence's limit or a multiple of a restricted
    constant, in either order.  A generic limit has no ranges, so a sum over
    it refuses with the `UnsupportedVariant` of its own `range_on` in either
    order, which the CLI reports as a usage error (exit 1)."""
    from abyss import Baire1Limit, cli, constant_seq_limit
    calls = []

    def counted(part):
        if "range_on" not in vars(part):  # each atom is wrapped once
            inner = part.range_on

            def range_on(iv, k):
                calls.append(part)
                return inner(iv, k)
            part.range_on = range_on
        return part

    zero, third = Bracket.point(0), Bracket.point(F(1, 3))
    sides = [(ScalarMultiple(0, thomae()), zero), (Indicator(FinitePointSet.of([])), zero),
             (Indicator(ComplementOfR2Open(R2Rep.from_intervals([]))), Bracket.point(1)),
             (restrict_tags(constant(F(1, 3)), {CLIQUISH}), third),
             (constant_seq_limit(constant(F(1, 3))), third),
             (ScalarMultiple(F(3, 2), restrict_tags(constant(F(1, 3)), {CLIQUISH})),
              Bracket.point(F(1, 2)))]
    rng = random.Random(2302)
    ivs = [DyadicInterval(*random_subinterval(rng, 6)) for _ in range(6)]
    for side, cb in sides:
        for other in (Penny(A), thomae(), CoverPsi(A)):
            for s in (Sum(side, other), Sum(other, side)):
                atoms = [counted(h) for _, h in s.terms]
                for iv in ivs:
                    for k in (0, 5, 12):
                        io, so = other.range_on(iv, k + 1)
                        calls.clear()
                        assert s.range_on(iv, k) == (io + cb, so + cb)
                        assert calls == atoms, (side, other, iv, k)
    generic = Baire1Limit(lambda n: PennyK(A, n))
    for s in (Sum(generic, thomae()), Sum(thomae(), generic), Sum(generic, constant(1)),
              Sum(constant(1), generic)):
        with pytest.raises(UnsupportedVariant, match="interval ranges of a pointwise limit"):
            s.range_on(DyadicInterval(0, 1), 4)
        # no function document names a generic limit, so the run is patched
        monkeypatch.setattr(cli, "_run", lambda args, s=s: s.range_on(DyadicInterval(0, 1), 4))
        assert cli.main(["selftest"]) == 1


def test_poly_integers_are_canonical():
    assert Poly(F(2, 4), F(3, 6), 0) == Poly(F(1, 2), F(1, 2))
    assert Poly(F(2, 4)).coeffs() == (F(1, 2), 0, 0)
    p = Poly(F(1, 6), F(-3, 4), F(5, 2))
    assert (p.n0, p.n1, p.n2, p.d) == (2, -9, 30, 12)
    with pytest.raises(TypeError):
        Poly(F(1, 2), 0.5)


def test_poly_evaluation_reduces_once_and_builds_no_fraction():
    """Fraction Horner made four reductions per evaluation, 256 here."""
    poly = Poly(F(1, 3), F(-5, 4), F(7, 2))
    pts = [Q2.of(F(j, 64)) for j in range(64)]

    def run():
        return [poly(x) for x in pts]

    assert fraction_news(run) == 0
    assert calls_to(run, exact.__file__, "reduced") == 64


def test_piecewise_builds_and_reads_work_from_the_table():
    """Operation counts, not seconds: a sum of two piecewise functions
    merges their tables with no `eval`, no bisection (`_locate`) and no hash
    of a cut; a staircase evaluates each of its constant pieces once, for
    both of its one-sided limits; the hull reads values off the table."""
    jumps = [(F(1, 8), F(1, 2)), (S2(1), F(-1, 4)), (F(5, 8), F(3, 4)), (F(7, 8), F(1, 8))]
    f, g = staircase(jumps), fn_sum(staircase(jumps[::2]), linear(F(3, 4)))
    for name, file in (("eval", universe.__file__), ("_locate", piecewise.__file__),
                       ("__hash__", exact.__file__)):
        assert calls_to(lambda: fn_sum(f, g), file, name) == 0, name
    cuts = len(jumps) + 2
    assert calls_to(lambda: staircase(jumps), universe.__file__, "__call__") == cuts - 1
    assert calls_to(g._hull, piecewise.__file__, "_locate") == 0


def test_thomae_and_the_step_builders_build_no_fraction():
    """Thomae's values and ranges are read off denominators, and `constant`
    and `staircase` build their tables from their arguments' integers: no
    `Fraction` beyond the arguments."""
    t, pts = thomae(), [Q2.of(F(j, 12)) for j in range(13)] + [S2(0), Q2(F(1, 3), F(1, 8))]
    ivs = [DyadicInterval(F(1, 3), F(1, 2)), DyadicInterval(0, 1),
           DyadicInterval(F(1, 1000), F(1, 999)), DyadicInterval(F(2, 5), F(2, 5))]
    level, jumps = F(2, 7), [(F(1, 8), F(1, 2)), (S2(1), F(-1, 4)), (F(5, 8), 3)]
    assert fraction_news(lambda: [t.eval(x) for x in pts]) == 0
    assert fraction_news(lambda: [t.range_on(iv, k) for iv in ivs for k in (2, 10)]) == 0
    assert fraction_news(lambda: (constant(level), constant(3), staircase(jumps))) == 0
    assert [t.eval(x) for x in pts[:5]] == [Q2(1), Q2(F(1, 12)), Q2(F(1, 6)), Q2(F(1, 4)),
                                            Q2(F(1, 3))]
    assert t.eval(pts[-1]) == 0
    assert [t.range_on(iv, 2)[1] for iv in ivs] == [
        Bracket.point(F(1, 2)), Bracket.point(1), Bracket(0, F(1, 16)), Bracket.point(F(1, 5))]


def test_both_defect_2a_instances_are_exact():
    """The sum of the indicators of 1/3 and 2/3 gets its supremum 1 (its
    brackets once added the parts' and read sup [2, 2]), and a value above
    3/2 is refused.  1 on the closed complement C of (1/8, 1/4) and
    (5/8, 3/4), plus the usco covering function of three members, is at
    least 1/256 (band 2's value, on (1/8, 1/4)), so its least ball exponent
    below 5/2^14 is 0."""
    unit = DyadicInterval(0, 1)
    s = make("indicator(1/3) + indicator(2/3)")
    assert s.range_on(unit, 6)[1] == Bracket.point(1)
    assert s.witness_above(unit, F(3, 2)) == (Truth.NO, None)
    C = ComplementOfR2Open(R2Rep.from_intervals([(F(1, 8), F(1, 4)), (F(5, 8), F(3, 4))]))
    f = fn_sum(Indicator(C), CoverPsiUsco(finite_set([S2(0), S2(0) / 8, S2(0) / 64])))
    inf_b, _ = f.range_on(unit, 8)
    assert inf_b.contains(F(1, 256))
    assert mu_search(ValueBelowOnBall(f, 0, F(5, 1 << 14))) == Found(MuWitness(0))


def test_thomae_minus_thomae_runs_out_of_cells_soundly(deadline):
    """Two `thomae()` objects are two atoms, which do not merge, so T - T'
    keeps both terms.  It is 0, but each part's brackets on a cell are
    [0, 1/q] and [-1/q, 0] however small the cell, so no cell is ever
    exact: the range gives up with brackets that hold 0."""
    deadline(5)
    with pytest.raises(FuelExhausted, match=r"not within 2\^-10 after 256 cells") as got:
        fn_sum(thomae(), scalar_multiple(-1, thomae())).range_on(DyadicInterval(0, 1), 10)
    inf_b, sup_b = got.value.best
    assert inf_b.contains(0) and sup_b.contains(0)


def test_like_atoms_cancel_when_built(deadline):
    """P - P and T - T, for P = Penny(A) and T = Thomae each built once,
    are the constant 0, and (T + P) - P and (P - P) + T are T, with inf 0
    and sup 1: the same object's coefficients add to 0 and its term is
    dropped.  Each ran out of cells with a loose bracket while sums nested
    one cell rule per level."""
    P, T = Penny(A), thomae()
    unit, zero, one = DyadicInterval(0, 1), Bracket.point(0), Bracket.point(1)
    deadline(1)
    for f, k, want, left in [(fn_difference(P, P), 8, (zero, zero), "piecewise"),
                             (fn_difference(T, T), 10, (zero, zero), "piecewise"),
                             (fn_difference(fn_sum(T, P), P), 6, (zero, one), "thomae"),
                             (fn_sum(fn_difference(P, P), T), 4, (zero, one), "thomae")]:
        assert f.range_on(unit, k) == want
        assert [h.kind for _, h in f.terms] == [left]  # T alone, or the constant 0


def test_each_atom_is_asked_at_the_bits_of_the_wrappers_above_it():
    """A part of a two-part sum is asked at k + 1 and h in c h at k +
    extra(c), extra(c) = max(0, bits of |numerator| - bits of denominator
    + 1), so Sum(f, c h) asks h at k + 1 + extra(c) and a part of a part at
    k + 2: the precisions of the nested sums and multiples the flat terms
    replaced, which keep one- and two-term answers as they were.  An atom
    that appears twice is asked once, at the finer of its two precisions.
    With constant sides each range is one cell, so each atom is asked
    once."""
    asked = []

    def spied(h):
        inner = h.range_on
        h.range_on = lambda iv, k: asked.append((h, k)) or inner(iv, k)
        return h

    for iv in (DyadicInterval(0, 1), DyadicInterval(F(3, 8), F(5, 8))):
        for k in (0, 5, 12):
            for c, extra in ((F(3, 2), 1), (F(-5, 4), 1), (F(1, 8), 0), (F(-3), 2), (F(7), 3),
                             (F(1), 1)):
                f, g, h = (spied(Indicator(FinitePointSet.of([]))), spied(Indicator(
                    ComplementOfR2Open(R2Rep.from_intervals([])))), spied(Penny(A)))
                for s, want in [(Sum(f, h), [(f, k + 1), (h, k + 1)]),
                                (ScalarMultiple(c, h), [(h, k + extra)]),
                                (Sum(f, ScalarMultiple(c, h)), [(f, k + 1), (h, k + 1 + extra)]),
                                (Sum(Sum(f, g), h), [(f, k + 2), (g, k + 2), (h, k + 1)]),
                                (Sum(Sum(f, h), h), [(f, k + 2), (h, k + 2)])]:
                    asked.clear()
                    s.range_on(iv, k)
                    assert asked == want, (s, c, iv, k)


def test_sum_and_scalar():
    f = fn_sum(linear(1), constant(F(1, 4)))
    assert f.eval(F(1, 2)) == Q2.of(F(3, 4))
    g = fn_difference(constant(1), Penny(A))
    assert g.eval(S2(0)) == Q2.of(F(1, 2))
    assert g.eval(F(1, 3)) == Q2.of(1)
    assert USCO not in g.tags and "lsco" in {t for t in g.tags}


def test_piecewise_irrational_breakpoint():
    """Breakpoints may be field elements; evaluation and limits stay exact."""
    from abyss import PiecewiseRational, Poly
    c = S2(0)
    f = PiecewiseRational([Q2.of(0), c, Q2.of(1)],
                          [Poly(0), Poly(1)],
                          [Q2.of(0), Q2.of(1), Q2.of(1)])
    assert f.eval(c) == Q2.of(1)
    assert f.eval(F(1, 2)) == Q2.of(0) and f.eval(F(3, 4)) == Q2.of(1)
    assert USCO in f.tags  # value sits at the larger one-sided limit
    left = f.one_sided_limit(c, -1, 30)
    right = f.one_sided_limit(c, 1, 30)
    assert left.contains(F(0)) and right.contains(F(1))
    assert f.jump_candidates(4) == [c]
    g = fn_from_json(fn_json(f))
    assert g.eval(c) == Q2.of(1) and g.eval(F(1, 2)) == Q2.of(0)
    inf_b, sup_b = f.range_on(DyadicInterval(F(1, 2), F(3, 4)), 12)
    assert inf_b.lo == 0 and sup_b.hi == 1


@pytest.mark.parametrize("cuts, pieces, policy, positive", [
    # 1 on [0, 1/2], x - 1/2 on (1/2, 1]: the right limit 0 at 1/2 is never attained
    ([0, F(1, 2), 1], [Poly(1), Poly(F(-1, 2), 1)], ["right", 1, "right"], True),
    # 1/2 - x on [0, 1/2), 1 on [1/2, 1]: the left limit 0 is never attained
    ([0, F(1, 2), 1], [Poly(F(1, 2), -1), Poly(1)], ["right", "right", "right"], True),
    ([0, 1], [Poly(F(17, 64), -1, 1)], None, True),  # (x - 1/2)^2 + 1/64
    ([0, F(1, 2), 1], [Poly(1), Poly(0)], ["right", 1, 1], False),  # a piece equal to 0
    ([0, 1], [Poly(F(1, 4), -1, 1)], None, False),  # (x - 1/2)^2 touches 0 at its vertex
    ([0, 1], [Poly(F(15, 64), -1, 1)], None, False),  # dips below 0 between positive ends
    ([0, F(1, 2), 1], [Poly(1), Poly(1)], ["right", 0, "right"], False),  # a cut value 0
    # 3x - 2 on (1/2, 1]: positive at every cut and midpoint, negative just after 1/2
    ([0, F(1, 2), 1], [Poly(1), Poly(-2, 3)], ["right", 1, "right"], False),
], ids=["right-limit-0", "left-limit-0", "vertex-above-0", "piece-0", "vertex-at-0",
        "vertex-below-0", "cut-value-0", "negative-limit"])
def test_piecewise_is_positive_is_exact(cuts, pieces, policy, positive):
    """f > 0 on [0,1] exactly: a one-sided limit of 0 that no point attains
    keeps f positive; a zero value anywhere does not."""
    f = PiecewiseRational.from_polys(cuts, pieces, policy)
    assert f.is_positive() is positive


def _unattained_zero_gauge():
    """1 on [0, 1/2] and x - 1/2 on (1/2, 1]: positive, with an unattained
    right limit 0 at 1/2."""
    return PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(1), Poly(F(-1, 2), 1)],
                                        ["right", 1, "right"])


def _viewed_gauge():
    g = _unattained_zero_gauge()
    return restrict_tags(g, g.tags)


def _hull_instances():
    """One instance or more of every family and composite kind, with the
    degenerate indicators and a finite-set covering instance."""
    mixed = finite_set([S2(1), F(1, 3), Q2(F(1, 2), F(1, 64))])
    irr = finite_set([S2(0), Q2(F(1, 8), F(1, 32))])
    hole = Indicator(ComplementOfR2Open(R2Rep.from_intervals([(F(1, 4), F(1, 2))])))
    everything = Indicator(ComplementOfR2Open(R2Rep.from_intervals([])))
    rng = random.Random(1801)
    pieces = [build(random_continuous_piecewise(rng)) for _ in range(3)]
    pieces += [build(random_staircase(rng)), make("irrational-cut-staircase"),
               make("vertex-off-its-piece"), _unattained_zero_gauge()]
    leaves = pieces + [
        thomae(), Penny(A), Penny(mixed), PennyK(mixed, 1), TildePenny(irr),
        Penny(A, start=2), CoverPsi(A), CoverPsi(irr), CoverPsiUsco(A), CoverPsiUsco(irr),
        Indicator(FinitePointSet.of([F(1, 3), F(3, 4)])), Indicator(FinitePointSet.of([])),
        hole, everything, pennyk_limit(mixed)]
    composites = [fn_sum(hole, CoverPsi(irr)), fn_sum(make("irrational-cut-staircase"), thomae()),
                  fn_difference(everything, CoverPsiUsco(A)), ScalarMultiple(-2, hole),
                  ScalarMultiple(0, CoverPsi(A)), ScalarMultiple(F(3, 2), Penny(mixed)),
                  restrict_tags(CoverPsi(A), {CLIQUISH}),
                  fn_sum(ScalarMultiple(F(-1, 2), make("irrational-cut-staircase")), everything)]
    return leaves + composites


def test_hull_holds_every_exact_value():
    """Every exact value at the depth-8 grid points and the special points
    lies in the hull [lo, hi], and none equals an end marked open; the
    instances cover every kind a document can name."""
    from abyss.serialize import FN_KINDS, _type
    instances = _hull_instances()
    assert {_type(entry[0]) for entry in FN_KINDS.values()} <= {type(f) for f in instances}
    for f in instances:
        lo, hi, lo_open, hi_open = f._hull()
        for p in plain_probe_points(f, DyadicInterval(0, 1), 8):
            v = f.eval(p)
            assert lo <= v <= hi, (f, p, v)
            assert not (lo_open and v == lo) and not (hi_open and v == hi), (f, p, v)
        rl, rh = f.range_bound()
        assert rl <= lo and hi <= rh and rh - rl <= (hi - lo).approx(8) + F(1, 64)


@pytest.mark.parametrize("make, positive", [
    (lambda: fn_sum(constant(0), _viewed_gauge()), True),
    (lambda: ScalarMultiple(-1, ScalarMultiple(-1, _viewed_gauge())), True),
    (lambda: fn_sum(_viewed_gauge(), thomae()), True),  # > 0 plus >= 0
    (lambda: fn_sum(constant(F(-1, 64)), CoverPsi(finite_set([S2(0)]))), True),
    (lambda: fn_sum(constant(F(-1, 2)),
                    Indicator(ComplementOfR2Open(R2Rep.from_intervals([])))), True),
    # the member's spike 1/32 is taken, so 1/32 - 1/32 = 0 is too
    (lambda: fn_sum(constant(F(-1, 32)), CoverPsi(finite_set([S2(0)]))), False),
    (lambda: ScalarMultiple(-1, CoverPsi(A)), False),
    (lambda: ScalarMultiple(0, CoverPsiUsco(A)), False),
], ids=["plus-constant-0", "double-mirror", "plus-thomae", "cover-psi-finite",
        "indicator-of-everything", "cover-psi-finite-touches-0", "mirrored-cover-psi",
        "zero-multiple"])
def test_is_positive_reads_the_hull(make, positive):
    """Sums and scalar multiples combine their parts' hulls, open ends
    included: an unattained infimum 0 stays unattained through them."""
    assert make().is_positive() is positive


@pytest.mark.parametrize("c", [F(-2), F(0), F(3, 2)])
@pytest.mark.parametrize("f, vertex", [
    (staircase([(F(1, 4), F(1, 2)), (F(1, 2), 1)]), None),
    (PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(0, F(3, 2), -2), Poly(F(1, 4))]),
     F(3, 8)),
], ids=["staircase", "quadratic"])
def test_scalar_multiple_of_a_piecewise_stays_piecewise(f, vertex, c):
    """c*f of a piecewise function is rebuilt piece by piece on integers:
    its values are c times f's at the cuts, a vertex and an irrational
    point, and a negative factor swaps usco and lsco."""
    from abyss import jordan_nbv, scalar_multiple
    g = scalar_multiple(c, f)
    assert isinstance(g, PiecewiseRational)
    points = list(f.cuts) + [S2(0)] + ([Q2.of(vertex)] if vertex is not None else [])
    for x in points:
        assert g.eval(x) == f.eval(x) * c
    if c < 0:
        assert (USCO in g.tags, LSCO in g.tags) == (LSCO in f.tags, USCO in f.tags)
    if NORMALISED_BV in f.tags:
        jp = jordan_nbv(g)
        assert all(jp.check_point(g, x) for x in points)
    h = fn_difference(linear(1), f)
    assert isinstance(h, PiecewiseRational)
    assert all(h.eval(x) == Q2.of(x) - f.eval(x) for x in points)


def test_finite_point_set_rejects_points_outside_unit_interval():
    for points in ([F(2)], [F(1, 2), F(-1, 3)], [S2(0) + Q2.of(1)]):
        with pytest.raises(ValueError) as fin:
            FinitePointSet.of(points)
        with pytest.raises(ValueError) as ref:
            finite_set(points)
        assert str(fin.value) == str(ref.value)
    assert FinitePointSet.of([F(0), F(1), S2(0)]).contains(F(1))


def test_unit_interval_checks_read_the_integers_as_the_q2_order():
    """`unit_point` and the finite sets test 0 <= x <= 1 on x's integers,
    plain comparisons for a rational x and the sign of p + q sqrt2 else: at
    the ends, just past them, and at irrational points hugging them."""
    tiny = F(1, 1 << 80)
    points = [Q2.of(0), Q2.of(1), Q2.of(-tiny), Q2.of(1 + tiny), S2(69), 1 - S2(69), 1 + S2(69)]
    for x in points:
        if Q2.of(0) <= x <= Q2.of(1):
            assert unit_point(x) is x and finite_set([x]).member(0) == x
            continue
        message = "point %s outside [0,1]" % (x,)
        with pytest.raises(DomainError, match=r"^%s$" % re.escape(message)):
            unit_point(x)
        for build_set in (finite_set, FinitePointSet.of):
            with pytest.raises(ValueError, match=r"^%s$" % re.escape(message)):
                build_set([F(1, 2), x])
    assert [Q2.of(0) <= x <= Q2.of(1) for x in points] == [True] * 2 + [False] * 2 + [
        True, True, False]


@pytest.mark.parametrize("c", [F(70, 99), F(239, 338), F(1393, 1970), F(8119, 11482)])
def test_r2_radius_is_positive_beside_an_end_close_to_an_irrational_member(c):
    """sqrt2/2 lies just above each of these convergents; the radius of
    (c, 1) there is a positive rational no larger than the gap to c, where
    a coarse bracket of the gap once gave a negative radius."""
    x = S2(0)
    r = R2Rep.from_intervals([(c, F(1))]).radius(x)
    assert 0 < r <= x - c


def test_indicator_variants():
    c = ComplementOfR2Open(R2Rep.from_intervals([(F(-1, 8), F(3, 4))]))
    ind = Indicator(c)
    assert ind.eval(F(7, 8)) == Q2.of(1)
    assert ind.eval(F(1, 2)) == Q2.of(0)
    assert USCO in ind.tags
    fin = Indicator(FinitePointSet.of([F(1, 2)]))
    assert fin.eval(F(1, 2)) == Q2.of(1) and fin.eval(F(1, 4)) == Q2.of(0)
    assert QUASI_CONTINUOUS not in fin.tags
    # constant indicators are continuous whichever form states the set: an
    # open set covering [0,1] leaves nothing, one off [0,1] leaves all of it
    for spans, value in (([(F(-1), F(2))], 0), ([(F(-1), F(0)), (F(1), F(2))], 1)):
        const = Indicator(ComplementOfR2Open(R2Rep.from_intervals(spans)))
        assert {CONTINUOUS, QUASI_CONTINUOUS, LSCO} <= const.tags
        assert all(const.eval(x) == Q2.of(value) for x in (F(0), F(1, 2), F(1)))


def test_indicator_closed_set_forms_pinned():
    """Both closed-set forms behind Indicator: tags, ranges, one-sided limits,
    jumps, JSON and separator decisions, including a degenerate component
    (touching open intervals), open intervals reaching outside [0,1], an
    irrational point and the empty point set."""
    base = {USCO, CLIQUISH, BV, REGULATED, BAIRE1}
    empty = FinitePointSet.of([])
    pts = FinitePointSet.of([F(1, 2), S2(1)])  # sqrt2/4 is about 0.354
    # components [1/4, 1/4] (where two open intervals touch) and [5/8, 3/4]
    touch = ComplementOfR2Open(R2Rep.from_intervals(
        [(F(-1, 8), F(1, 4)), (F(1, 4), F(5, 8)), (F(3, 4), F(9, 8))]))
    gap = ComplementOfR2Open(R2Rep.from_intervals([(F(1, 4), F(1, 2))]))
    whole = ComplementOfR2Open(R2Rep(()))
    for cs, extra in ((empty, {CONTINUOUS, QUASI_CONTINUOUS, LSCO}), (pts, set()),
                      (touch, set()), (gap, {QUASI_CONTINUOUS}),
                      (whole, {CONTINUOUS, QUASI_CONTINUOUS, LSCO})):
        assert Indicator(cs).tags == frozenset(base | extra)

    def ranges(cs, lo, hi):
        inf_b, sup_b = Indicator(cs).range_on(DyadicInterval(lo, hi), 8)
        assert inf_b.exact and sup_b.exact
        return inf_b.lo, sup_b.lo

    assert ranges(empty, F(0), F(1)) == (0, 0)
    assert ranges(pts, F(0), F(1, 2)) == (0, 1)
    assert ranges(pts, F(3, 4), F(1)) == (0, 0)
    assert ranges(touch, F(0), F(1, 2)) == (0, 1)
    assert ranges(touch, F(0), F(1, 8)) == (0, 0)
    assert ranges(touch, F(5, 8), F(3, 4)) == (1, 1)
    assert ranges(touch, F(11, 16), F(7, 8)) == (0, 1)
    assert ranges(gap, F(0), F(1, 4)) == (1, 1)
    assert ranges(gap, F(5, 16), F(7, 16)) == (0, 0)
    assert ranges(whole, F(1, 3), F(2, 3)) == (1, 1)
    assert ranges(pts, F(1, 4), F(3, 8)) == (0, 1)  # only the irrational point
    # the interval's ends are read once, not once per component (8 Fractions then)
    four = Indicator(FinitePointSet.of([F(1, 3), F(1, 2), F(2, 3), F(3, 4)]))
    iv = DyadicInterval(F(1, 8), F(5, 8))
    assert fraction_news(lambda: four.range_on(iv, 8)) == 2

    def limits(cs, x):
        f = Indicator(cs)
        return tuple(None if b is None else b.lo
                     for b in (f.one_sided_limit(x, -1, 8), f.one_sided_limit(x, 1, 8)))

    assert limits(touch, F(1, 4)) == (0, 0)
    assert limits(touch, F(5, 8)) == (0, 1)
    assert limits(touch, F(3, 4)) == (1, 0)
    assert limits(gap, F(0)) == (None, 1)
    assert limits(gap, F(1, 4)) == (1, 0)
    assert limits(gap, F(1, 2)) == (0, 1)
    assert limits(gap, F(1)) == (1, None)
    assert limits(pts, F(1, 2)) == (0, 0)
    assert limits(pts, S2(1)) == (0, 0)

    assert jump_enum(Indicator(touch)) == [Q2.of(F(5, 8)), Q2.of(F(3, 4))]
    assert jump_enum(Indicator(gap)) == [Q2.of(F(1, 4)), Q2.of(F(1, 2))]
    assert jump_enum(Indicator(pts)) == [] and jump_enum(Indicator(empty)) == []

    probes = [F(0), F(1, 4), F(1, 3), F(1, 2), F(5, 8), F(3, 4), F(1), S2(1)]
    for cs in (empty, pts, touch, gap, whole):
        f = Indicator(cs)
        doc = fn_json(f)
        g = fn_from_json(doc)
        assert fn_json(g) == doc and g.tags == f.tags
        assert all(g.eval(x) == f.eval(x) for x in probes)
    assert fn_json(Indicator(pts))["closed_set"] == {
        "rep": "finite-points", "points": ["1/2", {"a": "0/1", "b": "1/4"}]}
    assert fn_json(Indicator(touch))["closed_set"] == {
        "rep": "complement-of-r2-open",
        "intervals": [["-1/8", "1/4"], ["1/4", "5/8"], ["3/4", "9/8"]]}

    def separable(c0, c1):
        try:
            sep = usco_separator(c0, c1)
        except ValueError:
            return False
        assert sep.closed_set is c1
        return True

    meets = [(FinitePointSet.of([F(1, 4)]), touch),  # the degenerate component
             (FinitePointSet.of([F(3, 4)]), touch),  # a component end
             (touch, gap),                           # they share 1/4
             (pts, FinitePointSet.of([S2(1)])),
             (gap, pts)]
    apart = [(pts, touch), (empty, whole),
             (touch, ComplementOfR2Open(R2Rep.from_intervals([(F(0), F(1))]))),
             (FinitePointSet.of([F(5, 16)]), gap)]
    for c0, c1 in meets:
        assert not separable(c0, c1) and not separable(c1, c0)
    for c0, c1 in apart:
        assert separable(c0, c1) and separable(c1, c0)


# --- the interval contract: clip to [0,1], single points from their value ---


RATIONAL_SPIKES = finite_set([Q2(F(1, 4), F(1, 16)), F(3, 8), F(1, 2), F(5, 7)])
CONTRACT_FAMILIES = [
    ("thomae", thomae),
    ("penny", lambda: Penny(A)),
    ("penny-rational", lambda: Penny(RATIONAL_SPIKES)),
    ("pennyk", lambda: PennyK(RATIONAL_SPIKES, 2)),
    ("tilde-penny", lambda: TildePenny(A)),
    ("cover-psi", lambda: CoverPsi(A)),
    ("cover-psi-usco", lambda: build_cover_psi(A, True)),
    ("indicator-points", lambda: Indicator(FinitePointSet.of([F(1, 2), S2(2)]))),
    ("indicator-complement", lambda: Indicator(ComplementOfR2Open(
        R2Rep.from_intervals([(F(-1, 8), F(1, 4)), (F(3, 4), F(9, 8))])))),
    ("staircase", lambda: staircase([(F(1, 3), F(1, 2)), (F(5, 8), F(-1, 4))])),
    # a lone value 1 at the cut 5/32 and a vertex at 5/7
    ("piecewise", lambda: PiecewiseRational.from_polys(
        [0, F(5, 32), 1], [Poly(0, 1), Poly(0, F(10, 7), -1)], ["right", 1, "right"])),
    ("sum-step-penny", lambda: fn_sum(staircase([(F(1, 2), 5)]), Penny(A))),
    ("sum-thomae-linear", lambda: fn_sum(thomae(), linear(F(1, 4)))),
    ("difference", lambda: fn_difference(constant(1), Penny(RATIONAL_SPIKES))),
    ("scalar-negative", lambda: ScalarMultiple(F(-2), thomae())),
    ("scalar-positive", lambda: ScalarMultiple(F(3, 2), Penny(RATIONAL_SPIKES))),
    ("restricted", lambda: restrict_tags(Penny(RATIONAL_SPIKES), {CLIQUISH})),
]


@pytest.mark.parametrize("make", [m for _, m in CONTRACT_FAMILIES],
                         ids=[name for name, _ in CONTRACT_FAMILIES])
def test_intervals_are_read_on_their_part_inside_unit_interval(make):
    f = make()
    for lo, hi in ((F(-1, 4), F(1, 4)), (F(-1), F(3, 8)), (F(5, 8), F(3, 2)),
                   (F(-1, 2), F(2)), (F(-1, 4), F(0)), (F(1), F(5, 4))):
        clip = DyadicInterval(max(lo, F(0)), min(hi, F(1)))
        iv = DyadicInterval(lo, hi)
        for k in (0, 4, 10):
            assert f.range_on(iv, k) == f.range_on(clip, k), (lo, hi, k)
        for y in (F(0), F(1, 8), F(1, 2)):
            assert f.witness_above(iv, y) == f.witness_above(clip, y), (lo, hi, y)
            assert f.witness_below(iv, y) == f.witness_below(clip, y), (lo, hi, y)


@pytest.mark.parametrize("make", [m for _, m in CONTRACT_FAMILIES],
                         ids=[name for name, _ in CONTRACT_FAMILIES])
def test_single_points_answer_from_their_value(make):
    f = make()
    for x in (F(0), F(1, 4), F(1, 3), F(3, 8), F(1, 2), F(5, 8), F(5, 7), F(1)):
        p = Q2.of(x)
        v = f.eval(p)
        point = DyadicInterval(x, x)
        for k in (0, 6, 20):
            b = Bracket.of_q2(v, k)
            assert f.range_on(point, k) == (b, b), (x, k)
        for y in (F(-1), F(0), F(1, 64), F(1, 8), F(1, 2), F(1), F(5)):
            assert f.witness_above(point, y) == ((Truth.YES, p) if v > y
                                                 else (Truth.NO, None)), (x, y)
            assert f.witness_below(point, y) == ((Truth.YES, p) if v < y
                                                 else (Truth.NO, None)), (x, y)


def test_single_point_off_the_seed_set_is_decided():
    """Once UNKNOWN: no member of the sqrt2 family sits at the rational 0."""
    for f in (Penny(A), TildePenny(A), restrict_tags(Penny(A), {CLIQUISH})):
        assert f.witness_above(DyadicInterval(0, 0), 0) == (Truth.NO, None)


def _family_modules():
    """The abyss modules that define `SymbolicFn` or a family built on it."""
    from abyss.universe import SymbolicFn
    out = []
    for path in sorted(Path(universe.__file__).parent.glob("[!_]*.py")):
        mod = importlib.import_module("abyss." + path.stem)
        if any(isinstance(c, type) and issubclass(c, SymbolicFn) and c.__module__ == mod.__name__
               for c in vars(mod).values()):
            out.append(mod)
    return out


def test_interval_contract_lives_on_the_base_class():
    """Families answer through the `_range_on`, `_witness_above`,
    `_witness_below`, `_one_sided_limit` and `_hull` hooks, so the clip to
    [0,1], the single-point answers, the rounding of the value bounds and
    the positivity rule stay in the base class's templates."""
    from abyss import reductions
    families = _family_modules()
    assert [mod.__name__ for mod in families] == ["abyss.composites", "abyss.limits",
                                                  "abyss.piecewise", "abyss.rational_spike",
                                                  "abyss.spikes", "abyss.universe"]
    public = {"range_on", "witness_above", "witness_below", "one_sided_limit",
              "range_bound", "is_positive"}
    allowed = {("SymbolicFn", name) for name in public}
    allowed |= {("Poly", "range_on")}
    found = set()
    for mod in families + [reductions]:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.ClassDef):
                found |= {(node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name in public}
    assert found <= allowed, sorted(found - allowed)


def test_documents_live_in_serialize_alone():
    """`serialize` writes and reads every function and closed-set document;
    the modules that define the types neither import it nor write one."""
    from abyss import sets
    for mod in _family_modules() + [sets]:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "serialize", mod.__name__
                assert "serialize" not in (a.name for a in node.names), mod.__name__
            elif isinstance(node, ast.Import):
                assert not any("serialize" in a.name for a in node.names), mod.__name__
            elif isinstance(node, ast.FunctionDef):
                assert node.name != "to_jsonable", (mod.__name__, node.lineno)


def test_every_definition_is_reached_outside_the_tests():
    """A top-level function or class of the package is exported, registered
    by a decorator (the CLI's `@subcommand` handlers) or named in the
    package, the benchmark or the demos: one that only tests reach is
    deleted.  A module's dunder hooks are the interpreter's to call."""
    import abyss
    root = Path(universe.__file__).parents[2]
    trees = {path: ast.parse(path.read_text()) for top in ("src", "perfbench", "demos")
             for path in sorted((root / top).rglob("*.py"))}
    named = {getattr(node, "id", getattr(node, "attr", None))
             for tree in trees.values() for node in ast.walk(tree)}
    unreached = ["%s.%s" % (path.stem, node.name) for path, tree in trees.items()
                 if path.parent.name == "abyss" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                     node.name in abyss.__all__ or node.decorator_list or node.name in named
                     or node.name.startswith("__"))]
    assert unreached == []


def state_stores(package: Path) -> list[str]:
    """The attribute stores in the package's modules, outside a family
    class's `__init__`, on an object that may be a family object, as
    "file:line in function".  A store is written `x.a = ...` (or
    `setattr(x, ...)`, `object.__setattr__(x, ...)`), and it is left out
    only when x is provably not a family object: `self` in a class outside
    the family tree, a local the same function made by `object.__new__`
    of such a class, or a parameter annotated with types outside the tree.
    Stores into a container an object holds (`self._term_cache[n] = t`)
    are not attribute stores."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    bases = {node.name: [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def in_family(name):
        return name == "SymbolicFn" or any(map(in_family, bases.get(name, ())))

    def names_in(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval")
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    def called(node):  # the callee's name, through the module's aliases
        if not (isinstance(node, ast.Call) and node.args):
            return None
        name = ast.unparse(node.func)
        return aliases.get(name, name)

    def provably_outside(target, cls, fn):
        if not isinstance(target, ast.Name):
            return False
        if target.id == "self":
            return not (cls and in_family(cls)) or getattr(fn, "name", None) == "__init__"
        for node in ast.walk(fn) if fn else ():
            if (isinstance(node, ast.Assign) and called(node.value) == "object.__new__"
                    and any(getattr(t, "id", None) == target.id for t in node.targets)):
                made = node.value.args[0]
                made = cls if getattr(made, "id", None) == "cls" else getattr(made, "id", None)
                return made is not None and not in_family(made)
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs if fn else []
        return any(a.arg == target.id and a.annotation is not None
                   and not any(map(in_family, names_in(a.annotation))) for a in params)

    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        stored = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored = node.value
        elif called(node) in ("setattr", "object.__setattr__"):
            stored = node.args[0]
        if stored is not None and not provably_outside(stored, cls, fn):
            found.append("%s:%d in %s" % (name, node.lineno, fn.name if fn else "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    for name, tree in trees.items():
        aliases = {t.id: ast.unparse(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) for t in node.targets
                   if isinstance(t, ast.Name)}
        visit(tree, None, None)
    return found


def test_no_family_object_keeps_query_state():
    """Functions are values: an object of the universe is set up once, in
    its class's `__init__`, and never written to again, so no answer
    depends on what was asked of it before.  What the questions of one
    computation learn lives in the query scope (`universe.query_scope`).
    An object may still fill a cache of pure per-parameter values, such as
    a limit's terms, since that is a container store."""
    assert state_stores(Path(universe.__file__).parent) == []


def test_band_of_reads_the_band_off_the_integers():
    rng = random.Random(1102)
    # plain ints too: `spikes_above` passes min(y, 1), which may be the int 1
    pts = [0, 1, 2, F(0), F(1), F(-1, 3), F(3, 2), Q2(1, F(1, 8)), Q2(0, -1), Q2(F(1, 4)),
           Q2(F(3, 7))]
    pts += [F(a, d) for d in range(1, 300) for a in (1, 2, 3)]
    for n in range(72):
        edge = F(1, 1 << n)
        pts += [edge, edge - F(1, 1 << (n + 5)), edge + F(1, 1 << (n + 5)), S2(n),
                Q2(edge, F(-1, 1 << (n + 3))), Q2(F(3, 1 << (n + 2)), F(1, 1 << (n + 40)))]
    for _ in range(300):
        pts.append(F(rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 24)))
        pts.append(Q2(F(rng.randrange(0, 64), 64), F(rng.randrange(-9, 10), 1 << rng.randrange(1, 30))))
    for x in pts:
        for half_open in (True, False):
            assert band_of(x, half_open) == loop_band_of(x, half_open), (x, half_open)


def test_penny_below_witness_ends_when_the_seed_set_holds_every_dyadic(deadline):
    """Once a hang: the grid search never left the seed set."""
    deadline(10)
    s = all_unit_rationals()
    assert all(s.index_of(s.member(n)) == n for n in range(400))
    f = Penny(s)
    iv = DyadicInterval(F(1, 4), F(1, 2))
    y = F(1, 1000)
    truth, p = f.witness_below(iv, y)
    assert truth is Truth.YES and iv.contains(p) and f.eval(p) < y
    assert inf_usco(f, F(1, 4), F(1, 2), 4).lower == 0
    assert isinstance(mu_search(ExistsValueBelow(f, iv, y)), Found)


def test_minimal_shift_at_band_22_is_fast():
    # the denominator scan needed d = 6187 here (about 20-30 ms)
    a = Q2(F(3, 7), F(1, 32))
    assert minimal_shift_into_band(a, 22) == F(2925, 6187)
    best = min(_timed(lambda: minimal_shift_into_band(a, 22)) for _ in range(5))
    assert best < 0.002, best


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
