"""Regulated and bounded-variation operations: one-sided limits, jumps,
total variation, Jordan decomposition, regulation moduli (their plain
references run as rows of `test_differential.py`)."""

import ast
import inspect
import random
from fractions import Fraction as F

import pytest

from abyss import (ClassRefusal, CoverPsi, DyadicInterval, Penny, Q2, TildePenny,
                   UnsupportedVariant, build_cover_psi, constant, finite_set,
                   fn_sum, jordan_nbv,
                   jump_enum, limits_lr, linear, modulus_regulation, osc_exact,
                   pennyk_limit, rational_grid, restrict_tags, sqrt2_family, staircase,
                   thomae, total_variation_nbv)

from abyss import universe
from abyss.composites import ScalarMultiple, Sum
from abyss.limits import Indicator
from abyss.oracle import basis_at
from abyss.sets import ComplementOfR2Open, R2Rep

from catalogue import build, random_staircase_plus_linear
from conftest import calls_to
from references import probe_basis

A = sqrt2_family()
S2 = Q2.sqrt2_scaled


def test_limits_step():
    st = staircase([(F(1, 2), 1)])
    lr = limits_lr(st, F(1, 2), 8)
    assert lr.left.contains(F(0)) and lr.right.contains(F(1))


def test_limits_penny_member():
    lr = limits_lr(Penny(A), S2(0), 8)
    assert lr.left.contains(F(0)) and lr.right.contains(F(0))


def test_limits_identity():
    lr = limits_lr(linear(1), F(1, 3), 8)
    assert lr.left.contains(F(1, 3)) and lr.right.contains(F(1, 3))


def test_limits_flag_at_zero():
    lr = limits_lr(linear(1), F(0), 8)
    assert lr.left is None and lr.right is not None


def test_limits_of_a_limit_representation_at_the_edges():
    # the side outside [0,1] is None for every family; the inside side of a
    # pointwise limit has no limit data, so limits and cluster bounds refuse
    f = pennyk_limit(A)
    assert f.one_sided_limit(F(0), -1, 6) is None
    assert f.one_sided_limit(F(1), 1, 6) is None
    for run in (lambda: f.one_sided_limit(F(0), 1, 6), lambda: limits_lr(f, F(0), 6),
                lambda: limits_lr(f, F(1), 6), lambda: f.cluster_bounds(F(1), 6)):
        with pytest.raises(UnsupportedVariant):
            run()


def test_limits_refused_without_tag():
    with pytest.raises(ClassRefusal):
        limits_lr(build_cover_psi(A, False), F(1, 2), 6)  # no limit at 0


def test_jump_enum_examples():
    assert [str(j) for j in jump_enum(staircase([(F(1, 2), 1)]))] == ["1/2"]
    assert jump_enum(Penny(A)) == []  # removable only
    st = staircase([(F(1, 2), F(1, 2)), (F(3, 4), F(5, 4))])
    assert [str(j) for j in jump_enum(st)] == ["1/2", "3/4"]
    assert jump_enum(thomae()) == []


# the indicator of the complement of (1/4, 1/2), and its sum with a step at 3/4
_HOLE = Indicator(ComplementOfR2Open(R2Rep.from_intervals([(F(1, 4), F(1, 2))])))
_HOLE_STEP = Sum(_HOLE, staircase([(F(3, 4), 2)]))
_STEP_LIMITS = {F(1, 4): (1, 0), F(1, 2): (0, 1), F(3, 4): (1, 3), F(0): (None, 1)}


@pytest.mark.parametrize("f, jumps, limits, positive", [
    (_HOLE_STEP, [F(1, 4), F(1, 2), F(3, 4)], _STEP_LIMITS, False),
    (restrict_tags(_HOLE_STEP, _HOLE_STEP.tags), [F(1, 4), F(1, 2), F(3, 4)], _STEP_LIMITS, False),
    (ScalarMultiple(-2, _HOLE), [F(1, 4), F(1, 2)], {F(1, 4): (-2, 0), F(1): (-2, None)}, False),
    (Sum(ScalarMultiple(-2, _HOLE), constant(3)), [F(1, 4), F(1, 2)], {F(1, 2): (3, 1)}, True),
    (CoverPsi(finite_set([S2(0)])), [], {F(0): (None, F(1, 8)), F(1, 3): (F(1, 8), F(1, 8))}, True),
], ids=["sum", "restricted-sum", "scalar-multiple", "sum-with-constant", "cover-psi"])
def test_composite_limits_jumps_and_oscillation(f, jumps, limits, positive):
    """Sums, scalar multiples and restricted views answer through their
    parts: jumps, one-sided limits, the oscillation they imply, positivity."""
    assert jump_enum(f) == [Q2.of(j) for j in jumps]
    lo, hi = f.range_bound()
    basis = basis_at(f, DyadicInterval(0, 1), 0)
    for x, sides in limits.items():
        got = limits_lr(f, x, 20)
        assert (got.left, got.right) == tuple(None if v is None else DyadicInterval(v, v)
                                              for v in sides)
        seen = [f.eval(x).as_rational()] + [v for v in sides if v is not None]
        assert all(lo <= v <= hi for v in seen)
        osc = osc_exact(f, x, 20)
        assert osc.lo <= max(seen) - min(seen) <= osc.hi
        assert osc.hi - osc.lo <= F(1, 1 << 21)
    assert all(Q2.of(j) in basis for j in jumps)
    assert f.is_positive() is positive


def test_jump_enum_completeness_on_universe():
    """Symmetric difference with the symbolically known jump set is empty."""
    usco_cover = build_cover_psi(A, True)
    got = jump_enum(usco_cover, limit=10)
    want = [Q2.of(F(1, 1 << (n + 1))) for n in range(10)]
    assert got == want
    tilde = TildePenny(A)
    assert jump_enum(tilde) == []


def test_jump_cancellation_in_sums():
    up = staircase([(F(1, 2), 1)])
    down = staircase([(F(1, 2), -1)])
    s = fn_sum(up, down)
    assert jump_enum(s) == []  # the jumps cancel exactly


def test_variation_examples():
    assert total_variation_nbv(linear(1), F(1), 8).contains(F(1))
    st = staircase([(F(1, 2), 1)])
    assert total_variation_nbv(st, F(1), 8).contains(F(1))
    st2 = staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(3, 4))])
    assert total_variation_nbv(st2, F(1), 8).contains(F(3, 4))


def test_variation_prefix_monotone():
    st = staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))])
    vals = [total_variation_nbv(st, x, 10).lower
            for x in rational_grid(DyadicInterval(0, 1), 4)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert total_variation_nbv(st, F(1), 10).contains(F(3, 4))


def test_variation_refusals():
    with pytest.raises(ClassRefusal):
        total_variation_nbv(Penny(A), F(1), 8)  # removable jumps
    with pytest.raises(ClassRefusal):
        total_variation_nbv(thomae(), F(1), 8)


def test_jordan_examples():
    jp = jordan_nbv(linear(1))
    assert jp.g(F(1)) == Q2.of(1) and jp.h(F(1)) == Q2.of(0)
    st = staircase([(F(1, 2), 1)])
    jp2 = jordan_nbv(st)
    assert jp2.g(F(1, 4)) == Q2.of(0) and jp2.g(F(3, 4)) == Q2.of(1)
    assert jp2.h(F(3, 4)) == Q2.of(0)


def test_jordan_monotone_and_exact():
    rng = random.Random(29)
    grid = rational_grid(DyadicInterval(0, 1), 6)
    for _ in range(6):
        f = build(random_staircase_plus_linear(rng))
        jp = jordan_nbv(f)
        gs = [jp.g(x) for x in grid]
        hs = [jp.h(x) for x in grid]
        assert all(a <= b for a, b in zip(gs, gs[1:]))
        assert all(a <= b for a, b in zip(hs, hs[1:]))
        assert all(jp.check_point(f, x) for x in grid)


def test_variation_reads_functions_through_public_data():
    """`variation` reads a function's breakpoint table and public methods,
    never an underscore attribute, so the family stays the one home of its
    structure."""
    from abyss import variation
    private = sorted((node.attr, node.lineno)
                     for node in ast.walk(ast.parse(inspect.getsource(variation)))
                     if isinstance(node, ast.Attribute) and node.attr.startswith("_"))
    assert private == [], private


def test_jordan_refused_for_spikes():
    with pytest.raises(ClassRefusal):
        jordan_nbv(Penny(A))


def test_regulation_modulus_bounds():
    """The defining one-sided bounds, re-checked by brute probing."""
    cases = [
        (linear(1), [F(1, 3), F(1, 2)]),
        (staircase([(F(1, 2), 1)]), [F(1, 2), F(1, 4)]),
        (Penny(A), [F(1, 3), S2(0)]),
    ]
    for f, xs in cases:
        M = modulus_regulation(f)
        for x in xs:
            for k in (3, 5):
                m = M(x, k)
                p = Q2.of(x)
                c = p.as_rational() if p.is_rational else p.approx(m + k + 10)
                r = F(1, 1 << (m + 1))
                for side in (-1, 1):
                    lim = f.one_sided_limit(p, side, k + 8)
                    if lim is None:
                        continue
                    a, b = (c, min(F(1), c + r)) if side > 0 else (max(F(0), c - r), c)
                    if a >= b:
                        continue
                    for pt in probe_basis(f, DyadicInterval(a, b), 7):
                        if pt == p or not (Q2.of(a) < pt < Q2.of(b)):
                            continue
                        assert abs(f.eval(pt) - Q2.of(lim.lo)) < Q2.of(F(1, 1 << k)) + Q2.of(F(1, 1 << (k + 6)))


def test_regulation_modulus_penny_avoids_visible_spikes():
    M = modulus_regulation(Penny(A))
    m = M(F(1, 3), 5)
    r = F(1, 1 << (m + 1))
    window = DyadicInterval(F(1, 3), F(1, 3) + r)
    # spikes with value >= 2^-5 have index <= 4 and must be outside
    assert all(i > 4 for i, _ in A.members_in(window, 12))


def test_regulation_modulus_reads_one_pair_of_limits_per_point():
    """The one-sided limits at p do not depend on the exponent m tried, so
    each query (p, k) reads them once, however far the search goes (the
    exponents below reach 5); a repeated query reads them again, since the
    modulus keeps no memo."""
    M = modulus_regulation(Penny(sqrt2_family()))
    queries = [(A.member(n), k) for n in range(4) for k in (0, 3, 6)]
    queries += [(Q2.of(0), 3), (Q2.of(1), 2), (Q2.of(F(1, 3)), 5), (A.member(0), 3)]
    reads = calls_to(lambda: [M(p, k) for p, k in queries], universe.__file__, "one_sided_limit")
    assert max(M(p, k) for p, k in queries) == 5
    assert reads == 2 * len(queries)


@pytest.mark.parametrize("p, steps, ks, want", [
    # a bump 2^-38..2^-36 right of 1/2 and a step at 3 2^-25: at k = 0 the
    # windows of m >= 23 hold 1/2 untrimmed and reach the bump until m = 38;
    # at k = 6 the trim 2^-30 keeps the bump out from m = 23 on
    (F(1, 2), [(F(1, 2) + F(1, 1 << 38), 1), (F(1, 2) + F(1, 1 << 36), 0),
               (F(1, 2) + F(3, 1 << 25), 1)], (0, 6), [38, 23]),
    # a point 2^-40 below 1, with no room for the trim 2^-24 at k = 0, so
    # its right windows reach the bump 2^-50..2^-48 above it until m = 50;
    # at k = 17 the trim 2^-41 fits and keeps the bump out
    (1 - F(1, 1 << 40), [(1 - F(1, 1 << 40) + F(1, 1 << 50), 1),
                         (1 - F(1, 1 << 40) + F(1, 1 << 48), 0)], (0, 17), [50, 0]),
])
def test_regulation_modulus_resumes_only_past_trimmed_windows(p, steps, ks, want):
    """Inside a query scope a larger k resumes from the exponent found at a
    smaller one only where the smaller k's windows left the rational point
    out: asked in ascending order in one scope, each answer is the answer
    asked alone."""
    least = modulus_regulation(staircase(steps), 64)
    assert [least(p, k) for k in ks] == want
    with universe.query_scope():
        assert [least(p, k) for k in ks] == want
