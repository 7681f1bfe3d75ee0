"""Realiser reductions and the rational-sampling baseline they defeat."""

import math
import random
from fractions import Fraction as F

import pytest

from abyss import (CoverPsi, CoverPsiUsco, DyadicInterval, InvalidModulus,
                   OracleInconsistency, Penny, PennyK, PiecewiseRational, Poly,
                   Q2, TildePenny,
                   adversarial_cliq_modulus, canonical_cliq_modulus,
                   canonical_regulation_modulus, cantor_diagonal, demo_abyss,
                   exhaustive_sup_oracle, extract_enumeration_from_sup,
                   finite_set, fn_sum, linear, naive_rational_sup,
                   rational_grid, realiser_from_cliq_modulus,
                   realiser_from_regulation_modulus, realiser_from_sup,
                   restrict_tags, sqrt2_family, staircase, thomae,
                   SupOracle)
from abyss.reductions import adversarial_wide_modulus
from abyss.universe import CLIQUISH, ScalarMultiple

from conftest import irrational_cut_staircase, random_finite_set, vertex_off_its_piece

A = sqrt2_family()
S2 = Q2.sqrt2_scaled


def test_cantor_diagonal_dyadics():
    xs = [Q2.of(F(0)), Q2.of(F(1)), Q2.of(F(1, 2)), Q2.of(F(1, 4))]
    z = cantor_diagonal(lambda n: xs[n % len(xs)], 8, fuel=16)
    for n in range(16):
        assert Q2.of(z) != xs[n % len(xs)]


def test_cantor_diagonal_constant_enum():
    z = cantor_diagonal(lambda n: Q2.of(F(0)), 6, fuel=8)
    assert 0 < z < 1 and z != 0


def test_cantor_diagonal_against_members():
    z = cantor_diagonal(lambda n: A.member(n), 10, fuel=16)
    for n in range(16):
        assert Q2.of(z) != A.member(n)  # exact symbolic comparison


def test_bits_of_sqrt_half():
    """Extraction reproduces the binary expansion of sqrt2/2 to 16 bits,
    against an integer-square-root oracle."""
    oracle = exhaustive_sup_oracle()
    ext = extract_enumeration_from_sup(oracle, A, 16, rounds=1)
    assert ext[0].index == 0 and ext[0].value == F(1, 2)
    # floor(sqrt2/2 * 2^16) = floor(sqrt(2 * 2^30))
    want = bin(math.isqrt(2 << 30))[2:].zfill(16)
    assert ext[0].bits == want == "1011010100000100"
    assert ext[0].interval.contains(S2(0).approx(20))


def test_extraction_order_matches_enumeration():
    oracle = exhaustive_sup_oracle()
    ext = extract_enumeration_from_sup(oracle, A, 8, rounds=5)
    assert [e.index for e in ext] == [0, 1, 2, 3, 4]
    assert [e.value for e in ext] == [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]


def test_realiser_from_sup_certified():
    oracle = exhaustive_sup_oracle()
    z = realiser_from_sup(oracle, A, 10, fuel=16)
    for n in range(16):
        assert A.member(n) != Q2.of(z)
    single = finite_set([S2(0)])
    z2 = realiser_from_sup(oracle, single, 8, fuel=4)
    assert Q2.of(z2) != S2(0)


def test_realiser_from_sup_inconsistent_oracle():
    lying = SupOracle(lambda f, p, q: F(1, 2))
    with pytest.raises(OracleInconsistency):
        realiser_from_sup(lying, A, 8, fuel=4)


def test_extraction_refuses_a_supremum_that_is_no_spike_value(deadline):
    """Once an IndexError: 1 passed for a spike value with index -1."""
    deadline(5)
    with pytest.raises(OracleInconsistency):
        realiser_from_sup(SupOracle(lambda f, p, q: F(1)), A, 4, fuel=2)
    for s in (F(-1, 2), F(3, 8), F(2)):
        with pytest.raises(OracleInconsistency):
            extract_enumeration_from_sup(SupOracle(lambda f, p, q, s=s: s), A, 4)


def test_realiser_from_cliq_modulus():
    z = realiser_from_cliq_modulus(canonical_cliq_modulus(A), A, 10, fuel=16)
    for n in range(16):
        assert A.member(n) != Q2.of(z)
    single = finite_set([S2(0)])
    z2 = realiser_from_cliq_modulus(canonical_cliq_modulus(single), single, 8, fuel=4)
    assert Q2.of(z2) != S2(0)


def test_cliq_ball_exponent_matches_its_loop():
    """Each level asks the modulus for the least n with 2^-n strictly below
    half the interval's width, as the loop it replaces counted it up."""
    rng = random.Random(83)
    for a_set, k, fuel in ((A, 10, 16), (finite_set([S2(0)]), 8, 4),
                           (random_finite_set(rng), 6, 8), (random_finite_set(rng), 9, 12)):
        honest = canonical_cliq_modulus(a_set)
        calls = []

        def spy(x, k, n):
            calls.append((n, honest(x, k, n)))
            return calls[-1][1]

        realiser_from_cliq_modulus(spy, a_set, k, fuel=fuel)
        lo, hi = F(0), F(1)
        for n, (c, d) in calls[-max(k + 2, fuel + 1):]:
            want = 0
            while F(1, 1 << want) >= (hi - lo) / 2:
                want += 1
            assert n == want
            c, d = F(c), F(d)
            lo, hi = (c + d) / 2 - (d - c) / 4, (c + d) / 2 + (d - c) / 4


def test_cliq_modulus_adversaries_rejected():
    with pytest.raises(InvalidModulus):
        realiser_from_cliq_modulus(adversarial_cliq_modulus(), A, 6)
    with pytest.raises(InvalidModulus):
        realiser_from_cliq_modulus(adversarial_wide_modulus(), A, 6)


def test_realiser_from_regulation_modulus():
    z = realiser_from_regulation_modulus(canonical_regulation_modulus(A), A, 10, fuel=16)
    for n in range(16):
        assert A.member(n) != Q2.of(z)
    single = finite_set([S2(0)])
    z2 = realiser_from_regulation_modulus(
        canonical_regulation_modulus(single), single, 8, fuel=4)
    assert Q2.of(z2) != S2(0)


def test_regulation_zero_modulus_rejected():
    class ZeroModulus:
        def __call__(self, x, k):
            return 0

    with pytest.raises(InvalidModulus):
        realiser_from_regulation_modulus(ZeroModulus(), A, 6)


def test_naive_sup_baseline():
    f = Penny(A)
    for depth in (8, 16, 24):
        assert naive_rational_sup(f, 0, 1, depth) == 0
    assert naive_rational_sup(thomae(), F(1, 4), F(3, 4), 8) == F(1, 2)
    from abyss import constant
    assert naive_rational_sup(constant(F(1, 3)), 0, 1, 6) == F(1, 3)
    # the banded copy's members are irrational too, so no grid sees a spike
    assert naive_rational_sup(TildePenny(A), 0, 1, 24) == 0


# a finite seed set with rational members, one of them past index 1
RATIONAL_SEEDS = finite_set([Q2(F(1, 4), F(1, 16)), F(3, 8), F(1, 2), F(5, 7)])
IRRATIONAL_SEEDS = finite_set([Q2(F(3, 4), F(1, 64)), Q2(F(1, 3), F(1, 32)),
                               Q2(F(1, 8), F(1, 128))])
GRID_FAMILIES = [
    ("penny-sqrt2", lambda: Penny(A)),
    ("penny-finite", lambda: Penny(RATIONAL_SEEDS)),
    ("pennyk-sqrt2", lambda: PennyK(A, 3)),
    ("pennyk-finite", lambda: PennyK(RATIONAL_SEEDS, 1)),
    ("tilde-penny-sqrt2", lambda: TildePenny(A)),
    ("tilde-penny-finite", lambda: TildePenny(IRRATIONAL_SEEDS)),
    ("cover-psi", lambda: CoverPsi(A)),
    ("cover-psi-usco", lambda: CoverPsiUsco(A)),
    ("thomae", thomae),
    ("staircase", lambda: staircase([(F(1, 3), F(1, 2)), (F(5, 8), F(-1, 4))])),
    # a lone value 1 at the cut 5/32 and a vertex at 5/7, off every coarse grid
    ("piecewise", lambda: PiecewiseRational.from_polys(
        [0, F(5, 32), 1], [Poly(0, 1), Poly(0, F(10, 7), -1)], ["right", 1, "right"])),
    ("scalar-positive", lambda: ScalarMultiple(F(3, 2), Penny(RATIONAL_SEEDS))),
    ("scalar-negative", lambda: ScalarMultiple(F(-2), thomae())),
    ("restricted", lambda: restrict_tags(Penny(RATIONAL_SEEDS), {CLIQUISH})),
    ("sum", lambda: fn_sum(thomae(), linear(F(1, 4)))),
    ("staircase-irrational-cut", irrational_cut_staircase),
    ("piecewise-vertex-off-its-piece", vertex_off_its_piece),
]


@pytest.mark.parametrize("make", [m for _, m in GRID_FAMILIES],
                         ids=[name for name, _ in GRID_FAMILIES])
def test_grid_max_matches_plain_scan(make):
    """Whatever shortcut a family takes, naive_rational_sup is the max of
    plain evaluations over the grid."""
    f = make()
    for p, q in ((F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 3), F(5, 7)), (F(3, 8), F(1, 2))):
        for depth in range(11):
            plain = max(f.eval(Q2.of(g)).as_rational()
                        for g in rational_grid(DyadicInterval(p, q), depth))
            assert naive_rational_sup(f, p, q, depth) == plain, (p, q, depth)


def test_baseline_gap_invariant():
    """The strict, checkable gap: grid sampling 0, exact oracle 1/2."""
    oracle = exhaustive_sup_oracle()
    f = Penny(A)
    exact = oracle(f, F(0), F(1))
    assert exact == F(1, 2)
    for depth in (8, 16, 24):
        assert exact - naive_rational_sup(f, 0, 1, depth) == F(1, 2)


def test_demo_report():
    rep = demo_abyss(A, depths=(8, 16, 24))
    assert rep.gap >= F(1, 2)
    assert rep.oracle_value == F(1, 2)
    assert rep.baseline_values == [F(0), F(0), F(0)]
    doc = rep.to_jsonable()
    assert doc["gap"] == "1/2" and doc["realiser_bits"] == "1011010100000100"


def test_random_instances_realisers():
    rng = random.Random(41)
    for _ in range(4):
        B = random_finite_set(rng, max_size=8)
        oracle = exhaustive_sup_oracle()
        z1 = realiser_from_sup(oracle, B, 8, fuel=8)
        z2 = realiser_from_cliq_modulus(canonical_cliq_modulus(B), B, 8, fuel=8)
        z3 = realiser_from_regulation_modulus(
            canonical_regulation_modulus(B), B, 8, fuel=8)
        for z in (z1, z2, z3):
            for n in range(B.size):
                assert B.member(n) != Q2.of(z)
