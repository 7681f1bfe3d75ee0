"""Realiser reductions and the rational-sampling baseline they defeat."""

import math
import random
from fractions import Fraction as F

import pytest

from abyss import (Bracket, CoverPsi, CoverPsiUsco, DyadicInterval, InvalidModulus,
                   OracleInconsistency, Penny, PennyK, PiecewiseRational, Poly, Q2, SupOracle,
                   TildePenny, adversarial_cliq_modulus, canonical_cliq_modulus, canonical_regulation_modulus,
                   cantor_diagonal, demo_abyss, exhaustive_sup_oracle,
                   extract_enumeration_from_sup, finite_set, fn_sum, linear, naive_rational_sup,
                   realiser_from_cliq_modulus, realiser_from_regulation_modulus,
                   realiser_from_sup, restrict_tags, sqrt2_family, staircase, thomae)
from abyss import universe
from abyss.composites import ScalarMultiple
from abyss.collapse import _ball_clipped
from abyss.reductions import AbyssReport, CliqModulusOracle, _dyadic_inside
from abyss.serialize import dumps
from abyss.universe import CLIQUISH
from abyss.variation import _limit_pair, _regulated_within

from catalogue import IRRATIONAL_SEEDS, RATIONAL_SEEDS, make, random_dyadic, random_finite_set
from conftest import calls_to, fraction_news
from references import (fraction_cantor_diagonal, fraction_dyadic_inside, fraction_sup,
                        outcome, plain_grid_max)

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
    lying = SupOracle(lambda f, iv: F(1, 2))
    with pytest.raises(OracleInconsistency):
        realiser_from_sup(lying, A, 8, fuel=4)


def test_extraction_refuses_a_supremum_that_is_no_spike_value(deadline):
    """Once an IndexError: 1 passed for a spike value with index -1."""
    deadline(5)
    with pytest.raises(OracleInconsistency):
        realiser_from_sup(SupOracle(lambda f, iv: F(1)), A, 4, fuel=2)
    for s in (F(-1, 2), F(3, 8), F(2)):
        with pytest.raises(OracleInconsistency):
            extract_enumeration_from_sup(SupOracle(lambda f, iv, s=s: s), A, 4)


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


def adversarial_wide_modulus() -> CliqModulusOracle:
    """Respects the prescribed ball but ignores the variation bound: the
    member spot-check refutes it as soon as a visible spike is inside."""

    def fn(x, k, n):
        iv = _ball_clipped(x, n)
        w = iv.width / 8
        return (iv.lower + w, iv.upper - w)

    return CliqModulusOracle(fn)


def test_cliq_modulus_adversaries_rejected():
    with pytest.raises(InvalidModulus, match="escapes the prescribed ball"):
        realiser_from_cliq_modulus(adversarial_cliq_modulus(), A, 6)
    with pytest.raises(InvalidModulus, match="contains member 0 with spike"):
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

    with pytest.raises(InvalidModulus, match="values stray 2\\^-3"):
        realiser_from_regulation_modulus(ZeroModulus(), A, 6)


def test_regulation_modulus_that_lets_a_member_survive_is_refused():
    """Honest at the members, where the spot check reads it, and 0 at every
    centre: the nested intervals close in on 1/2, and the level-2 one,
    [63/128, 65/128], still holds the member 501/1000."""
    one = finite_set([F(501, 1000)])
    honest = canonical_regulation_modulus(one)

    def lazy(x, k):
        return honest(x, k) if one.index_of(x) is not None else 0

    with pytest.raises(InvalidModulus, match="member 0 survived to level 2"):
        realiser_from_regulation_modulus(lazy, one, 4, fuel=4)


def test_regulation_walk_with_no_admissible_centre_is_refused():
    """Honest at the four members the spot check reads and 0 elsewhere: each
    ball is 1/8 as wide as the last and centred on 1/2, so at level 7 the
    seven grid centres are 1/2 + t 2^-24 (t = 0, +-1, +-2, +-3), all
    members, and no spike among them is below 2^-7."""
    a_set = finite_set([F(1, 2) + t * F(1, 1 << 24) for t in (1, -1, 2, -2, 3, -3)]
                       + [F(1, 2)])
    honest = canonical_regulation_modulus(a_set)

    def liar(x, k):
        return honest(x, k) if a_set.index_of(x) in range(4) else 0

    with pytest.raises(InvalidModulus, match="no admissible centre found at level 7"):
        realiser_from_regulation_modulus(liar, a_set, 8)


def test_naive_sup_baseline():
    f = Penny(A)
    for depth in (8, 16, 24):
        assert naive_rational_sup(f, 0, 1, depth) == 0
    assert naive_rational_sup(thomae(), F(1, 4), F(3, 4), 8) == F(1, 2)
    from abyss import constant
    assert naive_rational_sup(constant(F(1, 3)), 0, 1, 6) == F(1, 3)
    # the banded copy's members are irrational too, so no grid sees a spike
    assert naive_rational_sup(TildePenny(A), 0, 1, 24) == 0


@pytest.mark.parametrize("make", [lambda: staircase([(F(1, 3), F(1, 2))]), thomae,
                                  lambda: restrict_tags(Penny(A), {CLIQUISH})],
                         ids=["staircase", "thomae", "restricted-penny"])
def test_only_the_spike_families_read_a_deep_grid(make):
    """Only a spike family reads the grid maximum off its structure; any
    other family's grid is scanned, and one of 2^24 points is refused."""
    with pytest.raises(ValueError, match="grid too deep"):
        naive_rational_sup(make(), 0, 1, 24)


# a finite seed set with rational members, one of them past index 1
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
    ("staircase-irrational-cut", lambda: make("irrational-cut-staircase")),
    ("piecewise-vertex-off-its-piece", lambda: make("vertex-off-its-piece")),
]


@pytest.mark.parametrize("make", [m for _, m in GRID_FAMILIES],
                         ids=[name for name, _ in GRID_FAMILIES])
def test_grid_max_matches_plain_scan(make):
    """Whatever shortcut a family takes, naive_rational_sup is the max of
    plain evaluations over the grid."""
    f = make()
    for p, q in ((F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 3), F(5, 7)), (F(3, 8), F(1, 2))):
        for depth in range(11):
            assert naive_rational_sup(f, p, q, depth) == plain_grid_max(f, p, q, depth), \
                (p, q, depth)


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


def test_negative_precision_is_refused_by_name():
    """Once the sup path raised "negative shift count" and the cliq and
    regulation realisers answered as if k were 0."""
    oracle = exhaustive_sup_oracle()
    calls = [lambda: cantor_diagonal(A.member, -1),
             lambda: extract_enumeration_from_sup(oracle, A, -1),
             lambda: realiser_from_sup(oracle, A, -1),
             lambda: realiser_from_cliq_modulus(canonical_cliq_modulus(A), A, -1),
             lambda: realiser_from_regulation_modulus(canonical_regulation_modulus(A), A, -1)]
    for call in calls:
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            call()


def test_realiser_from_sup_builds_few_fractions():
    """The bisection asks its oracle about integer intervals, the spike
    brackets run on integers and each round reads its spike's band off the
    supremum itself: once the shared table of spike values holds the
    round's values, a 16-round sup realiser builds at most 2 of the 1,902
    Fractions its Fraction walk built (290 while the oracle took `Fraction`
    ends, 17 while each round took the supremum's absolute value), and a
    single round at most 1 (17 then)."""
    def realise():
        return realiser_from_sup(exhaustive_sup_oracle(), sqrt2_family(), 16, fuel=16)

    def one_round():
        return extract_enumeration_from_sup(exhaustive_sup_oracle(), sqrt2_family(), 16,
                                            rounds=1)

    for run, bound in ((realise, 2), (one_round, 1)):
        run()  # grows the shared spike-value table
        assert fraction_news(run) <= bound


def test_extraction_asks_one_query_per_bit_and_one_per_1_bit():
    """Each round asks for the supremum on [0, 1], then for the left half at
    each of the k steps, and for the right half once more at each 1-bit,
    where it must find the supremum again: 1 + 16 + 6 = 23 queries for
    round 0 of the sqrt2 family at k = 16, and 338 over 16 rounds."""
    honest = exhaustive_sup_oracle()
    starts = []

    def spy(f, iv):
        starts.append(f.start)
        return honest.sup(f, iv)

    steps = extract_enumeration_from_sup(SupOracle(spy), A, 16, rounds=16)
    assert [starts.count(r) for r in range(16)] == \
        [1 + 16 + step.bits.count("1") for step in steps]
    assert starts.count(0) == 23 and len(starts) == 338


# --- the integer walks against the Fraction computations they replace ---


def _random_q2(rng):
    """A rational, an irrational a + b sqrt2, or the midpoint of a stage of
    the Cantor walk, (2a + 1)/(2 3^n), where the walk breaks a tie."""
    n = rng.randrange(0, 8)
    roll = rng.random()
    if roll < 0.3:
        return Q2.of(F(2 * rng.randrange(3 ** n) + 1, 2 * 3 ** n))
    a = F(rng.randrange(0, 65), 64)
    return Q2(a, F(rng.randrange(-8, 9), 1 << rng.randrange(4, 12))) if roll < 0.7 else Q2.of(a)


def test_cantor_diagonal_matches_the_fraction_walk():
    rng = random.Random(61)
    enumerations = [A.member, lambda n: S2(0),
                    lambda n: RATIONAL_SEEDS.member(n % RATIONAL_SEEDS.size)]
    for _ in range(40):
        xs = [_random_q2(rng) for _ in range(rng.randrange(1, 20))]
        enumerations.append(lambda n, xs=xs: xs[n % len(xs)])
    for xs in enumerations:
        for k in (0, 1, 5, 12, 20):
            for fuel in (0, 1, 3, 16):
                assert cantor_diagonal(xs, k, fuel) == fraction_cantor_diagonal(xs, k, fuel)


def test_dyadic_inside_matches_the_fraction_rounding():
    rng = random.Random(67)
    for _ in range(400):
        d = rng.randrange(1, 1 << rng.randrange(1, 30))
        ln = rng.randrange(0, 4 * d)
        un = ln + rng.randrange(1, 3 * d)
        k = rng.randrange(0, 24)
        want = fraction_dyadic_inside(F(ln, d), F(un, d), k)
        assert _dyadic_inside(DyadicInterval(F(ln, d), F(un, d)), k) == want


def _fraction_bisection(oracle, f, s, k):
    """The bits and the interval the Fraction bisection located s at."""
    lo, hi = F(0), F(1)
    bits = ""
    while hi - lo > F(1, 1 << k):
        mid = (lo + hi) / 2
        if oracle(f, lo, mid) == s:
            hi, bits = mid, bits + "0"  # ties break toward the left half
        else:
            lo, bits = mid, bits + "1"
    return bits, DyadicInterval(lo, hi)


def test_extraction_matches_the_fraction_bisection():
    rng = random.Random(71)
    oracle = exhaustive_sup_oracle()
    seed_sets = [A, finite_set([S2(0)]), RATIONAL_SEEDS, IRRATIONAL_SEEDS]
    seed_sets += [random_finite_set(rng, max_size=6) for _ in range(4)]
    for a_set in seed_sets:
        for k in (0, 1, 7, 16):
            steps = extract_enumeration_from_sup(oracle, a_set, k, rounds=5)
            assert steps
            for r, step in enumerate(steps):
                f = Penny(a_set, start=steps[r - 1].index + 1 if r else 0)
                assert (step.bits, step.interval) == _fraction_bisection(oracle, f, step.value, k)
                assert len(step.bits) == k


def test_sup_oracle_matches_the_fraction_oracle():
    """Answers, and refusals with their messages, on spike families and on
    a function with an irrational value at a rational cut: the oracle's
    `Fraction` entry against a plain function of the same ends, reversed
    ends and ends outside [0, 1] among them."""
    rng = random.Random(89)
    spiky = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(0), Poly(F(1, 4))],
                                         ["right", S2(0), "right"])
    fns = [Penny(A), Penny(A, start=3), PennyK(A, 2), Penny(RATIONAL_SEEDS),
           TildePenny(IRRATIONAL_SEEDS), spiky]
    ends = [F(0), F(1), F(1, 2), F(3, 8), F(1, 4), F(5, 7), F(-1, 2), F(3, 2)]
    ends += [random_dyadic(rng, 8) for _ in range(12)]
    oracle = exhaustive_sup_oracle()
    for f in fns:
        for p in ends:
            for q in ends:
                want = outcome(lambda: fraction_sup(f, p, q))
                assert outcome(lambda: oracle(f, p, q)) == want, (f.kind, p, q)
    for p, q in ((0.5, 1), (0, 0.5)):
        with pytest.raises(TypeError, match="float 0.5 refused"):
            oracle(Penny(A), p, q)


def test_the_exhaustive_oracle_refuses_a_supremum_it_cannot_give_exactly():
    """0 but for the value sqrt2/2 at 1/2: its one value there is irrational,
    and on [1/4, 3/4] the supremum sqrt2/2 is no rational bracket end."""
    f = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(0), Poly(0)],
                                     ["right", Q2(0, F(1, 2)), "right"])
    oracle = exhaustive_sup_oracle()
    with pytest.raises(OracleInconsistency, match="^exact supremum is irrational$"):
        oracle(f, F(1, 2), F(1, 2))
    with pytest.raises(OracleInconsistency,
                       match="^supremum not exactly attained on this family$"):
        oracle(f, F(1, 4), F(3, 4))


def test_grid_baseline_of_a_finite_irrational_set_builds_only_its_answer():
    """A finite irrational seed set puts no member on a grid, so the grid
    maximum of its spike functions is the larger value at the two ends: they
    are evaluated and compared on integers, and the one `Fraction` built is
    the answer (four while each end and each value was read as a `Fraction`).
    Building the set and the function builds none."""
    pts = [Q2(F(3, 4), F(1, 64)), Q2(F(1, 3), F(1, 32)), Q2(F(1, 8), F(1, 128))]
    a_set = finite_set(pts)
    for p, q in ((F(1, 3), F(5, 7)), (F(1, 4), F(3, 4)), (F(0), F(1))):
        for f in (Penny(a_set), PennyK(a_set, 1)):
            assert fraction_news(lambda: naive_rational_sup(f, p, q, 24)) <= 1, (f.kind, p, q)
    assert fraction_news(lambda: finite_set(pts)) == 0
    assert fraction_news(lambda: Penny(a_set)) == 0


def _two_pass_demo(a_set, depths=(8, 16, 24)):
    """The demo as three separate computations: the exact value, a 1-round
    extraction for the 16 bits, and the realiser's own 8-round extraction."""
    f = Penny(a_set)
    oracle = exhaustive_sup_oracle()
    baseline = [naive_rational_sup(f, 0, 1, d) for d in depths]
    exact = oracle(f, F(0), F(1))
    extraction = extract_enumeration_from_sup(oracle, a_set, 16, rounds=1)
    z = realiser_from_sup(oracle, a_set, 16, fuel=8)
    return AbyssReport("spike function over %s" % a_set.name, list(depths), baseline,
                       exact, exact - max(baseline), z,
                       extraction[0].bits if extraction else None)


def test_demo_report_matches_the_two_pass_demo():
    rng = random.Random(79)
    for a_set in [A, finite_set([S2(0)]), RATIONAL_SEEDS, IRRATIONAL_SEEDS,
                  random_finite_set(rng), random_finite_set(rng)]:
        rep = demo_abyss(a_set, (8, 16))
        assert rep == _two_pass_demo(a_set, (8, 16))
        assert dumps(rep.to_jsonable()) == dumps(_two_pass_demo(a_set, (8, 16)).to_jsonable())


def test_demo_extracts_once():
    """One 8-round extraction serves the exact value, the bits and the
    realiser: on the sqrt2 family, 8 + 8 * 16 left-half queries and 43
    right-half ones, where the two-pass demo asked 203."""
    from abyss import reductions
    assert calls_to(lambda: demo_abyss(A), reductions.__file__, "sup") == 179
    assert calls_to(lambda: _two_pass_demo(A), reductions.__file__, "sup") == 203


def _fraction_regulated_within(f, p, m, k):
    tol, r = F(1, 1 << k), F(1, 1 << (m + 1))
    for side in (-1, 1):
        lim = f.one_sided_limit(p, side, k + 6)
        if lim is None:
            continue
        lo_pt, hi_pt = p.bracket(m + k + 8)
        if side > 0:
            lo, hi = hi_pt, min(F(1), lo_pt + r)
        else:
            lo, hi = max(F(0), hi_pt - r), lo_pt
        if lo >= hi:
            continue
        if p.is_rational:
            eps = F(1, 1 << (k + 24))
            if side > 0 and lo + eps < hi:
                lo += eps
            elif side < 0 and lo < hi - eps:
                hi -= eps
        inf_b, sup_b = f.range_on(DyadicInterval(lo, hi), k + 6)
        if sup_b.hi - lim.lo >= tol or lim.hi - inf_b.lo >= tol:
            return False
    return True


def _windows(regulated, f, p, m, k):
    """regulated(f, p, m, k) and the (window, precision) pairs it read."""
    seen = []
    read = f.range_on

    def spy(iv, prec):
        seen.append((iv, prec))
        return read(iv, prec)

    f.range_on = spy
    try:
        return regulated(f, p, m, k), seen
    finally:
        del f.range_on


def _regulated_within_at(f, p, m, k):
    return _regulated_within(f, p, m, k, _limit_pair(f, p, k))


def test_regulation_windows_match_the_fraction_windows():
    """The same windows read and the same answer, at rational and irrational
    points (the ends of [0,1] included) over a grid of (m, k)."""
    functions = [Penny(A), Penny(RATIONAL_SEEDS), staircase([(F(1, 2), 1)]), linear(1)]
    points = [Q2.of(x) for x in (0, 1, F(1, 2), F(1, 3), F(5, 7), F(3, 8))]
    points += [S2(0), S2(3), Q2(F(1, 3), F(1, 32)), RATIONAL_SEEDS.member(0)]
    for f in functions:
        for p in points:
            for m in range(0, 12, 2):
                for k in (0, 1, 3, 6):
                    assert _windows(_regulated_within_at, f, p, m, k) == \
                        _windows(_fraction_regulated_within, f, p, m, k), (f.kind, p, m, k)


def test_extraction_refuses_a_stripped_spike_value():
    """Once a constant answer 1/2 passed as the supremum of rounds 1 and 2
    too, whose functions, spikes 0 and 1 stripped, stay at or below 1/4 and
    1/8: the walk returned index 0 three times."""
    lying = SupOracle(lambda f, iv: F(1, 2))
    with pytest.raises(OracleInconsistency, match="1/2 is the stripped spike 0"):
        extract_enumeration_from_sup(lying, sqrt2_family(), 4, rounds=3)
    # one round strips nothing before it, so the same answers pass
    assert [s.index for s in extract_enumeration_from_sup(lying, sqrt2_family(), 4, rounds=1)] \
        == [0]


def test_extraction_refuses_a_spike_past_a_finite_seed_set():
    """Once a constant answer 1/1024 passed as spike 9 of a two-point set,
    and `realiser_from_sup` then failed with a bare IndexError."""
    two = finite_set([S2(0), S2(2)])  # sqrt2/2 and sqrt2/8
    lying = SupOracle(lambda f, iv: F(1, 1024))
    for run in (lambda: extract_enumeration_from_sup(lying, two, 4, rounds=1),
                lambda: realiser_from_sup(lying, two, 4, fuel=1)):
        with pytest.raises(OracleInconsistency, match="spike 9 of a 2-point seed set"):
            run()
    # the last member's spike still passes
    last = SupOracle(lambda f, iv: F(1, 4))
    assert [s.index for s in extract_enumeration_from_sup(last, two, 4, rounds=1)] == [1]


def test_sup_oracle_answers_unit_dyadics_and_zero_without_a_fraction():
    """A spike value 2^-(n+1) comes from the shared cache and 0 is one
    shared constant, on a wide interval and at a single point."""
    oracle = exhaustive_sup_oracle()
    f = Penny(A)
    queries = [(f, F(0), F(1)), (Penny(A, start=5), F(0), F(1)), (f, F(0), F(1, 4)),
               (f, F(3, 4), F(1)), (f, F(1, 3), F(1, 3)), (Penny(RATIONAL_SEEDS), F(0), F(1))]
    answers = [oracle(*q) for q in queries]  # caches every index asked
    assert answers[:4] == [F(1, 2), F(1, 64), F(1, 8), 0] and answers[4] == 0
    assert fraction_news(lambda: [oracle(*q) for q in queries]) == 0
    assert [oracle(*q) for q in queries] == answers


def test_unit_dyadic_table_holds_the_spike_values_and_grows_only_as_asked():
    fractions, brackets = universe.unit_dyadic, universe.unit_dyadic_bracket
    assert fractions.cache_info().maxsize == brackets.cache_info().maxsize == 1024
    # empty caches for this test: other tests fill the shared ones
    fractions.cache_clear()
    brackets.cache_clear()
    brackets(9)
    assert (fractions.cache_info().currsize, brackets.cache_info().currsize) == (0, 1)
    for n in range(201):
        assert fractions(n) == F(1, 2 << n) == Penny.spike_value(n)
        assert brackets(n) == Bracket.of_ints(1, 1, 2 << n)
    assert fractions.cache_info().currsize == brackets.cache_info().currsize == 201
    # the cache holds one object per value, shared by every reader
    assert fractions(7) is fractions(7) is Penny.spike_value(7)
    assert Penny(A).range_on(DyadicInterval(F(0), F(1)), 8)[1] is brackets(0)
    assert fractions(1024) == F(1, 2 << 1024)
    assert brackets(1024) == Bracket.of_ints(1, 1, 2 << 1024)
