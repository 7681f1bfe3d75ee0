"""Realiser reductions and the rational-sampling baseline they defeat."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from abyss import (Bracket, DyadicInterval, InvalidModulus,
                   OracleInconsistency, Penny, PennyK, PiecewiseRational, Poly, Q2, SupOracle,
                   TildePenny, adversarial_cliq_modulus, canonical_cliq_modulus, canonical_regulation_modulus,
                   cantor_diagonal, demo_abyss, exhaustive_sup_oracle,
                   extract_enumeration_from_sup, finite_set, naive_rational_sup,
                   realiser_from_cliq_modulus, realiser_from_regulation_modulus,
                   realiser_from_sup, restrict_tags, sqrt2_family, staircase, thomae)
from abyss import universe
from abyss.collapse import _ball_clipped
from abyss.reductions import CliqModulusOracle, _dyadic_inside
from abyss.universe import CLIQUISH

from catalogue import RATIONAL_SEEDS, make, random_finite_set
from conftest import calls_to, fraction_news
from references import (fraction_cantor_diagonal, fraction_dyadic_inside, fraction_sup, outcome,
                        two_pass_demo)

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
    round 0 of the sqrt2 family at k = 16, and 338 over 16 rounds, read
    through a counting oracle: 288 answers positive and 50 zero, so no
    consistency query is dropped where an answer is the round's supremum."""
    honest = exhaustive_sup_oracle()
    starts, answers = [], []

    def spy(f, iv):
        starts.append(f.start)
        answers.append(honest.sup(f, iv))
        return answers[-1]

    steps = extract_enumeration_from_sup(SupOracle(spy), A, 16, rounds=16)
    assert [starts.count(r) for r in range(16)] == \
        [1 + 16 + step.bits.count("1") for step in steps]
    assert starts.count(0) == 23 and len(starts) == 338
    assert (sum(a > 0 for a in answers), answers.count(0)) == (288, 50)


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


def test_the_exhaustive_oracle_refuses_a_supremum_it_cannot_give_exactly():
    """0 but for the value sqrt2/2 at 1/2: its one value there is irrational,
    and on [1/4, 3/4] the supremum sqrt2/2 is no rational bracket end.  A
    float end is refused by name."""
    f = PiecewiseRational.from_polys([0, F(1, 2), 1], [Poly(0), Poly(0)],
                                     ["right", Q2(0, F(1, 2)), "right"])
    oracle = exhaustive_sup_oracle()
    with pytest.raises(OracleInconsistency, match="^exact supremum is irrational$"):
        oracle(f, F(1, 2), F(1, 2))
    with pytest.raises(OracleInconsistency,
                       match="^supremum not exactly attained on this family$"):
        oracle(f, F(1, 4), F(3, 4))
    for p, q in ((0.5, 1), (0, 0.5)):
        with pytest.raises(TypeError, match="float 0.5 refused"):
            oracle(Penny(A), p, q)


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


def test_demo_extracts_once():
    """One 8-round extraction serves the exact value, the bits and the
    realiser: on the sqrt2 family, 8 + 8 * 16 left-half queries and 43
    right-half ones, where the two-pass demo asked 203."""
    from abyss import reductions
    assert calls_to(lambda: demo_abyss(A), reductions.__file__, "sup") == 179
    assert calls_to(lambda: two_pass_demo(A), reductions.__file__, "sup") == 203


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


def test_sup_oracle_scan_answers_deep_intervals_as_the_range_read():
    """Near 0 the one scan of a spike family at 2^-60 reaches its limit of
    64 members: an interval that holds a member past it is refused as the
    inexact bracket of `range_on` was, and one past every member (or
    between two, or holding one inside the limit) is answered exactly."""
    ends = [F(0), F(1, 1 << 80), F(1, 1 << 70), F(1, 1 << 66), F(1, 1 << 64), F(1, 1 << 60)]
    for n in (62, 63, 64, 65):
        ends += S2(n).bracket(90)
    shown = set()
    for f in (Penny(A), Penny(A, start=3), PennyK(A, 64), TildePenny(A)):
        for p, q in itertools.combinations(sorted(ends), 2):
            got = outcome(lambda: exhaustive_sup_oracle()(f, p, q))
            assert got == outcome(lambda: fraction_sup(f, p, q)), (f.kind, p, q)
            shown.add(got[0] if isinstance(got, tuple) else "exact")
    assert shown == {"exact", "OracleInconsistency"}


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
