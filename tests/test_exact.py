"""Exact substrate: rationals, Q(sqrt2) order, intervals, grids, fueled truth."""

import math
import sys
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from abyss import (DyadicInterval, ExistsValueAbove, FueledBool, PennyK, Poly, Q2, Thomae,
                   R2Rep, Truth, ball, halve, linear, mu_search, naive_rational_sup,
                   rational_grid, scalar_multiple, sqrt2_family, sup_qc, unit_rationals)
from abyss.exact import Bracket, DegenerateInterval, in_unit, least_denominator
from abyss.serialize import fn_from_json, q2_from_json, q2_json

from conftest import fraction_news
from references import exact_symbolic_sup

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=512)
small_nat = st.integers(min_value=0, max_value=12)

# Q2 values: general ones, rational shifts of the carriers +-sqrt2/2^k down
# to k = 60, and b == 0
carriers = st.builds(lambda a, s, k: Q2(a, F(s, 1 << k)), rationals,
                     st.sampled_from([-1, 1]), st.integers(min_value=0, max_value=60))
q2s = st.one_of(st.builds(Q2, rationals, rationals), carriers, rationals.map(Q2))
operands = st.one_of(st.integers(min_value=-8, max_value=8), rationals, q2s)


@st.composite
def close_pairs(draw):
    """A Q2 value and an operand equal to it or to an end or the midpoint of
    one of its brackets (widths down to 2^-130): close values, whose order
    only the squaring rule decides."""
    x = draw(q2s)
    lo, hi = x.bracket(draw(st.integers(min_value=0, max_value=130)))
    y = draw(st.sampled_from([x, lo, hi, (lo + hi) / 2, Q2(lo), Q2(hi)]))
    return x, y


def sym(v):
    """The exact sympy value a + b*sympy.sqrt(2) of an int, Fraction or Q2."""
    if isinstance(v, Q2):
        return sym(v.a) + sym(v.b) * sympy.sqrt(2)
    v = F(v)
    return sympy.Rational(v.numerator, v.denominator)


def sym_equal(q, e):
    return isinstance(q, Q2) and type(q.a) is F and type(q.b) is F \
        and sympy.expand(sym(q) - e) == 0


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


@given(rationals, rationals, rationals, rationals)
def test_q2_field_ops(a, b, c, d):
    x, y = Q2(a, b), Q2(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if y != Q2(0):
        assert (x / y) * y == x


@given(rationals, rationals, rationals, rationals)
def test_q2_total_order(a, b, c, d):
    x, y = Q2(a, b), Q2(c, d)
    assert (x < y) + (x == y) + (x > y) == 1
    if x < y:
        assert -y < -x


@given(rationals, rationals, st.integers(min_value=0, max_value=40))
def test_q2_bracket_contains(a, b, k):
    x = Q2(a, b)
    lo, hi = x.bracket(k)
    assert Q2.of(lo) <= x <= Q2.of(hi)
    assert hi - lo <= F(1, 1 << k)


@given(st.integers(min_value=0, max_value=60))
def test_sqrt2_bracket(k):
    lo, hi = Q2(0, 1).bracket(k)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= F(1, 1 << k)


def test_sqrt2_sign_decided_by_squaring():
    # 3/2 > sqrt2 > 7/5
    assert Q2(F(-3, 2), 1).sign() < 0
    assert Q2(F(-7, 5), 1).sign() > 0
    assert Q2(0, 1) > Q2(F(7, 5)) and Q2(0, 1) < Q2(F(3, 2))


def test_ball_examples():
    # note: the radius is exactly 2^-k
    assert ball(F(1, 2), 2) == DyadicInterval(F(1, 4), F(3, 4))
    assert ball(F(0), 3) == DyadicInterval(F(-1, 8), F(1, 8))
    assert ball(F(1, 3), 2) == DyadicInterval(F(1, 12), F(7, 12))


def test_halve_examples():
    assert halve(DyadicInterval(0, 1)) == (DyadicInterval(0, F(1, 2)),
                                           DyadicInterval(F(1, 2), 1))
    assert halve(DyadicInterval(F(1, 4), F(3, 4)))[1] == DyadicInterval(F(1, 2), F(3, 4))
    left, right = halve(DyadicInterval(0, F(1, 3)))
    assert left.upper == right.lower == F(1, 6)
    with pytest.raises(DegenerateInterval):
        halve(DyadicInterval(F(1, 2), F(1, 2)))


@given(rationals, rationals, small_nat)
def test_halve_partition(a, b, _):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return
    left, right = halve(DyadicInterval(lo, hi))
    assert left.lower == lo and right.upper == hi and left.upper == right.lower


def test_grid_examples():
    assert rational_grid(DyadicInterval(0, 1), 1) == [F(0), F(1, 2), F(1)]
    assert rational_grid(DyadicInterval(0, 1), 2) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert rational_grid(DyadicInterval(F(1, 4), F(1, 2)), 3) == [F(1, 4), F(3, 8), F(1, 2)]


@given(st.fractions(min_value=0, max_value=1, max_denominator=64),
       st.fractions(min_value=0, max_value=1, max_denominator=64),
       small_nat)
def test_grid_nested_and_increasing(a, b, n):
    lo, hi = min(a, b), max(a, b)
    iv = DyadicInterval(lo, hi)
    g1 = rational_grid(iv, n)
    g2 = rational_grid(iv, n + 1)
    assert set(g1) <= set(g2)
    assert all(x < y for x, y in zip(g1, g1[1:]))


def test_fueled_bool():
    assert bool(FueledBool(Truth.YES, 3))
    assert not bool(FueledBool(Truth.NO, 3))
    with pytest.raises(ValueError):
        bool(FueledBool(Truth.UNKNOWN, 5))


def test_unit_rational_enumeration_prefix():
    gen = unit_rationals()
    first = [next(gen) for _ in range(8)]
    assert first == [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5)]


def test_enumeration_injective_prefix():
    gen = unit_rationals()
    seen = [next(gen) for _ in range(200)]
    assert len(set(seen)) == 200


@given(rationals, rationals, rationals, rationals)
def test_bracket_arith(a, b, c, d):
    x = Bracket(min(a, b), max(a, b))
    y = Bracket(min(c, d), max(c, d))
    s = x + y
    assert s.lo == x.lo + y.lo and s.hi == x.hi + y.hi
    m = x.join_max(y)
    assert m.lo == max(x.lo, y.lo) and m.hi == max(x.hi, y.hi)
    assert (x - y).contains(x.lo - y.hi)


def check_against_sympy(x, y):
    sx, sy = sym(x), sym(y)
    want = int(sympy.sign(sympy.expand(sx - sy)))
    plain = (x - y).sign()  # the reference the comparisons shortcut
    assert plain == want
    assert x.sign() == int(sympy.sign(sx))
    assert ((x < y), (x <= y), (x == y), (x > y), (x >= y), (x != y)) == \
        (want < 0, want <= 0, want == 0, want > 0, want >= 0, want != 0)
    # reflected: y op x with y an int or a Fraction lands in Q2's methods
    assert ((y > x), (y >= x), (y == x), (y < x), (y <= x)) == \
        (want < 0, want <= 0, want == 0, want > 0, want >= 0)
    if want == 0:
        assert hash(x) == hash(y)
    if x.is_rational:
        assert x == x.a and hash(x) == hash(x.a)
    assert sym_equal(x + y, sx + sy) and sym_equal(y + x, sx + sy)
    assert sym_equal(x - y, sx - sy) and sym_equal(y - x, sy - sx)
    assert sym_equal(x * y, sx * sy) and sym_equal(y * x, sx * sy)
    if sy != 0:
        assert sym_equal(x / y, sympy.radsimp(sx / sy))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(st.one_of(st.tuples(q2s, operands), close_pairs()))
def test_q2_matches_sympy(pair):
    check_against_sympy(*pair)


def test_bracket_contains_irrational_value():
    x = Q2.sqrt2_scaled(0)  # sqrt2/2 = 0.7071...
    for k in (0, 1, 10, 40):
        assert Bracket.of_q2(x, k).contains(x)
    assert not Bracket(0, F(7, 10)).contains(x)
    assert not Bracket(F(71, 100), 1).contains(x)
    assert Bracket(0, 1).contains(F(1, 2)) and Bracket(0, 1).contains(Q2(1))


# --- the representation: (p + q*sqrt2)/d over one denominator ----------------


def check_canonical(x):
    """x is three integers (p, q, d) in lowest terms with d > 0, and a, b
    read them back as the reduced Fractions p/d and q/d."""
    assert type(x) is Q2 and all(type(v) is int for v in (x.p, x.q, x.d))
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert type(x.a) is F and type(x.b) is F
    assert x.a == F(x.p, x.d) and x.b == F(x.q, x.d)
    assert q2_from_json(q2_json(x)) == x
    if x.is_rational:
        assert hash(x) == hash(x.a) and x == x.a


@given(q2s, operands, st.integers(min_value=0, max_value=40))
def test_q2_results_keep_the_representation(x, y, k):
    yq = Q2.of(y)
    results = [x, yq, -x, abs(x), x + y, y + x, x - y, y - x, x * y, y * x,
               Q2(x.a, x.b), Q2.of(x.a) + Q2(0, x.b), x + yq - yq, yq * x]
    if yq != 0:
        results += [x / y, x / y * y]
    results += [Q2.of(v) for v in x.bracket(k)]
    for r in results:
        check_canonical(r)
    # equal values built by different routes are equal and hash equal
    for u, v in ((x + yq - yq, x), (x * y, y * x), (Q2.of(x.a) + Q2(0, x.b), x),
                 (x - x, Q2(0)), (x + y, y + x)):
        assert u == v and hash(u) == hash(v)
    if yq != 0:
        assert x / y * y == x and hash(x / y * y) == hash(x)


@given(st.one_of(rationals, st.integers(min_value=-10 ** 30, max_value=10 ** 30)))
def test_rational_q2_hashes_as_its_fraction(v):
    assert hash(Q2(v)) == hash(F(v)) and Q2(v) == F(v)
    assert hash(Q2(v, 0) + Q2(0, 1) - Q2(0, 1)) == hash(F(v))


def test_rational_hashes_follow_the_fraction_rule():
    """A rational Q2 hashes as its `Fraction` and an interval as the pair of
    its ends, at the edges of `Fraction.__hash__`'s rule too: a negative
    numerator, a denominator the modulus 2^61 - 1 divides, and a value whose
    rule gives -1 (sent to -2)."""
    m = sys.hash_info.modulus
    values = [F(-1, 3), F(-7), F(-1), F(1, m), F(-5, 3 * m), F(m + 1, m * m), F(m, 7),
              F(-(m + 2), 2), F(2 * m + 3, 3)]
    assert hash(F(-(m + 2), 2)) == -2
    for v in values:
        assert hash(Q2(v)) == hash(v), v
    for lo, hi in zip(values, values[1:]):
        iv = DyadicInterval(min(lo, hi), max(lo, hi))
        assert hash(iv) == hash((iv.lower, iv.upper)), iv
        b = Bracket(iv.lower, iv.upper)
        assert hash(b) == hash((b.lo, b.hi)), b
    iv = DyadicInterval.of_ints(-(m + 2), 6 * m, 2 * m)  # ends reduce apart
    assert hash(iv) == hash((iv.lower, iv.upper))


def test_q2_by_q2_arithmetic_and_order_build_no_fraction():
    xs = [Q2(0), Q2(3), Q2(F(1, 3)), Q2(F(-5, 12)), Q2.sqrt2_scaled(0), Q2.sqrt2_scaled(9),
          Q2(F(1, 2), F(1, 64)), Q2(F(-7, 3), F(5, 9)), Q2(F(2, 3), F(-1, 3))]

    def ops():
        for x in xs:
            for y in xs:
                x + y, x * y, x < y, x == y
    assert fraction_news(lambda: F(1, 3)) == 1  # the counter sees a Fraction
    assert fraction_news(ops) == 0


def test_in_unit_decides_as_the_order_does():
    """`in_unit` reads the signs of x and 1 - x off the integers; Q2's order
    decides the same, also at x and 1 - x = +-(p - q sqrt2) for the
    convergents p/q of sqrt2, within 2^-40 of an end."""
    xs = [Q2(F(p, d), F(q, d)) for p in range(-8, 10) for q in range(-7, 8) for d in (1, 2, 3, 8)]
    for p, q in ((1, 1), (3, 2), (7, 5), (17, 12), (99, 70), (665857, 470832)):
        for s in (1, -1):
            near = Q2(F(s * p), F(-s * q))
            xs += [near, 1 - near, near / 3, 1 - near / 3]
    assert all(in_unit(x) == (0 <= x <= 1) for x in xs)


def test_q2_of_two_fractions_reads_their_integers_and_refuses_a_float():
    """Each part is read off its `Fraction`'s integers, and the two meet over
    the lcm of their denominators, in lowest terms."""
    a, b = F(3, 7), F(-1, 8)
    assert fraction_news(lambda: Q2(a, b)) == 0
    for (x, y), triple in {(F(3, 7), F(-1, 8)): (24, -7, 56), (F(2, 4), F(1, 2)): (1, 1, 2),
                           (F(5, 12), F(7, 18)): (15, 14, 36), (F(0), F(-3, 4)): (0, -3, 4),
                           (F(1, 6), F(1, 10)): (5, 3, 30)}.items():
        assert (Q2(x, y).p, Q2(x, y).q, Q2(x, y).d) == triple
    message = r"^float 0\.5 refused: exact arithmetic takes int, Fraction or Q2$"
    for build in (lambda: Q2(0.5, a), lambda: Q2(a, 0.5), lambda: Q2(0.5), lambda: Q2(1, 0.5)):
        with pytest.raises(TypeError, match=message):
            build()


@pytest.mark.parametrize("build", [
    lambda: Q2(0.1), lambda: Q2(1, 0.5), lambda: Q2.of(0.5),
    lambda: Q2(1) + 0.1, lambda: 0.1 + Q2(1), lambda: Q2(1) - 0.5, lambda: 0.5 - Q2(1),
    lambda: Q2(1) * 0.5, lambda: Q2(1) / 0.5, lambda: Q2(1) < 0.5, lambda: 0.5 <= Q2(1),
    lambda: DyadicInterval(0.0, 1), lambda: DyadicInterval(0, 1.0),
    lambda: DyadicInterval(0, 1).contains(0.3),
    lambda: DyadicInterval(0, 1).contains_interior(0.3),
    lambda: Bracket.point(0.1), lambda: Bracket(0, 0.5), lambda: Bracket(0, 1).contains(0.5),
    lambda: Bracket(0, 1).scale(0.5), lambda: ball(0.5, 2),
    lambda: linear(1).witness_above(DyadicInterval(0, 1), 0.1),
    lambda: sup_qc(linear(1), 0.25, 0.75, 4), lambda: scalar_multiple(0.1, linear(1)),
    lambda: scalar_multiple(0.1, Thomae()), lambda: Poly(0.1),
    lambda: mu_search(ExistsValueAbove(linear(1), DyadicInterval(0, 1), 0.1)),
    lambda: naive_rational_sup(Thomae(), 0.25, 1, 4), lambda: R2Rep.from_intervals([(0.25, 0.5)]),
    lambda: fn_from_json({"kind": "scalar-multiple", "c": 0.1, "f": {"kind": "thomae"}}),
    lambda: PennyK(sqrt2_family(), 2.5),
    lambda: fn_from_json({"kind": "pennyk", "set": {"generator": "sqrt2-halving"},
                          "cutoff": 2.5}),
    lambda: fn_from_json({"kind": "pennyk", "set": {"generator": "sqrt2-halving"},
                          "cutoff": True})])
def test_floats_are_refused_at_the_kernel_boundary(build):
    with pytest.raises(TypeError):
        build()


# --- least denominators ------------------------------------------------------


def plain_min_denominator_in(lo, hi, cap):
    """The plain loop: the first reduced p/q in [lo, hi] cap [0,1] by
    denominator q <= cap, then numerator p."""
    for q in range(1, cap + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            if math.gcd(abs(p), q) == 1 and 0 <= F(p, q) <= 1:
                return F(p, q), q
    return None


unit = st.fractions(min_value=0, max_value=1, max_denominator=1 << 12)


@given(unit, unit)
@example(F(0), F(0))          # degenerate, at 0
@example(F(1), F(1))          # degenerate, at 1
@example(F(2, 7), F(2, 7))    # degenerate, inside
@example(F(0), F(1))          # two integers: the least numerator wins
@example(F(0), F(1, 1000))    # end at 0
@example(F(999, 1000), F(1))  # end at 1
@example(F(1, 3), F(1, 2))    # the simplest is the upper end
@example(F(1001, 2048), F(1023, 2048))
def test_least_denominator_matches_plain_loop(a, b):
    lo, hi = min(a, b), max(a, b)
    p, q = least_denominator(*lo.as_integer_ratio(), *hi.as_integer_ratio())
    want = plain_min_denominator_in(lo, hi, lo.denominator)  # lo is a candidate
    assert (F(p, q), q) == want and math.gcd(p, q) == 1
    iv = DyadicInterval(lo, hi)
    assert Thomae().min_denominator_in(iv, q) == want  # denominator == cap
    assert Thomae().min_denominator_in(iv, q - 1) is None  # denominator == cap + 1


@given(st.fractions(min_value=-1, max_value=2, max_denominator=256),
       st.fractions(min_value=-1, max_value=2, max_denominator=256),
       st.integers(min_value=0, max_value=64))
def test_min_denominator_clips_to_unit_interval(a, b, cap):
    lo, hi = min(a, b), max(a, b)
    got = Thomae().min_denominator_in(DyadicInterval(lo, hi), cap)
    assert got == plain_min_denominator_in(lo, hi, cap)


dyadic_ends = st.builds(lambda i, d: F(i % ((1 << d) + 1), 1 << d),
                        st.integers(min_value=0), st.integers(min_value=0, max_value=14))


@given(dyadic_ends, dyadic_ends, st.integers(min_value=0, max_value=12))
def test_thomae_range_and_witness_match_exact_sup(a, b, k):
    lo, hi = min(a, b), max(a, b)
    iv, t = DyadicInterval(lo, hi), Thomae()
    want = exact_symbolic_sup(t, iv).as_rational()  # 1/q for the least q
    _, sup_b = t.range_on(iv, k)
    if lo == hi or want >= F(1, 1 << (k + 2)):
        assert sup_b.exact and sup_b.lo == want
    else:
        assert sup_b.lo <= want <= sup_b.hi and sup_b.width <= F(1, 1 << k)
    q = want.denominator
    for y in (want, want - F(1, 1 << 14), want / 2, F(1, q + 1), F(1, max(1, q - 1)),
              F(0), F(-1, 8), F(1)):
        truth, point = t.witness_above(iv, y)
        assert truth is (Truth.YES if want > y else Truth.NO)
        if truth is Truth.YES:
            assert iv.contains(point) and t.eval(point) > y
