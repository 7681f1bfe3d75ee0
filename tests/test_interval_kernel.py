"""The integer interval kernel against the Fraction code it replaced.

`DyadicInterval` and `Bracket` store their ends as integers (ln, un, d) over
one denominator.  The reference below is the earlier implementation on
stdlib `Fraction` pairs, kept here verbatim in behaviour: every rewritten
method must answer as it does, and print, compare and hash the same.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abyss import DyadicInterval, Q2, ball, halve, linear, rational_grid
from abyss.exact import Bracket, DegenerateInterval, _subinterval, grid_depth_cap, grid_q2
from abyss.collapse import _ball_clipped
from abyss.universe import _clip_unit

from conftest import fraction_news

# --- the Fraction reference ---------------------------------------------------


@dataclass(frozen=True)
class RefInterval:
    lower: F
    upper: F

    def __post_init__(self):
        object.__setattr__(self, "lower", F(self.lower))
        object.__setattr__(self, "upper", F(self.upper))
        if self.lower > self.upper:
            raise ValueError("interval endpoints out of order: [%s, %s]"
                             % (self.lower, self.upper))

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return (self.lower + self.upper) / 2

    def contains(self, x):
        if isinstance(x, Q2):
            return x >= self.lower and x <= self.upper
        return self.lower <= F(x) <= self.upper

    def contains_interior(self, x):
        if isinstance(x, Q2):
            return x > self.lower and x < self.upper
        return self.lower < F(x) < self.upper

    def __str__(self):
        return "[%s, %s]" % (self.lower, self.upper)


def ref_ball(x, k):
    c, r = F(x), F(1, 1 << k)
    return RefInterval(c - r, c + r)


def ref_halve(i):
    if i.lower == i.upper:
        raise DegenerateInterval("cannot halve the degenerate interval %s" % (i,))
    m = i.midpoint
    return RefInterval(i.lower, m), RefInterval(m, i.upper)


def ref_rational_grid(i, n):
    step = F(1, 1 << n)
    first = math.ceil(i.lower / step)
    last = math.floor(i.upper / step)
    pts = [step * j for j in range(first, last + 1)]
    if not pts or pts[0] != i.lower:
        pts.insert(0, i.lower)
    if pts[-1] != i.upper:
        pts.append(i.upper)
    return pts


def ref_grid_depth_cap(iv):
    w = iv.width
    if w == 0:
        return 0
    return 12 + min((-(-w.denominator // w.numerator) - 1).bit_length(), 80)


@dataclass(frozen=True)
class RefBracket:
    lo: F
    hi: F

    def __post_init__(self):
        object.__setattr__(self, "lo", F(self.lo))
        object.__setattr__(self, "hi", F(self.hi))
        if self.lo > self.hi:
            raise ValueError("bracket out of order: [%s, %s]" % (self.lo, self.hi))

    @staticmethod
    def of_q2(x, k):
        lo, hi = Q2.of(x).bracket(k)
        return RefBracket(lo, hi)

    @property
    def exact(self):
        return self.lo == self.hi

    @property
    def width(self):
        return self.hi - self.lo

    def __add__(self, other):
        return RefBracket(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return RefBracket(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return RefBracket(-self.hi, -self.lo)

    def scale(self, c):
        c = F(c)
        if c >= 0:
            return RefBracket(self.lo * c, self.hi * c)
        return RefBracket(self.hi * c, self.lo * c)

    def join_max(self, other):
        return RefBracket(max(self.lo, other.lo), max(self.hi, other.hi))

    def join_min(self, other):
        return RefBracket(min(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, v):
        if isinstance(v, Q2):
            return v >= self.lo and v <= self.hi
        return self.lo <= F(v) <= self.hi


def ref_ball_clipped(x, exponent):
    p = Q2.of(x)
    c = p.as_rational() if p.is_rational else p.approx(exponent + 4)
    r = F(1, 1 << exponent)
    return RefInterval(max(F(0), c - r), min(F(1), c + r))


# --- parity --------------------------------------------------------------------


def same_interval(new, ref):
    """Every view, the text forms, the hash and the canonical triple agree."""
    assert (new.lower, new.upper, new.width, new.midpoint) == \
        (ref.lower, ref.upper, ref.width, ref.midpoint)
    assert repr(new) == repr(ref).replace("RefInterval", "DyadicInterval")
    assert str(new) == str(ref) and hash(new) == hash(ref)
    assert math.gcd(new.ln, new.un, new.d) == 1 and new.d > 0
    assert new == DyadicInterval(ref.lower, ref.upper)


def same_bracket(new, ref):
    assert (new.lo, new.hi, new.width, new.exact) == (ref.lo, ref.hi, ref.width, ref.exact)
    assert repr(new) == repr(ref).replace("RefBracket", "Bracket")
    assert str(new) == str(ref).replace("RefBracket", "Bracket") and hash(new) == hash(ref)
    assert math.gcd(new.ln, new.un, new.d) == 1 and new.d > 0
    assert new == Bracket(ref.lo, ref.hi)


# non-dyadic and negative ends as well as dyadic ones, all in [-4, 4]
ends = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=96),
                 st.builds(lambda i, k: F(i, 1 << k), st.integers(-256, 256), st.integers(6, 8)))
rationals = st.one_of(ends, st.integers(-3, 3))
# points near the ends too: rational, and rational plus or minus a small sqrt2 part
points = st.one_of(rationals, st.builds(lambda a, s, k: Q2(a, F(s, 1 << k)), ends,
                                        st.sampled_from([-1, 1]), st.integers(0, 40)))


@st.composite
def intervals(draw):
    a, b = draw(ends), draw(ends)
    return min(a, b), max(a, b)


@given(intervals(), st.lists(points, max_size=6))
@example((F(1, 3), F(1, 3)), [F(1, 3), Q2(F(1, 3), F(1, 64))])
@example((F(-1, 2), F(1, 2)), [F(-1, 2), -Q2.sqrt2_scaled(3), F(1, 2)])
def test_interval_matches_fraction_reference(ends_, xs):
    lo, hi = ends_
    new, ref = DyadicInterval(lo, hi), RefInterval(lo, hi)
    same_interval(new, ref)
    for x in xs + [lo, hi, (lo + hi) / 2]:
        assert new.contains(x) == ref.contains(x)
        assert new.contains_interior(x) == ref.contains_interior(x)


@settings(deadline=None)  # the widest draws build four grids of 4k points
@given(intervals(), st.integers(0, 9))
@example((F(1, 3), F(1, 3)), 0)        # degenerate, off the grid
@example((F(1, 3), F(2, 5)), 2)        # no grid point inside
@example((F(-3, 8), F(-1, 8)), 3)      # negative ends on the grid
@example((F(2, 7), F(5, 9)), 4)        # non-dyadic ends
def test_grid_halve_and_cap_match_fraction_reference(ends_, n):
    lo, hi = ends_
    new, ref = DyadicInterval(lo, hi), RefInterval(lo, hi)
    grid = rational_grid(new, n)
    assert grid == ref_rational_grid(ref, n)
    assert all(type(g) is F for g in grid)
    assert grid_q2(new, n) == [Q2.of(g) for g in grid]
    assert grid_depth_cap(new) == ref_grid_depth_cap(ref)
    if lo == hi:
        with pytest.raises(DegenerateInterval) as got:
            halve(new)
        assert str(got.value) == "cannot halve the degenerate interval %s" % (ref,)
    else:
        for h, r in zip(halve(new), ref_halve(ref)):
            same_interval(h, r)


def test_pinned_grid_edges():
    assert rational_grid(DyadicInterval(F(1, 3), F(1, 3)), 0) == [F(1, 3)]
    assert rational_grid(DyadicInterval(F(1, 3), F(2, 5)), 1) == [F(1, 3), F(2, 5)]
    assert rational_grid(DyadicInterval(F(-3, 4), F(-1, 3)), 1) == [F(-3, 4), F(-1, 2), F(-1, 3)]
    assert rational_grid(DyadicInterval(F(1, 2), F(1, 2)), 3) == [F(1, 2)]


@given(rationals, st.integers(0, 12))
@example(F(0), 1)          # negative lower end
@example(F(-5, 3), 2)      # negative, non-dyadic centre
@example(F(1, 3), 2)
def test_ball_matches_fraction_reference(x, k):
    same_interval(ball(x, k), ref_ball(x, k))


@given(st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=96),
                 st.builds(lambda a, s, k: Q2(a, F(s, 1 << k)),
                           st.fractions(min_value=F(1, 4), max_value=F(3, 4), max_denominator=32),
                           st.sampled_from([-1, 1]), st.integers(3, 40))),
       st.integers(0, 14))
def test_ball_clipped_matches_fraction_reference(x, e):
    same_interval(_ball_clipped(x, e), ref_ball_clipped(x, e))


@given(intervals(), intervals(), rationals, st.integers(0, 30), st.lists(points, max_size=4))
@example((F(1, 3), F(1, 2)), (F(-1, 6), F(1, 10)), F(-2, 3), 4, [])
def test_bracket_matches_fraction_reference(a, b, c, k, xs):
    x, y = Bracket(*a), Bracket(*b)
    rx, ry = RefBracket(*a), RefBracket(*b)
    same_bracket(x, rx)
    same_bracket(x + y, rx + ry)
    same_bracket(x - y, rx - ry)
    same_bracket(-x, -rx)
    same_bracket(x.scale(c), rx.scale(c))
    same_bracket(x.join_max(y), rx.join_max(ry))
    same_bracket(x.join_min(y), rx.join_min(ry))
    same_bracket(Bracket.point(c), RefBracket(c, c))
    same_interval(x.to_interval(), RefInterval(*a))
    for v in xs + [a[0], a[1], c]:
        assert x.contains(v) == rx.contains(v)
        same_bracket(Bracket.of_q2(v, k), RefBracket.of_q2(v, k))


def test_equality_holds_within_one_class():
    assert DyadicInterval(0, 1) != Bracket(0, 1) and Bracket(0, 1) != DyadicInterval(0, 1)
    assert DyadicInterval(F(2, 4), 1) == DyadicInterval(F(1, 2), F(2, 2))
    assert len({DyadicInterval(0, 1), DyadicInterval(F(0), F(4, 4)), Bracket(0, 1)}) == 2
    with pytest.raises(ValueError, match=r"interval endpoints out of order: \[1, 1/2\]"):
        DyadicInterval(1, F(1, 2))
    with pytest.raises(ValueError, match=r"bracket out of order: \[1/3, -1\]"):
        Bracket(F(1, 3), -1)
    with pytest.raises(AttributeError):
        DyadicInterval(0, 1).lower = F(1, 2)


def test_subinterval_checks_its_ends_on_the_integers():
    """`_subinterval(p, q)` is `DyadicInterval(p, q)` for 0 <= p < q <= 1 and
    refuses any other ends; it builds no `Fraction` of its own."""
    ends = [0, 1, F(1, 3), F(1, 2), F(2, 4), F(2, 3), F(-1, 4), F(5, 4)]
    for p in ends:
        for q in ends:
            if 0 <= p < q <= 1:
                assert _subinterval(p, q) == DyadicInterval(p, q)
            else:
                with pytest.raises(ValueError, match="need rational endpoints 0 <= p < q <= 1"):
                    _subinterval(p, q)
    with pytest.raises(TypeError, match="float"):
        _subinterval(0.25, 1)
    assert fraction_news(lambda: [_subinterval(p, q) for p in ends[:4] for q in ends[3:6]
                                  if p < q]) == 0


# --- no Fraction on the interval path ------------------------------------------------


def test_interval_paths_build_no_fraction():
    half, third, unit = F(1, 2), F(1, 3), DyadicInterval(0, 1)
    ivs = [DyadicInterval(0, 1), DyadicInterval(third, F(3, 4)), DyadicInterval(F(-1, 4), half),
           DyadicInterval(F(5, 8), F(5, 8)), DyadicInterval(F(7, 8), F(3, 2))]
    xs = [Q2(0), Q2(third), Q2(F(5, 8)), Q2.sqrt2_scaled(0), Q2(half, F(-1, 64)), Q2(2)]
    bs = [Bracket(third, half), Bracket(F(-1, 8), F(5, 16)), Bracket(1, 1)]
    f = linear(half, third)
    # the constructors read their Fraction arguments, so build them first
    args = [(iv, x) for iv in ivs for x in xs]

    def ops():
        for iv, x in args:
            iv.contains(x), iv.contains_interior(x)
        for iv in ivs:
            grid_depth_cap(iv)
            if iv.ln != iv.un:
                halve(iv)
            if iv.ln <= iv.d and iv.un >= 0:
                _clip_unit(iv)
        ball(half, 3), ball(third, 0), ball(-1, 5)
        for x in xs[:5]:
            _ball_clipped(x, 4)
        for a in bs:
            for b in bs:
                a + b, a - b
            -a, a.contains(xs[4]), a.contains(xs[1])
        for x in xs:
            Bracket.of_q2(x, 20)
        f.range_on(ivs[3], 8)  # the degenerate check
        unit.contains(xs[3])
    assert fraction_news(lambda: F(1, 3)) == 1  # the counter sees a Fraction
    assert fraction_news(ops) == 0
