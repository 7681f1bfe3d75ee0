"""The closed symbolic universe of function families on [0,1].

Every family evaluates exactly over Q(sqrt2) and carries:
  * class tags (witnessed by the test suite, never just asserted),
  * structural collapse certificates where a rational-quantifier collapse is
    valid for reasons the class tags alone cannot see (Thomae),
  * exact interval ranges, punctured cluster bounds and one-sided limits,
    which is what makes honest oracle simulation possible at all.

Functions outside this universe are deliberately not accepted: there is no
sound way to simulate number-quantifier oracles against a black box.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

from .errors import (ConstructionError, DomainError, FuelExhausted, NotPointwiseEvaluable,
                     RepresentationInsufficient, UnsupportedVariant)
from .exact import (Bracket, DyadicInterval, Q2, Truth, _in_unit, _least_denominator,
                    _ratio, _rational, _reduced, _sign_int, grid_depth_cap, grid_q2,
                    grid_span, halve, rational_grid)
from .sets import ComplementOfR2Open, CountableSet, band_of, tilde_set

# class tags (vocabulary fixed by the glossary of notions in play)
CONTINUOUS = "continuous"
QUASI_CONTINUOUS = "quasi-continuous"
CLIQUISH = "cliquish"
SIMPLY_CONTINUOUS = "simply-continuous"
USCO = "usco"
LSCO = "lsco"
BV = "BV"
NORMALISED_BV = "normalised-BV"
REGULATED = "regulated"
BAIRE1 = "Baire-1"

ALL_TAGS = frozenset({CONTINUOUS, QUASI_CONTINUOUS, CLIQUISH, SIMPLY_CONTINUOUS,
                      USCO, LSCO, BV, NORMALISED_BV, REGULATED, BAIRE1})

# structural collapse certificates: the named rational collapse is valid for
# this particular function even though its tags alone would not grant it
CERT_SUP = "sup-collapses-to-rationals"
CERT_INF = "inf-collapses-to-rationals"
CERT_OSC = "oscillation-collapses-to-rationals"

_ZERO = Bracket.point(0)  # brackets are immutable, so one zero serves all
_Q0, _Q1 = Q2.of(0), Q2.of(1)  # and so are Q2s: the ends of [0,1]

# The unit dyadics 2^-(n+1), the spike values, as `Fraction` and as exact
# `Bracket`: entry n of each table.  They grow on demand to the largest
# index asked for, below the cap; past it a value is built afresh.
_UNIT_DYADIC_CAP = 1024
_UNIT_FRACTIONS: list[Fraction] = []
_UNIT_BRACKETS: list[Bracket] = []


def _grow_unit_dyadics(n: int) -> None:
    for i in range(len(_UNIT_FRACTIONS), n + 1):
        _UNIT_FRACTIONS.append(Fraction(1, 2 << i))
        _UNIT_BRACKETS.append(Bracket.of_ints(1, 1, 2 << i))


def unit_dyadic(n: int) -> Fraction:
    """2^-(n+1), from the shared table for 0 <= n below the cap."""
    if 0 <= n < len(_UNIT_FRACTIONS):
        return _UNIT_FRACTIONS[n]
    if 0 <= n < _UNIT_DYADIC_CAP:
        _grow_unit_dyadics(n)
        return _UNIT_FRACTIONS[n]
    return Fraction(1, 1 << (n + 1))


def unit_dyadic_bracket(n: int) -> Bracket:
    """The exact bracket of 2^-(n+1), n >= 0, from the shared table below
    the cap."""
    if n < len(_UNIT_BRACKETS):
        return _UNIT_BRACKETS[n]
    if n < _UNIT_DYADIC_CAP:
        _grow_unit_dyadics(n)
        return _UNIT_BRACKETS[n]
    return Bracket.of_ints(1, 1, 2 << n)


def _unit_point(x) -> Q2:
    p = Q2.of(x)
    if not _in_unit(p):
        raise DomainError("point %s outside [0,1]" % (p,))
    return p


def _clip_unit(iv: DyadicInterval) -> DyadicInterval:
    ln, un, d = iv.ln, iv.un, iv.d
    if ln >= 0 and un <= d:
        return iv
    lo, hi = max(ln, 0), min(un, d)
    if lo > hi:
        raise DomainError("interval %s lies outside [0,1]" % (iv,))
    return DyadicInterval.of_ints(lo, hi, d)


def irrational_inside(iv: DyadicInterval) -> Q2:
    """A point of iv that is provably irrational (midpoint + tiny sqrt2)."""
    ln, un, d = iv.ln, iv.un, iv.d
    w = un - ln
    if not w:
        raise ValueError("degenerate interval has no irrational point")
    g = math.gcd(w, d)  # the width in lowest terms is (w/g)/(d/g)
    j = max(2, ((d // g).bit_length() - (w // g).bit_length()) + 3)
    # midpoint + sqrt2/2^j > upper  iff  2d sqrt2 > w 2^j
    while _sign_int(-w << j, 2 * d) > 0:
        j += 1
    return _reduced((ln + un) << j, 2 * d, 2 * d << j)


class Poly:
    """Polynomial with rational coefficients, degree at most 2, so every
    extremum is rational and interval ranges are exact.

    Invariant: the coefficients are integer numerators n0, n1, n2 over one
    denominator d > 0 with gcd(n0, n1, n2, d) = 1, so equal polynomials have
    equal integers, and the vertex of a quadratic is computed once, as a
    `Q2`, when the polynomial is built.  An evaluation at a rational or
    Q(sqrt2) point works on those integers and reduces once."""

    __slots__ = ("n0", "n1", "n2", "d", "_vertex")

    def __init__(self, c0, c1=0, c2=0):
        (n0, d0), (n1, d1), (n2, d2) = _ratio(c0), _ratio(c1), _ratio(c2)
        d = math.lcm(d0, d1, d2)
        self.n0, self.n1, self.n2, self.d = n0 * (d // d0), n1 * (d // d1), n2 * (d // d2), d
        self._vertex = _vertex_of(self.n1, self.n2) if n2 else None

    def __call__(self, x) -> Q2:
        x = Q2.of(x)
        p, q, e = x.p, x.q, x.d
        n0, n1, n2 = self.n0, self.n1, self.n2
        if not n2:
            if not n1:  # n0/d is in lowest terms already
                v = object.__new__(Q2)
                v.p, v.q, v.d = n0, 0, self.d
                return v
            return _reduced(n0 * e + n1 * p, n1 * q, self.d * e)
        # (n0 e^2 + n1 e x + n2 (e x)^2) / (d e^2), with e x = p + q sqrt2
        if not q:
            return _reduced((n2 * p + n1 * e) * p + n0 * e * e, 0, self.d * e * e)
        return _reduced((n2 * p + n1 * e) * p + 2 * n2 * q * q + n0 * e * e,
                        (2 * n2 * p + n1 * e) * q, self.d * e * e)

    @property
    def is_constant(self) -> bool:
        return not self.n1 and not self.n2

    def vertex(self) -> Optional[Fraction]:
        v = self._vertex
        return None if v is None else v.as_rational()

    def range_on(self, lo: Q2, hi: Q2) -> tuple[Q2, Q2]:
        """Exact (min, max) over the closed interval [lo, hi]."""
        a, b = self(lo), self(hi)
        if b < a:
            a, b = b, a
        v = self._vertex
        if v is not None and lo < v < hi:
            w = self(v)
            if w < a:
                a = w
            elif w > b:
                b = w
        return a, b

    def coeffs(self):
        d = self.d
        return (Fraction(self.n0, d), Fraction(self.n1, d), Fraction(self.n2, d))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.d == other.d and self.n0 == other.n0
                and self.n1 == other.n1 and self.n2 == other.n2)

    def __repr__(self):
        return "Poly(%s, %s, %s)" % self.coeffs()


def _poly_of_ints(n0: int, n1: int, n2: int, d: int) -> Poly:
    """The Poly (n0 + n1 x + n2 x^2)/d for d > 0, brought to lowest terms."""
    g = math.gcd(n0, n1, n2, d)
    x = object.__new__(Poly)
    x.n0, x.n1, x.n2, x.d = n0 // g, n1 // g, n2 // g, d // g
    x._vertex = _vertex_of(x.n1, x.n2) if n2 else None
    return x


def _vertex_of(n1: int, n2: int) -> Q2:
    """The vertex -n1/(2 n2) of a quadratic, n2 != 0."""
    if n2 < 0:
        n1, n2 = -n1, -n2
    return _reduced(-n1, 0, 2 * n2)


class SymbolicFn:
    """Base of the closed variant type; subclasses are the function families."""

    kind = "abstract"
    # (interval integers, inf bracket, sup bracket) of the last `range_on`
    # a threshold question read; see `_witness_via_range`
    _range_memo = None

    def __init__(self, tags, certificates=()):
        bad = set(tags) - ALL_TAGS
        if bad:
            raise ValueError("unknown class tags: %s" % sorted(bad))
        self.tags = frozenset(tags)
        self.certificates = frozenset(certificates)

    # -- evaluation --------------------------------------------------------

    def eval(self, x) -> Q2:
        return self._eval(_unit_point(x))

    def _eval(self, x: Q2) -> Q2:
        raise NotImplementedError

    # -- structural data -----------------------------------------------------

    def _hull(self) -> tuple[Q2, Q2, bool, bool]:
        """(lo, hi, lo_open, hi_open), what the family's structure proves
        about its values: every value on [0,1] lies in [lo, hi], and an end
        marked open is proven never taken.  `range_bound` and
        `is_positive` read it."""
        raise NotImplementedError

    def range_bound(self) -> tuple[Fraction, Fraction]:
        """Rational bounds on the values over [0,1], where value halving
        starts: the hull's ends rounded outward at 2^-8."""
        lo, hi, _, _ = self._hull()
        return Bracket.of_q2(lo, 8).lo, Bracket.of_q2(hi, 8).hi

    def is_positive(self) -> bool:
        """Exact check: f(x) > 0 for every x in [0,1].  The hull's low end
        is above 0, or is 0 and never taken."""
        lo, _, lo_open, _ = self._hull()
        sign = lo.sign()
        return sign > 0 or (sign == 0 and lo_open)

    def range_on(self, iv: DyadicInterval, k: int) -> tuple[Bracket, Bracket]:
        """(inf, sup) brackets over every point of the part of iv inside
        [0,1], each of width at most 2^-k; exact whenever attainable.  A
        single point is read off its value."""
        iv = _clip_unit(iv)
        if iv.ln == iv.un:
            v = Bracket.of_q2(self._eval(_reduced(iv.ln, 0, iv.d)), k)
            return v, v
        return self._range_on(iv, k)

    def _range_on(self, iv: DyadicInterval, k: int) -> tuple[Bracket, Bracket]:
        """`range_on` over a nondegenerate subinterval of [0,1]."""
        raise NotImplementedError

    def special_points(self, iv: DyadicInterval, depth: int) -> list[Q2]:
        """Structure-revealing probe points inside iv (members, breakpoints,
        vertices); depth caps enumeration indices."""
        return []

    def one_sided_limit(self, x, side: int, k: int) -> Optional[Bracket]:
        """Bracket of f(x+) (side=+1) or f(x-) (side=-1); None when the point
        has no approach from that side within [0,1] or no limit exists."""
        p = _unit_point(x)
        if (p <= 0 and side < 0) or (p >= 1 and side > 0):
            return None
        return self._one_sided_limit(p, side, k)

    def _one_sided_limit(self, p: Q2, side: int, k: int) -> Optional[Bracket]:
        """`one_sided_limit` at a point of [0,1] approached from that side."""
        raise UnsupportedVariant("%s has no one-sided limit data" % self.kind)

    def cluster_bounds(self, x, k: int) -> tuple[Bracket, Bracket]:
        """Brackets of the punctured liminf and limsup of f at x."""
        sides = []
        for side in (-1, 1):
            b = self.one_sided_limit(x, side, k)
            if b is not None:
                sides.append(b)
        if not sides:
            raise UnsupportedVariant("no approach side at %s" % (x,))
        li, ls = sides[0], sides[0]
        for b in sides[1:]:
            li = li.join_min(b)
            ls = ls.join_max(b)
        return li, ls

    def jump_candidates(self, limit: int) -> list[Q2]:
        return []

    def grid_max(self, iv: DyadicInterval, depth: int) -> Optional[Fraction]:
        """Exact max of f over rational_grid(iv, depth), read off the
        family's structure without visiting every grid point; None asks the
        caller for the plain scan."""
        return None

    # -- exact existential witnesses ----------------------------------------

    def witness_above(self, iv, y):
        """Decide (exactly where possible) whether some point of the part of
        iv inside [0,1] has value strictly above y; returns (Truth, witness
        point or None).

        A single point is decided from its exact value, and a YES carries
        it.  Otherwise the answer is decided from `range_on`, which gives no
        point, so a YES carries the witness None here; families that locate
        their witness directly (the spike families, Thomae) return it.  A
        caller that needs a point runs `oracle.mu_search` on
        `ExistsValueAbove`: that search is bounded by its fuel and ends in
        `FuelExhausted`."""
        return self._witness(iv, y, above=True)

    def witness_below(self, iv, y):
        """The mirror of `witness_above` for a value strictly below y."""
        return self._witness(iv, y, above=False)

    def _witness(self, iv, y, above):
        iv = _clip_unit(iv)
        y = _rational(y)
        if iv.ln == iv.un:
            p = _reduced(iv.ln, 0, iv.d)
            v = self._eval(p)
            return (Truth.YES, p) if (v > y if above else v < y) else (Truth.NO, None)
        return self._witness_above(iv, y) if above else self._witness_below(iv, y)

    def _witness_above(self, iv: DyadicInterval, y: Fraction):
        """`witness_above` over a nondegenerate subinterval of [0,1]."""
        return self._witness_via_range(iv, y, above=True)

    def _witness_below(self, iv: DyadicInterval, y: Fraction):
        """`witness_below` over a nondegenerate subinterval of [0,1]."""
        return self._witness_via_range(iv, y, above=False)

    def _witness_via_range(self, iv, y, above):
        """Decide from the range bracket the side needs (the sup above, the
        inf below).  The last interval's brackets are kept, so the thresholds
        of one halving run call `range_on` once when that bracket is exact;
        an inexact one is asked again at each threshold's precision."""
        yn, yd = y.as_integer_ratio()
        prec = max(8, yd.bit_length() + 4)
        key = (iv.ln, iv.un, iv.d)
        # retry finer once: a quadratic-irrational extremum sits at distance
        # at least ~1/denominator(y)^2 from y, so doubling the bits decides
        for attempt in range(2):
            memo = self._range_memo
            if memo is None or memo[0] != key or not memo[2 if above else 1].exact:
                memo = self._range_memo = key, *self.range_on(iv, prec)
            _, inf_b, sup_b = memo
            target = sup_b if above else inf_b
            # the signs of lo - y and hi - y, on the integers
            lo = target.ln * yd - yn * target.d
            hi = target.un * yd - yn * target.d
            if above:
                if hi <= 0:
                    return Truth.NO, None
                if lo > 0:
                    return Truth.YES, None
            else:
                if lo >= 0:
                    return Truth.NO, None
                if hi < 0:
                    return Truth.YES, None
            prec = 2 * prec + 16
        return Truth.UNKNOWN, None

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return "<%s tags={%s}>" % (self.kind, ",".join(sorted(self.tags)))


def _eval_rat(f: SymbolicFn, x: Fraction) -> Fraction:
    v = f.eval(Q2.of(x))
    return v.as_rational() if v.is_rational else v.approx(80)


def _ends_max(f: SymbolicFn, iv: DyadicInterval) -> Fraction:
    """Larger value at the two ends of iv, which every grid includes."""
    return max(_eval_rat(f, iv.lower), _eval_rat(f, iv.upper))


def probe_points(f: SymbolicFn, iv: DyadicInterval, depth: int) -> list[Q2]:
    """Deterministic probe basis: dyadic grid of iv at `depth`, interval
    endpoints, and the function's own special points, sorted ascending.  iv
    is read on its part inside [0,1], as `range_on` reads it.  The grid is
    already strictly increasing, so only the special points are sorted and
    merged into it."""
    iv = _clip_unit(iv)
    grid = grid_q2(iv, depth)
    out, i = [], 0
    for p in sorted(map(Q2.of, f.special_points(iv, depth))):
        j = bisect_left(grid, p, i)
        out += grid[i:j]
        i = j
        if not (j < len(grid) and grid[j] == p or out and out[-1] == p):
            out.append(p)
    return out + grid[i:]


# ---------------------------------------------------------------------------
# piecewise rational functions
# ---------------------------------------------------------------------------


class PiecewiseRational(SymbolicFn):
    """Finitely many polynomial pieces on (cut_i, cut_{i+1}) with an explicit
    value at every cut; cut_0 = 0 and cut_m = 1.

    The breakpoint table is built once: `sides[i]` is (left limit, value,
    right limit) at cut i, a side off [0,1] being None, and `critical` holds
    the cuts and each vertex strictly inside its own piece, ascending."""

    kind = "piecewise"

    def __init__(self, cuts, pieces, bp_values):
        self.cuts = cuts = tuple(map(Q2.of, cuts))
        self.pieces = pieces = tuple(pieces)
        self.bp_values = values = tuple(map(Q2.of, bp_values))
        m = len(cuts)
        if m < 2 or cuts[0] != _Q0 or cuts[-1] != _Q1:
            raise ConstructionError("cuts must run from 0 to 1")
        shaped = len(pieces) == m - 1 and len(values) == m
        sides, critical = [], []
        # some limit above its value (not usco), below it (not lsco), a value
        # off every side it has (not quasi-continuous), a right limit off its
        # value (not cadlag): each limit is compared with its value once
        up = down = split = jump = False
        left = None
        for i, c in enumerate(cuts):
            if i and cuts[i - 1]._cmp(c) >= 0:
                raise ConstructionError("cuts must be strictly increasing")
            if not shaped:
                continue
            v, right = values[i], pieces[i] if i < m - 1 else None
            before = after = sl = sr = None
            if left is not None:
                w = left._vertex
                if w is not None and cuts[i - 1] < w < c:
                    critical.append(w)
                before = left(c)
                sl = before._cmp(v)
            critical.append(c)
            if right is not None:
                after = right(c)
                sr = after._cmp(v)
                jump = jump or sr != 0
            sides.append((before, v, after))
            up = up or sl == 1 or sr == 1
            down = down or sl == -1 or sr == -1
            split = split or (sl != 0 and sr != 0)  # a missing side's None counts
            left = right
        if not shaped:
            raise ConstructionError("pieces/values do not match cuts")
        self.sides, self.critical = tuple(sides), tuple(critical)
        tags = {CLIQUISH, SIMPLY_CONTINUOUS, BV, REGULATED, BAIRE1}
        for tag, holds in ((CONTINUOUS, not (up or down)), (QUASI_CONTINUOUS, not split),
                           (USCO, not up), (LSCO, not down),
                           (NORMALISED_BV, not jump and values[0] == _Q0)):
            if holds:
                tags.add(tag)
        super().__init__(tags)

    @staticmethod
    def from_polys(cuts, pieces, policy=None):
        """policy: per-cut entry 'right' | explicit value; defaults to
        'right' (cadlag) at interior cuts, piece limits at 0 and 1."""
        cuts = list(map(Q2.of, cuts))
        if policy is None:
            policy = ["right"] * len(cuts)
        last = len(pieces) - 1
        vals = [pieces[min(i, last)](cuts[i]) if rule == "right" else Q2.of(rule)
                for i, rule in enumerate(policy)]
        return PiecewiseRational(cuts, pieces, vals)

    def _locate(self, x: Q2):
        """('cut', i) or ('piece', j), by bisection on the sorted cuts."""
        cuts = self.cuts
        i = bisect_left(cuts, x)
        if i < len(cuts) and cuts[i] == x:
            return ("cut", i)
        if i == 0 or i == len(cuts):
            raise DomainError("point %s outside [0,1]" % (x,))
        return ("piece", i - 1)

    def _eval(self, x):
        where, i = self._locate(x)
        if where == "cut":
            return self.bp_values[i]
        return self.pieces[i](x)

    def _hull(self):
        # the extremes are among the one-sided limits and the values at the
        # critical points, and are taken only at a critical point or on a
        # constant piece: inside a piece of degree <= 2 only the vertex is one
        taken, limits = list(self.bp_values), []
        for piece, a, b, before, after in zip(self.pieces, self.cuts, self.cuts[1:],
                                              self.sides, self.sides[1:]):
            v = piece._vertex
            if v is not None and a < v < b:
                taken.append(piece(v))
            (taken if piece.is_constant else limits).extend((before[2], after[0]))
        lo, hi = min(taken + limits), max(taken + limits)
        return lo, hi, lo not in taken, hi not in taken

    def _value_candidates(self, iv):
        """The values whose min and max are f's inf and sup on iv: each
        piece's range on its part of iv and the value at each cut in iv.
        Only the pieces and cuts that meet iv are visited, found by
        bisection on the cuts."""
        lo, hi = _reduced(iv.ln, 0, iv.d), _reduced(iv.un, 0, iv.d)
        cuts, pieces = self.cuts, self.pieces
        first, stop = bisect_left(cuts, lo), bisect_right(cuts, hi)
        vals = list(self.bp_values[first:stop])
        # piece j meets (lo, hi) iff cuts[j] < hi and cuts[j + 1] > lo: from
        # the last cut at or below lo to the last cut below hi
        start = first if cuts[first] == lo else first - 1
        last = stop - 2 if cuts[stop - 1] == hi else stop - 1
        for j in range(start, last + 1):
            piece = pieces[j]
            if piece.is_constant:  # its value is its right limit at cuts[j]
                w = self.sides[j][2]
                vals += (w, w)
                continue
            a, b = cuts[j], cuts[j + 1]
            vals.extend(piece.range_on(lo if lo > a else a, hi if hi < b else b))
        return vals

    def _range_on(self, iv, k):
        vals = self._value_candidates(iv)
        lo = hi = vals[0]
        for v in vals:
            if v._cmp(lo) < 0:
                lo = v
            elif v._cmp(hi) > 0:
                hi = v
        return Bracket.of_q2(lo, k), Bracket.of_q2(hi, k)

    def special_points(self, iv, depth):
        return [p for p in self.critical if iv.contains(p)]

    def _one_sided_limit(self, p, side, k):
        where, i = self._locate(p)
        if where == "cut":
            val = self.sides[i][0 if side < 0 else 2]
        else:
            val = self.pieces[i](p)
        return Bracket.of_q2(val, k)

    def jump_candidates(self, limit):
        return [c for c, (left, _, right) in zip(self.cuts[1:-1], self.sides[1:-1])
                if left != right][:limit]

    def grid_max(self, iv, depth):
        # a piece attains its grid max next to a cut, a vertex or an end
        step = Fraction(1, 1 << depth)
        marks = [iv.lower, iv.upper]
        for p in self.special_points(iv, depth):
            marks.append(p.as_rational() if p.is_rational else p.approx(depth + 4))
        candidates = set(rational_grid(iv, min(depth, 4)))
        for mark in marks:
            base = math.floor(mark / step)
            for i in (base - 1, base, base + 1, base + 2):
                g = step * i
                if iv.lower <= g <= iv.upper:
                    candidates.add(g)
        return max(_ends_max(self, iv), max(_eval_rat(self, g) for g in candidates))


def constant(c) -> PiecewiseRational:
    v = Q2.of(c)
    if not v.is_rational:
        raise ConstructionError("constant %s is irrational; Poly coefficients "
                                "are rational" % (v,))
    return PiecewiseRational((_Q0, _Q1), [Poly(v.as_rational())], [v, v])


def linear(slope, intercept=0) -> PiecewiseRational:
    p = Poly(intercept, slope)
    return PiecewiseRational((_Q0, _Q1), [p], [p(_Q0), p(_Q1)])


def staircase(jumps) -> PiecewiseRational:
    """Cadlag step function: value 0 on [0, first jump), then each
    (pos, value) in order.  Its value at a cut is the level the cut starts,
    and at 1 the last level."""
    cuts, pieces, values = [_Q0], [Poly(0)], [_Q0]
    for pos, value in jumps:
        cuts.append(Q2.of(pos))
        pieces.append(Poly(value))
        values.append(Q2.of(value))
    cuts.append(_Q1)
    values.append(values[-1])
    return PiecewiseRational(cuts, pieces, values)


# ---------------------------------------------------------------------------
# the spike families
# ---------------------------------------------------------------------------


class Thomae(SymbolicFn):
    """1/q at reduced p/q, 0 at irrationals.  Cliquish and usco but not
    quasi-continuous; carries structural certificates because its suprema,
    infima and oscillation are nevertheless decided by rational data."""

    kind = "thomae"

    def __init__(self):
        super().__init__({CLIQUISH, USCO, REGULATED, BAIRE1},
                         {CERT_SUP, CERT_INF, CERT_OSC})

    def _eval(self, x):
        if not x.is_rational:
            return Q2.of(0)
        return Q2.of(Fraction(1, x.as_rational().denominator))

    def _hull(self):
        return Q2.of(0), Q2.of(1), False, False

    def min_denominator_in(self, iv: DyadicInterval, cap: int) -> Optional[tuple[Fraction, int]]:
        """(point, q) for the smallest denominator q <= cap with some reduced
        p/q in iv cap [0,1] (the least such p); None if there is none up to
        cap.  The walk of `exact._least_denominator` finds it in O(log)
        steps."""
        lo, hi, d = max(iv.ln, 0), min(iv.un, iv.d), iv.d
        if lo > hi:
            return None
        p, q = _least_denominator(lo, d, hi, d)
        return (Fraction(p, q), q) if q <= cap else None

    def _range_on(self, iv, k):
        # infimum: rational values 1/q get arbitrarily small, irrationals give 0
        inf_b = _ZERO
        cap = 1 << (k + 2)
        hit = self.min_denominator_in(iv, cap)
        if hit is None:
            sup_b = Bracket(Fraction(0), Fraction(1, cap))
        else:
            sup_b = Bracket.point(Fraction(1, hit[1]))
        return inf_b, sup_b

    def _witness_above(self, iv, y):
        if y <= 0:
            # every rational has a positive value, and endpoints are rational
            return Truth.YES, Q2.of(iv.lower)
        if y >= 1:
            return Truth.NO, None
        cap = int(1 / y)
        hit = self.min_denominator_in(iv, cap)
        if hit is not None and Fraction(1, hit[1]) > y:
            return Truth.YES, Q2.of(hit[0])
        return Truth.NO, None  # all spikes above y were enumerated

    def _witness_below(self, iv, y):
        if y <= 0:
            return Truth.NO, None
        return Truth.YES, irrational_inside(iv)

    def special_points(self, iv, depth):
        # spikes with denominator up to depth (the grid supplies dyadics)
        out = []
        for q in range(1, max(2, depth) + 1):
            lo = max(-(-iv.ln * q // iv.d), 0)
            hi = min(iv.un * q // iv.d, q)
            for p in range(lo, hi + 1):
                if math.gcd(p, q) == 1:
                    out.append(_reduced(p, 0, q))
        return out

    def grid_max(self, iv, depth):
        # the first dyadic level with a multiple inside wins: T there is 2^-j
        for j in range(depth + 1):
            first, last = grid_span(iv, j)
            if first <= last:
                return max(_ends_max(self, iv), Fraction(1, 1 << j))
        return _ends_max(self, iv)

    def _one_sided_limit(self, p, side, k):
        return _ZERO


class _SpikeFamily(SymbolicFn):
    """Shared machinery for families that are 0 (or a base value) off a
    countable set and assign index-determined values on it.

    Off the set each family is constant, or (cover-psi-usco) nondecreasing
    on (0,1] and largest at 0, so the off-set values on any grid peak at an
    end of the interval: `grid_max` relies on it.

    Spikes sit at the members of `a_set` with index in the window [start,
    stop) (stop None: unbounded).  A banded family's `a_set` is the banded
    copy of its seed set `source`: member n is its one point in band n."""

    start = 0
    stop: Optional[int] = None
    banded = False

    def __init__(self, source: CountableSet, tags):
        self.source = source
        self.a_set = tilde_set(source) if self.banded else source
        super().__init__(tags)

    @staticmethod
    def spike_value(n: int) -> Fraction:
        raise NotImplementedError

    def spikes_in(self, iv: DyadicInterval, limit: int):
        """The spikes in iv with index below limit, in index order."""
        if self.stop is not None:
            limit = min(limit, self.stop)
        return self.a_set.members_in(iv, limit, self.start)

    def special_points(self, iv, depth):
        return [p for _, p in self.spikes_in(iv, max(depth, 8))]

    def grid_max(self, iv, depth):
        best = _ends_max(self, iv)
        if self.a_set.all_irrational:
            return best  # no member lies on a rational grid
        if self.a_set.size is None:
            return None
        for n, p in self.spikes_in(iv, self.a_set.size):
            if p.is_rational and not (1 << depth) % p.d:
                best = max(best, self.spike_value(n))
        return best


def _window_index(name: str, n) -> int:
    """n, refused unless it is an int >= 0: an end of a spike window."""
    if type(n) is not int:
        raise TypeError("%r %r refused: a spike index takes int" % (name, n))
    if n < 0:
        raise ConstructionError("%r must be >= 0, got %d" % (name, n))
    return n


class Penny(_SpikeFamily):
    """Value 1/2^(Y(x)+1) on the seed set, 0 elsewhere: the canonical
    adversarial instance.  Equal to its own oscillation function.

    Spikes of index below `start` are stripped, as the sup-functional
    reduction strips each maximum it has located.  The truncated and banded
    variants only close the window or band the seed set.  A scan's first
    hit is the largest spike, and a bounded window is scanned whole, so
    every answer over it is exact."""

    kind = "penny"
    TAGS = frozenset({CLIQUISH, USCO, BV, REGULATED, BAIRE1})

    def __init__(self, a_set: CountableSet, start: int = 0):
        if a_set.size == 0:
            raise ConstructionError("seed set must be nonempty")
        self.start = _window_index("start", start)
        super().__init__(a_set, self.TAGS)

    spike_value = staticmethod(unit_dyadic)

    @staticmethod
    def spikes_above(y: Fraction) -> int:
        """For y > 0, how many leading indices carry a spike above y: the
        least n with 2^-(n+1) <= y, which is the band of y."""
        return band_of(min(y, 1), half_open=False)

    def _eval(self, x):
        n = self.a_set.index_of(x)
        if n is None or n < self.start or (self.stop is not None and n >= self.stop):
            return _Q0
        return Q2.of(self.spike_value(n))

    def _hull(self):
        return _Q0, Q2.of(self.spike_value(self.start)), False, False

    def _range_on(self, iv, k):
        # spike n is 1/(2 << n): the brackets are read from the shared table
        limit = max(k + 4, 8) if self.stop is None else self.stop
        hit = self.a_set.first_member_in(iv, limit, self.start)
        if hit is not None:  # index below limit: no later spike reaches it
            return _ZERO, unit_dyadic_bracket(hit[0])
        if self.stop is not None or self.a_set.scan_is_exhaustive(iv, limit):
            return _ZERO, _ZERO
        return _ZERO, Bracket.of_ints(0, 1, 2 << limit)

    def _witness_above(self, iv, y):
        if y < 0:
            return Truth.YES, Q2.of(iv.lower)
        if self.stop is not None:
            limit = self.stop
        elif y > 0:
            limit = self.spikes_above(y)  # no later spike exceeds y
        else:
            limit = 4096  # every spike exceeds 0: a bounded prefix decides
        hit = self.a_set.first_member_in(iv, limit, self.start)
        if hit is not None and self.spike_value(hit[0]) > y:
            return Truth.YES, hit[1]
        if self.stop is not None or y > 0 or self.a_set.scan_is_exhaustive(iv, limit):
            return Truth.NO, None
        return Truth.UNKNOWN, None

    def _witness_below(self, iv, y):
        if y <= 0:
            return Truth.NO, None
        # any off-set point evaluates to 0 < y: bounded dyadic grids, then an
        # irrational point (the seed set may hold every dyadic rational).
        # Grid d holds grid d - 1, so past the first depth only the odd
        # multiples of 2^-d are new.
        index_of = self.a_set.index_of
        for p in grid_q2(iv, 2):
            if index_of(p) is None:
                return Truth.YES, p
        for d in range(3, grid_depth_cap(iv) + 1):
            first, last = grid_span(iv, d)
            for j in range(first | 1, last + 1, 2):
                p = _reduced(j, 0, 1 << d)
                if index_of(p) is None:
                    return Truth.YES, p
        p = irrational_inside(iv)
        return (Truth.YES, p) if index_of(p) is None else (Truth.UNKNOWN, None)

    def _one_sided_limit(self, p, side, k):
        return _ZERO


class PennyK(Penny):
    """The index-truncated variant: spikes only up to index cutoff."""

    kind = "pennyk"

    def __init__(self, a_set: CountableSet, cutoff: int):
        self.cutoff = _window_index("cutoff", cutoff)
        super().__init__(a_set)
        self.stop = cutoff + 1


class TildePenny(Penny):
    """The banded copy's spike function: value 2^-(n+1) at the band-n member
    of the shifted set, 0 elsewhere.  Simply continuous."""

    kind = "tilde-penny"
    banded = True
    TAGS = Penny.TAGS | {SIMPLY_CONTINUOUS}


class CoverPsi(_SpikeFamily):
    """The cliquish covering instance: 2^-(n+5) at the band-n member of the
    banded copy, 1/8 everywhere else.  Positive, but any ball multiset centred
    on the copy (plus 0) has total length below 1."""

    kind = "cover-psi"
    banded = True

    def __init__(self, a_set: CountableSet):
        tags = {CLIQUISH}
        if a_set.size is not None:
            tags |= {BV, REGULATED, BAIRE1, LSCO}
        super().__init__(a_set, tags)

    @staticmethod
    def spike_value(n):
        return Fraction(1, 1 << (n + 5))

    BASE = Fraction(1, 8)

    def _eval(self, x):
        n = self.a_set.index_of(x)
        return Q2.of(self.BASE) if n is None else Q2.of(self.spike_value(n))

    def _hull(self):
        size = self.a_set.size
        if size is None:
            return Q2.of(0), Q2.of(self.BASE), True, False  # spikes shrink to 0
        return Q2.of(self.spike_value(size - 1)), Q2.of(self.BASE), False, False

    def _range_on(self, iv, k):
        # member n lies in band n, so none past the band of iv's lower end
        # lies in iv; the spike values fall with the index
        base = Bracket.point(self.BASE)
        bottom = band_of(iv.lower, half_open=False)
        if bottom is None and self.a_set.size is None:
            return _ZERO, base  # spike values decrease to 0 near 0
        spikes = self.spikes_in(iv, self.a_set.size if bottom is None else bottom + 1)
        return (Bracket.point(self.spike_value(spikes[-1][0])) if spikes else base), base

    def _one_sided_limit(self, p, side, k):
        if p == 0 and side > 0 and self.a_set.size is None:
            return None  # values oscillate between 1/8 and the vanishing spikes
        return Bracket.point(self.BASE)

    def cluster_bounds(self, x, k):
        p = Q2.of(x)
        if p == 0 and self.a_set.size is None:
            return _ZERO, Bracket.point(self.BASE)
        return super().cluster_bounds(x, k)


class CoverPsiUsco(_SpikeFamily):
    """The usco modification of the covering instance: 2^-(n+5) on the banded
    copy, 2^-(n+6) elsewhere in band n, 2^-6 at 0 (any positive value keeps
    usco there; band boundaries take the larger-value band)."""

    kind = "cover-psi-usco"
    banded = True

    ZERO_VALUE = Fraction(1, 64)

    def __init__(self, a_set: CountableSet):
        super().__init__(a_set, {USCO, CLIQUISH, BV, REGULATED})

    spike_value = staticmethod(CoverPsi.spike_value)

    @staticmethod
    def band_value(n):
        return Fraction(1, 1 << (n + 6))

    def _eval(self, x):
        n = self.a_set.index_of(x)
        if n is not None:
            return Q2.of(self.spike_value(n))
        m = band_of(x, half_open=False)
        if m is None:
            return Q2.of(self.ZERO_VALUE)  # x == 0
        return Q2.of(self.band_value(m))

    def _hull(self):
        return Q2.of(0), Q2.of(self.spike_value(0)), True, False  # band values shrink to 0

    def _range_on(self, iv, k):
        # the bands from upper's down to lower's, at most cap + 1 of them;
        # member n of the banded copy is the only point of it in band n
        first = band_of(iv.upper, half_open=False)
        last = first + max(k + 6, 8)
        bottom = band_of(iv.lower, half_open=False)
        vals = [self.ZERO_VALUE] if bottom is None else []
        size = self.a_set.size
        for n in range(first, last + 1 if bottom is None else min(last, bottom) + 1):
            band_iv = DyadicInterval.of_ints(max(iv.ln << (n + 1), iv.d),
                                         min(iv.un << (n + 1), 2 * iv.d), iv.d << (n + 1))
            member_here = (size is None or n < size) and band_iv.contains(self.a_set.member(n))
            if band_iv.ln < band_iv.un or not member_here:
                vals.append(self.band_value(n))
            if member_here:
                vals.append(self.spike_value(n))
        sup_b = Bracket.point(max(vals))
        if bottom is None:
            inf_b = _ZERO  # band values vanish towards 0
        elif last < bottom:
            inf_b = Bracket(Fraction(0), min(vals))
        else:
            inf_b = Bracket.point(min(vals))
        return inf_b, sup_b

    def _one_sided_limit(self, p, side, k):
        if p == 0:
            return _ZERO
        if p == 1:
            return Bracket.point(self.band_value(0))
        n = band_of(p, half_open=False)
        boundary = (p == Q2.of(Fraction(1, 1 << (n + 1))))
        if boundary and side < 0:
            return Bracket.point(self.band_value(n + 1))
        return Bracket.point(self.band_value(n))

    def jump_candidates(self, limit):
        return [Q2.of(Fraction(1, 1 << (n + 1))) for n in range(limit)]


# ---------------------------------------------------------------------------
# indicators of closed sets
# ---------------------------------------------------------------------------


class Indicator(SymbolicFn):
    """Characteristic function of a closed set: the usco (and cliquish)
    separating function of two disjoint closed sets.

    The set answers through its closed components (a, b), a <= b; a point
    of a finite set is the degenerate component (p, p)."""

    kind = "indicator"

    def __init__(self, closed_set):
        self.closed_set = closed_set
        self.components = closed_set.component_intervals()
        tags = {USCO, CLIQUISH, BV, REGULATED, BAIRE1}
        if all(a < b for a, b in self.components):
            tags.add(QUASI_CONTINUOUS)
        if self.components in ([], [(0, 1)]):
            tags |= {CONTINUOUS, LSCO}
        super().__init__(tags)

    def _eval(self, x):
        return Q2.of(1) if self.closed_set.contains(x) else Q2.of(0)

    def _hull(self):
        lo = 1 if self.components == [(0, 1)] else 0  # the set is all of [0,1]
        hi = 1 if self.components else 0
        return Q2.of(lo), Q2.of(hi), False, False

    def _range_on(self, iv, k):
        meets = [(a, b) for a, b in self.components if a <= iv.upper and b >= iv.lower]
        covered = any(a <= iv.lower and b >= iv.upper for a, b in meets)
        return Bracket.point(1 if covered else 0), Bracket.point(1 if meets else 0)

    def special_points(self, iv, depth):
        return [Q2.of(e) for a, b in self.components for e in (a, b) if iv.contains(e)]

    def _one_sided_limit(self, p, side, k):
        if side > 0:
            inside = any(a <= p and p < b for a, b in self.components)
        else:
            inside = any(a < p and p <= b for a, b in self.components)
        return Bracket.point(1 if inside else 0)

    def jump_candidates(self, limit):
        # a jump sits only at an end of a nondegenerate component
        out = []
        for a, b in self.components:
            if a < b:
                out.extend(Q2.of(e) for e in (a, b) if 0 < e < 1)
        return out[:limit]


# ---------------------------------------------------------------------------
# pointwise limits with representations
# ---------------------------------------------------------------------------


class Baire1Limit(SymbolicFn):
    """A pointwise limit given by its representation: term functions plus an
    optional convergence modulus m(x, j) (terms from index m(x, j) on are
    within 2^-j of the limit) and an optional stabilization witness
    (terms from index s(x) on equal the limit exactly at x).

    Without the modulus the value is not pointwise evaluable; without a
    stabilization witness exact evaluation would be a lie, so it refuses and
    callers use `eval_limit_approx` or the representation-consuming
    algorithms instead.  Built-in constructors always attach both.
    """

    kind = "baire1-limit"

    def __init__(self, terms: Callable[[int], SymbolicFn], conv_modulus=None,
                 stabilizer=None, tags=(BAIRE1,)):
        super().__init__(tags)
        self._terms = terms
        self.conv_modulus = conv_modulus
        self.stabilizer = stabilizer
        self._term_cache: dict[int, SymbolicFn] = {}
        # (interval integers, probe state) of the last interval a
        # `Baire1Above` search asked; built and read by the oracle
        self._probe_memo = None

    def term(self, n: int) -> SymbolicFn:
        got = self._term_cache.get(n)
        if got is None:
            got = self._terms(n)
            self._term_cache[n] = got
        return got

    def _eval(self, x):
        if self.conv_modulus is None:
            raise NotPointwiseEvaluable(
                "pointwise limit is not evaluable without a convergence modulus")
        if self.stabilizer is None:
            raise NotPointwiseEvaluable(
                "exact evaluation needs a stabilization witness; "
                "use eval_limit_approx for a certified approximation")
        n0 = max(0, self.stabilizer(x))
        return self.term(n0)._eval(x)

    def eval_limit_approx(self, x, k: int) -> Fraction:
        """A rational within 2^-k of the limit, via the convergence modulus."""
        if self.conv_modulus is None:
            raise NotPointwiseEvaluable(
                "pointwise limit is not evaluable without a convergence modulus")
        n = max(0, self.conv_modulus(Q2.of(x), k))
        v = self.term(n).eval(x)
        return v.approx(k + 2) if not v.is_rational else v.as_rational()

    def _hull(self):
        # no term of a generic sequence bounds the limit: a bound read off
        # term(0) could exclude every value the limit takes
        raise RepresentationInsufficient(
            "value bounds of a pointwise limit need a representation whose "
            "terms carry them (pennyk_limit, constant_seq_limit)")

    def _range_on(self, iv, k):
        raise UnsupportedVariant(
            "interval ranges of a pointwise limit are consumed through its "
            "representation, not directly")

    def special_points(self, iv, depth):
        return self.term(depth).special_points(iv, depth)

    def witness_depth(self, y: Fraction) -> Optional[int]:
        """The probe depth past which no value above y lies; None: unknown."""
        return None


class PennyKLimit(Baire1Limit):
    """The truncation sequence converging pointwise to the spike function,
    with convergence modulus m(x, j) = j and exact stabilization at the
    member's index."""

    def __init__(self, a_set: CountableSet):
        super().__init__(lambda n: PennyK(a_set, n),
                         conv_modulus=lambda x, j: j,
                         stabilizer=lambda x: a_set.index_of(x) or 0,
                         tags=(CLIQUISH, USCO, BV, REGULATED, BAIRE1))
        self.a_set = a_set

    def _hull(self):
        # every spike value lies in [0, 1/2], so [0, 1] bounds the limit
        return Q2.of(0), Q2.of(1), False, False

    def witness_depth(self, y):
        # depth d carries the spikes up to index d, and none past the
        # spikes above y exceeds it
        return Penny.spikes_above(y) if y > 0 else None


pennyk_limit = PennyKLimit


class ConstantSeqLimit(Baire1Limit):
    """The constant representation of an already-constructed function f:
    every term is f, so the limit is f and f's bounds are its bounds."""

    def __init__(self, f: SymbolicFn):
        super().__init__(lambda n: f,
                         conv_modulus=lambda x, j: 0,
                         stabilizer=lambda x: 0,
                         tags=tuple(f.tags | {BAIRE1}))

    def _hull(self):
        return self.term(0)._hull()

    def _range_on(self, iv, k):
        return self.term(0).range_on(iv, k)


constant_seq_limit = ConstantSeqLimit


def indicator_baire1(open_rep) -> Baire1Limit:
    """Constant-sequence representation of the indicator of a radius-function
    open set (1 - indicator of the closed complement)."""
    ind = fn_sum(constant(1), scalar_multiple(-1, Indicator(ComplementOfR2Open(open_rep))))
    return constant_seq_limit(ind)


# ---------------------------------------------------------------------------
# sums, differences, scalar multiples
# ---------------------------------------------------------------------------


def _merge_piecewise(f: PiecewiseRational, g: PiecewiseRational) -> PiecewiseRational:
    """f + g on the union of their cuts, in one walk over both cut lists: a
    part's value at a cut is read from its table at its own cut and from
    the piece around the cut otherwise."""
    fc, gc = f.cuts, g.cuts
    cuts, pieces, vals = [], [], []
    i = j = 0  # the next cut of f and of g; both lists end at 1
    while True:
        s = fc[i]._cmp(gc[j])
        c = fc[i] if s <= 0 else gc[j]
        cuts.append(c)
        vals.append((f.bp_values[i] if s <= 0 else f.pieces[i - 1](c))
                    + (g.bp_values[j] if s >= 0 else g.pieces[j - 1](c)))
        i, j = i + (s <= 0), j + (s >= 0)
        if i == len(fc):
            return PiecewiseRational(cuts, pieces, vals)
        # the pieces of f and g on (c, next cut) are the ones before their next cuts
        pf, pg = f.pieces[i - 1], g.pieces[j - 1]
        fd, gd = pf.d, pg.d
        pieces.append(_poly_of_ints(pf.n0 * gd + pg.n0 * fd, pf.n1 * gd + pg.n1 * fd,
                                    pf.n2 * gd + pg.n2 * fd, fd * gd))


def fn_sum(f: SymbolicFn, g: SymbolicFn) -> SymbolicFn:
    if isinstance(f, PiecewiseRational) and isinstance(g, PiecewiseRational):
        return _merge_piecewise(f, g)
    return Sum(f, g)


def fn_difference(f: SymbolicFn, g: SymbolicFn) -> SymbolicFn:
    return fn_sum(f, scalar_multiple(-1, g))


def scalar_multiple(c, f: SymbolicFn) -> SymbolicFn:
    if isinstance(f, PiecewiseRational):
        c = _rational(c)
        cn, cd = c.as_integer_ratio()
        pieces = [_poly_of_ints(cn * p.n0, cn * p.n1, cn * p.n2, cd * p.d) for p in f.pieces]
        vals = [v * c for v in f.bp_values]
        return PiecewiseRational(f.cuts, pieces, vals)
    return ScalarMultiple(c, f)


# the cells a sum's `range_on` may halve its interval into before it gives up
_SUM_CELLS = 256


def _sum_tags(tf, tg):
    tags = set()
    for t in (CLIQUISH, BV, REGULATED, BAIRE1, NORMALISED_BV, USCO, LSCO, CONTINUOUS):
        if t in tf and t in tg:
            tags.add(t)
    if CONTINUOUS in tags:
        tags |= {QUASI_CONTINUOUS, SIMPLY_CONTINUOUS}
    elif (QUASI_CONTINUOUS in tf and CONTINUOUS in tg) or (CONTINUOUS in tf and QUASI_CONTINUOUS in tg):
        tags.add(QUASI_CONTINUOUS)
    return tags


class Sum(SymbolicFn):
    kind = "sum"

    def __init__(self, f: SymbolicFn, g: SymbolicFn):
        self.f = f
        self.g = g
        super().__init__(_sum_tags(f.tags, g.tags))

    def _eval(self, x):
        return self.f._eval(x) + self.g._eval(x)

    def _hull(self):
        fl, fh, fl_open, fh_open = self.f._hull()
        gl, gh, gl_open, gh_open = self.g._hull()
        return fl + gl, fh + gh, fl_open or gl_open, fh_open or gh_open

    def _cell(self, iv, k):
        """(iv, inf bracket, sup bracket) of f + g on iv, read off the parts'
        brackets: inf f + inf g <= inf(f + g) <= min(inf f + sup g, sup f +
        inf g), and max(sup f + inf g, inf f + sup g) <= sup(f + g) <= sup f
        + sup g.  So where one part takes a single value, both are within
        2^-k."""
        fi, fs = self.f.range_on(iv, k + 1)
        gi, gs = self.g.range_on(iv, k + 1)
        return (iv, Bracket(fi.lo + gi.lo, min(fi.hi + gs.hi, fs.hi + gi.hi)),
                Bracket(max(fs.lo + gi.lo, fi.lo + gs.lo), fs.hi + gs.hi))

    def _range_on(self, iv, k):
        # branch and bound: while a side is wider than 2^-k, halve the cell
        # that holds its outer end
        width = Fraction(1, 1 << k)
        cells = [self._cell(iv, k)]
        while True:
            inf_b = reduce(Bracket.join_min, (c[1] for c in cells))
            sup_b = reduce(Bracket.join_max, (c[2] for c in cells))
            if inf_b.width > width:
                cell = min(cells, key=lambda c: c[1].lo)
            elif sup_b.width > width:
                cell = max(cells, key=lambda c: c[2].hi)
            else:
                return inf_b, sup_b
            if len(cells) == _SUM_CELLS:
                raise FuelExhausted("the range of a sum is not within 2^-%d after %d cells"
                                    % (k, _SUM_CELLS), best=(inf_b, sup_b))
            cells.remove(cell)
            cells += [self._cell(half, k) for half in halve(cell[0])]

    def special_points(self, iv, depth):
        return self.f.special_points(iv, depth) + self.g.special_points(iv, depth)

    def _one_sided_limit(self, p, side, k):
        a = self.f.one_sided_limit(p, side, k + 1)
        b = self.g.one_sided_limit(p, side, k + 1)
        if a is None or b is None:
            return None
        return a + b

    def jump_candidates(self, limit):
        seen = []
        for p in self.f.jump_candidates(limit) + self.g.jump_candidates(limit):
            if all(p != q for q in seen):
                seen.append(p)
        return sorted(seen)[:limit]


# what a negative factor turns each tag or certificate into
_MIRROR = {USCO: LSCO, LSCO: USCO, CERT_SUP: CERT_INF, CERT_INF: CERT_SUP}


class ScalarMultiple(SymbolicFn):
    kind = "scalar-multiple"

    def __init__(self, c, f: SymbolicFn):
        self.c = _rational(c)
        self.f = f
        if self.c == 0:
            tags, certs = ALL_TAGS, {CERT_SUP, CERT_INF, CERT_OSC}
        else:
            # normalised-BV stays: c*f keeps f(0)=0 and right-continuity
            mirror = _MIRROR if self.c < 0 else {}
            tags = {mirror.get(t, t) for t in f.tags}
            certs = {mirror.get(t, t) for t in f.certificates}
        super().__init__(tags, certs)

    def _eval(self, x):
        return self.f._eval(x) * self.c

    def _hull(self):
        if self.c == 0:
            return Q2.of(0), Q2.of(0), False, False
        lo, hi, lo_open, hi_open = self.f._hull()
        if self.c > 0:
            return lo * self.c, hi * self.c, lo_open, hi_open
        return hi * self.c, lo * self.c, hi_open, lo_open

    def _range_on(self, iv, k):
        extra = max(0, self.c.numerator.bit_length() - self.c.denominator.bit_length() + 1)
        i_b, s_b = self.f.range_on(iv, k + extra)
        i2, s2 = i_b.scale(self.c), s_b.scale(self.c)
        return (i2, s2) if self.c >= 0 else (s2, i2)

    def special_points(self, iv, depth):
        return self.f.special_points(iv, depth)

    def _one_sided_limit(self, p, side, k):
        extra = max(0, self.c.numerator.bit_length() - self.c.denominator.bit_length() + 1)
        b = self.f.one_sided_limit(p, side, k + extra)
        return None if b is None else b.scale(self.c)

    def jump_candidates(self, limit):
        return [] if self.c == 0 else self.f.jump_candidates(limit)

    def grid_max(self, iv, depth):
        if self.c < 0:
            return None  # max of c*f needs the grid min of f
        inner = self.f.grid_max(iv, depth)
        return None if inner is None else inner * self.c


class RestrictedView(SymbolicFn):
    """The same function presented as a member of a weaker class: tags are cut
    down and certificates dropped, exactly how the adversarial arguments hand
    a function to a would-be algorithm."""

    kind = "restricted"

    def __init__(self, f: SymbolicFn, tags):
        tags = frozenset(tags)
        if not tags <= f.tags:
            raise ValueError("a restricted view cannot add tags")
        self.f = f
        super().__init__(tags)

    def _eval(self, x):
        return self.f._eval(x)

    def _hull(self):
        return self.f._hull()

    def _range_on(self, iv, k):
        return self.f.range_on(iv, k)

    def special_points(self, iv, depth):
        return self.f.special_points(iv, depth)

    def _one_sided_limit(self, p, side, k):
        return self.f.one_sided_limit(p, side, k)

    def cluster_bounds(self, x, k):
        return self.f.cluster_bounds(x, k)

    def jump_candidates(self, limit):
        return self.f.jump_candidates(limit)

    def grid_max(self, iv, depth):
        return self.f.grid_max(iv, depth)

    def _witness_above(self, iv, y):
        return self.f.witness_above(iv, y)

    def _witness_below(self, iv, y):
        return self.f.witness_below(iv, y)


def restrict_tags(f: SymbolicFn, tags) -> RestrictedView:
    return RestrictedView(f, tags)


# ---------------------------------------------------------------------------
# constructors named for what they build
# ---------------------------------------------------------------------------


def build_cover_psi(a_set: CountableSet, usco_variant: bool) -> SymbolicFn:
    return CoverPsiUsco(a_set) if usco_variant else CoverPsi(a_set)


def thomae() -> Thomae:
    return Thomae()


# ---------------------------------------------------------------------------
# exact pointwise oscillation over the closed universe
# ---------------------------------------------------------------------------


def osc_exact(f: SymbolicFn, x, k: int) -> Bracket:
    """Bracket (width <= 2^-(k+1)) of the oscillation of f at x: the limit of
    sup - inf over shrinking balls, computed from the exact value and the
    punctured cluster bounds."""
    p = Q2.of(x)
    li, ls = f.cluster_bounds(p, k + 2)
    v = Bracket.of_q2(f.eval(p), k + 2)
    return v.join_max(ls) - v.join_min(li)


def osc_selfcheck(f: SymbolicFn, probe_limit: int = 16) -> bool:
    """Whether the symbolic oscillation of a spike function equals the
    function itself pointwise (checked exactly at members and at a rational
    sample; true for the whole penny family)."""
    if not isinstance(f, Penny):  # every truncated or banded variant subclasses it
        raise UnsupportedVariant("oscillation self-identity is a spike-family check")
    probes = [p for _, p in f.a_set.members_upto(probe_limit)]
    probes += [Q2.of(Fraction(i, 16)) for i in range(17)]
    for p in probes:
        b = osc_exact(f, p, 24)
        v = f.eval(p)
        if not (b.exact and v.is_rational and b.lo == v.as_rational()):
            return False
    return True
