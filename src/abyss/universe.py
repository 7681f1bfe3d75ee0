"""The closed symbolic universe of function families on [0,1].

Every family evaluates exactly over Q(sqrt2) and carries:
  * class tags (witnessed by the test suite, never just asserted),
  * structural collapse certificates where a rational-quantifier collapse is
    valid for reasons the class tags alone cannot see (Thomae),
  * exact interval ranges, punctured cluster bounds and one-sided limits,
    which is what makes honest oracle simulation possible at all.

Functions outside this universe are deliberately not accepted: there is no
sound way to simulate number-quantifier oracles against a black box.

This module holds what every family shares; the families live in
`piecewise`, `spikes`, `limits` and `composites`, so a process compiles
only the families it builds.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import DomainError, UnsupportedVariant
from .exact import (Bracket, DyadicInterval, Q2, Truth, _in_unit, _ratio, _rational, _reduced,
                    _sign_int)

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

# The open query scope: what the questions of one computation learn about
# the functions they ask, keyed by (kind, function, interval integers).
_SCOPE: ContextVar[Optional[dict]] = ContextVar("query_scope", default=None)


def query_state() -> dict:
    """The open scope's dict; outside any scope, a fresh one nothing keeps."""
    scope = _SCOPE.get()
    return {} if scope is None else scope


class query_scope:
    """`with query_scope():` opens a scope, or joins the one already open."""

    def __enter__(self):
        self._token = _SCOPE.set(query_state())

    def __exit__(self, *exc):
        _SCOPE.reset(self._token)


def threshold_precision(den: int) -> int:
    """The precision that first decides a threshold of reduced denominator den."""
    return max(8, den.bit_length() + 4)


# The unit dyadics 2^-(n+1), the spike values, as `Fraction` and as exact
# `Bracket`: the last 1,024 asked for are shared objects.
@lru_cache(maxsize=1024)
def unit_dyadic(n: int) -> Fraction:
    """2^-(n+1)."""
    return Fraction(1, 1 << (n + 1))


@lru_cache(maxsize=1024)
def unit_dyadic_bracket(n: int) -> Bracket:
    """The exact bracket of 2^-(n+1), n >= 0."""
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

    def __init__(self, tags, certificates=()):
        tags = frozenset(tags)  # a frozenset, as every family's TAGS, is kept as it is
        if not tags <= ALL_TAGS:
            raise ValueError("unknown class tags: %s" % sorted(tags - ALL_TAGS))
        self.tags = tags
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
        ln, _, ld = lo._bracket_ints(8)
        _, hn, hd = hi._bracket_ints(8)
        return Fraction(ln, ld), Fraction(hn, hd)

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
        # p is in [0,1], so only a rational p = n/d can be an end: 0 <= n <= d
        if not p.q and (side < 0 and p.p <= 0 or side > 0 and p.p >= p.d):
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
        caller for the plain scan.  Only the spike families answer: the
        baseline reads them at depths no scan reaches."""
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

    def scoped_bracket(self, iv: DyadicInterval, prec: int, above: bool) -> Bracket:
        """The `range_on` bracket of one side over iv (the sup above, the inf
        below), kept in the query scope under ("range", f, ln, un, d) with
        the precision it was read at, and read again only when that side is
        inexact and prec is finer: one halving reads an exact bracket once."""
        scope, key = query_state(), ("range", self, iv.ln, iv.un, iv.d)
        kept = scope.get(key)
        if kept is None or (prec > kept[0] and not kept[1][above].exact):
            kept = scope[key] = prec, self.range_on(iv, prec)
        return kept[1][above]

    def _witness_via_range(self, iv, y, above):
        """Decide from the side's `scoped_bracket`, read at y's precision and,
        if that leaves y undecided, once more at about twice it."""
        yn, yd = y.as_integer_ratio()
        prec = threshold_precision(yd)
        # retry finer once: a quadratic-irrational extremum sits at distance
        # at least ~1/denominator(y)^2 from y, so doubling the bits decides
        for attempt in range(2):
            target = self.scoped_bracket(iv, prec, above)
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
