"""Countable point sets with injective index maps, closed-set and open-set
representations (radius functions vs. rational ball unions).

A CountableSet is the seed of every adversarial instance: an enumeration
n -> a_n of distinct points of [0,1] together with the inverse map, both
exactly decidable over Q(sqrt2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exact import (Q2, DyadicInterval, _in_unit, _least_denominator_q2, _ratio, _rational,
                    _sign_int, _vs)
from .records import record


class CountableSet:
    """An indexed countable subset of [0,1] with decidable membership.

    `member(n)` enumerates the set, `index_of(x)` inverts it (None when x is
    not a member).  `size` is None for infinite families.  When
    `values_descend` holds, member(n) is strictly decreasing in n, which lets
    interval scans terminate exactly.
    """

    def __init__(self, member, index_of, size=None, name="custom",
                 values_descend=False, all_irrational=False):
        self._member = member
        self._index_of = index_of
        self.size = size
        self.name = name
        self.values_descend = values_descend
        self.all_irrational = all_irrational
        self._cache: dict[int, Q2] = {}

    def member(self, n: int) -> Q2:
        if n < 0 or (self.size is not None and n >= self.size):
            raise IndexError("no member with index %d" % n)
        got = self._cache.get(n)
        if got is None:
            got = Q2.of(self._member(n))
            self._cache[n] = got
        return got

    def index_of(self, x) -> Optional[int]:
        return self._index_of(Q2.of(x))

    def __contains__(self, x) -> bool:
        return self.index_of(x) is not None

    def members_upto(self, limit: int) -> list[tuple[int, Q2]]:
        hi = limit if self.size is None else min(limit, self.size)
        return [(n, self.member(n)) for n in range(hi)]

    def _scan(self, iv: DyadicInterval, limit: int, start: int):
        """The first member inside iv with index in [start, limit), as (n,
        member), else where the miss stopped: the index the scan ended at, a
        member below iv of a descending enumeration or the end of the
        window.  An end below limit proves that no member of index >= start
        lies in iv: the members past one below iv are lower still, and a
        finite set shorter than limit has none past its end.  A cached
        member is read straight from the cache, and decided against iv's two
        ends on the integers in this loop."""
        size = self.size
        hi = limit if size is None or size > limit else size
        ln, d, w = iv.ln, iv.d, iv.un - iv.ln
        descend = self.values_descend
        cached = self._cache.get
        for n in range(start, hi):
            p = cached(n)
            if p is None:
                p = self.member(n)
            # member - end = (a + b sqrt2)/(d p.d) with a = p.p d - end p.d;
            # `exact._sign_int`'s squaring rule: when b != 0 its sign is a's
            # if a^2 > 2 b^2, else b's (no tie)
            e, b = p.d, p.q * d
            a, bb = p.p * d - ln * e, 2 * b * b
            if (a if a * a > bb else b) < 0:
                if descend:
                    return n
                continue
            a -= w * e
            if (a if a * a > bb else b) <= 0:
                return n, p
        return hi

    def members_in(self, iv: DyadicInterval, limit: int,
                   start: int = 0) -> list[tuple[int, Q2]]:
        """Members inside iv with index in [start, limit), in index order
        (exhaustive when the enumeration descends below iv or the set is
        finite)."""
        out = []
        hit = self._scan(iv, limit, start)
        while hit.__class__ is tuple:
            out.append(hit)
            hit = self._scan(iv, limit, hit[0] + 1)
        return out

    def scan_is_exhaustive(self, iv: DyadicInterval, limit: int) -> bool:
        """Whether members_in(iv, limit) provably saw every member in iv."""
        if self.size is not None and self.size <= limit:
            return True
        return self.values_descend and _vs(self.member(limit), iv.ln, iv.d) < 0


def sqrt2_family() -> CountableSet:
    """The canonical countable set {sqrt2/2^(n+1) : n in N}, Y(a_n) = n;
    its enumeration is `Q2.sqrt2_scaled` itself, which marks it."""

    def index_of(x: Q2) -> Optional[int]:
        # sqrt2/2^(n+1) in lowest terms is (0, 1, 2^(n+1))
        if x.p or x.q != 1:
            return None
        den = x.d
        if den & (den - 1) != 0:  # not a power of two
            return None
        n = den.bit_length() - 2
        return n if n >= 0 else None

    return CountableSet(Q2.sqrt2_scaled, index_of, size=None, name="sqrt2-halving",
                        values_descend=True, all_irrational=True)


def _unit_points(points) -> list[Q2]:
    """The points as Q2, refusing any outside [0,1]."""
    pts = [Q2.of(p) for p in points]
    for p in pts:
        if not _in_unit(p):
            raise ValueError("point %s outside [0,1]" % (p,))
    return pts


def finite_set(points, name="finite") -> CountableSet:
    """A finite countable set from explicit points; rejects duplicates and
    points outside [0,1]."""
    pts = _unit_points(points)
    if not pts:
        raise ValueError("countable set must be nonempty")
    # a Q2 is reduced, so equal points have equal integers
    index, all_irr = {}, True
    for n, p in enumerate(pts):
        if index.setdefault((p.p, p.q, p.d), n) != n:
            raise ValueError("duplicate point %s (index map must be injective)" % (p,))
        if not p.q:
            all_irr = False

    def index_of(x: Q2) -> Optional[int]:
        return index.get((x.p, x.q, x.d))

    return CountableSet(lambda n: pts[n], index_of, size=len(pts), name=name,
                        all_irrational=all_irr)


# --- bands of (0,1]: [2^-(n+1), 2^-n) -------------------------------------


def band_of(x, half_open=True) -> Optional[int]:
    """The band index n with 2^-(n+1) <= x < 2^-n (half-open), or with
    boundaries assigned to the smaller n (half_open=False).  None for x <= 0
    and for x >= 1 in the half-open reading (x = 1 maps to band 0 otherwise).
    """
    # the least n >= 0 with 2^(n+1) >= t = 1/x, read off m = floor(t) and
    # whether t = m: for a rational n/d, m = d // n and t = m iff n divides d
    if x.__class__ is Q2 and x.q:
        # an irrational x = (p + q sqrt2)/d is neither 0, 1 nor 1/t for an
        # integer t; t = d (p - q sqrt2)/(p^2 - 2 q^2) is floored as
        # `Q2.__floor__` floors, over a positive denominator
        p, q, d = x.p, x.q, x.d
        if _sign_int(p, q) < 0 or _sign_int(p - d, q) > 0:
            return None
        tp, tq, td = d * p, -d * q, p * p - 2 * q * q
        if td < 0:
            tp, tq, td = -tp, -tq, -td
        r = math.isqrt(2 * tq * tq)
        m = (tp + (r if tq > 0 else -r - 1)) // td
        whole = False
    else:
        n, d = (x.p, x.d) if x.__class__ is Q2 else _ratio(x)
        if n <= 0 or (n >= d if half_open else n > d):
            return None
        m, r = divmod(d, n)
        whole = not r
    return max(m.bit_length() - 1 - (whole and m & (m - 1) == 0), 0)


# --- the shifted, banded copy of a set (one point per band) ----------------


def minimal_shift_into_band(a: Q2, n: int) -> Fraction:
    """The minimal-index rational q in [-1,1] with a - q in [2^-(n+1), 2^-n).

    The target interval for q is (lo, hi] = (a - 2^-n, a - 2^-(n+1)].  The
    index is in the fixed order of [-1,1] by denominator, then numerator
    (-1, 0, 1, -1/2, 1/2, -2/3, ...), so the minimal index belongs to the
    least denominator d with an integer p in (lo d, hi d] cap [-d, d], and
    to the least such p.
    Both ends are integer triples (p, q, d) over the one denominator
    a.d 2^(n+1), and the continued-fraction walk of
    `exact._least_denominator_q2` finds them on the integers in O(n)
    steps.  The ends need no clip to [-1,1]: the interval is at most 1/2
    wide, so one that reaches past -1 or 1 holds that integer, the answer.
    """
    a = Q2.of(a)
    e = a.d << (n + 1)
    p, q = a.p << (n + 1), a.q << (n + 1)
    lp, hp = p - 2 * a.d, p - a.d  # lo = (lp + q sqrt2)/e, hi = (hp + q sqrt2)/e
    if _sign_int(lp - e, q) >= 0 or _sign_int(hp + e, q) < 0:  # lo >= 1 or hi < -1
        raise ValueError("no rational of [-1,1] shifts %s into band %d" % (a, n))
    num, den = _least_denominator_q2(lp, q, e, hp, q, e, True)
    return Fraction(num, den)


def tilde_set(a_set: CountableSet) -> CountableSet:
    """Banded copy of a_set: member n is a_n shifted by the minimal-index
    rational that lands it in band n.  Nowhere dense: one point per band,
    accumulating only at 0.  Requires a purely irrational source set."""
    if not a_set.all_irrational:
        raise ValueError("banded copy needs an all-irrational source set "
                         "(remove rationals first)")

    def member(n: int) -> Q2:
        a = a_set.member(n)
        return a - minimal_shift_into_band(a, n)

    def index_of(x: Q2) -> Optional[int]:
        n = band_of(x, half_open=True)
        if n is None or (a_set.size is not None and n >= a_set.size):
            return None
        return n if banded.member(n) == x else None

    banded = CountableSet(member, index_of, size=a_set.size,
                          name="tilde(%s)" % a_set.name,
                          values_descend=True, all_irrational=True)
    return banded


# --- closed sets and open-set representations ------------------------------


@record
class R2Rep:
    """An open subset of [0,1] represented by a radius function: every member
    x gets a positive radius with B(x, radius(x)) inside the set.

    Concrete instances are backed by a finite union of disjoint open rational
    intervals, from which the canonical radius map is derived.
    """

    intervals: tuple  # ((lo, hi), ...) open, disjoint, sorted

    @staticmethod
    def from_intervals(spans) -> "R2Rep":
        cleaned = sorted((_rational(a), _rational(b)) for a, b in spans
                         if _rational(a) < _rational(b))
        for (a1, b1), (a2, b2) in zip(cleaned, cleaned[1:]):
            if b1 > a2:
                raise ValueError("intervals must be disjoint")
        return R2Rep(tuple(cleaned))

    def contains(self, x) -> bool:
        p = Q2.of(x)
        return any(p > a and p < b for a, b in self.intervals)

    def radius(self, x) -> Fraction:
        p = Q2.of(x)
        for a, b in self.intervals:
            if p > a and p < b:
                gap = min(p - a, b - p)
                if gap.is_rational:
                    return gap.as_rational()
                k = max(4, (b - a).denominator.bit_length() + 4)
                lo, _ = gap.bracket(k)
                while lo <= 0:  # an end closer to x than 2^-k: refine
                    k *= 2
                    lo, _ = gap.bracket(k)
                return lo
        return Fraction(0)


@record
class FinitePointSet:
    points: tuple

    @staticmethod
    def of(points) -> "FinitePointSet":
        return FinitePointSet(tuple(_unit_points(points)))

    def contains(self, x) -> bool:
        p = Q2.of(x)
        return any(p == q for q in self.points)

    def component_intervals(self) -> list[tuple[Q2, Q2]]:
        """Each point as a degenerate closed component (p, p)."""
        return [(p, p) for p in self.points]


@record
class ComplementOfR2Open:
    """The closed complement (within [0,1]) of an R2-represented open set."""

    open_rep: R2Rep

    def contains(self, x) -> bool:
        p = Q2.of(x)
        if p < 0 or p > 1:
            return False
        return not self.open_rep.contains(p)

    def component_intervals(self) -> list[tuple[Fraction, Fraction]]:
        """Closed components of the complement inside [0,1] (single points
        allowed where open intervals touch)."""
        out = []
        cursor = Fraction(0)
        for a, b in self.open_rep.intervals:
            if b <= cursor:
                continue
            if a > 1:
                break
            if a >= cursor:
                out.append((cursor, min(a, Fraction(1))))
            cursor = max(cursor, b)
            if cursor > 1:
                break
        if cursor <= 1:
            out.append((cursor, Fraction(1)))
        return out


# --- RM-codes: open sets as unions of rational balls -----------------------


@record
class RMCode:
    """An open set coded as a countable union of rational balls; only a
    finite prefix is ever materialised."""

    prefix: tuple  # ((center, radius), ...)
    prefix_of_infinite: bool = False

    def covers(self, x) -> bool:
        p = Q2.of(x)
        return any(p > c - r and p < c + r for c, r in self.prefix if r > 0)

    @staticmethod
    def from_balls(balls, prefix_of_infinite=False) -> "RMCode":
        return RMCode(tuple((_rational(c), _rational(r)) for c, r in balls),
                      prefix_of_infinite)
