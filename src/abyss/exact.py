"""Exact arithmetic substrate: rationals, the quadratic field Q(sqrt2),
dyadic intervals, dyadic grids, and the three-valued fueled truth type.

Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

_SQRT2_FLOOR: dict[int, int] = {}


def _sqrt2_floor(k: int) -> int:
    """floor(sqrt(2) * 2^k)."""
    n = _SQRT2_FLOOR.get(k)
    if n is None:
        n = _SQRT2_FLOOR[k] = math.isqrt(2 << (2 * k))
    return n


def sqrt2_bracket(k: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket (lo, hi) of sqrt(2) with hi - lo = 2^-k."""
    if k < 0:
        raise ValueError("precision must be >= 0")
    n = _sqrt2_floor(k)
    return Fraction(n, 1 << k), Fraction(n + 1, 1 << k)


def _sign_int(x: int, y: int) -> int:
    """The sign of x + y*sqrt(2) for integers x and y.

    When the two parts have opposite signs the one with the larger square
    wins: x^2 = 2 y^2 has no solution with y != 0, so there is no tie.
    """
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    return sx if x * x > 2 * y * y else sy


def _rational(x) -> Fraction:
    """x as a Fraction.  Fraction() would take a float's binary value too,
    so floats are refused here: no float gets into the exact kernel."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("float %r refused: exact arithmetic takes int, Fraction or Q2" % (x,))
    return Fraction(x)


def _parts(x) -> tuple[int, int, int]:
    """A rational operand (int, Fraction, or a string Fraction() reads) as
    the Q2 integers (n, 0, d) of n/d in lowest terms."""
    if x.__class__ is int:
        return x, 0, 1
    if x.__class__ is not Fraction:
        x = _rational(x)
    n, d = x.as_integer_ratio()
    return n, 0, d


_new = object.__new__


def _reduced(p: int, q: int, d: int) -> "Q2":
    """The Q2 (p + q*sqrt2)/d for d > 0, brought to lowest terms."""
    g = math.gcd(p, q, d)
    if g != 1:
        p //= g
        q //= g
        d //= g
    x = _new(Q2)
    x.p = p
    x.q = q
    x.d = d
    return x


class Q2:
    """An element a + b*sqrt(2) of the field Q(sqrt2), with exact total order.

    Rational numbers embed as b = 0; every irrational carrier used by the
    function universe (sqrt2/2^(n+1) and its rational shifts) lives here,
    so membership and order questions are decided symbolically.

    Invariant: a Q2 is three integers (p, q, d) with value (p + q*sqrt2)/d,
    d > 0 and gcd(p, q, d) = 1, so equal values have equal triples.  It
    holds no `Fraction`: arithmetic and order work on the integers, and a
    comparison builds no `Q2` and no `Fraction`.  `a` and `b` read the
    value back as reduced `Fraction`s.  Floats are refused.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a, b=0):
        an, _, ad = _parts(a)
        if b.__class__ is int and not b:
            self.p, self.q, self.d = an, 0, ad
            return
        bn, _, bd = _parts(b)
        p, q, d = an * bd, bn * ad, ad * bd
        g = math.gcd(p, q, d)
        self.p, self.q, self.d = p // g, q // g, d // g

    # --- constructors ---------------------------------------------------

    @staticmethod
    def sqrt2_scaled(n: int) -> "Q2":
        """The carrier sqrt(2)/2^(n+1)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return _reduced(0, 1, 1 << (n + 1))

    @staticmethod
    def of(x) -> "Q2":
        if x.__class__ is Q2:
            return x
        return Q2(x)

    # --- the rational parts ---------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    # --- predicates -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.q

    def as_rational(self) -> Fraction:
        if self.q:
            raise ValueError("not a rational number: %s" % (self,))
        return Fraction(self.p, self.d)

    # --- arithmetic -----------------------------------------------------
    # A rational operand n/m enters as (n, 0, m); equal denominators add
    # without cross products.

    def __add__(self, other) -> "Q2":
        p, q, d = (other.p, other.q, other.d) if other.__class__ is Q2 else _parts(other)
        if d == self.d:
            return _reduced(self.p + p, self.q + q, d)
        return _reduced(self.p * d + p * self.d, self.q * d + q * self.d, self.d * d)

    __radd__ = __add__

    def __sub__(self, other) -> "Q2":
        p, q, d = (other.p, other.q, other.d) if other.__class__ is Q2 else _parts(other)
        if d == self.d:
            return _reduced(self.p - p, self.q - q, d)
        return _reduced(self.p * d - p * self.d, self.q * d - q * self.d, self.d * d)

    def __rsub__(self, other) -> "Q2":
        return Q2.of(other) - self

    def __mul__(self, other) -> "Q2":
        if other.__class__ is Q2:
            p, q, d = other.p, other.q, other.d
            if q:
                sp, sq = self.p, self.q
                return _reduced(sp * p + 2 * sq * q, sp * q + sq * p, self.d * d)
        else:
            p, _, d = _parts(other)
        return _reduced(self.p * p, self.q * p, self.d * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Q2":
        # multiply by the conjugate: 1/((p + q sqrt2)/d) = d (p - q sqrt2)/(p^2 - 2 q^2)
        p, q, d = (other.p, other.q, other.d) if other.__class__ is Q2 else _parts(other)
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            norm, d = -norm, -d
        sp, sq = self.p, self.q
        return _reduced(d * (sp * p - 2 * sq * q), d * (sq * p - sp * q), self.d * norm)

    def __neg__(self) -> "Q2":
        return _reduced(-self.p, -self.q, self.d)

    def __abs__(self) -> "Q2":
        return -self if self.sign() < 0 else self

    # --- exact order ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign, decided by squaring when the two parts compete."""
        return _sign_int(self.p, self.q)

    def _cmp(self, other) -> int:
        """The sign of self - other, from integer cross products.

        With self = (p + q sqrt2)/d and other = (r + s sqrt2)/e, clearing
        the positive denominators leaves the sign of
        (p e - r d) + (q e - s d) sqrt2.
        """
        if other.__class__ is Q2:
            r, s, e = other.p, other.q, other.d
        elif other.__class__ is int:
            r, s, e = other, 0, 1
        else:
            r, s, e = _parts(other)
        d = self.d
        if e == d:
            x, y = self.p - r, self.q - s
        else:
            x, y = self.p * e - r * d, self.q * e - s * d
        if not y:
            return (x > 0) - (x < 0)
        return _sign_int(x, y)

    def __eq__(self, other):
        if other.__class__ is Q2:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (Fraction, int)):
            if self.q:
                return False
            n, d = other.as_integer_ratio()
            return self.p == n and self.d == d
        return NotImplemented

    def __hash__(self):
        if self.q:
            return hash((self.p, self.q, self.d))
        if self.d == 1:
            return hash(self.p)
        return hash(Fraction(self.p, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # --- dyadic approximation -------------------------------------------

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational bracket [lo, hi] containing self, with hi - lo <= 2^-k."""
        p, q, d = self.p, self.q, self.d
        if not q:
            a = Fraction(p, d)
            return (a, a)
        # sqrt2 to 2^-j with j = k + 1 + the bit excess of |b|, b = q/d reduced
        g = math.gcd(q, d)
        j = k + 1 + max(0, (q // g).bit_length() - (d // g).bit_length() + 1)
        n = _sqrt2_floor(j)
        lo = Fraction((p << j) + q * n, d << j)
        hi = Fraction((p << j) + q * (n + 1), d << j)
        return (lo, hi) if q > 0 else (hi, lo)

    def __floor__(self) -> int:
        """The exact floor: floor((p + q sqrt2)/d) = floor((p + floor(q sqrt2))/d),
        and q sqrt2 is irrational unless q = 0."""
        p, q = self.p, self.q
        if q:
            r = math.isqrt(2 * q * q)
            p += r if q > 0 else -r - 1
        return p // self.d

    def approx(self, k: int) -> Fraction:
        """A rational within 2^-k of self."""
        lo, hi = self.bracket(k + 1)
        return (lo + hi) / 2

    def __float__(self):
        return float(self.approx(60))

    def __repr__(self):
        if not self.q:
            return "Q2(%s)" % (self.a,)
        return "Q2(%s, %s)" % (self.a, self.b)

    def __str__(self):
        if not self.q:
            return str(self.a)
        if not self.p:
            return "%s*sqrt2" % (self.b,)
        return "%s + %s*sqrt2" % (self.a, self.b)


# --- dyadic intervals -----------------------------------------------------


class DegenerateInterval(ValueError):
    """Raised when an operation needs a nondegenerate interval."""


@dataclass(frozen=True)
class DyadicInterval:
    """A closed rational interval [lower, upper]; endpoints usually dyadic."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower.__class__ is not Fraction:
            object.__setattr__(self, "lower", _rational(self.lower))
        if self.upper.__class__ is not Fraction:
            object.__setattr__(self, "upper", _rational(self.upper))
        if self.lower > self.upper:
            raise ValueError("interval endpoints out of order: [%s, %s]" % (self.lower, self.upper))

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def contains(self, x) -> bool:
        if x.__class__ is Q2:
            return x._cmp(self.lower) >= 0 and x._cmp(self.upper) <= 0
        x = _rational(x)
        return self.lower <= x <= self.upper

    def contains_interior(self, x) -> bool:
        if x.__class__ is Q2:
            return x._cmp(self.lower) > 0 and x._cmp(self.upper) < 0
        x = _rational(x)
        return self.lower < x < self.upper

    def intersection(self, other: "DyadicInterval") -> "DyadicInterval":
        lo = max(self.lower, other.lower)
        hi = min(self.upper, other.upper)
        if lo > hi:
            raise ValueError("empty intersection")
        return DyadicInterval(lo, hi)

    def __str__(self):
        return "[%s, %s]" % (self.lower, self.upper)


def ball(x, k: int) -> DyadicInterval:
    """The interval (x - 2^-k, x + 2^-k), recorded by its rational endpoints."""
    if k < 0:
        raise ValueError("radius exponent must be >= 0")
    c = _rational(x)
    r = Fraction(1, 1 << k)
    return DyadicInterval(c - r, c + r)


def halve(i: DyadicInterval) -> tuple[DyadicInterval, DyadicInterval]:
    """Split an interval at its midpoint; the halves share exactly one point."""
    if i.lower == i.upper:
        raise DegenerateInterval("cannot halve the degenerate interval %s" % (i,))
    m = i.midpoint
    return DyadicInterval(i.lower, m), DyadicInterval(m, i.upper)


def rational_grid(i: DyadicInterval, n: int) -> list[Fraction]:
    """All multiples of 2^-n inside i, plus i's endpoints, strictly increasing.

    Grids are nested in n; endpoints are always included so every grid is
    nonempty even when the mesh skips the interval.
    """
    if n < 0:
        raise ValueError("grid depth must be >= 0")
    step = Fraction(1, 1 << n)
    first = math.ceil(i.lower / step)
    last = math.floor(i.upper / step)
    pts = [step * j for j in range(first, last + 1)]
    if not pts or pts[0] != i.lower:
        pts.insert(0, i.lower)
    if pts[-1] != i.upper:
        pts.append(i.upper)
    return pts


def grid_depth_cap(iv: DyadicInterval) -> int:
    """Deepest grid that stays around 4k points on this interval: 12 plus
    the least e <= 80 with 2^-e <= width, read off ceil(1/width)."""
    w = iv.width
    if w == 0:
        return 0
    return 12 + min((-(-w.denominator // w.numerator) - 1).bit_length(), 80)


# --- fueled truth values ---------------------------------------------------


class Truth(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FueledBool:
    """Three-valued answer of a simulated oracle query.

    YES/NO answers are sound and never flip at higher fuel; UNKNOWN records
    that the fuel budget ran out before the query was decided.
    """

    value: Truth
    fuel_spent: int = 0

    @staticmethod
    def yes(fuel: int = 0) -> "FueledBool":
        return FueledBool(Truth.YES, fuel)

    @staticmethod
    def no(fuel: int = 0) -> "FueledBool":
        return FueledBool(Truth.NO, fuel)

    @staticmethod
    def unknown(fuel: int = 0) -> "FueledBool":
        return FueledBool(Truth.UNKNOWN, fuel)

    def __bool__(self):
        if self.value is Truth.UNKNOWN:
            raise ValueError("UNKNOWN truth value has no boolean meaning")
        return self.value is Truth.YES


# --- fixed rational enumerations -------------------------------------------


def unit_rationals() -> Iterator[Fraction]:
    """Fixed enumeration of Q cap [0,1]: by denominator, then numerator.

    0/1, 1/1, 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ...  (coprime pairs only).
    """
    yield Fraction(0)
    yield Fraction(1)
    d = 2
    while True:
        for p in range(1, d):
            if math.gcd(p, d) == 1:
                yield Fraction(p, d)
        d += 1


def signed_unit_rationals() -> Iterator[Fraction]:
    """Fixed enumeration of Q cap [-1,1]: by denominator, then numerator.

    -1, 0, 1, -1/2, 1/2, -2/3, -1/3, 1/3, 2/3, ...
    """
    yield Fraction(-1)
    yield Fraction(0)
    yield Fraction(1)
    d = 2
    while True:
        for p in range(-d + 1, d):
            if p != 0 and math.gcd(abs(p), d) == 1:
                yield Fraction(p, d)
        d += 1


def least_denominator_in(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(p, q) with p/q the simplest rational of the closed interval [lo, hi],
    0 <= lo <= hi: the least denominator q, then the least numerator p (ties
    arise only at q = 1).  p/q is in lowest terms.

    The Stern-Brocot walk by continued fractions: take the least integer of
    the interval if there is one, else strip the common integer part f and
    continue on the reciprocal interval [1/(hi - f), 1/(lo - f)].  The map
    t -> (a t + b)/(c t + d) carries the current interval back to the first,
    so each step costs a few integer operations and there are O(log) steps.
    """
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    if ln < 0 or ln * hd > hn * ld:
        raise ValueError("need 0 <= lo <= hi, got [%s, %s]" % (lo, hi))
    a, b, c, d = 1, 0, 0, 1
    while True:
        f = ln // ld
        if f * ld == ln:
            t = f
        elif (f + 1) * hd <= hn:
            t = f + 1
        else:
            a, b, c, d = a * f + b, a, c * f + d, c
            ln, ld, hn, hd = hd, hn - f * hd, ld, ln - f * ld
            continue
        return a * t + b, c * t + d


def format_rational(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


# --- value brackets ---------------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    """A rational enclosure [lo, hi] of an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo.__class__ is not Fraction:
            object.__setattr__(self, "lo", _rational(self.lo))
        if self.hi.__class__ is not Fraction:
            object.__setattr__(self, "hi", _rational(self.hi))
        if self.lo > self.hi:
            raise ValueError("bracket out of order: [%s, %s]" % (self.lo, self.hi))

    @staticmethod
    def point(v) -> "Bracket":
        v = _rational(v)
        return Bracket(v, v)

    @staticmethod
    def of_q2(x, k: int) -> "Bracket":
        lo, hi = Q2.of(x).bracket(k)
        return Bracket(lo, hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Bracket":
        return Bracket(-self.hi, -self.lo)

    def scale(self, c) -> "Bracket":
        c = _rational(c)
        if c >= 0:
            return Bracket(self.lo * c, self.hi * c)
        return Bracket(self.hi * c, self.lo * c)

    def join_max(self, other: "Bracket") -> "Bracket":
        return Bracket(max(self.lo, other.lo), max(self.hi, other.hi))

    def join_min(self, other: "Bracket") -> "Bracket":
        return Bracket(min(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, v) -> bool:
        if v.__class__ is Q2:
            return v._cmp(self.lo) >= 0 and v._cmp(self.hi) <= 0
        return self.lo <= _rational(v) <= self.hi

    def to_interval(self) -> "DyadicInterval":
        return DyadicInterval(self.lo, self.hi)
