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

_SQRT2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def sqrt2_bracket(k: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket (lo, hi) of sqrt(2) with hi - lo = 2^-k."""
    if k < 0:
        raise ValueError("precision must be >= 0")
    got = _SQRT2_CACHE.get(k)
    if got is None:
        n = math.isqrt(2 << (2 * k))
        got = (Fraction(n, 1 << k), Fraction(n + 1, 1 << k))
        _SQRT2_CACHE[k] = got
    return got


_ZERO = Fraction(0)


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


class Q2:
    """An element a + b*sqrt(2) of the field Q(sqrt2), with exact total order.

    Rational numbers embed as b = 0; every irrational carrier used by the
    function universe (sqrt2/2^(n+1) and its rational shifts) lives here,
    so membership and order questions are decided symbolically.

    Invariant: `a` and `b` are reduced `Fraction`s (positive denominators).
    Order is decided by integer cross-multiplication of their numerators
    and denominators, so a comparison builds no `Q2` and no `Fraction`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=_ZERO):
        self.a = a if a.__class__ is Fraction else Fraction(a)
        self.b = b if b.__class__ is Fraction else Fraction(b)

    # --- constructors ---------------------------------------------------

    @staticmethod
    def sqrt2_scaled(n: int) -> "Q2":
        """The carrier sqrt(2)/2^(n+1)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return Q2(_ZERO, Fraction(1, 1 << (n + 1)))

    @staticmethod
    def of(x) -> "Q2":
        if x.__class__ is Q2:
            return x
        return Q2(x)

    # --- predicates -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise ValueError("not a rational number: %s" % (self,))
        return self.a

    # --- arithmetic -----------------------------------------------------
    # A rational operand (or one with b == 0) has no sqrt2 cross terms.
    # Every non-Q2 operand goes through Fraction(), so no float gets in.

    def __add__(self, other) -> "Q2":
        if other.__class__ is not Q2:
            return Q2(self.a + Fraction(other), self.b)
        if not other.b:
            return Q2(self.a + other.a, self.b)
        return Q2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> "Q2":
        if other.__class__ is not Q2:
            return Q2(self.a - Fraction(other), self.b)
        if not other.b:
            return Q2(self.a - other.a, self.b)
        return Q2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> "Q2":
        return Q2.of(other) - self

    def __mul__(self, other) -> "Q2":
        a, b = self.a, self.b
        if other.__class__ is not Q2:
            c = Fraction(other)
        elif not other.b:
            c = other.a
        elif not b:
            return Q2(a * other.a, a * other.b)
        else:
            c, d = other.a, other.b
            return Q2(a * c + 2 * b * d, a * d + b * c)
        return Q2(a * c, b * c) if b else Q2(a * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Q2":
        o = Q2.of(other)
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the conjugate (o.a - o.b*sqrt2) / norm
        return self * Q2(o.a / norm, -o.b / norm)

    def __neg__(self) -> "Q2":
        return Q2(-self.a, -self.b)

    def __abs__(self) -> "Q2":
        return -self if self.sign() < 0 else self

    # --- exact order ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign, decided by squaring when the two parts compete."""
        an, ad = self.a.as_integer_ratio()
        bn, bd = self.b.as_integer_ratio()
        return _sign_int(an * bd, bn * ad)

    def _cmp(self, other) -> int:
        """The sign of self - other, from integer cross products.

        With self = an/ad + (bn/bd) sqrt2 and other = on/od + (pn/pd) sqrt2,
        self - other = x/(ad od) + (y/(bd pd)) sqrt2 for the integers x and y
        below, and clearing the positive denominators leaves the sign of
        x bd pd + y ad od sqrt2.
        """
        an, ad = self.a.as_integer_ratio()
        bn, bd = self.b.as_integer_ratio()
        if other.__class__ is Q2:
            on, od = other.a.as_integer_ratio()
            pn, pd = other.b.as_integer_ratio()
        else:
            if other.__class__ is not int and other.__class__ is not Fraction:
                other = Fraction(other)
            on, od = other.as_integer_ratio()
            pn, pd = 0, 1
        x = an * od - on * ad
        y = bn * pd - pn * bd
        if not y:
            return (x > 0) - (x < 0)
        return _sign_int(x * bd * pd, y * ad * od)

    def __eq__(self, other):
        if other.__class__ is Q2:
            return self.a == other.a and self.b == other.b
        if isinstance(other, (Fraction, int)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

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
        if self.b == 0:
            return (self.a, self.a)
        extra = max(0, self.b.numerator.bit_length() - self.b.denominator.bit_length() + 1)
        lo2, hi2 = sqrt2_bracket(k + extra + 1)
        if self.b > 0:
            return (self.a + self.b * lo2, self.a + self.b * hi2)
        return (self.a + self.b * hi2, self.a + self.b * lo2)

    def __floor__(self) -> int:
        """The exact floor: refine the bracket until both ends agree (an
        irrational value is never an integer, so this ends)."""
        k = 4
        while True:
            lo, hi = self.bracket(k)
            f = math.floor(lo)
            if f == math.floor(hi):
                return f
            k *= 2

    def approx(self, k: int) -> Fraction:
        """A rational within 2^-k of self."""
        lo, hi = self.bracket(k + 1)
        return (lo + hi) / 2

    def __float__(self):
        return float(self.approx(60))

    def __repr__(self):
        if self.b == 0:
            return "Q2(%s)" % (self.a,)
        return "Q2(%s, %s)" % (self.a, self.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
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
            object.__setattr__(self, "lower", Fraction(self.lower))
        if self.upper.__class__ is not Fraction:
            object.__setattr__(self, "upper", Fraction(self.upper))
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
            if x.b:
                return x >= self.lower and x <= self.upper
            x = x.a
        elif x.__class__ is not Fraction:
            x = Fraction(x)
        return self.lower <= x <= self.upper

    def contains_interior(self, x) -> bool:
        if x.__class__ is Q2:
            if x.b:
                return x > self.lower and x < self.upper
            x = x.a
        elif x.__class__ is not Fraction:
            x = Fraction(x)
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
    c = Fraction(x)
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
            object.__setattr__(self, "lo", Fraction(self.lo))
        if self.hi.__class__ is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("bracket out of order: [%s, %s]" % (self.lo, self.hi))

    @staticmethod
    def point(v) -> "Bracket":
        v = Fraction(v)
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
        c = Fraction(c)
        if c >= 0:
            return Bracket(self.lo * c, self.hi * c)
        return Bracket(self.hi * c, self.lo * c)

    def join_max(self, other: "Bracket") -> "Bracket":
        return Bracket(max(self.lo, other.lo), max(self.hi, other.hi))

    def join_min(self, other: "Bracket") -> "Bracket":
        return Bracket(min(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, v) -> bool:
        if v.__class__ is Q2:
            return v >= self.lo and v <= self.hi
        return self.lo <= Fraction(v) <= self.hi

    def to_interval(self) -> "DyadicInterval":
        return DyadicInterval(self.lo, self.hi)
