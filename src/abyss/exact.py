"""Exact arithmetic substrate: rationals, the quadratic field Q(sqrt2),
dyadic intervals, dyadic grids, and the three-valued fueled truth type.

Everything here is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cache
from typing import Iterator

from .records import record


@cache
def _sqrt2_floor(k: int) -> int:
    """floor(sqrt(2) * 2^k)."""
    return math.isqrt(2 << (2 * k))


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


def _in_unit(x: "Q2") -> bool:
    """Whether 0 <= x <= 1, on the integers: an irrational x is neither end,
    and the signs of x and 1 - x follow `_sign_int`'s squaring rule."""
    p, q, d = x.p, x.q, x.d
    if not q:
        return 0 <= p <= d
    qq, r = 2 * q * q, d - p
    return ((p >= 0 or p * p < qq) and r > 0 and r * r > qq if q > 0
            else p > 0 and p * p > qq and (r >= 0 or r * r < qq))


def _rational(x) -> Fraction:
    """x as a Fraction.  Fraction() would take a float's binary value too,
    so floats are refused here: no float gets into the exact kernel."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("float %r refused: exact arithmetic takes int, Fraction or Q2" % (x,))
    return Fraction(x)


def _ratio(x) -> tuple[int, int]:
    """A rational operand as the integers (n, d) of n/d in lowest terms."""
    if x.__class__ is int:
        return x, 1
    if x.__class__ is not Fraction:
        x = _rational(x)
    return x.as_integer_ratio()


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
        an, ad = a.as_integer_ratio() if a.__class__ is Fraction else _ratio(a)
        if b.__class__ is int and not b:
            self.p, self.q, self.d = an, 0, ad
            return
        bn, bd = b.as_integer_ratio() if b.__class__ is Fraction else _ratio(b)
        # over lcm(ad, bd): both parts are in lowest terms, so the triple is too
        g = math.gcd(ad, bd)
        self.p, self.q, self.d = an * (bd // g), bn * (ad // g), ad // g * bd

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
        return hash(self.a)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # --- dyadic approximation -------------------------------------------

    def _bracket_ints(self, k: int) -> tuple[int, int, int]:
        """(lo, hi, e) with [lo/e, hi/e] the bracket `bracket(k)` gives."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return p, p, d
        # sqrt2 to 2^-j with j = k + 1 + the bit excess of |b|, b = q/d reduced
        g = math.gcd(q, d)
        j = k + 1 + max(0, (q // g).bit_length() - (d // g).bit_length() + 1)
        lo = (p << j) + q * _sqrt2_floor(j)
        hi = lo + q
        return (lo, hi, d << j) if q > 0 else (hi, lo, d << j)

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational bracket [lo, hi] containing self, with hi - lo <= 2^-k."""
        lo, hi, e = self._bracket_ints(k)
        return Fraction(lo, e), Fraction(hi, e)

    def __floor__(self) -> int:
        """The exact floor: floor((p + q sqrt2)/d) = floor((p + floor(q sqrt2))/d),
        and q sqrt2 is irrational unless q = 0."""
        p, q = self.p, self.q
        if q:
            r = math.isqrt(2 * q * q)
            p += r if q > 0 else -r - 1
        return p // self.d

    def approx(self, k: int) -> Fraction:
        """A rational within 2^-k of self: the midpoint of `bracket(k + 1)`."""
        lo, hi, e = self._bracket_ints(k + 1)
        return Fraction(lo + hi, 2 * e)

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


def _vs(x: "Q2", n: int, d: int) -> int:
    """The sign of x - n/d for a Q2 x and d > 0, on the integers."""
    e = x.d
    if e == d:
        a, b = x.p - n, x.q
    else:
        a, b = x.p * d - n * e, x.q * d
    if not b:
        return (a > 0) - (a < 0)
    return _sign_int(a, b)


class _Ends:
    """Two rational ends ln/d <= un/d over one denominator: the core that
    `DyadicInterval` and `Bracket` share.

    Invariant: d > 0 and gcd(ln, un, d) = 1, so equal values have equal
    triples.  The ends are read back as reduced `Fraction`s by each class's
    own views; containment, arithmetic and the grids work on the integers.
    Equality holds within one class, and the hash is that of the pair of
    `Fraction` ends, computed from the integers.
    """

    __slots__ = ("ln", "un", "d")
    _ORDER: str  # the order error's text, "...[%s, %s]"
    _NAMES: tuple[str, str]  # the names of the two ends in repr

    def __init__(self, lo, hi):
        ln, d = _ratio(lo)
        un, e = _ratio(hi)
        if d != e:
            # over lcm(d, e): both ends are in lowest terms, so the triple is too
            g = math.gcd(d, e)
            ln *= e // g
            un *= d // g
            d = d // g * e
        if ln > un:
            raise ValueError(self._ORDER % (Fraction(ln, d), Fraction(un, d)))
        self.ln, self.un, self.d = ln, un, d

    @classmethod
    def of_ints(cls, ln: int, un: int, d: int):
        """The canonical [ln/d, un/d] for d > 0, order checked."""
        if ln > un:
            raise ValueError(cls._ORDER % (Fraction(ln, d), Fraction(un, d)))
        g = math.gcd(ln, un, d)
        if g != 1:
            ln //= g
            un //= g
            d //= g
        x = _new(cls)
        x.ln, x.un, x.d = ln, un, d
        return x

    def _lo(self) -> Fraction:
        return Fraction(self.ln, self.d)

    def _hi(self) -> Fraction:
        return Fraction(self.un, self.d)

    @property
    def width(self) -> Fraction:
        return Fraction(self.un - self.ln, self.d)

    def contains(self, x) -> bool:
        if x.__class__ is Q2:
            return _vs(x, self.ln, self.d) >= 0 and _vs(x, self.un, self.d) <= 0
        n, e = _ratio(x)
        d = self.d
        return self.ln * e <= n * d <= self.un * e

    def contains_interior(self, x) -> bool:
        if x.__class__ is Q2:
            return _vs(x, self.ln, self.d) > 0 and _vs(x, self.un, self.d) < 0
        n, e = _ratio(x)
        d = self.d
        return self.ln * e < n * d < self.un * e

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ln == other.ln and self.un == other.un and self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self._lo(), self._hi()))

    def __repr__(self):
        lo, hi = self._NAMES
        return "%s(%s=%r, %s=%r)" % (self.__class__.__qualname__, lo, self._lo(),
                                     hi, self._hi())


class DegenerateInterval(ValueError):
    """Raised when an operation needs a nondegenerate interval."""


class DyadicInterval(_Ends):
    """A closed rational interval [lower, upper]; endpoints usually dyadic."""

    __slots__ = ()
    _ORDER = "interval endpoints out of order: [%s, %s]"
    _NAMES = ("lower", "upper")

    lower = property(_Ends._lo)
    upper = property(_Ends._hi)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.ln + self.un, 2 * self.d)

    def __str__(self):
        return "[%s, %s]" % (self._lo(), self._hi())


def _dyadic(ln: int, un: int, d: int) -> DyadicInterval:
    """The DyadicInterval [ln/d, un/d] of a triple already canonical: d > 0,
    ln <= un and gcd(ln, un, d) = 1, so `of_ints`'s order check and gcd are
    skipped.  Two consecutive numerators over a power of two are such a
    triple."""
    x = _new(DyadicInterval)
    x.ln, x.un, x.d = ln, un, d
    return x


def ball(x, k: int) -> DyadicInterval:
    """The interval (x - 2^-k, x + 2^-k), recorded by its rational endpoints."""
    if k < 0:
        raise ValueError("radius exponent must be >= 0")
    n, d = _ratio(x)
    return DyadicInterval.of_ints((n << k) - d, (n << k) + d, d << k)


def halve(i: DyadicInterval) -> tuple[DyadicInterval, DyadicInterval]:
    """Split an interval at its midpoint; the halves share exactly one point."""
    ln, un, d = i.ln, i.un, i.d
    if ln == un:
        raise DegenerateInterval("cannot halve the degenerate interval %s" % (i,))
    m = ln + un
    return DyadicInterval.of_ints(2 * ln, m, 2 * d), DyadicInterval.of_ints(m, 2 * un, 2 * d)


def grid_span(i: DyadicInterval, n: int) -> tuple[int, int]:
    """(first, last): the multiples j/2^n inside i are those with
    first <= j <= last (none when first > last)."""
    if n < 0:
        raise ValueError("grid depth must be >= 0")
    return -((-i.ln << n) // i.d), (i.un << n) // i.d


def rational_grid(i: DyadicInterval, n: int) -> list[Fraction]:
    """All multiples of 2^-n inside i, plus i's endpoints, strictly increasing.

    Grids are nested in n; endpoints are always included so every grid is
    nonempty even when the mesh skips the interval.
    """
    return _grid(i, n, Fraction)


def grid_q2(i: DyadicInterval, n: int) -> list["Q2"]:
    """`rational_grid(i, n)` as Q2 points, built from the integers."""
    return _grid(i, n, _rational_q2)


def _rational_q2(n: int, d: int) -> "Q2":
    return _reduced(n, 0, d)


def _grid(i: DyadicInterval, n: int, point) -> list:
    """The grid of `rational_grid`, each point built as point(numerator,
    denominator)."""
    first, last = grid_span(i, n)
    den = 1 << n
    pts = [point(j, den) for j in range(first, last + 1)]
    ln, un, d = i.ln, i.un, i.d
    if first > last or first * d != ln << n:
        pts.insert(0, point(ln, d))
    if un != ln and (first > last or last * d != un << n):
        pts.append(point(un, d))
    return pts


def least_exponent(n: int, d: int) -> int:
    """The least e >= 0 with 2^-e <= n/d, for n, d > 0: read off ceil(d/n)."""
    return (-(-d // n) - 1).bit_length()


def grid_depth_cap(iv: DyadicInterval) -> int:
    """Deepest grid that stays around 4k points on this interval: 12 plus
    the least e <= 80 with 2^-e <= width."""
    w = iv.un - iv.ln
    if not w:
        return 0
    return 12 + min(least_exponent(w, iv.d), 80)


def _check_precision(k: int):
    if k < 0:
        raise ValueError("precision exponent k must be >= 0, got %d" % k)


def _subinterval(p, q) -> DyadicInterval:
    (pn, pd), (qn, qd) = _ratio(p), _ratio(q)
    ln, un, d = pn * qd, qn * pd, pd * qd
    if not 0 <= ln < un <= d:
        raise ValueError("need rational endpoints 0 <= p < q <= 1")
    return DyadicInterval.of_ints(ln, un, d)


# --- fueled truth values ---------------------------------------------------

DEFAULT_FUEL = 64  # the budget of a search whose caller names none


class Truth(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@record
class FueledBool:
    """Three-valued answer of a simulated oracle query.

    YES/NO answers are sound and never flip at higher fuel; UNKNOWN records
    that the fuel budget ran out before the query was decided.
    """

    value: Truth
    fuel_spent: int = 0

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


def _least_denominator(ln: int, ld: int, hn: int, hd: int) -> tuple[int, int]:
    """(p, q) with p/q the simplest rational of the closed interval
    [ln/ld, hn/hd], 0 <= ln/ld <= hn/hd: the least denominator q, then the
    least numerator p (ties arise only at q = 1).  p/q is in lowest terms.

    The Stern-Brocot walk by continued fractions: take the least integer of
    the interval if there is one, else strip the common integer part f and
    continue on the reciprocal interval [1/(hi - f), 1/(lo - f)].  The map
    t -> (a t + b)/(c t + d) carries the current interval back to the first,
    so each step costs a few integer operations and there are O(log) steps.
    """
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


def _reciprocal(x: int, y: int, e: int) -> tuple[int, int, int]:
    """The reduced triple of e/(x + y sqrt2) for e > 0 and x + y sqrt2 != 0:
    e (x - y sqrt2)/(x^2 - 2 y^2), the conjugate over the norm."""
    n = x * x - 2 * y * y
    if n < 0:
        n, e = -n, -e
    p, q = e * x, -e * y
    g = math.gcd(p, q, n)
    return p // g, q // g, n // g


def _least_denominator_q2(lp: int, lq: int, ld: int, hp: int, hq: int, hd: int,
                          lo_open: bool) -> tuple[int, int]:
    """(p, q) with p/q the simplest rational of the nonempty interval [lo, hi],
    or of (lo, hi] when lo_open, whose ends are the integer triples
    lo = (lp + lq sqrt2)/ld and hi = (hp + hq sqrt2)/hd, ld, hd > 0 (not
    necessarily reduced), of either sign: the least denominator q, then the
    least numerator p.  p/q is in lowest terms; no `Q2` and no `Fraction`
    is built.

    The walk of `_least_denominator` with irrational ends, on the integers:
    the floor of an end is read through `math.isqrt`, its comparison with
    an integer through `_sign_int`, and the reciprocal step maps an end
    (x + y sqrt2)/e - f to e (x - y sqrt2)/(x^2 - 2 y^2), reduced by one
    gcd.  That step swaps which end is open, and an open integer lower end
    f sends the upper end to infinity (hd = 0).  Each pair of steps at
    least doubles c, and the answer's denominator c t + d >= c is at most
    1 + 1/w for an interval of width w, so the walk takes at most about
    2 log2(1 + 1/w) + 2 steps: O(n) for the width 2^-(n+1) of a band.
    """
    hi_open = False
    a, b, c, d = 1, 0, 0, 1
    while True:
        if lq:  # floor(lo) = floor((lp + floor(lq sqrt2))/ld); lo is irrational
            r = math.isqrt(2 * lq * lq)
            f, on_f = (lp + (r if lq > 0 else -r - 1)) // ld, False
        else:
            f, m = divmod(lp, ld)
            on_f = not m
        t = f if on_f and not lo_open else f + 1  # the least integer past the lower end
        s = _sign_int(hp - t * hd, hq) if hd else 1  # the sign of hi - t
        if s > 0 or (s == 0 and not hi_open):
            return a * t + b, c * t + d
        a, b, c, d = a * f + b, a, c * f + d, c
        lo = _reciprocal(hp - f * hd, hq, hd)
        hp, hq, hd = (0, 0, 0) if on_f else _reciprocal(lp - f * ld, lq, ld)
        lp, lq, ld = lo
        lo_open, hi_open = hi_open, lo_open


# --- value brackets ---------------------------------------------------------


class Bracket(_Ends):
    """A rational enclosure [lo, hi] of an exact real value."""

    __slots__ = ()
    _ORDER = "bracket out of order: [%s, %s]"
    _NAMES = ("lo", "hi")

    lo = property(_Ends._lo)
    hi = property(_Ends._hi)

    @staticmethod
    def point(v) -> "Bracket":
        n, d = _ratio(v)
        return Bracket.of_ints(n, n, d)

    @staticmethod
    def of_q2(x, k: int) -> "Bracket":
        return Bracket.of_ints(*Q2.of(x)._bracket_ints(k))

    @property
    def exact(self) -> bool:
        return self.ln == self.un

    def __add__(self, other: "Bracket") -> "Bracket":
        d, e = self.d, other.d
        return Bracket.of_ints(self.ln * e + other.ln * d, self.un * e + other.un * d, d * e)

    def __sub__(self, other: "Bracket") -> "Bracket":
        d, e = self.d, other.d
        return Bracket.of_ints(self.ln * e - other.un * d, self.un * e - other.ln * d, d * e)

    def __neg__(self) -> "Bracket":
        return Bracket.of_ints(-self.un, -self.ln, self.d)

    def scale(self, c) -> "Bracket":
        n, e = _ratio(c)
        if n >= 0:
            return Bracket.of_ints(self.ln * n, self.un * n, self.d * e)
        return Bracket.of_ints(self.un * n, self.ln * n, self.d * e)

    def join_max(self, other: "Bracket") -> "Bracket":
        d, e = self.d, other.d
        return Bracket.of_ints(max(self.ln * e, other.ln * d), max(self.un * e, other.un * d),
                               d * e)

    def join_min(self, other: "Bracket") -> "Bracket":
        d, e = self.d, other.d
        return Bracket.of_ints(min(self.ln * e, other.ln * d), min(self.un * e, other.un * d),
                               d * e)

    def to_interval(self) -> "DyadicInterval":
        return DyadicInterval.of_ints(self.ln, self.un, self.d)
