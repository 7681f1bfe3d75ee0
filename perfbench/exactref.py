"""Independent exact references for the benchmark's answer checks.

A number a + b*sqrt2 of Q(sqrt2) is a pair (a, b) of Fractions.  Nothing in
this module imports abyss: every expected value is recomputed from the
benchmark's own description of an instance (its "spec"), with integer square
roots where sqrt2 must be compared or floored, so a defect in the library's
kernel cannot hide in its own checker.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

ZERO = (F(0), F(0))


def pair(x):
    """A pair from a rational, an int, or a pair."""
    if isinstance(x, tuple):
        return x
    return (F(x), F(0))


def add(x, y):
    x, y = pair(x), pair(y)
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    x, y = pair(x), pair(y)
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    x, y = pair(x), pair(y)
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def sign(x):
    a, b = pair(x)
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    # opposite signs: |a| against |b| sqrt2, i.e. a^2 against 2 b^2
    d = a * a - 2 * b * b
    return sa if d > 0 else (-sa if d < 0 else 0)


def cmp(x, y):
    return sign(sub(x, y))


def lt(x, y):
    return cmp(x, y) < 0


def le(x, y):
    return cmp(x, y) <= 0


def pmax(values):
    best = None
    for v in values:
        if best is None or cmp(v, best) > 0:
            best = v
    return best


def pmin(values):
    best = None
    for v in values:
        if best is None or cmp(v, best) < 0:
            best = v
    return best


def pabs(x):
    return sub(ZERO, x) if sign(x) < 0 else pair(x)


def fmt(x):
    """A pair written as "a" or "a + b*sqrt2"; anything else as str()."""
    if not isinstance(x, tuple):
        return str(x)
    a, b = x
    return str(a) if b == 0 else "%s + %s*sqrt2" % (a, b)


def is_rational(x):
    return pair(x)[1] == 0


def floor_scaled(x, k):
    """floor(x * 2^k) exactly, via isqrt."""
    a, b = pair(x)
    a, b = a * (1 << k), b * (1 << k)
    q = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    p, r = int(a * q), int(b * q)
    if r == 0:
        return p // q
    m = math.isqrt(2 * r * r)  # r sqrt2 lies strictly between m and m + 1
    return (p + m) // q if r > 0 else (p - m - 1) // q


def bits_of(x, k):
    """The first k binary digits of x in (0, 1), as a string."""
    return format(floor_scaled(x, k), "b").zfill(k)


def in_closed(x, lo, hi):
    return le(lo, x) and le(x, hi)


# --- seed sets ----------------------------------------------------------------


class SeedSet:
    """The canonical set sqrt2/2^(n+1) (points=None) or a finite list of
    irrational pairs, with the same enumeration the library is handed."""

    def __init__(self, points=None):
        self.points = points

    @property
    def size(self):
        return None if self.points is None else len(self.points)

    def member(self, n):
        if self.points is None:
            return (F(0), F(1, 1 << (n + 1)))
        return self.points[n]

    def first_index_in(self, lo, hi, cutoff=None):
        """Least index of a member inside [lo, hi], or None."""
        if self.points is not None:
            for n, p in enumerate(self.points):
                if cutoff is not None and n > cutoff:
                    return None
                if in_closed(p, lo, hi):
                    return n
            return None
        n = 0
        while lt(hi, self.member(n)):  # members descend towards 0
            n += 1
            if cutoff is not None and n > cutoff:
                return None
        if le(lo, self.member(n)) and (cutoff is None or n <= cutoff):
            return n
        return None

    def index_of(self, x):
        if self.points is None:
            a, b = pair(x)
            if a != 0 or b <= 0 or b.numerator != 1:
                return None
            d = b.denominator
            return d.bit_length() - 2 if d & (d - 1) == 0 and d >= 2 else None
        for n, p in enumerate(self.points):
            if cmp(p, x) == 0:
                return n
        return None


# --- reference functions --------------------------------------------------------
#
# A spec is a tuple whose first entry names the family:
#   ("pw", cuts, polys, values)   piecewise polynomial, polys as (c0, c1, c2)
#   ("thomae",)
#   ("penny", SeedSet, cutoff)    cutoff None for the untruncated family
#   ("ind-points", [rationals])   indicator of a finite point set
#   ("ind-complement", [(a, b)])  indicator of [0,1] minus open intervals
#   ("sum", spec, spec)
#   ("scale", c, spec)


def poly_at(c, x):
    return add(add(pair(c[0]), mul(c[1], x)), mul(c[2], mul(x, x)))


def poly_vertex(c):
    return None if c[2] == 0 else -c[1] / (2 * c[2])


def pw_locate(spec, x):
    """('cut', i) or ('piece', j) for x in [0, 1]."""
    cuts = spec[1]
    for i, c in enumerate(cuts):
        s = cmp(x, c)
        if s == 0:
            return "cut", i
        if s < 0:
            return "piece", i - 1
    raise ValueError("point outside [0,1]")


def value(spec, x):
    kind = spec[0]
    if kind == "pw":
        where, i = pw_locate(spec, x)
        return pair(spec[3][i]) if where == "cut" else poly_at(spec[2][i], x)
    if kind == "thomae":
        return (F(1, x[0].denominator), F(0)) if is_rational(x) else ZERO
    if kind == "penny":
        n = spec[1].index_of(x)
        if n is None or (spec[2] is not None and n > spec[2]):
            return ZERO
        return (F(1, 1 << (n + 1)), F(0))
    if kind == "ind-points":
        return (F(1), F(0)) if any(cmp(x, p) == 0 for p in spec[1]) else ZERO
    if kind == "ind-complement":
        inside = any(lt(a, x) and lt(x, b) for a, b in spec[1])
        return ZERO if inside else (F(1), F(0))
    if kind == "sum":
        return add(value(spec[1], x), value(spec[2], x))
    if kind == "scale":
        return mul(spec[1], value(spec[2], x))
    raise ValueError(kind)


def _pw_candidates(spec, lo, hi):
    """Values whose max and min are the sup and inf over [lo, hi]."""
    _, cuts, polys, vals = spec
    out = [pair(v) for c, v in zip(cuts, vals) if in_closed(c, lo, hi)]
    for j, c in enumerate(polys):
        s, t = pmax([cuts[j], lo]), pmin([cuts[j + 1], hi])
        if cmp(s, t) < 0:
            out.append(poly_at(c, s))
            out.append(poly_at(c, t))
            v = poly_vertex(c)
            if v is not None and lt(s, v) and lt(v, t):
                out.append(poly_at(c, v))
        elif cmp(s, t) == 0 and cmp(s, cuts[j]) != 0 and cmp(s, cuts[j + 1]) != 0:
            out.append(poly_at(c, s))
    return out


def min_denominator_in(lo, hi):
    q = 1
    while True:
        if floor_scaled(hi * q, 0) >= -floor_scaled(-lo * q, 0):
            return q
        q += 1


def sup_inf(spec, lo, hi):
    """Exact (sup, inf) of the spec over the closed interval [lo, hi]."""
    lo, hi = pair(lo), pair(hi)
    kind = spec[0]
    if cmp(lo, hi) == 0:
        v = value(spec, lo)
        return v, v
    if kind == "pw":
        cands = _pw_candidates(spec, lo, hi)
        return pmax(cands), pmin(cands)
    if kind == "thomae":
        return (F(1, min_denominator_in(lo[0], hi[0])), F(0)), ZERO
    if kind == "penny":
        n = spec[1].first_index_in(lo, hi, spec[2])
        return (ZERO if n is None else (F(1, 1 << (n + 1)), F(0))), ZERO
    if kind == "ind-points":
        hit = any(in_closed(p, lo, hi) for p in spec[1])
        return (F(int(hit)), F(0)), ZERO
    if kind == "ind-complement":
        covered = any(lt(a, lo) and lt(hi, b) for a, b in spec[1])
        meets = any(lt(lo, b) and lt(a, hi) for a, b in spec[1])
        return (F(0 if covered else 1), F(0)), (F(0 if meets else 1), F(0))
    if kind == "scale":
        s, i = sup_inf(spec[2], lo, hi)
        c = spec[1]
        return (mul(c, s), mul(c, i)) if c >= 0 else (mul(c, i), mul(c, s))
    if kind == "sum" and spec[1][0] == "pw" and len(spec[1][1]) == 2 \
            and spec[1][2][0][1:] == (0, 0):
        c = spec[1][2][0][0]  # constant summand: shift the other's range
        s, i = sup_inf(spec[2], lo, hi)
        return add(s, c), add(i, c)
    if kind == "sum" and spec[1][0] == spec[2][0] == "ind-points":
        pts = [p for p in spec[1][1] + spec[2][1] if in_closed(p, lo, hi)]
        vals = [value(spec, p) for p in pts] + [ZERO]
        return pmax(vals), ZERO
    raise ValueError("no reference range for %r" % (kind,))


def oscillation(spec, x):
    """Exact oscillation at x: spread of the value and both one-sided limits
    (piecewise), or the value itself (Thomae, spike families)."""
    if spec[0] == "pw":
        where, i = pw_locate(spec, x)
        if where == "piece":
            return ZERO
        vals = [pair(spec[3][i])]
        if i > 0:
            vals.append(poly_at(spec[2][i - 1], x))
        if i < len(spec[2]):
            vals.append(poly_at(spec[2][i], x))
        return sub(pmax(vals), pmin(vals))
    if spec[0] in ("thomae", "penny"):
        return value(spec, x)
    raise ValueError(spec[0])


def one_sided(spec, x, side):
    """Limit of a piecewise spec at x from the left (-1) or right (+1); None
    where there is no approach from that side."""
    if (sign(x) <= 0 and side < 0) or (cmp(x, 1) >= 0 and side > 0):
        return None
    where, i = pw_locate(spec, x)
    if where == "piece":
        return poly_at(spec[2][i], x)
    return poly_at(spec[2][i - 1 if side < 0 else i], x)


def variation(spec, x):
    """Exact total variation of a piecewise spec on [0, x]: between adjacent
    critical points one polynomial is monotone, so each cell adds its jump in,
    its run, and its jump out."""
    _, cuts, polys, vals = spec
    pts = {F(0), F(x)}
    for j, c in enumerate(polys):
        if cuts[j] < x:
            pts.add(cuts[j])
        v = poly_vertex(c)
        if v is not None and cuts[j] < v < cuts[j + 1] and v < x:
            pts.add(v)
    pts = sorted(pts)
    total = ZERO
    for u, v in zip(pts, pts[1:]):
        where, j = pw_locate(spec, pair((u + v) / 2))
        ru, lv = poly_at(polys[j], u), poly_at(polys[j], v)
        for d in (sub(value(spec, u), ru), sub(lv, ru), sub(value(spec, v), lv)):
            total = add(total, pabs(d))
    return total


def covers_unit(balls):
    """Whether the open balls (centre, radius) cover [0, 1]."""
    reach, started = F(0), False
    for lo, hi in sorted((c - r, c + r) for c, r in balls):
        if not started:
            if lo < 0 <= hi:
                reach, started = hi, True
            continue
        if lo >= reach:
            break
        reach = max(reach, hi)
    return started and reach > 1


# --- the banded copy ---------------------------------------------------------------


def shift_into_band(a, n):
    """(q, index) for the first rational q of the fixed enumeration of
    Q cap [-1, 1] (by denominator, then numerator) with a - q in
    [2^-(n+1), 2^-n); found denominator by denominator, not by walking the
    enumeration."""
    lo = sub(a, F(1, 1 << n))          # q > lo
    hi = sub(a, F(1, 1 << (n + 1)))    # q <= hi
    before = 0
    d = 1
    while True:
        p_min = floor_scaled(mul(lo, d), 0) + 1
        p_max = floor_scaled(mul(hi, d), 0)
        lo_p, hi_p = max(p_min, -d), min(p_max, d)
        if d == 1:
            if lo_p <= hi_p:
                return F(lo_p), before + (lo_p + 1)
            before = 3
        else:
            for p in range(lo_p, hi_p + 1):
                if p != 0 and math.gcd(abs(p), d) == 1:
                    rank = sum(1 for t in range(-d + 1, p)
                               if t != 0 and math.gcd(abs(t), d) == 1)
                    return F(p, d), before + rank
            before += 2 * sum(1 for t in range(1, d) if math.gcd(t, d) == 1)
        d += 1
