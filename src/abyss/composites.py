"""Functions built from others: sums, differences, scalar multiples and
restricted views."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import FuelExhausted
from .exact import Bracket, Q2, _rational, halve
from .piecewise import PiecewiseRational
from .universe import (ALL_TAGS, BAIRE1, BV, CERT_INF, CERT_OSC, CERT_SUP, CLIQUISH, CONTINUOUS,
                       LSCO, NORMALISED_BV, QUASI_CONTINUOUS, REGULATED, SIMPLY_CONTINUOUS, USCO,
                       SymbolicFn, _poly_of_ints)


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
