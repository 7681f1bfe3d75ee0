"""Functions built from others: sums, differences, scalar multiples and
restricted views."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .errors import FuelExhausted
from .exact import Bracket, halve, rational
from .piecewise import PiecewiseRational, constant
from .universe import (ALL_TAGS, BAIRE1, BV, CERT_INF, CERT_OSC, CERT_SUP, CLIQUISH, CONTINUOUS,
                       LSCO, NORMALISED_BV, QUASI_CONTINUOUS, REGULATED, SIMPLY_CONTINUOUS, USCO,
                       SymbolicFn, poly_of_ints)


def _merge_piecewise(f: PiecewiseRational, g: PiecewiseRational) -> PiecewiseRational:
    """f + g on the union of their cuts, in one walk over both cut lists: a
    part's value at a cut is read from its table at its own cut and from
    the piece around the cut otherwise."""
    fc, gc = f.cuts, g.cuts
    cuts, pieces, vals = [], [], []
    i = j = 0  # the next cut of f and of g; both lists end at 1
    while True:
        s = fc[i].cmp(gc[j])
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
        pieces.append(poly_of_ints(pf.n0 * gd + pg.n0 * fd, pf.n1 * gd + pg.n1 * fd,
                                   pf.n2 * gd + pg.n2 * fd, fd * gd))


def fn_sum(f: SymbolicFn, g: SymbolicFn) -> SymbolicFn:
    if isinstance(f, PiecewiseRational) and isinstance(g, PiecewiseRational):
        return _merge_piecewise(f, g)
    return Sum(f, g)


def fn_difference(f: SymbolicFn, g: SymbolicFn) -> SymbolicFn:
    return fn_sum(f, scalar_multiple(-1, g))


def scalar_multiple(c, f: SymbolicFn) -> SymbolicFn:
    if isinstance(f, PiecewiseRational):
        c = rational(c)
        cn, cd = c.as_integer_ratio()
        pieces = [poly_of_ints(cn * p.n0, cn * p.n1, cn * p.n2, cd * p.d) for p in f.pieces]
        vals = [v * c for v in f.bp_values]
        return PiecewiseRational(f.cuts, pieces, vals)
    return ScalarMultiple(c, f)


# the cells a sum's `range_on` may halve its interval into before it gives up
_SUM_CELLS = 256


class Combination(SymbolicFn):
    """c1 h1 + ... + cn hn: nonzero `Fraction` coefficients over atoms that
    are not combinations, so nested sums flatten into one list of `terms`.
    Like atoms (the same object) merge, a term whose coefficient reaches 0
    is dropped, and the piecewise atoms merge into one leading term.  Atom i
    is asked for `bits[i]` bits more than the whole: 1 per sum and
    extra(c) per multiple by c that it sits under."""

    def __init__(self, parts, tags, certificates=()):
        # parts: (coefficient, bits added, operand) per operand; an operand
        # that is a combination gives its terms, scaled
        atoms, pieces = {}, []  # id -> [c, bits, atom]; (c h, bits) per piecewise h
        for c, extra, f in parts:
            flat = ([(c * d, h, extra + b) for (d, h), b in zip(f.terms, f.bits)]
                    if isinstance(f, Combination) else [(c, f, extra)])
            for c, h, b in flat:
                if isinstance(h, PiecewiseRational):
                    pieces.append((h if c == 1 else scalar_multiple(c, h), b))
                elif id(h) in atoms:
                    term = atoms[id(h)]
                    term[0], term[1] = term[0] + c, max(term[1], b)
                else:
                    atoms[id(h)] = [c, b, h]
        terms = [((rational(c), h), b) for c, b, h in atoms.values() if c]
        if pieces:
            pw = reduce(_merge_piecewise, [h for h, _ in pieces])
            # a piecewise part is 0 when its values and its pieces' coefficients are
            if any(v.p or v.q for v in pw.bp_values) or any(p.n0 or p.n1 or p.n2 for p in pw.pieces):
                terms.insert(0, ((Fraction(1), pw), max(b for _, b in pieces)))
        self.terms, self.bits = zip(*terms) if terms else (((Fraction(1), constant(0)),), (0,))
        super().__init__(tags, certificates)

    def _eval(self, x):
        return reduce(operator.add, [h._eval(x) * c for c, h in self.terms])

    def _hull(self):
        ends = []
        for c, h in self.terms:
            lo, hi, lo_open, hi_open = h._hull()
            ends.append((lo * c, hi * c, lo_open, hi_open) if c > 0
                        else (hi * c, lo * c, hi_open, lo_open))
        lo, hi, lo_open, hi_open = zip(*ends)
        return reduce(operator.add, lo), reduce(operator.add, hi), any(lo_open), any(hi_open)

    def _cell(self, iv, k):
        """(iv, inf bracket, sup bracket) on iv, read off the terms' brackets
        [il, ih] on their infima and [sl, sh] on their suprema: sum il <= inf
        <= sum sh + min(ih - sh), and sum il + max(sl - il) <= sup <= sum sh.
        So where all terms but one take a single value, both are within
        2^-k."""
        ends = []
        for (c, h), b in zip(self.terms, self.bits):
            i, s = h.range_on(iv, k + b)
            ends += (i.scale(c), s.scale(c)) if c > 0 else (s.scale(c), i.scale(c))
        if len(ends) == 2:  # one term: the rule reads its brackets back
            return (iv, *ends)
        d = math.lcm(*(e.d for e in ends))  # every end over one denominator
        lows, highs = [e.ln * (d // e.d) for e in ends], [e.un * (d // e.d) for e in ends]
        il, sl, ih, sh = lows[::2], lows[1::2], highs[::2], highs[1::2]
        lo, hi = sum(il), sum(sh)
        return (iv, Bracket.of_ints(lo, hi + min(map(operator.sub, ih, sh)), d),
                Bracket.of_ints(lo + max(map(operator.sub, sl, il)), hi, d))

    def _range_on(self, iv, k):
        # branch and bound: while a side is wider than 2^-k, halve the cell
        # that holds its outer end
        cells = [self._cell(iv, k)]
        if len(self.terms) == 1:  # one term is within 2^-k in its one cell
            return cells[0][1:]
        while True:
            inf_b = reduce(Bracket.join_min, (c[1] for c in cells))
            sup_b = reduce(Bracket.join_max, (c[2] for c in cells))
            if (inf_b.un - inf_b.ln) << k > inf_b.d:  # wider than 2^-k
                cell = min(cells, key=lambda c: c[1].lo)
            elif (sup_b.un - sup_b.ln) << k > sup_b.d:
                cell = max(cells, key=lambda c: c[2].hi)
            else:
                return inf_b, sup_b
            if len(cells) == _SUM_CELLS:
                raise FuelExhausted("the range of a sum is not within 2^-%d after %d cells"
                                    % (k, _SUM_CELLS), best=(inf_b, sup_b))
            cells.remove(cell)
            cells += [self._cell(half, k) for half in halve(cell[0])]

    def special_points(self, iv, depth):
        return [p for _, h in self.terms for p in h.special_points(iv, depth)]

    def _one_sided_limit(self, p, side, k):
        lims = [h.one_sided_limit(p, side, k + b) for (_, h), b in zip(self.terms, self.bits)]
        if any(lim is None for lim in lims):
            return None
        return reduce(operator.add, (lim.scale(c) for lim, (c, _) in zip(lims, self.terms)))

    def jump_candidates(self, limit):
        seen = []
        for _, h in self.terms:
            for p in h.jump_candidates(limit):
                if all(p != q for q in seen):
                    seen.append(p)
        return (sorted(seen) if len(self.terms) > 1 else seen)[:limit]


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


class Sum(Combination):
    kind = "sum"

    def __init__(self, f: SymbolicFn, g: SymbolicFn):
        self.f = f
        self.g = g
        super().__init__([(1, 1, f), (1, 1, g)], _sum_tags(f.tags, g.tags))


# what a negative factor turns each tag or certificate into
_MIRROR = {USCO: LSCO, LSCO: USCO, CERT_SUP: CERT_INF, CERT_INF: CERT_SUP}


class ScalarMultiple(Combination):
    kind = "scalar-multiple"

    def __init__(self, c, f: SymbolicFn):
        self.c = c = rational(c)
        self.f = f
        if c == 0:
            tags, certs = ALL_TAGS, {CERT_SUP, CERT_INF, CERT_OSC}
        else:
            # normalised-BV stays: c*f keeps f(0)=0 and right-continuity
            mirror = _MIRROR if c < 0 else {}
            tags = {mirror.get(t, t) for t in f.tags}
            certs = {mirror.get(t, t) for t in f.certificates}
        # extra(c): the bits that keep |c| times f's brackets within 2^-k
        extra = max(0, c.numerator.bit_length() - c.denominator.bit_length() + 1)
        super().__init__([(c, extra, f)], tags, certs)


class RestrictedView(Combination):
    """The same function presented as a member of a weaker class: tags are cut
    down and certificates dropped, exactly how the adversarial arguments hand
    a function to a would-be algorithm.  It is the combination 1 f, and a
    view of an atom takes that atom's cluster bounds and witnesses."""

    kind = "restricted"

    def __init__(self, f: SymbolicFn, tags):
        tags = frozenset(tags)
        if not tags <= f.tags:
            raise ValueError("a restricted view cannot add tags")
        self.f = f
        super().__init__([(1, 0, f)], tags)
        (c, h), *rest = self.terms
        if not rest and c == 1:
            self.cluster_bounds, self._witness_above, self._witness_below = (
                h.cluster_bounds, h._witness_above, h._witness_below)


restrict_tags = RestrictedView
