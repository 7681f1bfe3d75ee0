"""Piecewise rational functions: polynomial pieces of degree at most 2
between rational cuts, with an explicit value at every cut."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import ConstructionError, DomainError
from .exact import Q2, Bracket, ratio, reduced
from .universe import (BAIRE1, BV, CLIQUISH, CONTINUOUS, LSCO, NORMALISED_BV, Q0, Q1,
                       QUASI_CONTINUOUS, REGULATED, SIMPLY_CONTINUOUS, USCO, Poly, SymbolicFn,
                       poly_of_ints)


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
        if m < 2 or cuts[0] != Q0 or cuts[-1] != Q1:
            raise ConstructionError("cuts must run from 0 to 1")
        shaped = len(pieces) == m - 1 and len(values) == m
        sides, critical = [], []
        # some limit above its value (not usco), below it (not lsco), a value
        # off every side it has (not quasi-continuous), a right limit off its
        # value (not cadlag): each limit is compared with its value once
        up = down = split = jump = False
        left = after = None
        for i, c in enumerate(cuts):
            if i and cuts[i - 1].cmp(c) >= 0:
                raise ConstructionError("cuts must be strictly increasing")
            if not shaped:
                continue
            v, right = values[i], pieces[i] if i < m - 1 else None
            before = sl = sr = None
            if left is not None:
                w = left.vertex
                if w is not None and cuts[i - 1] < w < c:
                    critical.append(w)
                # a constant piece (no vertex, no slope) has the left limit here
                # that it has as its right limit at the last cut
                before = left(c) if w is not None or left.n1 else after
                sl = before.cmp(v)
            critical.append(c)
            after = None
            if right is not None:
                after = right(c)
                sr = after.cmp(v)
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
                           (NORMALISED_BV, not jump and values[0] == Q0)):
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
            v = piece.vertex
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
        lo, hi = reduced(iv.ln, 0, iv.d), reduced(iv.un, 0, iv.d)
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
            if v.cmp(lo) < 0:
                lo = v
            elif v.cmp(hi) > 0:
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


def constant(c) -> PiecewiseRational:
    v = Q2.of(c)
    if not v.is_rational:
        raise ConstructionError("constant %s is irrational; Poly coefficients "
                                "are rational" % (v,))
    return PiecewiseRational((Q0, Q1), [poly_of_ints(v.p, 0, 0, v.d)], [v, v])


def linear(slope, intercept=0) -> PiecewiseRational:
    p = Poly(intercept, slope)
    return PiecewiseRational((Q0, Q1), [p], [p(Q0), p(Q1)])


def staircase(jumps) -> PiecewiseRational:
    """Cadlag step function: value 0 on [0, first jump), then each
    (pos, value) in order.  Its value at a cut is the level the cut starts,
    and at 1 the last level."""
    cuts, pieces, values = [Q0], [Poly(0)], [Q0]
    for pos, value in jumps:
        cuts.append(Q2.of(pos))
        n, d = ratio(value)
        pieces.append(poly_of_ints(n, 0, 0, d))
        values.append(reduced(n, 0, d))
    cuts.append(Q1)
    values.append(values[-1])
    return PiecewiseRational(cuts, pieces, values)
