"""Indicators of closed sets and pointwise limits given by their
representations.  The spike, piecewise and composite families are reached
through the package's lazy exports, so an indicator loads none of them."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

import abyss

from .errors import NotPointwiseEvaluable, RepresentationInsufficient, UnsupportedVariant
from .exact import Bracket, Q2
from .sets import ComplementOfR2Open, CountableSet
from .universe import (BAIRE1, BV, CLIQUISH, CONTINUOUS, LSCO, QUASI_CONTINUOUS, REGULATED,
                       USCO, SymbolicFn)


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
        lo, hi = iv.lower, iv.upper
        covers = [a <= lo and b >= hi for a, b in self.components if a <= hi and b >= lo]
        return Bracket.point(1 if any(covers) else 0), Bracket.point(1 if covers else 0)

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

    def witness_depth(self, y: Q2) -> Optional[int]:
        """The probe depth past which no value above the rational y lies; None: unknown."""
        return None


class PennyKLimit(Baire1Limit):
    """The truncation sequence converging pointwise to the spike function,
    with convergence modulus m(x, j) = j and exact stabilization at the
    member's index."""

    def __init__(self, a_set: CountableSet):
        super().__init__(lambda n: abyss.PennyK(a_set, n),
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
        return abyss.Penny.spikes_above(y) if y > 0 else None


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
    ind = abyss.fn_sum(abyss.constant(1),
                       abyss.scalar_multiple(-1, Indicator(ComplementOfR2Open(open_rep))))
    return constant_seq_limit(ind)
