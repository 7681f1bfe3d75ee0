"""Thomae's function, the rational-spike map: 1/q at the reduced rational
p/q, 0 at the irrationals."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exact import Q2, Bracket, DyadicInterval, Truth, least_denominator, reduced
from .universe import (BAIRE1, CERT_INF, CERT_OSC, CERT_SUP, CLIQUISH, Q0, REGULATED, USCO,
                       ZERO_BRACKET, SymbolicFn, irrational_inside)


class Thomae(SymbolicFn):
    """1/q at reduced p/q, 0 at irrationals.  Cliquish and usco but not
    quasi-continuous; carries structural certificates because its suprema,
    infima and oscillation are nevertheless decided by rational data."""

    kind = "thomae"

    def __init__(self):
        super().__init__({CLIQUISH, USCO, REGULATED, BAIRE1},
                         {CERT_SUP, CERT_INF, CERT_OSC})

    def _eval(self, x):
        return reduced(1, 0, x.d) if not x.q else Q0  # x.d is the reduced denominator

    def _hull(self):
        return Q2.of(0), Q2.of(1), False, False

    def min_denominator_in(self, iv: DyadicInterval, cap: int) -> Optional[tuple[Fraction, int]]:
        """(point, q) for the smallest denominator q <= cap with some reduced
        p/q in iv cap [0,1] (the least such p); None if there is none up to
        cap.  The walk of `exact.least_denominator` finds it in O(log)
        steps."""
        lo, hi, d = max(iv.ln, 0), min(iv.un, iv.d), iv.d
        if lo > hi:
            return None
        p, q = least_denominator(lo, d, hi, d)
        return (Fraction(p, q), q) if q <= cap else None

    def _range_on(self, iv, k):
        # the infimum is 0 (values 1/q get arbitrarily small, irrationals give
        # 0); the supremum is 1/q for the least denominator q in iv, up to a cap
        cap = 1 << (k + 2)
        q = least_denominator(iv.ln, iv.d, iv.un, iv.d)[1]
        return ZERO_BRACKET, Bracket.of_ints(1, 1, q) if q <= cap else Bracket.of_ints(0, 1, cap)

    def _witness_above(self, iv, y):
        if y <= 0:
            # every rational has a positive value, and endpoints are rational
            return Truth.YES, Q2.of(iv.lower)
        if y >= 1:
            return Truth.NO, None
        cap = int(1 / y)
        hit = self.min_denominator_in(iv, cap)
        if hit is not None and Fraction(1, hit[1]) > y:
            return Truth.YES, Q2.of(hit[0])
        return Truth.NO, None  # all spikes above y were enumerated

    def _witness_below(self, iv, y):
        if y <= 0:
            return Truth.NO, None
        return Truth.YES, irrational_inside(iv)

    def special_points(self, iv, depth):
        # spikes with denominator up to depth (the grid supplies dyadics)
        out = []
        for q in range(1, max(2, depth) + 1):
            lo = max(-(-iv.ln * q // iv.d), 0)
            hi = min(iv.un * q // iv.d, q)
            for p in range(lo, hi + 1):
                if math.gcd(p, q) == 1:
                    out.append(reduced(p, 0, q))
        return out

    def _one_sided_limit(self, p, side, k):
        return ZERO_BRACKET


thomae = Thomae
