"""Finite subcovers, separators and codes: Cousin subcovers from a gauge,
the usco separator of two disjoint closed sets, and the conversion of a
radius-function open set into a rational-ball code.

A subcover is verified by exact interval arithmetic before it is returned.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING

import abyss

from .collapse import require_limit
from .errors import ClassRefusal, FuelExhausted
from .exact import DEFAULT_FUEL, DyadicInterval, least_exponent, unit_rationals
from .sets import ComplementOfR2Open, R2Rep, RMCode
from .universe import LSCO, QUASI_CONTINUOUS, SymbolicFn

if TYPE_CHECKING:  # annotations only: the families are reached through `abyss`
    from .limits import Baire1Limit, Indicator


# ---------------------------------------------------------------------------
# Cousin subcovers
# ---------------------------------------------------------------------------


def _merge_open(components: list[tuple[int, int]], lo: int, hi: int):
    """Merge the open interval (lo, hi), lo < hi, into the sorted disjoint
    open intervals `components`, in place, all ends numerators over one
    denominator.  Two that only touch stay apart: their common end is
    covered by neither."""
    # components[i:j] are those that overlap (lo, hi): upper end past lo, lower end before hi
    i = bisect_right(components, lo, key=itemgetter(1))
    j = bisect_left(components, hi, lo=i, key=itemgetter(0))
    if i < j:
        lo = min(lo, components[i][0])
        hi = max(hi, components[j - 1][1])
    components[i:j] = [(lo, hi)]
    return lo, hi


def cousin_subcover(psi: SymbolicFn, fuel: int = DEFAULT_FUEL) -> list[tuple[Fraction, Fraction]]:
    """A finite prefix of the fixed rational enumeration whose gauge balls
    cover [0,1], verified by exact interval arithmetic.

    The union of the open balls is kept incrementally, as sorted disjoint
    components into which each new ball is merged by bisection; the prefix
    ends when one component holds [0,1].  The components' ends are
    numerators over one denominator, the lcm of the balls' own, so only the
    centre and radius of each ball are `Fraction`s."""
    if not (QUASI_CONTINUOUS in psi.tags or LSCO in psi.tags):
        raise ClassRefusal(
            "cousin_subcover", "quasi-continuous or lsco tag", psi,
            statement="rational-centred gauge balls exhaust the interval only "
            "under these tags; the cliquish and usco covering instances defeat "
            "every ball multiset drawn from their banded copy")
    if not psi.is_positive():
        raise ClassRefusal("cousin_subcover", "a strictly positive gauge", psi)
    balls: list[tuple[Fraction, Fraction]] = []
    union: list[tuple[int, int]] = []
    den = 1  # the components' denominator
    gen = unit_rationals()
    bound = 1 << min(fuel, 12)
    for n in range(bound):
        q = next(gen)
        v = psi.eval(q)
        r = v.as_rational() if v.is_rational else v.bracket(24)[0]
        balls.append((q, r))
        if r > 0:  # a ball of radius <= 0 is empty
            (qn, qd), (rn, rd) = q.as_integer_ratio(), r.as_integer_ratio()
            e = qd * rd  # q -/+ r = (qn rd -/+ rn qd)/e
            if den % e:
                m = e // math.gcd(den, e)
                union = [(a * m, b * m) for a, b in union]
                den *= m
            m = den // e
            lo, hi = _merge_open(union, (qn * rd - rn * qd) * m, (qn * rd + rn * qd) * m)
            if lo < 0 and hi > den:
                return balls
    raise FuelExhausted("enumeration prefix did not cover the interval",
                        best=balls)


# ---------------------------------------------------------------------------
# separators and representation conversion
# ---------------------------------------------------------------------------


def _closed_sets_intersect(c0, c1) -> bool:
    return any(max(a, c) <= min(b, d)
               for a, b in c0.component_intervals()
               for c, d in c1.component_intervals())


def usco_separator(c0, c1) -> Indicator:
    """The characteristic function of c1: evaluates 1 on c1, 0 on c0, and is
    upper semicontinuous (and cliquish)."""
    if _closed_sets_intersect(c0, c1):
        raise ValueError("closed sets intersect; no separator exists")
    return abyss.Indicator(c1)


def _rational_interval_stream():
    """Fixed enumeration of nondegenerate rational intervals in [0,1]."""
    rats: list[Fraction] = []
    for b in unit_rationals():
        for a in rats:
            yield (min(a, b), max(a, b))
        rats.append(b)


def rm_code_from_r2_baire1(o_rep: R2Rep, ind_rep: Baire1Limit,
                           fuel: int = DEFAULT_FUEL) -> RMCode:
    """Convert a radius-function open set, given also a pointwise-limit
    representation of its indicator (with convergence modulus), into a
    rational-ball code: per enumerated rational interval, emit the interval
    itself when the indicator's infimum on it is positive, else re-emit the
    seed ball.  The indicator must be 0 on each closed component of the
    set's complement; a set that misses (0, 1) gets the empty code."""
    require_limit(ind_rep, "rm_code_from_r2_baire1")
    components = ComplementOfR2Open(o_rep).component_intervals()
    for a, b in components:
        _, sup_b = ind_rep.range_on(DyadicInterval(a, b), 1)
        if sup_b.lo > 0:
            raise ValueError("representation mismatch: positive indicator value "
                             "outside the set")
    if components == [(0, 1)]:
        return RMCode((), prefix_of_infinite=False)
    seed = None
    gen = unit_rationals()
    for _ in range(1 << 12):
        x0 = next(gen)
        if o_rep.contains(x0):
            r = o_rep.radius(x0)
            seed = (x0, Fraction(1, 1 << least_exponent(r.numerator, r.denominator)))
            break
    if seed is None:
        raise FuelExhausted("no rational seed point found in the set")
    balls = []
    stream = _rational_interval_stream()
    for _ in range(max(fuel, 16)):
        p, q = next(stream)
        # a {0,1}-valued indicator within 2^-1: a positive infimum is 1
        inf_b, _ = ind_rep.range_on(DyadicInterval(p, q), 1)
        balls.append(((p + q) / 2, (q - p) / 2) if inf_b.lo > 0 else seed)
    return RMCode.from_balls(balls, prefix_of_infinite=True)
