"""Oracle-relative algorithms on the function universe: interval-halving
suprema and infima, pointwise oscillation, continuity and the moduli read
off the ball walk.  The points of continuity of the effective Baire category
construction live in `abyss.category`, and Cousin subcovers, separators and
ball codes in `abyss.covers`.

Every interval-valued result brackets the exact value; every point-valued
result comes with a certificate the caller can re-verify.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable

import abyss

from .collapse import Modulus, ball_clipped, ball_walk, osc_on, require_limit, require_rule
from .errors import FuelExhausted
from .exact import (DEFAULT_FUEL, Q2, DyadicInterval, FueledBool, Truth, check_precision,
                    grid_depth_cap, grid_of, ratio, reduced, sign_vs, subinterval)
from .universe import SymbolicFn, osc_exact, query_scope, threshold_precision

if TYPE_CHECKING:  # annotations only: the family is reached through `abyss`
    from .limits import Baire1Limit


# ---------------------------------------------------------------------------
# suprema and infima by value-axis interval halving
# ---------------------------------------------------------------------------


def _halve_values(lo: Fraction, hi: Fraction, k: int,
                  decide: Callable[[int, int], Truth],
                  keep_upper_on: Truth = Truth.YES) -> DyadicInterval:
    """Shrink [lo, hi] around the target value: keep the upper half when
    decide(n, m), asked about the midpoint n/m, answers `keep_upper_on`,
    else the lower half (deterministic tie-break).  The ends are ln/d and
    un/d, and each step doubles d."""
    (ln, d), (un, e) = ratio(lo), ratio(hi)
    ln, un, d = ln * e, un * d, d * e
    with query_scope():
        while (un - ln) << k > d:
            mid = ln + un
            answer = decide(mid, 2 * d)
            if answer is Truth.UNKNOWN:
                raise FuelExhausted("value search undecided below the target width",
                                    best=DyadicInterval.of_ints(ln, un, d))
            if answer is keep_upper_on:
                ln, un = mid, 2 * un
            else:
                ln, un = 2 * ln, mid
            d *= 2
    return DyadicInterval.of_ints(ln, un, d)


def _halve_extreme(f: SymbolicFn, iv: DyadicInterval, k: int, above: bool) -> DyadicInterval:
    """The halving of `sup_qc` (above) and `inf_usco`: the side's bracket, read
    at the first threshold, decides every midpoint on the integers when it
    is exact, and leaves each threshold to the family's witness when not."""
    lo, hi = f.range_bound()
    side = None

    def decide(n, m):
        nonlocal side
        if side is None:
            side = f.scoped_bracket(iv, threshold_precision(m // gcd(n, m)), above)
        if not side.exact:
            return (f.witness_above if above else f.witness_below)(iv, Fraction(n, m))[0]
        c = side.ln * m - n * side.d  # the sign of the extreme minus n/m
        return Truth.YES if (c > 0 if above else c < 0) else Truth.NO

    return _halve_values(lo, hi, k, decide, Truth.YES if above else Truth.NO)


def sup_qc(f: SymbolicFn, p, q, k: int) -> DyadicInterval:
    """Width-2^-k interval containing sup f over [p,q]; admitted for functions
    whose class collapses 'exists a value above y' to rational points."""
    check_precision(k)
    iv = subinterval(p, q)
    require_rule("ExistsValueAbove", f, "sup_qc")
    return _halve_extreme(f, iv, k, True)


def inf_usco(f: SymbolicFn, p, q, k: int) -> DyadicInterval:
    """Width-2^-k interval containing inf f over [p,q] for upper
    semicontinuous (bounded below) functions: no value below mid keeps the
    upper half."""
    check_precision(k)
    iv = subinterval(p, q)
    require_rule("ExistsValueBelow", f, "inf_usco")
    return _halve_extreme(f, iv, k, False)


def sup_baire1(f_rep: Baire1Limit, p, q, k: int, fuel: int = DEFAULT_FUEL) -> DyadicInterval:
    """Supremum of a pointwise limit consumed through its representation: the
    tail condition 'terms stay above the threshold' is bounded by the
    convergence modulus, making each halving step arithmetical; every
    midpoint is read off one probe walk, with no search."""
    check_precision(k)
    iv = subinterval(p, q)
    require_limit(f_rep, "sup_baire1")
    lo, hi = f_rep.range_bound()
    return _halve_values(lo, hi, k, abyss.oracle.baire1_midpoints(f_rep, iv, fuel))


# ---------------------------------------------------------------------------
# oscillation and continuity
# ---------------------------------------------------------------------------


def osc_point(f: SymbolicFn, x, k: int, fuel: int = DEFAULT_FUEL) -> DyadicInterval:
    """Width-2^-k interval containing the oscillation of f at x, computed as
    the decreasing limit of ball suprema minus ball infima and pinned by the
    exact cluster analysis of the universe."""
    check_precision(k)
    require_rule("OscBelow", f, "osc_point")
    p = Q2.of(x)
    limit_b = osc_exact(f, p, k + 1)  # width <= 2^-(k+2)
    lo = max(Fraction(0), limit_b.lo)
    # w.hi <= limit_b.hi + 2^-(k+2), cross-multiplied over w.d limit_b.d 2^(k+2)
    bound, e = (limit_b.un << (k + 2)) + limit_b.d, limit_b.d << (k + 2)
    for n, ball in ball_walk(p, fuel):
        w = osc_on(f, ball, k + 4)
        if w.un * e <= bound * w.d:
            hi = max(lo, min(w.hi, limit_b.hi))
            return DyadicInterval(lo, hi)
    raise FuelExhausted("ball oscillation did not close onto the cluster value",
                        best=DyadicInterval(lo, limit_b.hi))


def is_continuous_at(f: SymbolicFn, x, fuel: int = DEFAULT_FUEL) -> FueledBool:
    """Decide osc_f(x) = 0 through the collapsed formulas; YES and NO are
    exact on the built-in universe."""
    require_rule("OscBelow", f, "is_continuous_at")
    prec = min(fuel, 48)
    b = osc_exact(f, Q2.of(x), prec)
    if b.ln > 0:
        return FueledBool(Truth.NO, prec)
    if not b.un:
        return FueledBool(Truth.YES, prec)
    return FueledBool(Truth.UNKNOWN, fuel)


def modulus_continuity_qc(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """G(x, m): least ball exponent at which the oscillation around x drops
    to 2^-(m+1); satisfies the strict continuity-modulus bound at continuity
    points.  Total map: points outside every small-oscillation set get 0."""
    require_rule("OscBelow", f, "modulus_continuity_qc")

    def least(p, m):
        def gone(ball):  # oscillation above 2^-(m+1) on the smallest ball
            w = osc_on(f, ball, m + 6)
            return w.ln << (m + 1) > w.d

        for n, ball in ball_walk(p, fuel, gone=gone):
            w = osc_on(f, ball, m + 6)
            if w.un << (m + 1) <= w.d:  # oscillation <= 2^-(m+1)
                return n
        return 0

    return Modulus(least)


def modulus_qc(f: SymbolicFn, x, k: int, big_n: int,
               fuel: int = DEFAULT_FUEL) -> tuple[Fraction, Fraction]:
    """A rational open interval inside B(x, 2^-N) on which values stay within
    2^-k of f(x).

    Each candidate is checked by its interval range, over every point of it,
    so an interval is returned only when the bound holds on all of it.

    Candidates are integer numerators over one denominator; the ends of the
    one returned are the only `Fraction`s built.  A grid cell's range
    bracket holds its end values, so a cell with an end outside the caps
    fails unread: each grid point is evaluated once, when a cell first asks.
    """
    check_precision(k)
    p = Q2.of(x)
    fx = f.eval(p)
    tol = reduced(1, 0, 1 << k)
    lo_cap, hi_cap = fx - tol, fx + tol  # values must lie strictly between
    inside: dict = {}  # (numerator, denominator) of a grid point -> f there between the caps

    def in_band(c: int, den: int) -> bool:
        if (c, den) not in inside:
            inside[c, den] = lo_cap < f.eval(reduced(c, 0, den)) < hi_cap
        return inside[c, den]

    def candidate_ok(cn: int, dn: int, den: int) -> bool:
        """Whether f stays strictly between the caps on (cn/den, dn/den)."""
        inf_b, sup_b = f.range_on(DyadicInterval.of_ints(cn, dn, den), k + 4)
        return sign_vs(hi_cap, sup_b.un, sup_b.d) > 0 and sign_vs(lo_cap, inf_b.ln, inf_b.d) < 0

    ball_iv = ball_clipped(p, big_n)
    bn, bu, bd = ball_iv.ln, ball_iv.un, ball_iv.d
    for j in range(big_n + 2, big_n + 2 + min(fuel, 24)):
        # first, an interval straddling x itself: the bracket [lo/e, hi/e] of
        # x widened by 2^-j on each side, cut to the ball, over bd e 2^j
        lo, hi, e = p.bracket_ints(j + 2)
        den = bd * e << j
        cn = max(bn * e << j, ((lo << j) - e) * bd)
        dn = min(bu * e << j, ((hi << j) + e) * bd)
        if cn < dn and candidate_ok(cn, dn, den):
            return Fraction(cn, den), Fraction(dn, den)
        # then the pairs of `rational_grid(ball_iv, n)` as numerators over
        # bd 2^n, nearest to x first: by |(c + d)/2 - lo/e|, then by c
        n = min(j, grid_depth_cap(ball_iv))
        den = bd << n
        nums = grid_of(ball_iv, n, lambda num, d: num * (den // d))
        t = 2 * lo * den
        for c, d in sorted(zip(nums, nums[1:]),
                           key=lambda cd: (abs((cd[0] + cd[1]) * e - t), cd[0])):
            if in_band(c, den) and in_band(d, den) and candidate_ok(c, d, den):
                return Fraction(c, den), Fraction(d, den)
    raise FuelExhausted("no certified subinterval found within fuel")
