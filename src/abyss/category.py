"""Points of continuity by the effective Baire category construction:
nested rational balls drawn from the small-oscillation open sets (the
quasi-continuous and cliquish case) or from the dense threshold sets of an
upper semicontinuous function, and the usco moduli that give their radii.

Every point returned comes with a certificate the caller can re-verify.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional

import abyss

from .collapse import Modulus, ball_walk, osc_on, require_rule, require_tag
from .errors import FuelExhausted, InvalidModulus
from .exact import (DEFAULT_FUEL, Q2, DyadicInterval, check_precision, least_exponent, ratio,
                    reduced, sign, sign_vs)
from .universe import USCO, SymbolicFn, osc_exact, query_scope, query_state


# ---------------------------------------------------------------------------
# points of continuity via the effective Baire category construction
# ---------------------------------------------------------------------------


def interior_numerators(iv: DyadicInterval, depth: int) -> Iterator[int]:
    """The numerators j of the grid points j/2^depth at least width/8 from
    both ends of iv, nearest the midpoint first (the lower one on a tie): a
    walk down and a walk up from the midpoint, merged."""
    ln, un, d = iv.ln, iv.un, iv.d
    if ln == un:
        return
    first = -(-((7 * ln + un) << depth) // (8 * d))
    last = ((ln + 7 * un) << depth) // (8 * d)
    # e j - mid is e times j's offset from the midpoint; the inner ends lie
    # either side of it, so first <= down + 1 and down <= last
    mid, e = (ln + un) << depth, 2 * d
    down = mid // e
    up = down + 1
    while down >= first or up <= last:
        if up > last or down >= first and mid - e * down <= e * up - mid:
            yield down
            down -= 1
        else:
            yield up
            up += 1


def _room(j: DyadicInterval, cn: int, cd: int) -> tuple[int, int]:
    """min(width/4, c - lower, upper - c) for c = cn/cd inside j, as (n, d)."""
    ln, un, d = j.ln, j.un, j.d
    return (min((un - ln) * cd, 4 * (cn * d - ln * cd), 4 * (un * cd - cn * d)),
            4 * d * cd)


def _next_ball(j: DyadicInterval,
               place: Callable[[int, int], Optional[DyadicInterval]]
               ) -> Optional[DyadicInterval]:
    """The first ball place(cn, cd) grants at an interior candidate cn/cd of
    j, over twelve grid depths from the first one finer than j/4; None if
    none is granted."""
    depth0 = max(1, least_exponent(j.un - j.ln, 4 * j.d))
    for depth in range(depth0, depth0 + 12):
        den = 1 << depth
        for cn in interior_numerators(j, depth):
            ball = place(cn, den)
            if ball is not None:
                return ball
    return None


def point_of_continuity_qc(f: SymbolicFn, k: int, fuel: int = DEFAULT_FUEL) -> Fraction:
    """A dyadic point whose oscillation is certified <= 2^-k, found by nested
    rational balls drawn from the small-oscillation open sets.

    A stage's first ball lies inside the last granted ball, so it is granted
    without a read when the bracket that granted that ball has its upper end
    at most 2^-m - 2^-(m+7): the skipped read's upper end would lie at most
    2^-(m+7) above the true oscillation, which that bracket bounds."""
    check_precision(k)
    require_rule("OscBelow", f, "point_of_continuity_qc")
    j = DyadicInterval.of_ints(0, 1, 1)
    held = None  # the bracket read on the ball that holds j
    for m in range(k + 1):
        def gone(ball):  # oscillation above 2^-m on the smallest ball
            w = osc_on(f, ball, m + 6)
            return w.ln << m > w.d

        def place(cn, cd):
            nonlocal held
            n_size = least_exponent(*_room(j, cn, cd))
            if held is not None and held.un << (m + 7) <= 127 * held.d and n_size <= fuel:
                s = n_size + 1
                return DyadicInterval.of_ints((cn << s) - cd, (cn << s) + cd, cd << s)
            for n, ball in ball_walk(reduced(cn, 0, cd), fuel, n_size, gone):
                w = osc_on(f, ball, m + 6)
                if w.un << m <= w.d:  # oscillation <= 2^-m
                    held, s = w, n + 1
                    return DyadicInterval.of_ints((cn << s) - cd, (cn << s) + cd, cd << s)
                # a low end above 2^-m proves nothing about a smaller ball,
                # whose oscillation may be less; the smallest ball's check
                # is the proof, and past 25 balls the search gives up
                if w.ln << m > w.d and n > n_size + 24:
                    return None
            return None

        # every candidate's room is at most j/4, so past the fuel no ball fits
        fits = least_exponent(j.un - j.ln, 4 * j.d) <= fuel
        ball = _next_ball(j, place) if fits else None
        if ball is None:
            raise FuelExhausted("no small-oscillation ball found inside the "
                                "current interval", best=j)
        j = ball
    return j.midpoint


def _least_ball_below(f: SymbolicFn, p: Q2, cap: Q2, k: int, fuel: int) -> Optional[int]:
    """Least n <= fuel whose clipped ball B(p, 2^-n) has its supremum,
    bracketed to 2^-(k+6), strictly below cap; None if there is none.  Each
    ball's range is kept in the query scope under ("range", f, ln, un, d)
    with its precision.  A kept bracket is used again when it was read at
    this precision, or at a coarser one with its sup exact (a finer read
    only tightens), so the answer is a fresh read's."""
    scope, prec = query_state(), k + 6
    for n, ball in ball_walk(p, fuel):
        key = ("range", f, ball.ln, ball.un, ball.d)
        kept = scope.get(key)
        if kept is None or kept[0] != prec and not (kept[0] < prec and kept[1][1].exact):
            kept = scope[key] = prec, f.range_on(ball, prec)
        sup_b = kept[1][1]
        if sign_vs(cap, sup_b.un, sup_b.d) > 0:  # the bracket's upper end below cap
            return n
    return None


def natural_usco_modulus(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """Radius map witnessing upper semicontinuity: all values on
    B(x, radius(x,k)) stay below f(x) + 2^-k; the canonical one, computed
    from exact ball suprema."""
    require_tag(f, USCO, "natural_usco_modulus")

    def radius(p, k):
        n = _least_ball_below(f, p, reduced(1, 0, 1 << k) + f.eval(p), k, fuel)
        if n is None:
            raise FuelExhausted("no witnessing ball found within fuel")
        return Fraction(1, 1 << n)

    return Modulus(radius)


def point_of_continuity_usco(f: SymbolicFn, psi: Callable, k: int,
                             fuel: int = DEFAULT_FUEL) -> Fraction:
    """Nested construction through the dense open threshold sets
    O_t = {x : f(x) < t or f >= t on a whole rational ball around x}, with
    radii drawn from the usco modulus or the least-exponent ball witness.

    Thresholds run down the dyadic subfamily t_i = inf + (range+1) 2^-i,
    which is cofinal for the oscillation certificate.  A radius psi gives
    that is not positive raises InvalidModulus.  One query scope spans the
    stages, so a psi that reads ball suprema through `_least_ball_below`
    (the natural usco modulus, G0) keeps them from stage to stage.
    """
    check_precision(k)
    require_tag(f, USCO, "point_of_continuity_usco")
    (an, ad), (bn, bd) = map(ratio, f.range_bound())
    den = ad * bd  # rl = lo_n/den and span = rh - rl + 1 = span_n/den
    lo_n, span_n = an * bd, bn * ad - an * bd + den
    j = DyadicInterval.of_ints(0, 1, 1)
    stage = 1
    with query_scope():  # the ball suprema the radii read, kept across stages
        while True:
            tn, td = (lo_n << stage) + span_n, den << stage  # t = rl + span 2^-stage
            tq = reduced(tn, 0, td)

            def place(cn, cd):
                p = reduced(cn, 0, cd)
                fc = f.eval(p)
                if fc < tq:
                    # the least k0 with 2^-k0 <= gap, read off a rational gap and
                    # walked up to for an irrational one
                    gap = tq - fc
                    k0 = 0 if gap.q else least_exponent(gap.p, gap.d)
                    while k0 <= fuel and sign((gap.p << k0) - gap.d, gap.q << k0) < 0:
                        k0 += 1
                    if k0 > fuel:
                        return None
                    c = Fraction(cn, cd)
                    radius = psi(c, k0)
                    if radius <= 0:
                        raise InvalidModulus("usco modulus gave the radius %s at %s"
                                             % (radius, c))
                    rn, rd = ratio(radius)
                else:
                    res = abyss.mu_search(abyss.ValueBelowOnBall(f, p, Fraction(tn, td),
                                                                 min(fuel, 24)))
                    if not isinstance(res, abyss.Found):
                        return None
                    rn, rd = 1, 1 << res.witness.value
                # the half-width s = min(radius, width/4, c - lower, upper - c) / 2
                sn, sd = _room(j, cn, cd)
                if rn * sd < sn * rd:
                    sn, sd = rn, rd
                sd *= 2
                return DyadicInterval.of_ints(cn * sd - sn * cd, cn * sd + sn * cd, cd * sd)

            ball = _next_ball(j, place)
            if ball is None:
                raise FuelExhausted("no threshold-set ball found inside the current "
                                    "interval", best=j)
            j = ball
            if span_n << (k + 1) <= den << stage:  # span 2^-stage <= 2^-(k+1)
                cert = osc_exact(f, reduced(j.ln + j.un, 0, 2 * j.d), k + 1)
                if cert.un << k <= cert.d:  # its upper end <= 2^-k
                    return j.midpoint
            stage += 1
            if stage > fuel:
                raise FuelExhausted("certificate did not close within fuel",
                                    best=j)


def lsco_modulus_on_cf(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """G0(x, k): least ball exponent with the ball supremum strictly below
    f(x) + 2^-(k+1); a semicontinuity modulus whenever x is a continuity
    point.  Total: falls back to the fuel bound."""
    require_tag(f, USCO, "lsco_modulus_on_cf")

    def least(p, k):
        cap = f.eval(p) + reduced(1, 0, 2 << k)
        n = _least_ball_below(f, p, cap, k, fuel)
        return fuel if n is None else n

    return Modulus(least)
