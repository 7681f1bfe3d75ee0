"""Oracle-relative algorithms on the function universe: interval-halving
suprema and infima, pointwise oscillation, continuity points via the
effective Baire category construction, modulus extraction, finite subcovers,
and set/representation conversions.

Every interval-valued result brackets the exact value; every point-valued
result comes with a certificate the caller can re-verify.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

import abyss

from .errors import ClassRefusal, FuelExhausted, InvalidModulus
from .exact import (DyadicInterval, FueledBool, Q2, Truth, _grid, _ratio,
                    _rational, _reduced, _sign_int, _vs, least_exponent, unit_rationals)
from .oracle import (DEFAULT_FUEL, Baire1Above, Found, Modulus,
                     ValueBelowOnBall, _ball_clipped, _ball_walk, _osc_on,
                     grid_depth_cap, mu_search, require_limit, require_rule,
                     require_tag)
from .sets import ComplementOfR2Open, R2Rep, RMCode
from .universe import (LSCO, QUASI_CONTINUOUS, USCO, SymbolicFn, osc_exact, query_scope,
                       query_state, threshold_precision)

if TYPE_CHECKING:  # annotations only: the families are reached through `abyss`
    from .limits import Baire1Limit, Indicator


def _check_precision(k: int):
    if k < 0:
        raise ValueError("precision exponent k must be >= 0, got %d" % k)


def _subinterval(p, q) -> DyadicInterval:
    p, q = _rational(p), _rational(q)
    if not (0 <= p < q <= 1):
        raise ValueError("need rational endpoints 0 <= p < q <= 1")
    return DyadicInterval(p, q)


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
    (ln, d), (un, e) = _ratio(lo), _ratio(hi)
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
    _check_precision(k)
    iv = _subinterval(p, q)
    require_rule("ExistsValueAbove", f, "sup_qc")
    return _halve_extreme(f, iv, k, True)


def inf_usco(f: SymbolicFn, p, q, k: int) -> DyadicInterval:
    """Width-2^-k interval containing inf f over [p,q] for upper
    semicontinuous (bounded below) functions: no value below mid keeps the
    upper half."""
    _check_precision(k)
    iv = _subinterval(p, q)
    require_rule("ExistsValueBelow", f, "inf_usco")
    return _halve_extreme(f, iv, k, False)


def sup_baire1(f_rep: Baire1Limit, p, q, k: int, fuel: int = DEFAULT_FUEL) -> DyadicInterval:
    """Supremum of a pointwise limit consumed through its representation: the
    tail condition 'terms stay above the threshold' is bounded by the
    convergence modulus, making each halving step arithmetical."""
    _check_precision(k)
    iv = _subinterval(p, q)
    require_limit(f_rep, "sup_baire1")
    lo, hi = f_rep.range_bound()

    def above(n, m):
        found = isinstance(mu_search(Baire1Above(f_rep, iv, Fraction(n, m), fuel)), Found)
        return Truth.YES if found else Truth.NO

    return _halve_values(lo, hi, k, above)


# ---------------------------------------------------------------------------
# oscillation and continuity
# ---------------------------------------------------------------------------


def osc_point(f: SymbolicFn, x, k: int, fuel: int = DEFAULT_FUEL) -> DyadicInterval:
    """Width-2^-k interval containing the oscillation of f at x, computed as
    the decreasing limit of ball suprema minus ball infima and pinned by the
    exact cluster analysis of the universe."""
    _check_precision(k)
    require_rule("OscBelow", f, "osc_point")
    p = Q2.of(x)
    limit_b = osc_exact(f, p, k + 1)  # width <= 2^-(k+2)
    lo = max(Fraction(0), limit_b.lo)
    # w.hi <= limit_b.hi + 2^-(k+2), cross-multiplied over w.d limit_b.d 2^(k+2)
    bound, e = (limit_b.un << (k + 2)) + limit_b.d, limit_b.d << (k + 2)
    for n, ball in _ball_walk(p, fuel):
        w = _osc_on(f, ball, k + 4)
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
    if b.lo > 0:
        return FueledBool(Truth.NO, prec)
    if b.hi == 0:
        return FueledBool(Truth.YES, prec)
    return FueledBool(Truth.UNKNOWN, fuel)


def modulus_continuity_qc(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """G(x, m): least ball exponent at which the oscillation around x drops
    to 2^-(m+1); satisfies the strict continuity-modulus bound at continuity
    points.  Total map: points outside every small-oscillation set get 0."""
    require_rule("OscBelow", f, "modulus_continuity_qc")

    def least(p, m):
        def gone(ball):  # oscillation above 2^-(m+1) on the smallest ball
            w = _osc_on(f, ball, m + 6)
            return w.ln << (m + 1) > w.d

        for n, ball in _ball_walk(p, fuel, gone=gone):
            w = _osc_on(f, ball, m + 6)
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
    _check_precision(k)
    p = Q2.of(x)
    fx = f.eval(p)
    tol = _reduced(1, 0, 1 << k)
    lo_cap, hi_cap = fx - tol, fx + tol  # values must lie strictly between
    inside: dict = {}  # (numerator, denominator) of a grid point -> f there between the caps

    def in_band(c: int, den: int) -> bool:
        if (c, den) not in inside:
            inside[c, den] = lo_cap < f.eval(_reduced(c, 0, den)) < hi_cap
        return inside[c, den]

    def candidate_ok(cn: int, dn: int, den: int) -> bool:
        """Whether f stays strictly between the caps on (cn/den, dn/den)."""
        inf_b, sup_b = f.range_on(DyadicInterval.of_ints(cn, dn, den), k + 4)
        return _vs(hi_cap, sup_b.un, sup_b.d) > 0 and _vs(lo_cap, inf_b.ln, inf_b.d) < 0

    ball_iv = _ball_clipped(p, big_n)
    bn, bu, bd = ball_iv.ln, ball_iv.un, ball_iv.d
    for j in range(big_n + 2, big_n + 2 + min(fuel, 24)):
        # first, an interval straddling x itself: the bracket [lo/e, hi/e] of
        # x widened by 2^-j on each side, cut to the ball, over bd e 2^j
        lo, hi, e = p._bracket_ints(j + 2)
        den = bd * e << j
        cn = max(bn * e << j, ((lo << j) - e) * bd)
        dn = min(bu * e << j, ((hi << j) + e) * bd)
        if cn < dn and candidate_ok(cn, dn, den):
            return Fraction(cn, den), Fraction(dn, den)
        # then the pairs of `rational_grid(ball_iv, n)` as numerators over
        # bd 2^n, nearest to x first: by |(c + d)/2 - lo/e|, then by c
        n = min(j, grid_depth_cap(ball_iv))
        den = bd << n
        nums = _grid(ball_iv, n, lambda num, d: num * (den // d))
        t = 2 * lo * den
        for c, d in sorted(zip(nums, nums[1:]),
                           key=lambda cd: (abs((cd[0] + cd[1]) * e - t), cd[0])):
            if in_band(c, den) and in_band(d, den) and candidate_ok(c, d, den):
                return Fraction(c, den), Fraction(d, den)
    raise FuelExhausted("no certified subinterval found within fuel")


# ---------------------------------------------------------------------------
# points of continuity via the effective Baire category construction
# ---------------------------------------------------------------------------


def _interior_numerators(iv: DyadicInterval, depth: int) -> list[int]:
    """The numerators j of the grid points j/2^depth at least width/8 from
    both ends of iv, nearest the midpoint first (the lower one on a tie)."""
    ln, un, d = iv.ln, iv.un, iv.d
    if ln == un:
        return []
    first = -(-((7 * ln + un) << depth) // (8 * d))
    last = ((ln + 7 * un) << depth) // (8 * d)
    mid = (ln + un) << depth  # 2d 2^depth times the midpoint
    return sorted(range(first, last + 1), key=lambda j: (abs(2 * d * j - mid), j))


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
        for cn in _interior_numerators(j, depth):
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
    _check_precision(k)
    require_rule("OscBelow", f, "point_of_continuity_qc")
    j = DyadicInterval(Fraction(0), Fraction(1))
    held = None  # the bracket read on the ball that holds j
    for m in range(k + 1):
        def gone(ball):  # oscillation above 2^-m on the smallest ball
            w = _osc_on(f, ball, m + 6)
            return w.ln << m > w.d

        def place(cn, cd):
            nonlocal held
            n_size = least_exponent(*_room(j, cn, cd))
            if held is not None and held.un << (m + 7) <= 127 * held.d and n_size <= fuel:
                s = n_size + 1
                return DyadicInterval.of_ints((cn << s) - cd, (cn << s) + cd, cd << s)
            for n, ball in _ball_walk(_reduced(cn, 0, cd), fuel, n_size, gone):
                w = _osc_on(f, ball, m + 6)
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
    for n, ball in _ball_walk(p, fuel):
        key = ("range", f, ball.ln, ball.un, ball.d)
        kept = scope.get(key)
        if kept is None or kept[0] != prec and not (kept[0] < prec and kept[1][1].exact):
            kept = scope[key] = prec, f.range_on(ball, prec)
        sup_b = kept[1][1]
        if _vs(cap, sup_b.un, sup_b.d) > 0:  # the bracket's upper end below cap
            return n
    return None


def natural_usco_modulus(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """Radius map witnessing upper semicontinuity: all values on
    B(x, radius(x,k)) stay below f(x) + 2^-k; the canonical one, computed
    from exact ball suprema."""
    require_tag(f, USCO, "natural_usco_modulus")

    def radius(p, k):
        n = _least_ball_below(f, p, Q2.of(Fraction(1, 1 << k)) + f.eval(p), k, fuel)
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
    _check_precision(k)
    require_tag(f, USCO, "point_of_continuity_usco")
    rl, rh = f.range_bound()
    span = rh - rl + 1
    j = DyadicInterval(Fraction(0), Fraction(1))
    stage = 1
    with query_scope():  # the ball suprema the radii read, kept across stages
        while True:
            t = rl + span * Fraction(1, 1 << stage)
            tq = Q2.of(t)

            def place(cn, cd):
                p = _reduced(cn, 0, cd)
                fc = f.eval(p)
                if fc < tq:
                    gap = tq - fc
                    k0 = 0
                    while _sign_int((gap.p << k0) - gap.d, gap.q << k0) < 0:  # 2^-k0 > gap
                        k0 += 1
                        if k0 > fuel:
                            return None
                    c = Fraction(cn, cd)
                    radius = psi(c, k0)
                    if radius <= 0:
                        raise InvalidModulus("usco modulus gave the radius %s at %s"
                                             % (radius, c))
                    rn, rd = _ratio(radius)
                else:
                    res = mu_search(ValueBelowOnBall(f, p, t, min(fuel, 24)))
                    if not isinstance(res, Found):
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
            if span * Fraction(1, 1 << stage) <= Fraction(1, 1 << (k + 1)):
                out = j.midpoint
                cert = osc_exact(f, Q2.of(out), k + 1)
                if cert.hi <= Fraction(1, 1 << k):
                    return out
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
        cap = f.eval(p) + Q2.of(Fraction(1, 1 << (k + 1)))
        n = _least_ball_below(f, p, cap, k, fuel)
        return fuel if n is None else n

    return Modulus(least)


# ---------------------------------------------------------------------------
# Cousin subcovers
# ---------------------------------------------------------------------------


def _merge_open(components: list[tuple[Fraction, Fraction]], lo: Fraction, hi: Fraction):
    """Merge the open interval (lo, hi), lo < hi, into the sorted disjoint
    open intervals `components`, in place.  Two that only touch stay apart:
    their common end is covered by neither."""
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
    ends when one component holds [0,1]."""
    if not (QUASI_CONTINUOUS in psi.tags or LSCO in psi.tags):
        raise ClassRefusal(
            "cousin_subcover", "quasi-continuous or lsco tag", psi,
            statement="rational-centred gauge balls exhaust the interval only "
            "under these tags; the cliquish and usco covering instances defeat "
            "every ball multiset drawn from their banded copy")
    if not psi.is_positive():
        raise ClassRefusal("cousin_subcover", "a strictly positive gauge", psi)
    balls: list[tuple[Fraction, Fraction]] = []
    union: list[tuple[Fraction, Fraction]] = []
    gen = unit_rationals()
    bound = 1 << min(fuel, 12)
    for n in range(bound):
        q = next(gen)
        v = psi.eval(q)
        r = v.as_rational() if v.is_rational else v.bracket(24)[0]
        balls.append((q, r))
        if r > 0:  # a ball of radius <= 0 is empty
            lo, hi = _merge_open(union, q - r, q + r)
            if lo < 0 and hi > 1:
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
