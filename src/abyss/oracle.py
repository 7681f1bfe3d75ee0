"""Fueled simulation of least-witness number search for the five query
shapes the algorithms issue: the μ-search engine.

General number quantification over function values is not computable; each
shape here is paired with a quantifier-collapse rule of `abyss.collapse`
that replaces real quantifiers by rational-grid quantifiers, sound under a
class precondition.  Every shape computes its real form from the family's
exact structure (`range_on`, the threshold witnesses); the admitting rule is
what licenses reading that answer as the rational form.  Queries on
functions whose declared class (or structural certificate) admits no rule
are refused rather than answered: a grid answer without the collapse
theorem behind it is exactly the mistake this package exists to exhibit.

Grid quantifiers additionally probe the function's own carried points
(set members, spikes, breakpoints) up to the fuel bound, which makes answers
exact - not merely grid-sound - on the built-in families.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .collapse import _ball_walk, _osc_on, require_limit, require_rule
from .errors import FuelExhausted
from .exact import (DEFAULT_FUEL, DyadicInterval, FueledBool, Q2, Truth, _ratio, _rational,
                    _reduced, grid_depth_cap, grid_span)
from .records import record
from .universe import SymbolicFn, _clip_unit, query_state

if TYPE_CHECKING:  # annotations only: the family is reached through `abyss`
    from .limits import Baire1Limit


# --- query shapes -----------------------------------------------------------


@record
class OscBelow:
    """Least ball exponent at which the oscillation over the ball around x
    drops to 2^-m or below."""
    f: SymbolicFn
    x: object
    m: int
    fuel: int = DEFAULT_FUEL


@record
class ValueBelowOnBall:
    """Least ball exponent M with f >= q at every rational of the ball
    around x (the arithmetical ball formula of the semicontinuity analysis).
    The search reads the infimum over every point of the ball; the usco rule
    licenses it, since a value below q spreads onto rationals."""
    f: SymbolicFn
    x: object
    q: Fraction
    fuel: int = DEFAULT_FUEL


@record
class ExistsValueAbove:
    f: SymbolicFn
    interval: DyadicInterval
    threshold: Fraction
    fuel: int = DEFAULT_FUEL


@record
class ExistsValueBelow:
    f: SymbolicFn
    interval: DyadicInterval
    threshold: Fraction
    fuel: int = DEFAULT_FUEL


@record
class Baire1Above:
    f_rep: Baire1Limit
    interval: DyadicInterval
    threshold: Fraction
    fuel: int = DEFAULT_FUEL


@record
class MuWitness:
    value: int


@record
class Found:
    witness: MuWitness


@record
class NotFoundBelow:
    fuel: int


# --- probe bases ------------------------------------------------------------


def basis_at(f: SymbolicFn, iv: DyadicInterval, depth: int) -> list[Q2]:
    """The probe basis of f on iv at depth (past the grid cap, at the cap):
    the points the probe depths up to it add, sorted."""
    if depth < 0:
        raise ValueError("grid depth must be >= 0")
    state = _ProbeState(f, iv)
    return sorted(p for d in range(min(depth, state.cap) + 1) for p in state.added(d))


# --- exact threshold queries (the workhorses) --------------------------------


def exists_value_above(f, iv, y) -> FueledBool:
    require_rule("ExistsValueAbove", f, "exists_value_above")
    return FueledBool(f.witness_above(iv, y)[0], 1)


def exists_value_below(f, iv, y) -> FueledBool:
    require_rule("ExistsValueBelow", f, "exists_value_below")
    return FueledBool(f.witness_below(iv, y)[0], 1)


# --- the least-witness search ------------------------------------------------


def mu_search(query):
    """Least-witness search for a collapsed query; Found answers carry the
    minimal index, NotFoundBelow records an exact empty search up to fuel.
    A ball search may decide its NotFoundBelow from the smallest ball
    alone, when its bracket there shows that no larger ball can hit (see
    `_ball_walk`)."""
    run = _RUNNERS.get(type(query))
    if run is None:
        raise ValueError("unknown query shape %r" % (query,))
    return run(query)


def _mu_osc_below(q: OscBelow):
    require_rule("OscBelow", q.f, "mu_search/OscBelow")
    f, m = q.f, q.m

    def gone(ball):
        # a low end above 2^-m + 2^-(m+13) here: every ball's oscillation
        # is at least that, so its refined bracket, 2^-(m+13) wide, lies
        # above 2^-m: no ball hits and none straddles
        osc = _osc_on(f, ball, m + 12)
        return osc.ln << (m + 13) > ((1 << 13) + 1) * osc.d

    for n, ball in _ball_walk(q.x, q.fuel, gone=gone):
        osc = _osc_on(f, ball, m + 4)
        # the ends against the bound 2^-m, on the integers
        if osc.un << m <= osc.d:
            return Found(MuWitness(n))
        if osc.ln << m <= osc.d:
            # bracket straddles the bound; refine once, then give up honestly
            osc = _osc_on(f, ball, m + 12)
            if osc.un << m <= osc.d:
                return Found(MuWitness(n))
            if osc.ln << m <= osc.d:
                raise FuelExhausted("ball oscillation bracket straddles 2^-%d at "
                                    "exponent %d" % (q.m, n))
    return NotFoundBelow(q.fuel)


def _mu_value_below_on_ball(q: ValueBelowOnBall):
    require_rule("ValueBelowOnBall", q.f, "mu_search/ValueBelowOnBall")
    tn, td = _ratio(q.q)

    def gone(ball):
        # the top end + 2^-8 below the target here: every ball's infimum is
        # at most that top end, so its bracket, 2^-8 wide, lies below the
        # target: no ball hits and none straddles
        inf_b, _ = q.f.range_on(ball, 8)
        return ((inf_b.un << 8) + inf_b.d) * td < (tn * inf_b.d) << 8

    for n, ball in _ball_walk(q.x, q.fuel, gone=gone):
        inf_b, _ = q.f.range_on(ball, 8)
        # the ends against the target tn/td, on the integers
        if inf_b.ln * td >= tn * inf_b.d:
            return Found(MuWitness(n))
        if not inf_b.exact and inf_b.un * td >= tn * inf_b.d:
            raise FuelExhausted("ball infimum bracket straddles the target "
                                "at exponent %d" % n)
    return NotFoundBelow(q.fuel)


def _mu_exists(q):
    shape = type(q).__name__
    above = type(q) is ExistsValueAbove
    require_rule(shape, q.f, "mu_search/" + shape)
    y = _rational(q.threshold)
    truth, _ = (q.f.witness_above if above else q.f.witness_below)(q.interval, y)
    if truth is Truth.NO:
        return NotFoundBelow(q.fuel)
    if truth is Truth.UNKNOWN:
        raise FuelExhausted("threshold query undecided on this family")
    # find the least probe depth at which a witness appears; past the cap
    # every depth probes the same basis
    state = _probe_state(q.f, q.interval)
    for d in range(min(q.fuel, state.cap) + 1):
        for p in state.added(d):
            v = q.f.eval(p)
            if (v > y) if above else (v < y):
                return Found(MuWitness(d))
    raise FuelExhausted("a witness exists but did not appear in the probe "
                        "basis within fuel")


def _baire1_value_above(f_rep: Baire1Limit, p, y: Fraction, fuel: int):
    """Does the limit exceed y at p?  Decided through the convergence
    modulus when the gap is visible; a limit with a stabilizer is read
    exactly by `_ProbeState` instead."""
    for j in range(2, fuel + 1):
        v = f_rep.eval_limit_approx(p, j)
        gap = Fraction(1, 1 << j)
        if v - gap > y:
            return True
        if v + gap <= y:
            return False
    raise FuelExhausted("limit value indistinguishable from the threshold")


class _ProbeState:
    """The one walk over a function's probe depths on an interval, so no
    depth is built twice.  Per depth up to the grid cap, built when a search
    first reaches it: the points the depth adds to the shallower bases, in
    basis order, the only points it builds: the odd multiples of 2^-d (at
    depth 0 the whole grid) and the special points no shallower basis holds.
    A limit with a stabilizer keeps the running maximum of its values up to
    each depth: a threshold bisects those on the integers, so `sup_baire1`
    decides each midpoint with no search.  No search reads past the cap,
    where no depth adds a point.  One state per (function, interval) lives
    in the query scope (`_probe_state`)."""

    def __init__(self, f: SymbolicFn, iv: DyadicInterval):
        self.f, self.iv = f, iv
        self.cap = grid_depth_cap(iv)
        self.depths: list[list] = []  # depth -> the points it adds
        self.tops: list = []  # depth -> the largest value up to it
        self._off: set = set()  # (p, q, d) of each point added off the grid of its depth

    def added(self, d: int) -> list:
        """The points depth d <= cap adds, building the depths up to it."""
        while len(self.depths) <= d:
            self._grow()
        return self.depths[d]

    def _grow(self):
        """Build the next depth n from the points it adds: at depth 0 the whole
        grid (its ends read as special points), past it the odd multiples."""
        n, off = len(self.depths), self._off
        odd, iv, den = n > 0, _clip_unit(self.iv), 1 << n  # iv: the part the bases probe
        ln, un, e = iv.ln, iv.un, iv.d
        first, last = grid_span(iv, n)
        pts = [_reduced(j, 0, den) for j in range(first | odd, last + 1, 1 + odd)
               if (j, 0, den) not in off]
        more = self.f.special_points(iv, n) if odd else [
            _reduced(ln, 0, e), _reduced(un, 0, e), *self.f.special_points(iv, n)]
        for (a, b, c), p in {(p.p, p.q, p.d): p for p in map(Q2.of, more)}.items():
            # a point off the grid's mesh that no shallower depth added
            if (b or den % c or not first <= a * (den // c) <= last) and (a, b, c) not in off:
                off.add((a, b, c))
                insort(pts, p)
        self.depths.append(pts)

    def least_above(self, y: Q2, fuel: int) -> Optional[int]:
        """The least depth up to fuel, to the grid cap and to the limit's
        witness depth for the rational y with a limit value above y; None
        refutes a positive y.  Without a stabilizer each point is read via
        the modulus."""
        f, cap, tops, last = self.f, self.cap, self.tops, self.f.witness_depth(y)
        end = min(fuel, cap, max(cap if last is None else last, 0))
        d, r = 0, None if f.stabilizer is not None else y.as_rational()
        if r is None:  # the depths read before: their maxima rise
            known = min(end + 1, len(tops))
            d = bisect_right(tops, y, 0, known)
            if d < known:
                return d
        for d in range(d, end + 1):
            pts = self.added(d)
            if r is None:
                if d == len(tops):
                    tops.append(max([*tops[-1:], *map(f.eval, pts)]))
                if tops[d] > y:
                    return d
            elif any(_baire1_value_above(f, p, r, fuel) for p in pts):
                return d
        if y.p <= 0:
            raise FuelExhausted("non-positive threshold cannot be refuted on a "
                                "limit representation")


def _probe_state(f: SymbolicFn, iv: DyadicInterval) -> _ProbeState:
    """f's probe state on iv in the query scope, built on first use."""
    scope, key = query_state(), ("probe", f, iv.ln, iv.un, iv.d)
    if key not in scope:
        scope[key] = _ProbeState(f, iv)
    return scope[key]


def _mu_baire1_above(q: Baire1Above):
    f = q.f_rep
    require_limit(f, "mu_search/Baire1Above")
    require_rule("Baire1Above", f, "mu_search/Baire1Above")
    y = Q2.of(_rational(q.threshold))
    d = _probe_state(f, q.interval).least_above(y, q.fuel)
    return NotFoundBelow(q.fuel) if d is None else Found(MuWitness(d))


def _baire1_midpoints(f: Baire1Limit, iv: DyadicInterval, fuel: int):
    """`sup_baire1`'s test of a midpoint n/m, read off the probe state with
    no search; the first makes the refusal check of a `Baire1Above` search."""
    state = []

    def above(n: int, m: int) -> Truth:
        if not state:
            require_rule("Baire1Above", f, "mu_search/Baire1Above")
            state.append(_probe_state(f, iv))
        return Truth.NO if state[0].least_above(_reduced(n, 0, m), fuel) is None else Truth.YES

    return above


# query shape -> its least-witness search
_RUNNERS = {
    OscBelow: _mu_osc_below,
    ValueBelowOnBall: _mu_value_below_on_ball,
    ExistsValueAbove: _mu_exists,
    ExistsValueBelow: _mu_exists,
    Baire1Above: _mu_baire1_above,
}
