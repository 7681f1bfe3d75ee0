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

from fractions import Fraction
from typing import TYPE_CHECKING

from .collapse import _ball_walk, _osc_on, require_limit, require_rule
from .errors import FuelExhausted
from .exact import (DEFAULT_FUEL, DyadicInterval, FueledBool, Truth, _ratio, _rational,
                    grid_depth_cap)
from .records import record
from .universe import SymbolicFn, probe_points, query_state

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


def basis_at(f: SymbolicFn, iv: DyadicInterval, depth: int):
    return probe_points(f, iv, min(depth, grid_depth_cap(iv)))


class QueryTrace:
    """Optional per-depth log of a search, for debugging and the determinism
    check of the acceptance suite."""

    def __init__(self):
        self.lines: list[dict] = []

    def record(self, shape, depth, basis_size, outcome):
        self.lines.append({"shape": shape, "depth": depth,
                           "basis": basis_size, "outcome": outcome})


# --- exact threshold queries (the workhorses) --------------------------------


def exists_value_above(f, iv, y) -> FueledBool:
    require_rule("ExistsValueAbove", f, "exists_value_above")
    return FueledBool(f.witness_above(iv, y)[0], 1)


def exists_value_below(f, iv, y) -> FueledBool:
    require_rule("ExistsValueBelow", f, "exists_value_below")
    return FueledBool(f.witness_below(iv, y)[0], 1)


# --- the least-witness search ------------------------------------------------


def mu_search(query, trace=None):
    """Least-witness search for a collapsed query; Found answers carry the
    minimal index, NotFoundBelow records an exact empty search up to fuel.
    A ball search may decide its NotFoundBelow from the smallest ball
    alone, when its bracket there shows that no larger ball can hit (see
    `_ball_walk`)."""
    run = _RUNNERS.get(type(query))
    if run is None:
        raise ValueError("unknown query shape %r" % (query,))
    return run(query, trace)


def _mu_osc_below(q: OscBelow, trace):
    require_rule("OscBelow", q.f, "mu_search/OscBelow")
    f, m = q.f, q.m

    def read(n, ball, k):
        osc = _osc_on(f, ball, k)
        if trace is not None:
            trace.record("OscBelow", n, 0, "osc<=%s..%s" % (osc.lo, osc.hi))
        return osc

    def gone(ball):
        # a low end above 2^-m + 2^-(m+13) here: every ball's oscillation
        # is at least that, so its refined bracket, 2^-(m+13) wide, lies
        # above 2^-m: no ball hits and none straddles
        osc = read(q.fuel, ball, m + 12)
        return osc.ln << (m + 13) > ((1 << 13) + 1) * osc.d

    for n, ball in _ball_walk(q.x, q.fuel, gone=gone):
        osc = read(n, ball, m + 4)
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


def _mu_value_below_on_ball(q: ValueBelowOnBall, trace):
    require_rule("ValueBelowOnBall", q.f, "mu_search/ValueBelowOnBall")
    tn, td = _ratio(q.q)

    def read(n, ball):
        inf_b, _ = q.f.range_on(ball, 8)
        if trace is not None:
            trace.record("ValueBelowOnBall", n, 0, "inf>=%s" % (inf_b.lo,))
        return inf_b

    def gone(ball):
        # the top end + 2^-8 below the target here: every ball's infimum is
        # at most that top end, so its bracket, 2^-8 wide, lies below the
        # target: no ball hits and none straddles
        inf_b = read(q.fuel, ball)
        return ((inf_b.un << 8) + inf_b.d) * td < (tn * inf_b.d) << 8

    for n, ball in _ball_walk(q.x, q.fuel, gone=gone):
        inf_b = read(n, ball)
        # the ends against the target tn/td, on the integers
        if inf_b.ln * td >= tn * inf_b.d:
            return Found(MuWitness(n))
        if not inf_b.exact and inf_b.un * td >= tn * inf_b.d:
            raise FuelExhausted("ball infimum bracket straddles the target "
                                "at exponent %d" % n)
    return NotFoundBelow(q.fuel)


def _mu_exists(q, trace):
    shape = type(q).__name__
    above = type(q) is ExistsValueAbove
    require_rule(shape, q.f, "mu_search/" + shape)
    y = _rational(q.threshold)
    truth, _ = (q.f.witness_above if above else q.f.witness_below)(q.interval, y)
    if truth is Truth.NO:
        if trace is not None:
            trace.record(shape, q.fuel, 0, "no")
        return NotFoundBelow(q.fuel)
    if truth is Truth.UNKNOWN:
        raise FuelExhausted("threshold query undecided on this family")
    # find the least probe depth at which a witness appears; past the cap
    # every depth probes the same basis
    state = _probe_state(q.f, q.interval)
    for d in range(min(q.fuel, state.cap) + 1):
        size = state.basis_size(d)
        if trace is not None:
            trace.record(shape, d, size, "scan")
        for p in state.added[d]:
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
    """The one walk over a function's probe depths on an interval: what the
    witness searches have learned there, so no depth's basis is built twice.
    Per probe depth, built when a search first reaches it: the full basis
    size (for the trace) and the points that depth adds to the shallower
    bases, in basis order, each point keyed by its integers (p, q, d), since
    a point a shallower depth refuted needs no second evaluation.  For the
    `Baire1Above` searches on a limit with a stabilizer, also the largest
    exact value among those points, taken over all of them when a search
    first reads the depth.  A depth past the grid cap probes the cap's
    basis again and adds nothing.  The state lives in the query scope, one
    per (function, interval), which the thresholds of one halving share
    (`_probe_state`)."""

    def __init__(self, f: SymbolicFn, iv: DyadicInterval):
        self.f, self.iv = f, iv
        self.cap = grid_depth_cap(iv)
        self.sizes: list[int] = []
        self.added: list[list] = []
        self.tops: dict = {}  # depth -> its points' largest value, None if none
        self._seen: set = set()

    def basis_size(self, d: int) -> int:
        """The full basis size at depth d, building the depths up to it."""
        while len(self.sizes) <= min(d, self.cap):
            pts = basis_at(self.f, self.iv, len(self.sizes))
            self.sizes.append(len(pts))
            keys = [(p.p, p.q, p.d) for p in pts]
            self.added.append([p for p, key in zip(pts, keys) if key not in self._seen])
            self._seen.update(keys)
        return self.sizes[min(d, self.cap)]

    def exceeds(self, d: int, y: Fraction, fuel: int) -> bool:
        """Whether a point that depth d (already built) adds has a limit
        value above y; the function is a `Baire1Limit`."""
        if d > self.cap:
            return False
        f, pts = self.f, self.added[d]
        if f.stabilizer is None:
            return any(_baire1_value_above(f, p, y, fuel) for p in pts)
        if d not in self.tops:
            self.tops[d] = max(map(f.eval, pts), default=None)
        top = self.tops[d]
        return top is not None and top > y


def _probe_state(f: SymbolicFn, iv: DyadicInterval) -> _ProbeState:
    """f's probe state on iv in the query scope, built on first use."""
    scope, key = query_state(), ("probe", f, iv.ln, iv.un, iv.d)
    if key not in scope:
        scope[key] = _ProbeState(f, iv)
    return scope[key]


def _mu_baire1_above(q: Baire1Above, trace):
    f = q.f_rep
    require_limit(f, "mu_search/Baire1Above")
    require_rule("Baire1Above", f, "mu_search/Baire1Above")
    y = _rational(q.threshold)
    last = f.witness_depth(y)
    state = _probe_state(f, q.interval)
    for d in range(q.fuel + 1):
        size = state.basis_size(d)
        if trace is not None:
            trace.record("Baire1Above", d, size, "scan")
        if state.exceeds(d, y, q.fuel):
            return Found(MuWitness(d))
        if d >= (state.cap if last is None else last):
            break
    if y <= 0:
        raise FuelExhausted("non-positive threshold cannot be refuted on a "
                            "limit representation")
    return NotFoundBelow(q.fuel)


# query shape -> its least-witness search
_RUNNERS = {
    OscBelow: _mu_osc_below,
    ValueBelowOnBall: _mu_value_below_on_ball,
    ExistsValueAbove: _mu_exists,
    ExistsValueBelow: _mu_exists,
    Baire1Above: _mu_baire1_above,
}
