"""Fueled simulation of least-witness number search for the five query
shapes the algorithms issue.

General number quantification over function values is not computable; each
shape here is paired with a quantifier-collapse rule that replaces real
quantifiers by rational-grid quantifiers, sound under a class precondition.
Every shape computes its real form from the family's exact structure
(`range_on`, the threshold witnesses); the admitting rule is what licenses
reading that answer as the rational form.  Queries on functions whose
declared class (or structural certificate) admits no rule are refused rather
than answered: a grid answer without the collapse theorem behind it is
exactly the mistake this package exists to exhibit.

Grid quantifiers additionally probe the function's own carried points
(set members, spikes, breakpoints) up to the fuel bound, which makes answers
exact - not merely grid-sound - on the built-in families.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import abyss

from .errors import ClassRefusal, FuelExhausted, RepresentationInsufficient
from .exact import (DEFAULT_FUEL, Bracket, DyadicInterval, FueledBool, Truth, _ratio,
                    _rational, grid_depth_cap)
from .records import record
from .universe import (BAIRE1, CERT_INF, CERT_OSC, CERT_SUP, QUASI_CONTINUOUS,
                       USCO, SymbolicFn, _unit_point, probe_points, query_state)

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


# --- the collapse-rule table ------------------------------------------------


@record
class CollapseRule:
    shape: str
    requires: str  # class tag or structural certificate granting admission
    real_form: str
    rational_form: str
    precondition: str
    justification: str


COLLAPSE_RULES = (
    CollapseRule(
        "ExistsValueAbove", QUASI_CONTINUOUS,
        "(exists x in I)(f(x) > y)",
        "(exists q in I cap Q)(f(q) > y)",
        "f quasi-continuous on [0,1]",
        "near every point, whole open subintervals carry values close to the "
        "point value, so rational points witness every supremum",
    ),
    CollapseRule(
        "ExistsValueAbove", CERT_SUP,
        "(exists x in I)(f(x) > y)",
        "(exists q in I cap Q)(f(q) > y)",
        "structural certificate: suprema attained on rational points",
        "the function's positive values all sit at rationals",
    ),
    CollapseRule(
        "ExistsValueBelow", USCO,
        "(exists x in I)(f(x) < y)",
        "(exists r in I cap Q)(f(r) < y)",
        "f upper semicontinuous on [0,1]",
        "a value below y spreads to a whole ball by upper semicontinuity, "
        "and every ball contains rationals",
    ),
    CollapseRule(
        "ExistsValueBelow", QUASI_CONTINUOUS,
        "(exists x in I)(f(x) < y)",
        "(exists q in I cap Q)(f(q) < y)",
        "f quasi-continuous on [0,1]",
        "infima collapse exactly as suprema do for quasi-continuous functions",
    ),
    CollapseRule(
        "ExistsValueBelow", CERT_INF,
        "(exists x in I)(f(x) < y)",
        "(exists r in I cap Q)(f(r) < y)",
        "structural certificate: infima approached through rational points",
        "rational values get arbitrarily close to the infimum",
    ),
    CollapseRule(
        "OscBelow", QUASI_CONTINUOUS,
        "(exists N)(forall w,z in B(x,2^-N))(|f(w)-f(z)| <= 2^-m)",
        "(exists N)(forall q,r in B(x,2^-N) cap Q)(|f(q)-f(r)| <= 2^-m)",
        "f quasi-continuous on [0,1]",
        "the equivalence holds with the same ball exponent on both sides",
    ),
    CollapseRule(
        "OscBelow", CERT_OSC,
        "(exists N)(forall w,z in B(x,2^-N))(|f(w)-f(z)| <= 2^-m)",
        "(exists N)(forall q,r in B(x,2^-N) cap Q)(|f(q)-f(r)| <= 2^-m)",
        "structural certificate: ball oscillation decided by rational data",
        "both the supremum and the infimum over any ball are rational-limits",
    ),
    CollapseRule(
        "OscBelow", USCO,
        "(exists N)(forall w,z in B(x,2^-N))(|f(w)-f(z)| <= 2^-m)",
        "(exists N)(sup over carried points and f(x) minus rational inf of "
        "B(x,2^-N) <= 2^-m)",
        "f upper semicontinuous with carried spike structure",
        "ball infima collapse to rationals by upper semicontinuity, and ball "
        "suprema are attained, at points the universe function carries",
    ),
    CollapseRule(
        "ValueBelowOnBall", USCO,
        "(exists N)(forall z in B(x,2^-N))(f(z) >= q)",
        "(exists M)(forall r in B(x,2^-M) cap Q)(f(r) >= q)",
        "f upper semicontinuous on [0,1]",
        "the two sides agree even with the same exponent: a real value below "
        "q would spread onto rationals by upper semicontinuity",
    ),
    CollapseRule(
        "Baire1Above", BAIRE1,
        "(exists x in I)(f(x) > y)",
        "(exists y0 in I cap (Q or carried points), l)(forall n >= m(y0,l))"
        "(f_n(y0) >= y + 2^-l)",
        "f a pointwise limit given with its term sequence and a convergence "
        "modulus m",
        "the inner tail quantifier is bounded by the convergence modulus, "
        "making the formula arithmetical",
    ),
)
# each query shape's rules, in their order above
RULES_BY_SHAPE = {shape: tuple(r for r in COLLAPSE_RULES if r.shape == shape)
                  for shape in dict.fromkeys(r.shape for r in COLLAPSE_RULES)}


def collapse_rules_for(shape: str):
    rules = RULES_BY_SHAPE.get(shape)
    if rules is None:
        raise ValueError("unknown query shape %r" % (shape,))
    return rules


def admitting_rule(shape: str, f: SymbolicFn) -> Optional[CollapseRule]:
    for rule in collapse_rules_for(shape):
        if rule.requires in f.tags or rule.requires in f.certificates:
            return rule
    return None


def require_rule(shape: str, f: SymbolicFn, operation: str) -> CollapseRule:
    rule = admitting_rule(shape, f)
    if rule is None:
        needed = " or ".join(sorted({r.requires for r in collapse_rules_for(shape)}))
        statement = "; ".join("%s needs %s (%s)" % (r.shape, r.requires, r.rational_form)
                              for r in collapse_rules_for(shape))
        raise ClassRefusal(operation, needed, f, statement=statement)
    return rule


def require_tag(f: SymbolicFn, tag: str, operation: str, statement=None):
    if tag not in f.tags:
        raise ClassRefusal(operation, tag, f, statement=statement)


class Modulus:
    """A modulus (x, k) -> least exponent or radius, computed by fn(p, k) at
    the exact point p of [0,1] that x names."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, x, k: int):
        return self._fn(_unit_point(x), k)


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


def _ball_clipped(x, exponent: int) -> DyadicInterval:
    """The ball of radius 2^-exponent around the point x of [0,1], clipped
    to [0,1]; an irrational x is centred at `x.approx(exponent + 4)`."""
    if exponent < 0:
        raise ValueError("radius exponent must be >= 0")
    return _ball_around(_unit_point(x), exponent)


def _ball_around(p, exponent: int) -> DyadicInterval:
    """`_ball_clipped` for a point p of [0,1] already read."""
    if p.q:
        lo, hi, e = p._bracket_ints(exponent + 5)
        c, e = lo + hi, 2 * e  # the midpoint, as approx gives it
    else:
        c, e = p.p, p.d
    c <<= exponent
    den = e << exponent
    return DyadicInterval.of_ints(max(c - e, 0), min(c + e, den), den)


def _ball_walk(x, fuel: int, start: int = 0, gone=None):
    """The clipped balls B(x, 2^-n) for n = start..fuel, as (n, ball), with
    x read once: the one walk over ball exponents.

    The balls are nested: the ball B(x, 2^-n) of an irrational x is
    centred within 2^-(n+6) of x, and 2^-(n+1) + 2^-(n+7) + 2^-(n+6) <
    2^-n.  So the smallest ball B(x, 2^-fuel) has the least oscillation
    and the greatest infimum of them all.  When the first ball has missed,
    `gone(smallest)` reads it once; if it answers true, the bracket there
    proves that every ball misses, and the walk ends as a walk to fuel
    ends.  A `gone` that gives up (`FuelExhausted`) only loses the
    shortcut: the walk goes on and gives its own answer."""
    if start > fuel:
        return
    p = _unit_point(x)
    yield start, _ball_around(p, start)
    if gone is not None and start < fuel:
        try:
            if gone(_ball_around(p, fuel)):
                return
        except FuelExhausted:
            pass
    for n in range(start + 1, fuel + 1):
        yield n, _ball_around(p, n)


def _osc_on(f: SymbolicFn, ball: DyadicInterval, k: int) -> Bracket:
    """Bracket of sup - inf of f over the ball, of width at most 2^-(k+1)."""
    inf_b, sup_b = f.range_on(ball, k + 2)
    return sup_b - inf_b


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
    `Baire1Above` searches on a limit with a stabilizer, also how many of
    those points have been evaluated and the largest exact value among
    them.  A depth past the grid cap probes the cap's basis again and adds
    nothing.  The state lives in the query scope, one per (function,
    interval), which the thresholds of one halving share (`_probe_state`)."""

    def __init__(self, f: SymbolicFn, iv: DyadicInterval):
        self.f, self.iv = f, iv
        self.cap = grid_depth_cap(iv)
        self.sizes: list[int] = []
        self.added: list[list] = []
        self.evaluated: list[int] = []
        self.tops: list = []  # None until a point of the depth is evaluated
        self._seen: set = set()

    def basis_size(self, d: int) -> int:
        """The full basis size at depth d, building the depths up to it."""
        while len(self.sizes) <= min(d, self.cap):
            pts = basis_at(self.f, self.iv, len(self.sizes))
            self.sizes.append(len(pts))
            keys = [(p.p, p.q, p.d) for p in pts]
            self.added.append([p for p, key in zip(pts, keys) if key not in self._seen])
            self._seen.update(keys)
            self.evaluated.append(0)
            self.tops.append(None)
        return self.sizes[min(d, self.cap)]

    def exceeds(self, d: int, y: Fraction, fuel: int) -> bool:
        """Whether a point that depth d (already built) adds has a limit
        value above y, the points read in basis order as a fresh scan reads
        them; the function is a `Baire1Limit`."""
        if d > self.cap:
            return False
        f, pts = self.f, self.added[d]
        if f.stabilizer is None:
            return any(_baire1_value_above(f, p, y, fuel) for p in pts)
        top = self.tops[d]
        if top is not None and top > y:
            return True
        for i in range(self.evaluated[d], len(pts)):
            v = f.eval(pts[i])
            self.evaluated[d] = i + 1
            if top is None or v > top:
                top = self.tops[d] = v
            if v > y:
                return True
        return False


def _probe_state(f: SymbolicFn, iv: DyadicInterval) -> _ProbeState:
    """f's probe state on iv in the query scope, built on first use."""
    scope, key = query_state(), ("probe", f, iv.ln, iv.un, iv.d)
    if key not in scope:
        scope[key] = _ProbeState(f, iv)
    return scope[key]


def _mu_baire1_above(q: Baire1Above, trace):
    f = q.f_rep
    if not isinstance(f, abyss.Baire1Limit):
        raise RepresentationInsufficient("query needs a pointwise-limit representation")
    if f.conv_modulus is None:
        raise RepresentationInsufficient(
            "representation insufficient: no convergence modulus")
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
