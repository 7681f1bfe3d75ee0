"""The quantifier-collapse rules, and what the algorithms check before they
answer: the rule table that licenses reading a real quantifier over
function values as a rational-grid one, the refusals (`require_rule` for a
class with no collapse rule, `require_tag`, `require_limit`), `Modulus`, and
the one walk over the nested balls B(x, 2^-n) around a point.

Most questions are answered from a family's exact structure under one of
these rules; only a few run the simulated least-witness search of
`abyss.oracle`, which reads the same rules and loads only when it runs.
"""

from __future__ import annotations

from typing import Optional

import abyss

from .errors import ClassRefusal, FuelExhausted, RepresentationInsufficient
from .exact import Bracket, DyadicInterval
from .records import record
from .universe import (BAIRE1, CERT_INF, CERT_OSC, CERT_SUP, QUASI_CONTINUOUS, USCO, SymbolicFn,
                       unit_point)


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


def require_limit(f, operation: str):
    """Refuse `operation` unless f is a `Baire1Limit` with a convergence
    modulus, through which the algorithms read its terms."""
    if not isinstance(f, abyss.Baire1Limit):
        raise RepresentationInsufficient("%s consumes a pointwise-limit representation"
                                         % operation)
    if f.conv_modulus is None:
        raise RepresentationInsufficient("%s: representation insufficient: no "
                                         "convergence modulus" % operation)


class Modulus:
    """A modulus (x, k) -> least exponent or radius, computed by fn(p, k) at
    the exact point p of [0,1] that x names."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, x, k: int):
        return self._fn(unit_point(x), k)


# --- balls around a point ---------------------------------------------------


def ball_clipped(x, exponent: int) -> DyadicInterval:
    """The ball of radius 2^-exponent around the point x of [0,1], clipped
    to [0,1]; an irrational x is centred at `x.approx(exponent + 4)`."""
    if exponent < 0:
        raise ValueError("radius exponent must be >= 0")
    return _ball_around(unit_point(x), exponent)


def _ball_around(p, exponent: int) -> DyadicInterval:
    """`ball_clipped` for a point p of [0,1] already read."""
    if p.q:
        lo, hi, e = p.bracket_ints(exponent + 5)
        c, e = lo + hi, 2 * e  # the midpoint, as approx gives it
    else:
        c, e = p.p, p.d
    c <<= exponent
    den = e << exponent
    return DyadicInterval.of_ints(max(c - e, 0), min(c + e, den), den)


def ball_walk(x, fuel: int, start: int = 0, gone=None):
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
    p = unit_point(x)
    yield start, _ball_around(p, start)
    if gone is not None and start < fuel:
        try:
            if gone(_ball_around(p, fuel)):
                return
        except FuelExhausted:
            pass
    for n in range(start + 1, fuel + 1):
        yield n, _ball_around(p, n)


def osc_on(f: SymbolicFn, ball: DyadicInterval, k: int) -> Bracket:
    """Bracket of sup - inf of f over the ball, of width at most 2^-(k+1)."""
    inf_b, sup_b = f.range_on(ball, k + 2)
    return sup_b - inf_b
