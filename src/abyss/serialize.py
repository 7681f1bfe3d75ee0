"""JSON round-tripping for function documents and results.

Rationals always travel as "num/den" strings; points of Q(sqrt2) as
{"a": "...", "b": "..."}.  Function documents are a tagged union keyed by
"kind".  The envelope carries the schema marker "abyss/1".
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import universe as u
from .exact import DyadicInterval, Q2, format_rational
from .sets import ComplementOfR2Open, CountableSet, FinitePointSet, R2Rep, finite_set, sqrt2_family

SCHEMA = "abyss/1"


def rat_json(q) -> str:
    return format_rational(Fraction(q))


def q2_json(x):
    p = Q2.of(x)
    if p.is_rational:
        return rat_json(p.a)
    return {"a": rat_json(p.a), "b": rat_json(p.b)}


def q2_from_json(doc) -> Q2:
    if isinstance(doc, str):
        return Q2.of(doc)
    return Q2(doc["a"], doc["b"])


def interval_json(iv: DyadicInterval) -> dict:
    return {"lower": rat_json(iv.lower), "upper": rat_json(iv.upper)}


def interval_from_json(doc) -> DyadicInterval:
    return DyadicInterval(doc["lower"], doc["upper"])


def set_json(a_set: CountableSet) -> dict:
    if a_set.name == "sqrt2-halving":
        return {"generator": "sqrt2-halving"}
    if a_set.size is None:
        raise ValueError("only the built-in generator or finite sets serialize")
    return {
        "generator": "finite",
        "points": [q2_json(a_set.member(n)) for n in range(a_set.size)],
        "surjective": a_set.surjective,
    }


def set_from_json(doc) -> CountableSet:
    if doc["generator"] == "sqrt2-halving":
        return sqrt2_family()
    if doc["generator"] == "finite":
        return finite_set([q2_from_json(p) for p in doc["points"]],
                          surjective=doc.get("surjective", False))
    raise ValueError("unknown set generator %r" % (doc.get("generator"),))


def closed_set_from_json(doc):
    if doc["rep"] == "finite-points":
        return FinitePointSet.of([q2_from_json(p) for p in doc["points"]])
    if doc["rep"] == "complement-of-r2-open":
        return ComplementOfR2Open(R2Rep.from_intervals(doc["intervals"]))
    raise ValueError("unknown closed-set representation %r" % (doc.get("rep"),))


def _piecewise_from_json(doc):
    return u.PiecewiseRational([q2_from_json(c) for c in doc["cuts"]],
                               [u.Poly(*cs) for cs in doc["pieces"]],
                               [q2_from_json(v) for v in doc["values"]])


def _seeded(make):
    return lambda doc: make(set_from_json(doc["set"]))


# kind -> constructor from the document: the one list of loadable kinds
FN_KINDS = {
    "thomae": lambda doc: u.Thomae(),
    "penny": _seeded(u.Penny),
    "pennyk": lambda doc: u.PennyK(set_from_json(doc["set"]), doc["cutoff"]),
    "tilde-penny": _seeded(u.TildePenny),
    "cover-psi": _seeded(u.CoverPsi),
    "cover-psi-usco": _seeded(u.CoverPsiUsco),
    "pennyk-limit": _seeded(u.pennyk_limit),
    "indicator": lambda doc: u.Indicator(closed_set_from_json(doc["closed_set"])),
    "piecewise": _piecewise_from_json,
    "sum": lambda doc: u.Sum(fn_from_json(doc["f"]), fn_from_json(doc["g"])),
    "scalar-multiple": lambda doc: u.ScalarMultiple(doc["c"], fn_from_json(doc["f"])),
    "restricted": lambda doc: u.restrict_tags(fn_from_json(doc["f"]), doc["tags"]),
}


def fn_from_json(doc):
    kind = doc.get("kind")
    make = FN_KINDS.get(kind)
    if make is None:
        raise ValueError("unknown function kind %r" % (kind,))
    try:
        return make(doc)
    except KeyError as e:
        raise ValueError("%s document lacks the field %s" % (kind, e)) from None


def envelope(payload: dict) -> dict:
    out = {"schema": SCHEMA}
    out.update(payload)
    return out


def dumps(payload: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, trailing newline."""
    return json.dumps(envelope(payload), sort_keys=True, separators=(",", ":")) + "\n"
