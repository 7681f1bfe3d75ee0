"""JSON round-tripping for function documents and results.

Rationals always travel as "num/den" strings; points of Q(sqrt2) as
{"a": "...", "b": "..."}.  Function documents are a tagged union keyed by
"kind", closed sets one keyed by "rep"; each kind is registered once, with
its type, the fields of its document and its loader.  A row names its type
by module and class, and the module is imported the first time the row is
read or written, so a process loads only the families its documents hold.
Every dumped payload carries the schema marker "abyss/1".
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator
from fractions import Fraction
from importlib import import_module

from .exact import DyadicInterval, Q2
from .sets import CountableSet, R2Rep, finite_set, sqrt2_family
from .universe import Poly

SCHEMA = "abyss/1"


def rat_json(q) -> str:
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def q2_json(x):
    p = Q2.of(x)
    if p.is_rational:
        return rat_json(p.a)
    return {"a": rat_json(p.a), "b": rat_json(p.b)}


def q2_from_json(doc) -> Q2:
    if isinstance(doc, str):
        return Q2.of(doc)
    if not isinstance(doc, dict):
        raise ValueError('a point is a "num/den" string or an object with the '
                         'fields a and b, got %r' % (doc,))
    return Q2(_field(doc, "a", _RATIONAL), _field(doc, "b", _RATIONAL))


# a rational field: a "num/den" string or a JSON number, whose value the
# exact kernel then reads (refusing a float); a JSON boolean is no rational
_RATIONAL = (str, int, float)
_JSON_TYPES = {dict: "object", list: "array", str: "string", _RATIONAL: "string or number"}


def _is_rational(v) -> bool:
    return isinstance(v, _RATIONAL) and not isinstance(v, bool)


def _field(doc, key, typ=object):
    """doc[key], refused with a ValueError naming the field when doc lacks
    it or it is not a typ (a key of `_JSON_TYPES`)."""
    if key not in doc:
        raise ValueError("document lacks the field %r" % (key,))
    if not (_is_rational(doc[key]) if typ is _RATIONAL else isinstance(doc[key], typ)):
        raise ValueError("field %r must be a JSON %s, got %r"
                         % (key, _JSON_TYPES[typ], doc[key]))
    return doc[key]


def interval_json(iv: DyadicInterval) -> dict:
    return {"lower": rat_json(iv.lower), "upper": rat_json(iv.upper)}


def set_json(a_set: CountableSet) -> dict:
    """The set `sqrt2_family()` builds as its generator's name (whatever its
    `name`), a finite set by its points."""
    if a_set.enumeration is Q2.sqrt2_scaled and a_set.size is None:
        return {"generator": "sqrt2-halving"}
    if a_set.size is None:
        raise ValueError("only the built-in generator or finite sets serialize")
    return {
        "generator": "finite",
        "points": [q2_json(a_set.member(n)) for n in range(a_set.size)],
    }


def set_from_json(doc) -> CountableSet:
    generator = _field(doc, "generator", str)
    if generator == "sqrt2-halving":
        return sqrt2_family()
    if generator == "finite":
        return finite_set([q2_from_json(p) for p in _field(doc, "points", list)])
    raise ValueError("unknown set generator %r" % (generator,))


def _set_field(doc):
    return set_from_json(_field(doc, "set", dict))


def _type(path: str) -> type:
    """The class a table row names as "module.Class", importing that abyss
    module on first use."""
    module, _, name = path.partition(".")
    return getattr(import_module("." + module, __package__), name)


def _document(table, key, obj) -> dict:
    """obj's document from the table entry registered for its exact type, so
    a subclass the table does not name refuses rather than pass as its base.
    Only a row that names obj's class name is resolved, so writing loads no
    other family."""
    name = type(obj).__name__
    for tag, (path, fields, _) in table.items():
        if path.partition(".")[2] == name and _type(path) is type(obj):
            return {key: tag, **fields(obj)}
    raise ValueError("%s has no %s document" % (name, SCHEMA))


# rep -> ("module.Class" of its type, its document's fields, loader(type, doc))
CLOSED_SET_REPS = {
    "finite-points": ("sets.FinitePointSet", lambda c: {"points": [q2_json(p) for p in c.points]},
                      lambda cls, doc: cls.of([q2_from_json(p)
                                               for p in _field(doc, "points", list)])),
    "complement-of-r2-open": (
        "sets.ComplementOfR2Open",
        lambda c: {"intervals": [[rat_json(a), rat_json(b)] for a, b in c.open_rep.intervals]},
        lambda cls, doc: cls(R2Rep.from_intervals(_spans_field(doc)))),
}


def _spans_field(doc):
    spans = _field(doc, "intervals", list)
    if not all(isinstance(s, list) and len(s) == 2 and all(map(_is_rational, s)) for s in spans):
        raise ValueError("field 'intervals' must hold a JSON array of [lower, upper] "
                         "rational pairs, got %r" % (spans,))
    return spans


def closed_set_json(c) -> dict:
    return _document(CLOSED_SET_REPS, "rep", c)


def closed_set_from_json(doc):
    rep = _field(doc, "rep", str)
    entry = CLOSED_SET_REPS.get(rep)
    if entry is None:
        raise ValueError("unknown closed-set representation %r" % (rep,))
    return entry[2](_type(entry[0]), doc)


def _piecewise_json(f) -> dict:
    return {"cuts": [q2_json(c) for c in f.cuts],
            "pieces": [[str(c) for c in piece.coeffs()] for piece in f.pieces],
            "values": [q2_json(v) for v in f.bp_values]}


def _piecewise_from_json(cls, doc, load):
    pieces = _field(doc, "pieces", list)
    if not all(isinstance(cs, list) and 1 <= len(cs) <= 3 and all(map(_is_rational, cs))
               for cs in pieces):
        raise ValueError("field 'pieces' must hold a JSON array of 1 to 3 rational "
                         "coefficients per piece, got %r" % (pieces,))
    return cls([q2_from_json(c) for c in _field(doc, "cuts", list)],
               [Poly(*cs) for cs in pieces],
               [q2_from_json(v) for v in _field(doc, "values", list)])


def _seeded(path):
    """The entry of a spike family built from its seed set alone."""
    return (path, lambda f: {"set": set_json(f.source)},
            lambda cls, doc, load: cls(_set_field(doc)))


def _windowed(path):
    """The entry of a spike function built from its seed set and the index
    of its first spike, `"start"`, which is written only when it is not 0."""
    return (path, lambda f: {"set": set_json(f.source), **({"start": f.start} if f.start else {})},
            lambda cls, doc, load: cls(_set_field(doc),
                                       _field(doc, "start") if "start" in doc else 0))


# kind -> ("module.Class" of its type, its document's fields, loader(type,
# doc, load), where load(key) loads the function document in field key):
# the one list of kinds that serialize, read by kind and written by exact
# type
FN_KINDS = {
    "thomae": ("rational_spike.Thomae", lambda f: {}, lambda cls, doc, load: cls()),
    "penny": _windowed("spikes.Penny"),
    "pennyk": ("spikes.PennyK", lambda f: {"set": set_json(f.source), "cutoff": f.cutoff},
               lambda cls, doc, load: cls(_set_field(doc), _field(doc, "cutoff"))),
    "tilde-penny": _windowed("spikes.TildePenny"),
    "cover-psi": _seeded("spikes.CoverPsi"),
    "cover-psi-usco": _seeded("spikes.CoverPsiUsco"),
    "pennyk-limit": ("limits.PennyKLimit", lambda f: {"set": set_json(f.a_set)},
                     lambda cls, doc, load: cls(_set_field(doc))),
    "indicator": ("limits.Indicator", lambda f: {"closed_set": closed_set_json(f.closed_set)},
                  lambda cls, doc, load: cls(closed_set_from_json(
                      _field(doc, "closed_set", dict)))),
    "piecewise": ("piecewise.PiecewiseRational", _piecewise_json, _piecewise_from_json),
    "sum": ("composites.Sum", lambda f: {"f": fn_json(f.f), "g": fn_json(f.g)},
            lambda cls, doc, load: cls(load("f"), load("g"))),
    "scalar-multiple": ("composites.ScalarMultiple", lambda f: {"c": str(f.c), "f": fn_json(f.f)},
                        lambda cls, doc, load: cls(_field(doc, "c", _RATIONAL), load("f"))),
    "restricted": ("composites.RestrictedView",
                   lambda f: {"tags": sorted(f.tags), "f": fn_json(f.f)},
                   lambda cls, doc, load: cls(load("f"), _field(doc, "tags", list))),
}


def fn_json(f) -> dict:
    return _document(FN_KINDS, "kind", f)


def fn_from_json(doc):
    """The function a document describes.  Equal function documents within
    it, by canonical text, load to one object, so a sum or difference merges
    them as it merges a shared atom: the loaded P - P is 0, as the built one
    is."""
    loaded = {}

    def load(doc):
        if not isinstance(doc, dict):
            raise ValueError("a function document is a JSON object, got %r" % (doc,))
        kind = _field(doc, "kind", str)
        entry = FN_KINDS.get(kind)
        if entry is None:
            raise ValueError("unknown function kind %r" % (kind,))
        f = entry[2](_type(entry[0]), doc, lambda field: load(_field(doc, field, dict)))
        return loaded.setdefault(_canonical(doc), f)

    return load(doc)


def dumps(payload: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, trailing newline."""
    buf = io.StringIO()
    dump(payload, buf)
    return buf.getvalue()


def dump(payload: dict, fh) -> None:
    """Write `dumps(payload)` to the text file fh.  An iterator among the
    values of the payload's dicts is written as a JSON array one element at
    a time, as it yields, so a long list of rows never sits in memory."""
    _write(fh, {"schema": SCHEMA, **payload})
    fh.write("\n")


def _write(fh, doc) -> None:
    if isinstance(doc, dict):
        fh.write("{")
        for i, key in enumerate(sorted(doc)):  # documents are keyed by strings
            fh.write("%s%s:" % ("," if i else "", json.dumps(key)))
            _write(fh, doc[key])
        fh.write("}")
    elif isinstance(doc, Iterator):
        fh.write("[")
        for i, item in enumerate(doc):
            fh.write(("," if i else "") + _canonical(item))
        fh.write("]")
    else:
        fh.write(_canonical(doc))


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
