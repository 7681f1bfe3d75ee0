"""JSON schema: exact round-trips, string-coded rationals, canonical dumps."""

import json
from fractions import Fraction as F

import pytest

from abyss import (Baire1Limit, ComplementOfR2Open, FinitePointSet, Indicator, Penny, PennyK,
                   Q2, R2Rep, TildePenny, build_cover_psi, constant, constant_seq_limit,
                   finite_set, fn_difference, fn_sum, pennyk_limit,
                   restrict_tags, sqrt2_family, staircase, thomae)
from abyss.serialize import (dumps, fn_from_json, fn_json, interval_json, q2_from_json,
                             q2_json, rat_json, set_from_json, set_json)
from abyss.exact import DyadicInterval

A = sqrt2_family()


def test_rationals_as_strings():
    assert rat_json(F(1, 3)) == "1/3"
    assert rat_json(F(2)) == "2/1"
    assert q2_json(Q2.of(F(-5, 7))) == "-5/7"
    assert q2_json(Q2(F(1, 3), F(1, 16))) == {"a": "1/3", "b": "1/16"}
    p = q2_from_json({"a": "1/3", "b": "1/16"})
    assert p == Q2(F(1, 3), F(1, 16))


def test_interval_roundtrip():
    iv = DyadicInterval(F(1, 3), F(2, 3))
    assert interval_json(iv) == {"lower": "1/3", "upper": "2/3"}


def test_set_roundtrip():
    doc = set_json(A)
    assert doc == {"generator": "sqrt2-halving"}
    B = finite_set([Q2(F(1, 4), F(1, 32)), Q2(0, F(1, 8))])
    doc2 = set_json(B)
    C = set_from_json(doc2)
    assert C.size == 2 and C.member(0) == B.member(0) and C.member(1) == B.member(1)


def test_a_finite_set_named_as_the_generator_round_trips_by_its_points():
    """A set is written by what it holds, not by its `name`: a one-point
    set named "sqrt2-halving" once loaded back as the sqrt2 family, so its
    Penny read 0 at 1/2 where it had read 1/2."""
    f = Penny(finite_set([F(1, 2)], name="sqrt2-halving"))
    doc = fn_json(f)
    assert doc["set"] == {"generator": "finite", "points": ["1/2"]}
    g = fn_from_json(doc)
    assert g.eval(F(1, 2)) == f.eval(F(1, 2)) == Q2.of(F(1, 2))
    assert fn_json(g) == doc


def test_finite_set_document_without_surjective():
    B = finite_set([Q2(F(1, 4), F(1, 32)), F(3, 4)])
    doc = set_json(B)
    assert doc == {"generator": "finite", "points": [{"a": "1/4", "b": "1/32"}, "3/4"]}
    # a document written with the key still loads to the same members
    C = set_from_json({**doc, "surjective": False})
    assert [C.member(n) for n in range(C.size)] == [B.member(0), B.member(1)]


FUNCTIONS = [
    thomae(),
    Penny(A),
    PennyK(A, 5),
    TildePenny(A),
    build_cover_psi(A, False),
    build_cover_psi(A, True),
    Indicator(FinitePointSet.of([F(1, 2)])),
    Indicator(ComplementOfR2Open(R2Rep.from_intervals([(F(1, 4), F(3, 4))]))),
    staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))]),
    fn_difference(constant(1), Penny(A)),
    restrict_tags(Penny(A), {"cliquish"}),
    pennyk_limit(A),
]


@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.kind)
def test_fn_roundtrip_exact(f):
    doc = fn_json(f)
    text = json.dumps(doc)
    g = fn_from_json(json.loads(text))
    assert fn_json(g) == doc
    probes = [F(0), F(1, 3), F(1, 2), F(7, 8), F(1), Q2.sqrt2_scaled(0), Q2.sqrt2_scaled(3)]
    for x in probes:
        assert f.eval(x) == g.eval(x)
    assert g.tags == f.tags


def test_only_registered_types_serialize():
    """`fn_json` finds a document by exact type: a subclass or a bare
    representation the table does not name refuses, not passes as its base."""
    stripped = type("Stripped", (Penny,), {})
    for f in (Baire1Limit(lambda n: PennyK(A, n)), constant_seq_limit(constant(1)),
              stripped(A, start=2)):
        with pytest.raises(ValueError):
            fn_json(f)


def test_spike_window_start_round_trips():
    """A `penny` or `tilde-penny` document names the first spike index as
    `"start"` when it is not 0 and reads it back, with the same values
    before and past the window; at start 0 the document is the one written
    without it."""
    irr = finite_set([Q2(F(1, 4), F(1, 32)), Q2(F(1, 3), F(1, 64)), Q2(0, F(1, 8))])
    assert dumps(fn_json(Penny(A, start=0))) == \
        '{"kind":"penny","schema":"abyss/1","set":{"generator":"sqrt2-halving"}}\n'
    for cls in (Penny, TildePenny):
        for a_set in (A, irr):
            whole = cls(a_set)
            assert dumps(fn_json(cls(a_set, start=0))) == dumps(fn_json(whole))
            assert fn_json(fn_from_json({**fn_json(whole), "start": 0})) == fn_json(whole)
            for start in (1, 2, 5):
                f = cls(a_set, start=start)
                doc = fn_json(f)
                assert doc == {**fn_json(whole), "start": start}
                g = fn_from_json(json.loads(json.dumps(doc)))
                assert type(g) is cls and fn_json(g) == doc
                for n, p in f.a_set.members_upto(8):
                    want = Q2.of(0) if n < start else whole.eval(p)
                    assert f.eval(p) == g.eval(p) == want, (cls, start, n)


def test_equal_atom_documents_load_to_one_object():
    """A loaded difference cancels as the built one does: the two equal
    Penny documents load to one object, which the combination merges."""
    P, unit = Penny(A), DyadicInterval(0, 1)
    g = fn_from_json(fn_json(fn_difference(P, P)))
    assert [b.exact and b.lo for b in g.range_on(unit, 8)] == [0, 0]
    h = fn_from_json(fn_json(fn_difference(fn_sum(thomae(), P), P)))
    assert [b.exact and b.lo for b in h.range_on(unit, 8)] == [0, 1]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        fn_from_json({"kind": "mystery"})


def test_dumps_canonical():
    payload = {"b": 1, "a": {"y": "2/1", "x": "1/2"}}
    s1 = dumps(payload)
    s2 = dumps({"a": {"x": "1/2", "y": "2/1"}, "b": 1})
    assert s1 == s2
    assert s1.startswith('{"a":') and '"schema":"abyss/1"' in s1
    assert s1.endswith("\n")
