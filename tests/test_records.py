"""The package surface: lazy exports and the record classes.

`abyss/__init__` resolves its names on first use, and the record classes are
built by `abyss.records` from their annotations; both must behave as the
eager imports and generated dataclass methods did."""

import ast
from pathlib import Path

import pytest

import abyss
from abyss import collapse, exact, oracle, reductions, sets, variation
from abyss.exact import Truth

# home module -> the names `abyss` exports from it
EXPORTS = {
    "exact": ["Bracket", "DyadicInterval", "FueledBool", "Q2", "Truth", "ball", "halve",
              "rational_grid", "unit_rationals"],
    "sets": ["ComplementOfR2Open", "CountableSet", "FinitePointSet", "R2Rep", "RMCode",
             "finite_set", "sqrt2_family", "tilde_set"],
    "universe": ["Poly", "SymbolicFn", "osc_exact"],
    "piecewise": ["PiecewiseRational", "constant", "linear", "staircase"],
    "rational_spike": ["Thomae", "thomae"],
    "spikes": ["CoverPsi", "CoverPsiUsco", "Penny", "PennyK", "TildePenny", "build_cover_psi",
               "osc_selfcheck"],
    "limits": ["Baire1Limit", "Indicator", "constant_seq_limit", "indicator_baire1",
               "pennyk_limit"],
    "composites": ["fn_difference", "fn_sum", "restrict_tags", "scalar_multiple"],
    "collapse": ["CollapseRule", "Modulus", "admitting_rule", "collapse_rules_for"],
    "oracle": ["Baire1Above", "ExistsValueAbove", "ExistsValueBelow", "Found", "MuWitness",
               "NotFoundBelow", "OscBelow", "ValueBelowOnBall", "mu_search"],
    "algorithms": ["inf_usco", "is_continuous_at", "modulus_continuity_qc", "modulus_qc",
                   "osc_point", "sup_baire1", "sup_qc"],
    "category": ["lsco_modulus_on_cf", "natural_usco_modulus", "point_of_continuity_qc",
                 "point_of_continuity_usco"],
    "covers": ["cousin_subcover", "rm_code_from_r2_baire1", "usco_separator"],
    "variation": ["JordanPair", "OneSidedLimits", "jordan_nbv", "jump_enum", "limits_lr",
                  "modulus_regulation", "total_variation_nbv"],
    "reductions": ["AbyssReport", "CliqModulusOracle", "SupOracle", "adversarial_cliq_modulus",
                   "canonical_cliq_modulus", "canonical_regulation_modulus",
                   "cantor_diagonal", "demo_abyss", "exhaustive_sup_oracle",
                   "extract_enumeration_from_sup", "naive_rational_sup",
                   "realiser_from_cliq_modulus", "realiser_from_regulation_modulus",
                   "realiser_from_sup"],
    "errors": ["ClassRefusal", "ConstructionError", "DomainError", "FuelExhausted",
               "InvalidModulus", "NotPointwiseEvaluable", "OracleInconsistency",
               "RepresentationInsufficient", "UnsupportedVariant"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_home_modules_object(module):
    home = getattr(abyss, module)
    listed = dir(abyss)
    for name in EXPORTS[module]:
        assert getattr(abyss, name) is getattr(home, name), name
        assert name in listed, name


def test_exports_and_star_import_agree():
    assert sorted(abyss.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    namespace = {}
    exec("from abyss import *", namespace)
    assert all(namespace[name] is getattr(abyss, name) for name in abyss.__all__)


def function_imports(source: str):
    """The line of every `import` or `from ... import` statement inside a
    function body (lambdas and nested functions included) of a module's
    source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.update(n.lineno for n in ast.walk(node)
                         if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_no_function_body_imports():
    """A module reaches another lazily through the package's exports
    (`abyss.mu_search`, ...), never by an import statement in a function:
    that statement looks the module up and binds its names on every call,
    about 0.9 us each, which made `sup_baire1` 6-18% slower."""
    reach = "def f():\n    g = lambda: 1\n    from .oracle import mu_search\n    import abyss\n"
    assert function_imports(reach) == [3, 4]
    found = {path.name: function_imports(path.read_text())
             for path in sorted(Path(abyss.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def foreign_private_names(sources: dict) -> list:
    """(module, line, name) of each `from .m import _x` and each read of an
    underscore attribute (dunders aside) that the reading module does not
    define itself, over module sources by name.  The hooks `SymbolicFn`
    declares for its families (the underscore methods of its class body
    that a class of another module defines again) may be read anywhere."""
    trees = {name: ast.parse(source) for name, source in sources.items()}

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    defined, methods = {}, {}
    for name, tree in trees.items():
        names, own = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            if isinstance(node, ast.ClassDef):
                body = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                own |= body
                if name == "universe" and node.name == "SymbolicFn":
                    declared = {n for n in body if private(n)}
        defined[name], methods[name] = names, own
    hooks = {n for n in declared
             if any(n in own for name, own in methods.items() if name != "universe")}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(name, node.lineno, a.name) for a in node.names if private(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and private(node.attr) and node.attr not in defined[name]
                  and node.attr not in hooks):
                found.append((name, node.lineno, node.attr))
    return sorted(found)


def test_no_module_reads_another_modules_underscore_names():
    """Each module reaches another through its public names, and `exact`'s
    integer kernel is one of them: an underscore name is read only in the
    module that defines it, or is a `SymbolicFn` hook."""
    reach = {
        "universe": "class SymbolicFn:\n    def _eval(self): pass\n    def _help(self): pass\n",
        "spikes": "class P:\n    def _eval(self):\n        self._s = 1\n        return self._s\n",
        "oracle": "from .spikes import P, _grid\ndef f(p): return p._eval(), p._help(), p._t,"
                  " p.__class__\n"}
    assert foreign_private_names(reach) == [("oracle", 1, "_grid"), ("oracle", 2, "_help"),
                                            ("oracle", 2, "_t")]
    package = Path(abyss.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert foreign_private_names(sources) == []


def test_unknown_names_raise_attribute_error():
    assert not hasattr(abyss, "no_such_name")
    with pytest.raises(ImportError):
        exec("from abyss import no_such_name", {})


# (record class, its fields in order, the defaults of the trailing ones)
RECORDS = [
    (exact.FueledBool, ("value", "fuel_spent"), {"fuel_spent": 0}),
    (oracle.OscBelow, ("f", "x", "m", "fuel"), {"fuel": 64}),
    (oracle.ValueBelowOnBall, ("f", "x", "q", "fuel"), {"fuel": 64}),
    (oracle.ExistsValueAbove, ("f", "interval", "threshold", "fuel"), {"fuel": 64}),
    (oracle.ExistsValueBelow, ("f", "interval", "threshold", "fuel"), {"fuel": 64}),
    (oracle.Baire1Above, ("f_rep", "interval", "threshold", "fuel"), {"fuel": 64}),
    (oracle.MuWitness, ("value",), {}),
    (oracle.Found, ("witness",), {}),
    (oracle.NotFoundBelow, ("fuel",), {}),
    (collapse.CollapseRule, ("shape", "requires", "real_form", "rational_form",
                           "precondition", "justification"), {}),
    (reductions.SupOracle, ("sup",), {}),
    (reductions.CliqModulusOracle, ("fn",), {}),
    (reductions.SupExtraction, ("index", "value", "bits", "interval"), {}),
    (reductions.AbyssReport, ("instance", "depths", "baseline_values", "oracle_value", "gap",
                              "realiser_point", "realiser_bits"),
     {"realiser_point": None, "realiser_bits": None}),
    (sets.R2Rep, ("intervals",), {}),
    (sets.FinitePointSet, ("points",), {}),
    (sets.ComplementOfR2Open, ("open_rep",), {}),
    (sets.RMCode, ("prefix", "prefix_of_infinite"), {"prefix_of_infinite": False}),
    (variation.OneSidedLimits, ("left", "right"), {}),
    (variation.JordanPair, ("g", "h"), {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_record_construction(cls, fields, defaults):
    values = list(range(1, len(fields) + 1))
    by_position = cls(*values)
    assert [getattr(by_position, f) for f in fields] == values
    assert cls(**dict(zip(fields, values))) == by_position
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == by_position
    required = len(fields) - len(defaults)
    short = cls(*values[:required])
    assert [getattr(short, f) for f in fields] == values[:required] + list(defaults.values())
    assert repr(by_position) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%d" % fv for fv in zip(fields, values)))
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: 0})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_record_equality_and_hash(cls, fields, defaults):
    values = list(range(1, len(fields) + 1))
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != cls(*values[:-1], 0)
    for other, other_fields, _ in RECORDS:
        if other is not cls and len(other_fields) == len(fields):
            assert a != other(*values) and not a == other(*values)
    assert a != tuple(values)
    assert hash(a) == hash(b) == hash(tuple(values))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields, defaults):
    rec = cls(*range(1, len(fields) + 1))
    for name in (fields[0], fields[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert getattr(rec, fields[0]) == 1


def test_record_repr_text():
    assert repr(oracle.Found(oracle.MuWitness(3))) == \
        "Found(witness=MuWitness(value=3))"
    assert repr(exact.FueledBool(Truth.YES, 2)) == \
        "FueledBool(value=<Truth.YES: 'yes'>, fuel_spent=2)"
    assert repr(sets.RMCode.from_balls([(0, 1)])) == \
        "RMCode(prefix=((Fraction(0, 1), Fraction(1, 1)),), prefix_of_infinite=False)"
    assert exact.FueledBool(Truth.NO) == exact.FueledBool(Truth.NO, 0)
