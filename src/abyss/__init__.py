"""Exact-arithmetic workbench for oracle-relative algorithms on discontinuous
real functions: suprema, oscillation, moduli, continuity points via effective
Baire category, finite subcovers, Jordan decomposition, and the realiser
reductions that separate what rational sampling can and cannot see.

The names below are exported lazily (PEP 562): `import abyss` loads no
module, and each name imports its home module on first use.
"""

from importlib import import_module

# home module -> the names it exports
_EXPORTS = {
    "exact": "Bracket DyadicInterval FueledBool Q2 Truth ball halve rational_grid "
             "unit_rationals",
    "sets": "ComplementOfR2Open CountableSet FinitePointSet R2Rep RMCode finite_set "
            "sqrt2_family tilde_set",
    "universe": "Poly SymbolicFn osc_exact",
    "piecewise": "PiecewiseRational constant linear staircase",
    "rational_spike": "Thomae thomae",
    "spikes": "CoverPsi CoverPsiUsco Penny PennyK TildePenny build_cover_psi osc_selfcheck",
    "limits": "Baire1Limit Indicator constant_seq_limit indicator_baire1 pennyk_limit",
    "composites": "fn_difference fn_sum restrict_tags scalar_multiple",
    "collapse": "CollapseRule Modulus admitting_rule collapse_rules_for",
    "oracle": "Baire1Above ExistsValueAbove ExistsValueBelow Found MuWitness NotFoundBelow "
              "OscBelow ValueBelowOnBall mu_search",
    "algorithms": "inf_usco is_continuous_at modulus_continuity_qc modulus_qc osc_point "
                  "sup_baire1 sup_qc",
    "category": "lsco_modulus_on_cf natural_usco_modulus point_of_continuity_qc "
                "point_of_continuity_usco",
    "covers": "cousin_subcover rm_code_from_r2_baire1 usco_separator",
    "variation": "JordanPair OneSidedLimits jordan_nbv jump_enum limits_lr "
                 "modulus_regulation total_variation_nbv",
    "reductions": "AbyssReport CliqModulusOracle SupOracle adversarial_cliq_modulus "
                  "canonical_cliq_modulus canonical_regulation_modulus cantor_diagonal "
                  "demo_abyss exhaustive_sup_oracle extract_enumeration_from_sup "
                  "naive_rational_sup realiser_from_cliq_modulus "
                  "realiser_from_regulation_modulus realiser_from_sup",
    "errors": "ClassRefusal ConstructionError DomainError FuelExhausted InvalidModulus "
              "NotPointwiseEvaluable OracleInconsistency RepresentationInsufficient "
              "UnsupportedVariant",
}
# exported name -> its home module; each module is also reachable by its name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update((module, module) for module in ("serialize", "selftest", *_EXPORTS))

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = import_module("." + module, __name__)
    value = home if module == name else getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
