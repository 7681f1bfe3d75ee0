"""Deterministic self-test battery: a desk-scale pass over every subsystem,
emitting a canonical JSON transcript (byte-identical across runs).

The full property-based acceptance suite lives in the test tree; this battery
is the CLI-facing contract check.
"""

from __future__ import annotations

from fractions import Fraction as F

from . import (ClassRefusal, DyadicInterval, FinitePointSet, Penny, Q2, R2Rep,
               ball, build_cover_psi, canonical_cliq_modulus,
               canonical_regulation_modulus, constant, cousin_subcover,
               demo_abyss, exhaustive_sup_oracle, halve, indicator_baire1,
               inf_usco, is_continuous_at, jordan_nbv, jump_enum, limits_lr,
               mu_search, naive_rational_sup, osc_point, osc_selfcheck,
               pennyk_limit, point_of_continuity_qc, point_of_continuity_usco,
               natural_usco_modulus, rational_grid,
               realiser_from_cliq_modulus, realiser_from_regulation_modulus,
               realiser_from_sup, restrict_tags, rm_code_from_r2_baire1,
               sqrt2_family, staircase, sup_baire1, sup_qc, thomae,
               total_variation_nbv, usco_separator)
from .oracle import ExistsValueAbove, OscBelow
from .serialize import rat_json


def _checks():
    A = sqrt2_family()
    penny = Penny(A)
    t = thomae()

    yield ("ball-arithmetic",
           ball(F(1, 2), 2) == DyadicInterval(F(1, 4), F(3, 4))
           and ball(F(0), 3) == DyadicInterval(F(-1, 8), F(1, 8))
           and ball(F(1, 3), 2) == DyadicInterval(F(1, 12), F(7, 12)),
           {"ball(1/3,2)": str(ball(F(1, 3), 2))})

    l, r = halve(DyadicInterval(0, F(1, 3)))
    yield ("halve-partition", l.upper == r.lower == F(1, 6),
           {"midpoint": rat_json(l.upper)})

    g = rational_grid(DyadicInterval(0, 1), 2)
    yield ("grid-depth-2", g == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
           {"points": [rat_json(x) for x in g]})

    yield ("eval-examples",
           t.eval(F(1, 2)) == Q2.of(F(1, 2))
           and penny.eval(F(1, 2)) == Q2.of(0)
           and penny.eval(Q2.sqrt2_scaled(0)) == Q2.of(F(1, 2)),
           {"thomae(1/2)": "1/2", "penny(sqrt2/2)": "1/2"})

    s = sup_qc(t, F(1, 4), F(3, 4), 10)
    yield ("sup-thomae", s.contains(F(1, 2)) and s.width <= F(1, 1024),
           {"interval": str(s)})

    sb = sup_baire1(pennyk_limit(A), F(0), F(1), 6)
    yield ("sup-limit-representation", sb.contains(F(1, 2)),
           {"interval": str(sb)})

    i = inf_usco(penny, F(0), F(1), 8)
    yield ("inf-spike", i.contains(F(0)), {"interval": str(i)})

    o = osc_point(penny, Q2.sqrt2_scaled(1), 8)
    yield ("oscillation-identity",
           o.contains(F(1, 4)) and osc_selfcheck(penny, probe_limit=8),
           {"osc at member 1": str(o)})

    x = point_of_continuity_qc(t, 6)
    cert = osc_point(t, x, 6)
    yield ("continuity-point-qc", cert.upper <= F(1, 64),
           {"point": rat_json(x), "certificate": str(cert)})

    xu = point_of_continuity_usco(penny, natural_usco_modulus(penny), 6)
    yield ("continuity-point-usco",
           bool(is_continuous_at(penny, xu, 64)),
           {"point": rat_json(xu)})

    cover = cousin_subcover(constant(F(1, 8)))
    yield ("cousin-uniform", len(cover) > 0, {"balls": len(cover)})

    psi = build_cover_psi(A, False)
    try:
        cousin_subcover(psi)
        refused = False
    except ClassRefusal:
        refused = True
    yield ("cousin-cliquish-refusal", refused, {})

    st = staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))])
    v = total_variation_nbv(st, 1, 8)
    yield ("variation-staircase", v.contains(F(3, 4)), {"interval": str(v)})

    jp = jordan_nbv(st)
    grid = rational_grid(DyadicInterval(0, 1), 4)
    mono = all(jp.g(a) <= jp.g(b) and jp.h(a) <= jp.h(b)
               for a, b in zip(grid, grid[1:]))
    agree = all(jp.check_point(st, q) for q in grid)
    yield ("jordan-decomposition", mono and agree, {"grid": len(grid)})

    yield ("jump-enumeration",
           [str(j) for j in jump_enum(st)] == ["1/3", "2/3"]
           and jump_enum(penny) == [],
           {})

    lr = limits_lr(staircase([(F(1, 2), 1)]), F(1, 2), 8)
    yield ("one-sided-limits",
           lr.left.contains(F(0)) and lr.right.contains(F(1)), {})

    rep = demo_abyss(A, depths=(8, 12, 16))
    yield ("abyss-gap",
           rep.gap == F(1, 2) and rep.realiser_bits == "1011010100000100",
           rep.to_jsonable())

    z1 = realiser_from_sup(exhaustive_sup_oracle(), A, 8, fuel=6)
    z2 = realiser_from_cliq_modulus(canonical_cliq_modulus(A), A, 8, fuel=6)
    z3 = realiser_from_regulation_modulus(canonical_regulation_modulus(A), A, 8, fuel=6)
    outside = all(A.index_of(Q2.of(z)) is None for z in (z1, z2, z3))
    yield ("realisers-avoid-the-set", outside,
           {"points": [rat_json(z) for z in (z1, z2, z3)]})

    try:
        mu_search(ExistsValueAbove(penny, DyadicInterval(0, 1), F(1, 4)))
        r1 = False
    except ClassRefusal:
        r1 = True
    try:
        mu_search(OscBelow(restrict_tags(penny, {"cliquish"}), F(1, 2), 3))
        r2 = False
    except ClassRefusal:
        r2 = True
    yield ("collapse-refusals", r1 and r2, {})

    o2 = R2Rep.from_intervals([(F(0), F(1, 2)), (F(1, 2), F(1))])
    code = rm_code_from_r2_baire1(o2, indicator_baire1(o2), fuel=32)
    yield ("rm-code-avoids-split-point", not code.covers(F(1, 2)),
           {"balls": len(code.prefix)})

    sep = usco_separator(FinitePointSet.of([F(0)]), FinitePointSet.of([F(1)]))
    yield ("separator", sep.eval(1) == Q2.of(1) and sep.eval(0) == Q2.of(0), {})

    yield ("baseline-blindness",
           all(naive_rational_sup(penny, 0, 1, d) == 0 for d in (8, 16, 24)),
           {"depths": [8, 16, 24]})


def run_selftest() -> dict:
    results = []
    ok = True
    for name, passed, detail in _checks():
        results.append({"name": name, "pass": bool(passed), "detail": detail})
        ok = ok and bool(passed)
    return {"selftest": results, "all_pass": ok}
