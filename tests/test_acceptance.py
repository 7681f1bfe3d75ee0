"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them live).

All randomness is seeded; every expected value comes from an independent
oracle computed inside this file or in conftest (structural enumeration,
partition dynamic programs, integer square roots), never from the code path
under test.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

from abyss import (ClassRefusal, ComplementOfR2Open, CoverPsi, CoverPsiUsco, DyadicInterval,
                   FinitePointSet, Found, Indicator, Penny, PennyK, Q2, R2Rep, build_cover_psi,
                   canonical_cliq_modulus, canonical_regulation_modulus, constant, cousin_subcover,
                   exhaustive_sup_oracle, extract_enumeration_from_sup, finite_set, fn_sum,
                   inf_usco, jordan_nbv, linear, mu_search, naive_rational_sup, osc_point,
                   pennyk_limit, point_of_continuity_qc, rational_grid, realiser_from_cliq_modulus,
                   realiser_from_regulation_modulus, realiser_from_sup, restrict_tags,
                   sqrt2_family, sup_baire1, sup_qc, thomae, total_variation_nbv)
from abyss.composites import ScalarMultiple
from abyss.oracle import (Baire1Above, ExistsValueAbove, ExistsValueBelow,
                          OscBelow, ValueBelowOnBall)
from abyss.universe import CLIQUISH, USCO

from catalogue import (build, random_continuous_piecewise, random_finite_set, random_staircase,
                       random_staircase_plus_linear, random_subinterval)
from references import (covers_unit, exact_symbolic_inf, exact_symbolic_sup,
                        partition_brute_variation, probe_predicate,
                        variation_candidates)

A = sqrt2_family()
S2 = Q2.sqrt2_scaled
TOL = {"k10": F(1, 1 << 10), "k8": F(1, 1 << 8), "k9": F(1, 1 << 9)}


def _report(num, desc, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence_suprema():
    """200 randomized instances: interval results of width 2^-10 contain the
    exhaustive symbolic value; total runtime under 60 s."""
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    ok = True

    def check_sup(f, p, q):
        nonlocal checked, ok
        iv = sup_qc(f, p, q, 10)
        want = exact_symbolic_sup(f, DyadicInterval(p, q))
        ok = ok and iv.width <= TOL["k10"] and Q2.of(iv.lower) <= want <= Q2.of(iv.upper)
        checked += 1

    def check_inf(f, p, q):
        nonlocal checked, ok
        iv = inf_usco(f, p, q, 10)
        want = exact_symbolic_inf(f, DyadicInterval(p, q))
        ok = ok and iv.width <= TOL["k10"] and Q2.of(iv.lower) <= want <= Q2.of(iv.upper)
        checked += 1

    def check_sup_limit(seed_set, p, q):
        nonlocal checked, ok
        iv = sup_baire1(pennyk_limit(seed_set), p, q, 10)
        want = exact_symbolic_sup(Penny(seed_set), DyadicInterval(p, q))
        ok = ok and iv.width <= TOL["k10"] and Q2.of(iv.lower) <= want <= Q2.of(iv.upper)
        checked += 1

    for _ in range(35):
        p, q = random_subinterval(rng)
        check_sup(build(random_continuous_piecewise(rng)), p, q)
    for _ in range(20):
        p, q = random_subinterval(rng)
        check_sup(build(random_staircase(rng)), p, q)
    for _ in range(15):
        p, q = random_subinterval(rng)
        check_sup(thomae(), p, q)  # restrictions of the spike-at-rationals map
    for _ in range(35):
        B = random_finite_set(rng)
        p, q = random_subinterval(rng)
        check_inf(Penny(B), p, q)
    for _ in range(20):
        p, q = random_subinterval(rng)
        check_inf(PennyK(A, rng.randrange(0, 12)), p, q)
    for _ in range(15):
        p, q = random_subinterval(rng)
        check_inf(build(random_continuous_piecewise(rng)), p, q)
    for _ in range(40):
        B = random_finite_set(rng)
        p, q = random_subinterval(rng)
        check_sup_limit(B, p, q)
    for _ in range(20):
        check_sup_limit(A, *random_subinterval(rng))

    elapsed = time.monotonic() - t0
    _report(1, "suprema/infima bracket the symbolic value on %d instances "
            "(%.1fs)" % (checked, elapsed), ok and checked == 200 and elapsed < 60)


def test_criterion_2_oscillation_identity():
    """The spike function equals its own oscillation: osc_point brackets the
    value at 25 members and 25 rationals, width 2^-8."""
    f = Penny(A)
    probes = [A.member(n) for n in range(25)]
    probes += [Q2.of(g) for g in rational_grid(DyadicInterval(0, 1), 4)[:25]]
    ok = True
    for x in probes:
        iv = osc_point(f, x, 8)
        v = f.eval(x).as_rational()
        ok = ok and iv.width <= TOL["k8"] and iv.contains(v)
    _report(2, "oscillation brackets the function value at 50 probes", ok)


def test_criterion_3_effective_baire_category():
    """Certified continuity points for the rational-spike map and 20 random
    quasi-continuous instances; certificates re-verified at doubled fuel."""
    rng = random.Random(103)
    instances = [thomae()]
    for _ in range(10):
        instances.append(build(random_continuous_piecewise(rng)))
    for _ in range(10):
        instances.append(build(random_staircase(rng)))
    ok = True
    for f in instances:
        x = point_of_continuity_qc(f, 8, fuel=64)
        cert = osc_point(f, x, 8, fuel=128)  # independent re-verification
        ok = ok and cert.upper <= TOL["k8"]
    _report(3, "continuity points certified at 2^-8 on %d instances"
            % len(instances), ok)


def test_criterion_4_cousin_covering():
    """Gap-free finite subcovers for 20 admitted gauges; refusal plus the
    exact measure bound for the cliquish covering instance."""
    rng = random.Random(104)
    gauges = []
    for _ in range(8):
        gauges.append(constant(F(rng.randrange(1, 8), 32)))
    for _ in range(6):
        gauges.append(linear(F(rng.randrange(0, 3), 4), F(rng.randrange(1, 6), 16)))
    for _ in range(6):
        st = build(random_staircase(rng))
        shift = F(1, 8)
        from abyss import fn_sum
        gauges.append(fn_sum(st, constant(shift - min(
            st.eval(Q2.of(g)).as_rational() for g in rational_grid(DyadicInterval(0, 1), 6)))))
    ok = True
    count = 0
    for psi in gauges:
        if not psi.is_positive():
            continue
        balls = cousin_subcover(psi)
        ok = ok and covers_unit(balls)
        count += 1
    ok = ok and count >= 20

    psi = build_cover_psi(A, False)
    try:
        cousin_subcover(psi)
        ok = False
    except ClassRefusal:
        pass
    til = psi.a_set
    radii = [psi.eval(til.member(i)).as_rational() for i in range(12)]
    zero_r = psi.eval(F(0)).as_rational()
    lengths = [2 * r for r in radii] + [2 * zero_r]
    for size in range(1, 13):
        for sel in combinations(range(13), size):
            if sum(lengths[i] for i in sel) >= 1:
                ok = False
    _report(4, "finite subcovers verified on %d gauges; covering instance "
            "refused with the measure bound" % count, ok)


def test_criterion_5_jordan_decomposition():
    """20 normalised-BV staircase+linear instances: monotone parts at depth
    10, reconstruction within 2^-9, variation matching the partition brute
    force within 2^-8."""
    rng = random.Random(105)
    grid10 = rational_grid(DyadicInterval(0, 1), 10)
    ok = True
    for _ in range(20):
        f = build(random_staircase_plus_linear(rng))
        jp = jordan_nbv(f)
        sample = grid10[:: 8] + [F(1)]  # monotonicity probed across depth 10
        gs = [jp.g(x) for x in sample]
        hs = [jp.h(x) for x in sample]
        ok = ok and all(a <= b for a, b in zip(gs, gs[1:]))
        ok = ok and all(a <= b for a, b in zip(hs, hs[1:]))
        ok = ok and all(abs((jp.g(x) - jp.h(x)) - f.eval(x)) <= Q2.of(TOL["k9"])
                        for x in sample)
        got = total_variation_nbv(f, F(1), 10)
        brute = partition_brute_variation(f, F(1), variation_candidates(f), 12)
        ok = ok and brute <= Q2.of(got.upper) and brute >= Q2.of(got.lower - TOL["k8"])
    _report(5, "Jordan pairs monotone and exact; variation matches the "
            "partition search on 20 instances", ok)


def test_criterion_6_abyss_demonstration():
    """Grid sampling returns exactly 0 at depths 8, 16, 24 while the exact
    oracle returns exactly 1/2."""
    f = Penny(A)
    oracle = exhaustive_sup_oracle()
    baselines = [naive_rational_sup(f, 0, 1, d) for d in (8, 16, 24)]
    exact = oracle(f, F(0), F(1))
    gap_ok = all(b == 0 for b in baselines) and exact == F(1, 2)
    gap_ok = gap_ok and (exact - max(baselines)) >= F(1, 2)
    _report(6, "baseline 0 at depths 8/16/24 vs exact 1/2 (gap >= 1/2)", gap_ok)


def test_criterion_7_realiser_reductions():
    """Each reduction yields points certified distinct from every member of
    index <= 16, on 10 random seed sets apiece; bit extraction reproduces the
    expansion of sqrt2/2 to 16 bits."""
    rng = random.Random(107)
    oracle = exhaustive_sup_oracle()
    ok = True
    for _ in range(10):
        B = random_finite_set(rng)
        zs = [
            realiser_from_sup(oracle, B, 10, fuel=16),
            realiser_from_cliq_modulus(canonical_cliq_modulus(B), B, 10, fuel=16),
            realiser_from_regulation_modulus(
                canonical_regulation_modulus(B), B, 10, fuel=16),
        ]
        limit = min(17, B.size)
        for z in zs:
            ok = ok and all(B.member(n) != Q2.of(z) for n in range(limit))
    ext = extract_enumeration_from_sup(oracle, A, 16, rounds=1)
    want_bits = bin(math.isqrt(2 << 30))[2:].zfill(16)
    ok = ok and ext[0].bits == want_bits
    _report(7, "realisers certified outside 30 random seed sets; bit "
            "extraction matches the integer-sqrt oracle", ok)


def test_criterion_8_collapse_rule_soundness():
    """Every ruled (shape, class) pair: 100 random queries agree between the
    rational-collapsed and exhaustive symbolic evaluations; every unruled
    pair is exercised by a concrete refusal."""
    rng = random.Random(108)
    penny = Penny(A)
    t = thomae()
    ok = True

    def rand_iv():
        a, b = random_subinterval(rng)
        return DyadicInterval(a, b)

    def rand_threshold():
        return F(rng.randrange(-4, 20), 16)

    pair_queries = {
        ("ExistsValueAbove", "quasi-continuous"):
            lambda: ExistsValueAbove(build(random_staircase(rng)), rand_iv(), rand_threshold()),
        ("ExistsValueAbove", "certificate"):
            lambda: ExistsValueAbove(t, rand_iv(), rand_threshold()),
        ("ExistsValueBelow", "usco"):
            lambda: ExistsValueBelow(penny, rand_iv(), rand_threshold()),
        ("ExistsValueBelow", "quasi-continuous"):
            lambda: ExistsValueBelow(build(random_continuous_piecewise(rng)), rand_iv(),
                                     rand_threshold()),
        ("ExistsValueBelow", "certificate"):
            lambda: ExistsValueBelow(t, rand_iv(), rand_threshold()),
        ("OscBelow", "quasi-continuous"):
            lambda: OscBelow(build(random_staircase(rng)),
                             F(rng.randrange(0, 33), 32), rng.randrange(1, 6)),
        ("OscBelow", "certificate"):
            lambda: OscBelow(t, F(rng.randrange(0, 33), 32), rng.randrange(1, 6)),
        ("OscBelow", "usco"):
            lambda: OscBelow(penny, F(rng.randrange(0, 33), 32), rng.randrange(1, 6)),
        ("ValueBelowOnBall", "usco"):
            lambda: ValueBelowOnBall(penny, F(rng.randrange(0, 33), 32),
                                     rand_threshold()),
        ("Baire1Above", "Baire-1"):
            lambda: Baire1Above(pennyk_limit(A), rand_iv(), rand_threshold()),
    }
    for pair, make in pair_queries.items():
        for _ in range(100):
            q = make()
            assert probe_predicate(q, True) == probe_predicate(q, False), (pair, q)

    refusals = 0
    try:
        mu_search(ExistsValueAbove(penny, DyadicInterval(0, 1), F(1, 4)))
    except ClassRefusal:
        refusals += 1
    try:
        mu_search(OscBelow(restrict_tags(penny, {CLIQUISH}), F(1, 2), 3))
    except ClassRefusal:
        refusals += 1
    ok = ok and refusals == 2
    _report(8, "collapsed and symbolic evaluations agree on 1000 queries; "
            "both unruled pairs refuse", ok)


def test_value_below_on_ball_search_matches_every_probe_on_usco_families():
    """mu_search reads the ball infimum over every point, which the usco rule
    licenses: on usco families beyond the spike function it finds the same
    least exponent as the every-probe reading.  Positive thresholds stay
    above 2^-12, the cover function's value at 1/128, the depth-7 probe
    nearest 0: below it that reading cannot see the infimum 0 at 0.  The
    sums' parts approach their infima at shared points.  `Sum.range_on`
    once assumed that of every sum (defect 2a); it no longer does, and the
    ball-walk rows of `test_differential.py` also run sums whose parts do
    not."""
    gaps = ComplementOfR2Open(R2Rep.from_intervals([(F(1, 8), F(1, 4)), (F(5, 8), F(3, 4))]))
    B = finite_set([S2(0), S2(3), S2(6)])
    fns = [Indicator(gaps), Indicator(FinitePointSet.of([F(1, 3), S2(1)])),
           CoverPsiUsco(A), CoverPsiUsco(B), fn_sum(constant(F(1, 4)), CoverPsiUsco(B)),
           fn_sum(Indicator(gaps), Indicator(FinitePointSet.of([F(3, 16), S2(2)]))),
           ScalarMultiple(-1, CoverPsi(B)), restrict_tags(CoverPsiUsco(A), {USCO})]
    thresholds = [F(-1, 8), F(0), F(5, 1 << 13), F(3, 1 << 10), F(1, 128), F(1, 64),
                  F(65, 256), F(1, 2), F(1), F(17, 16)]
    for f in fns:
        assert USCO in f.tags, f
        for x in (F(i, 16) for i in range(17)):
            for q in thresholds:
                query = ValueBelowOnBall(f, x, q, fuel=23)
                res = mu_search(query)
                got = res.witness.value if isinstance(res, Found) else None
                assert got == probe_predicate(query, False), (f, x, q)


def test_criterion_9_determinism():
    """Two selftest runs produce byte-identical JSON transcripts."""
    cmd = [sys.executable, "-m", "abyss.cli", "selftest"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = (r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout
          and json.loads(r1.stdout)["all_pass"])
    _report(9, "selftest transcripts byte-identical across runs", ok)
