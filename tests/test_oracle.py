"""Oracle simulation: collapse-rule table, least-witness search, soundness of
the rational collapse against exhaustive symbolic evaluation, refusals."""

import ast
import inspect
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from abyss import (Baire1Above, Baire1Limit, ClassRefusal, DomainError, DyadicInterval,
                   ExistsValueAbove, ExistsValueBelow, Found, FuelExhausted, MuWitness,
                   NotFoundBelow, OscBelow, Penny, PennyK, Q2, R2Rep, RepresentationInsufficient,
                   ValueBelowOnBall, admitting_rule, collapse_rules_for, constant, fn_difference,
                   modulus_continuity_qc, mu_search, pennyk_limit, point_of_continuity_qc,
                   restrict_tags, rm_code_from_r2_baire1, sqrt2_family, staircase, sup_baire1,
                   thomae, universe)
from abyss.oracle import QueryTrace, _ball_clipped, _ball_walk, grid_depth_cap
from abyss.universe import BAIRE1, BV, CLIQUISH, REGULATED, USCO

from catalogue import FussyPenny, Slack, generic_limit, make
from conftest import calls_to
from references import (brute_ball_osc, plain_modulus_continuity, plain_osc_below,
                        plain_point_of_continuity_qc, plain_value_below_on_ball,
                        probe_predicate, same_walk, traced)

A = sqrt2_family()
S2 = Q2.sqrt2_scaled
UNIT = DyadicInterval(0, 1)


def test_rule_lookup():
    assert admitting_rule("ExistsValueBelow", Penny(A)) is not None
    assert admitting_rule("ExistsValueAbove", Penny(A)) is None
    assert admitting_rule("ExistsValueAbove", thomae()) is not None  # certificate
    assert admitting_rule("OscBelow", restrict_tags(Penny(A), {CLIQUISH})) is None
    with pytest.raises(ValueError):
        collapse_rules_for("NoSuchShape")


def test_rule_records_carry_statements():
    for rule in collapse_rules_for("ExistsValueBelow"):
        assert rule.rational_form and rule.precondition and rule.justification


def test_mu_osc_below_penny_least_exponent():
    """Frozen from the independent oracle: brute-force the ball oscillation
    over exponents; members near 1/2 bound the answer."""
    f = Penny(A)
    expected = None
    for n in range(0, 20):
        if brute_ball_osc(f, F(1, 2), n, depth=6) <= Q2.of(F(1, 8)):
            expected = n
            break
    assert expected == 3
    res = mu_search(OscBelow(f, F(1, 2), 3))
    assert isinstance(res, Found) and res.witness.value == 3


def test_mu_osc_below_trivials():
    res = mu_search(OscBelow(constant(0), F(1, 3), 5))
    assert isinstance(res, Found) and res.witness.value == 0
    # oscillation at a rational spike never drops: exact empty search
    res = mu_search(OscBelow(thomae(), F(1, 2), 3, fuel=12))
    assert isinstance(res, NotFoundBelow) and res.fuel == 12


def test_mu_exists_above_thomae():
    res = mu_search(ExistsValueAbove(thomae(), UNIT, F(1, 2)))
    assert isinstance(res, Found) and res.witness.value == 0  # endpoint witness
    res = mu_search(ExistsValueAbove(thomae(), UNIT, F(3, 2)))
    assert isinstance(res, NotFoundBelow)


def test_mu_exists_below_usco():
    f = Penny(A)
    res = mu_search(ExistsValueBelow(f, UNIT, F(1, 4)))
    assert isinstance(res, Found)
    res = mu_search(ExistsValueBelow(f, UNIT, F(-1)))
    assert isinstance(res, NotFoundBelow)


def test_mu_exists_reads_the_interval_on_its_clip():
    # the witnesses read an interval reaching outside [0,1] on its clip, so
    # the probe basis must too: no probe point outside [0,1] reaches eval
    cases = [(DyadicInterval(F(-1, 4), F(1, 4)), DyadicInterval(0, F(1, 4))),
             (DyadicInterval(F(3, 4), F(5, 4)), DyadicInterval(F(3, 4), 1))]
    for f in (staircase([(F(1, 8), F(1, 2)), (F(7, 8), 0)]), thomae()):
        for iv, clip in cases:
            for shape in (ExistsValueAbove, ExistsValueBelow):
                res = mu_search(shape(f, iv, F(1, 4)))
                assert isinstance(res, Found)
                assert res == mu_search(shape(f, clip, F(1, 4)))


def test_mu_value_below_on_ball():
    f = Penny(A)
    res = mu_search(ValueBelowOnBall(f, F(1, 3), F(0)))
    assert isinstance(res, Found) and res.witness.value == 0
    res = mu_search(ValueBelowOnBall(f, F(1, 3), F(1, 4), fuel=6))
    assert isinstance(res, NotFoundBelow)
    c = constant(F(1, 2))
    res = mu_search(ValueBelowOnBall(c, F(1, 2), F(1, 2)))
    assert isinstance(res, Found) and res.witness.value == 0


def test_mu_baire1_above():
    rep = pennyk_limit(A)
    res = mu_search(Baire1Above(rep, UNIT, F(1, 4)))
    assert isinstance(res, Found)
    res = mu_search(Baire1Above(rep, UNIT, F(3, 4)))
    assert isinstance(res, NotFoundBelow)
    from abyss import Baire1Limit
    bare = Baire1Limit(lambda n: PennyK(A, n))
    with pytest.raises(RepresentationInsufficient):
        mu_search(Baire1Above(bare, UNIT, F(1, 4)))


# the operations that consume a pointwise-limit representation, by the name
# their refusals give
LIMIT_CONSUMERS = {
    "sup_baire1": lambda f: sup_baire1(f, 0, 1, 4),
    "mu_search/Baire1Above": lambda f: mu_search(Baire1Above(f, UNIT, F(1, 4))),
    "rm_code_from_r2_baire1": lambda f: rm_code_from_r2_baire1(
        R2Rep.from_intervals([(F(1, 4), F(3, 4))]), f, 8),
}


@pytest.mark.parametrize("operation", LIMIT_CONSUMERS)
@pytest.mark.parametrize("f, missing", [
    (thomae(), "consumes a pointwise-limit representation"),
    (Baire1Limit(lambda n: PennyK(A, n)), "no convergence modulus"),
], ids=["thomae", "no-modulus"])
def test_limit_consumers_refuse_what_is_not_a_limit_with_a_modulus(operation, f, missing):
    with pytest.raises(RepresentationInsufficient) as refusal:
        LIMIT_CONSUMERS[operation](f)
    assert str(refusal.value).startswith(operation) and missing in str(refusal.value)


SPIKE_TAGS = (CLIQUISH, USCO, BV, REGULATED, BAIRE1)  # for a limit with no stabilizer


@pytest.mark.parametrize("y", [F(3, 8), F(1, 3), F(1, 5), F(-1, 4)])
def test_modulus_only_limit_agrees_with_the_stabilised_one(y):
    """Without a stabilization witness each value is decided through the
    convergence modulus; where the gap to y is visible it answers as the
    stabilised representation does."""
    for rep in (generic_limit(A, SPIKE_TAGS), pennyk_limit(A)):
        assert mu_search(Baire1Above(rep, UNIT, y)) == Found(MuWitness(0))


def test_modulus_only_limit_at_a_spike_value_runs_out_of_fuel(deadline):
    """At y = 1/2, the largest spike, the approximations never leave the
    threshold's neighbourhood: the modulus-only search ends in
    `FuelExhausted` and does not hang, while the stabilised one refutes."""
    deadline(10)
    with pytest.raises(FuelExhausted, match="limit value indistinguishable"):
        mu_search(Baire1Above(generic_limit(A, SPIKE_TAGS), UNIT, F(1, 2)))
    assert isinstance(mu_search(Baire1Above(pennyk_limit(A), UNIT, F(1, 2))), NotFoundBelow)


def test_exists_value_queries_answer_the_witness_truth():
    """`exists_value_above`/`below` return the truth of the family's
    threshold witness, behind the collapse rule for that query."""
    from abyss.oracle import exists_value_above, exists_value_below
    rng = random.Random(1802)
    fs = [Penny(A), staircase([(F(1, 3), F(1, 2)), (F(3, 4), -1)]), thomae()]
    for _ in range(40):
        f = rng.choice(fs)
        a, b = sorted(rng.sample(range(0, 17), 2))
        iv = DyadicInterval(F(a, 16), F(b, 16))
        y = F(rng.randrange(-4, 9), 8)
        assert exists_value_below(f, iv, y).value is f.witness_below(iv, y)[0]
        if not isinstance(f, Penny):  # the above query is refused for it
            assert exists_value_above(f, iv, y).value is f.witness_above(iv, y)[0]
    with pytest.raises(ClassRefusal):
        exists_value_above(Penny(A), UNIT, F(1, 4))


def test_negative_ball_exponent_is_refused_by_name():
    """A negative exponent once fell through to a bare "negative shift
    count"; the ball refuses it as `exact.ball` does."""
    from abyss import linear, modulus_qc
    for run in (lambda: _ball_clipped(F(1, 2), -1),
                lambda: modulus_qc(linear(1), F(1, 2), 3, -1),
                lambda: _ball_clipped(F(1, 2), -2)):
        with pytest.raises(ValueError, match="radius exponent must be >= 0"):
            run()


def test_monotone_fuel_soundness():
    """Found(n) at fuel F stays Found(n) at every higher fuel; NotFoundBelow
    only ever turns into Found beyond the old bound."""
    f = Penny(A)
    queries = [
        lambda fuel: OscBelow(f, F(1, 2), 3, fuel=fuel),
        lambda fuel: OscBelow(f, S2(0), 1, fuel=fuel),
        lambda fuel: ExistsValueBelow(f, UNIT, F(1, 8), fuel=fuel),
        lambda fuel: ValueBelowOnBall(f, F(2, 3), F(0), fuel=fuel),
        lambda fuel: ExistsValueAbove(thomae(), DyadicInterval(F(1, 8), F(7, 8)),
                                      F(1, 3), fuel=fuel),
    ]
    for make in queries:
        low = mu_search(make(16))
        high = mu_search(make(64))
        if isinstance(low, Found):
            assert isinstance(high, Found)
            assert high.witness.value == low.witness.value
        elif isinstance(high, Found):
            assert high.witness.value > 16


def test_refusal_completeness():
    """Every shape refuses a function whose declared class grants no rule."""
    penny = Penny(A)
    cliq_only = restrict_tags(penny, {CLIQUISH})
    one_minus = fn_difference(constant(1), penny)
    with pytest.raises(ClassRefusal):
        mu_search(ExistsValueAbove(penny, UNIT, F(1, 4)))
    with pytest.raises(ClassRefusal):
        mu_search(ExistsValueBelow(one_minus, UNIT, F(3, 4)))
    with pytest.raises(ClassRefusal):
        mu_search(OscBelow(cliq_only, F(1, 2), 3))
    with pytest.raises(ClassRefusal):
        mu_search(ValueBelowOnBall(cliq_only, F(1, 2), F(0)))
    refusal = None
    try:
        mu_search(OscBelow(cliq_only, F(1, 2), 3))
    except ClassRefusal as e:
        refusal = e
    assert refusal.statement and "cliquish" in str(refusal)


def test_collapse_soundness_sampled():
    """For ruled (shape, class) pairs the rational form agrees with the
    exhaustive symbolic form (smaller sample here; the acceptance suite runs
    the full one)."""
    rng = random.Random(23)
    t = thomae()
    st = staircase([(F(1, 3), F(1, 2))])
    penny = Penny(A)
    for _ in range(30):
        a, b = sorted((F(rng.randrange(0, 32), 32), F(rng.randrange(1, 33), 32)))
        if a == b:
            continue
        iv = DyadicInterval(a, b)
        y = F(rng.randrange(-2, 6), 4)
        # certificate and quasi-continuous admissions, and the usco
        # below-collapse: rational witnesses exist iff symbolic ones do
        for q in (ExistsValueAbove(t, iv, y), ExistsValueAbove(st, iv, y),
                  ExistsValueBelow(penny, iv, y)):
            assert probe_predicate(q, True, 8) == probe_predicate(q, False, 8), q


def test_trace_determinism():
    f = Penny(A)
    t1, t2 = QueryTrace(), QueryTrace()
    mu_search(OscBelow(f, F(1, 2), 3), trace=t1)
    mu_search(OscBelow(f, F(1, 2), 3), trace=t2)
    assert t1.lines == t2.lines and t1.lines


def test_grid_depth_cap_bounded():
    assert grid_depth_cap(UNIT) == 12
    tiny = DyadicInterval(F(1, 3), F(1, 3) + F(1, 1 << 20))
    assert grid_depth_cap(tiny) == 32


def test_mu_exists_stops_once_the_basis_stops_growing(deadline):
    """Past grid_depth_cap every depth probes the same basis, so the witness
    search ends there instead of rescanning it until the fuel runs out.  The
    sup 1/8 is approached, not attained, and the first grid witness lies at
    depth 29, below the cap of 13 on this interval."""
    from abyss import FuelExhausted, fn_sum, linear
    deadline(1)
    f = fn_sum(staircase([(F(1, 2), F(-1, 2))]), linear(F(1, 4)))
    iv = DyadicInterval(F(1, 4), F(3, 4))
    assert grid_depth_cap(iv) == 13
    with pytest.raises(FuelExhausted):
        mu_search(ExistsValueAbove(f, iv, F(1, 8) - F(1, 1 << 30)))


def test_every_fuel_parameter_is_read():
    """A public function of the search modules that takes `fuel` reads it in
    its body (nested functions included): a budget that bounds nothing is
    deleted, not carried."""
    from abyss import algorithms, oracle, reductions, variation
    unread = []
    for mod in (algorithms, variation, reductions, oracle):
        for node in ast.parse(inspect.getsource(mod)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if "fuel" not in [a.arg for a in args]:
                continue
            if not any(isinstance(n, ast.Name) and n.id == "fuel"
                       and isinstance(n.ctx, ast.Load)
                       for stmt in node.body for n in ast.walk(stmt)):
                unread.append("%s.%s" % (mod.__name__, node.name))
    assert unread == []


def loop_calls(names, owner):
    """The calls of names inside a `for` or `while` loop or a comprehension
    anywhere in the package outside the function or class owner, as "file:
    line in function"."""
    import abyss
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = []

    def visit(node, cls, where, in_loop):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            where, in_loop = getattr(node, "name", "<lambda>"), False
        elif isinstance(node, loops):
            in_loop = True
        elif (in_loop and isinstance(node, ast.Call) and owner not in (cls, where)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in names):
            calls.append("%s:%d in %s" % (path.name, node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, where, in_loop)

    for path in sorted(Path(abyss.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, "<module>", False)
    return calls


def test_only_the_shared_walk_loops_over_balls():
    """A ball read inside a loop is a hand-written walk over ball exponents,
    and `oracle._ball_walk` is the one walk: no other function of the
    package reads `_ball_clipped` or `_ball_around` inside a loop."""
    assert loop_calls({"_ball_clipped", "_ball_around"}, "_ball_walk") == []


def test_only_the_probe_state_walks_probe_depths():
    """A probe basis read inside a loop is a hand-written walk over probe
    depths, and `oracle._ProbeState` is the one walk: no function outside
    its methods calls `basis_at` or `probe_points` inside a loop.  And no
    class but `SymbolicFn` (None: the plain scan) and `_SpikeFamily`
    defines `grid_max`."""
    import abyss
    assert loop_calls({"basis_at", "probe_points"}, "_ProbeState") == []
    grid_maxes = [node.name for path in Path(abyss.__file__).parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and any(getattr(n, "name", None) == "grid_max" for n in node.body)]
    assert sorted(grid_maxes) == ["SymbolicFn", "_SpikeFamily"]


def test_only_require_limit_refuses_a_missing_limit_representation():
    """A refusal for a missing pointwise-limit representation or convergence
    modulus is raised in `oracle.require_limit` alone, which each operation
    that consumes a limit calls in place of its own check."""
    import abyss
    sites = []
    for path in sorted(Path(abyss.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            call = node.exc if isinstance(node, ast.Raise) else None
            if getattr(getattr(call, "func", None), "id", None) != "RepresentationInsufficient":
                continue
            text = " ".join(n.value for n in ast.walk(call)
                            if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if "pointwise-limit representation" in text or "convergence modulus" in text:
                while not isinstance(node, ast.FunctionDef):
                    node = parent[node]
                sites.append("%s.%s" % (path.stem, node.name))
    assert sites == ["oracle.require_limit"] * 2


@pytest.mark.parametrize("x", [F(3, 2), F(-1, 2), Q2(1) + S2(4)])
def test_ball_queries_refuse_points_outside_unit_interval(x):
    # once answered Found(1) or raised "interval endpoints out of order"
    with pytest.raises(DomainError):
        mu_search(OscBelow(thomae(), x, 3, 8))
    with pytest.raises(DomainError):
        mu_search(ValueBelowOnBall(thomae(), x, F(1, 2), 8))
    with pytest.raises(DomainError):
        _ball_clipped(x, 3)


# --- the nested-ball walk (its answers against the plain walks: test_differential) ---


def unit_frac(b: int) -> Q2:
    """The point b sqrt2 - floor(b sqrt2) of (0, 1)."""
    x = Q2(0, b)
    return x - Q2.of(x.__floor__())


NEST_POINTS = ([F(0), F(1), F(1, 2), F(1, 3), F(5, 7), F((1 << 70) - 1, 1 << 70)]
               + [A.member(i) for i in (0, 1, 5, 20)]
               + [S2(40), Q2(F(1, 3), F(1, 8)), unit_frac(10 ** 15 + 3),
                  unit_frac(-(10 ** 20 + 7)), unit_frac((1 << 90) + 1)])


@pytest.mark.parametrize("x", NEST_POINTS, ids=str)
def test_clipped_balls_are_nested(x):
    """B(x, 2^-(n+1)) lies inside B(x, 2^-n) for n = 0..70, and the walk
    yields the balls `_ball_clipped` gives, from any start."""
    walk = list(_ball_walk(x, 71))
    assert walk == [(n, _ball_clipped(x, n)) for n in range(72)]
    assert list(_ball_walk(x, 71, 30)) == walk[30:]
    for (_, big), (_, small) in zip(walk, walk[1:]):
        assert big.ln * small.d <= small.ln * big.d, (x, big, small)
        assert small.un * big.d <= big.un * small.d, (x, big, small)


def test_a_search_that_never_hits_reads_two_balls():
    """A ball search whose answer is no ball reads the first ball and the
    smallest, and the trace shows both."""
    for q in (ValueBelowOnBall(Penny(A), F(1, 3), F(1, 4)),
              ValueBelowOnBall(Penny(A), S2(1), F(1, 8)),
              OscBelow(thomae(), F(1, 2), 3), OscBelow(thomae(), F(1, 3), 5)):
        trace = QueryTrace()
        assert mu_search(q, trace) == NotFoundBelow(64)
        assert [ln["depth"] for ln in trace.lines] == [0, 64]
        assert calls_to(lambda: mu_search(q), universe.__file__, "range_on") == 2


def test_a_smallest_ball_that_raises_leaves_the_walk_its_answer():
    """The smallest ball is read only to end a walk early; when reading it
    raises, the walk goes on and answers as it would without it."""
    f, fussy = Penny(A), FussyPenny(A)
    assert mu_search(OscBelow(fussy, F(1, 2), 3)) == mu_search(OscBelow(f, F(1, 2), 3)) \
        == Found(MuWitness(3))
    assert (modulus_continuity_qc(fussy)(F(1, 2), 3)
            == modulus_continuity_qc(f)(F(1, 2), 3) > 0)
    assert point_of_continuity_qc(fussy, 3) == point_of_continuity_qc(f, 3)
    with pytest.raises(FuelExhausted, match="narrower than 2"):
        mu_search(ValueBelowOnBall(fussy, F(1, 3), F(1, 4)))


class BrokenPenny(Penny):
    """The spike function, failing (not giving up) on a ball narrower than
    2^-40."""

    def _range_on(self, iv, k):
        if (iv.un - iv.ln) << 40 < iv.d:
            raise ZeroDivisionError("ball narrower than 2^-40")
        return super()._range_on(iv, k)


def test_a_smallest_ball_that_fails_fails_the_walk():
    """Only a smallest ball that gives up (`FuelExhausted`) leaves the walk
    its answer; any other error there is a fault, and surfaces."""
    with pytest.raises(ZeroDivisionError, match="narrower than 2"):
        mu_search(OscBelow(BrokenPenny(A), F(1, 2), 3))


def test_the_early_miss_keeps_its_margins_under_loose_brackets():
    """Each walk's answer on a family bracketed as loosely as allowed is the
    plain walk's, at the edge of each margin: the smallest ball's bracket
    alone would wrongly say "miss" in every case but the last of each."""
    # inf 1/2 on every ball inside (1/4, 1], 0 on the first: the 2^-8 margin
    rise = Slack(staircase([(F(1, 4), F(1, 2))]))
    for y in (F(1, 2) + F(1, 512), F(1, 2) + F(1, 256) + F(1, 1 << 40)):
        q = ValueBelowOnBall(rise, F(3, 4), y)
        assert same_walk(rise, traced(mu_search, q), traced(plain_value_below_on_ball, q), q)
    # oscillation 1/8 + d on every ball inside (1/4, 3/4): the 2^-(m+13) margin
    for d in (F(1, 1 << 40), F(1, 1 << 16) + F(1, 1 << 40)):
        f = Slack(staircase([(F(1, 4), F(1, 2)), (F(1, 2), F(5, 8) + d)]))
        q = OscBelow(f, F(1, 2), 3)
        assert same_walk(f, traced(mu_search, q), traced(plain_osc_below, q), q)
    # oscillation exactly 1/2 on every ball inside (7/16, 33/64): a hit
    # that only the low end of the smallest ball's bracket leaves open
    f = Slack(staircase([(F(1, 2), F(1, 2)), (F(33, 64), F(1))]))
    assert modulus_continuity_qc(f)(F(1, 2), 0) == plain_modulus_continuity(f, 64)(F(1, 2), 0) == 7
    assert point_of_continuity_qc(f, 1) == plain_point_of_continuity_qc(f, 1, 64) == F(1, 2)


def test_a_limit_search_below_zero_runs_out_of_fuel():
    """A threshold <= 0 with no value above it cannot be refuted on a limit
    representation, with a stabilizer or without one."""
    iv = DyadicInterval(F(11, 16), F(7, 8))
    assert {traced(mu_search, Baire1Above(make(name), iv, F(0), 8))[0][0] for name in (
        "pennyk-limit(4 seeds)", "generic-limit(4 seeds)")} == {"FuelExhausted"}
