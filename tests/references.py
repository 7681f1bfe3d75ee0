"""The plain computations the fast paths are checked against, each written
once.  A reference does not run the shortcut it checks: it loops where the
path bisects, re-evaluates where the path keeps state, reads every ball
where the path stops early, and walks on `Fraction`s where the path walks on
integers.  What it shares with the path (`_ball_clipped`, `_osc_on`,
`basis_at`, `_halve_values`) is not the shortcut under test."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

from abyss import (Baire1Above, Baire1Limit, Bracket, ClassRefusal, DyadicInterval,
                   ExistsValueAbove, ExistsValueBelow, Found, FuelExhausted, MuWitness,
                   NotFoundBelow, OracleInconsistency, OscBelow, Penny, PennyK, PiecewiseRational,
                   Q2, RMCode, SupOracle, Thomae, UnsupportedVariant, ValueBelowOnBall,
                   rational_grid, unit_rationals)
from abyss.algorithms import _halve_values
from abyss.category import _next_ball, _room
from abyss.collapse import _ball_clipped, _osc_on, require_rule, require_tag
from abyss.composites import RestrictedView, ScalarMultiple, Sum
from abyss.covers import _rational_interval_stream
from abyss.exact import Truth, _check_precision, least_exponent
from abyss.oracle import DEFAULT_FUEL, QueryTrace, _baire1_value_above, basis_at, grid_depth_cap
from abyss.reductions import SupExtraction
from abyss.serialize import dumps, q2_json
from abyss.universe import (BAIRE1, BV, CLIQUISH, CONTINUOUS, LSCO, NORMALISED_BV,
                            QUASI_CONTINUOUS, REGULATED, SIMPLY_CONTINUOUS, USCO, Poly, osc_exact)

# the exceptions that answer a query: refusals, running out of fuel and
# oracle lies; anything else is a fault of the test or the code
ANSWERS = (ValueError, ClassRefusal, FuelExhausted, OracleInconsistency, UnsupportedVariant)


def outcome(run):
    """run()'s answer, or the type name and message of the exception it
    answered with."""
    try:
        return run()
    except ANSWERS as e:
        return (type(e).__name__, str(e))


def traced(search, q):
    """The outcome of search(q, trace) and the lines of its trace."""
    trace = QueryTrace()
    return outcome(lambda: search(q, trace)), trace.lines


def same_walk(f, got, want, q):
    """The traced walk of the ball query q and the plain one give the same
    answer, and the balls it reads above the smallest are the plain's first."""
    short, plain = ([ln for ln in lines if ln["depth"] < q.fuel] for lines in (got[1], want[1]))
    return got[0] == want[0] and short == plain[:len(short)]


# --- piecewise functions: Horner on Q2 and a scan over every piece ---


def horner(cs, x) -> Q2:
    c0, c1, c2 = cs
    p = Q2.of(x)
    return (p * c2 + c1) * p + c0


def plain_range(cs, lo, hi):
    vals = [horner(cs, lo), horner(cs, hi)]
    c0, c1, c2 = cs
    if c2:
        v = Q2.of(-c1 / (2 * c2))
        if lo < v < hi:
            vals.append(horner(cs, v))
    return min(vals), max(vals)


def plain_vertex(piece):
    """The vertex -c1/(2 c2) of a quadratic piece, from its coefficients;
    None for a piece of degree below 2."""
    _, c1, c2 = piece.coeffs()
    return -c1 / (2 * c2) if c2 else None


def full_scan_candidates(f, iv):
    """The least and greatest value of each piece on its part of iv, and the
    values at the cuts inside iv: the inf and sup of f over iv are among
    them."""
    vals = []
    lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
    for j, piece in enumerate(f.pieces):
        s, t = max(f.cuts[j], lo), min(f.cuts[j + 1], hi)
        if s < t:
            vals.extend(plain_range(piece.coeffs(), s, t))
    for i, c in enumerate(f.cuts):
        if iv.contains(c):
            vals.append(f.bp_values[i])
    return vals


# --- piecewise builds: every value by evaluation, the table by its definitions ---


def _piece_after(f, a):
    """The piece of f on the gap that starts at a, by a scan over the cuts."""
    return next(piece for piece, b in zip(f.pieces, f.cuts[1:]) if a < b)


def plain_piecewise_sum(f, g):
    """(cuts, pieces, values) of f + g: the sorted set union of the cuts,
    each value the sum of the parts' `eval`, each piece the sum of the
    coefficients of the parts' pieces."""
    cuts = sorted(set(f.cuts) | set(g.cuts))
    pieces = [Poly(*(x + y for x, y in zip(_piece_after(f, a).coeffs(),
                                          _piece_after(g, a).coeffs()))) for a in cuts[:-1]]
    return cuts, pieces, [f.eval(c) + g.eval(c) for c in cuts]


def plain_from_polys(cuts, pieces, policy=None):
    """The value at a cut: the piece to its right (the last piece at 1)
    evaluated there, or the policy's explicit value."""
    cuts = [Q2.of(c) for c in cuts]
    rules = policy or ["right"] * len(cuts)
    values = [horner(pieces[min(i, len(pieces) - 1)].coeffs(), c) if rule == "right"
              else Q2.of(rule) for i, (c, rule) in enumerate(zip(cuts, rules))]
    return cuts, list(pieces), values


def plain_staircase(jumps):
    levels = [0] + [v for _, v in jumps]
    return plain_from_polys([0] + [c for c, _ in jumps] + [1], [Poly(v) for v in levels])


def plain_scale(c, f):
    return (list(f.cuts), [Poly(*(c * x for x in piece.coeffs())) for piece in f.pieces],
            [Q2.of(c) * v for v in f.bp_values])


def plain_table(cuts, pieces, values):
    """Everything a piecewise function keeps of (cuts, pieces, values), each
    read off its definition: the one-sided limits by Horner, the critical
    points sorted, the tags from the signs of limit minus value at each cut,
    the hull from the values at the critical points and the limits, and the
    document's canonical bytes."""
    last, cs = len(cuts) - 1, [p.coeffs() for p in pieces]
    sides = [(horner(cs[i - 1], c) if i else None, values[i],
              horner(cs[i], c) if i < last else None) for i, c in enumerate(cuts)]
    critical = sorted(cuts + [Q2.of(-c1 / (2 * c2)) for (_, c1, c2), a, b in zip(cs, cuts, cuts[1:])
                              if c2 and a < -c1 / (2 * c2) < b])
    signs = [[(s > v) - (s < v) for s in (left, right) if s is not None]
             for left, v, right in sides]
    flat = sum(signs, [])
    tags = {CLIQUISH, SIMPLY_CONTINUOUS, BV, REGULATED, BAIRE1}
    for tag, holds in ((CONTINUOUS, not any(flat)), (QUASI_CONTINUOUS, not any(map(all, signs))),
                       (USCO, 1 not in flat), (LSCO, -1 not in flat),
                       (NORMALISED_BV, values[0] == 0 and all(
                           right == v for _, v, right in sides[:-1]))):
        if holds:
            tags.add(tag)

    def value(p):
        if p in cuts:
            return values[cuts.index(p)]
        return horner(next(c for c, b in zip(cs, cuts[1:]) if p < b), p)
    taken, limits = [value(p) for p in critical], []
    for (_, c1, c2), before, after in zip(cs, sides, sides[1:]):
        (limits if c1 or c2 else taken).extend((before[2], after[0]))
    lo, hi = min(taken + limits), max(taken + limits)
    doc = {"schema": "abyss/1", "kind": "piecewise", "cuts": [q2_json(c) for c in cuts],
           "pieces": [[str(x) for x in c] for c in cs],
           "values": [q2_json(v) for v in values]}
    return (tuple(cuts), tuple(pieces), tuple(values), tuple(sides), tuple(critical),
            frozenset(tags), (lo, hi, lo not in taken, hi not in taken), dumps(doc))


# --- brute-force brackets over a probe basis built here ---


def probe_basis(f, iv: DyadicInterval, depth: int, member_limit=32):
    """Grid plus every carried point the test knows how to enumerate; a plain
    list of points, assembled without the production probe machinery."""
    pts = [Q2.of(g) for g in rational_grid(iv, depth)]
    stack = [f]
    while stack:  # scaled and restricted views are unwrapped at every level
        g = stack.pop()
        if isinstance(g, (Sum, Baire1Limit, ScalarMultiple, RestrictedView)):
            stack += [g.f, g.g] if isinstance(g, Sum) else [
                g.term(8) if isinstance(g, Baire1Limit) else g.f]
            continue
        if hasattr(g, "a_set"):  # every spike family carries its seed set
            pts += [p for _, p in g.a_set.members_in(iv, member_limit)]
        if isinstance(g, Thomae):
            pts += [Q2.of(F(i, q)) for q in range(1, depth + 2) for i in range(
                -(-iv.lower * q // 1), iv.upper * q // 1 + 1) if 0 <= F(i, q) <= 1]
        if isinstance(g, PiecewiseRational):
            pts += [c for c in g.cuts if iv.contains(c)]
            vertices = map(plain_vertex, g.pieces)
            pts += [Q2.of(v) for v in vertices if v is not None and iv.contains(v)]
    return [p for p, _ in itertools.groupby(sorted(pts))]


def plain_probe_points(f, iv: DyadicInterval, depth: int):
    """`probe_points` as one sort and de-duplication of the grid and the
    special points, on the part of iv inside [0,1]."""
    iv = DyadicInterval(max(iv.lower, F(0)), min(iv.upper, F(1)))
    pts = [Q2.of(g) for g in rational_grid(iv, depth)]
    pts += [Q2.of(p) for p in f.special_points(iv, depth)]
    return [p for p, _ in itertools.groupby(sorted(pts))]


def plain_depths(f, iv: DyadicInterval):
    """Per probe depth up to the grid cap: the size of the plain basis and
    the points it adds to the shallower plain bases, in basis order."""
    seen, out = set(), []
    for d in range(grid_depth_cap(iv) + 1):
        pts = plain_probe_points(f, iv, d)
        out.append((len(pts), [p for p in pts if p not in seen]))
        seen.update(pts)
    return out


def brute_values(f, iv, depth, member_limit=32):
    return [f.eval(p) for p in probe_basis(f, iv, depth, member_limit)]


def plain_ball(x, exponent):
    """The ball of radius 2^-exponent around x, or a rational near it, in [0,1]."""
    p = Q2.of(x)
    c = p.as_rational() if p.is_rational else p.approx(exponent + 8)
    r = F(1, 1 << exponent)
    return DyadicInterval(max(F(0), c - r), min(F(1), c + r))


def brute_ball_osc(f, x, exponent, depth=7):
    vals = brute_values(f, plain_ball(x, exponent), depth)
    return max(vals) - min(vals)


def probe_predicate(query, rational_only, depth=7):
    """The query's answer read off the probe basis, written out per rule
    (independent of mu_search): the rational-collapsed form reads the
    rational probes and the carried data the rule names, the symbolic form
    every probe."""
    f = getattr(query, "f", None)
    keep = (lambda p: p.is_rational) if rational_only else (lambda p: True)
    if isinstance(query, (ExistsValueAbove, ExistsValueBelow)):
        y = Q2.of(query.threshold)
        return any((v > y) if isinstance(query, ExistsValueAbove) else (v < y)
                   for v in (f.eval(p) for p in probe_basis(f, query.interval, depth) if keep(p)))
    if isinstance(query, OscBelow):  # the rule names f(x) and the carried spikes
        for n in range(24):
            vals = [f.eval(p) for p in probe_basis(f, plain_ball(query.x, n), depth)]
            vals.append(f.eval(query.x))
            if max(vals) - min(vals) <= Q2.of(F(1, 1 << query.m)):
                return n
        return None
    if isinstance(query, ValueBelowOnBall):
        return next((m for m in range(24) if all(
            f.eval(p) >= Q2.of(query.q)
            for p in probe_basis(f, plain_ball(query.x, m), depth) if keep(p))), None)
    if isinstance(query, Baire1Above) and rational_only:
        rep = query.f_rep
        return any(rep.term(max(rep.conv_modulus(p, 12), 12)).eval(p) - Q2.of(F(1, 1 << 12))
                   > Q2.of(query.threshold) for p in probe_basis(rep, query.interval, depth))
    if isinstance(query, Baire1Above):
        limit = Penny(query.f_rep.a_set)
        return any(limit.eval(p) > Q2.of(query.threshold)
                   for p in probe_basis(limit, query.interval, depth))
    raise AssertionError(query)


def exact_symbolic_sup(f, iv: DyadicInterval):
    """Independent exact supremum for the acceptance corpus: structural
    enumeration per family, written from scratch."""
    base, scale = f, F(1)
    while isinstance(base, RestrictedView):
        base = base.f
    while isinstance(base, ScalarMultiple):
        scale *= base.c
        base = base.f
    if scale < 0:
        raise NotImplementedError("corpus uses positive scalings only")
    if isinstance(base, Penny):  # PennyK too, with its members past the cutoff gone
        limit = base.cutoff + 1 if isinstance(base, PennyK) else base.a_set.size or 64
        # the first index in the interval carries the largest value
        n = next((n for n, _ in base.a_set.members_in(iv, limit)), None)
        return (Q2.of(0) if n is None else Q2.of(F(1, 1 << (n + 1)))) * scale
    if isinstance(base, Thomae):  # the least denominator in iv
        q = next(q for q in itertools.count(1) if -(-iv.lower * q // 1) <= iv.upper * q // 1)
        return Q2.of(F(1, q)) * scale
    if isinstance(base, PiecewiseRational):
        return max(full_scan_candidates(base, iv)) * scale
    raise NotImplementedError(type(base))


def exact_symbolic_inf(f, iv: DyadicInterval):
    base = f
    while isinstance(base, RestrictedView):
        base = base.f
    if isinstance(base, (Penny, Thomae)):  # PennyK via subclassing
        return base.eval(Q2.of(iv.lower)) if iv.width == 0 else Q2.of(0)
    if isinstance(base, PiecewiseRational):
        return min(full_scan_candidates(base, iv))
    raise NotImplementedError(type(base))


def covers_unit(balls) -> bool:
    """Exact rational check that the open balls cover [0,1]."""
    spans = sorted((c - r, c + r) for c, r in balls)
    reach = F(0)
    started = False
    for lo, hi in spans:
        if not started:
            if lo < 0 <= hi:
                reach = max(reach, hi)
                started = True
            continue
        if lo >= reach:
            break
        reach = max(reach, hi)
    return started and reach > 1


def variation_candidates(f):
    """The grid of depth 3, the rational cuts of the piecewise f and the
    points 2^-12 left of them, and the vertices inside (0, 1)."""
    out = set(rational_grid(DyadicInterval(0, 1), 3))
    for c in map(Q2.as_rational, f.cuts):
        out |= {c, c - F(1, 1 << 12)} if c > 0 else {c}
    vertices = map(plain_vertex, f.pieces)
    return out | {v for v in vertices if v is not None and 0 < v < 1}


def partition_brute_variation(f, x, candidates, max_points):
    """Max partition sum with at most max_points points drawn from the
    candidates (dynamic program equivalent to enumerating every partition)."""
    pts = sorted({c for c in candidates if 0 <= c <= x} | {F(0), F(x)})
    vals = [f.eval(p) for p in pts]
    n = len(pts)
    best = {(i, 1): Q2.of(0) for i in range(n)}
    for m in range(2, max_points + 1):
        for i in range(n):
            sums = [best[j, m - 1] + abs(vals[i] - vals[j]) for j in range(i)
                    if (j, m - 1) in best]
            if sums:
                best[i, m] = max(sums)
    return max(best.values())


# --- the searches of the positive side, re-evaluating at every step ---


def sorted_fraction_modulus_qc(f, x, k, big_n, fuel=DEFAULT_FUEL):
    """`modulus_qc` with its candidate pairs ordered by sorted `Fraction`
    keys."""
    p = Q2.of(x)
    fx = f.eval(p)
    tol = F(1, 1 << k)

    def candidate_ok(c, d):
        if not c < d:
            return False
        inf_b, sup_b = f.range_on(DyadicInterval(c, d), k + 4)
        return Q2.of(sup_b.hi) - fx < tol and fx - Q2.of(inf_b.lo) < tol

    ball_iv = _ball_clipped(p, big_n)
    for j in range(big_n + 2, big_n + 2 + min(fuel, 24)):
        r = F(1, 1 << j)
        blo, bhi = p.bracket(j + 2)
        c, d = max(ball_iv.lower, blo - r), min(ball_iv.upper, bhi + r)
        if candidate_ok(c, d):
            return (c, d)
        pts = rational_grid(ball_iv, min(j, grid_depth_cap(ball_iv)))
        pairs = sorted(zip(pts, pts[1:]), key=lambda cd: (abs((cd[0] + cd[1]) / 2 - blo), cd[0]))
        for c, d in pairs:
            if candidate_ok(c, d):
                return (c, d)
    raise FuelExhausted("no certified subinterval found within fuel")


def plain_exists(q, trace):
    """An `ExistsValueAbove`/`Below` search that scans every basis in full."""
    above = type(q) is ExistsValueAbove
    shape = type(q).__name__
    y = F(q.threshold)
    truth, _ = (q.f.witness_above if above else q.f.witness_below)(q.interval, y)
    if truth is Truth.NO:
        trace.record(shape, q.fuel, 0, "no")
        return NotFoundBelow(q.fuel)
    for d in range(min(q.fuel, grid_depth_cap(q.interval)) + 1):
        pts = basis_at(q.f, q.interval, d)
        trace.record(shape, d, len(pts), "scan")
        for p in pts:
            v = q.f.eval(p)
            if (v > y) if above else (v < y):
                return Found(MuWitness(d))
    raise FuelExhausted("a witness exists but did not appear in the probe "
                        "basis within fuel")


def plain_baire1_above(q, trace):
    """A `Baire1Above` search that rebuilds and re-evaluates every basis."""
    f, y = q.f_rep, F(q.threshold)
    last = f.witness_depth(y)
    for d in range(q.fuel + 1):
        pts = basis_at(f, q.interval, d)
        trace.record("Baire1Above", d, len(pts), "scan")
        for p in pts:
            if (f.eval(p) > y if f.stabilizer is not None
                    else _baire1_value_above(f, p, y, q.fuel)):
                return Found(MuWitness(d))
        if d >= (grid_depth_cap(q.interval) if last is None else last):
            break
    if y <= 0:
        raise FuelExhausted("non-positive threshold cannot be refuted on a "
                            "limit representation")
    return NotFoundBelow(q.fuel)


def fresh_range_witness(f, iv, y, above):
    """The threshold answer read off `range_on`, asked afresh at every call."""
    yn, yd = y.as_integer_ratio()
    prec = max(8, yd.bit_length() + 4)
    for _ in range(2):
        inf_b, sup_b = f.range_on(iv, prec)
        t = sup_b if above else inf_b
        lo, hi = t.ln * yd - yn * t.d, t.un * yd - yn * t.d
        if (hi <= 0) if above else (lo >= 0):
            return Truth.NO
        if (lo > 0) if above else (hi < 0):
            return Truth.YES
        prec = 2 * prec + 16
    return Truth.UNKNOWN


def fresh_halving(f, p, q, k, above):
    """`sup_qc` (above) or `inf_usco` with every threshold asked afresh."""
    iv = DyadicInterval(p, q)
    lo, hi = f.range_bound()
    return _halve_values(lo, hi, k, lambda n, m: fresh_range_witness(f, iv, F(n, m), above),
                         keep_upper_on=Truth.YES if above else Truth.NO)


def plain_witness_halving(f, p, q, k, above):
    """`sup_qc` (above) or `inf_usco` as a plain `Fraction` loop: every
    threshold asked through the family's own witness, outside any scope."""
    iv = DyadicInterval(p, q)
    lo, hi = f.range_bound()
    witness = f.witness_above if above else f.witness_below
    while hi - lo > F(1, 1 << k):
        mid = (lo + hi) / 2
        answer = witness(iv, mid)[0]
        if answer is Truth.UNKNOWN:
            raise FuelExhausted("value search undecided below the target width",
                                best=DyadicInterval(lo, hi))
        if (answer is Truth.YES) == above:
            lo = mid
        else:
            hi = mid
    return DyadicInterval(lo, hi)


def halving(f, iv, lo, hi, k, fuel, search):
    """The value halving of `sup_baire1` over [lo, hi], each threshold asked
    through search(Baire1Above(...), trace): each threshold's traced answer,
    and the outcome."""
    steps = []

    def decide(n, m):
        mid = F(n, m)
        steps.append((mid, traced(search, Baire1Above(f, iv, mid, fuel))))
        answer = steps[-1][1][0]
        return {Found: Truth.YES, NotFoundBelow: Truth.NO}.get(type(answer), Truth.UNKNOWN)

    return steps, outcome(lambda: _halve_values(lo, hi, k, decide))


def plain_sup_baire1(f, p, q, values, k, fuel):
    """`sup_baire1` as the halving over `plain_baire1_above`: its outcome, or
    the refusal of the search that ended it, which `sup_baire1` passes on."""
    steps, out = halving(f, DyadicInterval(p, q), *(values or f.range_bound()), k, fuel,
                         plain_baire1_above)
    last = steps[-1][1][0] if steps else None
    return last if isinstance(last, tuple) else out


# --- the ball walks over 0..fuel, one clipped ball at a time ---


def plain_osc_below(q, trace):
    require_rule("OscBelow", q.f, "mu_search/OscBelow")
    bound = F(1, 1 << q.m)
    for n in range(q.fuel + 1):
        osc = _osc_on(q.f, _ball_clipped(q.x, n), q.m + 4)
        trace.record("OscBelow", n, 0, "osc<=%s..%s" % (osc.lo, osc.hi))
        if osc.hi <= bound:
            return Found(MuWitness(n))
        if osc.lo <= bound:
            osc = _osc_on(q.f, _ball_clipped(q.x, n), q.m + 12)
            if osc.hi <= bound:
                return Found(MuWitness(n))
            if osc.lo <= bound:
                raise FuelExhausted("ball oscillation bracket straddles 2^-%d at "
                                    "exponent %d" % (q.m, n))
    return NotFoundBelow(q.fuel)


def plain_value_below_on_ball(q, trace):
    require_rule("ValueBelowOnBall", q.f, "mu_search/ValueBelowOnBall")
    for n in range(q.fuel + 1):
        inf_b, _ = q.f.range_on(_ball_clipped(q.x, n), 8)
        trace.record("ValueBelowOnBall", n, 0, "inf>=%s" % (inf_b.lo,))
        if inf_b.lo >= q.q:
            return Found(MuWitness(n))
        if not inf_b.exact and inf_b.hi >= q.q:
            raise FuelExhausted("ball infimum bracket straddles the target "
                                "at exponent %d" % n)
    return NotFoundBelow(q.fuel)


def plain_modulus_continuity(f, fuel):
    require_rule("OscBelow", f, "modulus_continuity_qc")
    return lambda x, m: next((n for n in range(fuel + 1) if _osc_on(
        f, _ball_clipped(x, n), m + 6).hi <= F(1, 1 << (m + 1))), 0)


def plain_point_of_continuity_qc(f, k, fuel):
    """Every stage reads the balls of its candidates afresh.  A candidate's
    room is at most a quarter of j, so when 2^-fuel is wider than that no
    ball of any depth fits, and the stage is not tried."""
    _check_precision(k)
    require_rule("OscBelow", f, "point_of_continuity_qc")
    j = DyadicInterval(F(0), F(1))
    for m in range(k + 1):
        def place(cn, cd):
            n_size = least_exponent(*_room(j, cn, cd))
            for n in range(n_size, fuel + 1):
                w = _osc_on(f, _ball_clipped(F(cn, cd), n), m + 6)
                if w.hi <= F(1, 1 << m):
                    return DyadicInterval(F(cn, cd) - F(1, 2 << n), F(cn, cd) + F(1, 2 << n))
                if w.lo > F(1, 1 << m) and n > n_size + 24:
                    return None
            return None

        fits = F(1, 1 << fuel) <= (j.upper - j.lower) / 4
        ball = _next_ball(j, place) if fits else None
        if ball is None:
            raise FuelExhausted("no small-oscillation ball found inside the "
                                "current interval", best=j)
        j = ball
    return j.midpoint


def plain_usco_radius(f, c, k, fuel):
    """`natural_usco_modulus(f, fuel)(c, k)` with every ball read afresh:
    2^-n for the least n whose ball's sup bracket at 2^-(k+6) tops out
    strictly below f(c) + 2^-k."""
    cap = f.eval(c) + Q2.of(F(1, 1 << k))
    for n in range(fuel + 1):
        _, sup_b = f.range_on(_ball_clipped(c, n), k + 6)
        if sup_b.hi < cap:
            return F(1, 1 << n)
    raise FuelExhausted("no witnessing ball found within fuel")


def plain_point_of_continuity_usco(f, k, fuel):
    """`point_of_continuity_usco` with the natural usco modulus, on
    `Fraction`s, its radii read by `plain_usco_radius`: no ball supremum is
    kept from one read to the next."""
    _check_precision(k)
    require_tag(f, USCO, "point_of_continuity_usco")
    rl, rh = f.range_bound()
    span = rh - rl + 1
    j = DyadicInterval(F(0), F(1))
    for stage in range(1, max(fuel, 1) + 1):
        t = rl + span / (1 << stage)

        def place(cn, cd):
            c = F(cn, cd)
            fc = f.eval(c)
            if fc < t:
                k0 = 0
                while F(1, 1 << k0) > t - fc:
                    k0 += 1
                    if k0 > fuel:
                        return None
                radius = plain_usco_radius(f, c, k0, fuel)
            else:
                res = plain_value_below_on_ball(ValueBelowOnBall(f, c, t, min(fuel, 24)),
                                                QueryTrace())
                if not isinstance(res, Found):
                    return None
                radius = F(1, 1 << res.witness.value)
            s = min(radius, (j.upper - j.lower) / 4, c - j.lower, j.upper - c) / 2
            return DyadicInterval(c - s, c + s)

        ball = _next_ball(j, place)
        if ball is None:
            raise FuelExhausted("no threshold-set ball found inside the current "
                                "interval", best=j)
        j = ball
        if span / (1 << stage) <= F(1, 2 << k):
            out = j.midpoint
            if osc_exact(f, Q2.of(out), k + 1).hi <= F(1, 1 << k):
                return out
    raise FuelExhausted("certificate did not close within fuel", best=j)


# --- sums of parts that are affine between the points their documents name ---


def _point(doc) -> Q2:
    return Q2.of(F(doc)) if isinstance(doc, str) else Q2(F(doc["a"]), F(doc["b"]))


def breakpoints(doc) -> list[Q2]:
    """Every point a function document names: its cuts, the members of its
    seed sets and closed sets, and the ends of its intervals."""
    if not isinstance(doc, dict):
        return []
    out = []
    for key, value in doc.items():
        if key in ("cuts", "points"):
            out += map(_point, value)
        elif key == "intervals":
            out += (_point(e) for span in value for e in span)
        else:
            out += breakpoints(value)
    return out


def sum_reference(f, breaks, iv):
    """(inf, sup) of f over iv, for f affine between consecutive points of
    breaks: its values at the breakpoints and ends, one interior value per
    gap, and the one-sided limits at the gap's ends, read off the line
    through two interior points."""
    lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
    pts = sorted([lo, hi] + [Q2.of(b) for b in breaks if lo < b < hi])
    vals = [f.eval(p) for p in pts]
    for a, b in zip(pts, pts[1:]):
        u, v = a + (b - a) / 3, a + (b - a) * 2 / 3
        fu, fv = f.eval(u), f.eval(v)
        slope = (fv - fu) / (v - u)
        vals += [fu, fu - slope * (u - a), fv + slope * (b - v)]
    return min(vals), max(vals)


# --- spike families: every member filtered, every band walked ---


def plain_spikes(f, iv, limit):
    """Every spike of f in iv below limit: the whole member list, filtered."""
    if f.stop is not None:
        limit = min(limit, f.stop)
    return [(n, p) for n, p in f.a_set.members_in(iv, limit) if n >= f.start]


def plain_sup(f, iv, k):
    limit = max(k + 4, 8) if f.stop is None else f.stop
    best = max((f.spike_value(n) for n, _ in plain_spikes(f, iv, limit)), default=F(0))
    tail = F(1, 1 << (limit + 1))
    if f.stop is not None or best >= tail or f.a_set.scan_is_exhaustive(iv, limit):
        return best, best
    return best, tail


def plain_witness_above(f, iv, y):
    if y < 0:
        return Truth.YES, Q2.of(iv.lower)
    limit = f.stop
    if limit is None:
        limit = 1
        while F(1, 1 << (limit + 1)) > y and limit < 4096:
            limit += 1
    for n, p in plain_spikes(f, iv, limit):
        if f.spike_value(n) > y:
            return Truth.YES, p
    if (f.stop is not None or F(1, 1 << (limit + 1)) <= y
            or f.a_set.scan_is_exhaustive(iv, limit)):
        return Truth.NO, None
    return Truth.UNKNOWN, None


def plain_member_scan(a_set, iv, limit, start):
    """The first member in iv with index in [start, limit) and all of them:
    the enumeration filtered, each member compared with both ends as a Q2."""
    hi = limit if a_set.size is None else min(limit, a_set.size)
    lo, up = Q2.of(iv.lower), Q2.of(iv.upper)
    inside = [(n, a_set.member(n)) for n in range(start, hi) if lo <= a_set.member(n) <= up]
    return (inside[0] if inside else None), inside


def brute_members_in(a_set, iv):
    """Every index whose member lies in iv: the whole finite set, or the
    first 64 members of an infinite one, each tested on its own."""
    n_max = a_set.size if a_set.size is not None else 64
    return [n for n in range(n_max) if iv.contains(a_set.member(n))]


def loop_band_of(x, half_open=True):
    """`band_of` as a loop over the bands."""
    p = Q2.of(x)
    if p.sign() <= 0 or (p >= 1 if half_open else p > 1):
        return None
    n = 0
    while p < F(1, 1 << (n + 1)):
        n += 1
    return n


def signed_unit_rationals():
    """Q cap [-1,1] by denominator, then numerator: -1, 0, 1, -1/2, 1/2,
    -2/3, -1/3, 1/3, 2/3, ...  The order `minimal_shift_into_band` takes
    its least index in."""
    yield F(-1)
    yield F(0)
    yield F(1)
    d = 2
    while True:
        for p in range(-d + 1, d):
            if p != 0 and math.gcd(abs(p), d) == 1:
                yield F(p, d)
        d += 1


def plain_rm_code(o_rep, fuel):
    """`rm_code_from_r2_baire1` read off the set's intervals alone: over the
    same interval stream, the interval [p, q] itself where it lies inside
    one open interval of the set, else the seed ball (the first rational of
    the set, with the largest 2^-m within its radius); the empty code when
    no interval meets (0, 1).  It never reads the indicator."""
    if not any(a < 1 and 0 < b for a, b in o_rep.intervals):
        return RMCode((), prefix_of_infinite=False)
    x0 = next((x for x in itertools.islice(unit_rationals(), 1 << 12) if o_rep.contains(x)),
              None)
    if x0 is None:
        raise FuelExhausted("no rational seed point found in the set")
    m = 0
    while F(1, 1 << m) > o_rep.radius(x0):
        m += 1
    stream = _rational_interval_stream()
    balls = []
    for _ in range(max(fuel, 16)):
        p, q = next(stream)
        inside = any(a < p and q < b for a, b in o_rep.intervals)
        balls.append(((p + q) / 2, (q - p) / 2) if inside else (x0, F(1, 1 << m)))
    return RMCode.from_balls(balls, prefix_of_infinite=True)


def plain_cover_usco_range(f, iv, k):
    """CoverPsiUsco's range as a band walk that scans members 0..n for each
    band n it meets."""
    cap = max(k + 6, 8)
    n0 = loop_band_of(min(iv.upper, F(1)), half_open=False)
    bands, n = [], n0
    while n - n0 <= cap:
        lo_band, hi_band = F(1, 1 << (n + 1)), F(1, 1 << n)
        if hi_band < iv.lower:
            break
        if lo_band <= iv.upper and hi_band >= iv.lower:
            bands.append(n)
        if lo_band <= iv.lower:
            break
        n += 1
    vals = [f.ZERO_VALUE] if iv.lower <= 0 else []
    for n in bands:
        band_iv = DyadicInterval(max(iv.lower, F(1, 1 << (n + 1))), min(iv.upper, F(1, 1 << n)))
        member_here = [m for m, _ in f.a_set.members_in(band_iv, n + 1) if m == n]
        if band_iv.width > 0 or not member_here:
            vals.append(f.band_value(n))
        if member_here:
            vals.append(f.spike_value(n))
    sup_b = Bracket.point(max(vals))
    if iv.lower <= 0:
        return Bracket.point(0), sup_b
    if F(1, 1 << (bands[-1] + 1)) > iv.lower:
        return Bracket(F(0), min(vals)), sup_b
    return Bracket.point(min(vals)), sup_b


# --- the sup-functional reductions on Fractions ---


def fraction_cantor_diagonal(xs, k, fuel):
    lo, hi = F(0), F(1)
    n = 0
    while n < fuel or hi - lo > F(1, 1 << (k + 2)):
        width = hi - lo
        if n < fuel:
            if Q2.of(xs(n)) <= (lo + hi) / 2:
                lo = hi - width / 3  # take the right third
            else:
                hi = lo + width / 3  # take the left third
        else:
            lo, hi = lo + width / 3, hi - width / 3
        n += 1
    return fraction_dyadic_inside(lo, hi, k)


def fraction_dyadic_inside(lo, hi, k):
    j = k + 2
    while True:
        step = F(1, 1 << j)
        cand = (((lo + hi) / 2) // step) * step
        if lo < cand < hi:
            return cand
        j += 1


def fraction_sup(f, p, q):
    """The exhaustive supremum on Fractions: a Fraction compare decides the
    degenerate case, and the answer is the bracket's `Fraction` end."""
    p, q = F(p), F(q)
    if p == q:
        v = f.eval(Q2.of(p))
        if not v.is_rational:
            raise OracleInconsistency("exact supremum is irrational")
        return v.as_rational()
    _, sup_b = f.range_on(DyadicInterval(p, q), 60)
    if not sup_b.exact:
        raise OracleInconsistency("supremum not exactly attained on this family")
    return sup_b.lo


def fraction_sup_oracle() -> SupOracle:
    """`fraction_sup` as an oracle: it reads the interval's `Fraction` ends."""
    return SupOracle(lambda f, iv: fraction_sup(f, iv.lower, iv.upper))


def fraction_extraction(oracle, a_set, k, rounds=16):
    """The extraction walk comparing each answer with the round's supremum
    as a `Fraction`."""
    out = []
    bound = rounds if a_set.size is None else min(rounds, a_set.size)
    for _ in range(bound):
        f = Penny(a_set, start=out[-1].index + 1 if out else 0)
        s = oracle(f, F(0), F(1))
        if s == 0:
            break
        idx = Penny.spikes_above(abs(s))
        if f.spike_value(idx) != s:
            raise OracleInconsistency("supremum %s is not a spike value" % (s,))
        if idx < f.start:
            raise OracleInconsistency("supremum %s is the stripped spike %d" % (s, idx))
        if a_set.size is not None and idx >= a_set.size:
            raise OracleInconsistency("supremum %s is spike %d of a %d-point seed set"
                                      % (s, idx, a_set.size))
        a, lo, hi = 0, F(0), F(1)
        bits = []
        for j in range(k):
            mid = F(2 * a + 1, 2 << j)
            s_left = oracle(f, lo, mid)
            if s_left > s:
                raise OracleInconsistency("supremum grew on a subinterval")
            if s_left == s:
                a, hi = 2 * a, mid
                bits.append("0")
            else:
                if oracle(f, mid, hi) != s:
                    raise OracleInconsistency("supremum vanished on both halves")
                a, lo = 2 * a + 1, mid
                bits.append("1")
        out.append(SupExtraction(idx, s, "".join(bits),
                                 DyadicInterval.of_ints(a, a + 1, 1 << k)))
    return out


def fraction_realiser(oracle, a_set, k, fuel):
    """`realiser_from_sup` over the Fraction walks."""
    extraction = fraction_extraction(oracle, a_set, k, rounds=fuel)
    for step in extraction:
        if not step.interval.contains(a_set.member(step.index)):
            raise OracleInconsistency("extracted interval misses the member it located")
    limit = fuel if a_set.size is None else min(fuel, a_set.size)
    return fraction_cantor_diagonal(lambda n: a_set.member(min(n, limit - 1)), k, limit)
