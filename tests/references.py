"""The plain computations the fast paths are checked against, each written
once.  A reference does not run the shortcut it checks: it loops where the
path bisects, re-evaluates where the path keeps state, reads every ball
where the path stops early, and walks on `Fraction`s where the path walks on
integers.  What it shares with the path (`_ball_clipped`, `_osc_on`,
`_halve_values`) is not the shortcut under test; each probe basis is built
here (`plain_probe_points`), not read off the probe state."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

from abyss import (Baire1Above, Baire1Limit, Bracket, ClassRefusal, DomainError, DyadicInterval,
                   ExistsValueAbove, ExistsValueBelow, Found, FuelExhausted, Indicator, MuWitness,
                   NotFoundBelow, OracleInconsistency, OscBelow, Penny, PennyK, PiecewiseRational,
                   Q2, RMCode, SupOracle, Thomae, UnsupportedVariant, ValueBelowOnBall,
                   canonical_cliq_modulus, exhaustive_sup_oracle, extract_enumeration_from_sup,
                   naive_rational_sup, rational_grid, realiser_from_sup, unit_rationals)
from abyss.algorithms import _halve_values
from abyss.category import _room
from abyss.collapse import _ball_clipped, _osc_on, require_rule, require_tag
from abyss.composites import RestrictedView, ScalarMultiple, Sum
from abyss.covers import _rational_interval_stream
from abyss.exact import Truth, _check_precision, least_exponent
from abyss.oracle import DEFAULT_FUEL, _baire1_value_above, grid_depth_cap
from abyss.reductions import AbyssReport, SupExtraction
from abyss.serialize import dumps, q2_json
from abyss.universe import (BAIRE1, BV, CLIQUISH, CONTINUOUS, LSCO, NORMALISED_BV,
                            QUASI_CONTINUOUS, REGULATED, SIMPLY_CONTINUOUS, USCO, Poly,
                            irrational_inside, osc_exact)

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


def _plain_vertex(piece):
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


def linear_locate(f, x):
    """`_locate` as a scan over the cuts: ("cut", i) at cut i, ("piece", j)
    between cuts j and j + 1, refused below the first cut or past the last."""
    for i, c in enumerate(f.cuts):
        if x == c:
            return ("cut", i)
        if x < c:
            if i:
                return ("piece", i - 1)
            break
    raise DomainError("point %s outside [0,1]" % (x,))


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
        if isinstance(g, Indicator):  # the set's points and component ends
            pts += [Q2.of(e) for a, b in g.closed_set.component_intervals() for e in (a, b)
                    if iv.contains(e)]
        if isinstance(g, PiecewiseRational):
            pts += [c for c in g.cuts if iv.contains(c)]
            vertices = map(_plain_vertex, g.pieces)
            pts += [Q2.of(v) for v in vertices if v is not None and iv.contains(v)]
    return [p for p, _ in itertools.groupby(sorted(pts))]


def plain_probe_points(f, iv: DyadicInterval, depth: int):
    """The probe basis at depth (past the grid cap, at the cap) as one sort
    and de-duplication of the grid and the special points, on the part of
    iv inside [0,1]."""
    depth = min(depth, grid_depth_cap(iv))
    iv = DyadicInterval(max(iv.lower, F(0)), min(iv.upper, F(1)))
    pts = [Q2.of(g) for g in rational_grid(iv, depth)]
    pts += [Q2.of(p) for p in f.special_points(iv, depth)]
    return [p for p, _ in itertools.groupby(sorted(pts))]


def plain_depths(f, iv: DyadicInterval):
    """Per probe depth up to the grid cap: the points the plain basis adds
    to the shallower plain bases, in basis order."""
    seen, out = set(), []
    for d in range(grid_depth_cap(iv) + 1):
        pts = plain_probe_points(f, iv, d)
        out.append([p for p in pts if p not in seen])
        seen.update(pts)
    return out


def brute_values(f, iv, depth, member_limit=32):
    return [f.eval(p) for p in probe_basis(f, iv, depth, member_limit)]


def _plain_ball(x, exponent):
    """The ball of radius 2^-exponent around x, or a rational near it, in [0,1]."""
    p = Q2.of(x)
    c = p.as_rational() if p.is_rational else p.approx(exponent + 8)
    r = F(1, 1 << exponent)
    return DyadicInterval(max(F(0), c - r), min(F(1), c + r))


def brute_ball_osc(f, x, exponent, depth=7):
    vals = brute_values(f, _plain_ball(x, exponent), depth)
    return max(vals) - min(vals)


# --- class tags: each tag's defining property, read off probe bases ---


def _window(x, side, m):
    """The one-sided window [x, x + 2^-m] (side > 0) or [x - 2^-m, x] in
    [0,1], x read as a rational near it; None when x has no room there."""
    p = Q2.of(x)
    c = p.as_rational() if p.is_rational else p.approx(m + 8)
    r = F(1, 1 << m)
    a, b = (c, min(F(1), c + r)) if side > 0 else (max(F(0), c - r), c)
    return DyadicInterval(a, b) if a < b else None


def _usco_witness(f, x, k):
    """Some clipped ball B(x, 2^-n), n = 2..40, whose probe values stay
    below f(x) + 2^-k."""
    target = f.eval(x) + Q2.of(F(1, 1 << k))
    return any(all(f.eval(p) < target for p in probe_basis(f, _plain_ball(x, n), 6))
               for n in range(2, 41))


def _cliquish_witness(f, x, k, big_n=2):
    """Somewhere inside the 2^-big_n ball there is an open subinterval whose
    grid oscillation (interior probes only) is below 2^-k."""
    ball = _plain_ball(x, big_n)
    for depth in (k + 2, k + 4):
        grid = rational_grid(ball, depth)
        for a, b in zip(grid, grid[1:]):
            vals = [f.eval(pt)
                    for pt in probe_basis(f, DyadicInterval(a, b), depth + 4)
                    if Q2.of(a) < pt < Q2.of(b)]
            if not vals or max(vals) - min(vals) < Q2.of(F(1, 1 << k)):
                return True
    return False


def _qc_witness(f, x, k):
    """A one-sided window of radius 2^-m, m = 6..40, whose inner half's
    probe values stay within 2^-k of f(x)."""
    fx, tol = f.eval(x), Q2.of(F(1, 1 << k))
    for m, side in itertools.product(range(6, 41), (1, -1)):
        w = _window(x, side, m)
        if w is not None:
            inner = DyadicInterval(w.lower + w.width / 4, w.upper - w.width / 4)
            if all(abs(f.eval(p) - fx) < tol for p in probe_basis(f, inner, 5)):
                return True
    return False


def _regulated_witness(f, x, k):
    """On each side of x with room, a one-sided limit (its bracket at 2^-20)
    and a window of radius 2^-m, m = k + 4..40, whose probe values past x
    stay within 2^-k of that bracket (2^-(m-4) at the first window)."""
    p, tol = Q2.of(x), F(1, 1 << k)
    for side in (-1, 1):
        lim = f.one_sided_limit(x, side, 20)
        if lim is None:
            if _window(x, side, 40) is not None:
                return False
            continue
        lo, hi = Q2.of(lim.lo - tol), Q2.of(lim.hi + tol)
        windows = [w for w in (_window(x, side, m) for m in range(k + 4, 41)) if w is not None]
        if not any(all(lo <= f.eval(q) <= hi for q in probe_basis(f, w, 6)
                       if (q > p if side > 0 else q < p)) for w in windows):
            return False
    return True


def _bv_witness(f, bound, depth):
    """The variation sum over the probe basis of [0,1] at depth, the finest
    partition it holds, is at most bound; no bound witnesses nothing."""
    if bound is None:
        return False
    vals = [f.eval(p) for p in probe_basis(f, DyadicInterval(0, 1), depth)]
    return sum((abs(b - a) for a, b in zip(vals, vals[1:])), Q2.of(0)) <= Q2.of(bound)


_TAG_WITNESSES = {USCO: _usco_witness, CLIQUISH: _cliquish_witness,
                  QUASI_CONTINUOUS: _qc_witness, REGULATED: _regulated_witness, BV: _bv_witness}


def witnessed(f, tag, *args):
    """Whether the class tag's defining property holds of f at args, read
    off plain probe bases: (x, k) for a pointwise tag, (bound, depth) for
    BV."""
    return _TAG_WITNESSES[tag](f, *args)


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
            vals = [f.eval(p) for p in probe_basis(f, _plain_ball(query.x, n), depth)]
            vals.append(f.eval(query.x))
            if max(vals) - min(vals) <= Q2.of(F(1, 1 << query.m)):
                return n
        return None
    if isinstance(query, ValueBelowOnBall):
        return next((m for m in range(24) if all(
            f.eval(p) >= Q2.of(query.q)
            for p in probe_basis(f, _plain_ball(query.x, m), depth) if keep(p))), None)
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
    vertices = map(_plain_vertex, f.pieces)
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


def walked_variation(f, x):
    """The variation of f over [0, x] as a walk over the cells of critical
    points from 0 up to x, summed afresh on each call: in each cell the jump
    from f(u) to the piece, the piece's change, and the jump to f(v)."""
    if x == 0:
        return Q2.of(0)
    pts = [c for c in sorted(f.special_points(DyadicInterval(0, 1), 0)) if c < x] + [x]
    total = Q2.of(0)
    for u, v in zip(pts, pts[1:]):
        piece = f.pieces[f._locate((u + v) / Q2.of(2))[1]]
        ru, lv = piece(u), piece(v)
        total = total + abs(f.eval(u) - ru) + abs(lv - ru) + abs(f.eval(v) - lv)
    return total


def cell_probes(f):
    """Every critical point of f, and in each cell its midpoint and the
    irrational point at sqrt2/2 of its width."""
    crit = sorted(f.special_points(DyadicInterval(0, 1), 0))
    xs = list(crit)
    for u, v in zip(crit, crit[1:]):
        xs += [(u + v) / Q2.of(2), u + (v - u) * Q2.sqrt2_scaled(0)]
    return xs


def fraction_regulated_within(f, p, m, k):
    """`variation._regulated_within` on `Fraction`s: on each side of p that
    has a one-sided limit, the window of radius 2^-(m+1) past p's bracket at
    2^-(m+k+8) (trimmed by 2^-(k+24) at a rational p), read at 2^-(k+6); p is
    regulated within 2^-k there when both brackets stay within 2^-k of the
    limit."""
    tol, r = F(1, 1 << k), F(1, 1 << (m + 1))
    for side in (-1, 1):
        lim = f.one_sided_limit(p, side, k + 6)
        if lim is None:
            continue
        lo_pt, hi_pt = p.bracket(m + k + 8)
        if side > 0:
            lo, hi = hi_pt, min(F(1), lo_pt + r)
        else:
            lo, hi = max(F(0), hi_pt - r), lo_pt
        if lo >= hi:
            continue
        if p.is_rational:
            eps = F(1, 1 << (k + 24))
            if side > 0 and lo + eps < hi:
                lo += eps
            elif side < 0 and lo < hi - eps:
                hi -= eps
        inf_b, sup_b = f.range_on(DyadicInterval(lo, hi), k + 6)
        if sup_b.hi - lim.lo >= tol or lim.hi - inf_b.lo >= tol:
            return False
    return True


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


def plain_exists(q):
    """An `ExistsValueAbove`/`Below` search that scans every basis in full."""
    above = type(q) is ExistsValueAbove
    y = F(q.threshold)
    truth, _ = (q.f.witness_above if above else q.f.witness_below)(q.interval, y)
    if truth is Truth.NO:
        return NotFoundBelow(q.fuel)
    for d in range(min(q.fuel, grid_depth_cap(q.interval)) + 1):
        for p in plain_probe_points(q.f, q.interval, d):
            v = q.f.eval(p)
            if (v > y) if above else (v < y):
                return Found(MuWitness(d))
    raise FuelExhausted("a witness exists but did not appear in the probe "
                        "basis within fuel")


def plain_baire1_above(q):
    """A `Baire1Above` search that rebuilds and re-evaluates every basis."""
    f, y = q.f_rep, F(q.threshold)
    last = f.witness_depth(y)
    for d in range(q.fuel + 1):
        for p in plain_probe_points(f, q.interval, d):
            if (f.eval(p) > y if f.stabilizer is not None
                    else _baire1_value_above(f, p, y, q.fuel)):
                return Found(MuWitness(d))
        if d >= (grid_depth_cap(q.interval) if last is None else last):
            break
    if y <= 0:
        raise FuelExhausted("non-positive threshold cannot be refuted on a "
                            "limit representation")
    return NotFoundBelow(q.fuel)


def _fresh_range_witness(f, iv, y, above):
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
    return _halve_values(lo, hi, k, lambda n, m: _fresh_range_witness(f, iv, F(n, m), above),
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
    through search(Baire1Above(...)): each threshold's outcome, and the
    halving's."""
    steps = []

    def decide(n, m):
        mid = F(n, m)
        steps.append((mid, outcome(lambda: search(Baire1Above(f, iv, mid, fuel)))))
        answer = steps[-1][1]
        return {Found: Truth.YES, NotFoundBelow: Truth.NO}.get(type(answer), Truth.UNKNOWN)

    return steps, outcome(lambda: _halve_values(lo, hi, k, decide))


def plain_sup_baire1(f, p, q, values, k, fuel):
    """`sup_baire1` as the halving over `plain_baire1_above`: its outcome, or
    the refusal of the search that ended it, which `sup_baire1` passes on."""
    steps, out = halving(f, DyadicInterval(p, q), *(values or f.range_bound()), k, fuel,
                         plain_baire1_above)
    last = steps[-1][1] if steps else None
    return last if isinstance(last, tuple) else out


# --- the ball walks over 0..fuel, one clipped ball at a time ---


def plain_osc_below(q):
    require_rule("OscBelow", q.f, "mu_search/OscBelow")
    bound = F(1, 1 << q.m)
    for n in range(q.fuel + 1):
        osc = _osc_on(q.f, _ball_clipped(q.x, n), q.m + 4)
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


def plain_value_below_on_ball(q):
    require_rule("ValueBelowOnBall", q.f, "mu_search/ValueBelowOnBall")
    for n in range(q.fuel + 1):
        inf_b, _ = q.f.range_on(_ball_clipped(q.x, n), 8)
        if inf_b.lo >= q.q:
            return Found(MuWitness(n))
        if not inf_b.exact and inf_b.hi >= q.q:
            raise FuelExhausted("ball infimum bracket straddles the target "
                                "at exponent %d" % n)
    return NotFoundBelow(q.fuel)


def sorted_interior_numerators(iv, depth):
    """The candidates of `category._interior_numerators`, all listed and
    sorted by distance from the midpoint, the lower one first on a tie."""
    ln, un, d = iv.ln, iv.un, iv.d
    if ln == un:
        return []
    first = -(-((7 * ln + un) << depth) // (8 * d))
    last = ((ln + 7 * un) << depth) // (8 * d)
    mid = (ln + un) << depth  # 2d 2^depth times the midpoint
    return sorted(range(first, last + 1), key=lambda j: (abs(2 * d * j - mid), j))


def _plain_next_ball(j, place):
    """`category._next_ball` over the sorted candidates: the first ball
    place(cn, 2^depth) grants, over twelve depths from the least depth >= 1
    whose mesh is at most a quarter of j."""
    depth0 = next(e for e in itertools.count(1) if F(1, 1 << e) <= j.width / 4)
    for depth in range(depth0, depth0 + 12):
        for cn in sorted_interior_numerators(j, depth):
            ball = place(cn, 1 << depth)
            if ball is not None:
                return ball
    return None


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
        ball = _plain_next_ball(j, place) if fits else None
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
                res = plain_value_below_on_ball(ValueBelowOnBall(f, c, t, min(fuel, 24)))
                if not isinstance(res, Found):
                    return None
                radius = F(1, 1 << res.witness.value)
            s = min(radius, (j.upper - j.lower) / 4, c - j.lower, j.upper - c) / 2
            return DyadicInterval(c - s, c + s)

        ball = _plain_next_ball(j, place)
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


def _plain_spikes(f, iv, limit):
    """Every spike of f in iv below limit: the whole member list, filtered."""
    if f.stop is not None:
        limit = min(limit, f.stop)
    return [(n, p) for n, p in f.a_set.members_in(iv, limit) if n >= f.start]


def plain_sup(f, iv, k):
    limit = max(k + 4, 8) if f.stop is None else f.stop
    best = max((f.spike_value(n) for n, _ in _plain_spikes(f, iv, limit)), default=F(0))
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
    for n, p in _plain_spikes(f, iv, limit):
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


def plain_top_spike(f, iv, k):
    """`Penny._top_spike` from the plain member scan and a second read of
    `scan_is_exhaustive`: the first spike in iv below the scan limit
    (max(k + 4, 8), or the bounded window), else -1 when the window is
    bounded or the scan is exhaustive, else None.  With how the scan ended,
    read off the members: below the limit when a descending enumeration
    holds a member below iv in the window, or a finite set is shorter than
    the limit; else at the limit."""
    limit = max(k + 4, 8) if f.stop is None else f.stop
    a_set = f.a_set
    first, _ = plain_member_scan(a_set, iv, limit, f.start)
    if first is not None:
        return ("hit",), first[0]
    hi = limit if a_set.size is None else min(limit, a_set.size)
    lower = Q2.of(iv.lower)
    short = (a_set.size is not None and a_set.size < limit) or a_set.values_descend and any(
        a_set.member(n) < lower for n in range(f.start, hi))
    n = -1 if f.stop is not None or a_set.scan_is_exhaustive(iv, limit) else None
    return ("%s: %s" % ("ended below the limit" if short else "ran to the limit", n),), n


def brute_members_in(a_set, iv):
    """Every index whose member lies in iv: the whole finite set, or the
    first 64 members of an infinite one, each tested on its own."""
    n_max = a_set.size if a_set.size is not None else 64
    return [n for n in range(n_max) if iv.contains(a_set.member(n))]


def linear_index(a_set, x):
    """`index_of` on a finite set as a scan over its members."""
    p = Q2.of(x)
    return next((n for n in range(a_set.size) if a_set.member(n) == p), None)


def grid_below_witness(f, iv):
    """`Penny._witness_below` at a positive threshold as every grid in
    full at each depth, so the points of the coarser grids are tested again,
    then an irrational point: the first point off the seed set."""
    for d in range(2, grid_depth_cap(iv) + 1):
        for g in rational_grid(iv, d):
            p = Q2.of(g)
            if f.a_set.index_of(p) is None:
                return Truth.YES, p
    p = irrational_inside(iv)
    return (Truth.YES, p) if f.a_set.index_of(p) is None else (Truth.UNKNOWN, None)


def loop_band_of(x, half_open=True):
    """`band_of` as a loop over the bands."""
    p = Q2.of(x)
    if p.sign() <= 0 or (p >= 1 if half_open else p > 1):
        return None
    n = 0
    while p < F(1, 1 << (n + 1)):
        n += 1
    return n


def q2_band_of(x, half_open=True):
    """`band_of` read through `Q2` arithmetic: the bit length of m =
    floor(1/x), one less when 1/x = m is a power of two."""
    p = Q2.of(x)
    if p.sign() <= 0 or (p >= 1 if half_open else p > 1):
        return None
    t = Q2.of(1) / p
    m = math.floor(t)
    return max(m.bit_length() - 1 - (t == m and m & (m - 1) == 0), 0)


def plain_minimal_shift(a, n):
    """`minimal_shift_into_band` as a scan of [-1,1] in its order, by
    denominator, then numerator: for d = 1, 2, ... the least p in [-d, d]
    with p/d in (a - 2^-n, a - 2^-(n+1)]."""
    lo, hi = a - F(1, 1 << n), a - F(1, 1 << (n + 1))
    if lo >= 1 or hi < -1:
        raise ValueError("no rational of [-1,1] shifts %s into band %d" % (a, n))
    d = 1
    while True:
        p = max(math.floor(lo * d) + 1, -d)
        if p <= d and hi * d >= p:
            return F(p, d)
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


def plain_grid_max(f, p, q, depth):
    """The grid baseline as its docstring states it: the max of f's values
    at the points of the dyadic grid of [p, q] at depth, one evaluation
    each, compared as exact values and read as a rational once."""
    grid = rational_grid(DyadicInterval(p, q), depth)
    return max(f.eval(Q2.of(g)) for g in grid).as_rational()


def plain_cliq_walk(a_set, k, fuel):
    """The nested intervals of `realiser_from_cliq_modulus` on `Fraction`s:
    at each level the honest modulus asked at the midpoint for the least n
    with 2^-n strictly below half the width, counted up, and the middle half
    of its answer next.  Each level's (n, c, d)."""
    modulus, lo, hi, out = canonical_cliq_modulus(a_set), F(0), F(1), []
    for j in range(max(k + 2, fuel + 1)):
        n = 0
        while F(1, 1 << n) >= (hi - lo) / 2:
            n += 1
        c, d = map(F, modulus((lo + hi) / 2, j + 1, n))
        out.append((n, c, d))
        lo, hi = (3 * c + d) / 4, (c + 3 * d) / 4
    return out


def two_pass_demo(a_set, depths=(8, 16, 24)):
    """`demo_abyss` as three separate computations: the exact value, a
    1-round extraction for the 16 bits, and the realiser's own 8-round
    extraction."""
    f = Penny(a_set)
    oracle = exhaustive_sup_oracle()
    baseline = [naive_rational_sup(f, 0, 1, d) for d in depths]
    exact = oracle(f, F(0), F(1))
    extraction = extract_enumeration_from_sup(oracle, a_set, 16, rounds=1)
    z = realiser_from_sup(oracle, a_set, 16, fuel=8)
    return AbyssReport("spike function over %s" % a_set.name, list(depths), baseline,
                       exact, exact - max(baseline), z,
                       extraction[0].bits if extraction else None)


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
