"""Shared fixtures: seeded instance generators and independent brute-force
oracles (plain evaluation loops, no calls into the range machinery they
check)."""

from __future__ import annotations

import cProfile
import fractions
import os
import pstats
import random
import signal
from fractions import Fraction as F
from pathlib import Path

import pytest

from abyss import (Baire1Limit, CountableSet, DyadicInterval, Penny, PennyK,
                   PiecewiseRational, Poly, Q2, Thomae, finite_set, linear,
                   rational_grid, sqrt2_family, staircase)
from abyss.universe import ScalarMultiple, Sum, RestrictedView

# the CLI and demo subprocesses find the package where pytest's `pythonpath`
# setting finds it, so the suite runs in a checkout without an install
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def canonical():
    return sqrt2_family()


@pytest.fixture
def deadline():
    """`deadline(seconds)` fails the test once it has run that long, so an
    unbounded search fails quickly instead of stalling the suite.  Built on
    SIGALRM (main thread, POSIX); the timer is cleared at teardown."""

    def on_alarm(signum, frame):
        pytest.fail("test ran past its %s s deadline" % armed[0])

    armed = []
    old = signal.signal(signal.SIGALRM, on_alarm)

    def arm(seconds):
        armed[:] = [seconds]
        signal.setitimer(signal.ITIMER_REAL, seconds)

    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# independent evaluation oracles
# ---------------------------------------------------------------------------


def calls_to(fn, filename: str, name: str) -> int:
    """How often fn() calls the function `name` defined in `filename`,
    counted by the profiler."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(nc for (file, _, func), (_, nc, *_) in pstats.Stats(prof).stats.items()
               if file == filename and func == name)


def fraction_news(fn) -> int:
    """How often fn() calls Fraction.__new__, counted by the profiler."""
    return calls_to(fn, fractions.__file__, "__new__")


def probe_basis(f, iv: DyadicInterval, depth: int, member_limit=32):
    """Grid plus every carried point the test knows how to enumerate; a plain
    list of points, assembled without the production probe machinery."""
    pts = [Q2.of(g) for g in rational_grid(iv, depth)]
    base = f
    while isinstance(base, (ScalarMultiple, RestrictedView)):
        base = base.f
    stack = [base]
    while stack:
        g = stack.pop()
        if isinstance(g, Sum):
            stack.extend((g.f, g.g))
            continue
        if isinstance(g, Baire1Limit):
            stack.append(g.term(8))
            continue
        if hasattr(g, "a_set"):  # every spike family carries its seed set
            for n, p in g.a_set.members_in(iv, member_limit):
                pts.append(p)
        if isinstance(g, Thomae):
            for q in range(1, depth + 2):
                lo = -(-iv.lower * q // 1)
                hi = iv.upper * q // 1
                i = int(lo)
                while i <= int(hi):
                    if 0 <= F(i, q) <= 1:
                        pts.append(Q2.of(F(i, q)))
                    i += 1
        if isinstance(g, PiecewiseRational):
            for c in g.cuts:
                if iv.contains(c):
                    pts.append(c)
            for j, piece in enumerate(g.pieces):
                v = piece.vertex()
                if v is not None and iv.contains(v):
                    pts.append(Q2.of(v))
    out = []
    for p in sorted(pts):
        if not out or out[-1] != p:
            out.append(p)
    return out


def brute_values(f, iv, depth, member_limit=32):
    return [f.eval(p) for p in probe_basis(f, iv, depth, member_limit)]


def brute_max(f, iv, depth=7, member_limit=32):
    return max(brute_values(f, iv, depth, member_limit))


def brute_min(f, iv, depth=7, member_limit=32):
    return min(brute_values(f, iv, depth, member_limit))


def brute_ball_osc(f, x, exponent, depth=7):
    p = Q2.of(x)
    c = p.as_rational() if p.is_rational else p.approx(exponent + 8)
    r = F(1, 1 << exponent)
    iv = DyadicInterval(max(F(0), c - r), min(F(1), c + r))
    vals = brute_values(f, iv, depth)
    return max(vals) - min(vals)


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
    if isinstance(base, PennyK):
        best = Q2.of(0)
        for n, p in base.a_set.members_in(iv, base.cutoff + 1):
            if n <= base.cutoff:
                best = max(best, Q2.of(F(1, 1 << (n + 1))))
        return best * scale
    if isinstance(base, Penny):
        best = Q2.of(0)
        limit = base.a_set.size if base.a_set.size is not None else 64
        for n, p in base.a_set.members_in(iv, limit):
            best = max(best, Q2.of(F(1, 1 << (n + 1))))
            break  # first index in the interval carries the largest value
        return best * scale
    if isinstance(base, Thomae):
        q = 1
        while True:
            lo = -(-iv.lower * q // 1)
            if lo <= iv.upper * q // 1:
                return Q2.of(F(1, q)) * scale
            q += 1
    if isinstance(base, PiecewiseRational):
        vals = []
        lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
        for j, piece in enumerate(base.pieces):
            a, b = max(base.cuts[j], lo), min(base.cuts[j + 1], hi)
            if a > b:
                continue
            cands = [a, b]
            v = piece.vertex()
            if v is not None and Q2.of(v) > a and Q2.of(v) < b:
                cands.append(Q2.of(v))
            vals.extend(piece(t) for t in cands)
        for i, c in enumerate(base.cuts):
            if iv.contains(c):
                vals.append(base.bp_values[i])
        return max(vals) * scale
    raise NotImplementedError(type(base))


def exact_symbolic_inf(f, iv: DyadicInterval):
    base = f
    while isinstance(base, RestrictedView):
        base = base.f
    if isinstance(base, (Penny, Thomae)):  # PennyK via subclassing
        if iv.width == 0:
            return base.eval(Q2.of(iv.lower))
        return Q2.of(0)
    if isinstance(base, PiecewiseRational):
        vals = []
        lo, hi = Q2.of(iv.lower), Q2.of(iv.upper)
        for j, piece in enumerate(base.pieces):
            a, b = max(base.cuts[j], lo), min(base.cuts[j + 1], hi)
            if a > b:
                continue
            cands = [a, b]
            v = piece.vertex()
            if v is not None and Q2.of(v) > a and Q2.of(v) < b:
                cands.append(Q2.of(v))
            vals.extend(piece(t) for t in cands)
        for i, c in enumerate(base.cuts):
            if iv.contains(c):
                vals.append(base.bp_values[i])
        return min(vals)
    raise NotImplementedError(type(base))


# ---------------------------------------------------------------------------
# randomized instance generators (seeded, deterministic)
# ---------------------------------------------------------------------------


def random_dyadic(rng: random.Random, depth=6) -> F:
    return F(rng.randrange(0, (1 << depth) + 1), 1 << depth)


def random_cuts(rng, max_interior=4):
    interior = sorted({random_dyadic(rng) for _ in range(rng.randrange(1, max_interior + 1))}
                      - {F(0), F(1)})
    return [F(0)] + interior + [F(1)]


def random_continuous_piecewise(rng) -> PiecewiseRational:
    """Continuous piecewise-linear interpolation through random dyadic knots,
    with an occasional quadratic piece matched at both ends."""
    cuts = random_cuts(rng)
    knots = [F(rng.randrange(-8, 9), 8) for _ in cuts]
    pieces = []
    for (a, b), (ya, yb) in zip(zip(cuts, cuts[1:]), zip(knots, knots[1:])):
        slope = (yb - ya) / (b - a)
        if rng.random() < 0.3:
            # quadratic with the same endpoints: add c2 (x-a)(x-b)
            c2 = F(rng.randrange(-4, 5), 4)
            pieces.append(Poly(ya - slope * a + c2 * a * b,
                               slope - c2 * (a + b), c2))
        else:
            pieces.append(Poly(ya - slope * a, slope))
    return PiecewiseRational(cuts, pieces, [Q2.of(v) for v in knots])


def random_staircase(rng) -> PiecewiseRational:
    cuts = random_cuts(rng)
    jumps = [(c, F(rng.randrange(-8, 9), 8)) for c in cuts[1:-1]]
    return staircase(jumps)


def random_staircase_plus_linear(rng) -> PiecewiseRational:
    from abyss import fn_sum
    st = random_staircase(rng)
    slope = F(rng.randrange(0, 5), 4)
    return fn_sum(st, linear(slope))


def irrational_cut_staircase() -> PiecewiseRational:
    """A normalised-BV staircase on a falling line, its first jump at the
    irrational cut sqrt2/4: past the jump the grid max sits at the first grid
    point after the cut, which no coarse grid holds."""
    from abyss import fn_sum
    return fn_sum(staircase([(Q2(0, F(1, 4)), F(1, 2)), (F(5, 8), F(-1, 4))]),
                  linear(F(-1, 2)))


def vertex_off_its_piece() -> PiecewiseRational:
    """A quadratic piece on (0, 5/16) whose vertex 2/5 lies past the piece,
    inside [0,1] and most test intervals, then a falling line."""
    return PiecewiseRational.from_polys(
        [0, F(5, 16), 1], [Poly(0, F(16, 5), -4), Poly(F(1, 4), F(-1, 4))])


def random_finite_set(rng, max_size=12) -> CountableSet:
    size = rng.randrange(1, max_size + 1)
    pts = []
    while len(pts) < size:
        q = random_dyadic(rng, 7)
        m = rng.randrange(2, 40)
        p = Q2(q, F(1, 1 << m))
        if p > 0 and p < 1 and all(p != e for e in pts):
            pts.append(p)
    return finite_set(pts, name="random-%d" % size)


def random_subinterval(rng, depth=5):
    a = random_dyadic(rng, depth)
    b = random_dyadic(rng, depth)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        hi = min(F(1), lo + F(1, 1 << depth))
        if lo == hi:
            lo = hi - F(1, 1 << depth)
    return lo, hi


# ---------------------------------------------------------------------------
# shared verification helpers
# ---------------------------------------------------------------------------


def verify_cover_exact(balls) -> bool:
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


def partition_brute_variation(f, x, candidates, max_points):
    """Max partition sum with at most max_points points drawn from the
    candidates (dynamic program equivalent to enumerating every partition)."""
    pts = sorted({c for c in candidates if 0 <= c <= x} | {F(0), F(x)})
    vals = [f.eval(p) for p in pts]
    n = len(pts)
    best = {(i, 1): Q2.of(0) for i in range(n)}
    for m in range(2, max_points + 1):
        for i in range(n):
            cur = None
            for j in range(i):
                prev = best.get((j, m - 1))
                if prev is None:
                    continue
                cand = prev + abs(vals[i] - vals[j])
                if cur is None or cand > cur:
                    cur = cand
            if cur is not None:
                best[(i, m)] = cur
    return max(best.values())
