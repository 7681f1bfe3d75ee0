"""Operations on regulated and bounded-variation functions: one-sided limits,
jump enumeration, total variation of normalised-BV functions, Jordan
decomposition, and regulation moduli.

General BV inputs with removable discontinuities are refused, not
approximated: rational sampling cannot see their variation, and the spike
instances in this package exist precisely to demonstrate that.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Optional

import abyss

from .collapse import Modulus, require_tag
from .errors import ClassRefusal, FuelExhausted
from .exact import DEFAULT_FUEL, Bracket, DyadicInterval, Q2
from .records import record
from .universe import NORMALISED_BV, REGULATED, SymbolicFn, query_state, unit_point

if TYPE_CHECKING:  # annotations only: the family is reached through `abyss`
    from .piecewise import PiecewiseRational


# ---------------------------------------------------------------------------
# one-sided limits and jumps
# ---------------------------------------------------------------------------


@record
class OneSidedLimits:
    """Brackets of f(x-) and f(x+); a side is None outside the domain."""

    left: Optional[DyadicInterval]
    right: Optional[DyadicInterval]


def limits_lr(f: SymbolicFn, x, k: int) -> OneSidedLimits:
    require_tag(f, REGULATED, "limits_lr")
    p = Q2.of(x)
    out = []
    for side in (-1, 1):
        b = f.one_sided_limit(p, side, k + 1)
        out.append(None if b is None else b.to_interval())
    return OneSidedLimits(out[0], out[1])


def jump_enum(f: SymbolicFn, limit: int = 64) -> list[Q2]:
    """Duplicate-free list of the points where the one-sided limits differ,
    drawn from the function's own candidate structure (complete on the
    universe: every jump of a built-in family sits at a carried point)."""
    require_tag(f, REGULATED, "jump_enum")
    if limit < 0:
        raise ValueError("limit must be >= 0, got %d" % limit)
    jumps = []
    for c in f.jump_candidates(limit):
        left = f.one_sided_limit(c, -1, 40)
        right = f.one_sided_limit(c, 1, 40)
        if left is None or right is None:
            continue
        gap = right - left
        if gap.lo > 0 or gap.hi < 0:
            jumps.append(c)
        elif not (gap.exact and gap.lo == 0):
            raise FuelExhausted("one-sided limits too close to separate")
    return jumps


# ---------------------------------------------------------------------------
# total variation and the Jordan decomposition
# ---------------------------------------------------------------------------


_NBV_REFUSAL = ("total variation collapses to a countable partition search "
                "only without removable discontinuities; the spike families "
                "are bounded-variation counterexamples")


def _nbv_piecewise(f: SymbolicFn, operation: str) -> PiecewiseRational:
    require_tag(f, NORMALISED_BV, operation, statement=_NBV_REFUSAL)
    if not isinstance(f, abyss.PiecewiseRational):
        raise ClassRefusal(operation, "a piecewise representation with carried breakpoints",
                           f, statement=_NBV_REFUSAL)
    return f


def _running_variation(f: PiecewiseRational) -> Callable[[object], Q2]:
    """x -> the exact total variation of f on [0, x]: one bisection into a
    table of the critical points, built once from f's breakpoint table, plus
    one partial cell.

    Between consecutive critical points f is one polynomial piece and
    monotone (vertices are critical points), so each cell contributes the
    right-jump at its left end u, the run, and the left-jump at its right
    end.  A cell holds the variation on [0, u] plus the right-jump at u, its
    piece, and the piece's limit at u; `ends[i]` is the variation on [0, pts[i]]."""
    pts, cuts, sides = f.critical, f.cuts, f.sides
    cells, ends = [], [Q2.of(0)]
    j = 0  # the piece on the cell (u, v)
    for u, v in zip(pts, pts[1:]):
        piece = f.pieces[j]
        ru, lv = piece(u), piece(v)  # one-sided limits from inside (u, v)
        fu = sides[j][1] if u == cuts[j] else ru
        if v == cuts[j + 1]:
            j += 1
        fv = sides[j][1] if v == cuts[j] else lv
        cells.append((ends[-1] + abs(fu - ru), piece, ru))
        ends.append(cells[-1][0] + abs(lv - ru) + abs(fv - lv))

    def g(x) -> Q2:
        xq = unit_point(x)
        j = bisect_left(pts, xq)
        if pts[j] == xq:
            return ends[j]
        base, piece, ru = cells[j - 1]
        return base + abs(piece(xq) - ru)  # strictly inside the cell f is its piece

    return g


def total_variation_nbv(f: SymbolicFn, x, k: int) -> DyadicInterval:
    """Width-2^-k interval containing the total variation of f on [0, x]."""
    v = _running_variation(_nbv_piecewise(f, "total_variation_nbv"))(x)
    return Bracket.of_q2(v, k + 1).to_interval()


@record
class JordanPair:
    """Non-decreasing g, h with f = g - h; g is the running total variation."""

    g: Callable
    h: Callable

    def check_point(self, f: SymbolicFn, x) -> bool:
        return self.g(x) - self.h(x) == f.eval(x)


def jordan_nbv(f: SymbolicFn) -> JordanPair:
    f = _nbv_piecewise(f, "jordan_nbv")
    g = _running_variation(f)
    return JordanPair(g, lambda x: g(x) - f.eval(x))


# ---------------------------------------------------------------------------
# regulation moduli
# ---------------------------------------------------------------------------


def limit_pair(f: SymbolicFn, p: Q2, k: int) -> tuple[Optional[Bracket], Optional[Bracket]]:
    """The brackets of f(p-) and f(p+) that `regulated_within` tests the
    windows at p against for the tolerance 2^-k; they do not depend on m."""
    return f.one_sided_limit(p, -1, k + 6), f.one_sided_limit(p, 1, k + 6)


def regulated_within(f: SymbolicFn, p: Q2, m: int, k: int,
                     limits: tuple[Optional[Bracket], Optional[Bracket]]) -> bool:
    """Whether f stays within 2^-k of each one-sided limit at p, given as
    `limit_pair(f, p, k)`, on the window of radius 2^-(m+1) on that side.
    The windows are built on integers over one denominator: p's bracket of
    width 2^-(m+k+8), the radius, and the trim 2^-(k+24) that keeps a
    rational p out.  Each is a nondegenerate subinterval of [0,1], read
    through the `_range_on` hook."""
    ln, un, e = p.bracket_ints(m + k + 8)
    s = max(m + 1, k + 24)
    den = e << s
    lo_pt, hi_pt = ln << s, un << s
    r = e << (s - m - 1)
    eps = e << (s - k - 24)
    for side, lim in zip((-1, 1), limits):
        if lim is None:
            continue
        if side > 0:
            lo, hi = hi_pt, min(den, lo_pt + r)
        else:
            lo, hi = max(0, hi_pt - r), lo_pt
        if lo >= hi:
            continue
        if not p.q:
            # the window ends at p; leave p itself out unless that empties it
            if side > 0 and lo + eps < hi:
                lo += eps
            elif side < 0 and lo < hi - eps:
                hi -= eps
        inf_b, sup_b = f._range_on(DyadicInterval.of_ints(lo, hi, den), k + 6)
        # the gaps are the upper ends of sup_b - lim and lim - inf_b, tested
        # against 2^-k over the product denominators
        ld = lim.d
        if ((sup_b.un * ld - lim.ln * sup_b.d) << k >= sup_b.d * ld
                or (lim.un * inf_b.d - inf_b.ln * ld) << k >= ld * inf_b.d):
            return False
    return True


def modulus_regulation(f: SymbolicFn, fuel: int = DEFAULT_FUEL) -> Modulus:
    """M(x, k): on (x, x + 2^-(M+1)) values stay within 2^-k of f(x+), and
    symmetrically on the left; the convergence modulus of both one-sided
    limits.

    Inside a query scope the least exponent found at (f, p, k) is kept, and
    a later k' >= k starts its search there.  That is exact: a failed test
    at (m, k) leaves a true gap of at least 2^-k - 2^-(k+5) > 2^-k' on its
    window, and the window at (m, k') contains it, as p's bracket narrows
    and the trim shrinks.  A rational p's window holds that only while it is
    trimmed, that is while 2^-(k+24) is below the radius 2^-(m+1) and p's
    room on each side that has one, so less is kept there."""
    require_tag(f, REGULATED, "modulus_regulation")

    def least(p, k):
        # keyed by p's integers, as the "range" keys are: a rational `Q2`
        # hashes through a `Fraction`
        found = query_state().setdefault(("regulation", f, p.p, p.q, p.d), {})
        limits = limit_pair(f, p, k)
        start = 0
        for k0, m in found.items():
            if k0 <= k and m > start:
                start = m
        for m in range(start, fuel + 1):
            if regulated_within(f, p, m, k, limits):
                if p.q:
                    found[k] = m
                else:
                    # p's room on each side that has any, n/d and r/d
                    n, r, t = p.p, p.d - p.p, k + 24
                    if (not n or n << t > p.d) and (not r or r << t > p.d):
                        found[k] = min(m, k + 23)  # trimmed while 2^-(m+1) > 2^-(k+24)
                return m
        raise FuelExhausted("no regulation exponent found within fuel")

    return Modulus(least)
