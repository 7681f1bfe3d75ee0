"""Constructive reductions: how an exact supremum functional, a cliquishness
modulus, or a regulation modulus for the spike function turns into a point
outside the seed set - plus the rational-sampling baseline that fails on the
same instances.

The hypothetical functionals are realised as exact oracles over the symbolic
universe, so each reduction is an honest program; the impossibility content
survives as the measured gap between those oracles and every rational-grid
baseline.

The walks run on integer triples (ln, un, d), the interval [ln/d, un/d]:
the bisection on a/2^j, the Cantor walk on a/3^n, and the nested intervals
of the cliquishness and regulation realisers as `DyadicInterval`s.  A
`SupOracle` is asked about a `DyadicInterval`, so the bisection hands it
integer triples: each half [2a, 2a + 1]/2^(j+1) or [2a + 1, 2a + 2]/2^(j+1)
has consecutive numerators, so it is in lowest terms as built and is made
by `exact.dyadic`, with no gcd.  The checks of the cliquishness modulus
work on the integers too: the canonical modulus compares the widths of
its gaps on the walls' integers, and its answer is held against the ball
on the integers of its ends.  A `Fraction` is built only at the API: the ends a caller
hands to `SupOracle.__call__`, the answers of the oracles and moduli, the
returned points and the reports.
A precision k below 0 is refused with a `ValueError` that names it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .category import interior_numerators
from .collapse import Modulus, ball_clipped
from .errors import InvalidModulus, OracleInconsistency
from .exact import (Q2, DyadicInterval, check_precision, dyadic, least_exponent, ratio, rational,
                    rational_grid, reduced, sign, sign_vs)
from .records import record
from .serialize import rat_json
from .sets import CountableSet
from .spikes import Penny
from .universe import SymbolicFn, query_scope, unit_dyadic
from .variation import limit_pair, modulus_regulation, regulated_within

_ZERO = Fraction(0)  # Fractions are immutable: one serves all
_UNIT = DyadicInterval.of_ints(0, 1, 1)  # [0, 1], where every walk starts


# ---------------------------------------------------------------------------
# hypothetical functionals, realised exactly on the universe
# ---------------------------------------------------------------------------


@record
class SupOracle:
    """Exact supremum functional over the built-in universe: `sup(f, iv)` is
    the supremum of f on the closed interval iv.  Calling the oracle with
    rational ends p <= q asks `sup` about [p, q]."""

    sup: Callable[[SymbolicFn, DyadicInterval], Fraction]

    def __call__(self, f, p, q) -> Fraction:
        return self.sup(f, DyadicInterval(p, q))


def exhaustive_sup_oracle() -> SupOracle:
    """The supremum read off `range_on` at 2^-60, exact or refused.  On a
    spike family over a nondegenerate subinterval of [0,1] it is the one
    first-hit scan that `Penny._range_on` makes, read without a bracket."""
    def sup(f, iv):
        ln, un, d = iv.ln, iv.un, iv.d
        if ln == un:
            v = f.eval(reduced(ln, 0, d))
            if v.q:
                raise OracleInconsistency("exact supremum is irrational")
            return _answer(v.p, v.d)
        if isinstance(f, Penny) and ln >= 0 and un <= d:
            n = f.top_spike(iv, 60)[0]
            if n is None:
                raise OracleInconsistency("supremum not exactly attained on this family")
            return unit_dyadic(n) if n >= 0 else _ZERO
        _, sup_b = f.range_on(iv, 60)
        if sup_b.ln != sup_b.un:
            raise OracleInconsistency("supremum not exactly attained on this family")
        return _answer(sup_b.ln, sup_b.d)

    return SupOracle(sup)


def _answer(n: int, d: int) -> Fraction:
    """n/d in lowest terms as a `Fraction`: 0 and the unit dyadics 2^-(i+1),
    the spike values, are shared constants; any other value is built."""
    if n == 1 and d > 1 and not d & (d - 1):
        return unit_dyadic(d.bit_length() - 2)
    return Fraction(n, d) if n else _ZERO


@record
class CliqModulusOracle:
    """Interval-valued modulus: F(x, k, N) is an open rational subinterval of
    the 2^-N ball around x on which values vary by less than 2^-k."""

    fn: Callable[[Q2, int, int], tuple[Fraction, Fraction]]

    def __call__(self, x, k, n):
        return self.fn(Q2.of(x), k, n)


def canonical_cliq_modulus(a_set: CountableSet) -> CliqModulusOracle:
    """The honest modulus for the spike function: steer into the largest gap
    between the (finitely many) members whose value could exceed 2^-k."""

    def fn(x, k, n):
        iv = ball_clipped(x, n)
        # member i's spike 2^-(i+1) reaches 2^-k exactly when i < k
        walls = [reduced(iv.ln, 0, iv.d)]
        walls += sorted(p for _, p in a_set.members_in(iv, k))
        walls.append(reduced(iv.un, 0, iv.d))
        # the widest gap, the first on a tie: the width of [a, b] is
        # (wp + wq sqrt2)/we, and two widths compare as `Q2.cmp` compares
        lo = hi = None
        for a, b in zip(walls, walls[1:]):
            wp, wq, we = b.p * a.d - a.p * b.d, b.q * a.d - a.q * b.d, a.d * b.d
            if lo is None or sign(wp * be - bp * we, wq * be - bq * we) > 0:
                lo, hi, bp, bq, be = a, b, wp, wq, we
        # at most k walls split a ball of width >= 2^-(n+1): the widest gap
        # exceeds 2^-(n+k+1), far more than the two nudges of 2^-(n+k+12)
        prec = n + k + 12
        return (_nudged(lo, prec, 1), _nudged(hi, prec, -1))

    return CliqModulusOracle(fn)


def _nudged(x: Q2, prec: int, side: int) -> Fraction:
    """A rational within 2^-prec of x, strictly above it for side 1 and
    below it for side -1: an end of x's bracket, or x moved by 2^-prec."""
    lo, hi, e = x.bracket_ints(prec)
    if lo == hi:  # x is the rational lo/e
        return Fraction((lo << prec) + side * e, e << prec)
    return Fraction(hi if side > 0 else lo, e)


def adversarial_cliq_modulus() -> CliqModulusOracle:
    """Always answers the whole interval; fails the ball-containment check of
    its defining bound immediately."""
    return CliqModulusOracle(lambda x, k, n: (Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# the baseline that falls into the gap
# ---------------------------------------------------------------------------


def naive_rational_sup(f: SymbolicFn, p, q, depth: int) -> Fraction:
    """Max of f over the dyadic grid only - no carried points, no collapse
    rule.  Sound for quasi-continuous f; provably blind on the spike family.

    The max over the (finite) grid is exact.  A spike family reads it off
    its structure through `grid_max`, at any depth; any other family's
    grid, at most 2^20 points, is scanned point by point.
    """
    if depth < 0:
        raise ValueError("grid depth must be >= 0, got %d" % depth)
    iv = DyadicInterval(p, q)
    fast = f.grid_max(iv, depth)
    if fast is not None:
        return fast
    if iv.width * (1 << depth) > (1 << 20):
        raise ValueError("grid too deep for a plain scan of this family; "
                         "use depth <= 20 or a structured instance")
    best = None
    for g in rational_grid(iv, depth):
        v = f.eval(Q2.of(g))
        r = v.as_rational() if v.is_rational else v.approx(depth + 8)
        best = r if best is None else max(best, r)
    return best


# ---------------------------------------------------------------------------
# Cantor diagonalisation
# ---------------------------------------------------------------------------


def cantor_diagonal(xs: Callable[[int], Q2], k: int, fuel: int = 16) -> Fraction:
    """A dyadic point (precision 2^-k) avoiding each enumerated point by a
    third-of-the-current-interval margin: nested closed intervals, stepping
    away from xs(n) at stage n, until there are fuel stages and the width is
    at most 2^-(k+2).

    Stage n's interval is [a/3^n, (a + 1)/3^n], so each stage appends one
    ternary digit to a: 2 (the right third) when xs(n) is at or left of the
    midpoint, 0 (the left third) when it is right of it, and 1 (the middle
    third) once the fuel is spent."""
    check_precision(k)
    a, d = 0, 1  # d = 3^n at stage n
    n = 0
    while n < fuel or d < 1 << (k + 2):
        if n < fuel:
            t = 2 if sign_vs(Q2.of(xs(n)), 2 * a + 1, 2 * d) <= 0 else 0
        else:
            t = 1
        a, d = 3 * a + t, 3 * d
        n += 1
    return _dyadic_inside(DyadicInterval.of_ints(a, a + 1, d), k)


def _dyadic_inside(iv: DyadicInterval, k: int) -> Fraction:
    """A dyadic point strictly inside the nondegenerate iv: the midpoint
    rounded down to the first grid 2^-j, j >= k + 2, that keeps it inside."""
    ln, un, d = iv.ln, iv.un, iv.d
    j = k + 2
    while True:
        c = ((ln + un) << j) // (2 * d)
        if ln << j < c * d < un << j:
            return Fraction(c, 1 << j)
        j += 1


# ---------------------------------------------------------------------------
# realiser reductions
# ---------------------------------------------------------------------------


@record
class SupExtraction:
    """Transcript of one extraction round: the located spike."""

    index: int
    value: Fraction
    bits: str
    interval: DyadicInterval


def extract_enumeration_from_sup(oracle: SupOracle, a_set: CountableSet, k: int,
                                 rounds: int = 16) -> list[SupExtraction]:
    """Locate maxima of the spike function by interval comparison, strip, and
    repeat: recovers the seed enumeration in decreasing-value order.

    Each round bisects k times on the numerator a of [a/2^j, (a + 1)/2^j]:
    the oracle is asked about the left half [2a, 2a + 1]/2^(j+1), and,
    when the supremum is not there, about the right half, which must hold
    it.  The halves are built in lowest terms (`exact.dyadic`).  The
    round's supremum sn/sd is a spike value when sn = 1 and sd is a power
    of two, and every answer is compared with it on the integers."""
    check_precision(k)
    out = []
    sup = oracle.sup
    bound = rounds if a_set.size is None else min(rounds, a_set.size)
    for r in range(bound):
        f = Penny(a_set, out[-1].index + 1 if out else 0)
        s = sup(f, _UNIT)
        sn, sd = ratio(s)
        if not sn:
            break
        # a spike value 2^-(idx+1) is 1 over a power of two at least 2
        if sn != 1 or sd < 2 or sd & (sd - 1):
            raise OracleInconsistency("supremum %s is not a spike value" % (s,))
        idx = sd.bit_length() - 2
        if idx < f.start:
            raise OracleInconsistency("supremum %s is the stripped spike %d" % (s, idx))
        if a_set.size is not None and idx >= a_set.size:
            raise OracleInconsistency("supremum %s is spike %d of a %d-point seed set"
                                      % (s, idx, a_set.size))
        a = 0
        for j in range(k):
            a, d = 2 * a, 2 << j  # ties break toward the left half
            left = sup(f, dyadic(a, a + 1, d))
            if left is not s:  # the round's own object needs no integers
                ln, ld = ratio(left)
                if ln * sd > sn * ld:
                    raise OracleInconsistency("supremum grew on a subinterval")
                if ln != sn or ld != sd:
                    a += 1
                    right = sup(f, dyadic(a, a + 1, d))
                    if right is not s and ratio(right) != (sn, sd):
                        raise OracleInconsistency("supremum vanished on both halves")
        # the bits are a's k binary digits, read past the leading 1 of 2^k + a
        out.append(SupExtraction(idx, s, bin(a + (1 << k))[3:], dyadic(a, a + 1, 1 << k)))
    return out


def realiser_from_sup(oracle: SupOracle, a_set: CountableSet, k: int,
                      fuel: int = 16) -> Fraction:
    """From an exact supremum functional to a point outside the seed set."""
    check_precision(k)
    extraction = extract_enumeration_from_sup(oracle, a_set, k, rounds=fuel)
    return _diagonal_past(extraction, a_set, k, fuel)


def _diagonal_past(extraction: list[SupExtraction], a_set: CountableSet, k: int,
                   fuel: int) -> Fraction:
    """Check that each extracted interval holds the member it located, then
    diagonalise against the first fuel members."""
    for step in extraction:
        member = a_set.member(step.index)
        if not step.interval.contains(member):
            raise OracleInconsistency("extracted interval misses the member it "
                                      "located")
    limit = fuel if a_set.size is None else min(fuel, a_set.size)

    def xs(n):
        return a_set.member(min(n, limit - 1))

    return cantor_diagonal(xs, k, fuel=limit)


def realiser_from_cliq_modulus(modulus: CliqModulusOracle, a_set: CountableSet,
                               k: int, fuel: int = 16) -> Fraction:
    """Nested closed intervals through the modulus: any member caught in the
    level-j interval would force a variation the modulus has ruled out, so
    the limit avoids the whole enumeration."""
    check_precision(k)
    # upfront validity probes at the carried members: an interval answered
    # around a member must not keep the member's own spike inside
    for i, p in a_set.members_upto(min(4, fuel)):
        _checked_cliq_answer(modulus, a_set, p, i + 2, 3)
    iv = _UNIT
    intervals = [iv]
    for j in range(max(k + 2, fuel + 1)):
        # n_j: the least n with 2^-n strictly below half the width w/d
        w, d = iv.un - iv.ln, 2 * iv.d
        n_j = least_exponent(w, d)
        n_j += w << n_j == d
        cd = _checked_cliq_answer(modulus, a_set, reduced(iv.ln + iv.un, 0, d), j + 1, n_j)
        # the middle half of the answer [c, d]: [(3c + d)/4, (c + 3d)/4]
        iv = DyadicInterval.of_ints(3 * cd.ln + cd.un, cd.ln + 3 * cd.un, 4 * cd.d)
        intervals.append(iv)
    return _certified_limit(intervals, a_set, fuel, 1, k)


def _checked_cliq_answer(modulus: CliqModulusOracle, a_set: CountableSet, x: Q2,
                         k: int, n: int) -> DyadicInterval:
    """The modulus's interval [c, d] for (x, k, n), checked against its
    defining bound: it lies in the prescribed ball, and no member whose spike
    reaches 2^-k (index below k) lies strictly inside it.  The ends are
    compared on their integers, over the one denominator of [c, d]."""
    c, d = modulus(x, k, n)
    (cn, ce), (dn, de) = ratio(c), ratio(d)
    ln, un, e = cn * de, dn * ce, ce * de
    ball = ball_clipped(x, n)
    if not (ln < un and ball.ln * e <= ln * ball.d and un * ball.d <= ball.un * e):
        raise InvalidModulus("returned interval escapes the prescribed ball")
    answer = DyadicInterval.of_ints(ln, un, e)
    for i, p in a_set.members_in(answer, k):
        if answer.contains_interior(p):
            # pair (member, any rational in the interval) violates the bound
            raise InvalidModulus(
                "interval (%s, %s) contains member %d with spike %s >= 2^-%d"
                % (rational(c), rational(d), i, Penny.spike_value(i), k))
    return answer


def _certified_limit(intervals: list[DyadicInterval], a_set: CountableSet,
                     fuel: int, lag: int, k: int) -> Fraction:
    """Certify a nested construction, member i outside its level-(i + lag)
    interval for every carried member, and return a dyadic point inside the
    last interval."""
    for i, p in a_set.members_upto(fuel):
        level = min(i + lag, len(intervals) - 1)
        if intervals[level].contains(p):
            raise InvalidModulus("member %d survived to level %d" % (i, level))
    return _dyadic_inside(intervals[-1], k)


def realiser_from_regulation_modulus(modulus: Modulus,
                                     a_set: CountableSet, k: int,
                                     fuel: int = 16) -> Fraction:
    """Regulation radii turn the cofinite-spike sets into represented dense
    opens; the nested construction walks through them."""
    check_precision(k)
    f = Penny(a_set)
    _spot_check_regulation(modulus, f)
    iv = _UNIT
    intervals = [iv]
    with query_scope():  # a canonical modulus resumes from its last exponent
        for j in range(max(k + 2, fuel + 1)):
            w, d = iv.un - iv.ln, iv.d  # the width is w/d
            depth = max(2, least_exponent(w, 8 * d))
            for gn in interior_numerators(iv, depth):
                g = reduced(gn, 0, 1 << depth)
                v = f._eval(g)  # g lies inside iv, a subinterval of [0,1]
                if not v.q and v.p << j < v.d:  # f(g) < 2^-j
                    m = modulus(g, j + 2)
                    # the ball around g of radius s/2 = hn/hd, where
                    # s = min(2^-(m+1), width/8)
                    hn, hd = (1, 1 << (m + 2)) if 8 * d <= w << (m + 1) else (w, 16 * d)
                    iv = DyadicInterval.of_ints(gn * hd - (hn << depth), gn * hd + (hn << depth),
                                                hd << depth)
                    intervals.append(iv)
                    break
            else:
                raise InvalidModulus("no admissible centre found at level %d" % j)
    return _certified_limit(intervals, a_set, fuel, 2, k)


def _spot_check_regulation(modulus, f: Penny):
    """Refute obviously invalid moduli: at each of the first members, f must
    stay within 2^-3 of both one-sided limits on the window the modulus
    names, the window `variation.modulus_regulation` itself checks."""
    k = 3
    for _, p in f.a_set.members_upto(4):
        if not regulated_within(f, p, modulus(p, k), k, limit_pair(f, p, k)):
            raise InvalidModulus("values stray 2^-%d or more from a one-sided limit "
                                 "on the regulation window around %s" % (k, p))


def canonical_regulation_modulus(a_set: CountableSet) -> Modulus:
    return modulus_regulation(Penny(a_set))


# ---------------------------------------------------------------------------
# the desk-scale demonstration
# ---------------------------------------------------------------------------


@record
class AbyssReport:
    """Baseline vs. exact oracle on one adversarial instance."""

    instance: str
    depths: list[int]
    baseline_values: list[Fraction]
    oracle_value: Fraction
    gap: Fraction
    realiser_point: Optional[Fraction] = None
    realiser_bits: Optional[str] = None

    def to_jsonable(self):
        out = {
            "instance": self.instance,
            "depths": self.depths,
            "baseline_values": [rat_json(v) for v in self.baseline_values],
            "oracle_value": rat_json(self.oracle_value),
            "gap": rat_json(self.gap),
        }
        if self.realiser_point is not None:
            out["realiser_point"] = rat_json(self.realiser_point)
        if self.realiser_bits is not None:
            out["realiser_bits"] = self.realiser_bits
        return out


def demo_abyss(a_set: CountableSet, depths=(8, 16, 24)) -> AbyssReport:
    """Grid sampling returns 0 at every depth while the exact oracle returns
    the top spike; the gap is the abyss at desk scale."""
    f = Penny(a_set)
    oracle = exhaustive_sup_oracle()
    baseline = [naive_rational_sup(f, 0, 1, d) for d in depths]
    # one extraction gives the exact value (round 0's supremum; no round
    # when it is 0), the report's 16 bits and the realiser's 8 rounds
    extraction = extract_enumeration_from_sup(oracle, a_set, 16, rounds=8)
    exact = extraction[0].value if extraction else _ZERO
    z = _diagonal_past(extraction, a_set, 16, 8)
    return AbyssReport(
        instance="spike function over %s" % a_set.name,
        depths=list(depths),
        baseline_values=baseline,
        oracle_value=exact,
        gap=exact - max(baseline),
        realiser_point=z,
        realiser_bits=extraction[0].bits if extraction else None,
    )
