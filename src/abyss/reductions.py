"""Constructive reductions: how an exact supremum functional, a cliquishness
modulus, or a regulation modulus for the spike function turns into a point
outside the seed set - plus the rational-sampling baseline that fails on the
same instances.

The hypothetical functionals are realised as exact oracles over the symbolic
universe, so each reduction is an honest program; the impossibility content
survives as the measured gap between those oracles and every rational-grid
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algorithms import _interior_candidates
from .errors import InvalidModulus, OracleInconsistency
from .exact import DyadicInterval, Q2, _rational, least_exponent, rational_grid
from .oracle import DEFAULT_FUEL, Modulus, _ball_clipped
from .serialize import rat_json
from .sets import CountableSet
from .universe import Penny, SymbolicFn
from .variation import modulus_regulation


# ---------------------------------------------------------------------------
# hypothetical functionals, realised exactly on the universe
# ---------------------------------------------------------------------------


@dataclass
class SupOracle:
    """Exact supremum functional over the built-in universe."""

    sup: Callable[[SymbolicFn, Fraction, Fraction], Fraction]

    def __call__(self, f, p, q) -> Fraction:
        return self.sup(f, _rational(p), _rational(q))


def exhaustive_sup_oracle() -> SupOracle:
    def sup(f, p, q):
        if p == q:
            v = f.eval(Q2.of(p))
            if not v.is_rational:
                raise OracleInconsistency("exact supremum is irrational")
            return v.as_rational()
        _, sup_b = f.range_on(DyadicInterval(p, q), 60)
        if not sup_b.exact:
            raise OracleInconsistency("supremum not exactly attained on this family")
        return sup_b.lo

    return SupOracle(sup)


@dataclass
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
        iv = _ball_clipped(x, n)
        # member i's spike 2^-(i+1) reaches 2^-k exactly when i < k
        blockers = sorted(p for _, p in a_set.members_in(iv, k))
        walls = [Q2.of(iv.lower)] + blockers + [Q2.of(iv.upper)]
        best = None
        for lo, hi in zip(walls, walls[1:]):
            width = hi - lo
            if best is None or width > best[1]:
                best = ((lo, hi), width)
        (lo, hi), _ = best
        prec = n + k + 12
        c = lo.bracket(prec)[1] if not lo.is_rational else lo.as_rational() + Fraction(1, 1 << prec)
        d = hi.bracket(prec)[0] if not hi.is_rational else hi.as_rational() - Fraction(1, 1 << prec)
        if not (c < d):
            raise InvalidModulus("gap too small to fit a rational interval")
        return (c, d)

    return CliqModulusOracle(fn)


def adversarial_cliq_modulus() -> CliqModulusOracle:
    """Always answers the whole interval; fails the ball-containment check of
    its defining bound immediately."""
    return CliqModulusOracle(lambda x, k, n: (Fraction(0), Fraction(1)))


def adversarial_wide_modulus() -> CliqModulusOracle:
    """Respects the prescribed ball but ignores the variation bound: the
    member spot-check refutes it as soon as a visible spike is inside."""

    def fn(x, k, n):
        iv = _ball_clipped(x, n)
        w = iv.width / 8
        return (iv.lower + w, iv.upper - w)

    return CliqModulusOracle(fn)


# ---------------------------------------------------------------------------
# the baseline that falls into the gap
# ---------------------------------------------------------------------------


def naive_rational_sup(f: SymbolicFn, p, q, depth: int) -> Fraction:
    """Max of f over the dyadic grid only - no carried points, no collapse
    rule.  Sound for quasi-continuous f; provably blind on the spike family.

    The max over the (finite) grid is exact.  The family supplies it through
    `grid_max` when its structure decides it without touching any off-grid
    point; otherwise the grid is scanned point by point.
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
    away from xs(n) at stage n."""
    lo, hi = Fraction(0), Fraction(1)
    n = 0
    while n < fuel or hi - lo > Fraction(1, 1 << (k + 2)):
        width = hi - lo
        if n < fuel:
            x = Q2.of(xs(n))
            mid = (lo + hi) / 2
            if x <= mid:
                lo = hi - width / 3  # take the right third
            else:
                hi = lo + width / 3  # take the left third
        else:
            lo, hi = lo + width / 3, hi - width / 3
        n += 1
        if n > 4 * (fuel + k + 8):
            break
    return _dyadic_inside(lo, hi, k)


def _dyadic_inside(lo: Fraction, hi: Fraction, k: int) -> Fraction:
    """A dyadic point strictly inside (lo, hi): the midpoint rounded down to
    the first grid 2^-j, j >= k + 2, that keeps it inside."""
    j = k + 2
    while True:
        step = Fraction(1, 1 << j)
        cand = (((lo + hi) / 2) // step) * step
        if lo < cand < hi:
            return cand
        j += 1


# ---------------------------------------------------------------------------
# realiser reductions
# ---------------------------------------------------------------------------


class _PennyTail(Penny):
    """The spike function with all spikes of index below `start` removed:
    the restriction used to strip an already-extracted maximum."""

    kind = "penny-tail"

    def __init__(self, a_set, start):
        super().__init__(a_set)
        self.start = start


@dataclass
class SupExtraction:
    """Transcript of one extraction round: the located spike."""

    index: int
    value: Fraction
    bits: str
    interval: DyadicInterval


def extract_enumeration_from_sup(oracle: SupOracle, a_set: CountableSet, k: int,
                                 rounds: int = 16) -> list[SupExtraction]:
    """Locate maxima of the spike function by interval comparison, strip, and
    repeat: recovers the seed enumeration in decreasing-value order."""
    out = []
    bound = rounds if a_set.size is None else min(rounds, a_set.size)
    for r in range(bound):
        f = _PennyTail(a_set, out[-1].index + 1) if out else Penny(a_set)
        s = oracle(f, Fraction(0), Fraction(1))
        if s == 0:
            break
        idx = Penny.spikes_above(abs(s))
        if f.spike_value(idx) != s:
            raise OracleInconsistency("supremum %s is not a spike value" % (s,))
        lo, hi = Fraction(0), Fraction(1)
        bits = []
        while hi - lo > Fraction(1, 1 << k):
            mid = (lo + hi) / 2
            s_left = oracle(f, lo, mid)
            if s_left > s:
                raise OracleInconsistency("supremum grew on a subinterval")
            if s_left == s:
                hi = mid  # ties break toward the left half
                bits.append("0")
            else:
                s_right = oracle(f, mid, hi)
                if s_right != s:
                    raise OracleInconsistency("supremum vanished on both halves")
                lo = mid
                bits.append("1")
        out.append(SupExtraction(idx, s, "".join(bits), DyadicInterval(lo, hi)))
    return out


def realiser_from_sup(oracle: SupOracle, a_set: CountableSet, k: int,
                      fuel: int = 16) -> Fraction:
    """From an exact supremum functional to a point outside the seed set."""
    extraction = extract_enumeration_from_sup(oracle, a_set, k, rounds=fuel)
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
    # upfront validity probes at the carried members: an interval answered
    # around a member must not keep the member's own spike inside
    for i, p in a_set.members_upto(min(4, fuel)):
        _checked_cliq_answer(modulus, a_set, p, i + 2, 3)
    lo, hi = Fraction(0), Fraction(1)
    intervals = [DyadicInterval(lo, hi)]
    for j in range(max(k + 2, fuel + 1)):
        half = (hi - lo) / 2  # n_j: the least n with 2^-n strictly below it
        n_j = least_exponent(half.numerator, half.denominator)
        n_j += half == Fraction(1, 1 << n_j)
        c, d = _checked_cliq_answer(modulus, a_set, Q2.of((lo + hi) / 2), j + 1, n_j)
        quarter = (d - c) / 4
        center = (c + d) / 2
        lo, hi = center - quarter, center + quarter
        intervals.append(DyadicInterval(lo, hi))
    return _certified_limit(intervals, a_set, fuel, 1, k)


def _checked_cliq_answer(modulus: CliqModulusOracle, a_set: CountableSet, x: Q2,
                         k: int, n: int) -> tuple[Fraction, Fraction]:
    """The modulus's interval (c, d) for (x, k, n), checked against its
    defining bound: it lies in the prescribed ball, and no member whose spike
    reaches 2^-k (index below k) lies strictly inside it."""
    c, d = (_rational(e) for e in modulus(x, k, n))
    ball = _ball_clipped(x, n)
    if not (ball.lower <= c < d <= ball.upper):
        raise InvalidModulus("returned interval escapes the prescribed ball")
    for i, p in a_set.members_in(DyadicInterval(c, d), k):
        if p > Q2.of(c) and p < Q2.of(d):
            # pair (member, any rational in the interval) violates the bound
            raise InvalidModulus(
                "interval (%s, %s) contains member %d with spike %s >= 2^-%d"
                % (c, d, i, Penny.spike_value(i), k))
    return c, d


def _certified_limit(intervals: list[DyadicInterval], a_set: CountableSet,
                     fuel: int, lag: int, k: int) -> Fraction:
    """Certify a nested construction, member i outside its level-(i + lag)
    interval for every carried member, and return a dyadic point inside the
    last interval."""
    for i, p in a_set.members_upto(fuel):
        level = min(i + lag, len(intervals) - 1)
        if intervals[level].contains(p):
            raise InvalidModulus("member %d survived to level %d" % (i, level))
    return _dyadic_inside(intervals[-1].lower, intervals[-1].upper, k)


def realiser_from_regulation_modulus(modulus: Modulus,
                                     a_set: CountableSet, k: int,
                                     fuel: int = 16) -> Fraction:
    """Regulation radii turn the cofinite-spike sets into represented dense
    opens; the nested construction walks through them."""
    f = Penny(a_set)
    _spot_check_regulation(modulus, a_set)
    lo, hi = Fraction(0), Fraction(1)
    intervals = [DyadicInterval(lo, hi)]
    for j in range(max(k + 2, fuel + 1)):
        width = hi - lo
        depth = max(2, least_exponent(width.numerator, 8 * width.denominator))
        for g in _interior_candidates(DyadicInterval(lo, hi), depth):
            v = f.eval(Q2.of(g))
            if v.is_rational and v.as_rational() < Fraction(1, 1 << j):
                m = modulus(Q2.of(g), j + 2)
                s = min(Fraction(1, 1 << (m + 1)), width / 8)
                lo, hi = g - s / 2, g + s / 2
                intervals.append(DyadicInterval(lo, hi))
                break
        else:
            raise InvalidModulus("no admissible centre found at level %d" % j)
    return _certified_limit(intervals, a_set, fuel, 2, k)


def _spot_check_regulation(modulus, a_set: CountableSet):
    """Refute obviously invalid moduli: the one-sided window at a member must
    not contain another member with a visible spike (2^-3 or more, so index
    below 3)."""
    k = 3
    for _, p in a_set.members_upto(4):
        m = modulus(p, k)
        r = Fraction(1, 1 << (m + 1))
        plo, phi = p.bracket(m + k + 10)
        for lo, hi in ((phi, min(Fraction(1), plo + r)),
                       (max(Fraction(0), phi - r), plo)):
            if lo >= hi:
                continue
            for i, w in a_set.members_in(DyadicInterval(lo, hi), k):
                if w != p:
                    raise InvalidModulus(
                        "regulation window around %s contains member %d with "
                        "spike %s" % (p, i, Penny.spike_value(i)))


def canonical_regulation_modulus(a_set: CountableSet, fuel: int = DEFAULT_FUEL) -> Modulus:
    return modulus_regulation(Penny(a_set), fuel)


# ---------------------------------------------------------------------------
# the desk-scale demonstration
# ---------------------------------------------------------------------------


@dataclass
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


def demo_abyss(a_set: CountableSet, depths=(8, 16, 24), bits: int = 16) -> AbyssReport:
    """Grid sampling returns 0 at every depth while the exact oracle returns
    the top spike; the gap is the abyss at desk scale."""
    f = Penny(a_set)
    oracle = exhaustive_sup_oracle()
    baseline = [naive_rational_sup(f, 0, 1, d) for d in depths]
    exact = oracle(f, Fraction(0), Fraction(1))
    extraction = extract_enumeration_from_sup(oracle, a_set, bits, rounds=1)
    z = realiser_from_sup(oracle, a_set, bits, fuel=8)
    return AbyssReport(
        instance="spike function over %s" % a_set.name,
        depths=list(depths),
        baseline_values=baseline,
        oracle_value=exact,
        gap=exact - max(baseline),
        realiser_point=z,
        realiser_bits=extraction[0].bits if extraction else None,
    )
