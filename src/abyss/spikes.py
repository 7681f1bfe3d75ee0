"""The spike families: values read off the index of a point in a countable
seed set, and the constructors named for them.  Thomae's function, the
rational-spike map, lives in `abyss.rational_spike`."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import ConstructionError, UnsupportedVariant
from .exact import (Bracket, DyadicInterval, Q2, Truth, _reduced, grid_depth_cap, grid_q2,
                    grid_span)
from .sets import CountableSet, band_of, tilde_set
from .universe import (BAIRE1, BV, CLIQUISH, LSCO, REGULATED, SIMPLY_CONTINUOUS, USCO,
                       SymbolicFn, _Q0, _ZERO, irrational_inside, osc_exact, unit_dyadic,
                       unit_dyadic_bracket)


# ---------------------------------------------------------------------------
# the spike families
# ---------------------------------------------------------------------------


class _SpikeFamily(SymbolicFn):
    """Shared machinery for families that are 0 (or a base value) off a
    countable set and assign index-determined values on it.

    Off the set each family is constant, or (cover-psi-usco) nondecreasing
    on (0,1] and largest at 0, so the off-set values on any grid peak at an
    end of the interval: `grid_max` relies on it.

    Spikes sit at the members of `a_set` with index in the window [start,
    stop) (stop None: unbounded).  A banded family's `a_set` is the banded
    copy of its seed set `source`: member n is its one point in band n."""

    start = 0
    stop: Optional[int] = None
    banded = False

    def __init__(self, source: CountableSet, tags):
        self.source = source
        self.a_set = tilde_set(source) if self.banded else source
        super().__init__(tags)

    @staticmethod
    def spike_value(n: int) -> Fraction:
        raise NotImplementedError

    def spikes_in(self, iv: DyadicInterval, limit: int):
        """The spikes in iv with index below limit, in index order."""
        if self.stop is not None:
            limit = min(limit, self.stop)
        return self.a_set.members_in(iv, limit, self.start)

    def special_points(self, iv, depth):
        return [p for _, p in self.spikes_in(iv, max(depth, 8))]

    def grid_max(self, iv, depth):
        best = _ends_max(self, iv)
        if self.a_set.all_irrational:
            return best  # no member lies on a rational grid
        if self.a_set.size is None:
            return None
        for n, p in self.spikes_in(iv, self.a_set.size):
            if p.is_rational and not (1 << depth) % p.d:
                best = max(best, self.spike_value(n))
        return best


def _ends_max(f: SymbolicFn, iv: DyadicInterval) -> Fraction:
    """Larger value at the two ends of iv, which every grid includes.  Every
    `_SpikeFamily._eval` value is rational (a spike value, a band value, 1/8
    or 0), so it is exact: `as_rational` would raise on an irrational one."""
    lo, hi = f.eval(_reduced(iv.ln, 0, iv.d)), f.eval(_reduced(iv.un, 0, iv.d))
    v = hi if hi._cmp(lo) > 0 else lo
    if v.p == 1 and v.d > 1 and not v.d & (v.d - 1) and not v.q:
        return unit_dyadic(v.d.bit_length() - 2)  # a spike value
    return v.as_rational()


def _window_index(name: str, n) -> int:
    """n, refused unless it is an int >= 0: an end of a spike window."""
    if type(n) is not int:
        raise TypeError("%r %r refused: a spike index takes int" % (name, n))
    if n < 0:
        raise ConstructionError("%r must be >= 0, got %d" % (name, n))
    return n


class Penny(_SpikeFamily):
    """Value 1/2^(Y(x)+1) on the seed set, 0 elsewhere: the canonical
    adversarial instance.  Equal to its own oscillation function.

    Spikes of index below `start` are stripped, as the sup-functional
    reduction strips each maximum it has located.  The truncated and banded
    variants only close the window or band the seed set.  A scan's first
    hit is the largest spike, and a bounded window is scanned whole, so
    every answer over it is exact."""

    kind = "penny"
    TAGS = frozenset({CLIQUISH, USCO, BV, REGULATED, BAIRE1})

    def __init__(self, a_set: CountableSet, start: int = 0):
        if a_set.size == 0:
            raise ConstructionError("seed set must be nonempty")
        self.start = _window_index("start", start)
        super().__init__(a_set, self.TAGS)

    spike_value = staticmethod(unit_dyadic)

    @staticmethod
    def spikes_above(y: Fraction) -> int:
        """For y > 0, how many leading indices carry a spike above y: the
        least n with 2^-(n+1) <= y, which is the band of y."""
        return band_of(min(y, 1), half_open=False)

    def _eval(self, x):
        n = self.a_set._index_of(x)
        if n is None or n < self.start or (self.stop is not None and n >= self.stop):
            return _Q0
        return Q2.of(self.spike_value(n))

    def _hull(self):
        return _Q0, Q2.of(self.spike_value(self.start)), False, False

    def _top_spike(self, iv, k) -> tuple[Optional[int], int]:
        """One first-hit scan of iv at precision k, as (n, limit): n is the
        index of the largest spike in iv, -1 when the scan proves iv holds
        none, None when only spikes past the scan window may lie in iv, and
        the window ends at index limit.  Every spike past it is at most
        2^-(k+5), within the width a read at precision k allows; a bounded
        window is scanned whole.  `_range_on` and the exhaustive supremum
        oracle both answer through it, so they keep one window rule."""
        limit = self.stop
        if limit is None:
            limit = k + 4 if k > 4 else 8
        hit = self.a_set._scan(iv, limit, self.start)
        if hit.__class__ is tuple:  # index below limit: no later spike reaches it
            return hit[0], limit
        if hit < limit or self.stop is not None or self.a_set.scan_is_exhaustive(iv, limit):
            return -1, limit
        return None, limit

    def _range_on(self, iv, k):
        # spike n is 1/(2 << n): the brackets are read from the shared table
        n, limit = self._top_spike(iv, k)
        if n is None:
            return _ZERO, Bracket.of_ints(0, 1, 2 << limit)
        return _ZERO, (unit_dyadic_bracket(n) if n >= 0 else _ZERO)

    def _witness_above(self, iv, y):
        if y < 0:
            return Truth.YES, Q2.of(iv.lower)
        if self.stop is not None:
            limit = self.stop
        elif y > 0:
            limit = self.spikes_above(y)  # no later spike exceeds y
        else:
            limit = 4096  # every spike exceeds 0: a bounded prefix decides
        hit = self.a_set._scan(iv, limit, self.start)
        if hit.__class__ is tuple and self.spike_value(hit[0]) > y:
            return Truth.YES, hit[1]
        # at y = 0 every spike exceeds y, so hit is a miss's end: one below
        # the limit proves iv holds no spike
        if (self.stop is not None or y > 0 or hit < limit
                or self.a_set.scan_is_exhaustive(iv, limit)):
            return Truth.NO, None
        return Truth.UNKNOWN, None

    def _witness_below(self, iv, y):
        if y <= 0:
            return Truth.NO, None
        # any off-set point evaluates to 0 < y: bounded dyadic grids, then an
        # irrational point (the seed set may hold every dyadic rational).
        # Grid d holds grid d - 1, so past the first depth only the odd
        # multiples of 2^-d are new.
        index_of = self.a_set._index_of
        for p in grid_q2(iv, 2):
            if index_of(p) is None:
                return Truth.YES, p
        for d in range(3, grid_depth_cap(iv) + 1):
            first, last = grid_span(iv, d)
            for j in range(first | 1, last + 1, 2):
                p = _reduced(j, 0, 1 << d)
                if index_of(p) is None:
                    return Truth.YES, p
        p = irrational_inside(iv)
        return (Truth.YES, p) if index_of(p) is None else (Truth.UNKNOWN, None)

    def _one_sided_limit(self, p, side, k):
        return _ZERO


class PennyK(Penny):
    """The index-truncated variant: spikes only up to index cutoff."""

    kind = "pennyk"

    def __init__(self, a_set: CountableSet, cutoff: int):
        self.cutoff = _window_index("cutoff", cutoff)
        super().__init__(a_set)
        self.stop = cutoff + 1


class TildePenny(Penny):
    """The banded copy's spike function: value 2^-(n+1) at the band-n member
    of the shifted set, 0 elsewhere.  Simply continuous."""

    kind = "tilde-penny"
    banded = True
    TAGS = Penny.TAGS | {SIMPLY_CONTINUOUS}


class CoverPsi(_SpikeFamily):
    """The cliquish covering instance: 2^-(n+5) at the band-n member of the
    banded copy, 1/8 everywhere else.  Positive, but any ball multiset centred
    on the copy (plus 0) has total length below 1."""

    kind = "cover-psi"
    banded = True

    def __init__(self, a_set: CountableSet):
        tags = {CLIQUISH}
        if a_set.size is not None:
            tags |= {BV, REGULATED, BAIRE1, LSCO}
        super().__init__(a_set, tags)

    @staticmethod
    def spike_value(n):
        return Fraction(1, 1 << (n + 5))

    BASE = Fraction(1, 8)

    def _eval(self, x):
        n = self.a_set._index_of(x)
        return Q2.of(self.BASE) if n is None else Q2.of(self.spike_value(n))

    def _hull(self):
        size = self.a_set.size
        if size is None:
            return Q2.of(0), Q2.of(self.BASE), True, False  # spikes shrink to 0
        return Q2.of(self.spike_value(size - 1)), Q2.of(self.BASE), False, False

    def _range_on(self, iv, k):
        # member n lies in band n, so none past the band of iv's lower end
        # lies in iv; the spike values fall with the index
        base = Bracket.point(self.BASE)
        bottom = band_of(iv.lower, half_open=False)
        if bottom is None and self.a_set.size is None:
            return _ZERO, base  # spike values decrease to 0 near 0
        spikes = self.spikes_in(iv, self.a_set.size if bottom is None else bottom + 1)
        return (Bracket.point(self.spike_value(spikes[-1][0])) if spikes else base), base

    def _one_sided_limit(self, p, side, k):
        if p == 0 and side > 0 and self.a_set.size is None:
            return None  # values oscillate between 1/8 and the vanishing spikes
        return Bracket.point(self.BASE)

    def cluster_bounds(self, x, k):
        p = Q2.of(x)
        if p == 0 and self.a_set.size is None:
            return _ZERO, Bracket.point(self.BASE)
        return super().cluster_bounds(x, k)


class CoverPsiUsco(_SpikeFamily):
    """The usco modification of the covering instance: 2^-(n+5) on the banded
    copy, 2^-(n+6) elsewhere in band n, 2^-6 at 0 (any positive value keeps
    usco there; band boundaries take the larger-value band)."""

    kind = "cover-psi-usco"
    banded = True

    ZERO_VALUE = Fraction(1, 64)

    def __init__(self, a_set: CountableSet):
        super().__init__(a_set, {USCO, CLIQUISH, BV, REGULATED})

    spike_value = staticmethod(CoverPsi.spike_value)

    @staticmethod
    def band_value(n):
        return Fraction(1, 1 << (n + 6))

    def _eval(self, x):
        n = self.a_set._index_of(x)
        if n is not None:
            return Q2.of(self.spike_value(n))
        m = band_of(x, half_open=False)
        if m is None:
            return Q2.of(self.ZERO_VALUE)  # x == 0
        return Q2.of(self.band_value(m))

    def _hull(self):
        return Q2.of(0), Q2.of(self.spike_value(0)), True, False  # band values shrink to 0

    def _range_on(self, iv, k):
        # the bands from upper's down to lower's, at most cap + 1 of them;
        # member n of the banded copy is the only point of it in band n
        first = band_of(iv.upper, half_open=False)
        last = first + max(k + 6, 8)
        bottom = band_of(iv.lower, half_open=False)
        vals = [self.ZERO_VALUE] if bottom is None else []
        size = self.a_set.size
        for n in range(first, last + 1 if bottom is None else min(last, bottom) + 1):
            band_iv = DyadicInterval.of_ints(max(iv.ln << (n + 1), iv.d),
                                         min(iv.un << (n + 1), 2 * iv.d), iv.d << (n + 1))
            member_here = (size is None or n < size) and band_iv.contains(self.a_set.member(n))
            if band_iv.ln < band_iv.un or not member_here:
                vals.append(self.band_value(n))
            if member_here:
                vals.append(self.spike_value(n))
        sup_b = Bracket.point(max(vals))
        if bottom is None:
            inf_b = _ZERO  # band values vanish towards 0
        elif last < bottom:
            inf_b = Bracket(Fraction(0), min(vals))
        else:
            inf_b = Bracket.point(min(vals))
        return inf_b, sup_b

    def _one_sided_limit(self, p, side, k):
        if p == 0:
            return _ZERO
        if p == 1:
            return Bracket.point(self.band_value(0))
        n = band_of(p, half_open=False)
        boundary = (p == Q2.of(Fraction(1, 1 << (n + 1))))
        if boundary and side < 0:
            return Bracket.point(self.band_value(n + 1))
        return Bracket.point(self.band_value(n))

    def jump_candidates(self, limit):
        return [Q2.of(Fraction(1, 1 << (n + 1))) for n in range(limit)]


def osc_selfcheck(f: SymbolicFn, probe_limit: int = 16) -> bool:
    """Whether the symbolic oscillation of a spike function equals the
    function itself pointwise (checked exactly at members and at a rational
    sample; true for the whole penny family)."""
    if not isinstance(f, Penny):  # every truncated or banded variant subclasses it
        raise UnsupportedVariant("oscillation self-identity is a spike-family check")
    probes = [p for _, p in f.a_set.members_upto(probe_limit)]
    probes += [Q2.of(Fraction(i, 16)) for i in range(17)]
    for p in probes:
        b = osc_exact(f, p, 24)
        v = f.eval(p)
        if not (b.exact and v.is_rational and b.lo == v.as_rational()):
            return False
    return True


# ---------------------------------------------------------------------------
# constructors named for what they build
# ---------------------------------------------------------------------------


def build_cover_psi(a_set: CountableSet, usco_variant: bool) -> SymbolicFn:
    return CoverPsiUsco(a_set) if usco_variant else CoverPsi(a_set)
