#!/usr/bin/env python3
"""Pointwise oscillation, continuity decisions, and the self-oscillation
identity of the spike function."""

from fractions import Fraction as F

from abyss import (Penny, is_continuous_at, osc_point, osc_selfcheck,
                   sqrt2_family, thomae)

A = sqrt2_family()
t = thomae()
f = Penny(A)

print("Oscillation of the rational-spike map (width 2^-8 brackets):")
for x, label in ((F(1, 2), "1/2"), (F(2, 3), "2/3"), (A.member(0), "sqrt2/2")):
    iv = osc_point(t, x, 8)
    print("  osc at %-8s in [%s, %s]" % (label, iv.lower, iv.upper))
print("  (1/q at p/q, 0 at irrationals: removable spikes everywhere)")
print()

print("The spike function equals its own oscillation:")
for n in range(4):
    x = A.member(n)
    iv = osc_point(f, x, 10)
    print("  member %d: f = %-6s osc in [%s, %s]" % (n, f.eval(x), iv.lower, iv.upper))
print("  identity verified on members and rationals:", osc_selfcheck(f))
print()

print("Continuity decisions (exact on the universe):")
for x, label in ((A.member(0), "sqrt2/2"), (F(1, 3), "1/3"), (F(2, 3), "2/3 (spike map)")):
    fn = t if "spike map" in label else f
    ans = is_continuous_at(fn, x, 64)
    print("  continuous at %-18s %s" % (label + ":", ans.value.value))
