#!/usr/bin/env python3
"""Continuity points by the effective Baire category construction: nested
rational balls through small-oscillation (or threshold) dense open sets,
ending in a point with a checkable oscillation certificate."""

from fractions import Fraction as F

from abyss import (FinitePointSet, Indicator, Penny, is_continuous_at,
                   natural_usco_modulus, osc_point, point_of_continuity_qc,
                   point_of_continuity_usco, sqrt2_family, thomae)

A = sqrt2_family()
t = thomae()

print("A certified continuity point of the rational-spike map (osc <= 2^-8):")
x = point_of_continuity_qc(t, 8)
cert = osc_point(t, x, 8, fuel=128)
print("  point %s (~ %.6f)" % (x, float(x)))
print("  certificate: oscillation in [%s, %s]" % (cert.lower, cert.upper))
print("  (a dyadic standing in for a nearby irrational; the contract is the")
print("   certificate, not membership in the true continuity set)")
print()

f = Penny(A)
print("Same machinery through the threshold sets of the spike function,")
print("using its canonical upper-semicontinuity modulus:")
psi = natural_usco_modulus(f)
y = point_of_continuity_usco(f, psi, 8)
print("  point %s, continuous: %s, in the seed set: %s"
      % (y, is_continuous_at(f, y, 64).value.value, f.a_set.index_of(y) is not None))
print()

ind = Indicator(FinitePointSet.of([F(1, 2)]))
z = point_of_continuity_usco(ind, natural_usco_modulus(ind), 6)
print("Indicator of {1/2}: construction steers away from the point:", z)
