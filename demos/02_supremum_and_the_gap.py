#!/usr/bin/env python3
"""Suprema by interval halving where the collapse is sound - and the measured
gap where it is not.

The positive half: for functions whose 'exists a value above y' collapses to
rational points, value-axis halving pins the supremum to any accuracy.
The negative half: on the spike function, every rational grid returns 0 while
the true supremum is 1/2.  That gap never closes at any depth.
"""

from fractions import Fraction as F

from abyss import (ClassRefusal, Penny, demo_abyss, exhaustive_sup_oracle,
                   naive_rational_sup, sqrt2_family, sup_qc, thomae)

A = sqrt2_family()
t = thomae()

print("Supremum of the rational-spike map on [1/4, 3/4], width 2^-10:")
iv = sup_qc(t, F(1, 4), F(3, 4), 10)
print("  [%s, %s]  (the spike at 1/2 has the smallest denominator)" % (iv.lower, iv.upper))
print()

print("Supremum on [0, 1]: the integer endpoints carry value 1:")
iv = sup_qc(t, F(0), F(1), 10)
print("  [%s, %s]" % (iv.lower, iv.upper))
print()

f = Penny(A)
print("The same request on the spike function is refused, not answered:")
try:
    sup_qc(f, F(0), F(1), 10)
except ClassRefusal as e:
    print("  " + str(e)[:96] + "...")
print()

print("Why refusing is right - the naive baseline vs the exact oracle:")
oracle = exhaustive_sup_oracle()
for depth in (8, 16, 24):
    print("  grid depth %2d: naive sup = %s" % (depth, naive_rational_sup(f, 0, 1, depth)))
print("  exact supremum:", oracle(f, F(0), F(1)))
print()

report = demo_abyss(A)
print("Demo report (as emitted by `abyss demo-abyss`):")
for key, val in sorted(report.to_jsonable().items()):
    print("  %s: %s" % (key, val))
print()
print("The realiser bits are the binary expansion of sqrt2/2: the supremum")
print("functional hands back the location of the top spike, bit by bit.")
