#!/usr/bin/env python3
"""Regulated and bounded-variation machinery: one-sided limits, jump
enumeration, running total variation, and the monotone decomposition."""

from fractions import Fraction as F

from abyss import (ClassRefusal, Penny, fn_sum, jordan_nbv, jump_enum,
                   limits_lr, linear, modulus_regulation, rational_grid,
                   sqrt2_family, staircase, total_variation_nbv)
from abyss.exact import DyadicInterval

A = sqrt2_family()

st = staircase([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))])
print("A cadlag staircase: 0, then 1/2 from 1/3, then 1/4 from 2/3.")
lr = limits_lr(st, F(1, 3), 10)
print("  one-sided limits at 1/3: left in %s, right in %s" % (lr.left, lr.right))
print("  jumps:", ", ".join(str(j) for j in jump_enum(st)))
print()

print("Running total variation (exact):")
for x in (F(1, 4), F(1, 2), F(1)):
    iv = total_variation_nbv(st, x, 10)
    print("  V[0,%s] in [%s, %s]" % (x, iv.lower, iv.upper))
print()

f = fn_sum(st, linear(F(1, 4)))
jp = jordan_nbv(f)
print("Jordan decomposition of staircase + slope-1/4 line: f = g - h")
for x in rational_grid(DyadicInterval(0, 1), 2):
    print("  x=%-4s g=%-8s h=%-8s g-h=%s" % (x, jp.g(x), jp.h(x), jp.g(x) - jp.h(x)))
print()

penny = Penny(A)
print("The spike function is bounded-variation but has removable jumps, so")
print("the running-variation route is refused rather than silently wrong:")
try:
    total_variation_nbv(penny, F(1), 8)
except ClassRefusal as e:
    print("  " + str(e)[:96] + "...")
print()

print("It is still regulated: jump enumeration is empty, and the regulation")
print("modulus steers one-sided windows past every visible spike:")
print("  jumps:", jump_enum(penny))
M = modulus_regulation(penny)
print("  M(1/3, 5) =", M(F(1, 3), 5),
      " (window small enough to dodge members of index <= 4)")
