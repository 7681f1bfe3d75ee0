#!/usr/bin/env python3
"""Tour of the function universe: exact evaluation over Q(sqrt2), the spike
families, and the class tags each family carries.

Everything printed here is exact arithmetic; no floats are involved in any
computation (floats appear only to make the output readable).
"""

from fractions import Fraction as F

from abyss import (Penny, PennyK, Q2, TildePenny, build_cover_psi, sqrt2_family,
                   thomae)

A = sqrt2_family()

print("The canonical countable seed set: a_n = sqrt2 / 2^(n+1)")
for n in range(4):
    p = A.member(n)
    print("  a_%d = %s  (~ %.6f), index recovered exactly: %d"
          % (n, p, float(p), A.index_of(p)))
print("  membership of 1/2 is decidable symbolically:", A.index_of(Q2.of(F(1, 2))))
print()

t = thomae()
print("Spikes at rationals: 1/q at reduced p/q, 0 elsewhere")
for x in (F(1, 2), F(2, 4), F(3, 7), F(0)):
    print("  f(%s) = %s" % (x, t.eval(x)))
print("  f(sqrt2/2) =", t.eval(A.member(0)))
print("  tags:", ", ".join(sorted(t.tags)))
print("  (cliquish and usco, but not quasi-continuous: around any rational,")
print("   every subinterval contains values near 0, never near f(x))")
print()

f = Penny(A)
print("The adversarial spike function: 1/2^(Y(x)+1) on the seed set, else 0")
print("  f(sqrt2/2) =", f.eval(A.member(0)))
print("  f(sqrt2/4) =", f.eval(A.member(1)))
print("  f(1/2)     =", f.eval(F(1, 2)), " <- rational sampling sees only this")
print("  tags:", ", ".join(sorted(f.tags)))
print()

fk = PennyK(A, 1)
print("Truncation at index 1 keeps two spikes:")
print("  f_1(sqrt2/2) =", fk.eval(A.member(0)), "  f_1(sqrt2/8) =", fk.eval(A.member(2)))
print()

til = TildePenny(A)
til_set = til.a_set
print("The banded copy: one point per band [2^-(n+1), 2^-n); nowhere dense.")
print("For this seed set the minimal shift is 0, so the copy is the set itself:")
for n in range(3):
    print("  band %d point: %s, value %s" % (n, til_set.member(n), til.eval(til_set.member(n))))
print()

psi = build_cover_psi(A, False)
psiu = build_cover_psi(A, True)
print("Covering instances built over the banded copy:")
print("  plain:  psi(3/4) = %s, psi(sqrt2/2) = %s"
      % (psi.eval(F(3, 4)), psi.eval(A.member(0))))
print("  usco:   psi0(3/4) = %s, psi0(sqrt2/2) = %s, psi0(3/8) = %s"
      % (psiu.eval(F(3, 4)), psiu.eval(A.member(0)), psiu.eval(F(3, 8))))
print("  plain tags:", ", ".join(sorted(psi.tags)))
print("  usco tags: ", ", ".join(sorted(psiu.tags)))
