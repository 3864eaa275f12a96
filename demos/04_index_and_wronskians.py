"""The weighted vanishing index of multivariate polynomials and the
generalized-Wronskian test for linear independence.
"""

from fractions import Fraction

from dioph import (
    MultiPoly,
    are_linearly_independent,
    generalized_wronskian,
    index_at,
    normalized_derivative,
)

x = MultiPoly.variable(2, 0)
y = MultiPoly.variable(2, 1)

print("== normalized derivatives keep integer coefficients ==")
P = (x - 1) ** 2 * (y - 2) ** 3
D = normalized_derivative(P, (1, 2))
print(f"  d_(1,2) of (x-1)^2 (y-2)^3 has terms {dict(sorted(D.terms.items()))}")

print("\n== the index at a point ==")
point = [Fraction(1), Fraction(2)]
weights = (2, 3)
print("  least weighted degree in P(x + point):", index_at(P, point, weights))
print("  (the extremal value m = 2 for the weight-matched product)")

print("\n== index algebra on products ==")
Q = x * y - 2 * x
print("  Ind(P)  =", index_at(P, point, weights).value)
print("  Ind(Q)  =", index_at(Q, point, weights).value)
print("  Ind(PQ) =", index_at(P * Q, point, weights).value, " (sum, exactly)")

print("\n== generalized Wronskians detect linear independence ==")
t = MultiPoly.variable(1, 0)
fam = [MultiPoly.constant(1, 1), t, t * t]
ok, witness = are_linearly_independent(fam)
print(f"  1, t, t^2 independent: {ok}, witness multi-indices {witness}")
w = generalized_wronskian(fam, witness)
print(f"  the witnessing Wronskian is {w.terms}")

dep = [x + y, 2 * x + 2 * y]
print("  x+y, 2x+2y independent:", are_linearly_independent(dep)[0])

mixed = [x, y, x * y]
ok, witness = are_linearly_independent(mixed)
print(f"  x, y, xy independent: {ok}, witness {witness}")
