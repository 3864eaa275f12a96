"""Geometry of numbers over Z^N for convex symmetric bodies cut out by
independent rational linear forms: exact volumes, successive minima by
certified lattice-point enumeration, and the two-sided Minkowski check.
The sup-norm enumerator here also serves siegel's small solutions; the
exact linear algebra (determinants, LLL, the vector normal form) is
linalg's.

For a body {x : |L_i(x)| <= c_i} the gauge t(x) = max_i |L_i(x)|/c_i of
an integer point is an exact rational, so every minimum is an exact
rational with an explicit integer witness; there is no tolerance
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, lcm, prod
from typing import List, Sequence, Tuple

from .exceptions import DomainError, InternalError, UnsupportedError
from .linalg import det, inverse, lll_reduce_with_transform, primitive_vector, rank as _rank_int

DIMENSION_CAP = 5
# the one enumeration limit; 180 seeded 5-dim shear bodies took at most
# 514,617 nodes, and siegel's point list is no longer than the nodes
_ENUM_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class ConvexBody:
    """{x in R^N : |L_i(x)| <= c_i} for invertible rational forms L,
    N at most DIMENSION_CAP (checked before the determinant)."""

    forms: Tuple[Tuple[Fraction, ...], ...]
    bounds: Tuple[Fraction, ...]

    def __init__(self, forms, bounds):
        rows = tuple(tuple(Fraction(c) for c in row) for row in forms)
        cs = tuple(Fraction(c) for c in bounds)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DomainError("forms must be a square matrix")
        if n > DIMENSION_CAP:
            raise UnsupportedError(f"body of dimension {n}; the cap is {DIMENSION_CAP}")
        if len(cs) != n:
            raise DomainError("one bound per form is required")
        if any(c <= 0 for c in cs):
            raise DomainError("bounds must be positive")
        if det(rows) == 0:
            raise DomainError("forms must be linearly independent")
        object.__setattr__(self, "forms", rows)
        object.__setattr__(self, "bounds", cs)

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def gauge(self, x: Sequence[int]) -> Fraction:
        """Smallest t >= 0 with x in t * body (exact rational)."""
        if len(x) != self.dimension:
            raise DomainError("point dimension mismatch")
        best = Fraction(0)
        for row, c in zip(self.forms, self.bounds):
            val = abs(sum(a * xi for a, xi in zip(row, x)))
            best = max(best, val / c)
        return best


def body_volume(body: ConvexBody) -> Fraction:
    """Exact volume 2^N * prod(c_i) / |det L|."""
    return Fraction(2) ** body.dimension * prod(body.bounds) / abs(det(body.forms))


@dataclass
class MinimaResult:
    lambdas: Tuple[Fraction, ...]
    witnesses: Tuple[Tuple[int, ...], ...]


def _reduced_lattice(body: ConvexBody):
    """The gauge as a sup norm on an LLL-reduced integer lattice.

    Folding the bounds into the forms, t(x) = |D L x|_inf with
    D = diag(1/c_i); after clearing denominators the lattice den*D*L*Z^N
    is LLL-reduced so that small-gauge points live in a small coordinate
    box.  Returns (rows, V, den): rows[i] = the reduced basis, x = V^T z.
    """
    n = body.dimension
    den = 1
    scaled = []
    for row, c in zip(body.forms, body.bounds):
        scaled.append([a / c for a in row])
        for a in scaled[-1]:
            den = lcm(den, a.denominator)
    cols = [
        [int(scaled[i][j] * den) for i in range(n)] for j in range(n)
    ]  # column j = image of e_j
    rows, V = lll_reduce_with_transform(cols)
    return rows, V, den


def _enumerate_reduced(
    rows: Sequence[Sequence[int]], cap: int, keep=None
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Every nonzero y = sum z_i rows[i] with |y|_inf <= cap, one of each
    +-pair (the one whose first nonzero z_i is positive), as (z, y) pairs,
    or only those with keep(z, y) true (z and y as lists it reuses).

    The k <= N rows R must be independent.  Then z = (R R^T)^-1 R y, so
    |z_i| is at most cap times the absolute sum of row i of that matrix
    (R^-1 transposed when R is square).  Level i runs z_i only over the
    interval that keeps every coordinate within cap plus what rows
    i+1, ... can still add to it, so each leaf is a vector in the cube.
    """
    k, n = len(rows), len(rows[0])
    gram_inv = inverse([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])
    radius = [
        floor(cap * sum(abs(sum(g * row[j] for g, row in zip(g_row, rows))) for j in range(n)))
        for g_row in gram_inv
    ]
    # slack[i][j]: the most rows i, i+1, ... can add to coordinate j
    slack = [[0] * n for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        slack[i] = [s + abs(a) * radius[i] for s, a in zip(slack[i + 1], rows[i])]
    out = []
    z = [0] * k
    nodes = 0

    def rec(i: int, y: List[int], signed: bool):
        nonlocal nodes
        row, room = rows[i], slack[i + 1]
        lo, hi = (-radius[i] if signed else 0), radius[i]
        for a, c, s in zip(row, y, room):
            if a > 0:
                lo, hi = max(lo, -((cap + s + c) // a)), min(hi, (cap + s - c) // a)
            elif a < 0:
                lo, hi = max(lo, -((cap + s - c) // -a)), min(hi, (cap + s + c) // -a)
        nodes += max(0, hi - lo + 1)
        if nodes > _ENUM_NODE_BUDGET:
            raise UnsupportedError(
                f"lattice enumeration at cap {cap} used {nodes} nodes, "
                f"past its budget of {_ENUM_NODE_BUDGET}"
            )
        for v in range(lo, hi + 1):
            z[i] = v
            y_next = [c + v * a for c, a in zip(y, row)] if v else y
            if i + 1 < k:
                rec(i + 1, y_next, signed or v != 0)
            elif (signed or v) and (keep is None or keep(z, y_next)):
                out.append((tuple(z), tuple(y_next)))
        z[i] = 0

    rec(0, [0] * n, False)
    return out


def successive_minima(body: ConvexBody) -> MinimaResult:
    """Exact successive minima with linearly independent integer witnesses.

    The gauge is den times a sup norm on an LLL-reduced integer lattice.
    The n reduced rows are independent lattice points, so lambda_n is at
    most their largest sup norm over den, and one enumeration at that cap
    holds every candidate.  The witnesses, each the first point in the
    order (den * gauge, x) independent of those before it, are the
    least-weight basis of the points (Edmonds 1971; no two points tie).
    So the enumeration keeps a basis, from the reduced rows on, with a
    dual in z-coordinates (dual[i] . z_j = 0 for i != j): a leaf lighter
    than the heaviest j of its circuit (dual[j] . z != 0) takes that
    place, and the other duals turn orthogonal to it.  One rank of the
    final witnesses certifies them.
    """
    n = body.dimension
    rows, V, den = _reduced_lattice(body)
    columns = list(zip(*V))  # x = V^T z
    weights = [(max(map(abs, row)), tuple(v)) for row, v in zip(rows, V)]  # (den * gauge, x)
    dual = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=weights.__getitem__, reverse=True)  # heaviest first

    def keep(z, y):
        t = max(map(abs, y))
        for j in order:  # the heaviest of the leaf's circuit
            if t > weights[j][0]:
                return False
            c = sum([a * b for a, b in zip(dual[j], z)])
            if c:
                break
        if t == weights[j][0] and sum([a * b for a, b in zip(columns[0], z)]) > weights[j][1][0]:
            return False  # a tie in the gauge, most often settled by x_0
        x = tuple([sum([a * b for a, b in zip(col, z)]) for col in columns])
        if (t, x) >= weights[j]:
            return False
        weights[j] = (t, x)
        for i, d in enumerate(dual):
            ci = sum([a * b for a, b in zip(d, z)])
            if ci and i != j:
                dual[i] = primitive_vector([c * a - ci * b for a, b in zip(d, dual[j])])
        order.sort(key=weights.__getitem__, reverse=True)
        return True

    _enumerate_reduced(rows, weights[order[0]][0], keep)
    weights.sort()
    witnesses = [x for _, x in weights]
    if _rank_int(witnesses) != n:
        raise InternalError("successive minima witnesses are not independent")
    lambdas = tuple(Fraction(t, den) for t, _ in weights)
    for lam, w in zip(lambdas, witnesses):
        if body.gauge(w) != lam:
            raise InternalError("gauge mismatch after basis reduction")
    return MinimaResult(lambdas=lambdas, witnesses=tuple(witnesses))


@dataclass
class MinkowskiReport:
    lambdas: Tuple[Fraction, ...]
    volume: Fraction
    product: Fraction  # lambda_1 ... lambda_N * vol
    upper_ok: bool  # product <= 2^N
    lower_ok: bool  # product >= 2^N / N!


def minkowski_check(body: ConvexBody) -> MinkowskiReport:
    """Exact two-sided Minkowski check 2^N/N! <= prod(lambda)*vol <= 2^N."""
    n = body.dimension
    minima = successive_minima(body)
    vol = body_volume(body)
    product = vol * prod(minima.lambdas)
    upper = Fraction(2) ** n
    lower = upper / factorial(n)
    return MinkowskiReport(
        lambdas=minima.lambdas,
        volume=vol,
        product=product,
        upper_ok=product <= upper,
        lower_ok=product >= lower,
    )
