"""Geometry of numbers over Z^N for convex symmetric bodies cut out by
independent rational linear forms: exact volumes, successive minima by
certified lattice-point enumeration, and the two-sided Minkowski check.

For a body {x : |L_i(x)| <= c_i} the gauge t(x) = max_i |L_i(x)|/c_i of
an integer point is an exact rational, so every minimum is an exact
rational with an explicit integer witness; there is no tolerance
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .exceptions import DomainError, InternalError, UnsupportedError
from .linalg import det, inverse, lll_reduce_with_transform, rank as _rank_int

DIMENSION_CAP = 5
_ENUM_NODE_BUDGET = 30_000_000


@dataclass(frozen=True)
class ConvexBody:
    """{x in R^N : |L_i(x)| <= c_i} for invertible rational forms L."""

    forms: Tuple[Tuple[Fraction, ...], ...]
    bounds: Tuple[Fraction, ...]

    def __init__(self, forms, bounds):
        rows = tuple(tuple(Fraction(c) for c in row) for row in forms)
        cs = tuple(Fraction(c) for c in bounds)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DomainError("forms must be a square matrix")
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
    n = body.dimension
    vol = Fraction(2) ** n
    for c in body.bounds:
        vol *= c
    return vol / abs(det(body.forms))


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
    rows: List[List[int]], radius: int, cap_num: int, cap_den: int
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Integer combinations z of the reduced basis with
    |sum z_i rows[i]|_inf * cap_den <= cap_num and |z|_inf <= radius.
    Returns (z, y) pairs with y the lattice vector; half of each +-pair."""
    n = len(rows)
    out = []
    z = [0] * n
    partial = [[0] * n for _ in range(n + 1)]
    slack = [
        [sum(abs(rows[j][i]) for j in range(lvl, n)) * radius for i in range(n)]
        for lvl in range(n + 1)
    ]
    nodes = 0

    def rec(lvl: int):
        nonlocal nodes
        nodes += 1
        if nodes > _ENUM_NODE_BUDGET:
            raise UnsupportedError("lattice enumeration exceeded the node budget")
        if lvl == n:
            if all(v == 0 for v in z):
                return
            for v in z:
                if v != 0:
                    if v < 0:
                        return
                    break
            y = partial[n]
            if max(abs(v) for v in y) * cap_den <= cap_num:
                out.append((tuple(z), tuple(y)))
            return
        for v in range(-radius, radius + 1):
            z[lvl] = v
            ok = True
            row = rows[lvl]
            nxt = partial[lvl + 1]
            prev = partial[lvl]
            for i in range(n):
                nxt[i] = prev[i] + row[i] * v
                if (abs(nxt[i]) - slack[lvl + 1][i]) * cap_den > cap_num:
                    ok = False
                    break
            if ok:
                rec(lvl + 1)
        z[lvl] = 0

    rec(0)
    return out


def successive_minima(body: ConvexBody) -> MinimaResult:
    """Exact successive minima with linearly independent integer witnesses.

    The gauge is turned into a sup norm on an LLL-reduced integer
    lattice; all lattice points with gauge below a cap T live in the
    coordinate box |z|_inf <= |R^-1|_inf * T (R the reduced basis), so
    enumerating that box, sorting by exact gauge, and greedily
    extracting independent witnesses is complete.  T starts at a
    certified lower bound for the first minimum and doubles until N
    independent witnesses fit.
    """
    n = body.dimension
    if n > DIMENSION_CAP:
        raise UnsupportedError(f"dimension above cap {DIMENSION_CAP}")
    rows, V, den = _reduced_lattice(body)
    inv_rows = inverse(rows)
    # operator norm of R^-1 acting on sup norms: max column-abs-sum here
    # since z = y * R^-1 with y a row vector; use the safe max row sum of
    # the transpose
    inv_norm = max(
        sum(abs(inv_rows[i][j]) for i in range(n)) for j in range(n)
    )
    # t(x) = |y|_inf / den; lambda_1 >= min nonzero achievable: any nonzero
    # lattice vector has |y|_inf >= 1 (integer entries, not all zero)
    t_cap = Fraction(1, den)
    for _ in range(80):
        radius = int(inv_norm * t_cap * den) + 1
        cap_num = t_cap.numerator * den
        cap_den = t_cap.denominator
        candidates = _enumerate_reduced(rows, radius, cap_num, cap_den)
        scored: List[Tuple[Fraction, Tuple[int, ...]]] = []
        for z, y in candidates:
            x = tuple(
                sum(V[i][j] * z[i] for i in range(n)) for j in range(n)
            )
            scored.append((Fraction(max(abs(v) for v in y), den), x))
        scored.sort(key=lambda pair: (pair[0], pair[1]))
        lambdas: List[Fraction] = []
        witnesses: List[Tuple[int, ...]] = []
        for t, x in scored:
            if len(witnesses) == n:
                break
            if _rank_int(witnesses + [x]) > len(witnesses):
                witnesses.append(x)
                lambdas.append(t)
        if len(witnesses) == n:
            for lam, w in zip(lambdas, witnesses):
                if body.gauge(w) != lam:
                    raise InternalError("gauge mismatch after basis reduction")
            return MinimaResult(lambdas=tuple(lambdas), witnesses=tuple(witnesses))
        t_cap *= 2
    raise InternalError(
        f"minima enumeration incomplete at gauge cap {t_cap} (radius {radius})"
    )


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
    product = vol
    for lam in minima.lambdas:
        product *= lam
    upper = Fraction(2) ** n
    import math

    lower = upper / math.factorial(n)
    return MinkowskiReport(
        lambdas=minima.lambdas,
        volume=vol,
        product=product,
        upper_ok=product <= upper,
        lower_ok=product >= lower,
    )
