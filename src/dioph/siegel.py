"""Constructive small integer solutions of underdetermined homogeneous
linear systems, over Z and over Q(alpha) via power-basis expansion.

The solver computes an exact integer kernel basis by unimodular column
reduction, LLL-reduces it once (linalg.lll_reduce_with_transform),
searches the reduced vectors and then small integer combinations of
them in increasing sup-norm until the size bound
max|x_i| < (N*A)^(M/(N-M)) is met (compared exactly as
max|x_i|^(N-M) < (N*A)^M), and falls back to a pigeonhole collision
search for small N.  A returned vector is always re-verified to lie in
the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .enclosure import Enclosure, log_enclosure
from .exceptions import DomainError, InternalError, UnsupportedError
from .linalg import lll_reduce_with_transform
from .numberfield import (
    AlgebraicNumber,
    NumberFieldElement,
    inverse_embedding_bound,
    embedding_matrix,
)

_PIGEONHOLE_CAP = 6


def _integer_entry(c) -> int:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)) or c.denominator != 1:
        raise DomainError(f"matrix entry {c!r} is not an integer")
    return int(c)


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix with rows of equal length.  Entries must be
    ints or integral Fractions; anything else, bools included, raises
    DomainError rather than being truncated."""

    entries: Tuple[Tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(_integer_entry(c) for c in row) for row in entries)
        if not rows or not rows[0]:
            raise DomainError("matrix must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def max_abs(self) -> int:
        return max(abs(c) for row in self.entries for c in row)

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.entries for c in row)

    def apply(self, x: Sequence[int]) -> List[int]:
        return [sum(a * v for a, v in zip(row, x)) for row in self.entries]


def kernel_basis(matrix: IntMatrix) -> List[List[int]]:
    """Basis of the integer kernel lattice {x in Z^N : Ax = 0}.

    Unimodular column reduction: the transformation matrix columns over
    the zeroed-out columns of A form a complete basis of the kernel.
    """
    m, n = matrix.nrows, matrix.ncols
    A = [list(row) for row in matrix.entries]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    active = list(range(n))
    for r in range(m):
        while True:
            nz = [c for c in active if A[r][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(A[r][c]))
            c0 = nz[0]
            for c in nz[1:]:
                q = A[r][c] // A[r][c0]
                if q:
                    for i in range(m):
                        A[i][c] -= q * A[i][c0]
                    for i in range(n):
                        U[i][c] -= q * U[i][c0]
        nz = [c for c in active if A[r][c] != 0]
        if nz:
            active.remove(nz[0])
    return [[U[i][c] for i in range(n)] for c in active]


def _normalize_vector(x: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for v in x:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(x)
    x = [v // g for v in x]
    for v in x:
        if v != 0:
            if v < 0:
                x = [-w for w in x]
            break
    return tuple(x)


def pairwise_reduce(basis, passes=8):
    """Retired size-reduction pass, kept only as a name: bench/tracing.py
    lists siegel.pairwise_reduce as a layer boundary and resolves it
    with vars().  No code path calls it; siegel_solve_Z reduces with
    linalg.lll_reduce_with_transform."""
    raise InternalError("pairwise_reduce is retired; use lll_reduce_with_transform")


def satisfies_size_bound(x: Sequence[int], n: int, m: int, amax: int) -> bool:
    """Exact check of max|x_i| < (N*A)^(M/(N-M)) via integer powers."""
    mx = max(abs(v) for v in x)
    return mx ** (n - m) < (n * amax) ** m


def pigeonhole_solve(matrix: IntMatrix, box: int) -> Optional[Tuple[int, ...]]:
    """Nonzero kernel vector with all |x_i| <= box, by a meet-in-the-middle
    collision search mirroring the pigeonhole existence proof; None if the
    closed box is empty of solutions."""
    n = matrix.ncols
    half = n // 2
    rng = range(-box, box + 1)
    left_cols = list(range(half))
    right_cols = list(range(half, n))
    seen = {}
    for xl in iter_product(*(rng for _ in left_cols)):
        key = tuple(
            sum(row[c] * xl[i] for i, c in enumerate(left_cols))
            for row in matrix.entries
        )
        if key not in seen:
            seen[key] = xl
    for xr in iter_product(*(rng for _ in right_cols)):
        target = tuple(
            -sum(row[c] * xr[i] for i, c in enumerate(right_cols))
            for row in matrix.entries
        )
        xl = seen.get(target)
        if xl is None:
            continue
        x = tuple(xl) + tuple(xr)
        if any(v != 0 for v in x):
            return x
    return None


def siegel_solve_Z(matrix: IntMatrix) -> Tuple[int, ...]:
    """Nonzero integer solution of Ax = 0 within the size bound.

    Requires M < N and A not all zero.  The bound
    max|x_i| < (N*A)^(M/(N-M)) is guaranteed to admit a solution; a miss
    after the kernel search and the pigeonhole fallback raises
    InternalError because it would contradict the existence statement.
    """
    m, n = matrix.nrows, matrix.ncols
    if m >= n:
        raise DomainError(f"need more unknowns than equations, got M={m}, N={n}")
    if matrix.is_zero():
        raise DomainError("coefficient matrix must not be all zero")
    amax = matrix.max_abs()

    raw = [_normalize_vector(b) for b in kernel_basis(matrix)]
    if not raw:
        raise InternalError("underdetermined system with trivial kernel")

    basis = [_normalize_vector(b) for b in lll_reduce_with_transform(raw)[0]]
    basis.sort(key=lambda b: (max(abs(v) for v in b), b))
    k = len(basis)
    # deterministic search tiers: single vectors first, then small
    # combination boxes over the shortest basis vectors; within a
    # tier the lexicographically smallest qualifying vector wins
    singles = [
        b for b in basis if satisfies_size_bound(b, n, m, amax)
    ]
    if singles:
        best = min(singles)
        if any(v != 0 for v in matrix.apply(best)):
            raise InternalError("kernel basis vector left the kernel")
        return best
    tiers = [(1, min(k, 8)), (2, min(k, 6)), (4, min(k, 5)),
             (8, min(k, 4)), (16, min(k, 3)), (64, min(k, 2))]
    for radius, k_eff in tiers:
        qualifying = []
        for combo in iter_product(
            *(range(-radius, radius + 1) for _ in range(k_eff))
        ):
            if all(c == 0 for c in combo):
                continue
            x = [0] * n
            for c, b in zip(combo, basis):
                if c:
                    for i in range(n):
                        x[i] += c * b[i]
            if all(v == 0 for v in x):
                continue
            if satisfies_size_bound(x, n, m, amax):
                qualifying.append(_normalize_vector(x))
        if qualifying:
            best = min(qualifying)
            if any(v != 0 for v in matrix.apply(best)):
                raise InternalError("kernel combination left the kernel")
            return best

    if n <= _PIGEONHOLE_CAP:
        # strict bound: integer solutions satisfy |x_i| <= ceil(bound) - 1
        bound_pow = (n * amax) ** m
        box = 1
        while (box + 1) ** (n - m) < bound_pow:
            box += 1
        x = pigeonhole_solve(matrix, box)
        if x is not None and satisfies_size_bound(x, n, m, amax):
            if any(v != 0 for v in matrix.apply(x)):
                raise InternalError("pigeonhole vector left the kernel")
            return _normalize_vector(x)
    raise InternalError(
        "no kernel vector found within the guaranteed size bound (solver bug)"
    )


# ---------------------------------------------------------------------------
# number field systems


@dataclass(frozen=True)
class NFMatrix:
    """Matrix over Q(alpha), entries sharing one generator."""

    base: AlgebraicNumber
    entries: Tuple[Tuple[NumberFieldElement, ...], ...]

    def __init__(self, base: AlgebraicNumber, entries):
        rows = []
        for row in entries:
            cells = []
            for e in row:
                if not isinstance(e, NumberFieldElement):
                    e = NumberFieldElement.from_rational(base, e)
                if e.base.min_poly != base.min_poly:
                    raise DomainError("matrix entries over different generators")
                cells.append(e)
            rows.append(tuple(cells))
        if not rows or not rows[0]:
            raise DomainError("matrix must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("ragged matrix")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


def expand_nf_system(matrix: NFMatrix) -> IntMatrix:
    """The d*M x N integer system equivalent to Ax = 0 over Q(alpha).

    Each row is scaled by the lcm of its denominators first (the kernel
    is unchanged), making every entry integral in Z[alpha], so the
    power-basis coordinates are honest integers.
    """
    d = matrix.base.degree
    out_rows: List[List[int]] = []
    for row in matrix.entries:
        den = 1
        for e in row:
            for c in e.rep:
                den = lcm(den, c.denominator)
        for k in range(d):
            out_rows.append([int(e.rep[k] * den) for e in row])
    return IntMatrix(out_rows)


@dataclass
class NFSiegelResult:
    """Solution of an NF system with its certified size data."""

    x: Tuple[int, ...]
    height: Fraction  # H(x) = max |x_i| (as an affine integer point)
    log_height: Enclosure
    c1: Enclosure  # operator bound of the inverse embedding matrix
    cK: Enclosure  # log c1
    coeff_log_height: Enclosure  # h(B) of the coefficient vector
    certified_bound: Enclosure  # log bound from the integer-system lemma
    nominal_bound: Enclosure  # dM/(N-dM) * (h(B) + log N + c(K))
    constraints: int  # dM
    unknowns: int  # N


def siegel_solve_NF(matrix: NFMatrix, err: Fraction = Fraction(1, 10 ** 9)) -> NFSiegelResult:
    """Nonzero x in Z^N with Ax = 0 in Q(alpha), with certified height bound.

    Requires N > d*M and a monic generator (power integral basis).  The
    solution is verified exactly by number field arithmetic.
    """
    base = matrix.base
    d = base.degree
    if d > 1 and not base.min_poly.is_monic():
        raise UnsupportedError(
            "non-monic generator: the power basis is not an integral basis"
        )
    m, n = matrix.nrows, matrix.ncols
    if n <= d * m:
        raise DomainError(f"need N > d*M, got N={n}, d*M={d * m}")
    if matrix.is_zero():
        raise DomainError("coefficient matrix must not be all zero")

    expanded = expand_nf_system(matrix)
    x = siegel_solve_Z(expanded)

    for row in matrix.entries:
        acc = NumberFieldElement.from_rational(base, 0)
        for e, v in zip(row, x):
            acc = acc + e * v
        if not acc.is_zero():
            raise InternalError("NF solution fails exact row verification")

    height = Fraction(max(max(abs(v) for v in x), 1))
    log_height = log_enclosure(height, err)
    c1 = inverse_embedding_bound(base)
    cK = Enclosure(
        log_enclosure(c1.lo, err).lo, log_enclosure(c1.hi, err).hi
    )

    hB = _coefficient_log_height(matrix, err)
    ratio = Fraction(d * m, n - d * m)
    log_n = log_enclosure(n, err)
    nominal = (hB + log_n + cK) * ratio

    amax = expanded.max_abs()
    mm = expanded.nrows
    certified = log_enclosure(n * amax, err) * Fraction(mm, n - mm)

    return NFSiegelResult(
        x=x,
        height=height,
        log_height=log_height,
        c1=c1,
        cK=cK,
        coeff_log_height=hB,
        certified_bound=certified,
        nominal_bound=nominal,
        constraints=d * m,
        unknowns=n,
    )


def _coefficient_log_height(matrix: NFMatrix, err: Fraction) -> Enclosure:
    """h(B) of the (integral, after row scaling) coefficient vector.

    For integral entries the finite places contribute nothing and
    h(B) = (1/d) * sum over embeddings of log max(1, max_ij |sigma(a_ij)|),
    each conjugate embedding counted once.
    """
    base = matrix.base
    d = base.degree
    den_scaled: List[List[NumberFieldElement]] = []
    for row in matrix.entries:
        den = 1
        for e in row:
            for c in e.rep:
                den = lcm(den, c.denominator)
        den_scaled.append([e * den for e in row])
    if d == 1:
        best = Fraction(1)
        for row in den_scaled:
            for e in row:
                best = max(best, abs(e.rep[0]))
        return log_enclosure(best, err)
    W = embedding_matrix(base, Fraction(1, 10 ** 15))
    total = Enclosure.exact(0)
    for r in range(d):
        box_pows = W[r]
        max_sq_hi = Fraction(1)
        max_sq_lo = Fraction(1)
        for row in den_scaled:
            for e in row:
                re = Enclosure.exact(0)
                im = Enclosure.exact(0)
                for k, c in enumerate(e.rep):
                    re = re + box_pows[k].re * c
                    im = im + box_pows[k].im * c
                abs2 = re * re + im * im
                max_sq_hi = max(max_sq_hi, abs2.hi)
                max_sq_lo = max(max_sq_lo, max(abs2.lo, Fraction(0)))
        hi = log_enclosure(max_sq_hi, err).hi / 2
        lo = log_enclosure(max_sq_lo, err).lo / 2 if max_sq_lo > 0 else Fraction(0)
        total = total + Enclosure(min(lo, hi), hi)
    return total * Fraction(1, d)
