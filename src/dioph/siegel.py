"""Constructive small integer solutions of underdetermined homogeneous
linear systems, over Z and over Q(alpha) via power-basis expansion.

The solver takes the exact integer kernel basis of linalg.kernel_basis
(unimodular column reduction), each vector in the normal form of
linalg.primitive_vector, and LLL-reduces it once
(linalg.lll_reduce_with_transform).  A reduced vector within the size
bound max|x_i| < (N*A)^(M/(N-M)) (compared exactly as
max|x_i|^(N-M) < (N*A)^M) is the answer; else the
kernel lattice is enumerated in the sup norm by the enumerator that
also serves the successive minima (lattice._enumerate_reduced), at
doubling caps up to the box the bound admits.  A returned vector is
always re-verified to lie in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .enclosure import Enclosure, iroot, log_enclosure
from .exceptions import DomainError, InternalError, UnsupportedError
from .lattice import _enumerate_reduced
from .linalg import kernel_basis, lll_reduce_with_transform, primitive_vector
from .numberfield import (
    EMBEDDING_PRECISION,
    AlgebraicNumber,
    NumberFieldElement,
    box_abs2,
    box_mul,
    inverse_embedding_bound,
)
from .roots import ordered_root_boxes


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


def siegel_solve_Z(matrix: IntMatrix) -> Tuple[int, ...]:
    """Nonzero integer solution of Ax = 0 within the size bound.

    Requires M < N and A not all zero.  The integer kernel basis is
    LLL-reduced once; the smallest normalized reduced vector within the
    bound max|x_i| < (N*A)^(M/(N-M)) is the answer.  If none is, the
    kernel lattice is enumerated in the sup norm
    (lattice._enumerate_reduced) at caps 1, 2, 4, ... up to the largest
    box inside the bound, and the smallest normalized vector at the
    first cap that has one is the answer.  Siegel's lemma puts a
    solution in that box, so a miss raises InternalError.
    """
    m, n = matrix.nrows, matrix.ncols
    if m >= n:
        raise DomainError(f"need more unknowns than equations, got M={m}, N={n}")
    if matrix.is_zero():
        raise DomainError("coefficient matrix must not be all zero")
    amax = matrix.max_abs()

    raw = [primitive_vector(b) for b in kernel_basis(matrix.entries)]
    if not raw:
        raise InternalError("underdetermined system with trivial kernel")

    basis = [primitive_vector(b) for b in lll_reduce_with_transform(raw)[0]]
    found = [b for b in basis if satisfies_size_bound(b, n, m, amax)]
    if not found:
        box = iroot((n * amax) ** m - 1, n - m)
        cap = 1
        while True:
            found = [primitive_vector(y) for _, y in _enumerate_reduced(basis, cap)]
            if found or cap == box:
                break
            cap = min(2 * cap, box)
    if not found:
        raise InternalError(
            "no kernel vector found within the guaranteed size bound (solver bug)"
        )
    best = min(found)
    if any(v != 0 for v in matrix.apply(best)):
        raise InternalError("solution left the kernel")
    return best


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


def integer_coordinates(matrix: NFMatrix) -> List[List[Tuple[int, ...]]]:
    """Power-basis coordinates of every entry, as integer tuples.

    Each row is scaled by the lcm of its entries' denominators first (the
    kernel is unchanged), making every entry integral in Z[alpha], so the
    coordinates are honest integers.
    """
    rows = []
    for row in matrix.entries:
        den = lcm(*(e.den for e in row))
        rows.append([tuple(x * (den // e.den) for x in e.num) for e in row])
    return rows


def _stacked(coords: List[List[Tuple[int, ...]]]) -> IntMatrix:
    d = len(coords[0][0])
    return IntMatrix([[t[k] for t in row] for row in coords for k in range(d)])


def expand_nf_system(matrix: NFMatrix) -> IntMatrix:
    """The d*M x N integer system equivalent to Ax = 0 over Q(alpha):
    row k of the block for an equation holds the x^k coordinates of its
    row-scaled entries (integer_coordinates)."""
    return _stacked(integer_coordinates(matrix))


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

    coords = integer_coordinates(matrix)
    expanded = _stacked(coords)
    x = siegel_solve_Z(expanded)

    for row in matrix.entries:
        acc = NumberFieldElement.from_rational(base, 0)
        for e, v in zip(row, x):
            acc = acc + e * v
        if not acc.is_zero():
            raise InternalError("NF solution fails exact row verification")

    height = Fraction(max(max(abs(v) for v in x), 1))
    log_height = log_enclosure(height, err)
    # one set of root boxes serves c1 and h(B); degree 1 needs none
    boxes = ordered_root_boxes(base.min_poly, EMBEDDING_PRECISION) if d > 1 else None
    c1 = inverse_embedding_bound(base, boxes=boxes)
    cK = Enclosure(
        log_enclosure(c1.lo, err).lo, log_enclosure(c1.hi, err).hi
    )

    entries = {t for row in coords for t in row if any(t)}
    hB = _coefficient_log_height(entries, d, err, boxes)
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


def _coefficient_log_height(entries, d: int, err: Fraction, boxes) -> Enclosure:
    """h(B) of the coefficient vector whose distinct nonzero entries have
    the integer power-basis coordinates `entries`.

    For integral entries the finite places contribute nothing and
    h(B) = (1/d) * sum over embeddings of log max(1, max_ij |sigma(a_ij)|),
    each conjugate embedding counted once; `boxes` are the root boxes
    of the generator's minimal polynomial.  |sigma(a)|^2 is bounded on
    the exact root boxes at their one scale.
    """
    if d == 1:
        best = max([abs(rep[0]) for rep in entries] + [1])
        return log_enclosure(best, err)
    s, zs = boxes
    top = (d - 1) * s  # the scale of every sum
    unit = Fraction(1, 1 << (2 * top))
    total = Enclosure.exact(0)
    for z in zs:
        # z^k at scale k*s, lifted to the common scale
        pows = [(1, 1, 0, 0)]
        for _ in range(1, d):
            pows.append(box_mul(pows[-1], z))
        pows = [tuple(v << (top - k * s) for v in p) for k, p in enumerate(pows)]
        max_sq_hi = max_sq_lo = 1 << (2 * top)
        # the max over the distinct entries is the max over all of them
        for rep in entries:
            re_lo = re_hi = im_lo = im_hi = 0
            for (rlo, rhi, ilo, ihi), c in zip(pows, rep):
                if c > 0:
                    re_lo += rlo * c
                    re_hi += rhi * c
                    im_lo += ilo * c
                    im_hi += ihi * c
                elif c < 0:
                    re_lo += rhi * c
                    re_hi += rlo * c
                    im_lo += ihi * c
                    im_hi += ilo * c
            lo, hi = box_abs2((re_lo, re_hi, im_lo, im_hi))
            max_sq_hi = max(max_sq_hi, hi)
            max_sq_lo = max(max_sq_lo, lo)
        hi = log_enclosure(max_sq_hi * unit, err).hi / 2
        lo = log_enclosure(max_sq_lo * unit, err).lo / 2
        total = total + Enclosure(min(lo, hi), hi)
    return total * Fraction(1, d)
