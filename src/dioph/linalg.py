"""Exact linear algebra: every matrix routine of dioph.

`det`, `rank` and `inverse` share one Gauss-Jordan core over an exact
field: int and Fraction entries are reduced over Q, NumberFieldElement
entries over Q(alpha).  Entries need +, -, *, comparison with 0 and
`Fraction(1) / x`.  Fraction keeps every intermediate in lowest terms
(H. Cohen, A Course in Computational Algebraic Number Theory, ch. 2).

`laplace_det` serves rings without division: the polynomial matrices
of `wronskian`.  `charpoly` is Faddeev-LeVerrier over Q, for the
multiplication matrices of `numberfield`.

Over Z: `kernel_basis` is the one integer kernel, by unimodular column
reduction; `siegel` solves its systems on it and `lattice` keeps the
orthogonal complement of the successive-minima witnesses with it.
`primitive_vector` is the one normal form of an integer vector up to
sign and scale.  `lll_reduce_with_transform` is the one lattice
reduction: integral LLL with delta = 3/4 (Cohen, Alg. 2.6.7;
Lenstra-Lenstra-Lovasz 1982).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

from .exceptions import DomainError

_ONE = Fraction(1)


def _gauss_jordan(rows: List[list], ncols: int) -> Tuple[int, object]:
    """Bring `rows` in place to reduced row echelon form on their first
    `ncols` columns.  Returns (rank, +-product of the pivots), the
    second being the determinant when the matrix is square and of full
    rank."""
    k, d = 0, 1
    for col in range(ncols):
        if k == len(rows):
            break
        p = next((r for r in range(k, len(rows)) if rows[r][col] != 0), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            d = -d
        pivot = rows[k][col]
        d = d * pivot
        inv = _ONE / pivot
        rows[k] = pivot_row = [a * inv for a in rows[k]]
        for r in range(len(rows)):
            c = rows[r][col]
            if r != k and c != 0:
                rows[r] = [a - c * b for a, b in zip(rows[r], pivot_row)]
        k += 1
    return k, d


def det(matrix: Sequence[Sequence]):
    """Exact determinant of a square matrix over a field (1 when empty)."""
    n = len(matrix)
    found, d = _gauss_jordan([list(r) for r in matrix], n)
    return d if found == n else 0


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank of a matrix over a field (0 when it has no rows)."""
    rows = [list(r) for r in matrix]
    return _gauss_jordan(rows, len(rows[0]) if rows else 0)[0]


def inverse(matrix: Sequence[Sequence]) -> List[list]:
    """Exact inverse of a square matrix over a field; DomainError if singular."""
    n = len(matrix)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    if _gauss_jordan(rows, n)[0] < n:
        raise DomainError("singular matrix")
    return [row[n:] for row in rows]


def laplace_det(matrix: Sequence[Sequence]):
    """Determinant of a nonempty square matrix by cofactor expansion
    along columns, for rings without division (entries need +, * and
    unary -).  Each minor, keyed on (row tuple, first column), is
    expanded once, so n x n takes O(n 2^n) products instead of O(n!).
    """
    memo = {}

    def minor(rows: Tuple[int, ...], col: int):
        if len(rows) == 1:
            return matrix[rows[0]][col]
        key = (rows, col)
        if key not in memo:
            total = None
            for pos, r in enumerate(rows):
                term = matrix[r][col] * minor(rows[:pos] + rows[pos + 1 :], col + 1)
                if pos % 2:
                    term = -term
                total = term if total is None else total + term
            memo[key] = total
        return memo[key]

    return minor(tuple(range(len(matrix))), 0)


def charpoly(M: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Characteristic polynomial coefficients, ascending, monic of degree d."""
    d = len(M)
    coeffs = [Fraction(1)]
    N = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        MN = [[sum(M[i][t] * N[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
        ck = -sum(MN[i][i] for i in range(d)) / k
        coeffs.append(ck)
        N = [[MN[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)]
    return coeffs[::-1]


def kernel_basis(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the integer kernel lattice {x in Z^N : Ax = 0} of the
    nonempty integer rows A.

    Unimodular column reduction: the transformation matrix columns over
    the zeroed-out columns of A form a complete basis of the kernel.
    """
    A = [list(row) for row in rows]
    m, n = len(A), len(A[0])
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


def primitive_vector(x: Sequence[int]) -> Tuple[int, ...]:
    """x over its content, with the first nonzero entry positive; the
    zero vector is returned as it stands."""
    g = gcd(*x)
    if g == 0:
        return tuple(x)
    if next(v for v in x if v) < 0:
        g = -g
    return tuple(v // g for v in x)


def lll_reduce_with_transform(basis: Sequence[Sequence[int]]):
    """LLL reduction (delta = 3/4) of linearly independent integer vectors.

    Returns (reduced, H) with reduced[i] = sum_j H[i][j] * basis[j] and H
    unimodular.  Gram-Schmidt is carried incrementally in integers: d[i]
    is the Gram determinant of the first i vectors and lam[k][j] =
    d[j+1] * mu_kj, so no Fraction is created.  A dependent input raises
    DomainError.
    """
    b = [list(v) for v in basis]
    n = len(b)
    H = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt(k):
        # d[k + 1] and lam[k][:k] from b[k] and the rows before it
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise DomainError("LLL needs linearly independent vectors")
            else:
                d[k + 1] = u

    def reduce(k, l):
        # size-reduce b[k] against b[l] so that |mu_kl| <= 1/2
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            H[k] = [x - q * y for x, y in zip(H[k], H[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        H[k], H[k - 1] = H[k - 1], H[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        gram_schmidt(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b, H
