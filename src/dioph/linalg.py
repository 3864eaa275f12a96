"""Exact linear algebra: the one elimination and the one cofactor
expansion in dioph.

`det`, `rank` and `inverse` share one Gauss-Jordan core over an exact
field: int and Fraction entries are reduced over Q, NumberFieldElement
entries over Q(alpha).  Entries need +, -, *, comparison with 0 and
`Fraction(1) / x`.  Fraction keeps every intermediate in lowest terms
(H. Cohen, A Course in Computational Algebraic Number Theory, ch. 2).

`laplace_det` serves rings without division or without a certified
zero test: polynomial matrices and complex interval boxes.
"""

from __future__ import annotations

from fractions import Fraction
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
