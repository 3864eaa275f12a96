"""Generalized Wronskian determinants and the linear-independence test
for families of multivariate polynomials.

A family phi_1, ..., phi_n is linearly independent over the coefficient
field iff some generalized Wronskian det(d_{mu_i} phi_j) with
|mu_i| <= i-1 is not identically zero.  The boolean answer here is
always cross-checked against the rank of the coefficient matrix; the
Wronskian search supplies the witness multi-indices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional, Sequence, Tuple

from .exceptions import DomainError, InternalError, UnsupportedError
from .linalg import laplace_det, rank
from .multipoly import MultiPoly, normalized_derivative

FAMILY_SIZE_CAP = 6


def multi_indices_up_to(order: int, arity: int) -> List[Tuple[int, ...]]:
    """All multi-indices with |mu| <= order, in graded lexicographic order."""
    out = []
    for total in range(order + 1):
        level = [
            idx
            for idx in iter_product(*(range(total + 1) for _ in range(arity)))
            if sum(idx) == total
        ]
        out.extend(sorted(level))
    return out


def generalized_wronskian(
    phis: Sequence[MultiPoly], mus: Sequence[Sequence[int]]
) -> MultiPoly:
    """det(d_{mu_i} phi_j) for multi-indices mu_i with |mu_i| <= i-1."""
    n = len(phis)
    if n < 1:
        raise DomainError("need at least one polynomial")
    if n > FAMILY_SIZE_CAP:
        raise UnsupportedError(f"family size above cap {FAMILY_SIZE_CAP}")
    arity = phis[0].arity
    if any(p.arity != arity for p in phis):
        raise DomainError("polynomials must share the same variables")
    if len(mus) != n:
        raise DomainError("need one multi-index per polynomial")
    mus = [tuple(int(x) for x in mu) for mu in mus]
    for i, mu in enumerate(mus):
        if len(mu) != arity:
            raise DomainError("multi-index length differs from arity")
        if sum(mu) > i:
            raise DomainError(
                f"|mu_{i + 1}| = {sum(mu)} exceeds {i} (criterion precondition)"
            )
    rows = [[normalized_derivative(p, mu) for p in phis] for mu in mus]
    return laplace_det(rows)


def _coefficient_rank(phis: Sequence[MultiPoly]) -> int:
    """Rank over the coefficient field of the monomial-coefficient matrix."""
    monomials = sorted({e for p in phis for e in p.terms})
    rows = [[p.terms.get(e, Fraction(0)) for e in monomials] for p in phis]
    return rank(rows)


def are_linearly_independent(
    phis: Sequence[MultiPoly],
) -> Tuple[bool, Optional[Tuple[Tuple[int, ...], ...]]]:
    """Linear independence over the coefficient field, with a witness.

    Returns (True, (mu_1, ..., mu_n)) where the witness multi-indices
    give a not-identically-zero generalized Wronskian, or (False, None).
    The Wronskian verdict is cross-checked against the coefficient
    matrix rank; disagreement would falsify the criterion and raises
    InternalError.
    """
    n = len(phis)
    if n < 1:
        raise DomainError("need at least one polynomial")
    if n > FAMILY_SIZE_CAP:
        raise UnsupportedError(f"family size above cap {FAMILY_SIZE_CAP}")
    arity = phis[0].arity
    if any(p.arity != arity for p in phis):
        raise DomainError("polynomials must share the same variables")
    full_rank = _coefficient_rank(phis) == n
    if not full_rank:
        # dependent families have all admissible Wronskians identically
        # zero (the easy direction of the criterion); no search needed
        return False, None
    choices = [multi_indices_up_to(i, arity) for i in range(n)]
    for mus in iter_product(*choices):
        if len(set(mus)) < n:
            continue  # repeated rows, determinant identically zero
        w = generalized_wronskian(phis, mus)
        if not w.is_zero():
            return True, tuple(mus)
    raise InternalError(
        "full-rank family with every admissible generalized Wronskian zero"
    )
