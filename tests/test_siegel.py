import random
from fractions import Fraction

import pytest

from dioph.exceptions import DomainError, UnsupportedError
from dioph.intpoly import IntPolynomial
from dioph.numberfield import AlgebraicNumber, NumberFieldElement
from dioph.siegel import (
    IntMatrix,
    NFMatrix,
    expand_nf_system,
    kernel_basis,
    pigeonhole_solve,
    satisfies_size_bound,
    siegel_solve_NF,
    siegel_solve_Z,
)

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))


def rand_system(rng):
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, 8)
    while True:
        entries = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        if any(c != 0 for row in entries for c in row):
            return IntMatrix(entries)


def test_examples():
    x = siegel_solve_Z(IntMatrix([[1, 2]]))
    assert list(x) != [0, 0]
    assert max(abs(v) for v in x) < 4
    x2 = siegel_solve_Z(IntMatrix([[1, 1, 1]]))
    assert sum(x2) == 0 and max(abs(v) for v in x2) == 1
    x3 = siegel_solve_Z(IntMatrix([[0, 0, 1], [0, 0, 2]]))
    assert x3[2] == 0 and any(v != 0 for v in x3)


def test_preconditions():
    with pytest.raises(DomainError):
        siegel_solve_Z(IntMatrix([[1, 0], [0, 1]]))  # M == N
    with pytest.raises(DomainError):
        siegel_solve_Z(IntMatrix([[0, 0, 0]]))


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5, True])
def test_int_matrix_rejects_non_integers(entry):
    # Fraction(3, 2) was truncated to 1, giving a "solution" (1, -1, 1)
    # outside the kernel of the given row
    with pytest.raises(DomainError):
        IntMatrix([[entry, 2, 1]])


def test_int_matrix_accepts_integral_fractions():
    assert IntMatrix([[Fraction(4, 2), 2, 1]]).entries == ((2, 2, 1),)


def test_kernel_basis_is_complete_and_unimodular():
    rng = random.Random(81)
    for _ in range(100):
        matrix = rand_system(rng)
        basis = kernel_basis(matrix)
        m, n = matrix.nrows, matrix.ncols
        for b in basis:
            assert all(v == 0 for v in matrix.apply(b))
        # dimension: N - rank >= N - M
        assert len(basis) >= n - m


def test_random_systems_bound_and_oracle():
    rng = random.Random(82)
    for _ in range(200):
        matrix = rand_system(rng)
        m, n = matrix.nrows, matrix.ncols
        x = siegel_solve_Z(matrix)
        assert any(v != 0 for v in x)
        assert all(v == 0 for v in matrix.apply(x))
        assert satisfies_size_bound(x, n, m, matrix.max_abs())


def test_pigeonhole_oracle_small():
    rng = random.Random(83)
    done = 0
    while done < 40:
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 5)
        entries = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if all(c == 0 for row in entries for c in row):
            continue
        matrix = IntMatrix(entries)
        amax = matrix.max_abs()
        bound_pow = (n * amax) ** m
        box = 1
        while (box + 1) ** (n - m) < bound_pow:
            box += 1
        x = pigeonhole_solve(matrix, box)
        assert x is not None  # the lemma guarantees the box is nonempty
        assert all(v == 0 for v in matrix.apply(x))
        done += 1


def test_row_scaling_keeps_kernel_membership():
    rng = random.Random(84)
    for _ in range(60):
        matrix = rand_system(rng)
        scale = rng.choice([-3, -2, 2, 5])
        row = rng.randrange(matrix.nrows)
        scaled = IntMatrix(
            [
                [scale * c for c in r] if i == row else list(r)
                for i, r in enumerate(matrix.entries)
            ]
        )
        x = siegel_solve_Z(scaled)
        assert all(v == 0 for v in matrix.apply(x))


def test_nf_solve_examples():
    a = NumberFieldElement.generator(SQRT2)
    res = siegel_solve_NF(NFMatrix(SQRT2, [[1 + a, 1, 0, 0, 0]]))
    assert any(v != 0 for v in res.x)
    assert res.constraints == 2 and res.unknowns == 5
    assert res.log_height.hi <= res.certified_bound.hi

    res2 = siegel_solve_NF(NFMatrix(SQRT2, [[a, -1 * a, 0]]))
    assert any(v != 0 for v in res2.x)

    one = AlgebraicNumber.from_rational(1)
    nf = NFMatrix(one, [[2, 3, 1]])
    res3 = siegel_solve_NF(nf)
    assert res3.x == siegel_solve_Z(IntMatrix([[2, 3, 1]]))


def test_nf_solution_verified_exactly():
    rng = random.Random(85)
    gen = NumberFieldElement.generator(SQRT2)
    for _ in range(40):
        m = rng.randint(1, 2)
        n = rng.randint(2 * m + 1, 7)
        rows = []
        for _ in range(m):
            rows.append(
                [
                    NumberFieldElement(
                        SQRT2, [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
                    )
                    for _ in range(n)
                ]
            )
        if all(e.is_zero() for row in rows for e in row):
            continue
        mat = NFMatrix(SQRT2, rows)
        res = siegel_solve_NF(mat)
        for row in mat.entries:
            acc = NumberFieldElement.from_rational(SQRT2, 0)
            for e, v in zip(row, res.x):
                acc = acc + e * v
            assert acc.is_zero()
        assert res.log_height.hi <= res.certified_bound.hi


def test_nf_preconditions():
    a = NumberFieldElement.generator(SQRT2)
    with pytest.raises(DomainError):
        siegel_solve_NF(NFMatrix(SQRT2, [[a, 1]]))  # N <= d*M
    half = AlgebraicNumber(IntPolynomial([-1, 2]))  # 1/2, non-monic? degree 1 is fine
    nonmonic = AlgebraicNumber(IntPolynomial([-1, 0, 2]), interval=(0, 1))  # sqrt(1/2)
    b = NumberFieldElement.generator(nonmonic)
    with pytest.raises(UnsupportedError):
        siegel_solve_NF(NFMatrix(nonmonic, [[b, 1, 0, 0, 0]]))


def test_nf_solve_degree_three():
    cbrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
    b = NumberFieldElement.generator(cbrt2)
    mat = NFMatrix(cbrt2, [[1 + b + b * b, b, -1, 0, 2]])
    res = siegel_solve_NF(mat)
    acc = NumberFieldElement.from_rational(cbrt2, 0)
    for e, v in zip(mat.entries[0], res.x):
        acc = acc + e * v
    assert acc.is_zero()
    assert res.constraints == 3 and res.unknowns == 5
    assert res.c1.lo > 0
    assert res.log_height.hi <= res.certified_bound.hi


def test_rational_rep_scaling():
    # rational (non-integral) reps are row-scaled to integral before expansion
    a = NumberFieldElement.generator(SQRT2)
    half = NumberFieldElement(SQRT2, [Fraction(1, 2), Fraction(1, 3)])
    mat = NFMatrix(SQRT2, [[half, 1 + a, 0, 0, 0]])
    expanded = expand_nf_system(mat)
    assert all(
        isinstance(c, int) for row in expanded.entries for c in row
    )
    res = siegel_solve_NF(mat)
    acc = NumberFieldElement.from_rational(SQRT2, 0)
    for e, v in zip(mat.entries[0], res.x):
        acc = acc + e * v
    assert acc.is_zero()
