import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from dioph.exceptions import DomainError
from dioph.intpoly import IntPolynomial
from dioph.linalg import det, inverse, laplace_det, rank
from dioph.numberfield import AlgebraicNumber, NumberFieldElement

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))


def rand_q(rng):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def rand_matrix(rng, nrows, ncols, deficiency=0):
    """A random rational matrix; the last `deficiency` rows are rational
    combinations of the others, so its rank is at most nrows - deficiency."""
    rows = [[rand_q(rng) for _ in range(ncols)] for _ in range(nrows - deficiency)]
    for _ in range(deficiency):
        coeffs = [rand_q(rng) for _ in rows]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                         for r in rows])


def from_sympy(value):
    return Fraction(int(value.p), int(value.q))


def square_cases(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 5)
        yield rand_matrix(rng, n, n, deficiency=rng.choice([0, 0, 0, 1, 2]) % n)


def test_det_rank_match_sympy():
    seen_singular = False
    for M in square_cases(1):
        S = to_sympy(M)
        assert det(M) == from_sympy(S.det())
        assert rank(M) == S.rank()
        seen_singular |= det(M) == 0
    assert seen_singular


def test_det_of_integer_matrices_is_exact():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert det(M) == int(sympy.Matrix(M).det())
    assert det([]) == 1


def test_rank_of_rectangular_matrices():
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        M = rand_matrix(rng, nrows, ncols, deficiency=rng.randint(0, nrows - 1))
        assert rank(M) == to_sympy(M).rank()
    assert rank([]) == 0


def test_inverse_matches_sympy_and_rejects_singular():
    singular = 0
    for M in square_cases(4):
        S = to_sympy(M)
        if S.det() == 0:
            singular += 1
            with pytest.raises(DomainError):
                inverse(M)
            continue
        expected = S.inv()
        got = inverse(M)
        n = len(M)
        assert got == [[from_sympy(expected[i, j]) for j in range(n)] for i in range(n)]
    assert singular > 0


def test_rank_over_quadratic_field_matches_sympy():
    rng = random.Random(5)
    K = sympy.QQ.algebraic_field(sympy.sqrt(2))
    deficient = 0
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[(rand_q(rng), rand_q(rng)) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            # an algebraic combination of two rows: (a + b sqrt2) r0 + r1
            a, b = rand_q(rng), rand_q(rng)
            rows[-1] = [
                (a * x0 + 2 * b * y0 + x1, b * x0 + a * y0 + y1)
                for (x0, y0), (x1, y1) in zip(rows[0], rows[1])
            ]
        elems = [[NumberFieldElement(SQRT2, [x, y]) for x, y in r] for r in rows]
        sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                             + sympy.Rational(y.numerator, y.denominator) * sympy.sqrt(2)
                             for x, y in r] for r in rows])
        expected = DomainMatrix.from_Matrix(sym).convert_to(K).rank()
        deficient += expected < min(nrows, ncols)
        assert rank(elems) == expected
    assert deficient > 0


def test_laplace_det_equals_det():
    rng = random.Random(6)
    for n in range(1, 7):
        for _ in range(4):
            M = rand_matrix(rng, n, n, deficiency=rng.choice([0, 0, 1]) % n)
            assert laplace_det(M) == det(M)
