import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from dioph.exceptions import DomainError
from dioph.intpoly import IntPolynomial
from dioph.linalg import (
    det,
    inverse,
    kernel_basis,
    laplace_det,
    lll_reduce_with_transform,
    primitive_vector,
    rank,
)
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


def gram_schmidt(b):
    """mu and squared norms of the Gram-Schmidt basis, in exact Fractions."""
    star, norms = [], []
    mu = [[Fraction(0)] * len(b) for _ in b]
    for i, v in enumerate(b):
        w = [Fraction(x) for x in v]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(v, star[j])) / norms[j]
            w = [x - mu[i][j] * y for x, y in zip(w, star[j])]
        star.append(w)
        norms.append(sum(x * x for x in w))
    return mu, norms


def rand_basis(rng):
    """Independent integer vectors, n of them in dimension n..n+2; half are
    skewed (one large entry per vector) so that reduction has to swap."""
    n = rng.randint(2, 8)
    dim = n + rng.randint(0, 2)
    while True:
        b = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(n)]
        if rng.random() < 0.5:
            for v in b:
                v[rng.randrange(dim)] += rng.randint(-10 ** 4, 10 ** 4)
        if rank(b) == n:
            return b


def test_lll_is_reduced_and_unimodular():
    rng = random.Random(7)
    nontrivial = 0
    for _ in range(300):
        b = rand_basis(rng)
        reduced, H = lll_reduce_with_transform(b)
        n = len(b)
        assert reduced == [[sum(H[i][j] * b[j][c] for j in range(n)) for c in range(len(b[0]))]
                           for i in range(n)]
        assert abs(det(H)) == 1
        mu, norms = gram_schmidt(reduced)
        for k in range(1, n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
        nontrivial += H != [[int(i == j) for j in range(n)] for i in range(n)]
    assert nontrivial > 150


def test_lll_rejects_dependent_vectors():
    with pytest.raises(DomainError):
        lll_reduce_with_transform([[1, 2, 3], [0, 0, 0]])
    with pytest.raises(DomainError):
        lll_reduce_with_transform([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    with pytest.raises(DomainError):
        lll_reduce_with_transform([[1, 0], [0, 1], [1, 1]])


@st.composite
def integer_rows(draw):
    """1-5 integer rows of 1-6 entries in [-9, 9]; a row may be zero or an
    integer combination of the rows before it."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    return rows


@given(integer_rows())
def test_kernel_basis_is_a_saturated_kernel_basis(rows):
    n = len(rows[0])
    basis = kernel_basis(rows)
    for b in basis:
        assert any(b)
        assert all(sum(a * x for a, x in zip(row, b)) == 0 for row in rows)
    k = len(basis)
    assert k == n - rank(rows)
    # saturated: the lattice is all of ker(A) in Z^n exactly when the gcd
    # of the k x k minors is 1 (k = 0 is the zero lattice, trivially)
    if k:
        minors = [det([[b[i] for b in basis] for i in idx]) for idx in combinations(range(n), k)]
        assert gcd(*(int(d) for d in minors)) == 1


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6))
def test_primitive_vector_is_the_normal_form_up_to_sign_and_scale(x):
    p = primitive_vector(x)
    if not any(x):
        assert p == tuple(x)
        return
    assert gcd(*p) == 1
    assert next(v for v in p if v) > 0
    assert primitive_vector(p) == p
    assert primitive_vector([-v for v in x]) == p
    # a rational multiple of x: p_i x_j = p_j x_i
    assert all(a * y == b * v for a, v in zip(p, x) for b, y in zip(p, x))
