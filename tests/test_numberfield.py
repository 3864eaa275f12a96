import random
from fractions import Fraction

import pytest

from dioph.exceptions import DomainError
from dioph.intpoly import IntPolynomial, _q_to_primitive, squarefree_part
from dioph.linalg import det
from dioph.numberfield import (
    AlgebraicNumber,
    NumberFieldElement,
    inverse_embedding_bound,
    power_min_poly,
)

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
CBRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
PHI = AlgebraicNumber(IntPolynomial([-1, -1, 1]), interval=(1, 2))


def rand_element(rng, base):
    d = base.degree
    return NumberFieldElement(
        base, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
    )


def test_construction_rejects_reducible():
    with pytest.raises(DomainError):
        AlgebraicNumber(IntPolynomial([-1, 0, 1]), interval=(0, 2))


def test_construction_validates_interval():
    with pytest.raises(DomainError):
        AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(-2, 2))  # two roots
    with pytest.raises(DomainError):
        AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(5, 6))  # no roots


def test_nf_mul_examples():
    a = NumberFieldElement.generator(SQRT2)
    assert (a * a).rep == (Fraction(2), Fraction(0))
    assert ((1 + a) * (1 - a)).rep == (Fraction(-1), Fraction(0))
    b = NumberFieldElement.generator(CBRT2)
    assert ((b ** 2) * (b ** 2)).rep == (Fraction(0), Fraction(2), Fraction(0))


def test_nf_mul_mismatched_bases():
    a = NumberFieldElement.generator(SQRT2)
    b = NumberFieldElement.generator(CBRT2)
    with pytest.raises(DomainError):
        a * b


def test_ring_axioms_random():
    rng = random.Random(31)
    for base in (SQRT2, CBRT2):
        for _ in range(120):
            x = rand_element(rng, base)
            y = rand_element(rng, base)
            z = rand_element(rng, base)
            assert (x * y).rep == (y * x).rep
            assert ((x * y) * z).rep == (x * (y * z)).rep
            assert (x * (y + z)).rep == (x * y + x * z).rep


def test_inverse_random():
    rng = random.Random(32)
    one = NumberFieldElement.from_rational(CBRT2, 1)
    for _ in range(50):
        x = rand_element(rng, CBRT2)
        if x.is_zero():
            continue
        assert (x * x.inverse()).rep == one.rep


def test_char_and_min_poly():
    a = NumberFieldElement.generator(SQRT2)
    assert (1 + a).char_poly() == IntPolynomial([-1, -2, 1])
    assert (1 + a).min_poly_elem() == IntPolynomial([-1, -2, 1])
    # a rational element has char poly (x - c)^d, min poly x - c
    two = NumberFieldElement.from_rational(SQRT2, 2)
    assert two.char_poly() == IntPolynomial([-2, 1]) * IntPolynomial([-2, 1])
    assert two.min_poly_elem() == IntPolynomial([-2, 1])


def test_power_min_poly():
    assert power_min_poly(SQRT2, 2) == IntPolynomial([-2, 1])
    assert power_min_poly(PHI, 2) == IntPolynomial([1, -3, 1])
    assert power_min_poly(CBRT2, 3) == IntPolynomial([-2, 1])
    assert power_min_poly(CBRT2, 2).degree == 3  # 2^(2/3) is cubic


# ---------------------------------------------------------------------------
# resultant oracle for power_min_poly


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Resultant of two nonzero integer polynomials: det of the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial")
    m, n = f.degree, g.degree
    if m == 0:
        return f.constant ** n
    if n == 0:
        return g.constant ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return int(det(rows))


def _lagrange_interpolate(xs, ys):
    """Coefficients (ascending) of the interpolating polynomial."""
    k = len(xs)
    acc = [Fraction(0)] * k
    for i in range(k):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(k):
            if j == i:
                continue
            # basis *= (x - xs[j])
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xs[j] * basis[t + 1]
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for t, c in enumerate(basis):
            acc[t] += scale * c
    return acc


def resultant_power_min_poly(a: AlgebraicNumber, m: int) -> IntPolynomial:
    """Minimal polynomial of a**m from Res_y(f(y), y^m - t): a degree-deg(f)
    polynomial in t whose roots are the m-th powers of the roots of f,
    interpolated at integer nodes; its squarefree part is the answer."""
    if m == 1:
        return a.min_poly
    f = a.min_poly
    n = f.degree
    if n == 1:
        v = Fraction(-f.constant, f.leading) ** m
        return IntPolynomial([-v.numerator, v.denominator])
    nodes = list(range(n + 1))
    values = [resultant(f, IntPolynomial([-t] + [0] * (m - 1) + [1])) for t in nodes]
    poly = _q_to_primitive(_lagrange_interpolate(nodes, values))
    assert poly.degree == n
    result = squarefree_part(poly)
    return -result if result.leading < 0 else result


def test_power_min_poly_matches_resultant_route():
    rng = random.Random(33)
    cases = 0
    while cases < 60:
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, 1, 2, -3, 5])]
        if coeffs[0] == 0:
            continue
        try:
            a = AlgebraicNumber(IntPolynomial(coeffs), conjugate_index=0)
        except DomainError:  # reducible
            continue
        m = rng.choice([1, 2, 3, 5])
        assert power_min_poly(a, m) == resultant_power_min_poly(a, m), (coeffs, m)
        cases += 1
    with pytest.raises(DomainError):
        power_min_poly(SQRT2, 0)


def test_resultant_values():
    f = IntPolynomial([-2, 0, 1])
    g = IntPolynomial([-1, 1])
    # Res(f, g) = f evaluated at the root of g, times signs/leads
    assert abs(resultant(f, g)) == 1
    assert resultant(f, f) == 0


def test_floor_and_compare():
    assert SQRT2.floor() == 1
    assert PHI.floor() == 1
    assert CBRT2.floor() == 1
    big = AlgebraicNumber(IntPolynomial([-200, 0, 1]), interval=(14, 15))
    assert big.floor() == 14
    assert SQRT2.compare_rational(Fraction(7, 5)) == 1
    assert SQRT2.compare_rational(Fraction(3, 2)) == -1
    assert AlgebraicNumber.from_rational(Fraction(5, 2)).floor() == 2
    assert AlgebraicNumber.from_rational(Fraction(-5, 2)).floor() == -3


def test_shift_and_reciprocal():
    shifted = SQRT2.shift_int(1)  # sqrt2 - 1 in (0, 1)
    assert shifted.sign() == 1
    assert shifted.compare_rational(1) == -1
    rec = shifted.reciprocal()  # 1/(sqrt2 - 1) = sqrt2 + 1 in (2, 3)
    assert rec.floor() == 2
    assert rec.min_poly == IntPolynomial([-1, -2, 1])


def test_real_roots_of():
    roots = AlgebraicNumber.real_roots_of(IntPolynomial([-2, 0, 1]))
    assert len(roots) == 2
    assert roots[0].sign() == -1 and roots[1].sign() == 1
    assert roots[0] != roots[1]
    assert roots[1] == SQRT2


def test_inverse_embedding_bound():
    assert inverse_embedding_bound(AlgebraicNumber.from_rational(3)) .lo == 1
    c1 = inverse_embedding_bound(SQRT2)
    assert c1.contains(1)  # exact operator norm is 1 for x^2 - 2
    c1b = inverse_embedding_bound(CBRT2)
    assert c1b.hi >= 1 and c1b.hi < 10


def test_element_enclosure():
    a = NumberFieldElement.generator(SQRT2)
    enc = (1 + a).real_enclosure(Fraction(1, 10 ** 12))
    assert enc.width <= Fraction(1, 10 ** 12)
    v = enc.mid - 1
    assert (v * v - 2).numerator ** 2 < (Fraction(1, 10 ** 10)).numerator or abs(
        float(v) ** 2 - 2
    ) < 1e-9
