import contextlib
import io
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import cli
from dioph.exceptions import DomainError
from dioph.intpoly import (
    IntPolynomial,
    _q_to_primitive,
    is_irreducible,
    isolate_real_roots,
    squarefree_part,
)
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


def _between(alpha, lo, hi):
    return alpha.compare_rational(lo) == 1 and alpha.compare_rational(hi) == -1


def test_compare_rational():
    assert _between(SQRT2, 1, 2)
    assert _between(PHI, 1, 2)
    assert _between(CBRT2, 1, 2)
    big = AlgebraicNumber(IntPolynomial([-200, 0, 1]), interval=(14, 15))
    assert _between(big, 14, 15)
    assert SQRT2.compare_rational(Fraction(7, 5)) == 1
    assert SQRT2.compare_rational(Fraction(3, 2)) == -1
    half = AlgebraicNumber.from_rational(Fraction(5, 2))
    assert _between(half, 2, 3) and half.compare_rational(Fraction(5, 2)) == 0
    assert _between(AlgebraicNumber.from_rational(Fraction(-5, 2)), -3, -2)


@st.composite
def roots_and_rationals(draw):
    """(alpha, its index among the real roots, rationals inside and outside
    its isolating interval) for a real root of an irreducible polynomial of
    degree 2-6, its interval optionally refined first."""
    degree = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    f = IntPolynomial(coeffs + [draw(st.integers(1, 4))])
    assume(f.constant != 0 and is_irreducible(f))
    roots = [AlgebraicNumber(f, interval=iv) for iv in isolate_real_roots(f)]
    assume(roots)
    k = draw(st.integers(0, len(roots) - 1))
    alpha = roots[k]
    alpha.refine(Fraction(1, 10 ** draw(st.sampled_from([0, 3, 12, 40]))))
    lo, hi = alpha.interval()
    fractions = st.fractions(0, 1, max_denominator=10 ** 6)
    inside = [lo + (hi - lo) * t for t in draw(st.lists(fractions, min_size=1, max_size=6))]
    outside = [lo - draw(fractions) * 3, hi + draw(fractions) * 3, lo, hi]
    return alpha, k, inside + outside


@settings(max_examples=120)
@given(roots_and_rationals())
def test_compare_rational_agrees_with_sympy_and_keeps_the_interval(case):
    alpha, k, rationals = case
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(alpha.min_poly.coeffs)), x)
    interval = alpha.interval()
    for r in rationals:
        # alpha is the k-th real root, so alpha > r iff at most k roots are <= r
        below = poly.count_roots(None, sympy.Rational(r.numerator, r.denominator))
        assert alpha.compare_rational(r) == (1 if below <= k else -1)
        assert alpha.interval() == interval


@settings(max_examples=60)
@given(roots_and_rationals(), st.integers(1, 10 ** 6))
def test_compare_ratio_takes_any_representation_and_refinement(case, scale):
    # the sign of f at lo, fixed when alpha is built, holds after refining
    alpha, _, rationals = case
    verdicts = [alpha.compare_rational(r) for r in rationals]
    alpha.refine((alpha.interval()[1] - alpha.interval()[0]) / 2 ** 40)
    for r, verdict in zip(rationals, verdicts):
        assert alpha.compare_ratio(r.numerator * scale, r.denominator * scale) == verdict


def test_eq_tells_apart_roots_with_overlapping_intervals():
    f = IntPolynomial([-2, 0, 1])
    minus, plus = AlgebraicNumber(f, interval=(-2, 0)), AlgebraicNumber(f, interval=(-1, 2))
    assert minus != plus and plus != minus
    assert plus == AlgebraicNumber(f, interval=(Fraction(1, 2), Fraction(3, 2)))
    assert minus == AlgebraicNumber(f, interval=(Fraction(-3, 2), -1))


def test_shift_and_reciprocal():
    shifted = SQRT2.shift_int(1)  # sqrt2 - 1 in (0, 1)
    assert shifted.sign() == 1
    assert shifted.compare_rational(1) == -1
    rec = shifted.reciprocal()  # 1/(sqrt2 - 1) = sqrt2 + 1 in (2, 3)
    assert _between(rec, 2, 3)
    assert rec.min_poly == IntPolynomial([-1, -2, 1])


def test_real_roots_of():
    f = IntPolynomial([-2, 0, 1])
    roots = [AlgebraicNumber(f, interval=iv) for iv in isolate_real_roots(f)]
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


def test_inverse_embedding_bound_of_2_to_the_1_12():
    a = AlgebraicNumber(IntPolynomial([-2] + [0] * 11 + [1]), conjugate_index=0)
    start = time.perf_counter()
    c1 = inverse_embedding_bound(a)
    assert time.perf_counter() - start < 1
    assert c1.width <= Fraction(1, 10 ** 12)
    # (W^-1)[k][r] = 2^(-k/12) zeta^(-rk) / 12 for zeta = exp(2 pi i / 12)
    assert c1.contains(1)


def _mpmath_inverse_embedding_norm(coeffs):
    """max_k sum_r |(W^-1)[k][r]| for W[r][k] = sigma_r^k, at 60 digits."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        d = len(roots)
        W_inv = mpmath.matrix([[r ** k for k in range(d)] for r in roots]) ** -1
        return max(sum(abs(W_inv[k, r]) for r in range(d)) for k in range(d))


def _random_monic_irreducible(rng, d):
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(d)] + [1]
        if coeffs[0] != 0 and is_irreducible(IntPolynomial(coeffs)):
            return coeffs


def test_inverse_embedding_bound_against_mpmath():
    rng = random.Random(8)
    fields = [_random_monic_irreducible(rng, d) for d in range(2, 13)]
    fields += [[-2] + [0] * (d - 1) + [1] for d in (5, 9, 12)]
    for coeffs in fields:
        a = AlgebraicNumber(IntPolynomial(coeffs), conjugate_index=0)
        c1 = inverse_embedding_bound(a)
        # the width scales with the norm: x^8+5x^7-4x^6+x^5+4x^4+x^3-4x^2-4x-1
        # has norm 88.8 and width 1.7e-12
        assert c1.width <= max(1, c1.hi) / 10 ** 12, coeffs
        with mpmath.workdps(60):
            lo = mpmath.mpf(c1.lo.numerator) / c1.lo.denominator
            hi = mpmath.mpf(c1.hi.numerator) / c1.hi.denominator
            assert lo <= _mpmath_inverse_embedding_norm(coeffs) <= hi, coeffs


@pytest.mark.parametrize("base", [SQRT2, CBRT2, PHI])
def test_scalar_product_matches_field_product(base):
    rng = random.Random(9)
    scalars = [0, 1, -1, 7, -12, Fraction(0), Fraction(-3, 4), Fraction(22, 7)]
    scalars += [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(10)]
    for _ in range(10):
        e = rand_element(rng, base)
        for q in scalars:
            field_q = NumberFieldElement.from_rational(base, q)
            assert e * q == e * field_q
            assert q * e == field_q * e


# ---------------------------------------------------------------------------
# integer coordinates: arithmetic against sympy over QQ

X = sympy.Symbol("x")


@st.composite
def _field_and_vectors(draw):
    """An irreducible primitive f of degree 1-6 with positive leading
    coefficient (monic or not) and three rational vectors of length up to
    2d, so that construction reduces too."""
    d = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(d)] + [lead]
    assume(coeffs[0] != 0 and math.gcd(*coeffs) == 1)
    assume(sympy.Poly(list(reversed(coeffs)), X, domain="QQ").is_irreducible)
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    vectors = [draw(st.lists(q, min_size=0, max_size=2 * d)) for _ in range(3)]
    return coeffs, vectors


def _sympy_residue(rep, f):
    """rep mod f over QQ, as d Fractions (ascending)."""
    poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in rep]))
                      or [0], X, domain="QQ")
    r = sympy.rem(poly, f).all_coeffs()[::-1]
    d = f.degree()
    return tuple(Fraction(int(c.p), int(c.q)) for c in r + [sympy.Integer(0)] * (d - len(r)))


def _in_lowest_terms(e):
    return (len(e.num) == e.base.degree and e.den > 0 and all(isinstance(x, int) for x in e.num)
            and math.gcd(e.den, *e.num) == 1)


@given(_field_and_vectors(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_sympy_rem_over_qq(case, n):
    coeffs, (u, v, w) = case
    base = AlgebraicNumber(IntPolynomial(coeffs), conjugate_index=0)
    f = sympy.Poly(list(reversed(coeffs)), X, domain="QQ")
    a, b = NumberFieldElement(base, u), NumberFieldElement(base, v)
    assert a.rep == _sympy_residue(u, f) and b.rep == _sympy_residue(v, f)
    pu = sympy.Poly(list(reversed(a.rep)) or [0], X, domain="QQ")
    pv = sympy.Poly(list(reversed(b.rep)) or [0], X, domain="QQ")

    def residue(poly):
        return _sympy_residue([Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]], f)

    for got, want in [(a + b, pu + pv), (a - b, pu - pv), (a * b, pu * pv), (a ** n, pu ** n)]:
        assert _in_lowest_terms(got)
        assert got.rep == residue(want)
    for k in w:
        assert (a * k).rep == residue(pu * sympy.Rational(k.numerator, k.denominator))
        assert _in_lowest_terms(a * k)
    if not a.is_zero():
        inv = a.inverse()
        assert _in_lowest_terms(inv)
        assert inv.rep == residue(sympy.invert(pu, f))
        assert (a ** -2).rep == residue(sympy.invert(pu, f) ** 2)


def test_rational_element_hashes_as_its_value():
    # equal objects must hash alike: 3 in Q(sqrt 2) equals the int 3
    three = NumberFieldElement.from_rational(SQRT2, 3)
    half = NumberFieldElement.from_rational(CBRT2, Fraction(1, 2))
    assert three == 3 and hash(three) == hash(3)
    assert {3: "three"}.get(three) == "three"
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {Fraction(1, 2): "half"}.get(half) == "half"
    a = NumberFieldElement.generator(SQRT2)
    assert hash(a * a) == hash(2) and {a * a, 2} == {2}
    assert len({a, a + 0, 1 + a - 1}) == 1


class _FractionCount:
    """Counts Fraction constructions while active."""

    def __enter__(self):
        self.calls, self._new = 0, Fraction.__dict__["__new__"]

        def counting(cls, *args, **kwargs):
            self.calls += 1
            return self._new(cls, *args, **kwargs)

        Fraction.__new__ = counting
        return self

    def __exit__(self, *exc):
        Fraction.__new__ = self._new


def test_integral_construction_and_products_build_no_fraction():
    a, q = NumberFieldElement(CBRT2, [1, -2, 3]), Fraction(3, 4)
    with _FractionCount() as count:
        b = NumberFieldElement(CBRT2, [4, 0, -1, 7, 2])
        c = a * b * 5 * a - b
        d = a * q
    assert count.calls == 0
    assert c.den == 1 and d.den == 4


def test_auxpoly_builds_few_fractions():
    # auxpoly --alpha x^3-2 --m 3 --r 3,3,3: 17,397 Fraction constructions
    # per warm run with Fraction coordinates, about 1,900 on integers
    argv = ["auxpoly", "--alpha", "x^3-2", "--m", "3", "--epsilon", "1/2", "--r", "3,3,3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        with _FractionCount() as count:
            assert cli.main(argv) == 0
    assert count.calls <= 8000
