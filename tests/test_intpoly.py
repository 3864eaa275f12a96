import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import intpoly
from dioph.exceptions import DomainError, UnsupportedError
from dioph.intpoly import (
    _FILTER_PRIMES,
    IntPolynomial,
    _squarefree_mod_p,
    content_and_primitive,
    count_real_roots,
    cyclotomic,
    divisors,
    euler_phi,
    factor_integer,
    is_irreducible,
    isolate_real_roots,
    poly_divide_exact,
    poly_gcd,
    pseudo_divmod,
    refine_root_interval,
    squarefree_decomposition,
    squarefree_part,
    sturm_sequence,
)

from oracles import (
    divide_exact_by_fractions,
    gcd_by_fractions,
    refine_root_interval_by_fractions,
    squarefree_decomposition_by_fractions,
    sturm_sequence_by_fractions,
)
from test_numberfield import _FractionCount


def rand_poly(rng, max_deg=6, coeff=9, primitive=False):
    while True:
        f = IntPolynomial([rng.randint(-coeff, coeff) for _ in range(max_deg + 1)])
        if f.is_zero():
            continue
        if primitive:
            _, f = content_and_primitive(f)
        return f


def test_content_examples():
    assert content_and_primitive(IntPolynomial([0, 12, 6])) == (
        6,
        IntPolynomial([0, 2, 1]),
    )
    assert content_and_primitive(IntPolynomial([-2, 0, 1])) == (
        1,
        IntPolynomial([-2, 0, 1]),
    )
    prod = IntPolynomial([3, 2]) * IntPolynomial([2, 3])
    assert prod == IntPolynomial([6, 13, 6])
    assert content_and_primitive(prod)[0] == 1


def test_content_zero_rejected():
    with pytest.raises(DomainError):
        content_and_primitive(IntPolynomial.zero())


def test_gauss_lemma_property():
    # content of a product of primitives is 1
    rng = random.Random(11)
    for _ in range(1000):
        f = rand_poly(rng, rng.randint(1, 6), primitive=True)
        g = rand_poly(rng, rng.randint(1, 6), primitive=True)
        assert content_and_primitive(f * g)[0] == 1


def test_irreducible_examples():
    assert is_irreducible(IntPolynomial([-2, 0, 1]))
    assert not is_irreducible(IntPolynomial([-1, 0, 1]))
    assert is_irreducible(IntPolynomial([1, 1, 1, 1, 1]))
    assert is_irreducible(IntPolynomial([1, 0, 0, 0, 1]))  # x^4 + 1
    assert not is_irreducible(IntPolynomial([-4, 0, 0, 0, 1]))
    assert not is_irreducible(IntPolynomial([0, 1, 1]))  # x(x+1)
    with pytest.raises(UnsupportedError):
        is_irreducible(IntPolynomial([1] * 14))
    with pytest.raises(DomainError):
        is_irreducible(IntPolynomial([5]))


def test_irreducible_products_detected():
    rng = random.Random(12)
    for _ in range(80):
        f = rand_poly(rng, rng.randint(1, 3), coeff=5, primitive=True)
        g = rand_poly(rng, rng.randint(1, 3), coeff=5, primitive=True)
        if f.degree < 1 or g.degree < 1:
            continue
        assert not is_irreducible(f * g)


def test_irreducible_known_families():
    for k in (2, 3, 5, 7, 11):
        assert is_irreducible(IntPolynomial([-2] + [0] * (k - 1) + [1]))  # x^k - 2
    for k in (1, 2, 3, 4, 5, 8, 12, 15, 16, 30):
        assert is_irreducible(cyclotomic(k))


def _sympy_irreducible(prim):
    import sympy

    x = sympy.Symbol("x")
    expr = sum(int(c) * x ** k for k, c in enumerate(prim.coeffs))
    factors = sympy.factor_list(sympy.Poly(expr, x))[1]
    nontrivial = [p for p, e in factors for _ in range(e) if p.degree() >= 1]
    return len(nontrivial) == 1


def _cube_root_two_cf_polynomials(terms):
    """Minimal polynomials of the first complete quotients of 2^(1/3):
    alpha -> 1/(alpha - a) maps f to the reversal of f(x + a).  The partial
    quotients a come from a 300-digit mpmath expansion."""
    import mpmath

    f = IntPolynomial([-2, 0, 0, 1])
    out = []
    with mpmath.workdps(300):
        value = mpmath.cbrt(2)
        for _ in range(terms):
            a = int(mpmath.floor(value))
            f = f.shift_int(a).reversed_poly()
            value = 1 / (value - a)
            out.append(f)
    return out


def test_irreducible_against_sympy_oracle():
    pytest.importorskip("sympy")
    rng = random.Random(15)
    cases = []
    while len(cases) < 250:
        deg = rng.randint(1, 8)
        f = IntPolynomial(
            [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        )
        if f.degree >= 1:
            cases.append(f)
    # linear factors, which only the modular recombination can find
    x, two_x_minus_3 = IntPolynomial([0, 1]), IntPolynomial([-3, 2])
    for g in list(cases[:40]):
        cases += [x * g, two_x_minus_3 * g]
    for _ in range(60):
        a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
        if a and c:
            cases.append(IntPolynomial([b, a]) * IntPolynomial([d, c]))
    # large coefficients: complete quotients of a cubic irrational
    quotients = _cube_root_two_cf_polynomials(40)
    assert max(abs(c) for q in quotients for c in q.coeffs) > 10 ** 20
    cases += quotients
    cases += [q * two_x_minus_3 for q in quotients[::4]]
    cases += [q * IntPolynomial([rng.randint(1, 10 ** 6), 1]) for q in quotients[1::4]]
    for f in cases:
        _, prim = content_and_primitive(f)
        assert is_irreducible(prim) == _sympy_irreducible(prim), prim


@settings(max_examples=150)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=12), st.integers(1, 3))
def test_irreducible_with_zero_constant_term_agrees_with_sympy(coeffs, power):
    f = IntPolynomial([0] * power + coeffs)
    assume(1 <= f.degree <= 12 and any(coeffs))
    _, prim = content_and_primitive(f)
    assert is_irreducible(prim) == _sympy_irreducible(prim), prim


def test_irreducible_cyclotomic_and_palindromic_agree_with_sympy():
    # phi(k) >= sqrt(k/2), so k <= 288 holds every k with phi(k) <= 12
    ks = [k for k in range(1, 289) if euler_phi(k) <= 12]
    assert len(ks) == 26 and max(ks) == 42
    cases = [cyclotomic(k) for k in ks]
    # Phi_k(-x), up to sign
    cases += [IntPolynomial([c * (-1) ** i for i, c in enumerate(cyclotomic(k).coeffs)]) for k in ks]
    # monic palindromes with constant term 1, cyclotomic products among them
    rng = random.Random(23)
    cyclotomics = set(cases)
    palindromes = []
    while len(palindromes) < 150:
        n = rng.randint(2, 12)
        half = [1] + [rng.randint(-3, 3) for _ in range(n // 2)]
        mirror = half[::-1] if n % 2 else half[-2::-1]
        f = IntPolynomial(half + mirror)
        assert f.coeffs == f.coeffs[::-1] and f.degree == n
        if f not in cyclotomics:
            palindromes.append(f)
    cases += palindromes
    cases += [cyclotomic(3) * cyclotomic(4), cyclotomic(5) ** 2, cyclotomic(7) * cyclotomic(9)]
    for f in cases:
        _, prim = content_and_primitive(f)
        assert is_irreducible(prim) == _sympy_irreducible(prim), prim
    assert not all(is_irreducible(f) for f in palindromes)


_quadratic_coeffs = st.one_of(st.integers(-30, 30), st.integers(-10 ** 12, 10 ** 12))


@settings(max_examples=300)
@given(st.one_of(
    st.lists(_quadratic_coeffs, min_size=3, max_size=3).map(IntPolynomial),
    # (a x + b)(c x + d), reducible whenever a c != 0
    st.lists(_quadratic_coeffs, min_size=4, max_size=4).map(
        lambda v: IntPolynomial([v[1], v[0]]) * IntPolynomial([v[3], v[2]])),
), st.sampled_from([1, -1, 2, -6, 35]))
def test_quadratic_irreducibility_agrees_with_sympy_and_the_modular_route(f, content):
    # the content and the sign of the leading coefficient are divided out first
    f = IntPolynomial([content * c for c in f.coeffs])
    assume(f.degree == 2)
    expected = _sympy_irreducible(f)
    assert is_irreducible(f) == expected, f
    _, g = content_and_primitive(f)
    g = -g if g.leading < 0 else g
    if g.constant:
        assert intpoly._irreducible_by_modular_route(g) == expected, f


@pytest.mark.parametrize("f", [cyclotomic(15), cyclotomic(16), cyclotomic(24),
                               IntPolynomial([0, 1]) * cyclotomic(15),
                               IntPolynomial([0, 0, -2, 0, 1]), IntPolynomial([-3, 5, 7])],
                         ids=["phi15", "phi16", "phi24", "x*phi15", "x^2*(x^2-2)", "7x^2+5x-3"])
def test_structural_answers_skip_the_modular_route(monkeypatch, f):
    calls = []
    ddf = intpoly._pmod_ddf
    monkeypatch.setattr(intpoly, "_pmod_ddf", lambda g, p: calls.append(p) or ddf(g, p))
    assert is_irreducible(f) == (f.constant != 0)
    assert calls == []


def test_irreducible_high_degree_products():
    # products of two mid-degree polynomials: reducible without rational
    # roots, the hard case for recombination
    pytest.importorskip("sympy")
    rng = random.Random(16)
    done = 0
    while done < 60:
        d1, d2 = rng.randint(2, 5), rng.randint(2, 5)
        f = IntPolynomial([rng.randint(-5, 5) for _ in range(d1)] + [rng.randint(1, 5)])
        g = IntPolynomial([rng.randint(-5, 5) for _ in range(d2)] + [rng.randint(1, 5)])
        h = f * g
        if h.degree > 12 or h.degree < 4:
            continue
        _, prim = content_and_primitive(h)
        assert is_irreducible(prim) == _sympy_irreducible(prim), prim
        done += 1


def test_recombination_pretest_skips_trial_divisions(monkeypatch):
    # the kronecker workload's inputs (cyclotomic polynomials of degree
    # <= 8 and random monic irreducibles) and sympy-built products without
    # rational roots; a subset product whose leading or constant
    # coefficient does not divide g's is rejected without poly_divide_exact
    import itertools

    X = sympy.Symbol("x")
    rng = random.Random(17)
    irreducible = [cyclotomic(k) for k in range(2, 31) if euler_phi(k) <= 8]
    while len(irreducible) < 45:
        d = rng.choice([2, 3, 4, 5, 6, 8])
        f = IntPolynomial([rng.randint(-3, 3) for _ in range(d)] + [1])
        if f.constant and sympy.Poly(f.coeffs[::-1], X).is_irreducible:
            irreducible.append(f)
    reducible = []
    while len(reducible) < 15:
        u, v = (
            sympy.Poly([rng.randint(1, 4)] + [rng.randint(-6, 6) for _ in range(rng.randint(2, 4))], X)
            for _ in range(2)
        )
        h = sympy.Poly(u * v, X)
        if h.is_sqf and all(f.degree() >= 2 for f, _ in h.factor_list()[1]):
            reducible.append(IntPolynomial([int(c) for c in h.all_coeffs()[::-1]]))

    counts = {"divisions": 0, "subsets": 0}
    divide, combinations = intpoly.poly_divide_exact, itertools.combinations

    def counted_divide(f, g):
        counts["divisions"] += 1
        return divide(f, g)

    def counted_combinations(items, size):
        for subset in combinations(items, size):
            counts["subsets"] += 1
            yield subset

    monkeypatch.setattr(intpoly, "poly_divide_exact", counted_divide)
    monkeypatch.setattr(intpoly, "combinations", counted_combinations)
    assert all(is_irreducible(f) for f in irreducible)
    assert counts["divisions"] * 4 < counts["subsets"]
    for h in reducible:
        _, prim = content_and_primitive(h)
        assert not is_irreducible(prim), h


def test_isolate_real_roots_examples():
    f = IntPolynomial([-2, 0, 1])
    iv = isolate_real_roots(f)
    assert len(iv) == 2
    neg = refine_root_interval(f, iv[0], Fraction(1, 4))
    pos = refine_root_interval(f, iv[1], Fraction(1, 4))
    assert Fraction(-2) <= neg[0] and neg[1] <= Fraction(-1)
    assert Fraction(1) <= pos[0] and pos[1] <= Fraction(2)
    assert count_real_roots(f, Fraction(1), Fraction(2)) == 1
    assert isolate_real_roots(IntPolynomial([1, 0, 1])) == []
    iv2 = isolate_real_roots(IntPolynomial([-1, -1, 1]))
    assert len(iv2) == 2
    # golden ratio in the second interval
    lo, hi = iv2[1]
    assert lo < Fraction(16180339887, 10 ** 10) < hi


def test_isolate_handles_rational_roots_and_multiplicity():
    f = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([2, 1])
    iv = isolate_real_roots(f)
    assert len(iv) == 2  # roots 1 (double) and -2
    f2 = IntPolynomial([0, 1]) * IntPolynomial([-3, 1])
    iv2 = isolate_real_roots(f2)
    assert len(iv2) == 2


def test_refine_root_interval():
    f = IntPolynomial([-2, 0, 1])
    lo, hi = refine_root_interval(f, (Fraction(1), Fraction(2)), Fraction(1, 10 ** 20))
    assert hi - lo <= Fraction(1, 10 ** 20)
    assert lo ** 2 < 2 < hi ** 2


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=7),
    st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(-15, 15))),
    st.integers(0, 300),
    st.integers(1, 9),
)
@settings(max_examples=80)
def test_refine_root_interval_matches_the_fraction_bisection(coeffs, dyadic, k, num):
    f = IntPolynomial(coeffs)
    if dyadic is not None:
        # a root at a dyadic rational, which the bisection's midpoints can hit
        k2, j = dyadic
        f = f * IntPolynomial([-j, 1 << k2])
    assume(f.degree >= 2)
    g = squarefree_part(f)
    assume(2 <= g.degree <= 6)
    width = Fraction(num, 1 << k) if k % 3 else Fraction(num, 3 ** (k // 3) + 1)
    for iv in isolate_real_roots(g):
        assert refine_root_interval(g, iv, width) == refine_root_interval_by_fractions(g, iv, width)


def test_refine_root_interval_dodges_a_rational_root_like_the_fraction_bisection():
    # (4x - 1)(x^2 - 3) on (0, 1): the second midpoint is the root 1/4
    f = IntPolynomial([-1, 4]) * IntPolynomial([-3, 0, 1])
    hits = []
    sign_at_ratio = IntPolynomial.sign_at_ratio

    class Counted(IntPolynomial):
        def sign_at_ratio(self, n, d):
            s = sign_at_ratio(self, n, d)
            hits.append(s == 0)
            return s

    g = Counted(f.coeffs)
    for k in (1, 2, 10, 100, 300):
        width = Fraction(1, 1 << k)
        got = refine_root_interval(g, (Fraction(0), Fraction(1)), width)
        assert got == refine_root_interval_by_fractions(f, (0, 1), width)
        assert got[0] < Fraction(1, 4) < got[1]
    assert any(hits)


def test_sturm_counts_random():
    rng = random.Random(13)
    for _ in range(120):
        f = rand_poly(rng, rng.randint(1, 6))
        if f.degree < 1:
            continue
        roots = isolate_real_roots(f)
        sf = squarefree_part(f)
        total = count_real_roots(
            sf, -Fraction(10 ** 9), Fraction(10 ** 9)
        )
        assert total == len(roots)


def test_squarefree_decomposition_structure():
    rng = random.Random(14)
    for _ in range(40):
        a = rand_poly(rng, 2, coeff=4, primitive=True)
        b = rand_poly(rng, 2, coeff=4, primitive=True)
        if a.degree < 1 or b.degree < 1:
            continue
        if poly_gcd(a, b).degree > 0:
            continue
        f = a * b * b
        rebuilt = IntPolynomial([1])
        for g, mult in squarefree_decomposition(f):
            for _ in range(mult):
                rebuilt = rebuilt * g
        _, prim = content_and_primitive(f)
        if prim.leading < 0:
            prim = -prim
        assert rebuilt == prim


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(IntPolynomial)


def _sympy_sqf(f: IntPolynomial):
    """sympy's squarefree decomposition of f as {multiplicity: g}, each g
    primitive with positive leading coefficient."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ").sqf_list()
    out = {}
    for g, k in factors:
        coeffs = [int(c) for c in reversed(g.all_coeffs())]
        _, prim = content_and_primitive(IntPolynomial(coeffs))
        out[k] = prim if prim.leading > 0 else -prim
    return out


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys, st.integers(-6, 6).filter(bool))
def test_squarefree_structure_matches_sympy(a, b, c, content):
    f = a * b * b * c * c * c * IntPolynomial([content])
    assume(not f.is_zero() and f.degree >= 1)
    expected = _sympy_sqf(f)
    assert dict((k, g) for g, k in squarefree_decomposition(f)) == expected
    assert squarefree_part(f) == math.prod(expected.values(), start=IntPolynomial([1]))


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, st.integers(2, 5), st.integers(-6, 6).filter(bool))
def test_squarefree_structure_with_a_power_of_x_matches_sympy(a, b, k, content):
    # a_0 = a_1 = 0: x^k is split off before Yun's algorithm and merged back
    f = IntPolynomial([0] * k + [content]) * a * b * b
    assume(not f.is_zero())
    expected = _sympy_sqf(f)
    decomposition = squarefree_decomposition(f)
    assert [k for _, k in decomposition] == sorted(expected)
    assert dict((k, g) for g, k in decomposition) == expected


def test_squarefree_decomposition_of_a_power_of_x_times_a_degree_58_factor_is_fast():
    # Yun's gcds over Q took about 1.1 s on this input
    rng = random.Random(54)
    q = [rng.randint(-9, 9) for _ in range(59)]
    q[0], q[-1] = q[0] or 1, q[-1] or 1
    f = IntPolynomial([0, 0] + q)
    start = time.perf_counter()
    decomposition = squarefree_decomposition(f)
    assert time.perf_counter() - start < 0.3
    assert dict((k, g) for g, k in decomposition) == _sympy_sqf(f)


_FILTER_PRODUCT = math.prod(_FILTER_PRIMES)


@pytest.mark.parametrize("f, parts", [
    # squarefree over Q, but x^2 modulo every filter prime
    (IntPolynomial([-_FILTER_PRODUCT, 0, 1]), {1: IntPolynomial([-_FILTER_PRODUCT, 0, 1])}),
    # every filter prime divides the leading coefficient
    (IntPolynomial([-1, 0, _FILTER_PRODUCT]), {1: IntPolynomial([-1, 0, _FILTER_PRODUCT])}),
    (IntPolynomial([1, _FILTER_PRODUCT]) ** 2 * IntPolynomial([-2, 1]),
     {1: IntPolynomial([-2, 1]), 2: IntPolynomial([1, _FILTER_PRODUCT])}),
])
def test_squarefree_structure_without_a_usable_filter_prime(f, parts):
    # no filter prime proves these squarefree, so Yun's route decides
    assert not _squarefree_mod_p(f)
    assert dict((k, g) for g, k in squarefree_decomposition(f)) == parts
    assert squarefree_part(f) == math.prod(parts.values(), start=IntPolynomial([1]))


def test_cyclotomic_values():
    assert cyclotomic(1) == IntPolynomial([-1, 1])
    assert cyclotomic(2) == IntPolynomial([1, 1])
    assert cyclotomic(5) == IntPolynomial([1, 1, 1, 1, 1])
    assert cyclotomic(8) == IntPolynomial([1, 0, 0, 0, 1])
    assert euler_phi(15) == 8 and cyclotomic(15).degree == 8


def test_divide_exact_and_gcd():
    f = IntPolynomial([-2, 0, 1]) * IntPolynomial([5, 3])
    assert poly_divide_exact(f, IntPolynomial([5, 3])) == IntPolynomial([-2, 0, 1])
    assert poly_divide_exact(f, IntPolynomial([1, 1])) is None
    g = poly_gcd(f, IntPolynomial([5, 3]) * IntPolynomial([1, 1]))
    assert g == IntPolynomial([5, 3])


def test_factor_integer_and_divisors():
    assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    big = 10 ** 10 + 19  # prime
    assert factor_integer(big) == {big: 1}
    semiprime = 1000003 * 1000033
    assert factor_integer(semiprime) == {1000003: 1, 1000033: 1}


def test_shift_and_reverse():
    f = IntPolynomial([-2, 0, 1])
    shifted = f.shift_int(1)  # (x+1)^2 - 2 = x^2 + 2x - 1
    assert shifted == IntPolynomial([-1, 2, 1])
    assert f.reversed_poly() == IntPolynomial([1, 0, -2])


# Integer pseudo-division against the Fraction Euclid of tests/oracles.py.
# Leading coefficients of either sign and non-monic divisors are drawn
# throughout; `blind` multiplies in a factor that no filter prime proves
# squarefree, so _squarefree_mod_p is False and Yun's route runs.
int_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(IntPolynomial)
nonzero_polys = int_polys.filter(lambda f: not f.is_zero())
blind = st.sampled_from([
    IntPolynomial([1]),
    IntPolynomial([-_FILTER_PRODUCT, 0, 1]),
    IntPolynomial([1, 0, -_FILTER_PRODUCT]),
    IntPolynomial([1, _FILTER_PRODUCT]),
])


@settings(max_examples=200)
@given(int_polys, nonzero_polys)
def test_pseudo_divmod_is_a_scaled_division_over_q(a, b):
    q, r, s = pseudo_divmod(a.coeffs, b.coeffs)
    assert s > 0 and len(r) < len(b.coeffs) and (not r or r[-1])
    assert IntPolynomial(a.coeffs) * s == IntPolynomial(q) * b + IntPolynomial(r)
    q_oracle = divide_exact_by_fractions(a * b, b)
    assert pseudo_divmod((a * b).coeffs, b.coeffs) == (list(q_oracle.coeffs), [], 1)


@settings(max_examples=200)
@given(int_polys, int_polys, int_polys, blind, st.integers(1, 2))
def test_poly_gcd_matches_the_fraction_euclid(a, b, c, extra, k):
    f, g = a * c ** k * extra, b * c * extra
    assert poly_gcd(f, g) == gcd_by_fractions(f, g)
    assert poly_gcd(g, f) == gcd_by_fractions(g, f)


@settings(max_examples=200)
@given(int_polys, nonzero_polys, st.integers(-3, 3).filter(bool), int_polys, st.booleans())
def test_poly_divide_exact_matches_the_fraction_division(a, b, k, r, exact):
    # k * b divides a * b over Q, and over Z only when k divides a
    g = b * k
    f = a * b + (IntPolynomial.zero() if exact else r)
    assert poly_divide_exact(f, g) == divide_exact_by_fractions(f, g)
    assert poly_divide_exact(f, b) == divide_exact_by_fractions(f, b)


@settings(max_examples=200)
@given(nonzero_polys, nonzero_polys, blind)
def test_sturm_sequence_matches_the_fraction_chain_link_by_link(a, b, extra):
    g = squarefree_part(a * b * extra)
    assert sturm_sequence(g) == sturm_sequence_by_fractions(g)


@settings(max_examples=200)
@given(small_polys, small_polys, small_polys, blind, st.integers(-6, 6).filter(bool))
def test_squarefree_decomposition_matches_the_fraction_yun(a, b, c, extra, content):
    f = a * b * b * c * c * c * extra * IntPolynomial([content])
    assume(not f.is_zero())
    assert squarefree_decomposition(f) == squarefree_decomposition_by_fractions(f)


def test_remainder_routines_build_no_fraction():
    f = IntPolynomial([1, _FILTER_PRODUCT]) ** 2 * IntPolynomial([-2, 0, 3]) * IntPolynomial([5, -1, 0, -7])
    g = IntPolynomial([1, _FILTER_PRODUCT]) * IntPolynomial([4, 0, 3])
    assert not _squarefree_mod_p(f)
    with _FractionCount() as count:
        assert poly_gcd(f, g) == IntPolynomial([1, _FILTER_PRODUCT])
        assert poly_divide_exact(f, g) is None
        assert poly_divide_exact(f, IntPolynomial([-2, 0, 3])) is not None
        assert [k for _, k in squarefree_decomposition(f)] == [1, 2]
        assert len(sturm_sequence(squarefree_part(f))) >= 2
    assert count.calls == 0
