import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dioph.heights as heights
from dioph.exceptions import DomainError, PrecisionError, UnsupportedError
from dioph.heights import (
    Place,
    height_affine_point,
    height_polynomial,
    height_projective,
    height_rational,
    is_root_of_unity,
    local_abs,
    local_abs_product,
    mahler_leq,
    mahler_measure,
    nf_element_height,
    northcott_enumerate,
    support_places,
    sum_log_abs_over_S,
    weil_height_algebraic,
)
from dioph.intpoly import IntPolynomial, cyclotomic, cyclotomic_index, euler_phi, is_irreducible
from dioph.multipoly import MultiPoly, normalized_derivative
from dioph.numberfield import AlgebraicNumber, NumberFieldElement, power_min_poly

from oracles import mahler_leq_by_enclosures, mahler_leq_by_ladders, northcott_by_scan

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
PHI = AlgebraicNumber(IntPolynomial([-1, -1, 1]), interval=(1, 2))


def rand_rational(rng, top=10 ** 6):
    n = rng.randint(-top, top)
    d = rng.randint(1, top)
    if n == 0:
        n = 1
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# exact heights


def test_height_rational_examples():
    assert height_rational(Fraction(3, 2)).exact == 3
    assert height_rational(7).exact == 7
    assert height_rational(Fraction(-22, 7)).exact == 22
    assert height_rational(0).exact == 1


def test_height_projective_examples():
    assert height_projective([1, Fraction(3, 2)]).exact == 3
    assert height_projective([2, 4, 6]).exact == 3
    assert height_projective([0, 5]).exact == 1
    with pytest.raises(DomainError):
        height_projective([0, 0])


def test_height_projective_scaling_invariance():
    rng = random.Random(41)
    for _ in range(200):
        coords = [rand_rational(rng, 100) for _ in range(3)]
        scale = rand_rational(rng, 50)
        h1 = height_projective(coords).exact
        h2 = height_projective([scale * c for c in coords]).exact
        assert h1 == h2


def test_height_polynomial_examples():
    assert height_polynomial(IntPolynomial([-2, 0, 1])).exact == 2
    assert height_polynomial([Fraction(2), Fraction(1, 3)]).exact == 6
    assert height_polynomial(IntPolynomial([6, 13, 6])).exact == 13


# ---------------------------------------------------------------------------
# places and the product formula


def test_local_abs_examples():
    assert local_abs(Fraction(12), Place.finite(2)) == Fraction(1, 4)
    assert local_abs(Fraction(12), Place.finite(3)) == Fraction(1, 3)
    assert local_abs(Fraction(5, 7), Place.finite(7)) == 7
    assert local_abs(Fraction(-5, 7), Place.archimedean()) == Fraction(5, 7)


def test_product_formula_exact():
    rng = random.Random(42)
    for _ in range(1000):
        q = rand_rational(rng)
        assert local_abs_product(q, support_places(q)) == 1


def test_sum_log_abs_examples():
    assert local_abs_product(Fraction(12), [Place.finite(2), Place.finite(3)]) == (
        Fraction(1, 12)
    )
    assert local_abs_product(Fraction(12), [Place.archimedean()]) == 12
    assert local_abs_product(
        Fraction(5, 7), [Place.finite(7), Place.archimedean()]
    ) == 5
    enc = sum_log_abs_over_S(Fraction(12), [Place.finite(2), Place.finite(3)])
    assert enc.hi < 0  # equals -log 12


def test_fundamental_inequality_exact():
    rng = random.Random(43)
    extra = [2, 3, 5, 7, 11, 13]
    for _ in range(400):
        q = rand_rational(rng, 10 ** 4)
        h = height_rational(q).exact
        places = support_places(q)
        k = rng.randint(0, len(places))
        subset = rng.sample(places, k) + [
            Place.finite(p) for p in rng.sample(extra, rng.randint(0, 3))
        ]
        prod = local_abs_product(q, subset)
        assert Fraction(1, h) <= prod <= h


# ---------------------------------------------------------------------------
# Mahler measure and algebraic heights


def test_mahler_examples():
    enc = mahler_measure(IntPolynomial([-1, -1, 1]))
    assert enc.lo ** 2 - enc.lo - 1 <= 0 <= enc.hi ** 2 - enc.hi - 1
    assert mahler_measure(IntPolynomial([-2, 0, 0, 1])).contains(2)
    assert mahler_measure(IntPolynomial([5, -6, 5])).contains(5)


def test_mahler_degree_above_the_cap_is_refused(monkeypatch):
    def no_work(*args):
        raise AssertionError("root moduli computed for a refused degree")

    monkeypatch.setattr(heights, "root_moduli", no_work)
    with pytest.raises(UnsupportedError, match="degree 121; the cap is 120"):
        mahler_measure(IntPolynomial([1, 1] + [0] * 119 + [1]))


def test_mahler_precision_above_the_cost_cap_is_refused(monkeypatch):
    def no_work(*args):
        raise AssertionError("root moduli computed for a refused precision")

    monkeypatch.setattr(heights, "root_moduli", no_work)
    f = IntPolynomial([1, 1] + [0] * 38 + [1])  # x^40 + x + 1
    with pytest.raises(UnsupportedError, match=r"degree 40 at about 996 bits: .* the cap is"):
        mahler_measure(f, Fraction(1, 10 ** 300))
    lehmer = AlgebraicNumber(IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]),
                             conjugate_index=0)
    with pytest.raises(UnsupportedError, match=r"degree 10 at about 6643 bits: .* the cap is"):
        weil_height_algebraic(lehmer, Fraction(1, 10 ** 2000))


def test_mahler_cost_cap_admits_its_anchor_and_degree_12_at_1e_1000():
    heights.check_mahler_cost(120, Fraction(1, 10 ** 40))
    heights.check_mahler_cost(12, Fraction(1, 10 ** 1000))
    with pytest.raises(UnsupportedError):
        heights.check_mahler_cost(120, Fraction(1, 10 ** 41))


def test_mahler_leq_tie_breaks_stay_uncapped():
    # the ladder reaches 1e-320 at degree 12, above the user-facing cap
    # (12^3 * 1063^2 is under it, so the cap never bites there)
    assert 12 ** 3 * 1063 ** 2 <= heights.MAHLER_COST_CAP
    assert mahler_leq(IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]), Fraction(118, 100))


def _wide_moduli(f, w):
    return 0, [(1, 3)] * f.degree


def test_mahler_budget_is_named(monkeypatch):
    monkeypatch.setattr(heights, "root_moduli", _wide_moduli)
    with pytest.raises(
        PrecisionError,
        match=r"used 60 root-modulus widths down to 2\^-\d+; the cap is 60 refinements",
    ):
        mahler_measure(IntPolynomial([-1, -1, 0, 1]))


def test_mahler_leq_budget_is_named(monkeypatch):
    # x^4 - x^3 - x^2 - 2x - 1 (M about 2.066) has one root outside the
    # unit circle and three inside, so neither the Graeffe bounds nor a
    # structural rule decide it, and every enclosure straddles 2
    f = IntPolynomial([-1, -2, -1, -1, 1])
    assert heights.mahler_graeffe_verdict(f, Fraction(2)) is None
    monkeypatch.setattr(heights, "root_moduli", _wide_moduli)
    with pytest.raises(
        PrecisionError, match="used 12 enclosures, the finest of width 1e-320; the cap is that width"
    ):
        mahler_leq(f, Fraction(2))


def _counting(monkeypatch, name):
    calls = []
    route = getattr(heights, name)
    monkeypatch.setattr(heights, name, lambda *args: calls.append(args) or route(*args))
    return calls


def test_one_mahler_enclosure_per_root_height_and_none_per_comparison(monkeypatch):
    enclosures = _counting(monkeypatch, "mahler_enclosure")
    moduli = _counting(monkeypatch, "root_moduli")
    weil_height_algebraic(AlgebraicNumber(IntPolynomial([-1, -100, 0, 1]), conjugate_index=0),
                          Fraction(1, 10 ** 40))
    assert len(enclosures) == 1
    enclosures.clear()
    moduli.clear()
    # x^2 + x - 4 against 4: a tie that the first rung's moduli settle
    assert heights._mahler_leq_exact(IntPolynomial([-4, 1, 1]), Fraction(4))
    assert (len(enclosures), len(moduli)) == (0, 1)


_CYCLOTOMIC = [cyclotomic(k) for k in range(1, 31) if euler_phi(k) <= 6]
# non-cyclotomic factors with roots on the unit circle: two Salem
# polynomials and Lehmer's
_SALEM = [IntPolynomial([1, -1, -1, -1, 1]), IntPolynomial([1, 0, -1, -1, -1, 0, 1]),
          IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])]


def _linear(p, q):
    return IntPolynomial([-p, q]), Fraction(max(abs(p), q))


# factors whose Mahler measure is a known rational: rational linear
# factors (clustered when q is large), cyclotomic factors, x^2 - d and
# quadratics with a complex pair
_exact_factors = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda t: _linear(*t)),
    st.tuples(st.integers(-40, 40), st.integers(30, 40)).map(
        lambda t: (_linear(t[0], t[1])[0] * _linear(t[0] + 1, t[1])[0],
                   _linear(t[0], t[1])[1] * _linear(t[0] + 1, t[1])[1])),
    st.sampled_from(_CYCLOTOMIC).map(lambda f: (f, Fraction(1))),
    st.integers(2, 30).map(lambda d: (IntPolynomial([-d, 0, 1]), Fraction(d))),
    st.tuples(st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6))
    .filter(lambda t: t[1] ** 2 < 4 * t[0] * t[2])
    .map(lambda t: (IntPolynomial([t[2], t[1], t[0]]), Fraction(max(t[0], t[2])))),
)
_other_factors = st.one_of(
    st.sampled_from(_SALEM),
    st.lists(st.integers(-9, 9), min_size=2, max_size=7).map(IntPolynomial)
    .filter(lambda f: f.degree >= 1),
)


def _product(factors):
    f = IntPolynomial([1])
    for g, mult in factors:
        f = f * g ** mult
    return f


@st.composite
def _exact_ties(draw):
    """(f, M(f)) for a product of factors of known measure, repeated ones
    included, that is not a monomial."""
    parts = draw(st.lists(st.tuples(_exact_factors, st.integers(1, 3)), min_size=1, max_size=3))
    f = _product([(g, mult) for (g, _), mult in parts])
    m = math.prod((mg ** mult for (_, mg), mult in parts), start=Fraction(1))
    power = draw(st.integers(0, 2))
    f = f * IntPolynomial([0] * power + [1])
    assume(sum(1 for a in f.coeffs if a) >= 2 and f.degree <= 14)
    return f, m


@st.composite
def _comparisons(draw):
    """(f, c) with f built from exact, Salem and random factors, repeated
    and clustered roots included, and c drawn near M(f) or at random."""
    factors = draw(st.lists(
        st.tuples(st.one_of(_exact_factors.map(lambda t: t[0]), _other_factors),
                  st.integers(1, 2)),
        min_size=1, max_size=3))
    f = _product(factors)
    assume(f.degree >= 1 and f.degree <= 14)
    if draw(st.booleans()):
        m = heights.mahler_enclosure(f, Fraction(1, 10 ** 6)).mid
        num = draw(st.integers(-1000, 1000))
        c = m * (1 + Fraction(num, draw(st.sampled_from([10 ** 3, 10 ** 5, 10 ** 7]))))
    else:
        c = Fraction(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 100)))
    return f, c


@settings(max_examples=200)
@given(_comparisons())
def test_graeffe_verdict_agrees_with_the_enclosure_oracle(case):
    f, c = case
    verdict = heights.mahler_graeffe_verdict(f, c)
    if verdict is not None:
        assert verdict == mahler_leq_by_enclosures(f, c), (f, c)


@settings(max_examples=200)
@given(_exact_ties(), st.integers(1, 4))
def test_graeffe_verdict_leaves_exact_ties_open(tie, scale):
    f, m = tie
    assert heights.mahler_graeffe_verdict(f * IntPolynomial([scale]), m * scale) is None


def test_graeffe_verdict_examples():
    verdict = heights.mahler_graeffe_verdict
    phi12_x3 = cyclotomic(12) * IntPolynomial([-3, 1])
    # exact ties stay open, and mahler_leq settles them structurally
    for f, c in [(IntPolynomial([-2, 0, 1]), 2), (phi12_x3, 3), (IntPolynomial([-4, 1, 1]), 4)]:
        assert verdict(f, Fraction(c)) is None
        assert mahler_leq(f, Fraction(c))
    assert verdict(phi12_x3, Fraction(299, 100)) is False
    assert verdict(IntPolynomial([-1, -1, 0, 1]), Fraction(2)) is True  # sqrt(3) <= 2
    # the first reject is |lc| > c or |f(0)| > c
    assert verdict(IntPolynomial([1, 0, 3]), Fraction(29, 10)) is False
    assert verdict(IntPolynomial([3, 0, 1]), Fraction(29, 10)) is False
    assert verdict(IntPolynomial([0, 1]), Fraction(1)) is True  # a monomial: ||x|| = M
    with pytest.raises(DomainError):
        verdict(IntPolynomial([5]), Fraction(5))


_LADDER_FACTORS = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda t: _linear(*t)[0]),
    st.sampled_from([cyclotomic(k) for k in range(1, 13) if euler_phi(k) <= 4]),
    st.sampled_from(_SALEM[:1]),
    st.lists(st.integers(-9, 9), min_size=3, max_size=5).map(IntPolynomial)
    .filter(lambda f: f.degree >= 2),
)


def _outcome(route, f, c):
    try:
        return route(f, c)
    except PrecisionError:
        return "undecided"


@settings(max_examples=150)
@given(st.lists(st.tuples(_LADDER_FACTORS, st.integers(1, 2)), min_size=1, max_size=3),
       st.sampled_from(["mid", "above", "below", "integer"]))
def test_mahler_leq_exact_agrees_with_the_ladders_oracle(factors, where):
    # repeated, rational and cyclotomic factors; c at M(f), 0.1 % off it,
    # or at the nearest integer, where exact ties live
    f = _product(factors)
    assume(1 <= f.degree <= 8)
    m = heights.mahler_enclosure(f, Fraction(1, 10 ** 6)).mid
    c = {"mid": m, "above": m * Fraction(1001, 1000), "below": m * Fraction(999, 1000),
         "integer": Fraction(max(1, round(m)))}[where]
    assert _outcome(heights._mahler_leq_exact, f, c) == _outcome(mahler_leq_by_ladders, f, c)


@pytest.mark.parametrize("f,c", [
    (cyclotomic(12) * IntPolynomial([-3, 1]), 3),
    (IntPolynomial([-4, 1, 1]), 4),  # both roots outside: M = |a_0|
    (IntPolynomial([-1, 1, 4]), 4),  # both roots inside: M = |lc|
])
def test_mahler_leq_exact_decides_exact_ties(f, c):
    assert heights._mahler_leq_exact(f, Fraction(c)) is True
    assert mahler_leq_by_ladders(f, Fraction(c)) is True
    assert heights._mahler_leq_exact(f, Fraction(c) - Fraction(1, 10 ** 30)) is False


@st.composite
def _irreducible(draw):
    """An irreducible integer polynomial of degree 2-6 with |lc| <= 30."""
    n = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    f = IntPolynomial(coeffs + [draw(st.integers(1, 30))])
    assume(math.gcd(*f.coeffs) == 1 and f.constant != 0 and is_irreducible(f))
    return f


@settings(max_examples=40)
@given(_irreducible(), st.sampled_from([Fraction(2), Fraction(1, 10 ** 3),
                                        Fraction(1, 10 ** 12), Fraction(1, 10 ** 40)]))
def test_heights_meet_the_requested_width(f, precision):
    alpha = AlgebraicNumber(f, conjugate_index=0)
    gen = NumberFieldElement.generator(alpha)
    m = heights.mahler_enclosure(f, Fraction(1, 10 ** 50))
    for h in (weil_height_algebraic(alpha, precision), nf_element_height(gen + 1, precision),
              nf_element_height(gen, precision)):
        enc = h.enclosure
        assert h.exact is None and 1 <= enc.lo and enc.width <= precision
    # H(alpha)^n = M(f)
    enc = weil_height_algebraic(alpha, precision).enclosure
    assert enc.lo ** f.degree <= m.hi and m.lo <= enc.hi ** f.degree


def test_mahler_content_scales():
    enc = mahler_measure(IntPolynomial([-4, 0, 0, 2]))  # 2(x^3 - 2)
    assert enc.contains(4)


def test_weil_height_examples():
    h = weil_height_algebraic(
        AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
    )
    assert h.enclosure.lo ** 3 <= 2 <= h.enclosure.hi ** 3
    h2 = weil_height_algebraic(PHI)
    # H(phi)^2 = phi: check exactly through the quadratic
    lo, hi = h2.enclosure.lo, h2.enclosure.hi
    assert (lo ** 2) ** 2 - lo ** 2 - 1 <= 0 <= (hi ** 2) ** 2 - hi ** 2 - 1
    assert weil_height_algebraic(AlgebraicNumber.from_rational(5)).exact == 5


def test_height_power_identity_rational():
    rng = random.Random(44)
    for _ in range(300):
        q = rand_rational(rng, 100)
        h = height_rational(q).exact
        for m in range(-5, 6):
            if q == 0 and m <= 0:
                continue
            assert height_rational(q ** m).exact == h ** abs(m)


def test_height_power_identity_algebraic():
    prec = Fraction(1, 10 ** 9)
    for alpha in (SQRT2, PHI, AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))):
        h1 = weil_height_algebraic(alpha, prec).enclosure
        for m in (1, 2, 3):
            pm = power_min_poly(alpha, m)
            am = AlgebraicNumber(
                pm, conjugate_index=0
            ) if not _has_real_root(pm) else AlgebraicNumber(pm, interval=_real_iv(pm))
            hm = weil_height_algebraic(am, prec).enclosure
            powered = h1 ** m
            assert hm.lo <= powered.hi and powered.lo <= hm.hi  # overlap


def _has_real_root(poly):
    from dioph.intpoly import isolate_real_roots

    return bool(isolate_real_roots(poly))


def _real_iv(poly):
    from dioph.intpoly import isolate_real_roots

    return isolate_real_roots(poly)[-1]


def test_height_inverse_identity():
    rng = random.Random(45)
    for _ in range(200):
        q = rand_rational(rng, 1000)
        assert height_rational(q).exact == height_rational(1 / q).exact
    # reversed polynomial has the same Mahler measure
    f = IntPolynomial([-1, -1, 1])
    a = mahler_measure(f)
    b = mahler_measure(f.reversed_poly())
    assert a.lo <= b.hi and b.lo <= a.hi


def test_conjugate_invariance():
    a = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
    b = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(-2, -1))
    ha = weil_height_algebraic(a).enclosure
    hb = weil_height_algebraic(b).enclosure
    assert ha.lo == hb.lo and ha.hi == hb.hi  # same minimal polynomial


def test_product_and_sum_height_inequalities():
    rng = random.Random(46)
    for _ in range(1000):
        k = rng.randint(2, 4)
        qs = [rand_rational(rng, 1000) for _ in range(k)]
        hs = [height_rational(q).exact for q in qs]
        prod = Fraction(1)
        total = Fraction(0)
        for q in qs:
            prod *= q
            total += q
        bound = Fraction(1)
        for h in hs:
            bound *= h
        assert height_rational(prod).exact <= bound
        assert height_rational(total).exact <= bound * k


def test_point_sum_height_inequality():
    rng = random.Random(47)
    for _ in range(300):
        m = rng.randint(2, 4)
        pts = [
            [Fraction(rng.randint(-50, 50)) for _ in range(3)] for _ in range(m)
        ]
        total = [sum(p[j] for p in pts) for j in range(3)]
        h_sum = height_affine_point(total).exact
        bound = Fraction(m)
        for p in pts:
            bound *= height_affine_point(p).exact
        assert h_sum <= bound


def _rand_multipoly(rng, arity, deg, coeff=9, terms=5):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(arity))
        out[exps] = Fraction(rng.randint(-coeff, coeff))
    P = MultiPoly(arity, out)
    return P


def test_poly_product_height_inequality():
    rng = random.Random(48)
    for _ in range(300):
        arity = rng.randint(1, 3)
        r = rng.randint(2, 3)
        polys = []
        while len(polys) < r:
            P = _rand_multipoly(rng, arity, 3)
            if not P.is_zero():
                polys.append(P)
        prod = polys[0]
        for P in polys[1:]:
            prod = prod * P
        degs = [max(P.partial_degrees()[h] for P in polys) for h in range(arity)]
        bound = Fraction(2) ** (r * sum(degs))
        for P in polys:
            bound *= height_polynomial(P).exact
        assert height_polynomial(prod).exact <= bound


def test_disjoint_variable_product_height():
    rng = random.Random(49)
    for _ in range(100):
        f1 = _rand_multipoly(rng, 3, 3)
        g1 = _rand_multipoly(rng, 3, 3)
        if f1.is_zero() or g1.is_zero():
            continue
        f = MultiPoly(6, {e + (0, 0, 0): c for e, c in f1.terms.items()})
        g = MultiPoly(6, {(0, 0, 0) + e: c for e, c in g1.terms.items()})
        assert (
            height_polynomial(f * g).exact
            == height_polynomial(f).exact * height_polynomial(g).exact
        )


def test_derivative_height_inequality():
    rng = random.Random(50)
    for _ in range(200):
        arity = rng.randint(1, 3)
        P = _rand_multipoly(rng, arity, 4)
        if P.is_zero():
            continue
        I = tuple(rng.randint(0, 2) for _ in range(arity))
        D = normalized_derivative(P, I)
        if D.is_zero():
            continue
        bound = Fraction(2) ** sum(P.partial_degrees())
        assert height_polynomial(D).exact <= bound * height_polynomial(P).exact


# ---------------------------------------------------------------------------
# Northcott and Kronecker


def test_northcott_degree_one():
    polys = northcott_enumerate(1, Fraction(1))
    assert [list(p.coeffs) for p in polys] == [[-1, 1], [0, 1], [1, 1]]
    polys2 = northcott_enumerate(1, Fraction(2))
    assert len(polys2) == 7
    expected = {(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1), (-1, 2), (1, 2)}
    assert {p.coeffs for p in polys2} == expected


def test_northcott_degree_two_height_one():
    polys = northcott_enumerate(2, Fraction(1))
    quads = [p for p in polys if p.degree == 2]
    assert IntPolynomial([1, 0, 1]) in quads
    assert IntPolynomial([1, 1, 1]) in quads
    assert IntPolynomial([1, -1, 1]) in quads
    # Kronecker: every degree-2 entry, irreducible, is cyclotomic
    for p in quads:
        assert cyclotomic_index(p) is not None


def test_northcott_against_brute_force():
    # a scan of the same box by sympy's irreducibility and the Mahler
    # filter without its Graeffe verdict
    assert northcott_enumerate(2, Fraction(2)) == northcott_by_scan(2, Fraction(2))


@pytest.mark.parametrize("degree,height", [(3, Fraction(5, 4)), (4, Fraction(1))])
def test_northcott_matches_the_oracle_scan(degree, height):
    assert northcott_enumerate(degree, height) == northcott_by_scan(degree, height)


def test_largest_admitted_northcott_box_runs_in_seconds(capsys):
    from dioph import cli

    # 29,316 vectors for X in [sqrt(31/2), 4); at X = 4 the box holds 34,356
    assert 29_316 <= heights.NORTHCOTT_BOX_CAP < 34_356
    with pytest.raises(UnsupportedError, match="holds 34356 coefficient vectors"):
        northcott_enumerate(2, Fraction(4))
    start = time.perf_counter()
    assert cli.main(["northcott", "--degree", "2", "--height", "79/20"]) == 0
    # 3.6-3.8 s end to end on a 2-core machine
    assert time.perf_counter() - start < 15
    assert capsys.readouterr().out.startswith("[")


def test_northcott_boundary_case_included():
    # x^2 + x - 4 has both roots outside the unit circle, M = 4 exactly
    f = IntPolynomial([-4, 1, 1])
    assert mahler_leq(f, Fraction(4))
    assert not mahler_leq(f, Fraction(39999, 10000))
    assert f in northcott_enumerate(2, Fraction(2))


def test_exact_mahler_values():
    below = Fraction(1, 10 ** 6)
    cases = [
        # complex pair on the unit circle: M = max(|lead|, |const|)
        (IntPolynomial([4, -7, 4]), 4),
        (IntPolynomial([2, 1, 2]), 2),
        # cyclotomic times a rational linear factor
        (IntPolynomial([1, 1, 1]) * IntPolynomial([-3, 2]), 3),
    ]
    for f, m in cases:
        assert mahler_leq(f, Fraction(m))
        assert not mahler_leq(f, m - below)
    # golden ratio polynomial: M = 1.6180339887..., irrational
    golden = IntPolynomial([-1, -1, 1])
    assert mahler_leq(golden, Fraction(1618034, 10 ** 6))
    assert not mahler_leq(golden, Fraction(1618033, 10 ** 6))


def test_root_of_unity_examples():
    assert is_root_of_unity(
        AlgebraicNumber(IntPolynomial([1, 1, 1, 1, 1]), conjugate_index=0)
    ) == (True, 5)
    assert is_root_of_unity(PHI) == (False, None)
    assert is_root_of_unity(AlgebraicNumber.from_rational(-1)) == (True, 2)
    assert is_root_of_unity(AlgebraicNumber.from_rational(1)) == (True, 1)


def test_nf_element_height():
    gen = NumberFieldElement.generator(SQRT2)
    h = nf_element_height(gen)
    ref = weil_height_algebraic(SQRT2).enclosure
    assert h.enclosure.lo <= ref.hi and ref.lo <= h.enclosure.hi
    assert nf_element_height(NumberFieldElement.from_rational(SQRT2, Fraction(3, 2))).exact == 3
