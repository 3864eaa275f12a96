import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph import rothlab
from dioph.enclosure import Enclosure
from dioph.exceptions import DomainError, InfeasibleError, PrecisionError, UnsupportedError
from dioph.heights import HeightValue, height_polynomial, height_rational
from dioph.intpoly import IntPolynomial
from dioph.multipoly import MultiPoly, normalized_derivative
from dioph.numberfield import AlgebraicNumber, NumberFieldElement
from dioph.rothlab import (
    IndexSetSpec,
    build_aux_poly,
    count_index_set,
    derivative_height_bound_check,
    roth_lemma_verify,
    vanishing_tuples,
    verify_aux_poly,
)

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)


def count_index_set_brute(spec: IndexSetSpec) -> int:
    """Direct enumeration of the box; the oracle for the DP count."""
    return sum(
        1
        for tup in product(*(range(r + 1) for r in spec.weights))
        if sum(Fraction(i, r) for i, r in zip(tup, spec.weights)) <= spec.threshold
    )


def test_count_examples():
    count, bound = count_index_set(IndexSetSpec(2, Fraction(1, 2), (2, 2)))
    assert count == 3
    assert count <= bound.hi
    assert bound.hi <= Fraction(873, 100)

    count2, _ = count_index_set(IndexSetSpec(1, Fraction(1, 2), (4,)))
    assert count2 == 2

    count3, _ = count_index_set(IndexSetSpec(1, Fraction(99, 100), (1,)))
    assert count3 == 1


def test_count_against_brute_force():
    rng = random.Random(91)
    for _ in range(100):
        m = rng.randint(1, 4)
        eps = Fraction(rng.randint(1, 9), 10)
        weights = tuple(rng.randint(1, 5) for _ in range(m))
        spec = IndexSetSpec(m, eps, weights)
        count, bound = count_index_set(spec)
        assert count == count_index_set_brute(spec)
        assert count <= bound.hi


@st.composite
def index_set_specs(draw):
    m = draw(st.integers(1, 4))
    eps = draw(st.fractions(0, 1, max_denominator=30).filter(lambda e: 0 < e < 1))
    return IndexSetSpec(m, eps, draw(st.lists(st.integers(1, 7), min_size=m, max_size=m)))


@settings(max_examples=200)
@given(index_set_specs())
def test_count_equals_brute_force_on_drawn_specs(spec):
    count, bound = count_index_set(spec)
    assert count == count_index_set_brute(spec)
    assert count <= bound.hi


def test_count_grid_bound():
    for m in range(1, 13):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for r in range(1, 6):
                spec = IndexSetSpec(m, eps, tuple([r] * m))
                count, bound = count_index_set(spec)
                assert count <= bound.hi


def test_spec_validation():
    with pytest.raises(DomainError):
        IndexSetSpec(2, Fraction(1), (1, 1))
    with pytest.raises(DomainError):
        IndexSetSpec(0, Fraction(1, 2), ())


def test_build_aux_poly_main_example():
    res = build_aux_poly(SQRT2, 2, Fraction(1, 2), (3, 3))
    assert not res.poly.is_zero()
    assert res.constraints == 6 and res.unknowns == 16
    assert res.index_lower.value >= Fraction(1, 2)
    # all three required vanishings, re-checked here explicitly
    gen = NumberFieldElement.generator(SQRT2)
    for I in vanishing_tuples(IndexSetSpec(2, Fraction(1, 2), (3, 3))):
        val = normalized_derivative(res.poly, I).evaluate([gen, gen])
        assert val.is_zero() if hasattr(val, "is_zero") else val == 0
    assert res.siegel is not None
    assert res.height.exact is not None


def test_reference_witness_accepted():
    ref = (X - Y) ** 2
    report = verify_aux_poly(ref, SQRT2, 2, Fraction(1, 2), (3, 3))
    assert report["ok"]
    assert report["index"].value == Fraction(2, 3)


def test_verify_rejects_a_candidate_of_too_low_index():
    # x1 - x2 vanishes at (sqrt2, sqrt2) but its d/dx2 does not: index 1/3
    report = verify_aux_poly(X - Y, SQRT2, 2, Fraction(1, 2), (3, 3))
    assert report["index"].value == Fraction(1, 3) < report["threshold"] == Fraction(1, 2)
    assert report["degree_ok"]
    assert not report["vanishing_ok"]
    assert not report["index_ok"]
    assert not report["ok"]


def test_verify_rejects_a_candidate_outside_the_degree_box():
    # the reference witness times x1^2: partial degree 4 > r_1 = 3
    report = verify_aux_poly((X - Y) ** 2 * X ** 2, SQRT2, 2, Fraction(1, 2), (3, 3))
    assert not report["degree_ok"]
    assert report["vanishing_ok"] and report["index_ok"]
    assert not report["ok"]


def test_build_aux_poly_degenerate_rational():
    one = AlgebraicNumber.from_rational(1)
    res = build_aux_poly(one, 1, Fraction(1, 2), (2,))
    assert not res.poly.is_zero()
    assert res.poly.evaluate([Fraction(1)]) == 0
    assert res.index_lower.value >= Fraction(1, 4)


def test_build_aux_poly_infeasible():
    with pytest.raises(InfeasibleError) as exc:
        build_aux_poly(SQRT2, 1, Fraction(3, 4), (1,))
    assert exc.value.constraints == 2
    assert exc.value.unknowns == 2


def test_build_aux_poly_requires_algebraic_integer():
    nonmonic = AlgebraicNumber(IntPolynomial([-1, 0, 2]), interval=(0, 1))
    with pytest.raises(UnsupportedError):
        build_aux_poly(nonmonic, 2, Fraction(1, 2), (2, 2))


def test_build_aux_poly_refuses_more_unknowns_than_the_cap(monkeypatch):
    assert rothlab.AUX_UNKNOWNS_CAP == 128
    with pytest.raises(UnsupportedError, match="129 unknowns; the cap is 128"):
        build_aux_poly(SQRT2, 2, Fraction(1, 2), (2, 42))
    # the cap itself is admitted: (3 + 1) * (3 + 1) unknowns at a cap of 16
    monkeypatch.setattr(rothlab, "AUX_UNKNOWNS_CAP", 16)
    assert build_aux_poly(SQRT2, 2, Fraction(1, 2), (3, 3)).unknowns == 16
    with pytest.raises(UnsupportedError, match="20 unknowns; the cap is 16"):
        build_aux_poly(SQRT2, 2, Fraction(1, 2), (3, 4))


def test_height_ratio_monitored():
    previous = None
    for r in (2, 3, 4):
        res = build_aux_poly(SQRT2, 2, Fraction(1, 2), (r, r))
        assert res.siegel is not None
        # the measured height obeys the instance certificate
        assert res.height.log_enclosure().hi <= res.siegel.certified_bound.hi
        previous = res


def test_derivative_height_examples():
    P = MultiPoly.from_univariate([0, 1])
    rep = derivative_height_bound_check(P, [Fraction(3, 2)], (0,), (1,))
    assert rep.holds and rep.lhs.lo == 3 and rep.rhs.lo == 12

    P2 = MultiPoly.from_univariate([-1, 1]) ** 2
    rep2 = derivative_height_bound_check(P2, [Fraction(1)], (0,), (2,))
    assert rep2.holds and rep2.lhs.lo == 1  # H(0) = 1 convention


def test_derivative_height_random():
    rng = random.Random(92)
    done = 0
    while done < 500:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            terms[exps] = Fraction(rng.randint(-10, 10))
        P = MultiPoly(2, terms)
        if P.is_zero():
            continue
        betas = [
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(2)
        ]
        if any(height_rational(b).exact > 100 for b in betas):
            continue
        J = (rng.randint(0, 3), rng.randint(0, 3))
        rep = derivative_height_bound_check(P, betas, J, (3, 3))
        assert rep.holds
        done += 1


def test_derivative_height_algebraic_point():
    P = X + Y
    rep = derivative_height_bound_check(P, [SQRT2, SQRT2], (0, 0), (1, 1))
    assert rep.holds


def test_undecided_height_comparisons_name_the_budget(monkeypatch):
    wide = Enclosure(Fraction(1), Fraction(10 ** 6))
    monkeypatch.setattr(rothlab, "nf_element_height", lambda gamma, precision: HeightValue(None, wide))
    with pytest.raises(PrecisionError, match=r"used 6 widths down to 1e-29; the cap is 6"):
        derivative_height_bound_check(X + Y, [SQRT2, SQRT2], (0, 0), (1, 1))
    monkeypatch.setattr(rothlab, "log_enclosure", lambda q, err: Enclosure(Fraction(0), Fraction(100)))
    with pytest.raises(PrecisionError, match=r"used 12 widths down to 1e-72; the cap is 12"):
        rothlab._height_hypothesis_holds(Fraction(1), 1, Fraction(2), Fraction(2), 1)


def test_roth_verify_example_holds():
    beta = Fraction(2 ** 64)
    P = MultiPoly.from_univariate([-beta, 1])
    rep = roth_lemma_verify(P, [beta], (10,), Fraction(1, 2))
    assert rep.hypotheses_hold
    assert rep.index.value == Fraction(1, 10)
    assert rep.conclusion_holds


def test_roth_verify_height_hypothesis_fails():
    P = MultiPoly.from_univariate([-2, 1]) ** 10
    rep = roth_lemma_verify(P, [Fraction(2)], (10,), Fraction(1, 2))
    assert not rep.height_hypothesis_ok
    assert rep.index.value == 1


def test_roth_verify_constant_poly():
    P = MultiPoly.constant(2, 1)
    rep = roth_lemma_verify(P, [Fraction(2), Fraction(3)], (4, 1), Fraction(1, 2))
    assert rep.index.value == 0
    assert rep.conclusion_holds


def test_roth_verify_constructed_instances():
    rng = random.Random(93)
    done = 0
    while done < 50:
        m = rng.randint(1, 2)
        eta = Fraction(rng.randint(1, 4), 8)
        omega = eta ** (2 ** (m - 1))
        if m == 1:
            r = (rng.randint(2, 12),)
        else:
            r1 = rng.randint(4, 12)
            r2 = max(1, int(r1 * omega))
            if Fraction(r2, r1) > omega:
                continue
            r = (r1, r2)
        # polynomial with small height and controlled degrees
        if m == 1:
            j = rng.randint(0, min(2, r[0]))
            beta_small = Fraction(rng.randint(1, 3))
            P = MultiPoly.from_univariate([1]) if j == 0 else (
                MultiPoly.from_univariate([-beta_small, 1]) ** j
            )
        else:
            P = MultiPoly.constant(2, 1)
            if rng.random() < 0.5:
                P = X - MultiPoly.constant(2, Fraction(rng.randint(1, 2)))
        hP = height_polynomial(P).exact
        # choose beta heights large enough for the height hypothesis
        need = (hP.numerator.bit_length() + 2 * m * r[0] + 8) * 4
        betas = []
        for h in range(m):
            k = int(need / (omega * r[h])) + rng.randint(8, 64)
            betas.append(Fraction(2 ** k))
        rep = roth_lemma_verify(P, betas, r, eta)
        if not rep.hypotheses_hold:
            continue
        assert rep.conclusion_holds
        assert rep.index.value <= 2 * m * eta
        done += 1


@settings(max_examples=100)
@given(
    st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(1, 6), min_size=m, max_size=m))),
    st.fractions(0, 1).filter(lambda e: 0 < e < 1),
)
def test_vanishing_tuples_match_the_fraction_definition(m_weights, epsilon):
    m, weights = m_weights
    spec = IndexSetSpec(m, epsilon, weights)
    weight = lambda t: sum(Fraction(i, r) for i, r in zip(t, spec.weights))
    expected = sorted(
        (t for t in product(*(range(r + 1) for r in spec.weights)) if weight(t) < spec.threshold),
        key=lambda t: (weight(t), t),
    )
    assert vanishing_tuples(spec) == expected
