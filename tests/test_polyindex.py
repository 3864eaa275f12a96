import json
import random
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import cli
from dioph.exceptions import DomainError, UnsupportedError
from dioph.intpoly import IntPolynomial
from dioph.multipoly import (
    SHIFT_COST_CAP,
    IndexValue,
    MultiPoly,
    index_at,
    kronecker_substitution,
    normalized_derivative,
    shift_cost,
    taylor_shift,
)
from dioph.numberfield import AlgebraicNumber, NumberFieldElement

from oracles import index_by_enumeration

X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)


def rand_point(rng, arity):
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]
    return [rng.choice(pool) for _ in range(arity)]


def rand_poly(rng, arity, deg=4, terms=4, coeff=9):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(arity))
        out[exps] = Fraction(rng.randint(-coeff, coeff))
    return MultiPoly(arity, out)


def vanishing_poly(rng, arity, point, deg=4, terms=3):
    """Random polynomial with a controlled vanishing factor at the point."""
    P = rand_poly(rng, arity, deg=2, terms=terms)
    if P.is_zero():
        P = MultiPoly.constant(arity, 1)
    for h in range(arity):
        e = rng.randint(0, 2)
        if e:
            factor = MultiPoly.variable(arity, h) - MultiPoly.constant(arity, point[h])
            P = P * factor ** e
    return P


def test_normalized_derivative_examples():
    cubic = MultiPoly.from_univariate([0, 0, 0, 1])
    assert normalized_derivative(cubic, (2,)) == MultiPoly.from_univariate([0, 3])
    xy = MultiPoly(2, {(2, 3): 1})
    assert normalized_derivative(xy, (1, 1)) == MultiPoly(2, {(1, 2): 6})
    quartic = MultiPoly.from_univariate([-1, 1]) ** 4
    assert normalized_derivative(quartic, (4,)) == MultiPoly.from_univariate([1])
    # integer coefficients stay integer
    rng = random.Random(61)
    for _ in range(50):
        P = rand_poly(rng, 2)
        D = normalized_derivative(P, (rng.randint(0, 3), rng.randint(0, 3)))
        assert all(c.denominator == 1 for c in D.terms.values())


def test_index_examples():
    P = (X - 1) ** 2 * (Y - 2) ** 3
    assert index_at(P, [Fraction(1), Fraction(2)], (2, 3)) == IndexValue(Fraction(2))
    assert index_at(X * Y, [0, 0], (2, 3)) == IndexValue(Fraction(5, 6))
    Q = X + Y + 1
    assert index_at(Q, [1, 1], (2, 3)) == IndexValue(Fraction(0))
    assert index_at(MultiPoly.zero(2), [0, 0], (1, 1)).is_infinite


def test_index_multiplicativity():
    rng = random.Random(62)
    done = 0
    while done < 300:
        arity = rng.randint(1, 3)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = vanishing_poly(rng, arity, point)
        Q = vanishing_poly(rng, arity, point)
        if P.is_zero() or Q.is_zero():
            continue
        ip = index_at(P, point, weights).value
        iq = index_at(Q, point, weights).value
        ipq = index_at(P * Q, point, weights).value
        assert ipq == ip + iq
        done += 1


def test_index_subadditivity():
    rng = random.Random(63)
    done = 0
    while done < 200:
        arity = rng.randint(1, 3)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = vanishing_poly(rng, arity, point)
        Q = vanishing_poly(rng, arity, point)
        S = P + Q
        if P.is_zero() or Q.is_zero() or S.is_zero():
            continue
        i_sum = index_at(S, point, weights).value
        assert i_sum >= min(
            index_at(P, point, weights).value, index_at(Q, point, weights).value
        )
        done += 1


def test_index_differentiation_inequality():
    rng = random.Random(64)
    done = 0
    while done < 150:
        arity = rng.randint(1, 2)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = vanishing_poly(rng, arity, point)
        if P.is_zero():
            continue
        I = tuple(rng.randint(0, 2) for _ in range(arity))
        D = normalized_derivative(P, I)
        if D.is_zero():
            continue
        drop = sum(Fraction(i, r) for i, r in zip(I, weights))
        assert index_at(D, point, weights).value >= index_at(P, point, weights).value - drop
        done += 1


def test_index_weight_scaling():
    rng = random.Random(65)
    for _ in range(100):
        arity = rng.randint(1, 3)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = vanishing_poly(rng, arity, point)
        if P.is_zero():
            continue
        base = index_at(P, point, weights).value
        for t in range(1, 5):
            scaled = tuple(t * r for r in weights)
            assert index_at(P, point, scaled).value == Fraction(base, t)


def test_index_upper_bound_in_degree_box():
    rng = random.Random(66)
    for _ in range(100):
        arity = rng.randint(1, 3)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = rand_poly(rng, arity, deg=0, terms=1)
        for h in range(arity):
            factor = MultiPoly.variable(arity, h) - MultiPoly.constant(arity, point[h])
            P = P * factor ** rng.randint(0, weights[h])
        degs = P.partial_degrees()
        if P.is_zero() or any(d > r for d, r in zip(degs, weights)):
            continue
        assert index_at(P, point, weights).value <= arity


def test_extremal_index_equality():
    weights = (3, 2)
    P = (X - MultiPoly.constant(2, Fraction(1, 2))) ** 3 * (Y - 2) ** 2
    assert index_at(P, [Fraction(1, 2), Fraction(2)], weights) == IndexValue(Fraction(2))


def test_oracle_equivalence():
    rng = random.Random(67)
    done = 0
    while done < 300:
        arity = rng.randint(1, 2)
        point = rand_point(rng, arity)
        weights = tuple(rng.randint(1, 4) for _ in range(arity))
        P = vanishing_poly(rng, arity, point, terms=4)
        if P.is_zero():
            continue
        assert index_at(P, point, weights) == index_by_enumeration(P, point, weights)
        done += 1


SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
CBRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))


@st.composite
def index_cases(draw):
    """(P, point, weights): a drawn polynomial times a drawn power of
    (x_h - a_h) per variable, so that the index is often positive.  Each
    coordinate a_h is a rational or, at an algebraic case, possibly the
    generator of Q(sqrt 2) or Q(cbrt 2) plus a rational."""
    arity = draw(st.integers(1, 3))
    rationals = st.fractions(-3, 3, max_denominator=4)
    point = draw(st.lists(rationals, min_size=arity, max_size=arity))
    base = draw(st.sampled_from([None, SQRT2, CBRT2]))
    if base is not None:
        gen = NumberFieldElement.generator(base)
        point = [gen + a if draw(st.booleans()) else a for a in point]
    weights = draw(st.lists(st.integers(1, 5), min_size=arity, max_size=arity))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    P = MultiPoly(arity, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=5)))
    for h, e in enumerate(draw(st.lists(st.integers(0, 2), min_size=arity, max_size=arity))):
        P = P * (MultiPoly.variable(arity, h) - MultiPoly.constant(arity, point[h])) ** e
    assume(not P.is_zero())
    return P, point, weights


@settings(max_examples=150)
@given(index_cases())
def test_index_at_equals_the_enumerate_oracle_on_drawn_cases(case):
    P, point, weights = case
    assert index_at(P, point, weights) == index_by_enumeration(P, point, weights)


def test_taylor_shift_roundtrip():
    rng = random.Random(68)
    for _ in range(50):
        P = rand_poly(rng, 2)
        a = rand_point(rng, 2)
        back = taylor_shift(taylor_shift(P, a), [-x for x in a])
        assert back == P


def test_taylor_shift_coefficients_are_the_normalized_derivatives():
    rng = random.Random(69)
    gen = NumberFieldElement.generator(CBRT2)
    for _ in range(40):
        P = rand_poly(rng, 2, deg=3, terms=5)
        a = [rng.choice([gen, gen + 1, gen * gen]), rand_point(rng, 1)[0]]
        shifted = taylor_shift(P, a)
        for I in iter_product(range(4), repeat=2):
            assert shifted.terms.get(I, 0) == normalized_derivative(P, I).evaluate(a)


def test_index_at_algebraic_point():
    sqrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
    gen = NumberFieldElement.generator(sqrt2)
    # P = (x - sqrt2)^2 (y - 1), coefficients in Q(sqrt2)
    xs = MultiPoly(2, {(1, 0): Fraction(1), (0, 0): -gen})
    ys = MultiPoly(2, {(0, 1): Fraction(1), (0, 0): Fraction(-1)})
    P = xs * xs * ys
    iv = index_at(P, [gen, Fraction(1)], (2, 1))
    assert iv == IndexValue(Fraction(2))


def test_weight_validation():
    with pytest.raises(DomainError):
        index_at(X, [0, 0], (0, 2))
    with pytest.raises(DomainError):
        index_at(X, [0], (1, 1))


def test_kronecker_substitution():
    P = X * Y + X ** 2
    U = kronecker_substitution(P, 3)
    # x -> t, y -> t^3: terms t^4 and t^2
    assert U == MultiPoly(1, {(4,): Fraction(1), (2,): Fraction(1)})


@pytest.mark.parametrize("exps, point", [((4427,), "3"), ((302, 302), "3,5")],
                         ids=["x^4427", "x^302*y^302"])
def test_largest_admitted_shift_runs_in_seconds(capsys, exps, point):
    # the largest monomials admitted at these points; one more in each
    # exponent is refused before the shift
    coords = [Fraction(t) for t in point.split(",")]
    mono = lambda e: MultiPoly(len(exps), {tuple(e for _ in exps): 1})
    assert shift_cost(mono(exps[0]), coords) <= SHIFT_COST_CAP < shift_cost(mono(exps[0] + 1), coords)
    with pytest.raises(UnsupportedError, match="the cap is SHIFT_COST_CAP"):
        taylor_shift(mono(exps[0] + 1), coords)
    poly = json.dumps({"arity": len(exps), "terms": [{"coeff": "1", "exps": list(exps)}]})
    start = time.perf_counter()
    assert cli.main(["index", "--point=" + point, "--weights", ",".join("1" for _ in exps),
                     "--poly", poly]) == 0
    # about 1.6 s as a fresh process on a 2-core machine
    assert time.perf_counter() - start < 10
    assert json.loads(capsys.readouterr().out) == {"index": "0/1"}
