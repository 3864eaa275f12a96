import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph.exceptions import DomainError
from dioph.multipoly import MultiPoly, kronecker_substitution
from dioph.wronskian import (
    are_linearly_independent,
    generalized_wronskian,
    multi_indices_up_to,
    _coefficient_rank,
)

T = MultiPoly.variable(1, 0)
X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)


def rand_poly(rng, arity, deg=3, terms=4, coeff=5):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(arity))
        out[exps] = Fraction(rng.randint(-coeff, coeff))
    return MultiPoly(arity, out)


def test_monomial_basis_wronskian():
    fam = [MultiPoly.constant(1, 1), T, T * T]
    w = generalized_wronskian(fam, [(0,), (1,), (2,)])
    assert w == MultiPoly.constant(1, 1)
    ok, witness = are_linearly_independent(fam)
    assert ok and witness == ((0,), (1,), (2,))


def test_proportional_rows_vanish():
    fam = [T, 2 * T]
    for mus in [[(0,), (0,)], [(0,), (1,)]]:
        assert generalized_wronskian(fam, mus).is_zero()
    assert are_linearly_independent(fam) == (False, None)


def test_two_variable_example():
    w = generalized_wronskian([X, Y], [(0, 0), (0, 1)])
    assert w == X
    ok, witness = are_linearly_independent([X, Y, X * Y])
    assert ok


def test_order_precondition_enforced():
    with pytest.raises(DomainError):
        generalized_wronskian([T, T * T], [(1,), (0,)])  # |mu_1| > 0


def test_rank_equivalence_random():
    rng = random.Random(71)
    done = 0
    while done < 300:
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        if rng.random() < 0.4 and n >= 2:
            # force a dependent family: last one a combination of the others
            fam = [rand_poly(rng, m) for _ in range(n - 1)]
            if any(p.is_zero() for p in fam):
                continue
            combo = MultiPoly.zero(m)
            for p in fam:
                combo = combo + rng.randint(-3, 3) * p
            fam.append(combo)
            if combo.is_zero():
                continue
        else:
            fam = [rand_poly(rng, m) for _ in range(n)]
            if any(p.is_zero() for p in fam):
                continue
        expected = _coefficient_rank(fam) == n
        got, witness = are_linearly_independent(fam)
        assert got == expected
        if got:
            assert not generalized_wronskian(fam, witness).is_zero()
        done += 1


def test_dependent_families_all_wronskians_vanish():
    rng = random.Random(72)
    done = 0
    while done < 30:
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        fam = [rand_poly(rng, m, deg=2, terms=3) for _ in range(n - 1)]
        if any(p.is_zero() for p in fam):
            continue
        combo = MultiPoly.zero(m)
        for p in fam:
            combo = combo + rng.randint(-2, 2) * p
        if combo.is_zero():
            continue
        fam.append(combo)
        from itertools import product as iprod

        choices = [multi_indices_up_to(i, m) for i in range(n)]
        for mus in iprod(*choices):
            assert generalized_wronskian(fam, mus).is_zero()
        done += 1


def test_kronecker_substitution_preserves_independence():
    rng = random.Random(73)
    done = 0
    while done < 60:
        n = rng.randint(2, 3)
        m = rng.randint(2, 3)
        fam = [rand_poly(rng, m, deg=2) for _ in range(n)]
        if any(p.is_zero() for p in fam):
            continue
        ok, _ = are_linearly_independent(fam)
        if not ok:
            continue
        d = max(max(p.partial_degrees()) for p in fam) + 1
        images = [kronecker_substitution(p, d) for p in fam]
        assert _coefficient_rank(images) == n
        done += 1


@st.composite
def families(draw, planted):
    """A family of 2-3 polynomials in 1-2 variables.  planted: the last
    member is a drawn rational combination of the others, so the family
    is dependent.  Otherwise member j carries the monomial x_1^(4+j),
    which no other member has, so the family is independent."""
    arity = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    fam = [MultiPoly(arity, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=4)))
           for _ in range(n - 1 if planted else n)]
    if planted:
        coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n - 1,
                               max_size=n - 1).filter(any))
        combo = MultiPoly.zero(arity)
        for c, phi in zip(coeffs, fam):
            combo = combo + phi * c
        return draw(st.permutations(fam + [combo]))
    return [phi + MultiPoly.variable(arity, 0) ** (4 + j) for j, phi in enumerate(fam)]


@settings(max_examples=60)
@given(families(planted=True))
def test_every_admissible_wronskian_of_a_dependent_family_vanishes(fam):
    arity = fam[0].arity
    for mus in product(*(multi_indices_up_to(i, arity) for i in range(len(fam)))):
        assert generalized_wronskian(fam, mus).is_zero()
    assert are_linearly_independent(fam) == (False, None)


@settings(max_examples=60)
@given(families(planted=False))
def test_witness_wronskian_of_an_independent_family_is_nonzero(fam):
    ok, witness = are_linearly_independent(fam)
    assert ok
    assert not generalized_wronskian(fam, witness).is_zero()
