import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph.enclosure import (
    Enclosure,
    exp_enclosure,
    iroot,
    log_enclosure,
    nth_root_enclosure,
)
from dioph.exceptions import DomainError


def test_iroot_exact():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(0, 10 ** 12)
        k = rng.randrange(1, 7)
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_nth_root_enclosure_contains_and_width():
    rng = random.Random(2)
    for _ in range(100):
        q = Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4))
        k = rng.randrange(1, 6)
        err = Fraction(1, 10 ** 9)
        enc = nth_root_enclosure(q, k, err)
        assert enc.width <= err
        # containment checked exactly via k-th powers
        assert enc.lo ** k <= q <= enc.hi ** k


def test_sqrt_zero():
    assert nth_root_enclosure(0, 2, Fraction(1, 10)) == Enclosure.exact(0)


def test_log_enclosure_consistency():
    rng = random.Random(3)
    for _ in range(60):
        q = Fraction(rng.randrange(1, 10 ** 8), rng.randrange(1, 10 ** 8))
        enc = log_enclosure(q, Fraction(1, 10 ** 12))
        assert enc.width <= Fraction(1, 10 ** 12)
        assert enc.lo <= Fraction(math.log(q)) + Fraction(1, 10 ** 9)
        assert enc.hi >= Fraction(math.log(q)) - Fraction(1, 10 ** 9)
        # exact two-sided consistency: exp(lo) <= q <= exp(hi)
        assert exp_enclosure(enc.lo, Fraction(1, 10 ** 15)).lo <= q
        assert exp_enclosure(enc.hi, Fraction(1, 10 ** 15)).hi >= q


def test_log_one_is_exact_zero():
    assert log_enclosure(Fraction(1), Fraction(1, 10)) == Enclosure.exact(0)


def test_log2_cached_value():
    enc = log_enclosure(2, Fraction(1, 10 ** 20))
    assert enc.width <= Fraction(1, 10 ** 20)
    assert exp_enclosure(enc.lo, Fraction(1, 10 ** 25)).lo <= 2
    assert exp_enclosure(enc.hi, Fraction(1, 10 ** 25)).hi >= 2
    assert abs(float(enc.mid) - math.log(2)) < 1e-12


def test_log_enclosure_independent_of_earlier_log2_requests():
    q, err = Fraction(1234567, 1000), Fraction(1, 10 ** 12)
    before = log_enclosure(q, err)
    log_enclosure(2, Fraction(1, 10 ** 400))
    after = log_enclosure(q, err)
    assert before == after
    assert before.width <= err


def test_exp_enclosure():
    for t in (Fraction(-1, 32), Fraction(0), Fraction(7, 2), Fraction(-5)):
        enc = exp_enclosure(t, Fraction(1, 10 ** 10))
        assert enc.width <= Fraction(1, 10 ** 10)
        assert enc.lo <= Fraction(math.exp(t)) + Fraction(1, 10 ** 6)
        assert enc.hi >= Fraction(math.exp(t)) - Fraction(1, 10 ** 6)


def test_interval_multiplication_signs():
    a = Enclosure(-2, 3)
    b = Enclosure(-5, -1)
    prod = a * b
    assert prod.lo == -15 and prod.hi == 10


def test_reciprocal_requires_sign():
    with pytest.raises(DomainError):
        Enclosure(-1, 1).reciprocal()
    assert Enclosure(2, 4).reciprocal() == Enclosure(Fraction(1, 4), Fraction(1, 2))


def test_pow_and_abs():
    cube = Enclosure(-2, 1) ** 3
    assert cube.lo <= -8 and cube.hi >= 1  # sound if wider than the true range
    assert (Enclosure(2, 3) ** 2) == Enclosure(4, 9)
    assert abs(Enclosure(-3, 1)) == Enclosure(0, 3)


def test_round_out_is_outward():
    e = Enclosure(Fraction(1, 3), Fraction(2, 3))
    r = e.round_out(16)
    assert r.lo <= e.lo and r.hi >= e.hi
    assert r.lo.denominator <= 2 ** 16 and r.hi.denominator <= 2 ** 16


# ---------------------------------------------------------------------------
# containment against mpmath at three times the working digits

_HUGE = 2 ** 400
rationals = st.builds(Fraction, st.integers(1, _HUGE), st.integers(1, _HUGE))
budgets = st.integers(1, 200).map(lambda k: Fraction(1, 10 ** k))


def _assert_encloses(enc, err, value):
    """enc is at most err wide and holds value, an mpf computed at
    three times err's digits; value is made a Fraction exactly and given
    a margin of 2**-(prec - 8) relative to it."""
    assert enc.width <= err
    man, exp = value.man_exp  # of |value|
    exact = Fraction(int(man)) * Fraction(2) ** int(exp) * int(mpmath.sign(value))
    margin = max(abs(exact), Fraction(1)) / 2 ** (mpmath.mp.prec - 8)
    assert enc.lo <= exact + margin
    assert enc.hi >= exact - margin


def _digits(err, extra):
    return 3 * len(str(err.denominator)) + extra


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=150, deadline=None)
@given(rationals, budgets)
def test_log_enclosure_contains_mpmath_log(q, err):
    enc = log_enclosure(q, err)
    with mpmath.workdps(_digits(err, 30)):
        _assert_encloses(enc, err, mpmath.log(_mpf(q)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, _HUGE).flatmap(
    lambda den: st.builds(Fraction, st.integers(-60 * den, 60 * den), st.just(den))), budgets)
def test_exp_enclosure_contains_mpmath_exp(t, err):
    enc = exp_enclosure(t, err)
    # exp(t) < e**60 < 10**27 needs 27 more digits before the point
    with mpmath.workdps(_digits(err, 60)):
        _assert_encloses(enc, err, mpmath.exp(_mpf(t)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, _HUGE).flatmap(
    lambda den: st.builds(Fraction, st.integers(-60 * den, -1), st.just(den))), budgets)
def test_exp_enclosure_of_negative_t_contains_mpmath_exp(t, err):
    # the fixed-point reciprocal of exp(|t|), for t in [-60, 0)
    enc = exp_enclosure(t, err)
    with mpmath.workdps(_digits(err, 30)):
        _assert_encloses(enc, err, mpmath.exp(_mpf(t)))


def test_exp_enclosure_of_negative_t_denominators_follow_the_budget():
    # a 40-bit request at t = -50 needs no bits for the size of exp(50)
    enc = exp_enclosure(-50, Fraction(1, 10 ** 12))
    assert enc.lo.denominator < 2 ** 64 and enc.hi.denominator < 2 ** 64
    assert enc.width <= Fraction(1, 10 ** 12)


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(1, 7), budgets)
def test_nth_root_enclosure_contains_mpmath_root(q, k, err):
    enc = nth_root_enclosure(q, k, err)
    with mpmath.workdps(_digits(err, 150)):
        _assert_encloses(enc, err, mpmath.root(_mpf(q), k))


@pytest.mark.parametrize("q", [Fraction(1234567, 1000), Fraction(3, 10 ** 20)])
def test_log_enclosure_denominators_follow_the_budget(q):
    # a 30-bit request gives endpoints over 2**w, w = 30 bits plus guard bits
    enc = log_enclosure(q, Fraction(1, 10 ** 9))
    assert enc.lo.denominator < 2 ** 64 and enc.hi.denominator < 2 ** 64
