"""Property tests of the complex-root certificate in dioph.roots.

Inputs are random squarefree integer polynomials of degree 2-12, some
with two roots 1/N apart (N up to 1e20, closer than float seeds can
separate, so that root_disks has to double its bits), at disk radii
from 1e-12 to 1e-80.  mpmath roots at three times the working precision are the
reference for containment, and the Newton iteration on reduced
Fractions below is the oracle for the centers and radii.
"""

from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph.exceptions import PrecisionError
from dioph.heights import mahler_measure
from dioph.intpoly import IntPolynomial, squarefree_part
from dioph.roots import (
    _float_seeds,
    _horner,
    _apart,
    _mpmath_seeds,
    _pairwise_disjoint,
    root_disks,
    root_moduli,
)
from oracles import disk_view, enclosure_view


@st.composite
def squarefree_polys(draw):
    degree = draw(st.integers(2, 12))
    clustered = draw(st.booleans())
    base = draw(st.lists(st.integers(-9, 9), min_size=degree - 2 * clustered,
                         max_size=degree - 2 * clustered))
    f = IntPolynomial(base + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
    if clustered:
        # roots a and a + 1/inv_gap
        inv_gap = 10 ** draw(st.sampled_from([3, 8, 20]))
        a = draw(st.integers(-3, 3))
        f = f * IntPolynomial([-inv_gap * a, inv_gap])
        f = f * IntPolynomial([-inv_gap * a - 1, inv_gap])
    g = squarefree_part(f)
    assume(g.degree >= 2)
    return g


radii = st.integers(12, 80).map(lambda k: Fraction(1, 10 ** k))


def _starting_bits(g: IntPolynomial, target: Fraction) -> int:
    need = target.denominator.bit_length() - target.numerator.bit_length()
    return max(128, need // 2 + 2 * g.degree.bit_length() + 32)


def _mp_roots(g: IntPolynomial):
    """Roots of g at the current mpmath precision."""
    return mpmath.polyroots(
        [mpmath.mpf(c) for c in reversed(g.coeffs)], maxsteps=2000, extraprec=mpmath.mp.prec
    )


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# the oracle: Newton on reduced Fractions, evaluated twice per round


def _c_eval(coeffs, z):
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
    return re, im


def _c_abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _round_down(q: Fraction, bits: int) -> Fraction:
    return Fraction(q.numerator * (1 << bits) // q.denominator, 1 << bits)


def _fractions(seeds):
    bits, mantissas = seeds
    return [(Fraction(x, 1 << bits), Fraction(y, 1 << bits)) for x, y in mantissas]


def _fraction_disjoint(disks) -> bool:
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            (zi, ri), (zj, rj) = disks[i], disks[j]
            s = _c_abs2((zi[0] - zj[0], zi[1] - zj[1])) - ri - rj
            if s <= 0 or s * s <= 4 * ri * rj:
                return False
    return True


def _fraction_root_disks(g: IntPolynomial, target: Fraction, bits: int):
    n = g.degree
    deriv = g.derivative()
    seeds = _fractions(_float_seeds(g))
    for attempt in range(8):
        centers = list(seeds)
        for _ in range(40):
            new_centers = []
            ok = True
            for z in centers:
                val, der = _c_eval(g.coeffs, z), _c_eval(deriv.coeffs, z)
                d2 = _c_abs2(der)
                if d2 == 0:
                    ok = False
                    new_centers.append(z)
                    continue
                qr = (val[0] * der[0] + val[1] * der[1]) / d2
                qi = (val[1] * der[0] - val[0] * der[1]) / d2
                new_centers.append((_round_down(z[0] - qr, bits), _round_down(z[1] - qi, bits)))
            centers = new_centers
            if not ok:
                break
            cand = []
            for z in centers:
                val, der = _c_eval(g.coeffs, z), _c_eval(deriv.coeffs, z)
                d2 = _c_abs2(der)
                if d2 == 0:
                    break
                rho = n * n * _c_abs2(val) / d2
                if rho > target:
                    break
                cand.append((z, rho))
            if len(cand) == n and _fraction_disjoint(cand):
                return cand
        bits *= 2
        seeds = _fractions(_mpmath_seeds(g, 40 * (attempt + 1)))
    raise PrecisionError("oracle did not certify")


# ---------------------------------------------------------------------------


small_disks = st.tuples(
    st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 400), st.integers(1, 30)
)


def _radius_ceiling(p: int, q: int) -> int:
    """ceil(sqrt(p / q)), computed apart from dioph.roots."""
    r = isqrt(p // q)
    while r * r * q < p:
        r += 1
    return r


@st.composite
def near_tie_disks(draw):
    """Disks at a scale b up to 256 with mantissas of about b bits and
    many-bit squared radii p/q; each disk after the first sits at
    distance sqrt(dx^2 + dy^2) from its predecessor, with dx within two
    units of R_i + R_j (R = ceil(sqrt(p/q))) and dy in 0..3, so that the
    squared distance falls a few units either side of (R_i + R_j)^2."""
    b = draw(st.integers(4, 256))
    count = draw(st.integers(2, 4))
    x = draw(st.integers(-(1 << (b + 2)), 1 << (b + 2)))
    y = draw(st.integers(-(1 << (b + 2)), 1 << (b + 2)))
    disks = []
    for k in range(count):
        q = draw(st.integers(1, 1 << draw(st.integers(0, 2 * b))))
        root = draw(st.integers(0, 1 << draw(st.integers(0, b))))
        # p / q in [root^2, (root + 1)^2], so the fractional part of the
        # radius varies
        p = root * root * q + draw(st.integers(0, (2 * root + 1) * q))
        if disks:
            reach = _radius_ceiling(*disks[-1][2:]) + _radius_ceiling(p, q)
            dx, dy = reach + draw(st.integers(-2, 1)), draw(st.integers(0, 3))
            if draw(st.booleans()):
                dx, dy = dy, dx
            x, y = x + dx, y + dy
        disks.append((x, y, p, q))
    return disks, b


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(st.lists(small_disks, min_size=2, max_size=5), st.integers(0, 3)),
    near_tie_disks(),
))
def test_integer_disjointness_decides_as_the_fraction_test(case):
    # radii comparable to the distances, where r_i + r_j and
    # sqrt(r_i^2 + r_j^2) give different answers; near ties exercise both
    # the integer accept and the exact fallback
    disks, b = case
    one = 1 << b
    as_fractions = [
        ((Fraction(x, one), Fraction(y, one)), Fraction(p, q * one * one)) for x, y, p, q in disks
    ]
    assert _pairwise_disjoint(disks) == _fraction_disjoint(as_fractions)


@settings(max_examples=30)
@given(squarefree_polys(), radii)
def test_disks_match_the_fraction_newton_oracle(g, radius):
    target = radius * radius
    disks = disk_view(*root_disks(g, (target.numerator, target.denominator)))
    expected = _fraction_root_disks(g, target, _starting_bits(g, target))
    assert disks == expected


@settings(max_examples=40)
@given(squarefree_polys(), radii)
def test_each_disk_holds_exactly_one_root(g, radius):
    target = radius * radius
    disks = disk_view(*root_disks(g, (target.numerator, target.denominator)))
    assert len(disks) == g.degree
    assert all(radius_sq <= target for _, radius_sq in disks)
    bits = max(c.denominator.bit_length() - 1 for center, _ in disks for c in center)
    bits = max(bits, _starting_bits(g, target))
    owners = []
    with mpmath.workprec(3 * bits):
        roots = _mp_roots(g)
        slack = mpmath.mpf(2) ** (-2 * bits)  # mpmath's error is about 2**(-3 * bits)
        for (re, im), radius_sq in disks:
            center = mpmath.mpc(_mp(re), _mp(im))
            reach = mpmath.sqrt(_mp(radius_sq)) + slack
            inside = [k for k, r in enumerate(roots) if abs(r - center) <= reach]
            assert len(inside) == 1
            owners += inside
    assert sorted(owners) == list(range(g.degree))


def _matched(values, enclosures, slack) -> bool:
    """True iff the values can be paired one-to-one with enclosures that
    contain them (greedy: ascending values, earliest-ending enclosure)."""
    free = sorted(enclosures, key=lambda e: e.hi)
    for v in sorted(values):
        for k, e in enumerate(free):
            if _mp(e.lo) - slack <= v <= _mp(e.hi) + slack:
                del free[k]
                break
        else:
            return False
    return True


@settings(max_examples=30)
@given(squarefree_polys(), radii)
def test_moduli_and_mahler_measure_hold_the_mpmath_values(g, precision):
    moduli = enclosure_view(*root_moduli(g, precision))
    assert all(m.width <= precision for m in moduli)
    enc = mahler_measure(g, precision)
    assert enc.width <= precision
    bits = _starting_bits(g, (precision / 8) ** 2)
    with mpmath.workprec(3 * bits):
        roots = _mp_roots(g)
        slack = mpmath.mpf(2) ** (-2 * bits)
        assert _matched([abs(r) for r in roots], moduli, slack)
        mahler = abs(g.leading) * mpmath.fprod(max(1, abs(r)) for r in roots)
        assert _mp(enc.lo) - slack * mahler <= mahler <= _mp(enc.hi) + slack * mahler


@pytest.mark.parametrize("coeffs, digits", [
    ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], 40),  # Lehmer's polynomial
    ([3, -1, 4, 1, -5, 9, -2, 6, -5, 3, -5, 8, 1], 30),
])
def test_separated_roots_never_reach_the_exact_disjointness_test(monkeypatch, coeffs, digits):
    # converged disks are many radii apart, so the integer test decides
    # every pair
    calls = []
    monkeypatch.setattr("dioph.roots._apart", lambda u, v: calls.append(1) or _apart(u, v))
    _, moduli = root_moduli(IntPolynomial(coeffs), Fraction(1, 10 ** digits))
    assert len(moduli) == len(coeffs) - 1
    assert calls == []


def test_failed_attempt_asks_for_finer_seeds(monkeypatch):
    # roots 0 and 1e-20 are one float seed; an attempt that fails on them
    # must not be repeated from the same seeds at doubled bits
    calls = []
    monkeypatch.setattr("dioph.roots._horner", lambda *a: calls.append(1) or _horner(*a))
    N = 10 ** 20
    g = (IntPolynomial([0, N]) * IntPolynomial([-1, N]) * IntPolynomial([1, 0, 1])
         * IntPolynomial([-2, 1, 3]))
    _, disks = root_disks(g, (1, 10 ** 48))
    assert len(disks) == 6
    # 1,008 evaluations when attempt 1 reused the float seeds, 516 now
    assert len(calls) <= 600
