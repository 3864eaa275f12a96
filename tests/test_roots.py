import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioph import roots
from dioph.exceptions import DomainError, PrecisionError
from dioph.heights import mahler_enclosure
from dioph.intpoly import (
    IntPolynomial,
    content_and_primitive,
    cyclotomic,
    isolate_real_roots,
    squarefree_part,
)
from dioph.roots import max_root_modulus, ordered_root_boxes, root_disks, root_moduli
from oracles import (
    enclosure_view,
    mahler_by_enclosures,
    ordered_root_boxes_by_enclosures,
    root_moduli_by_enclosures,
)
from test_numberfield import _FractionCount

PREC = Fraction(1, 10 ** 12)


def _moduli(f, precision):
    return enclosure_view(*root_moduli(f, precision))


def test_golden_ratio_moduli():
    ms = _moduli(IntPolynomial([-1, -1, 1]), PREC)
    assert len(ms) == 2
    small, large = sorted(ms, key=lambda m: m.mid)
    # phi and 1/phi: check exactly via the defining quadratic
    assert large.lo ** 2 - large.lo - 1 <= 0 <= large.hi ** 2 - large.hi - 1
    assert all(m.width <= PREC for m in ms)


def test_cube_root_two_moduli():
    ms = _moduli(IntPolynomial([-2, 0, 0, 1]), PREC)
    assert len(ms) == 3
    for m in ms:
        assert m.lo ** 3 <= 2 <= m.hi ** 3


def test_unit_modulus_pair():
    # 5x^2 - 6x + 5 has roots (3 +- 4i)/5 of modulus exactly 1
    ms = _moduli(IntPolynomial([5, -6, 5]), PREC)
    assert len(ms) == 2
    for m in ms:
        assert m.contains(1)


def test_multiplicity_and_zero_roots():
    f = IntPolynomial([-2, 0, 1]) ** 2 * IntPolynomial([0, 1])
    ms = _moduli(f, PREC)
    assert len(ms) == 5
    zeros = [m for m in ms if m.contains(0)]
    assert len(zeros) == 1
    sqrt2_like = [m for m in ms if m.lo ** 2 <= 2 <= m.hi ** 2]
    assert len(sqrt2_like) == 4


def test_product_consistency_random():
    # the |lead| * prod(moduli) vs |constant| check runs inside root_moduli
    rng = random.Random(21)
    done = 0
    while done < 500:
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        if f.is_zero() or f.degree < 1:
            continue
        root_moduli(f, Fraction(1, 10 ** 8))
        done += 1


def test_real_count_matches_moduli_classification():
    rng = random.Random(22)
    done = 0
    while done < 120:
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        if f.is_zero() or f.degree < 1:
            continue
        _, prim = content_and_primitive(f)
        boxes = enclosure_view(*ordered_root_boxes(prim, Fraction(1, 10 ** 10)))
        n_real_sturm = len(isolate_real_roots(prim))
        complex_boxes = sum(1 for re, im in boxes if not im.contains(0))
        real_boxes = sum(1 for re, im in boxes if im.contains(0))
        assert complex_boxes % 2 == 0
        assert real_boxes == n_real_sturm
        done += 1


def test_ordered_boxes_deterministic():
    f = IntPolynomial([1, 1, 1, 1, 1])
    a = ordered_root_boxes(f, Fraction(1, 10 ** 10))
    assert a == ordered_root_boxes(f, Fraction(1, 10 ** 10))
    mids = [(x.mid, y.mid) for x, y in enclosure_view(*a)]
    assert mids == sorted(mids)


def test_max_root_modulus():
    enc = max_root_modulus(IntPolynomial([-1, -1, 1]), PREC)
    assert enc.lo ** 2 - enc.lo - 1 <= 0 <= enc.hi ** 2 - enc.hi - 1


def test_root_disks_ask_no_seeds_after_the_last_attempt(monkeypatch):
    calls = []
    seeds = roots._mpmath_seeds
    monkeypatch.setattr(roots, "_mpmath_seeds", lambda *a: calls.append(a) or seeds(*a))
    monkeypatch.setattr(roots, "_CERTIFY_ATTEMPTS", 2)
    g = IntPolynomial([0, 1]) * IntPolynomial([-1, 10 ** 60]) * IntPolynomial([1, 0, 1])
    with pytest.raises(PrecisionError, match="used 2 attempts"):
        root_disks(g, (1, 10 ** 48))
    assert [a[1:] for a in calls] == [(40, 1)]


def test_unconverged_mpmath_seeds_are_a_precision_error():
    # mpmath.polyroots stops at maxsteps on x (10^100 x - 1) (x^2 + 1)
    g = IntPolynomial([0, -1, 10 ** 100, -1, 10 ** 100])
    with pytest.raises(PrecisionError, match="at 40 digits; used 1 attempts, the cap is 8"):
        root_disks(g, (1, 10 ** 40))


def test_root_disk_budget_is_named(monkeypatch):
    # roots 0 and 1e-60 are closer than the first attempt's 2^-197 grid
    monkeypatch.setattr(roots, "_CERTIFY_ATTEMPTS", 1)
    g = IntPolynomial([0, 1]) * IntPolynomial([-1, 10 ** 60]) * IntPolynomial([1, 0, 1])
    with pytest.raises(
        PrecisionError, match=r"used 1 attempts of 40 Newton steps, up to \d+ bits; the cap is 1 attempts"
    ):
        root_disks(g, (1, 10 ** 48))


@pytest.mark.parametrize("precision", [0, Fraction(-1, 10)])
def test_ordered_root_boxes_refuse_precision_at_most_zero(monkeypatch, precision):
    # refused before any root is computed, as root_moduli refuses it
    def no_work(*args):
        raise AssertionError("root disks certified for a refused precision")

    monkeypatch.setattr(roots, "root_disks", no_work)
    for route in (ordered_root_boxes, root_moduli):
        with pytest.raises(DomainError, match="precision must be positive"):
            route(IntPolynomial([-2, 0, 1]), precision)


def test_precision_in_any_form_fraction_accepts():
    # a float or a string is read through Fraction, as before the integer format
    f = IntPolynomial([-2, 0, 1]) * IntPolynomial([1, 3])
    assert root_moduli(f, 1e-12) == root_moduli(f, Fraction(1e-12))
    assert ordered_root_boxes(f, "1/1000") == ordered_root_boxes(f, Fraction(1, 1000))


def test_root_disks_moduli_and_boxes_build_no_fraction():
    # a repeated factor, a root at 0, a non-dyadic rational root -1/3 and
    # roots on the unit circle
    f = (IntPolynomial([-2, 0, 1]) ** 2 * IntPolynomial([0, 1]) * IntPolynomial([1, 3])
         * IntPolynomial([1, 1, 1]))
    g = squarefree_part(f)
    precision = Fraction(1, 10 ** 40)
    with _FractionCount() as count:
        den, disks = root_disks(g, (1, 10 ** 80))
        s, moduli = root_moduli(f, precision)
        root_moduli(f, 2)
        ordered_root_boxes(f, precision)
    assert count.calls == 0
    assert len(disks) == g.degree == 6 and len(moduli) == f.degree == 8


@st.composite
def root_polys(draw):
    """Integer polynomials of degree 1-14 with repeated, clustered,
    unit-circle and non-dyadic rational roots."""
    f = IntPolynomial([draw(st.integers(-9, 9)) for _ in range(draw(st.integers(0, 4)))]
                      + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
    extras = [
        IntPolynomial([draw(st.integers(-4, 4)), draw(st.sampled_from([3, 5, 6, 7, -9]))]),
        cyclotomic(draw(st.sampled_from([1, 3, 4, 5, 8, 12]))),
        IntPolynomial([5, -6, 5]),  # (3 +- 4i) / 5 on the unit circle
        IntPolynomial([0, 1]),
    ]
    for extra in extras:
        f = f * extra ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        # roots a / 7 and a / 7 + 1 / (7 * N)
        n, a = 10 ** draw(st.sampled_from([3, 12])), draw(st.integers(-3, 3))
        f = f * IntPolynomial([-a * n, 7 * n]) * IntPolynomial([-a * n - 1, 7 * n])
    if f.is_zero() or f.degree < 1 or f.degree > 14:
        f = IntPolynomial([1, 3]) * IntPolynomial([-2, 0, 1]) ** 2
    return f


# coarse ones down to the first root scale of 4 bits
precisions = st.sampled_from(
    [Fraction(2), Fraction(1), Fraction(1, 3), Fraction(1, 10), Fraction(1, 10 ** 5),
     Fraction(1, 10 ** 12), Fraction(1, 10 ** 30)])


@settings(max_examples=60)
@given(root_polys(), precisions)
@example(IntPolynomial([-2, -6, 1, 3]), Fraction(2))  # (3x + 1)(x^2 - 2)
@example(IntPolynomial([0, 0, 0, 1, 2, 3, 2, 1]), Fraction(1, 3))
@example(IntPolynomial([1, 3]), Fraction(1, 10 ** 12))
def test_mantissa_routes_equal_the_enclosure_oracle(f, precision):
    # equal as rationals, not merely overlapping
    assert _moduli(f, precision) == root_moduli_by_enclosures(f, precision)
    assert mahler_enclosure(f, precision) == mahler_by_enclosures(f, precision)
    s, boxes = ordered_root_boxes(f, precision)
    expected = ordered_root_boxes_by_enclosures(f, precision)
    g = squarefree_part(f)
    if g.degree == 1 and g.leading & (g.leading - 1):
        # the one box that moves: a rational root that is not dyadic,
        # rounded outward to 2**-s
        [(re, im)] = enclosure_view(s, boxes)
        [(re_old, im_old)] = expected
        assert re.lo <= re_old.lo <= re_old.hi <= re.hi and re.width <= Fraction(1, 1 << s)
        assert im == im_old
    else:
        assert enclosure_view(s, boxes) == expected
