import random
from fractions import Fraction

import pytest

from dioph import roots
from dioph.exceptions import PrecisionError
from dioph.intpoly import IntPolynomial, content_and_primitive, isolate_real_roots
from dioph.roots import max_root_modulus, ordered_root_boxes, root_disks, root_moduli

PREC = Fraction(1, 10 ** 12)


def test_golden_ratio_moduli():
    ms = root_moduli(IntPolynomial([-1, -1, 1]), PREC)
    assert len(ms) == 2
    small, large = sorted(ms, key=lambda m: m.mid)
    # phi and 1/phi: check exactly via the defining quadratic
    assert large.lo ** 2 - large.lo - 1 <= 0 <= large.hi ** 2 - large.hi - 1
    assert all(m.width <= PREC for m in ms)


def test_cube_root_two_moduli():
    ms = root_moduli(IntPolynomial([-2, 0, 0, 1]), PREC)
    assert len(ms) == 3
    for m in ms:
        assert m.lo ** 3 <= 2 <= m.hi ** 3


def test_unit_modulus_pair():
    # 5x^2 - 6x + 5 has roots (3 +- 4i)/5 of modulus exactly 1
    ms = root_moduli(IntPolynomial([5, -6, 5]), PREC)
    assert len(ms) == 2
    for m in ms:
        assert m.contains(1)


def test_multiplicity_and_zero_roots():
    f = IntPolynomial([-2, 0, 1]) ** 2 * IntPolynomial([0, 1])
    ms = root_moduli(f, PREC)
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
        boxes = ordered_root_boxes(prim, Fraction(1, 10 ** 10))
        n_real_sturm = len(isolate_real_roots(prim))
        complex_boxes = sum(1 for re, im in boxes if not im.contains(0))
        real_boxes = sum(1 for re, im in boxes if im.contains(0))
        assert complex_boxes % 2 == 0
        assert real_boxes == n_real_sturm
        done += 1


def test_ordered_boxes_deterministic():
    f = IntPolynomial([1, 1, 1, 1, 1])
    a = ordered_root_boxes(f, Fraction(1, 10 ** 10))
    b = ordered_root_boxes(f, Fraction(1, 10 ** 10))
    assert [(x.lo, x.hi, y.lo, y.hi) for x, y in a] == [
        (x.lo, x.hi, y.lo, y.hi) for x, y in b
    ]
    mids = [(x.mid, y.mid) for x, y in a]
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
        root_disks(g, Fraction(1, 10 ** 48))
    assert [a[1:] for a in calls] == [(40, 1)]


def test_unconverged_mpmath_seeds_are_a_precision_error():
    # mpmath.polyroots stops at maxsteps on x (10^100 x - 1) (x^2 + 1)
    g = IntPolynomial([0, -1, 10 ** 100, -1, 10 ** 100])
    with pytest.raises(PrecisionError, match="at 40 digits; used 1 attempts, the cap is 8"):
        root_disks(g, Fraction(1, 10 ** 40))


def test_root_disk_budget_is_named(monkeypatch):
    # roots 0 and 1e-60 are closer than the first attempt's 2^-197 grid
    monkeypatch.setattr(roots, "_CERTIFY_ATTEMPTS", 1)
    g = IntPolynomial([0, 1]) * IntPolynomial([-1, 10 ** 60]) * IntPolynomial([1, 0, 1])
    with pytest.raises(
        PrecisionError, match=r"used 1 attempts of 40 Newton steps, up to \d+ bits; the cap is 1 attempts"
    ):
        root_disks(g, Fraction(1, 10 ** 48))
