import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import approx
from dioph.approx import (
    CF_TERMS_CAP,
    continued_fraction,
    convergents_up_to,
    error_enclosure,
    exponent_report,
    liouville_constant,
    liouville_scan,
)
from dioph.enclosure import Enclosure, log_enclosure
from dioph.exceptions import DomainError, PrecisionError, UnsupportedError
from dioph.intpoly import IntPolynomial, isolate_real_roots
from dioph.numberfield import AlgebraicNumber

from oracles import liouville_scan_by_candidates, liouville_verdict_by_enclosure

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
PHI = AlgebraicNumber(IntPolynomial([-1, -1, 1]), interval=(1, 2))
CBRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))


def test_cf_sqrt2():
    cf = continued_fraction(SQRT2, 5)
    assert cf.partial_quotients == [1, 2, 2, 2, 2]
    assert cf.convergents == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert not cf.terminated


def test_cf_phi():
    cf = continued_fraction(PHI, 7)
    assert cf.partial_quotients == [1] * 7
    # convergents are ratios of consecutive Fibonacci numbers
    assert cf.convergents[-1] == (21, 13)


def test_cf_rational_terminates():
    cf = continued_fraction(AlgebraicNumber.from_rational(Fraction(7, 3)), 10)
    assert cf.partial_quotients == [2, 3]
    assert cf.terminated
    assert cf.convergents[-1] == (7, 3)


def test_cf_negative_rational():
    cf = continued_fraction(AlgebraicNumber.from_rational(Fraction(-7, 3)), 10)
    p, q = cf.convergents[-1]
    assert Fraction(p, q) == Fraction(-7, 3)


def test_cf_rejects_complex_selector():
    zeta = AlgebraicNumber(IntPolynomial([1, 1, 1, 1, 1]), conjugate_index=0)
    with pytest.raises(DomainError):
        continued_fraction(zeta, 3)


def test_cf_cubic():
    cf = continued_fraction(CBRT2, 8)
    assert cf.partial_quotients == [1, 3, 1, 5, 1, 1, 4, 1]


def test_cf_builds_no_algebraic_number_per_quotient(monkeypatch):
    alpha = AlgebraicNumber(IntPolynomial([-1, 1, -4, 1]), interval=(3, 4))
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(args)
        raise AssertionError(f"AlgebraicNumber built during the expansion: {args}")

    monkeypatch.setattr(AlgebraicNumber, "__init__", counting_init)
    cf = continued_fraction(alpha, 50)
    assert len(cf.partial_quotients) == 50
    assert built == []


def test_cf_terms_above_the_cap_are_refused():
    with pytest.raises(UnsupportedError):
        continued_fraction(SQRT2, CF_TERMS_CAP + 1)
    assert len(continued_fraction(SQRT2, CF_TERMS_CAP).partial_quotients) == CF_TERMS_CAP


# ---------------------------------------------------------------------------
# the oracle: floor-and-invert on a 3,000-digit mpmath value


def _mpmath_quotients(x, n_terms):
    out = []
    for _ in range(n_terms):
        a = int(mpmath.floor(x))
        out.append(a)
        x = 1 / (x - a)
    return out


def _check_against_mpmath(coeffs, lo, hi, n_terms):
    """The first n_terms quotients of the root of sum coeffs[i] x^i in
    (lo, hi) equal the expansion of that root at 3,000 digits."""
    alpha = AlgebraicNumber(IntPolynomial(coeffs), interval=(lo, hi))
    cf = continued_fraction(alpha, n_terms)
    with mpmath.workdps(3000):
        root = mpmath.findroot(
            lambda t: mpmath.polyval(list(reversed(coeffs)), t),
            (mpmath.mpf(lo.numerator) / lo.denominator, mpmath.mpf(hi.numerator) / hi.denominator),
            solver="anderson",
        )
        expected = _mpmath_quotients(root, n_terms)
    # floor-and-invert up to q loses about 2 log10(q) of the 3,000 digits
    assert len(str(cf.convergents[-1][1])) < 1400
    assert cf.partial_quotients == expected
    return alpha


def test_cbrt2_thousand_terms_match_mpmath():
    _check_against_mpmath([-2, 0, 0, 1], Fraction(1), Fraction(2), 1000)


def test_random_cubics_and_quartics_match_mpmath():
    rng = random.Random(20251)
    x = sympy.Symbol("x")
    seen = {"non_largest": 0, "negative": 0, "non_monic": 0}
    draws = 0
    while draws < 20:
        degree = 3 + draws % 2
        lead = 1 if draws % 3 == 0 else rng.randint(2, 9)
        coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [lead]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if coeffs[0] == 0 or not poly.is_irreducible:
            continue
        intervals = poly.intervals()
        if not intervals:
            continue
        k = draws % len(intervals)
        (lo, hi), _ = intervals[k]
        lo, hi = Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))
        alpha = _check_against_mpmath(coeffs, lo, hi, 200)
        seen["non_largest"] += k < len(intervals) - 1
        seen["negative"] += alpha.sign() < 0
        seen["non_monic"] += lead != 1
        draws += 1
    assert all(seen.values()), seen


def test_error_enclosure_positive():
    enc = error_enclosure(SQRT2, 3, 2)
    assert enc.lo > 0
    assert enc.lo <= Fraction(3, 2) - 1 or True
    # |sqrt2 - 3/2| = 3/2 - sqrt2: check via squares
    assert (Fraction(3, 2) - enc.hi) ** 2 <= 2 <= (Fraction(3, 2) - enc.lo) ** 2


def test_error_enclosure_is_independent_of_refinement_history():
    # the reported cell of the 2**-40-relative grid depends on |alpha - p/q| alone
    refined = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
    refined.refine(Fraction(1, 10 ** 600))
    for p, q in ((4, 3), (3, 2), (1, 1), (7, 5), (99, 70), (577, 408)):
        fresh = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
        enc = error_enclosure(refined, p, q)
        assert enc == error_enclosure(fresh, p, q)
        assert enc.lo.denominator < 2 ** 80 and enc.hi.denominator < 2 ** 80
        assert enc.lo > 0 and enc.width * 2 ** 40 <= enc.lo


def test_liouville_constant_values():
    c = liouville_constant(SQRT2, Fraction(1, 10 ** 9))
    # c = 1/(3 sqrt2): certified via (3c)^2 * 2 = 1
    prod = (c * 3) ** 2 * 2
    assert prod.contains(1)
    assert c.width <= Fraction(1, 10 ** 9)

    c2 = liouville_constant(PHI, Fraction(1, 10 ** 9))
    # c = 1/(3 phi): (3c) satisfies x^2 + x - 1 at 1/phi; check via phi identity
    inv = (c2 * 3).reciprocal()
    assert (inv * inv - inv - 1).contains(0)

    c3 = liouville_constant(CBRT2, Fraction(1, 10 ** 9))
    # c = 1/(9 * 2^(2/3)): (9c)^3 * 4 = 1
    assert ((c3 * 9) ** 3 * 4).contains(1)


def test_liouville_constant_rejects_rationals():
    with pytest.raises(DomainError):
        liouville_constant(AlgebraicNumber.from_rational(Fraction(1, 2)))


def test_liouville_scan_empty():
    assert liouville_scan(SQRT2, 10 ** 4, sweep_limit=300) == []
    assert liouville_scan(PHI, 10 ** 4, sweep_limit=300) == []
    assert liouville_scan(CBRT2, 10 ** 3, sweep_limit=100) == []
    quartic = AlgebraicNumber(IntPolynomial([-2, 0, 0, 0, 1]), interval=(1, 2))
    assert liouville_scan(quartic, 10 ** 3, sweep_limit=100) == []


def _fresh(alpha):
    return AlgebraicNumber(alpha.min_poly, interval=alpha.interval())


def _random_real_roots(rng, count, degrees):
    """count (alpha, mpmath value at 60 digits) pairs: a random real root
    of a random irreducible integer polynomial of a degree in degrees."""
    x = sympy.Symbol("x")
    out = []
    while len(out) < count:
        degree = rng.choice(degrees)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 4)]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if coeffs[0] == 0 or not poly.is_irreducible:
            continue
        roots = poly.real_roots()
        if not roots:
            continue
        k = rng.randrange(len(roots))
        f = IntPolynomial(coeffs)
        alpha = AlgebraicNumber(f, interval=isolate_real_roots(f)[k])
        with mpmath.workdps(60):
            out.append((alpha, mpmath.mpf(str(roots[k].evalf(70)))))
    return out


def test_fatou_candidates_hold_every_fraction_within_one_over_q_squared():
    # brute force: every p/q in lowest terms, q < 600, with |alpha - p/q| < 1/q^2
    rng = random.Random(7)
    q_max = 600
    checked = 0
    for alpha, value in _random_real_roots(rng, 30, (2, 3, 4, 5)):
        candidates = approx._fatou_candidates(alpha, q_max)
        assert all(1 <= q <= q_max for _, q in candidates)
        with mpmath.workdps(60):
            for q in range(1, q_max + 1):
                base = int(mpmath.floor(value * q))
                for p in (base, base + 1):
                    if math.gcd(p, q) == 1 and abs(value - mpmath.mpf(p) / q) < mpmath.mpf(1) / (q * q):
                        assert (p, q) in candidates, (alpha, p, q)
                        checked += 1
    assert checked > 200


def test_liouville_scan_builds_no_error_enclosure(monkeypatch):
    calls = []
    real = approx.error_enclosure
    monkeypatch.setattr(approx, "error_enclosure", lambda *a: calls.append(a) or real(*a))
    quartic = AlgebraicNumber(IntPolynomial([-2, 0, 0, 0, 1]), interval=(1, 2))
    for alpha, q_max, sweep in ((SQRT2, 10 ** 4, 300), (PHI, 10 ** 4, 300),
                                (CBRT2, 10 ** 3, 100), (quartic, 10 ** 3, 100)):
        assert liouville_scan(_fresh(alpha), q_max, sweep_limit=sweep) == []
    assert calls == []


def test_liouville_scan_takes_a_coarse_constant_from_the_caller(monkeypatch):
    c = liouville_constant(_fresh(SQRT2), Fraction(1, 10 ** 12))
    calls = []
    real = approx.liouville_constant
    monkeypatch.setattr(approx, "liouville_constant", lambda *a: calls.append(a) or real(*a))
    assert liouville_scan(_fresh(SQRT2), 10 ** 4, sweep_limit=50, coarse=c) == []
    assert calls == []
    # one wider than 1e-12 is replaced by the scan's own
    wide = Enclosure(c.lo, c.hi + Fraction(1, 10 ** 11))
    assert liouville_scan(_fresh(SQRT2), 10 ** 4, sweep_limit=50, coarse=wide) == []
    assert len(calls) == 1


_DECISION_SUBJECTS = [
    (IntPolynomial([-2, 0, 1]), 1),  # sqrt 2
    (IntPolynomial([-1, -1, 1]), 0),  # the conjugate of the golden ratio
    (IntPolynomial([-3, -1, 0, 2]), 0),  # the real root of 2x^3 - x - 3
    (IntPolynomial([1, -3, 0, 1]), 1),  # a root of x^3 - 3x + 1 in (0, 1)
    (IntPolynomial([-2, 0, 0, 0, 1]), 0),  # -2^(1/4)
]


def _verdict_by_exact_constants(alpha, p, q, c):
    """The oracle's verdict at c.lo and at c.hi: None when they differ,
    which is when c's window leaves |alpha - p/q| <= c/q^n open."""
    at_lo = liouville_verdict_by_enclosure(alpha, p, q, Enclosure.exact(c.lo))
    at_hi = liouville_verdict_by_enclosure(alpha, p, q, Enclosure.exact(c.hi))
    return at_lo if at_lo == at_hi else None


def test_integer_liouville_decision_matches_the_enclosure_oracle():
    seen = {"inside": 0, "tie": 0, "non_dyadic": 0, True: 0, False: 0, None: 0}

    @given(
        st.sampled_from(_DECISION_SUBJECTS),
        st.integers(0, 60),
        st.integers(1, 10 ** 6),
        st.integers(-2, 3),
        st.sampled_from(["near", "tie_lo", "tie_hi", "window_tie"]),
        st.integers(-30, 30),
        st.sampled_from([2, 3, 7]),
        st.integers(0, 40),
    )
    @settings(max_examples=300)
    def check(subject, refine_bits, q, offset, kind, t, base, s):
        poly, k = subject
        alpha = AlgebraicNumber(poly, interval=isolate_real_roots(poly)[k])
        alpha.refine(Fraction(1, 1 << refine_bits))
        lo, hi = alpha.interval()
        n = alpha.degree
        # p next to q * alpha, read off a copy refined far below 1/q^2
        fine = _fresh(alpha).refine(Fraction(1, 64 * q ** (n + 2)))[0]
        p = math.floor(fine * q) + offset
        x, qn = Fraction(p, q), q ** n
        if kind == "near":
            # c within base^-|t| (relative) of q^n |alpha - p/q|, below or above
            center = abs(fine - x) * qn
            assume(center > 0)
            c_lo = center * (1 + Fraction(1 if t >= 0 else -1, base ** abs(t) + 1))
            c = Enclosure(c_lo, c_lo * (1 + Fraction(1, base ** s)))
        else:
            # p/q + c.hi/q^n on hi, p/q - c.hi/q^n on lo, or the same for c.lo
            edge = hi - x if kind == "tie_hi" else x - lo
            assume(edge > 0)
            tie = edge * qn
            c = Enclosure(tie, tie * 2) if kind == "window_tie" else Enclosure(tie / 2, tie)
            seen["tie"] += 1
        seen["non_dyadic"] += c.lo.denominator & (c.lo.denominator - 1) != 0
        for r in (c.lo, c.hi):
            for point in (x - r / qn, x + r / qn):
                seen["inside"] += lo < point < hi
        verdict = approx._violates(alpha, p, q, c)
        assert verdict == _verdict_by_exact_constants(alpha, p, q, c)
        assert alpha.interval() == (lo, hi)
        seen[verdict] += 1

    check()
    assert all(seen.values()), seen


def test_liouville_violation_branch_matches_the_enclosure_oracle(monkeypatch):
    # with c = 1 exactly, every p/q with |alpha - p/q| <= 1/q^n is a violation
    one = Enclosure.exact(Fraction(1))
    monkeypatch.setattr(approx, "liouville_constant", lambda alpha, precision=None: one)
    q_max, sweep = 150, 20
    subjects = [(_fresh(a), None) for a in (SQRT2, PHI, CBRT2)]
    subjects += _random_real_roots(random.Random(11), 4, (2, 3))
    reported_total = 0
    for alpha, value in subjects:
        if value is None:
            with mpmath.workdps(60):
                value = mpmath.findroot(
                    lambda t: mpmath.polyval(list(reversed(alpha.min_poly.coeffs)), t), 1.5
                )
        reported = {(v.p, v.q): v for v in liouville_scan(_fresh(alpha), q_max, sweep_limit=sweep)}
        expected = set()
        with mpmath.workdps(60):
            for q in range(1, q_max + 1):
                base = int(mpmath.floor(value * q))
                for p in range(base - 1, base + 3):
                    if (math.gcd(p, q) == 1 or q <= sweep) and liouville_verdict_by_enclosure(
                        alpha, p, q, one
                    ):
                        expected.add((p, q))
            assert set(reported) == expected
            for (p, q), v in reported.items():
                assert v.threshold.lo == v.threshold.hi == Fraction(1, q ** alpha.degree)
                # 60 digits resolve the enclosure's 2^-40 relative width
                err, slack = abs(value - mpmath.mpf(p) / q), 1 + mpmath.mpf(10) ** -50
                assert mpmath.mpf(v.error.lo.numerator) / v.error.lo.denominator <= err * slack
                assert err <= slack * v.error.hi.numerator / v.error.hi.denominator
        reported_total += len(reported)
    assert reported_total > 20


@st.composite
def _real_roots(draw):
    """A real root of an irreducible integer polynomial of degree 2-5,
    coefficients in [-9, 9], leading coefficient 1-4."""
    degree = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, 4)))
    assume(coeffs[0] != 0)
    assume(sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).is_irreducible)
    f = IntPolynomial(coeffs)
    intervals = isolate_real_roots(f)
    assume(intervals)
    return AlgebraicNumber(f, interval=intervals[draw(st.integers(0, 4)) % len(intervals)])


def _scan_rows(violations):
    return [(v.p, v.q, v.error, v.threshold) for v in violations]


def _reported_as_by_the_per_candidate_oracle():
    """Checks the scan against the oracle on drawn roots, q_max and sweep
    limits; returns the number of violations reported."""
    reported = []

    @given(_real_roots(), st.integers(1, 10 ** 6), st.sampled_from([0, 50, 200]))
    @settings(max_examples=40, deadline=None)
    def check(alpha, q_max, sweep):
        rows = _scan_rows(liouville_scan(_fresh(alpha), q_max, sweep_limit=sweep))
        assert rows == _scan_rows(liouville_scan_by_candidates(_fresh(alpha), q_max, sweep))
        reported.append(len(rows))

    check()
    return sum(reported)


def test_liouville_scan_matches_the_per_candidate_oracle():
    # Liouville's theorem: the true constant has no violation
    assert _reported_as_by_the_per_candidate_oracle() == 0


def test_liouville_violations_match_the_per_candidate_oracle(monkeypatch):
    # with c = 1 exactly every p/q with |alpha - p/q| <= 1/q^n is reported
    one = Enclosure.exact(Fraction(1))
    monkeypatch.setattr(approx, "liouville_constant", lambda alpha, precision=None: one)
    assert _reported_as_by_the_per_candidate_oracle() >= 100


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("end", ["inside", "on_lo", "on_hi"])
@pytest.mark.parametrize("poly", [IntPolynomial([-2, 0, 1]), IntPolynomial([-2, 0, 0, 1]),
                                  IntPolynomial([-1, -1, 0, 0, 0, 1])], ids=["n2", "n3", "n5"])
def test_liouville_windows_ending_in_or_on_the_interval(monkeypatch, poly, end, side):
    # c is chosen so that the window of a sweep candidate p/q ends strictly
    # inside the isolating interval (on alpha's near side) or on one of its
    # ends; the interval is refined beforehand, so the scan does not move it
    alpha = AlgebraicNumber(poly, interval=(1, 2))
    lo, hi = alpha.refine(Fraction(1, 2 ** 100))
    flo, fhi = _fresh(alpha).refine((hi - lo) / 1000)
    q, qn = 7, 7 ** alpha.degree
    base = lo.numerator * q // lo.denominator
    if side == "above":  # p/q > alpha, window end p/q - c/q^n
        p = base + 2
        target = {"inside": (lo + flo) / 2, "on_lo": lo, "on_hi": hi}[end]
        c = (Fraction(p, q) - target) * qn
    else:  # p/q < alpha, window end p/q + c/q^n
        p = base - 1
        target = {"inside": (fhi + hi) / 2, "on_lo": lo, "on_hi": hi}[end]
        c = (target - Fraction(p, q)) * qn
    coarse = Enclosure.exact(c)
    sign_tested = []
    real = approx._violates
    with monkeypatch.context() as m:
        m.setattr(approx, "_violates", lambda a, *t: sign_tested.append(t[:2]) or real(a, *t))
        rows = _scan_rows(liouville_scan(_fresh(alpha), 1000, sweep_limit=50, coarse=coarse))
    assert alpha.interval() == (lo, hi)
    assert rows == _scan_rows(liouville_scan_by_candidates(_fresh(alpha), 1000, 50, coarse))
    # alpha lies in the window exactly when its end is on alpha's near side;
    # an end on the far side settles the candidate without a sign test
    near = end == "inside" or end == ("on_lo" if side == "above" else "on_hi")
    assert ((p, q) in {(r[0], r[1]) for r in rows}) == near
    assert ((p, q) in sign_tested) == near


def test_liouville_scan_settles_candidates_on_the_endpoints(monkeypatch):
    # the sweep's candidates lie far from alpha; none needs a sign test
    calls = []
    real = approx._violates
    monkeypatch.setattr(approx, "_violates", lambda *a: calls.append(a) or real(*a))
    for alpha in (SQRT2, PHI, CBRT2):
        assert liouville_scan(_fresh(alpha), 10 ** 6, sweep_limit=200) == []
    assert calls == []


def test_liouville_scan_retries_an_undecided_candidate_once(monkeypatch):
    # a window [1/10, 10] around c leaves |sqrt2 - 0/1| undecided at both precisions
    calls = []

    def wide(alpha, precision=None):
        calls.append(precision)
        return Enclosure(Fraction(1, 10), Fraction(10))

    monkeypatch.setattr(approx, "liouville_constant", wide)
    with pytest.raises(PrecisionError, match="0/1"):
        liouville_scan(_fresh(SQRT2), 100, sweep_limit=10)
    assert calls == [Fraction(1, 10 ** 12), Fraction(1, 10 ** 30)]


def test_precision_errors_name_the_budget(monkeypatch):
    # a fresh sqrt(2) in [1, 2]: two refinements leave |sqrt2 - 1| in many grid cells
    monkeypatch.setattr(approx, "_REFINE_ROUNDS", 2)
    fresh = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
    with pytest.raises(PrecisionError, match=r"\|alpha - 1/1\|.* used 2 refinements; the cap is 2"):
        error_enclosure(fresh, 1, 1)
    # a root-modulus enclosure that never narrows
    monkeypatch.setattr(approx, "max_root_modulus", lambda f, w: Enclosure(Fraction(1), Fraction(2)))
    with pytest.raises(PrecisionError, match=r"used 40 root-modulus widths down to 3\.6\de-80; "
                                             r"the cap is 40"):
        liouville_constant(SQRT2, Fraction(1, 10 ** 9))
    monkeypatch.setattr(approx, "liouville_constant",
                        lambda alpha, precision=None: Enclosure(Fraction(1, 10), Fraction(10)))
    with pytest.raises(PrecisionError, match=r"0/1: used c\(alpha\) to 1e-12 and 1e-30; the cap"):
        liouville_scan(_fresh(SQRT2), 100, sweep_limit=10)


def test_convergents_up_to():
    conv = convergents_up_to(SQRT2, 100)
    assert conv[-1][1] <= 100
    assert all(q1 < q2 for (_, q1), (_, q2) in zip(conv, conv[1:]))


def test_convergents_up_to_a_large_q_max_stay_under_the_cap():
    # 785 partial quotients reach a denominator above 10**300
    assert len(convergents_up_to(_fresh(SQRT2), 10 ** 300)) == 784


def test_q_max_needing_more_quotients_than_the_cap_is_refused(monkeypatch):
    # sqrt(2) needs 12 partial quotients to pass q = 10**4 (q = 5741, 13860)
    monkeypatch.setattr(approx, "CF_TERMS_CAP", 12)
    assert convergents_up_to(_fresh(SQRT2), 10 ** 4)[-1] == (8119, 5741)
    monkeypatch.setattr(approx, "CF_TERMS_CAP", 11)
    with pytest.raises(UnsupportedError, match="CF_TERMS_CAP = 11"):
        convergents_up_to(_fresh(SQRT2), 10 ** 4)
    with pytest.raises(UnsupportedError, match="CF_TERMS_CAP = 11"):
        liouville_scan(_fresh(SQRT2), 10 ** 4, sweep_limit=10)
    # a rational number's expansion ends before the cap
    assert convergents_up_to(AlgebraicNumber.from_rational(Fraction(13, 8)), 10 ** 4) == [
        (1, 1), (2, 1), (3, 2), (5, 3), (13, 8)]


def test_exponent_report_phi():
    records, summary = exponent_report(PHI, 832040)
    assert summary.dirichlet_count == len(records)
    # hurwitz liminf near 1/sqrt5 = 0.44721...
    lim = summary.hurwitz_liminf
    assert Fraction(44, 100) < lim.lo and lim.hi < Fraction(46, 100)
    assert summary.max_exponent.lo > 2


def test_exponent_report_sqrt2_trend():
    records, summary = exponent_report(SQRT2, 10 ** 4)
    early = [r.kappa for r in records if 2 <= r.q <= 100 and r.kappa]
    late = [r.kappa for r in records if 1000 <= r.q <= 10 ** 4 and r.kappa]
    max_early = max(k.lo for k in early)
    max_late = max(k.hi for k in late)
    assert max_late < max_early
    assert all(k.lo > 2 for k in early + late)


def test_roth_trend_dyadic_windows():
    # eventual absence of kappa >= 2.1 along dyadic ranges; the peak
    # kappa over nonempty windows is non-increasing (window populations
    # oscillate, so the raw hit counts cannot be compared directly)
    records, _ = exponent_report(SQRT2, 2 ** 18)
    threshold = Fraction(21, 10)
    peaks = []
    hits = []
    q0 = 2
    while q0 < 2 ** 17:
        window = [
            r for r in records if q0 <= r.q < 2 * q0 and r.kappa is not None
        ]
        if window:
            peaks.append(max(r.kappa.hi for r in window))
        hits.append(
            sum(1 for r in window if r.kappa.lo >= threshold)
        )
        q0 *= 2
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))
    last_hit = max(i for i, h in enumerate(hits) if h) if any(hits) else -1
    assert all(h == 0 for h in hits[last_hit + 1 :])
    assert hits[-1] == 0 and hits[-2] == 0  # absent in the largest windows


def test_hurwitz_finite_version():
    records, _ = exponent_report(PHI, 832040)
    for r in records:
        if r.q >= 55:
            val = r.error * (r.q * r.q)
            assert val.hi < Fraction(46, 100)


def test_kappa_is_the_quotient_of_the_log_enclosures():
    # each kappa is (-log_err)/log_q in Enclosure arithmetic on log_enclosure
    # at 1e-9, with log_err = [log(err.lo).lo, log(err.hi).hi]
    quartic = AlgebraicNumber(IntPolynomial([-1, -1, 0, 0, 1]), interval=(1, 2))
    err = Fraction(1, 10 ** 9)
    checked = 0
    for alpha, q_max in ((PHI, 10 ** 20), (SQRT2, 10 ** 30), (CBRT2, 10 ** 20), (quartic, 10 ** 12)):
        records, summary = exponent_report(_fresh(alpha), q_max)
        for r in records:
            if r.q < 2:
                assert r.kappa is None
                continue
            log_err = Enclosure(log_enclosure(r.error.lo, err).lo, log_enclosure(r.error.hi, err).hi)
            assert r.kappa == (-log_err) / log_enclosure(r.q, err)
            checked += 1
        assert summary.max_exponent.hi == max(r.kappa.hi for r in records if r.kappa)
    assert checked > 100
