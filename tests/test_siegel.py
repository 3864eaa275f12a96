import random
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dioph.siegel as siegel
from dioph.enclosure import Enclosure, iroot
from dioph.exceptions import DomainError, UnsupportedError
from dioph.intpoly import IntPolynomial, is_irreducible
from dioph.linalg import kernel_basis
from dioph.numberfield import (
    EMBEDDING_PRECISION,
    AlgebraicNumber,
    NumberFieldElement,
    box_abs2,
    box_mul,
    inverse_embedding_bound,
)
from dioph.roots import ordered_root_boxes
from dioph.siegel import (
    IntMatrix,
    NFMatrix,
    _coefficient_log_height,
    expand_nf_system,
    integer_coordinates,
    satisfies_size_bound,
    siegel_solve_NF,
    siegel_solve_Z,
)
from oracles import (
    coefficient_log_height_by_enclosures,
    embedding_matrix,
    enclosure_view,
    inverse_embedding_bound_by_enclosures,
    ordered_root_boxes_by_enclosures,
    pigeonhole_solve,
)

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))


def rand_system(rng):
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, 8)
    while True:
        entries = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        if any(c != 0 for row in entries for c in row):
            return IntMatrix(entries)


def test_examples():
    x = siegel_solve_Z(IntMatrix([[1, 2]]))
    assert list(x) != [0, 0]
    assert max(abs(v) for v in x) < 4
    x2 = siegel_solve_Z(IntMatrix([[1, 1, 1]]))
    assert sum(x2) == 0 and max(abs(v) for v in x2) == 1
    x3 = siegel_solve_Z(IntMatrix([[0, 0, 1], [0, 0, 2]]))
    assert x3[2] == 0 and any(v != 0 for v in x3)


def test_preconditions():
    with pytest.raises(DomainError):
        siegel_solve_Z(IntMatrix([[1, 0], [0, 1]]))  # M == N
    with pytest.raises(DomainError):
        siegel_solve_Z(IntMatrix([[0, 0, 0]]))


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5, True])
def test_int_matrix_rejects_non_integers(entry):
    # Fraction(3, 2) was truncated to 1, giving a "solution" (1, -1, 1)
    # outside the kernel of the given row
    with pytest.raises(DomainError):
        IntMatrix([[entry, 2, 1]])


def test_int_matrix_accepts_integral_fractions():
    assert IntMatrix([[Fraction(4, 2), 2, 1]]).entries == ((2, 2, 1),)


def test_kernel_basis_is_complete_and_unimodular():
    rng = random.Random(81)
    for _ in range(100):
        matrix = rand_system(rng)
        basis = kernel_basis(matrix.entries)
        m, n = matrix.nrows, matrix.ncols
        for b in basis:
            assert all(v == 0 for v in matrix.apply(b))
        # dimension: N - rank >= N - M
        assert len(basis) >= n - m


def test_random_systems_bound_and_oracle():
    rng = random.Random(82)
    for _ in range(200):
        matrix = rand_system(rng)
        m, n = matrix.nrows, matrix.ncols
        x = siegel_solve_Z(matrix)
        assert any(v != 0 for v in x)
        assert all(v == 0 for v in matrix.apply(x))
        assert satisfies_size_bound(x, n, m, matrix.max_abs())


def test_pigeonhole_oracle_small():
    rng = random.Random(83)
    done = 0
    while done < 40:
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 5)
        entries = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if all(c == 0 for row in entries for c in row):
            continue
        matrix = IntMatrix(entries)
        amax = matrix.max_abs()
        bound_pow = (n * amax) ** m
        box = 1
        while (box + 1) ** (n - m) < bound_pow:
            box += 1
        x = pigeonhole_solve(matrix, box)
        assert x is not None  # the lemma guarantees the box is nonempty
        assert all(v == 0 for v in matrix.apply(x))
        done += 1


def test_row_scaling_keeps_kernel_membership():
    rng = random.Random(84)
    for _ in range(60):
        matrix = rand_system(rng)
        scale = rng.choice([-3, -2, 2, 5])
        row = rng.randrange(matrix.nrows)
        scaled = IntMatrix(
            [
                [scale * c for c in r] if i == row else list(r)
                for i, r in enumerate(matrix.entries)
            ]
        )
        x = siegel_solve_Z(scaled)
        assert all(v == 0 for v in matrix.apply(x))


def test_nf_solve_examples():
    a = NumberFieldElement.generator(SQRT2)
    res = siegel_solve_NF(NFMatrix(SQRT2, [[1 + a, 1, 0, 0, 0]]))
    assert any(v != 0 for v in res.x)
    assert res.constraints == 2 and res.unknowns == 5
    assert res.log_height.hi <= res.certified_bound.hi

    res2 = siegel_solve_NF(NFMatrix(SQRT2, [[a, -1 * a, 0]]))
    assert any(v != 0 for v in res2.x)

    one = AlgebraicNumber.from_rational(1)
    nf = NFMatrix(one, [[2, 3, 1]])
    res3 = siegel_solve_NF(nf)
    assert res3.x == siegel_solve_Z(IntMatrix([[2, 3, 1]]))


def test_nf_solution_verified_exactly():
    rng = random.Random(85)
    gen = NumberFieldElement.generator(SQRT2)
    for _ in range(40):
        m = rng.randint(1, 2)
        n = rng.randint(2 * m + 1, 7)
        rows = []
        for _ in range(m):
            rows.append(
                [
                    NumberFieldElement(
                        SQRT2, [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
                    )
                    for _ in range(n)
                ]
            )
        if all(e.is_zero() for row in rows for e in row):
            continue
        mat = NFMatrix(SQRT2, rows)
        res = siegel_solve_NF(mat)
        for row in mat.entries:
            acc = NumberFieldElement.from_rational(SQRT2, 0)
            for e, v in zip(row, res.x):
                acc = acc + e * v
            assert acc.is_zero()
        assert res.log_height.hi <= res.certified_bound.hi


def test_nf_preconditions():
    a = NumberFieldElement.generator(SQRT2)
    with pytest.raises(DomainError):
        siegel_solve_NF(NFMatrix(SQRT2, [[a, 1]]))  # N <= d*M
    half = AlgebraicNumber(IntPolynomial([-1, 2]))  # 1/2, non-monic? degree 1 is fine
    nonmonic = AlgebraicNumber(IntPolynomial([-1, 0, 2]), interval=(0, 1))  # sqrt(1/2)
    b = NumberFieldElement.generator(nonmonic)
    with pytest.raises(UnsupportedError):
        siegel_solve_NF(NFMatrix(nonmonic, [[b, 1, 0, 0, 0]]))


def test_nf_solve_degree_three():
    cbrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
    b = NumberFieldElement.generator(cbrt2)
    mat = NFMatrix(cbrt2, [[1 + b + b * b, b, -1, 0, 2]])
    res = siegel_solve_NF(mat)
    acc = NumberFieldElement.from_rational(cbrt2, 0)
    for e, v in zip(mat.entries[0], res.x):
        acc = acc + e * v
    assert acc.is_zero()
    assert res.constraints == 3 and res.unknowns == 5
    assert res.c1.lo > 0
    assert res.log_height.hi <= res.certified_bound.hi


def test_rational_rep_scaling():
    # rational (non-integral) reps are row-scaled to integral before expansion
    a = NumberFieldElement.generator(SQRT2)
    half = NumberFieldElement(SQRT2, [Fraction(1, 2), Fraction(1, 3)])
    mat = NFMatrix(SQRT2, [[half, 1 + a, 0, 0, 0]])
    expanded = expand_nf_system(mat)
    assert all(
        isinstance(c, int) for row in expanded.entries for c in row
    )
    res = siegel_solve_NF(mat)
    acc = NumberFieldElement.from_rational(SQRT2, 0)
    for e, v in zip(mat.entries[0], res.x):
        acc = acc + e * v
    assert acc.is_zero()


def test_forced_enumeration_fallback_agrees_with_pigeonhole(monkeypatch):
    # no reduced basis vector is accepted, so every system goes to the
    # sup-norm enumeration of the kernel lattice
    monkeypatch.setattr(siegel, "satisfies_size_bound", lambda *args: False)
    rng = random.Random(86)
    oracle_checked = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(m + 1, min(14, m + 8))
        size = rng.choice([3, 10, 100])
        entries = [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]
        if all(c == 0 for row in entries for c in row):
            continue
        matrix = IntMatrix(entries)
        amax = matrix.max_abs()
        x = siegel_solve_Z(matrix)
        assert any(v != 0 for v in x)
        assert all(v == 0 for v in matrix.apply(x))
        assert satisfies_size_bound(x, n, m, amax)
        box = iroot((n * amax) ** m - 1, n - m)  # the largest box inside the bound
        if (2 * box + 1) ** ((n + 1) // 2) <= 300_000:
            assert pigeonhole_solve(matrix, box) is not None
            # the caps run 1, 2, 4, ..., box: the one before the cap that
            # found x held no solution
            top = max(abs(v) for v in x)
            if top > 1:
                assert pigeonhole_solve(matrix, 1 << ((top - 1).bit_length() - 1)) is None
            oracle_checked += 1
    assert oracle_checked >= 40


def test_nf_solve_certifies_the_root_boxes_once(monkeypatch):
    import dioph.numberfield as numberfield

    calls = []
    original = numberfield.ordered_root_boxes

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(numberfield, "ordered_root_boxes", counted)
    monkeypatch.setattr(siegel, "ordered_root_boxes", counted)
    cbrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
    b = NumberFieldElement.generator(cbrt2)
    siegel_solve_NF(NFMatrix(cbrt2, [[1 + b, b, -1, 0, 2]]))
    assert len(calls) == 1


def test_integer_coordinates_scale_each_row():
    a = NumberFieldElement.generator(SQRT2)
    half = NumberFieldElement(SQRT2, [Fraction(1, 2), Fraction(1, 3)])
    mat = NFMatrix(SQRT2, [[half, 1 + a, 0], [a, Fraction(-5, 7), 2]])
    assert integer_coordinates(mat) == [
        [(3, 2), (6, 6), (0, 0)],
        [(0, 7), (-5, 0), (14, 0)],
    ]
    assert expand_nf_system(mat).entries == (
        (3, 6, 0), (2, 6, 0), (0, -5, 14), (7, 0, 0)
    )


@st.composite
def monic_fields(draw):
    d = draw(st.integers(2, 8))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(d)] + [1]
    assume(coeffs[0] != 0 and is_irreducible(IntPolynomial(coeffs)))
    return coeffs


@settings(max_examples=100)
@given(
    coeffs=monic_fields(),
    rows=st.lists(
        st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8), min_size=1, max_size=6
    ),
)
@example(coeffs=[-2, 0, 1], rows=[[1, 1] + [0] * 6])  # real roots
@example(coeffs=[1, 0, 1], rows=[[-3, 2] + [0] * 6])  # non-real roots
@example(coeffs=[-1, -1, 0, 0, 0, 1], rows=[[1, -2, 3, -4, 5, 0, 0, 0], [0] * 8])
@example(coeffs=[-7, 2, 0, -3, 0, 0, 0, 0, 1], rows=[[-1, 2, -3, 4, -5, 6, -7, 8]])
def test_dyadic_boxes_agree_with_enclosure_oracle(coeffs, rows):
    # the integer mantissa route returns the very rationals of the
    # Enclosure route, not merely overlapping ones
    a = AlgebraicNumber(IntPolynomial(coeffs), conjugate_index=0)
    d = a.degree
    boxes = ordered_root_boxes(a.min_poly, EMBEDDING_PRECISION)
    views = ordered_root_boxes_by_enclosures(a.min_poly, EMBEDDING_PRECISION)
    assert enclosure_view(*boxes) == views
    assert inverse_embedding_bound(a, boxes=boxes) == inverse_embedding_bound_by_enclosures(
        a, EMBEDDING_PRECISION, views
    )
    # the retry without boxes certifies its own, on both routes
    assert inverse_embedding_bound(a) == inverse_embedding_bound_by_enclosures(
        a, EMBEDDING_PRECISION, None
    )
    # every power z^k and its |z^k|^2 is the Enclosure route's rational
    s, zs = boxes
    for z, row in zip(zs, embedding_matrix(views)):
        power = (1, 1, 0, 0)
        for k, w in enumerate(row):
            unit = Fraction(1, 1 << (k * s))
            assert Enclosure(power[0] * unit, power[1] * unit) == w.re
            assert Enclosure(power[2] * unit, power[3] * unit) == w.im
            lo, hi = box_abs2(power)
            assert Enclosure(lo * unit * unit, hi * unit * unit) == w._abs2()
            power = box_mul(power, z)
    entries = {tuple(row[:d]) for row in rows if any(row[:d])}
    err = Fraction(1, 10 ** 40)  # fine enough to see the box widths
    assert _coefficient_log_height(entries, d, err, boxes) == (
        coefficient_log_height_by_enclosures(entries, d, err, views)
    )


def _mpmath_log_height(coeffs, coords):
    """(1/d) sum over the roots of log max(1, max |a(root)|), at the
    working precision, for the integer coordinate tuples `coords`."""
    roots = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
    total = 0
    for r in roots:
        top = max([1] + [abs(sum(c * r ** k for k, c in enumerate(t))) for t in coords])
        total += mpmath.log(top)
    return total / len(roots)


def _mpmath_c1(coeffs):
    roots = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
    d = len(roots)
    W_inv = mpmath.matrix([[r ** k for k in range(d)] for r in roots]) ** -1
    return max(sum(abs(W_inv[k, r]) for r in range(d)) for k in range(d))


def _contains(enc, value):
    lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
    hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
    return lo <= value <= hi


@pytest.mark.parametrize(
    "coeffs",
    [[3, -1, 1], [-1, -1, 0, 0, 0, 1], [-7, 2, 0, -3, 0, 0, 0, 0, 1]],
    ids=["degree-2", "degree-5", "degree-8"],
)
def test_coefficient_height_against_mpmath(coeffs):
    # h(B) and the nominal bound against mpmath at three times the 20
    # digits of the error budget, with the row scaling done here
    rng = random.Random(len(coeffs))
    base = AlgebraicNumber(IntPolynomial(coeffs), conjugate_index=0)
    d = base.degree
    m = 2 if d < 8 else 1
    n = d * m + 3
    rows = [
        [
            NumberFieldElement(
                base, [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(d)]
            )
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    res = siegel_solve_NF(NFMatrix(base, rows), Fraction(1, 10 ** 20))
    coords = []
    for row in rows:
        den = lcm(*(c.denominator for e in row for c in e.rep))
        coords += [[int(c * den) for c in e.rep] for e in row]
    with mpmath.workdps(60):
        h = _mpmath_log_height(coeffs, coords)
        assert _contains(res.coeff_log_height, h)
        assert res.coeff_log_height.width < Fraction(1, 10 ** 13)
        c1 = _mpmath_c1(coeffs)
        nominal = mpmath.mpf(d * m) / (n - d * m) * (h + mpmath.log(n) + mpmath.log(c1))
        assert _contains(res.nominal_bound, nominal)
        assert res.nominal_bound.width < Fraction(1, 10 ** 12)
