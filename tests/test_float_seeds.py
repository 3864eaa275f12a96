"""The float seeds of dioph.roots: the Aberth iteration against mpmath
roots, its ways back to the mpmath seeds, and clustered roots at degree
40."""

import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import roots
from dioph.intpoly import IntPolynomial, squarefree_part

LEHMER = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


@st.composite
def squarefree_polys(draw):
    """Squarefree polynomials of degree 2-12, half of them with two roots
    a and a + 1/N, N = 10**3, 10**8 or 10**20."""
    degree = draw(st.integers(2, 12))
    clustered = draw(st.booleans())
    base = draw(st.lists(st.integers(-9, 9), min_size=degree - 2 * clustered,
                         max_size=degree - 2 * clustered))
    f = IntPolynomial(base + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
    if clustered:
        inv_gap = 10 ** draw(st.sampled_from([3, 8, 20]))
        a = draw(st.integers(-3, 3))
        f = f * IntPolynomial([-inv_gap * a, inv_gap]) * IntPolynomial([-inv_gap * a - 1, inv_gap])
    g = squarefree_part(f)
    assume(g.degree >= 2)
    return g


@settings(max_examples=100)
@given(squarefree_polys())
def test_seeds_lie_near_the_mpmath_roots(g):
    bits, mantissas = roots._float_seeds(g)
    assert bits == 64 and len(mantissas) == g.degree  # the Aberth seeds, no fallback
    with mpmath.workdps(80):
        free = list(mpmath.polyroots([mpmath.mpf(c) for c in reversed(g.coeffs)],
                                     maxsteps=2000, extraprec=400))
        for x, y in mantissas:
            z = mpmath.mpc(mpmath.mpf(x) / 2 ** 64, mpmath.mpf(y) / 2 ** 64)
            k = min(range(len(free)), key=lambda k: abs(free[k] - z))
            assert abs(free[k] - z) <= 1e-6 * max(1, abs(z))
            del free[k]


def _recording_mpmath_seeds(monkeypatch):
    calls = []
    real = roots._mpmath_seeds
    monkeypatch.setattr(roots, "_mpmath_seeds",
                        lambda g, digits: calls.append(digits) or real(g, digits))
    return calls


@pytest.mark.parametrize("g", [
    IntPolynomial([1, 0, 10 ** 300]),  # a float, but not below 1e300
    IntPolynomial([-3, 1, 10 ** 400]),  # no float at all
], ids=["1e300", "1e400"])
def test_a_huge_coefficient_reaches_the_mpmath_seeds(monkeypatch, g):
    calls = _recording_mpmath_seeds(monkeypatch)
    bits, mantissas = roots._float_seeds(g)
    assert calls == [60] and len(mantissas) == 2


def test_a_spent_step_budget_reaches_the_mpmath_seeds(monkeypatch):
    monkeypatch.setattr(roots, "_ABERTH_STEPS", 1)
    assert roots._aberth([float(c) for c in LEHMER.coeffs]) is None
    calls = _recording_mpmath_seeds(monkeypatch)
    bits, mantissas = roots._float_seeds(LEHMER)
    assert calls == [60] and len(mantissas) == 10


def _clustered_degree_40():
    """(x - a)(x - a - 10**-8) times a random monic polynomial of degree 38."""
    rng = random.Random(40)
    N = 10 ** 8
    out = []
    for num, den in [(1, 1), (-1, 2), (3, 4), (0, 1), (2, 1)]:
        rest = IntPolynomial([rng.randint(-9, 9) for _ in range(38)] + [1])
        f = IntPolynomial([-N * num, N * den]) * IntPolynomial([-N * num - den, N * den]) * rest
        out.append(squarefree_part(f))
    return out


def test_degree_40_clusters_certify_at_the_first_attempt(monkeypatch):
    # np.roots seeds, used before the Aberth iteration, certified these at
    # attempts [1, 1, 1, 1, 2]; each failed attempt asks _mpmath_seeds for
    # the next one
    attempts = []
    for g in _clustered_degree_40():
        assert g.degree == 40
        calls = _recording_mpmath_seeds(monkeypatch)
        _, disks = roots.root_disks(g, (1, 10 ** 40))
        assert len(disks) == 40
        attempts.append(1 + len(calls))
    assert attempts == [1, 1, 1, 1, 1]
