import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioph.lattice as lattice
from dioph.exceptions import DomainError, UnsupportedError
from dioph.lattice import (
    ConvexBody,
    body_volume,
    minkowski_check,
    successive_minima,
    _enumerate_reduced,
    _rank_int,
)
from oracles import (
    brute_force_minima,
    exact_rank,
    lattice_points_in_cube,
    successive_minima_by_rank,
)


def unimodular(rng, n, shears=3):
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n == 1:
        return M
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def rand_body(rng, n):
    forms = unimodular(rng, n)
    # occasionally leave the unimodular world (dets != 1 probe products
    # strictly below 2^N)
    if rng.random() < 0.5:
        i = rng.randrange(n)
        s = rng.choice([2, 3, Fraction(1, 2), Fraction(3, 2)])
        forms[i] = [s * a for a in forms[i]]
    if n >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        forms[i] = [a + b for a, b in zip(forms[i], forms[j])]
        if rng.random() < 0.5:
            forms[i] = [2 * a for a in forms[i]]
    bounds = [
        Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)
    ]
    try:
        return ConvexBody(forms, bounds)
    except Exception:
        return ConvexBody(unimodular(rng, n), bounds)


def test_volume_examples():
    assert body_volume(ConvexBody([[1, 0], [0, 1]], [1, 1])) == 4
    assert body_volume(ConvexBody([[1, 0], [0, 1]], [Fraction(1, 2), 3])) == 6
    assert body_volume(ConvexBody([[1, 1], [0, 1]], [1, 1])) == 4


def test_body_validation():
    with pytest.raises(DomainError):
        ConvexBody([[1, 1], [2, 2]], [1, 1])
    with pytest.raises(DomainError):
        ConvexBody([[1, 0], [0, 1]], [1, 0])


def test_minima_examples():
    res = successive_minima(ConvexBody([[1, 0], [0, 1]], [1, 1]))
    assert res.lambdas == (1, 1)

    res2 = successive_minima(ConvexBody([[1, 0], [0, 1]], [Fraction(1, 2), 3]))
    assert res2.lambdas == (Fraction(1, 3), 2)
    assert res2.witnesses[0] == (0, 1)

    res3 = successive_minima(
        ConvexBody([[1, 0], [0, 1]], [Fraction(1, 5), Fraction(1, 5)])
    )
    assert res3.lambdas == (5, 5)


def test_minima_witness_membership():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 3)
        body = rand_body(rng, n)
        res = successive_minima(body)
        assert list(res.lambdas) == sorted(res.lambdas)
        assert _rank_int(res.witnesses) == n
        for lam, w in zip(res.lambdas, res.witnesses):
            assert body.gauge(w) == lam


def test_minkowski_examples():
    rep = minkowski_check(ConvexBody([[1, 0], [0, 1]], [1, 1]))
    assert rep.product == 4 and rep.upper_ok and rep.lower_ok

    rep2 = minkowski_check(ConvexBody([[1, 0], [0, 1]], [Fraction(1, 2), 3]))
    assert rep2.product == 4 and rep2.upper_ok and rep2.lower_ok


def test_identity_boxes_attain_upper_bound():
    rng = random.Random(102)
    for _ in range(20):
        n = rng.randint(1, 4)
        bounds = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)]
        forms = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rep = minkowski_check(ConvexBody(forms, bounds))
        assert rep.product == Fraction(2) ** n  # equality for axis boxes


def test_minkowski_random_bodies():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 4)
        rep = minkowski_check(rand_body(rng, n))
        assert rep.lower_ok and rep.upper_ok
        assert Fraction(2) ** n / factorial(n) <= rep.product <= Fraction(2) ** n


def test_scaling_law():
    rng = random.Random(104)
    for _ in range(25):
        n = rng.randint(1, 3)
        body = rand_body(rng, n)
        res = successive_minima(body)
        s = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        scaled = ConvexBody(body.forms, [s * c for c in body.bounds])
        res2 = successive_minima(scaled)
        # bounds scaled by s: every minimum scales by 1/s
        assert tuple(l * s for l in res2.lambdas) == res.lambdas
        assert body_volume(scaled) == body_volume(body) * s ** n
        p1 = body_volume(body)
        for l in res.lambdas:
            p1 *= l
        p2 = body_volume(scaled)
        for l in res2.lambdas:
            p2 *= l
        assert p1 == p2


def test_unimodular_invariance():
    rng = random.Random(105)
    for _ in range(100):
        n = rng.randint(1, 3)
        body = rand_body(rng, n)
        U = unimodular(rng, n)
        composed = ConvexBody(
            [
                [
                    sum(body.forms[i][k] * U[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ],
            body.bounds,
        )
        assert successive_minima(composed).lambdas == successive_minima(body).lambdas


def test_enumerate_reduced_matches_brute_force():
    rng = random.Random(106)
    shapes = [(k, n) for n in range(1, 5) for k in range(1, n + 1)]
    for k, n in shapes * 3:
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            if exact_rank(rows) == k:
                break
        for cap in (1, 2, 3):
            pairs = _enumerate_reduced(rows, cap)
            assert isinstance(pairs, list)
            found = set()
            for z, y in pairs:
                assert y == tuple(sum(c * r[j] for c, r in zip(z, rows)) for j in range(n))
                assert next(c for c in z if c != 0) > 0  # one of each +-pair
                found.add(y)
                found.add(tuple(-v for v in y))
            assert len(found) == 2 * len(pairs)
            assert found == lattice_points_in_cube(rows, cap), (rows, cap)


def test_successive_minima_match_brute_force():
    rng = random.Random(107)
    checked = 0
    while checked < 40:
        n = 1 + checked % 3
        body = rand_body(rng, n)
        lambdas = brute_force_minima(body)
        if lambdas is None:  # the oracle's box is too large to scan
            continue
        res = successive_minima(body)
        assert res.lambdas == lambdas
        assert exact_rank(res.witnesses) == n
        for lam, w in zip(res.lambdas, res.witnesses):
            assert body.gauge(w) == lam
        checked += 1


def test_enumeration_node_budget_names_budget_and_nodes(monkeypatch):
    monkeypatch.setattr(lattice, "_ENUM_NODE_BUDGET", 50)
    with pytest.raises(UnsupportedError, match=r"cap 10 used \d+ nodes, past its budget of 50"):
        _enumerate_reduced([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 10)


# ROADMAP's skewed 5-dim body: reduced rows of sup norm 23,562 to 1,701,700
SKEWED = ConvexBody(
    [[1, Fraction(1, 3), 0, 0, 0], [0, 1, Fraction(2, 7), 0, 0], [0, 0, 1, Fraction(5, 11), 0],
     [0, 0, 0, 1, Fraction(3, 13)], [Fraction(1, 17), 0, 0, 0, 1]],
    [Fraction(1, 50), 3, 2, 1, 7],
)


def test_skewed_body_stops_at_the_node_budget_without_a_point_list(monkeypatch):
    """The minima keep a basis, not the points met: 20,000 nodes into the
    skewed body the traced peak stays under 1 MB, where a list of the
    points met (about 280 bytes each) would pass 5 MB."""
    monkeypatch.setattr(lattice, "_ENUM_NODE_BUDGET", 20_000)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match=r"used \d+ nodes, past its budget of 20000"):
            successive_minima(SKEWED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@st.composite
def bodies(draw):
    """Unit shears of the identity, perhaps one scaled row, and bounds that
    are often all equal, so that many points share a gauge."""
    n = draw(st.integers(1, 5))
    forms = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 if n >= 4 else 4))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.sampled_from([-1, 1, 2]))
            forms[i] = [a + c * b for a, b in zip(forms[i], forms[j])]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        s = draw(st.sampled_from([2, Fraction(1, 2), Fraction(3, 2)]))
        forms[i] = [s * a for a in forms[i]]
    bound = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2])
    if draw(st.booleans()):
        bounds = [draw(bound)] * n
    else:
        bounds = [draw(bound) for _ in range(n)]
    return ConvexBody(forms, bounds)


@settings(max_examples=120)
@given(bodies())
def test_successive_minima_match_the_rank_greedy(body):
    res = successive_minima(body)
    assert res == successive_minima_by_rank(body)


def test_successive_minima_make_one_rank_call(monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "_rank_int", lambda vs: calls.append(vs) or _rank_int(vs))
    rng = random.Random(108)
    for k in range(1, 21):
        res = successive_minima(rand_body(rng, 1 + k % 4))
        assert len(calls) == k and calls[-1] == list(res.witnesses)
