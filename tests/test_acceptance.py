"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Every tolerance is pinned here; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import sys
import time
from fractions import Fraction


from dioph.approx import exponent_report, liouville_constant, liouville_scan
from dioph.heights import (
    is_root_of_unity,
    local_abs_product,
    support_places,
    weil_height_algebraic,
)
from dioph.intpoly import IntPolynomial, cyclotomic, euler_phi
from dioph.multipoly import MultiPoly, index_at, IndexValue, normalized_derivative
from dioph.numberfield import AlgebraicNumber, NumberFieldElement
from dioph.rothlab import (
    IndexSetSpec,
    build_aux_poly,
    count_index_set,
    roth_lemma_verify,
    vanishing_tuples,
    verify_aux_poly,
)
from dioph.siegel import IntMatrix, satisfies_size_bound, siegel_solve_Z
from oracles import pigeonhole_solve
from dioph.lattice import ConvexBody, minkowski_check
from dioph.wronskian import are_linearly_independent, _coefficient_rank
from dioph.heights import height_polynomial

SQRT2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(1, 2))
PHI = AlgebraicNumber(IntPolynomial([-1, -1, 1]), interval=(1, 2))


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[criterion {self.number:02d}] {self.label}: {status} "
            f"({elapsed:.2f}s, limit {self.limit}s)",
            file=sys.stderr,
            flush=True,
        )
        if exc_type is None and elapsed > self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime limit: "
                f"{elapsed:.2f}s > {self.limit}s"
            )
        return False


def test_criterion_01_mahler_height_identity():
    with criterion(1, "Weil height of 2^(1/n) encloses 2^(1/n)", 5):
        for n in range(2, 11):
            poly = IntPolynomial([-2] + [0] * (n - 1) + [1])
            alpha = AlgebraicNumber(poly, interval=(1, 2))
            enc = weil_height_algebraic(alpha, Fraction(1, 10 ** 9)).enclosure
            # containment of 2^(1/n) checked exactly via n-th powers
            assert enc.lo ** n <= 2 <= enc.hi ** n
            assert enc.width <= Fraction(1, 10 ** 9)


def test_criterion_02_kronecker():
    with criterion(2, "cyclotomic heights are 1, orders correct", 10):
        ks = [k for k in range(1, 131) if euler_phi(k) <= 8]
        assert len(ks) >= 18
        for k in ks:
            poly = cyclotomic(k)
            if poly.degree == 1:
                alpha = AlgebraicNumber(poly)
            else:
                alpha = AlgebraicNumber(poly, conjugate_index=0)
            enc = weil_height_algebraic(alpha, Fraction(1, 10 ** 10)).enclosure
            assert enc.contains(1)
            assert enc.width < Fraction(1, 10 ** 10)
            flag, order = is_root_of_unity(alpha)
            assert flag and order == k
        enc = weil_height_algebraic(PHI, Fraction(1, 10 ** 10)).enclosure
        assert enc.lo > 1  # excludes 1


def test_criterion_03_siegel_suite():
    with criterion(3, "500 random small-solution systems", 60):
        rng = random.Random(20260809)
        oracle_checked = 0
        for _ in range(500):
            m = rng.randint(1, 3)
            n = rng.randint(m + 1, 8)
            entries = [
                [rng.randint(-10, 10) for _ in range(n)] for _ in range(m)
            ]
            if all(c == 0 for row in entries for c in row):
                entries[0][0] = 1
            matrix = IntMatrix(entries)
            x = siegel_solve_Z(matrix)
            assert any(v != 0 for v in x)
            assert all(v == 0 for v in matrix.apply(x))  # kernel, exact
            amax = matrix.max_abs()
            assert satisfies_size_bound(x, n, m, amax)  # strict, exact
            # independent pigeonhole oracle where the box is tractable
            bound_pow = (n * amax) ** m
            box = 1
            while (box + 1) ** (n - m) < bound_pow:
                box += 1
            if (2 * box + 1) ** ((n + 1) // 2) <= 300_000:
                assert pigeonhole_solve(matrix, box) is not None
                oracle_checked += 1
        assert oracle_checked >= 100


def test_criterion_04_index_algebra():
    with criterion(4, "index multiplicativity and the extremal case", 30):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        P = (x - 1) ** 2 * (y - 2) ** 3
        assert index_at(P, [Fraction(1), Fraction(2)], (2, 3)) == IndexValue(
            Fraction(2)
        )
        rng = random.Random(404)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
        done = 0
        while done < 300:
            arity = rng.randint(1, 3)
            point = [rng.choice(pool) for _ in range(arity)]
            weights = tuple(rng.randint(1, 4) for _ in range(arity))

            def vanishing_poly():
                terms = {}
                for _ in range(3):
                    exps = tuple(rng.randint(0, 2) for _ in range(arity))
                    terms[exps] = Fraction(rng.randint(-9, 9))
                Q = MultiPoly(arity, terms)
                if Q.is_zero():
                    Q = MultiPoly.constant(arity, 1)
                for h in range(arity):
                    e = rng.randint(0, 2)
                    if e:
                        factor = MultiPoly.variable(arity, h) - MultiPoly.constant(
                            arity, point[h]
                        )
                        Q = Q * factor ** e
                return Q

            P1, P2 = vanishing_poly(), vanishing_poly()
            if P1.is_zero() or P2.is_zero():
                continue
            i1 = index_at(P1, point, weights).value
            i2 = index_at(P2, point, weights).value
            assert index_at(P1 * P2, point, weights).value == i1 + i2
            done += 1


def test_criterion_05_wronskian_rank_equivalence():
    with criterion(5, "Wronskian vs rank on 300 families", 60):
        rng = random.Random(505)
        done = 0
        mismatches = 0
        while done < 300:
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            fam = []
            for _ in range(n):
                terms = {}
                for _ in range(4):
                    exps = tuple(rng.randint(0, 3) for _ in range(m))
                    terms[exps] = Fraction(rng.randint(-5, 5))
                fam.append(MultiPoly(m, terms))
            if any(p.is_zero() for p in fam):
                continue
            if rng.random() < 0.35 and n >= 2:
                combo = MultiPoly.zero(m)
                for p in fam[:-1]:
                    combo = combo + rng.randint(-3, 3) * p
                if combo.is_zero():
                    continue
                fam[-1] = combo
            expected = _coefficient_rank(fam) == n
            got, witness = are_linearly_independent(fam)
            if got != expected:
                mismatches += 1
            done += 1
        assert mismatches == 0


def test_criterion_06_index_set_grid():
    with criterion(6, "index-set count vs analytic bound on the grid", 30):
        rng = random.Random(606)
        for m in range(1, 13):
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                for r in range(1, 6):
                    spec = IndexSetSpec(m, eps, tuple([r] * m))
                    count, bound = count_index_set(spec)
                    assert count <= bound.hi
                for _ in range(3):  # mixed weight vectors
                    weights = tuple(rng.randint(1, 5) for _ in range(m))
                    count, bound = count_index_set(IndexSetSpec(m, eps, weights))
                    assert count <= bound.hi
        count, bound = count_index_set(IndexSetSpec(2, Fraction(1, 2), (2, 2)))
        assert count == 3
        assert bound.hi <= Fraction(873, 100)


def test_criterion_07_auxiliary_polynomial():
    with criterion(7, "auxiliary polynomial for sqrt(2), m=2, r=(3,3)", 10):
        res = build_aux_poly(SQRT2, 2, Fraction(1, 2), (3, 3))
        assert not res.poly.is_zero()
        gen = NumberFieldElement.generator(SQRT2)
        spec = IndexSetSpec(2, Fraction(1, 2), (3, 3))
        tuples = vanishing_tuples(spec)
        assert len(tuples) == 3
        for I in tuples:
            val = normalized_derivative(res.poly, I).evaluate([gen, gen])
            assert val == 0 or (
                hasattr(val, "is_zero") and val.is_zero()
            )
        assert res.index_lower.value >= Fraction(1, 2)
        # the reference witness is accepted by the verifier
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        ref = verify_aux_poly((x - y) ** 2, SQRT2, 2, Fraction(1, 2), (3, 3))
        assert ref["ok"]


def test_criterion_08_roth_lemma_verifier():
    with criterion(8, "50 hypothesis-satisfying index-bound instances", 30):
        rng = random.Random(808)
        done = 0
        while done < 50:
            m = rng.randint(1, 2)
            eta = Fraction(rng.randint(1, 4), 8)
            omega = eta ** (2 ** (m - 1))
            if m == 1:
                weights = (rng.randint(2, 12),)
            else:
                r1 = rng.randint(4, 12)
                r2 = max(1, int(r1 * omega))
                if Fraction(r2, r1) > omega:
                    continue
                weights = (r1, r2)
            if m == 1 and rng.random() < 0.6:
                j = rng.randint(1, min(2, weights[0]))
                P = MultiPoly.from_univariate([-2, 1]) ** j
            else:
                P = MultiPoly.constant(m, 1)
            h_poly = height_polynomial(P).exact
            need = (h_poly.numerator.bit_length() + 2 * m * weights[0] + 8) * 4
            betas = []
            for h in range(m):
                k = int(need / (omega * weights[h])) + rng.randint(8, 64)
                betas.append(Fraction(2 ** k))
            rep = roth_lemma_verify(P, betas, weights, eta)
            if not rep.hypotheses_hold:
                continue
            assert rep.conclusion_holds
            assert rep.index.is_infinite or rep.index.value <= 2 * m * eta
            done += 1


def test_criterion_09_liouville_scan():
    with criterion(9, "Liouville scans for sqrt(2) and phi", 60):
        c = liouville_constant(SQRT2, Fraction(1, 10 ** 9))
        assert c.width <= Fraction(1, 10 ** 9)
        # c = 1/(3 sqrt 2), certified exactly: (3c)^2 * 2 = 1
        assert ((c * 3) ** 2 * 2).contains(1)
        assert liouville_scan(SQRT2, 10 ** 5, sweep_limit=1000) == []
        assert liouville_scan(PHI, 10 ** 5, sweep_limit=1000) == []


def test_criterion_10_hurwitz_dirichlet():
    with criterion(10, "phi convergents: 1/q^2 bound and Hurwitz window", 10):
        records, summary = exponent_report(PHI, 1346269)
        assert summary.dirichlet_count == len(records)  # all satisfy 1/q^2
        # tail minimum of q^2|phi - p/q| over Fibonacci denominators
        # 89 <= q <= 1346269; the target window [0.4472, 0.46] pins the
        # indexing at F10 = 89 (at q = 55 the value is 0.44718, below it)
        tail = [r for r in records if 89 <= r.q <= 1346269]
        vals = [r.error * (r.q * r.q) for r in tail]
        lo = min(v.lo for v in vals)
        hi = min(v.hi for v in vals)
        assert Fraction(4472, 10 ** 4) <= lo
        assert hi <= Fraction(46, 100)


def test_criterion_11_roth_exponent_trend():
    with criterion(11, "max kappa decreases between q-ranges", 10):
        records, _ = exponent_report(SQRT2, 10 ** 4)
        early = [r.kappa for r in records if 2 <= r.q <= 100 and r.kappa]
        late = [r.kappa for r in records if 10 ** 3 <= r.q <= 10 ** 4 and r.kappa]
        assert early and late
        max_early_lo = max(k.lo for k in early)
        max_late_hi = max(k.hi for k in late)
        assert max_late_hi < max_early_lo  # strict decrease, certified
        assert all(k.lo > 2 for k in early)
        assert all(k.lo > 2 for k in late)


def test_criterion_12_minkowski_suite():
    with criterion(12, "200 random bodies obey both Minkowski bounds", 120):
        rng = random.Random(1212)
        saw_strict = 0
        for trial in range(200):
            n = rng.randint(1, 4)
            forms = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            if n > 1:
                for _ in range(rng.randint(1, 4)):
                    i, j = rng.sample(range(n), 2)
                    coef = rng.choice([-2, -1, 1, 2])
                    for k in range(n):
                        forms[i][k] += coef * forms[j][k]
            if rng.random() < 0.5:
                i = rng.randrange(n)
                s = rng.choice([2, 3, Fraction(1, 2), Fraction(3, 2)])
                forms[i] = [s * a for a in forms[i]]
            if n >= 2 and rng.random() < 0.4:
                i, j = rng.sample(range(n), 2)
                forms[i] = [2 * a + b for a, b in zip(forms[i], forms[j])]
            bounds = [
                Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)
            ]
            try:
                body = ConvexBody(forms, bounds)
            except Exception:
                body = ConvexBody(
                    [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                    bounds,
                )
            rep = minkowski_check(body)
            upper = Fraction(2) ** n
            assert rep.product <= upper  # exact
            assert rep.product >= upper / math.factorial(n)  # exact
            if rep.product < upper:
                saw_strict += 1
        assert saw_strict > 20  # the generator probes below the upper bound
        # identity boxes attain the upper bound with equality
        for n in (1, 2, 3, 4):
            forms = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            bounds = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
            rep = minkowski_check(ConvexBody(forms, bounds))
            assert rep.product == Fraction(2) ** n


def test_criterion_13_product_formula():
    with criterion(13, "product formula for 1000 random rationals", 5):
        rng = random.Random(1313)
        for _ in range(1000):
            num = rng.randint(-10 ** 6, 10 ** 6) or 1
            den = rng.randint(1, 10 ** 6)
            q = Fraction(num, den)
            assert local_abs_product(q, support_places(q)) == 1  # exact
