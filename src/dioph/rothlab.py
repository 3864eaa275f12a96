"""The quantitative engine behind the approximation bounds: counting the
low-weight derivative index set, constructing an auxiliary integer
polynomial that vanishes to high weighted order at (alpha, ..., alpha),
checking the evaluated-derivative height bound, and verifying the
index-bound lemma on explicit instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import ceil, comb, prod
from typing import List, Optional, Sequence, Tuple

from .enclosure import Enclosure, exp_enclosure, log_enclosure
from .exceptions import (
    DomainError,
    InfeasibleError,
    InternalError,
    PrecisionError,
    UnsupportedError,
)
from .heights import HeightValue, height_polynomial, height_rational, nf_element_height
from .linalg import kernel_basis, primitive_vector
from .multipoly import (
    IndexValue,
    MultiPoly,
    check_weights,
    index_at,
    least_weighted_degree,
    normalized_derivative,
    taylor_shift,
    weight_steps,
)
from .numberfield import AlgebraicNumber, NumberFieldElement
from .siegel import NFMatrix, NFSiegelResult, expand_nf_system, siegel_solve_NF

# build_aux_poly refuses systems with more unknowns prod(r_h + 1) than this;
# at 121-128 unknowns a build takes 0.5-2.2 s, at 196 up to 18 s
AUX_UNKNOWNS_CAP = 128
# enclosure widths the two height comparisons try, each 10^-4 / 10^-6 of the last
_DERIVATIVE_ROUNDS, _HYPOTHESIS_ROUNDS = 6, 12


@dataclass(frozen=True)
class IndexSetSpec:
    """Parameters (m, epsilon, weights) of the low-weight index set."""

    m: int
    epsilon: Fraction
    weights: Tuple[int, ...]

    def __init__(self, m: int, epsilon, weights: Sequence[int]):
        epsilon = Fraction(epsilon)
        if m < 1:
            raise DomainError("m must be >= 1")
        if not 0 < epsilon < 1:
            raise DomainError("epsilon must lie in (0, 1)")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "weights", check_weights(weights, m))

    @property
    def threshold(self) -> Fraction:
        return Fraction(self.m) * (1 - self.epsilon) / 2


def count_index_set(spec: IndexSetSpec) -> Tuple[int, Enclosure]:
    """Exact count of tuples 0 <= i_h <= r_h with sum i_h/r_h <= m(1-eps)/2
    (boundary inclusive), next to the enclosure of the analytic bound
    prod(r_h + 1) * exp(-eps^2 m / 16)."""
    weights = spec.weights
    D, steps = weight_steps(weights)
    cap = int(spec.threshold * D)  # floor; integer weighted sums compare exactly
    if cap < 0:
        count = 0
    else:
        dp = [0] * (cap + 1)
        dp[0] = 1
        for r, step in zip(weights, steps):
            new = [0] * (cap + 1)
            for s in range(cap + 1):
                if dp[s] == 0:
                    continue
                top = min(r, (cap - s) // step)
                for i in range(top + 1):
                    new[s + i * step] += dp[s]
            dp = new
        count = sum(dp)
    box = 1
    for r in weights:
        box *= r + 1
    exponent = -spec.epsilon ** 2 * spec.m / 16
    bound = exp_enclosure(exponent, Fraction(1, 10 ** 12)) * box
    if count > bound.hi:
        raise InternalError("index-set count exceeded its analytic bound")
    return count, bound


def vanishing_tuples(spec: IndexSetSpec) -> List[Tuple[int, ...]]:
    """Multi-indices in the degree box with weighted sum strictly below
    the threshold: the derivative-vanishing constraints of the
    construction, ordered by weighted sum, then by tuple.  The sums are
    compared as integers over D = lcm(weights)."""
    D, steps = weight_steps(spec.weights)
    cap = ceil(spec.threshold * D)  # an integer w < threshold * D iff w < cap
    box = iter_product(*(range(r + 1) for r in spec.weights))
    weighted = sorted((sum(i * s for i, s in zip(t, steps)), t) for t in box)
    return [t for w, t in weighted if w < cap]


@dataclass
class AuxPolyResult:
    """An auxiliary polynomial together with its verified certificates."""

    poly: MultiPoly  # integer coefficients
    index_lower: IndexValue
    height: HeightValue
    height_ratio: Enclosure  # h(P) / (r_1 + ... + r_m)
    constraints: int  # rational constraints after degree-d expansion
    unknowns: int
    siegel: Optional[NFSiegelResult]  # present when the sized lemma applied


def _box_exponents(weights: Sequence[int]) -> List[Tuple[int, ...]]:
    return sorted(iter_product(*(range(r + 1) for r in weights)))


def build_aux_poly(
    alpha: AlgebraicNumber, m: int, epsilon, weights: Sequence[int]
) -> AuxPolyResult:
    """Nonzero P in Z[x_1..x_m], deg_h P <= r_h, with all normalized
    derivatives of weighted order below m(1-eps)/2 vanishing at
    (alpha, ..., alpha); the vanishing and the index are re-verified by
    verify_aux_poly on a Taylor shift of the result, apart from the
    linear system that produced it.

    Solvability is required only at the instance level: when the
    expanded system is underdetermined, the sized small-solution lemma
    supplies a height certificate; otherwise any nonzero kernel vector
    is accepted, and a trivial kernel raises InfeasibleError with the
    dimension counts.
    """
    if not alpha.min_poly.is_monic():
        raise UnsupportedError(
            "the construction requires an algebraic integer (monic minimal polynomial)"
        )
    spec = IndexSetSpec(m, epsilon, weights)
    weights = spec.weights
    n_unknowns = prod(r + 1 for r in weights)
    if n_unknowns > AUX_UNKNOWNS_CAP:
        raise UnsupportedError(
            f"the auxiliary system has {n_unknowns} unknowns; the cap is {AUX_UNKNOWNS_CAP}"
        )
    d = alpha.degree
    exps = _box_exponents(weights)
    constraints = vanishing_tuples(spec)
    gen = NumberFieldElement.generator(alpha)
    powers = [NumberFieldElement.from_rational(alpha, 1)]
    for _ in range(sum(weights)):
        powers.append(powers[-1] * gen)

    rows = []
    for I in constraints:
        row = []
        for J in exps:
            if any(j < i for j, i in zip(J, I)):
                row.append(NumberFieldElement.from_rational(alpha, 0))
                continue
            binom = 1
            for j, i in zip(J, I):
                binom *= comb(j, i)
            power = sum(J) - sum(I)
            row.append(powers[power] * binom)
        rows.append(row)

    m_eff = d * len(constraints)
    siegel_result = None
    if not rows:
        # no constraints at all: the constant polynomial 1 qualifies
        coeffs: Sequence[int] = [1] + [0] * (n_unknowns - 1)
    elif m_eff < n_unknowns:
        nf = NFMatrix(alpha, rows)
        siegel_result = siegel_solve_NF(nf)
        coeffs = siegel_result.x
    else:
        expanded = expand_nf_system(NFMatrix(alpha, rows))
        basis = [primitive_vector(b) for b in kernel_basis(expanded.entries)]
        if not basis:
            raise InfeasibleError(
                f"vanishing system has trivial kernel "
                f"({m_eff} constraints, {n_unknowns} unknowns)",
                constraints=m_eff,
                unknowns=n_unknowns,
            )
        coeffs = min(basis)

    poly = MultiPoly(
        m, {J: Fraction(c) for J, c in zip(exps, coeffs) if c != 0}
    )
    if poly.is_zero():
        raise InternalError("solver returned the zero polynomial")

    verification = verify_aux_poly(poly, alpha, m, epsilon, weights)
    if not verification["ok"]:
        raise InternalError(f"auxiliary polynomial failed verification: {verification}")

    height = height_polynomial(poly)
    r_sum = sum(weights)
    ratio = height.log_enclosure() * Fraction(1, r_sum)
    return AuxPolyResult(
        poly=poly,
        index_lower=verification["index"],
        height=height,
        height_ratio=ratio,
        constraints=m_eff,
        unknowns=n_unknowns,
        siegel=siegel_result,
    )


def verify_aux_poly(
    poly: MultiPoly, alpha: AlgebraicNumber, m: int, epsilon, weights: Sequence[int]
) -> dict:
    """Independent exact checks of an auxiliary-polynomial candidate:
    degree box, derivative vanishing at the diagonal point for every
    strictly-below-threshold multi-index, and the index lower bound.

    The last two are read off one Taylor shift P(x + (alpha, ..., alpha)),
    whose coefficient at x^I is the normalized derivative d_I P at the
    point; the solver's linear system plays no part."""
    spec = IndexSetSpec(m, epsilon, weights)
    weights = spec.weights
    degs = poly.partial_degrees()
    degree_ok = all(dg <= r for dg, r in zip(degs, weights))
    shifted = taylor_shift(poly, [NumberFieldElement.generator(alpha)] * m)
    vanishing_ok = not any(I in shifted.terms for I in vanishing_tuples(spec))
    idx = least_weighted_degree(shifted, weights)
    index_ok = idx.is_infinite or idx.value >= spec.threshold
    return {
        "ok": degree_ok and vanishing_ok and index_ok and not poly.is_zero(),
        "degree_ok": degree_ok,
        "vanishing_ok": vanishing_ok,
        "index_ok": index_ok,
        "index": idx,
        "threshold": spec.threshold,
    }


# ---------------------------------------------------------------------------
# the evaluated-derivative height bound


@dataclass
class DerivativeHeightReport:
    lhs: Enclosure  # H of the evaluated derivative
    rhs: Enclosure  # 4^(sum r) * H(P) * prod H(beta_h)^(r_h)
    holds: bool


def derivative_height_bound_check(
    poly: MultiPoly,
    betas: Sequence,
    index: Sequence[int],
    weights: Sequence[int],
    precision: Fraction = Fraction(1, 10 ** 9),
) -> DerivativeHeightReport:
    """Check H(d_J P(beta)) <= 4^(r_1+...+r_m) H(P) prod H(beta_h)^(r_h).

    P must have integer coefficients with deg_h P <= r_h.  Rational
    coordinates are decided exactly; coordinates in a shared Q(alpha)
    are decided by enclosure tightening.
    """
    weights = check_weights(weights, poly.arity)
    for c in poly.terms.values():
        if not isinstance(c, Fraction) or c.denominator != 1:
            raise DomainError("the bound is stated for integer coefficients")
    if any(dg > r for dg, r in zip(poly.partial_degrees(), weights)):
        raise DomainError("partial degrees exceed the weights")
    if len(betas) != poly.arity:
        raise DomainError("point length differs from arity")

    h_poly = height_polynomial(poly).exact
    r_sum = sum(weights)
    deriv = normalized_derivative(poly, index)

    coords = []
    for b in betas:
        if isinstance(b, AlgebraicNumber):
            if b.is_rational():
                coords.append(b.rational_value())
            else:
                coords.append(NumberFieldElement.generator(b))
        elif isinstance(b, NumberFieldElement):
            coords.append(b.rational_value() if b.is_rational() else b)
        else:
            coords.append(Fraction(b))

    # rational heights are exact, so an all-rational point is decided at once
    bases = {
        c.base.min_poly
        for c in coords
        if isinstance(c, NumberFieldElement)
    }
    if len(bases) > 1:
        raise UnsupportedError("algebraic coordinates must share one generator")
    val = deriv.evaluate(coords)
    if isinstance(val, Fraction):
        lhs_enc = Enclosure.exact(height_rational(val).exact)
    else:
        lhs_enc = nf_element_height(val, precision).enclosure
    prec = precision
    for _ in range(_DERIVATIVE_ROUNDS):
        rhs_enc = Enclosure.exact(Fraction(4) ** r_sum * h_poly)
        for b, r in zip(coords, weights):
            if isinstance(b, NumberFieldElement):
                hb = nf_element_height(b, prec).enclosure
            else:
                hb = Enclosure.exact(height_rational(b).exact)
            rhs_enc = rhs_enc * hb ** r
        if isinstance(val, NumberFieldElement):
            lhs_enc = nf_element_height(val, prec).enclosure
        if lhs_enc.hi <= rhs_enc.lo:
            return DerivativeHeightReport(lhs=lhs_enc, rhs=rhs_enc, holds=True)
        if lhs_enc.lo > rhs_enc.hi:
            return DerivativeHeightReport(lhs=lhs_enc, rhs=rhs_enc, holds=False)
        prec /= 10 ** 4
    raise PrecisionError(
        f"derivative height comparison stayed undecided: used {_DERIVATIVE_ROUNDS} widths "
        f"down to {float(prec * 10 ** 4):.3g}; the cap is {_DERIVATIVE_ROUNDS}")


# ---------------------------------------------------------------------------
# index-bound verifier


@dataclass
class RothLemmaReport:
    ratio_hypothesis_ok: bool
    height_hypothesis_ok: bool
    hypotheses_hold: bool
    index: IndexValue
    index_bound: Fraction  # 2 m eta
    conclusion_holds: bool


def roth_lemma_verify(
    poly: MultiPoly,
    betas: Sequence[Fraction],
    weights: Sequence[int],
    eta,
) -> RothLemmaReport:
    """Check the two hypotheses of the index-bound lemma on an explicit
    instance and compute the index at the point.

    When both hypotheses hold the conclusion Ind <= 2*m*eta is asserted;
    a counterexample would falsify the lemma and raises InternalError.
    Rational coordinates keep every height exact; the one comparison
    mixing logs of integers with the rational constant 2*m*r_1 is
    decided by enclosure refinement (equality is impossible since
    exp(2*m*r_1) is irrational).
    """
    eta = Fraction(eta)
    if not 0 < eta <= Fraction(1, 2):
        raise DomainError("eta must lie in (0, 1/2]")
    if poly.is_zero():
        raise DomainError("the lemma concerns nonzero polynomials")
    m = poly.arity
    weights = check_weights(weights, m)
    betas = [Fraction(b) for b in betas]
    if len(betas) != m:
        raise DomainError("point length differs from arity")
    if any(dg > r for dg, r in zip(poly.partial_degrees(), weights)):
        raise DomainError("partial degrees exceed the weights")

    omega = eta ** (2 ** (m - 1))
    ratio_ok = all(
        Fraction(weights[j + 1], weights[j]) <= omega for j in range(m - 1)
    )

    heights = [height_rational(b).exact for b in betas]
    # min_h r_h h(beta_h) located by exact integer power comparison
    best = 0
    for h in range(1, m):
        if _pow_less(heights[h], weights[h], heights[best], weights[best]):
            best = h
    h_poly = height_polynomial(poly).exact
    height_ok = _height_hypothesis_holds(
        omega, weights[best], heights[best], h_poly, 2 * m * weights[0]
    )

    idx = index_at(poly, betas, weights)
    bound = 2 * m * eta
    conclusion = idx.is_infinite or idx.value <= bound
    hypotheses = ratio_ok and height_ok
    if hypotheses and not conclusion:
        raise InternalError(
            "index-bound lemma hypotheses hold but the conclusion fails (bug)"
        )
    return RothLemmaReport(
        ratio_hypothesis_ok=ratio_ok,
        height_hypothesis_ok=height_ok,
        hypotheses_hold=hypotheses,
        index=idx,
        index_bound=bound,
        conclusion_holds=conclusion,
    )


def _pow_less(h1: Fraction, r1: int, h2: Fraction, r2: int) -> bool:
    """r1*log(h1) < r2*log(h2), exactly, for rational heights >= 1."""
    return h1 ** r1 < h2 ** r2


def _height_hypothesis_holds(
    omega: Fraction, r_star: int, h_star: Fraction, h_poly: Fraction, additive: int
) -> bool:
    """Decide omega * r_star * log(h_star) >= log(h_poly) + additive."""
    if h_star == 1:
        return False  # left side is zero, right side is positive
    err = Fraction(1, 10 ** 6)
    for _ in range(_HYPOTHESIS_ROUNDS):
        lhs = log_enclosure(h_star, err) * (omega * r_star)
        rhs = log_enclosure(h_poly, err) + additive
        if lhs.lo >= rhs.hi:
            return True
        if lhs.hi < rhs.lo:
            return False
        err /= 10 ** 6
    raise PrecisionError(
        f"height hypothesis comparison stayed undecided: used {_HYPOTHESIS_ROUNDS} widths "
        f"down to {float(err * 10 ** 6):.3g}; the cap is {_HYPOTHESIS_ROUNDS}")
