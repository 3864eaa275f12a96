"""Sparse multivariate polynomials over Q or Q(alpha), normalized partial
derivatives, the Taylor shift P(x + a), and the weighted vanishing index.

Coefficients are Fractions or NumberFieldElements over one shared
generator; exponent vectors are dense tuples of length arity.  The
normalized derivative d_I carries the 1/I! factor, so it acts on
integer polynomials without leaving Z.  The coefficient of x^I in
P(x + a) is d_I P evaluated at a, so one shift yields every normalized
derivative at the point; the index is read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exceptions import DomainError
from .numberfield import NumberFieldElement

Scalar = Union[Fraction, NumberFieldElement]


def _coerce_scalar(c) -> Scalar:
    if isinstance(c, NumberFieldElement):
        return c
    return Fraction(c)


class MultiPoly:
    """Sparse polynomial in a fixed number of variables."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[Dict[Tuple[int, ...], Scalar]] = None):
        if arity < 1:
            raise DomainError("arity must be >= 1")
        self.arity = arity
        clean: Dict[Tuple[int, ...], Scalar] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise DomainError("exponent vector length differs from arity")
            if any(e < 0 for e in exps):
                raise DomainError("negative exponent")
            c = _coerce_scalar(c)
            if c != 0:
                clean[exps] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, c) -> "MultiPoly":
        return cls(arity, {tuple([0] * arity): c})

    @classmethod
    def variable(cls, arity: int, h: int) -> "MultiPoly":
        """The variable x_h, 0-indexed."""
        if not 0 <= h < arity:
            raise DomainError("variable index out of range")
        exps = [0] * arity
        exps[h] = 1
        return cls(arity, {tuple(exps): Fraction(1)})

    @classmethod
    def from_univariate(cls, coeffs: Sequence) -> "MultiPoly":
        return cls(1, {(k,): c for k, c in enumerate(coeffs)})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def partial_degrees(self) -> Tuple[int, ...]:
        if not self.terms:
            return tuple([0] * self.arity)
        return tuple(
            max(exps[h] for exps in self.terms) for h in range(self.arity)
        )

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __repr__(self):
        if self.is_zero():
            return f"MultiPoly({self.arity}, 0)"
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"x{h}^{e}" if e > 1 else f"x{h}"
                for h, e in enumerate(exps)
                if e > 0
            )
            parts.append(f"{self.terms[exps]}{'*' + mono if mono else ''}")
        return f"MultiPoly({self.arity}, {' + '.join(parts)})"

    # ---- ring operations ----

    def _check_arity(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise DomainError("mixed arities")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        self._check_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps, 0) + c
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return MultiPoly(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _coerce_scalar(other)
            if c == 0:
                return MultiPoly.zero(self.arity)
            return MultiPoly(
                self.arity, {e: v * c for e, v in self.terms.items()}
            )
        self._check_arity(other)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key, 0) + c1 * c2
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return MultiPoly(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = MultiPoly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ---- evaluation ----

    def evaluate(self, point: Sequence) -> Scalar:
        """Evaluate at a point of Fractions and/or NumberFieldElements."""
        if len(point) != self.arity:
            raise DomainError("point length differs from arity")
        point = [p if isinstance(p, NumberFieldElement) else Fraction(p) for p in point]
        degs = self.partial_degrees()
        powers = []
        for h in range(self.arity):
            cache = [Fraction(1)]
            for _ in range(degs[h]):
                cache.append(cache[-1] * point[h])
            powers.append(cache)
        total: Scalar = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for h, e in enumerate(exps):
                if e:
                    term = term * powers[h][e]
            total = total + term
        return total


# ---------------------------------------------------------------------------
# normalized derivatives and the index


def normalized_derivative(P: MultiPoly, index: Sequence[int]) -> MultiPoly:
    """The operator (1/i_1! ... 1/i_m!) d^I applied to P.

    Acts termwise: the coefficient of x^J in the result is
    prod_h C(J_h + I_h, I_h) times the coefficient of x^(J+I) in P.
    """
    index = tuple(int(i) for i in index)
    if len(index) != P.arity:
        raise DomainError("multi-index length differs from arity")
    if any(i < 0 for i in index):
        raise DomainError("multi-index entries must be >= 0")
    out: Dict[Tuple[int, ...], Scalar] = {}
    for exps, c in P.terms.items():
        if any(e < i for e, i in zip(exps, index)):
            continue
        target = tuple(e - i for e, i in zip(exps, index))
        binom = 1
        for e, i in zip(exps, index):
            binom *= math.comb(e, i)
        out[target] = c * binom
    return MultiPoly(P.arity, out)


@dataclass(frozen=True)
class IndexValue:
    """Weighted vanishing order; value None encodes +infinity (P = 0)."""

    value: Optional[Fraction]

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __le__(self, other):
        q = Fraction(other)
        return not self.is_infinite and self.value <= q

    def __ge__(self, other):
        return self.is_infinite or self.value >= Fraction(other)

    def __repr__(self):
        return "IndexValue(inf)" if self.is_infinite else f"IndexValue({self.value})"


def check_weights(weights: Sequence[int], arity: int) -> Tuple[int, ...]:
    weights = tuple(int(r) for r in weights)
    if len(weights) != arity:
        raise DomainError("weight vector length differs from arity")
    if any(r < 1 for r in weights):
        raise DomainError("weights must be positive integers")
    return weights


def taylor_shift(P: MultiPoly, point: Sequence) -> MultiPoly:
    """P(x + point): the coefficient of x^I is d_I P evaluated at the point.

    Shifts one variable at a time: x_h^k becomes sum_j C(k, j) a_h^(k-j) x_h^j,
    with the powers of a_h computed once per variable.  Terms that cancel
    are dropped by the MultiPoly constructor.
    """
    if len(point) != P.arity:
        raise DomainError("point length differs from arity")
    shifted = P
    for h, a in enumerate(point):
        a = _coerce_scalar(a)
        if a == 0:
            continue
        powers = [Fraction(1)]
        for _ in range(max((exps[h] for exps in shifted.terms), default=0)):
            powers.append(powers[-1] * a)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for exps, c in shifted.terms.items():
            k = exps[h]
            head, tail = exps[:h], exps[h + 1 :]
            for j in range(k + 1):
                key = head + (j,) + tail
                term = c if j == k else powers[k - j] * math.comb(k, j) * c
                out[key] = out[key] + term if key in out else term
        shifted = MultiPoly(P.arity, out)
    return shifted


def weight_steps(weights: Sequence[int]) -> Tuple[int, List[int]]:
    """(D, [D // r_h]) for D = lcm(weights), so that
    sum i_h/r_h = sum i_h * (D // r_h) / D compares on integers."""
    D = math.lcm(*weights)
    return D, [D // r for r in weights]


def least_weighted_degree(P: MultiPoly, weights: Tuple[int, ...]) -> IndexValue:
    """min sum i_h/r_h over the monomials x^I of P: the index of P at the
    origin, +infinity for the zero polynomial."""
    if P.is_zero():
        return IndexValue(None)
    D, steps = weight_steps(weights)
    return IndexValue(
        Fraction(min(sum(i * s for i, s in zip(exps, steps)) for exps in P.terms), D)
    )


def index_at(
    P: MultiPoly, point: Sequence, weights: Sequence[int]
) -> IndexValue:
    """Index of P at the point with respect to the weights: the minimal
    sum i_h/r_h over multi-indices with a nonvanishing normalized
    derivative at the point.  +infinity for the zero polynomial.

    Read off the Taylor shift: the least weighted degree of a monomial
    of P(x + point).
    """
    weights = check_weights(weights, P.arity)
    if P.is_zero():
        return IndexValue(None)
    return least_weighted_degree(taylor_shift(P, point), weights)


def kronecker_substitution(P: MultiPoly, d: int) -> MultiPoly:
    """Univariate image under (x_1, ..., x_m) -> (t, t^d, ..., t^(d^(m-1))).

    Injective on monomials with all partial degrees < d.
    """
    if d < 1:
        raise DomainError("substitution base must be >= 1")
    out: Dict[Tuple[int, ...], Scalar] = {}
    for exps, c in P.terms.items():
        e = 0
        power = 1
        for x in exps:
            e += x * power
            power *= d
        key = (e,)
        acc = out.get(key, 0) + c
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return MultiPoly(1, out)
