"""Algebraic numbers and arithmetic in Q(alpha).

An AlgebraicNumber is an irreducible primitive integer polynomial with
positive leading coefficient together with a root selector: either a
rational isolating interval (real roots) or a conjugate index under the
canonical ordering of ordered_root_boxes.  NumberFieldElement represents
residue classes modulo the minimal polynomial in the power basis
1, alpha, ..., alpha^(d-1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .enclosure import Enclosure, sqrt_enclosure
from .exceptions import DomainError, PrecisionError
from .intpoly import (
    IntPolynomial,
    content_and_primitive,
    count_real_roots,
    is_irreducible,
    isolate_real_roots,
    refine_root_interval,
    _qdivmod,
)
from .linalg import laplace_det
from .roots import ordered_root_boxes

EMBEDDING_PRECISION = Fraction(1, 10 ** 15)


def _normalize_min_poly(poly: IntPolynomial) -> IntPolynomial:
    if poly.is_zero() or poly.degree < 1:
        raise DomainError("minimal polynomial must have degree >= 1")
    _, prim = content_and_primitive(poly)
    if prim.leading < 0:
        prim = -prim
    if not is_irreducible(prim):
        raise DomainError(f"{prim} is not irreducible over Q")
    return prim


class AlgebraicNumber:
    """A root of an irreducible integer polynomial, with a chosen root."""

    __slots__ = ("min_poly", "_interval", "conjugate_index")

    def __init__(
        self,
        min_poly: IntPolynomial,
        interval: Optional[Tuple[Fraction, Fraction]] = None,
        conjugate_index: Optional[int] = None,
    ):
        self.min_poly = _normalize_min_poly(min_poly)
        d = self.min_poly.degree
        if d == 1:
            v = Fraction(-self.min_poly.constant, self.min_poly.leading)
            self._interval = (v, v)
            self.conjugate_index = None
            return
        if (interval is None) == (conjugate_index is None):
            raise DomainError("specify exactly one of interval, conjugate_index")
        if conjugate_index is not None:
            if not 0 <= conjugate_index < d:
                raise DomainError("conjugate index out of range")
            self._interval = None
            self.conjugate_index = conjugate_index
            return
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo >= hi:
            raise DomainError("isolating interval must have positive width")
        if self.min_poly(lo) == 0 or self.min_poly(hi) == 0:
            raise DomainError("isolating interval endpoints must not be roots")
        if count_real_roots(self.min_poly, lo, hi) != 1:
            raise DomainError("interval does not isolate exactly one real root")
        self._interval = (lo, hi)
        self.conjugate_index = None

    # ---- constructors ----

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        return cls(IntPolynomial([-q.numerator, q.denominator]))

    @classmethod
    def real_roots_of(cls, poly: IntPolynomial) -> List["AlgebraicNumber"]:
        """All real roots of an irreducible poly, ascending."""
        prim = _normalize_min_poly(poly)
        return [cls(prim, interval=iv) for iv in isolate_real_roots(prim)]

    @classmethod
    def real_root(cls, poly: IntPolynomial, interval) -> "AlgebraicNumber":
        return cls(poly, interval=(Fraction(interval[0]), Fraction(interval[1])))

    # ---- basic structure ----

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def is_rational(self) -> bool:
        return self.degree == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("not a rational number")
        return self._interval[0]

    def is_real(self) -> bool:
        return self._interval is not None

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        if self.min_poly != other.min_poly:
            return False
        if self.is_rational():
            return True
        if self.conjugate_index is not None or other.conjugate_index is not None:
            return self.conjugate_index == other.conjugate_index
        a, b = self._interval
        c, d = other._interval
        return max(a, c) < min(b, d) or count_real_roots(
            self.min_poly, min(a, c), max(b, d)
        ) == 1

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        if self.is_rational():
            return f"AlgebraicNumber({self.rational_value()})"
        if self._interval is not None:
            lo, hi = self._interval
            return f"AlgebraicNumber({self.min_poly}, ({float(lo)}, {float(hi)}))"
        return f"AlgebraicNumber({self.min_poly}, conjugate {self.conjugate_index})"

    # ---- real root access ----

    def interval(self) -> Tuple[Fraction, Fraction]:
        if self._interval is None:
            raise DomainError("non-real root selector has no isolating interval")
        return self._interval

    def refine(self, width: Fraction) -> Tuple[Fraction, Fraction]:
        """Shrink the isolating interval below the given width (cached)."""
        lo, hi = self.interval()
        if hi - lo <= width:
            return lo, hi
        lo, hi = refine_root_interval(self.min_poly, (lo, hi), Fraction(width))
        self._interval = (lo, hi)
        return lo, hi

    def enclosure(self, width: Fraction) -> Enclosure:
        lo, hi = self.refine(Fraction(width))
        return Enclosure(lo, hi)

    def compare_rational(self, q) -> int:
        """-1, 0, or 1 as self <, ==, > q.  Zero only for rational selves."""
        q = Fraction(q)
        if self.is_rational():
            v = self.rational_value()
            return (v > q) - (v < q)
        if self.min_poly(q) == 0:
            # q would be a rational root of an irreducible poly of degree >= 2
            raise DomainError("rational root of an irreducible polynomial?")
        lo, hi = self.interval()
        while lo < q < hi:
            lo, hi = self.refine((hi - lo) / 4)
        return 1 if lo >= q else -1

    def floor(self) -> int:
        import math

        if self.is_rational():
            return math.floor(self.rational_value())
        lo, hi = self.interval()
        while math.floor(lo) != math.floor(hi):
            # an irrational value eventually separates from every integer
            lo, hi = self.refine((hi - lo) / 4)
        return math.floor(lo)

    def sign(self) -> int:
        if self.is_rational():
            v = self.rational_value()
            return (v > 0) - (v < 0)
        return self.compare_rational(0)

    # ---- exact transforms used by continued fractions ----

    def shift_int(self, a: int) -> "AlgebraicNumber":
        """self - a, as an algebraic number."""
        poly = self.min_poly.shift_int(a)
        lo, hi = self.interval()
        return AlgebraicNumber(poly, interval=(lo - a, hi - a))

    def reciprocal(self) -> "AlgebraicNumber":
        if self.is_rational():
            v = self.rational_value()
            if v == 0:
                raise DomainError("reciprocal of zero")
            return AlgebraicNumber.from_rational(1 / v)
        lo, hi = self.interval()
        while lo <= 0 <= hi:
            lo, hi = self.refine((hi - lo) / 4)
        poly = self.min_poly.reversed_poly()
        if poly.leading < 0:
            poly = -poly
        return AlgebraicNumber(poly, interval=(1 / hi, 1 / lo))


# ---------------------------------------------------------------------------
# elements of Q(alpha)


class NumberFieldElement:
    """Element of Q(alpha) in the power basis, reduced mod the min poly."""

    __slots__ = ("base", "rep")

    def __init__(self, base: AlgebraicNumber, rep: Sequence[Fraction]):
        self.base = base
        d = base.degree
        rep = [Fraction(c) for c in rep]
        if len(rep) >= d + 1 or any(c != 0 for c in rep[d:]):
            rep = _reduce_mod(rep, base.min_poly)
        rep = rep[:d] + [Fraction(0)] * (d - len(rep))
        self.rep = tuple(rep[:d])

    @classmethod
    def from_rational(cls, base: AlgebraicNumber, q) -> "NumberFieldElement":
        return cls(base, [Fraction(q)])

    @classmethod
    def generator(cls, base: AlgebraicNumber) -> "NumberFieldElement":
        if base.degree == 1:
            return cls(base, [base.rational_value()])
        return cls(base, [Fraction(0), Fraction(1)])

    def _check_same_base(self, other: "NumberFieldElement"):
        if self.base.min_poly != other.base.min_poly:
            raise DomainError("number field elements over different generators")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.rep)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.rep[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.rep[0]

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            return self.base.min_poly == other.base.min_poly and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rep[0] == Fraction(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.base.min_poly, self.rep))

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_base(other)
        return NumberFieldElement(
            self.base, [a + b for a, b in zip(self.rep, other.rep)]
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.base, [-c for c in self.rep])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same_base(other)
        prod = [Fraction(0)] * (2 * len(self.rep) - 1)
        for i, a in enumerate(self.rep):
            if a == 0:
                continue
            for j, b in enumerate(other.rep):
                prod[i + j] += a * b
        return NumberFieldElement(self.base, _reduce_mod(prod, self.base.min_poly))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = NumberFieldElement.from_rational(self.base, 1)
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def _coerce(self, other) -> "NumberFieldElement":
        if isinstance(other, NumberFieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement.from_rational(self.base, other)
        raise DomainError(f"cannot coerce {other!r} into the number field")

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DomainError("inverse of zero")
        f = [Fraction(c) for c in self.base.min_poly.coeffs]
        g = list(self.rep)
        # xgcd over Q[x]: find u with u*g = gcd mod f; gcd is a nonzero constant
        r0, r1 = f, _trim(g)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _qdivmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
        if not r1:
            raise DomainError("element is a zero divisor (reducible modulus?)")
        c = r1[0]
        return NumberFieldElement(self.base, [x / c for x in s1])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return f"NFElement({list(self.rep)} over {self.base.min_poly})"

    # ---- linear algebra over Q ----

    def multiplication_matrix(self) -> List[List[Fraction]]:
        """Matrix of y -> self*y in the power basis (columns indexed by basis)."""
        d = self.base.degree
        cols = []
        power = NumberFieldElement.from_rational(self.base, 1)
        gen = NumberFieldElement.generator(self.base)
        for _ in range(d):
            cols.append((self * power).rep)
            power = power * gen
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def char_poly(self) -> IntPolynomial:
        """Primitive integer polynomial proportional to det(x*I - M_self)."""
        M = self.multiplication_matrix()
        coeffs = _charpoly_faddeev(M)  # monic, rational, descending constant last
        from .intpoly import _q_to_primitive

        prim = _q_to_primitive(coeffs)
        if prim.leading < 0:
            prim = -prim
        return prim

    def min_poly_elem(self) -> IntPolynomial:
        """Minimal polynomial of this element (primitive, positive lc)."""
        from .intpoly import squarefree_part

        return squarefree_part(self.char_poly())

    def real_enclosure(self, width: Fraction) -> Enclosure:
        """Enclosure of the real value, for a real base selector."""
        width = Fraction(width)
        guess = Fraction(1, 4)
        for _ in range(60):
            box = self.base.enclosure(guess)
            acc = Enclosure.exact(0)
            for c in reversed(self.rep):
                acc = acc * box + c
            if acc.width <= width:
                return acc
            guess /= 16
        raise PrecisionError("number field element enclosure did not converge")


def _trim(v: List[Fraction]) -> List[Fraction]:
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _reduce_mod(rep: Sequence[Fraction], modulus: IntPolynomial) -> List[Fraction]:
    _, rem = _qdivmod([Fraction(c) for c in rep], modulus.to_fractions())
    return rem


def _charpoly_faddeev(M: List[List[Fraction]]) -> List[Fraction]:
    """Characteristic polynomial coefficients, ascending, monic of degree d."""
    d = len(M)
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    N = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        MN = [
            [sum(M[i][t] * N[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        trace = sum(MN[i][i] for i in range(d))
        ck = -trace / k
        coeffs[d - k] = ck
        N = [
            [MN[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)
        ]
    return coeffs


# ---------------------------------------------------------------------------
# minimal polynomial of powers


def power_min_poly(a: AlgebraicNumber, m: int) -> IntPolynomial:
    """Minimal polynomial of a**m for m >= 1: the squarefree part of the
    characteristic polynomial of multiplication by alpha**m in Q(alpha)."""
    if m < 1:
        raise DomainError("power_min_poly expects m >= 1")
    return (NumberFieldElement.generator(a) ** m).min_poly_elem()


# ---------------------------------------------------------------------------
# certified complex embeddings and the inverse-basis operator bound


class ComplexBox:
    """A complex rectangle re + i*im with enclosure parts.  Sums,
    products and negation are the exact interval operations."""

    __slots__ = ("re", "im")

    def __init__(self, re: Enclosure, im: Enclosure):
        self.re = re
        self.im = im

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ComplexBox":
        return ComplexBox(-self.re, -self.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def _abs2(self) -> Enclosure:
        return self.re * self.re + self.im * self.im

    def abs_upper(self, err: Fraction) -> Fraction:
        hi = max(self._abs2().hi, Fraction(0))
        return sqrt_enclosure(hi, err).hi

    def abs_lower(self) -> Fraction:
        lo = max(self._abs2().lo, Fraction(0))
        if lo == 0:
            return Fraction(0)
        return sqrt_enclosure(lo, Fraction(lo) / 4).lo


def embedding_matrix(a: AlgebraicNumber, precision: Fraction):
    """Complex boxes for W[r][k] = sigma_r(alpha)^k, canonically ordered rows."""
    boxes = ordered_root_boxes(a.min_poly, precision)
    d = a.degree
    W = []
    for re, im in boxes:
        row = [ComplexBox(Enclosure.exact(1), Enclosure.exact(0))]
        z = ComplexBox(re, im)
        for _ in range(1, d):
            row.append(row[-1] * z)
        W.append(row)
    return W


def inverse_embedding_bound(
    a: AlgebraicNumber, precision: Fraction = EMBEDDING_PRECISION
) -> Enclosure:
    """Certified interval for the sup-operator norm of W^{-1}.

    W is the power-basis embedding matrix; the norm bounds the power
    basis coordinates of an element by the largest |embedding|.
    Reported with outward rounding; use the upper endpoint.
    """
    precision = Fraction(precision)
    d = a.degree
    if d == 1:
        return Enclosure.exact(1)
    for _ in range(6):
        W = embedding_matrix(a, precision)
        det_W = laplace_det(W)
        det_lo = det_W.abs_lower()
        if det_lo > 0:
            det_hi = det_W.abs_upper(precision)
            err = precision
            lo_candidates = []
            hi_candidates = []
            for k in range(d):
                row_hi = Fraction(0)
                row_lo = Fraction(0)
                for r in range(d):
                    minor = [
                        [W[x][y] for y in range(d) if y != k]
                        for x in range(d)
                        if x != r
                    ]
                    cof = laplace_det(minor)
                    row_hi += cof.abs_upper(err)
                    row_lo += cof.abs_lower()
                hi_candidates.append(row_hi / det_lo)
                lo_candidates.append(row_lo / det_hi if det_hi > 0 else Fraction(0))
            # certified positive floor: |W^-1| >= 1/|W| for operator norms
            w_norm_hi = max(
                sum(W[r][k].abs_upper(err) for k in range(d))
                for r in range(d)
            )
            floor = 1 / w_norm_hi
            lo = max(max(lo_candidates), floor)
            hi = max(hi_candidates)
            return Enclosure(min(lo, hi), hi)
        precision /= 10 ** 4
    raise PrecisionError("embedding matrix determinant could not be separated from 0")
