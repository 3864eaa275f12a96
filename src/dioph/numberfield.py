"""Algebraic numbers and arithmetic in Q(alpha).

An AlgebraicNumber is an irreducible primitive integer polynomial with
positive leading coefficient together with a root selector: either a
rational isolating interval (real roots) or a conjugate index under the
canonical ordering of ordered_root_boxes.  A real root is compared with
a rational by one exact sign of the minimal polynomial, and with another
real root by a Sturm count over the hull of the two intervals.
A NumberFieldElement is a residue class modulo the minimal polynomial f
in the power basis 1, alpha, ..., alpha^(d-1), held as an integer vector
over one positive denominator in lowest terms, a canonical form (Cohen,
GTM 138, 4.2).  Reduction is intpoly.pseudo_divmod by f: the remainder
is s times the one over Q, for the scale s > 0 it returns, so a non-monic
f is reduced in Z as well and the denominator is multiplied by s; one gcd
at the end restores lowest terms.
The characteristic polynomial of an element is linalg.charpoly of its
multiplication matrix.

The complex embeddings are the root boxes of ordered_root_boxes: integer
mantissas at one binary scale, as roots returns them.  Products and sums
of boxes are exact integer operations, so the inverse-basis bound c1 and
the coefficient heights of the Siegel lemma are the rationals exact
interval arithmetic on the boxes would give, without Fraction arithmetic
and without rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .enclosure import Enclosure, floor_log2, root_mantissas
from .exceptions import DomainError, PrecisionError
from .intpoly import (
    IntPolynomial,
    content_and_primitive,
    count_real_roots,
    is_irreducible,
    pseudo_divmod,
    refine_root_interval,
    squarefree_part,
    _q_to_primitive,
)
from .linalg import charpoly, inverse as matrix_inverse
from .roots import Box, ordered_root_boxes

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

    __slots__ = ("min_poly", "_interval", "conjugate_index", "_sign_lo")

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
            self._sign_lo = None
            return
        if (interval is None) == (conjugate_index is None):
            raise DomainError("specify exactly one of interval, conjugate_index")
        if conjugate_index is not None:
            if not 0 <= conjugate_index < d:
                raise DomainError("conjugate index out of range")
            self._interval = None
            self.conjugate_index = conjugate_index
            self._sign_lo = None
            return
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo >= hi:
            raise DomainError("isolating interval must have positive width")
        self._sign_lo = self.min_poly.sign_at(lo)
        if self._sign_lo == 0 or self.min_poly.sign_at(hi) == 0:
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
        # the hull of two isolating intervals holds one root iff they isolate
        # the same one; overlapping intervals may still isolate different roots
        a, b = self._interval
        c, d = other._interval
        return count_real_roots(self.min_poly, min(a, c), max(b, d)) == 1

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
        return self.compare_ratio(q.numerator, q.denominator)

    def compare_ratio(self, n: int, d: int) -> int:
        """-1, 0, or 1 as self <, ==, > n/d, for integers n and d > 0.
        Zero only for rational selves.

        Exact, on integers, and leaves the interval alone.  Against the
        isolating interval lo < hi it cross-multiplies: n/d <= lo gives 1
        and n/d >= hi gives -1.  Strictly inside, one sign test decides,
        since the interval holds one simple root and no endpoint is a root:
        n/d lies below the root iff f has the same sign at n/d as at lo.

        That sign at lo is computed once, when the number is built.
        Refinement never changes it: a refined interval [lo', hi'] lies in
        [lo, hi] and still holds the root, so lo <= lo' < alpha; f has no
        root in [lo, lo'], the only root in [lo, hi] being alpha, and so
        by the intermediate value theorem f(lo') has the sign of f(lo).
        """
        lo, hi = self.interval()
        if self.is_rational():
            v = lo.numerator * d - n * lo.denominator
            return (v > 0) - (v < 0)
        if n * lo.denominator <= lo.numerator * d:
            return 1
        if n * hi.denominator >= hi.numerator * d:
            return -1
        return 1 if self.min_poly.sign_at_ratio(n, d) == self._sign_lo else -1

    def sign(self) -> int:
        return self.compare_rational(0)

    # ---- exact transforms: no caller in dioph; bench/tracing.py resolves both ----

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
    """Element of Q(alpha) in the power basis, reduced mod the min poly:
    the integer vector num over the positive integer den, in lowest terms."""

    __slots__ = ("base", "num", "den")

    def __init__(self, base: AlgebraicNumber, rep: Sequence):
        """The class of sum rep[k] x^k, for rationals rep of any length."""
        rep = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in rep]
        den = lcm(*(c.denominator for c in rep))
        self._set(base, [c.numerator * (den // c.denominator) for c in rep], den)

    def _set(self, base: AlgebraicNumber, num: List[int], den: int) -> "NumberFieldElement":
        """Store num / den reduced mod f and in lowest terms."""
        self.base = base
        f = base.min_poly.coeffs
        _, num, s = pseudo_divmod(num, f)
        den *= s
        num += [0] * (len(f) - 1 - len(num))
        g = gcd(den, *num)
        self.num = tuple(x // g for x in num)
        self.den = den // g
        return self

    def _new(self, num: List[int], den: int) -> "NumberFieldElement":
        """num / den over the same base, reduced and in lowest terms."""
        return NumberFieldElement.__new__(NumberFieldElement)._set(self.base, num, den)

    @property
    def rep(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def from_rational(cls, base: AlgebraicNumber, q) -> "NumberFieldElement":
        return cls(base, [q])

    @classmethod
    def generator(cls, base: AlgebraicNumber) -> "NumberFieldElement":
        if base.degree == 1:
            return cls(base, [base.rational_value()])
        return cls(base, [0, 1])

    def _check_same_base(self, other: "NumberFieldElement"):
        if self.base.min_poly != other.base.min_poly:
            raise DomainError("number field elements over different generators")

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            return (self.base.min_poly == other.base.min_poly
                    and self.num == other.num and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.base.min_poly, self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_base(other)
        a, b = self.den, other.den
        return self._new([x * b + y * a for x, y in zip(self.num, other.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates; nothing to reduce
            p, q = other.numerator, other.denominator
            return self._new([x * p for x in self.num], self.den * q)
        other = self._coerce(other)
        self._check_same_base(other)
        b = other.num
        prod = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._new(prod, self.den * other.den)

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
        """Multiplicative inverse: the coordinates x with M x = 1 for the
        multiplication matrix M of self, the first column of M^-1."""
        if self.is_zero():
            raise DomainError("inverse of zero")
        cols = matrix_inverse(self.multiplication_matrix())
        return NumberFieldElement(self.base, [row[0] for row in cols])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return f"NFElement({list(self.rep)} over {self.base.min_poly})"

    # ---- linear algebra over Q ----

    def multiplication_matrix(self) -> List[List[Fraction]]:
        """Matrix of y -> self*y in the power basis (columns indexed by basis)."""
        gen = NumberFieldElement.generator(self.base)
        cols = [(self * gen ** j).rep for j in range(self.base.degree)]
        return [list(row) for row in zip(*cols)]

    def char_poly(self) -> IntPolynomial:
        """Primitive integer polynomial proportional to det(x*I - M_self)."""
        M = self.multiplication_matrix()
        prim = _q_to_primitive(charpoly(M))
        if prim.leading < 0:
            prim = -prim
        return prim

    def min_poly_elem(self) -> IntPolynomial:
        """Minimal polynomial of this element (primitive, positive lc)."""
        return squarefree_part(self.char_poly())


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
#
# A box (roots.Box) is four integers (re_lo, re_hi, im_lo, im_hi)
# standing for [re_lo, re_hi] / 2**s + i [im_lo, im_hi] / 2**s at a scale
# s that the caller tracks.  Products add scales and sums are taken at one
# scale, so every value is the same rational that Enclosure arithmetic on
# the boxes would give, with no rounding.


def _imul(alo: int, ahi: int, blo: int, bhi: int) -> Tuple[int, int]:
    """[alo, ahi] * [blo, bhi] from all four products, as Enclosure.__mul__."""
    p = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(p), max(p)


def box_mul(a: Box, b: Box) -> Box:
    """a * b at the sum of their scales: re*re' - im*im', re*im' + im*re'."""
    rr_lo, rr_hi = _imul(a[0], a[1], b[0], b[1])
    ii_lo, ii_hi = _imul(a[2], a[3], b[2], b[3])
    ri_lo, ri_hi = _imul(a[0], a[1], b[2], b[3])
    ir_lo, ir_hi = _imul(a[2], a[3], b[0], b[1])
    return (rr_lo - ii_hi, rr_hi - ii_lo, ri_lo + ir_lo, ri_hi + ir_hi)


def box_abs2(a: Box) -> Tuple[int, int]:
    """re*re + im*im at twice a's scale, each square a four-product."""
    r_lo, r_hi = _imul(a[0], a[1], a[0], a[1])
    i_lo, i_hi = _imul(a[2], a[3], a[2], a[3])
    return r_lo + i_lo, r_hi + i_hi


def _abs_bounds(a: Box, s: int, bits: int) -> Tuple[int, int]:
    """Lower and upper bounds on |a| for a box at scale s, as mantissas at
    scale 2**-bits: the ends of nth_root_enclosure on the ends of |a|^2."""
    lo, hi = box_abs2(a)
    unit = 1 << (2 * s)
    return (root_mantissas(max(lo, 0), unit, 2, bits)[0],
            root_mantissas(max(hi, 0), unit, 2, bits)[1])


def inverse_embedding_bound(
    a: AlgebraicNumber, precision: Fraction = EMBEDDING_PRECISION, boxes=None
) -> Enclosure:
    """Certified interval for the sup-operator norm of W^{-1}.

    W[r][k] = sigma_r(alpha)^k is the power-basis embedding matrix; the
    norm bounds the power basis coordinates of an element by the largest
    |embedding|.  Column r of W^{-1} holds the coefficients of the
    Lagrange polynomial f(x) / ((x - sigma_r) f'(sigma_r)) of the minimal
    polynomial f, so with q_r = f / (x - sigma_r), one synthetic division,
    (W^{-1})[k][r] = [q_r]_k / q_r(sigma_r), as f'(sigma_r) = q_r(sigma_r).
    That is O(d^2) box operations on the exact root boxes, and each
    modulus is bounded at scale 2**-bits as nth_root_enclosure would at
    err precision.  Reported with outward rounding; use the upper
    endpoint.  `boxes`, if given, are the caller's ordered_root_boxes of
    the minimal polynomial at `precision`.
    """
    precision = Fraction(precision)
    d = a.degree
    if d == 1:
        return Enclosure.exact(1)
    coeffs = a.min_poly.coeffs
    for _ in range(6):
        row_hi = [Fraction(0)] * d
        row_lo = [Fraction(0)] * d
        bits = max(4, 1 - floor_log2(precision))
        s, zs = boxes or ordered_root_boxes(a.min_poly, precision)
        for z in zs:
            # q[j] is the coefficient of x^(d-1-j) in f / (x - z), at scale j*s
            q = [(coeffs[d], coeffs[d], 0, 0)]
            for j, c in enumerate(reversed(coeffs[1:d]), 1):
                t = box_mul(q[-1], z)
                c <<= j * s
                q.append((t[0] + c, t[1] + c, t[2], t[3]))
            # f'(z) = q(z) by Horner's rule, at scale (d-1)*s throughout
            fprime = q[0]
            for c in q[1:]:
                t = box_mul(fprime, z)
                fprime = (t[0] + c[0], t[1] + c[1], t[2] + c[2], t[3] + c[3])
            f_lo, f_hi = _abs_bounds(fprime, (d - 1) * s, bits)
            if f_lo == 0:
                break
            for j, c in enumerate(q):
                c_lo, c_hi = _abs_bounds(c, j * s, bits)
                row_hi[d - 1 - j] += Fraction(c_hi, f_lo)
                row_lo[d - 1 - j] += Fraction(c_lo, f_hi)
        else:
            hi = max(row_hi)
            return Enclosure(min(max(row_lo), hi), hi)
        boxes = None
        precision /= 10 ** 4
    raise PrecisionError("f'(sigma) could not be separated from 0")
