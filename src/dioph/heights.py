"""Places of Q, normalized absolute values, Weil and logarithmic heights,
Mahler measure, Northcott enumeration, and the Kronecker test.

Heights of rationals, points, and polynomials are exact; heights of
algebraic numbers of degree >= 2 are certified enclosures obtained from
root moduli.  The product formula over the support places of a rational
is an exact identity here, not a numerical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional, Sequence, Tuple

from .enclosure import Enclosure, log_enclosure, nth_root_enclosure
from .exceptions import DomainError, PrecisionError, UnsupportedError
from .intpoly import (
    IntPolynomial,
    content_and_primitive,
    cyclotomic_index,
    factor_integer,
    is_irreducible,
    _q_to_primitive,
)
from .linalg import primitive_vector
from .numberfield import AlgebraicNumber, NumberFieldElement
from .roots import root_moduli

NORTHCOTT_DEGREE_CAP = 12
# the largest box it admits, 29,316 vectors at degree 2 and X in
# [sqrt(31/2), 4), takes 3.6-3.8 s end to end on a 2-core machine, as
# long as the 9,354 vectors at degree 3 and X = 37/24 took before the
# Graeffe filter, under a cap of 10,000; degree 3 peaks at 26,357
# vectors (X = 5/3), 1.4 s
NORTHCOTT_BOX_CAP = 3 * 10 ** 4
# x^d + x + 1, x^d - 2, 3x^d + x^(d/2) - 5, x^d - x^(d-1) - 1 and random
# coefficients in [-9, 9] take about 2 s at degree 120 and precision 1e-40
# (0.9-1.0 s at 1e-12), 4-5.4 s at degree 160, process start-up included
MAHLER_DEGREE_CAP = 120
# degree^3 * bits^2 of degree 120 at 1e-40 (132 bits), where the degree
# cap was set.  On a loaded 2-core machine, where degree 120 at 1e-40
# took 2.2-3.1 s, the measured shapes near the limit of other degrees took
# as long (24 at 1e-400/1e-450: 1.5-1.9/2.7-3.1 s, 40 at 1e-200: 2.1-2.5 s,
# 60 at 1e-100: 1.8-2.9 s, 100 at 1e-50: 2.7-3.3 s); 40 at 1e-300 took 4-5 s
MAHLER_COST_CAP = 120 ** 3 * 132 ** 2
DEFAULT_PRECISION = Fraction(1, 10 ** 12)
# root squarings mahler_graeffe_verdict tries before it leaves M(f) <= c
# open; each one squares the roots and the ratio M(f)/c
GRAEFFE_STEPS = 5
# enclosure widths tried, each 1/64 of the last, before a PrecisionError
_REFINEMENTS = 60
# the Mahler widths _mahler_leq_exact tries before a PrecisionError: 1e-8
# to 1e-40 in 1e-4 steps, then 1e-80, 1e-160 and 1e-320
_MAHLER_LEQ_WIDTHS = tuple(Fraction(1, 10 ** k) for k in (*range(8, 41, 4), 80, 160, 320))


@dataclass(frozen=True)
class Place:
    """A place of Q: a prime p, or None for the archimedean place."""

    prime: Optional[int] = None

    def __post_init__(self):
        if self.prime is not None:
            if self.prime < 2 or factor_integer(self.prime) != {self.prime: 1}:
                raise DomainError(f"{self.prime} is not prime")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(prime=p)

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(prime=None)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self):
        return str(self.prime) if self.is_finite else "inf"


class HeightValue:
    """A multiplicative height: exact rational when known, else an enclosure."""

    __slots__ = ("exact", "enclosure")

    def __init__(self, exact: Optional[Fraction], enclosure: Enclosure):
        if exact is not None and not enclosure.contains(exact):
            raise DomainError("exact height outside its enclosure")
        self.exact = exact
        self.enclosure = enclosure

    @classmethod
    def from_exact(cls, q) -> "HeightValue":
        q = Fraction(q)
        return cls(q, Enclosure.exact(q))

    @classmethod
    def from_enclosure(cls, enc: Enclosure) -> "HeightValue":
        return cls(None, enc)

    def log_enclosure(self, err: Fraction = DEFAULT_PRECISION) -> Enclosure:
        lo = log_enclosure(self.enclosure.lo, err / 2)
        hi = log_enclosure(self.enclosure.hi, err / 2)
        return Enclosure(lo.lo, hi.hi)

    def __repr__(self):
        if self.exact is not None:
            return f"HeightValue({self.exact})"
        return f"HeightValue(~{float(self.enclosure.mid)})"


# ---------------------------------------------------------------------------
# places and exact local absolute values


def ord_p(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if q == 0:
        raise DomainError("valuation of zero")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def local_abs(q: Fraction, place: Place) -> Fraction:
    """Exact normalized absolute value |q|_v for nonzero rational q."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("|0|_v is excluded; the product formula needs q != 0")
    if place.is_finite:
        return Fraction(place.prime) ** (-ord_p(q, place.prime))
    return abs(q)


def support_places(q: Fraction) -> List[Place]:
    """The places where |q|_v != 1, plus the archimedean place."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("support of zero")
    primes = set(factor_integer(abs(q.numerator)) if abs(q.numerator) != 1 else {})
    primes |= set(factor_integer(q.denominator) if q.denominator != 1 else {})
    return [Place.finite(p) for p in sorted(primes)] + [Place.archimedean()]


def local_abs_product(q: Fraction, places: Sequence[Place]) -> Fraction:
    """Exact product of |q|_v over a finite set of places."""
    seen = set()
    result = Fraction(1)
    for v in places:
        if v in seen:
            continue
        seen.add(v)
        result *= local_abs(q, v)
    return result


def sum_log_abs_over_S(
    q: Fraction, places: Sequence[Place], err: Fraction = DEFAULT_PRECISION
) -> Enclosure:
    """Enclosure of sum over S of log|q|_v (the log of an exact rational)."""
    return log_enclosure(local_abs_product(q, places), err)


# ---------------------------------------------------------------------------
# exact heights of rationals, points, polynomials


def height_rational(q) -> HeightValue:
    """Natural height max(|num|, |den|); H(0) is defined as 1."""
    q = Fraction(q)
    if q == 0:
        return HeightValue.from_exact(1)
    return HeightValue.from_exact(max(abs(q.numerator), q.denominator))


def canonicalize_projective(coords: Sequence[Fraction]) -> Tuple[int, ...]:
    """Coprime integer coordinates with positive first nonzero entry."""
    coords = [Fraction(c) for c in coords]
    if all(c == 0 for c in coords):
        raise DomainError("projective point must have a nonzero coordinate")
    den = math.lcm(*(c.denominator for c in coords))
    return primitive_vector([int(c * den) for c in coords])


class ProjectivePoint:
    """A point of rational projective space in canonical coordinates
    (coprime integers, positive first nonzero entry)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Fraction]):
        self.coords = canonicalize_projective(coords)

    @property
    def dimension(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def height(self) -> HeightValue:
        return HeightValue.from_exact(max(abs(c) for c in self.coords))


def height_projective(coords: Sequence[Fraction]) -> HeightValue:
    """Height of a projective point; scaling-invariant by canonicalization."""
    if isinstance(coords, ProjectivePoint):
        return coords.height()
    return ProjectivePoint(coords).height()


def height_affine_point(coords: Sequence[Fraction]) -> HeightValue:
    """Height of an affine point, via the embedding x -> (1 : x)."""
    return height_projective([Fraction(1)] + [Fraction(c) for c in coords])


def _primitive_int_coeffs(coeffs: Sequence[Fraction]) -> List[int]:
    prim = _q_to_primitive([Fraction(c) for c in coeffs])
    if prim.is_zero():
        raise DomainError("zero polynomial has no height")
    return list(prim.coeffs)


def height_polynomial(poly) -> HeightValue:
    """Height of a polynomial over Q (any arity): max |coefficient| of the
    primitive integer form.  Accepts IntPolynomial, a coefficient list,
    or a MultiPoly."""
    from .multipoly import MultiPoly

    if isinstance(poly, IntPolynomial):
        coeffs = poly.coeffs
    elif isinstance(poly, MultiPoly):
        if poly.is_zero():
            raise DomainError("zero polynomial has no height")
        coeffs = []
        for c in poly.terms.values():
            if isinstance(c, NumberFieldElement):
                raise UnsupportedError(
                    "polynomial heights are implemented for rational coefficients"
                )
            coeffs.append(Fraction(c))
    else:
        coeffs = [Fraction(c) for c in poly]
    ints = _primitive_int_coeffs(coeffs)
    return HeightValue.from_exact(max(abs(c) for c in ints))


# ---------------------------------------------------------------------------
# Mahler measure and Weil heights of algebraic numbers


def _log2_inverse(q: Fraction) -> int:
    """log2(1/q) within one, for q > 0."""
    return q.denominator.bit_length() - q.numerator.bit_length()


def _check_mahler_degree(degree: int) -> None:
    if degree > MAHLER_DEGREE_CAP:
        raise UnsupportedError(
            f"Mahler measure of degree {degree}; the cap is {MAHLER_DEGREE_CAP}"
        )


def check_mahler_cost(degree: int, precision) -> None:
    """Refuse, with UnsupportedError and before any root is computed, a
    Mahler measure of degree above MAHLER_DEGREE_CAP, or one whose degree
    d and requested bits b = log2(1/precision) give d**3 * b**2 above
    MAHLER_COST_CAP.  The user-facing routes (mahler_measure,
    weil_height_algebraic, the northcott scan) call this; the internal
    ladder of _mahler_leq_exact does not."""
    _check_mahler_degree(degree)
    precision = Fraction(precision)
    bits = max(0, _log2_inverse(precision))
    if degree ** 3 * bits ** 2 > MAHLER_COST_CAP:
        raise UnsupportedError(
            f"Mahler measure of degree {degree} at about {bits} bits: degree^3 * bits^2 "
            f"= {degree ** 3 * bits ** 2}; the cap is {MAHLER_COST_CAP}"
        )


def _mahler_rung(prim: IntPolynomial, w: Fraction, content: int = 1):
    """(s, moduli, enclosure): root_moduli(prim, w) at scale 2**-s, and
    content * |lc| * prod max(1, |root|) formed on its integer mantissas."""
    s, moduli = root_moduli(prim, w)
    lo = hi = content * abs(prim.leading)
    for m_lo, m_hi in moduli:
        lo *= max(m_lo, 1 << s)
        hi *= max(m_hi, 1 << s)
    scale = 1 << (prim.degree * s)
    return s, moduli, Enclosure(Fraction(lo, scale), Fraction(hi, scale))


def mahler_enclosure(f: IntPolynomial, precision: Fraction) -> Enclosure:
    """Enclosure of M(f) of width <= precision, for f of degree at most
    MAHLER_DEGREE_CAP."""
    _check_mahler_degree(f.degree)
    precision = Fraction(precision)
    if f.is_zero() or f.degree < 1:
        raise DomainError("Mahler measure needs degree >= 1")
    content, prim = content_and_primitive(f)
    w = precision / (4 * prim.degree * max(1, abs(prim.leading)))
    for _ in range(_REFINEMENTS):
        acc = _mahler_rung(prim, w, content)[2]
        if acc.width <= precision:
            return acc
        w /= 64
    raise PrecisionError(
        f"Mahler enclosure did not reach width {float(precision):.3g}: used "
        f"{_REFINEMENTS} root-modulus widths down to 2^-{_log2_inverse(w * 64)}; "
        f"the cap is {_REFINEMENTS} refinements"
    )


def mahler_measure(f: IntPolynomial, precision: Fraction = DEFAULT_PRECISION) -> Enclosure:
    """mahler_enclosure within the limits of check_mahler_cost."""
    check_mahler_cost(f.degree, precision)
    return mahler_enclosure(f, precision)


def _graeffe_square(a: List[int]) -> List[int]:
    """Coefficients of g with g(x^2) = (-1)^n a(x) a(-x), n = deg a: the
    roots of g are the squares of the roots of a, and lc(g) = lc(a)^2, so
    M(g) = M(a)^2.  With a(x) = e(x^2) + x o(x^2), g = (-1)^n (e^2 - x o^2)."""
    out = [0] * len(a)
    even, odd = a[0::2], a[1::2]
    for i, x in enumerate(even):
        for j, y in enumerate(even):
            out[i + j] += x * y
    for i, x in enumerate(odd):
        for j, y in enumerate(odd):
            out[i + j + 1] -= x * y
    return out if len(a) % 2 else [-x for x in out]


def mahler_graeffe_verdict(f: IntPolynomial, c: Fraction) -> Optional[bool]:
    """Decide M(f) <= c in integers when a coefficient bound settles it,
    else None (Cerlienco, Mignotte & Piras, J. Symb. Comput. 4, 1987).

    For the k-th Graeffe iterate g_k of f (k = 0 .. GRAEFFE_STEPS),
    M(g_k) = M(f)^(2^k).  With c = u/v, compared as u^(2^k)/v^(2^k):
    False when some |[g_k]_i| > C(n, i) * c^(2^k), since every
    |a_i| <= C(n, i) * M; True when ||g_k||_2 <= c^(2^k), since
    M <= ||.||_2 (Landau).  Both bounds are strict for every f that is
    not a monomial, so an exact tie M(f) = c is never decided here.
    """
    c = Fraction(c)
    if f.is_zero() or f.degree < 1:
        raise DomainError("Mahler comparison needs degree >= 1")
    n = f.degree
    binom = [math.comb(n, i) for i in range(n + 1)]
    a = list(f.coeffs)
    u, v = c.numerator, c.denominator
    for k in range(GRAEFFE_STEPS + 1):
        if k:
            a = _graeffe_square(a)
            u, v = u * u, v * v
        if any(abs(x) * v > b * u for x, b in zip(a, binom)):
            return False
        if sum(x * x for x in a) * v * v <= u * u:
            return True
    return None


def _exact_mahler(g: IntPolynomial) -> Optional[int]:
    """M(g) for an irreducible primitive g with positive leading coefficient
    where its structure fixes it, else None: max(|a_0|, a_1) at degree 1,
    max(|a_0|, a_2) for a quadratic with a complex pair, whose
    |root|^2 = |a_0/a_2| is rational, and 1 for a cyclotomic g (Kronecker)."""
    if g.degree == 1:
        return max(abs(g.constant), g.leading)
    if g.degree == 2:
        a0, a1, a2 = g.coeffs
        if a1 * a1 - 4 * a0 * a2 < 0:
            return max(abs(a0), a2)
    return 1 if cyclotomic_index(g) is not None else None


def _mahler_leq_exact(f: IntPolynomial, c: Fraction) -> bool:
    """M(f) <= c by exact structure and enclosures, for an irreducible f
    and the c that mahler_graeffe_verdict leaves open.  _exact_mahler
    decides first; the rest goes down one ladder, _MAHLER_LEQ_WIDTHS, whose
    rungs each take the root moduli once, at the first width
    mahler_enclosure would, and decide by the enclosure of M formed from
    them, or a tie by the same moduli: M = |a_0| when every root is
    outside the unit circle, M = |lc| when every root is inside."""
    content, g = content_and_primitive(f)
    if g.leading < 0:
        g = -g
    target = c / content
    exact = _exact_mahler(g)
    if exact is not None:
        return exact <= target
    _check_mahler_degree(g.degree)
    per_width = 4 * g.degree * g.leading
    for w in _MAHLER_LEQ_WIDTHS:
        s, moduli, enc = _mahler_rung(g, w / per_width)
        if enc.hi <= target:
            return True
        if enc.lo > target:
            return False
        if all(lo > 1 << s for lo, _ in moduli):
            return Fraction(abs(g.constant)) <= target
        if all(hi < 1 << s for _, hi in moduli):
            return Fraction(g.leading) <= target
    raise PrecisionError(
        f"cannot decide M({f}) <= {c} (suspected exact boundary tie): used "
        f"{len(_MAHLER_LEQ_WIDTHS)} enclosures, the finest of width 1e-320; the cap is that width"
    )


def _mahler_root_height(f: IntPolynomial, n: int, precision: Fraction) -> HeightValue:
    """M(f)^(1/n) as a certified enclosure of width <= precision, n >= 2,
    from one Mahler enclosure of width <= precision: M(f) >= 1, so the
    n-th root at most halves its width, and each end of the root, on a
    grid of at most precision / 8, adds at most precision / 8."""
    precision = Fraction(precision)
    m_enc = mahler_enclosure(f, precision)
    lo = nth_root_enclosure(m_enc.lo, n, precision / 4).lo
    hi = nth_root_enclosure(m_enc.hi, n, precision / 4).hi
    return HeightValue.from_enclosure(Enclosure(lo, hi))


def weil_height_algebraic(
    a: AlgebraicNumber, precision: Fraction = DEFAULT_PRECISION
) -> HeightValue:
    """Weil height H(a) = M(min poly)^(1/deg) as a certified enclosure,
    within the limits of check_mahler_cost."""
    if a.is_rational():
        return height_rational(a.rational_value())
    check_mahler_cost(a.degree, precision)
    return _mahler_root_height(a.min_poly, a.degree, precision)


def nf_element_height(
    gamma: NumberFieldElement, precision: Fraction = DEFAULT_PRECISION
) -> HeightValue:
    """Weil height of an element of Q(alpha).

    Uses H(gamma) = M(char poly)^(1/d): the characteristic polynomial of
    multiplication by gamma is the minimal polynomial raised to the
    power d/deg(gamma), and Mahler measure is multiplicative, so no
    factorization is needed.
    """
    if gamma.is_zero():
        return HeightValue.from_exact(1)
    if gamma.is_rational():
        return height_rational(gamma.rational_value())
    return _mahler_root_height(gamma.char_poly(), gamma.base.degree, precision)


# ---------------------------------------------------------------------------
# Kronecker test and Northcott enumeration


def is_root_of_unity(a: AlgebraicNumber) -> Tuple[bool, Optional[int]]:
    """Kronecker test: is a a root of unity, and of which order."""
    k = cyclotomic_index(a.min_poly)
    return k is not None, k


def northcott_enumerate(
    degree_max: int, height_max: Fraction
) -> List[IntPolynomial]:
    """All irreducible primitive integer polynomials (positive leading
    coefficient) of degree <= degree_max whose roots have Weil height at
    most height_max.

    The scan box is |a_n| <= X^n and |a_i| <= C(n,i) * X^n (a provable
    coefficient bound: |a_i| <= C(n,i) * M(f)); membership is then
    decided exactly by the Mahler filter M(f) <= X^n.  The filter's
    integer Graeffe verdict runs first on every primitive vector: a
    reject skips the irreducibility proof, and an accept skips the
    structural and enclosure route of _mahler_leq_exact.  A box of more than
    NORTHCOTT_BOX_CAP coefficient vectors raises UnsupportedError before
    the scan.
    """
    if not 1 <= degree_max <= NORTHCOTT_DEGREE_CAP:
        raise UnsupportedError(
            f"degree_max must be within [1, {NORTHCOTT_DEGREE_CAP}]"
        )
    height_max = Fraction(height_max)
    if height_max < 1:
        raise DomainError("height_max must be >= 1 (heights are >= 1)")
    boxes = []
    for n in range(1, degree_max + 1):
        xn = height_max ** n
        boxes.append((n, xn, int(xn), [int(math.comb(n, i) * xn) for i in range(n)]))
    size = sum(an_max * math.prod(2 * b + 1 for b in bounds)
               for _, _, an_max, bounds in boxes)
    if size > NORTHCOTT_BOX_CAP:
        raise UnsupportedError(
            f"the Northcott scan box holds {size} coefficient vectors; "
            f"the cap is {NORTHCOTT_BOX_CAP}"
        )
    out: List[IntPolynomial] = []
    for _, xn, an_max, bounds in boxes:
        for an in range(1, an_max + 1):
            ranges = [range(-b, b + 1) for b in bounds]
            for lower in iter_product(*ranges):
                if math.gcd(an, *lower) != 1:
                    continue
                f = IntPolynomial(list(lower) + [an])
                verdict = mahler_graeffe_verdict(f, xn)
                if verdict is False or not is_irreducible(f):
                    continue
                if verdict or _mahler_leq_exact(f, xn):
                    out.append(f)
    out.sort(key=lambda p: (p.degree, p.coeffs))
    return out
