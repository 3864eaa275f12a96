"""Exact univariate polynomials over Z, with the root machinery the rest
of the library is built on: content/primitive splitting, gcd and
squarefree decomposition over Z by pseudo-division, Sturm sequences,
real root isolation, cyclotomic polynomials, and desk-scale
irreducibility testing.

Coefficients are stored ascending (coeffs[k] is the coefficient of x^k)
with no trailing zeros.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from .exceptions import DomainError, InternalError, UnsupportedError

IRREDUCIBILITY_DEGREE_CAP = 12


class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def sign_at(self, x) -> int:
        """Sign of self(x) for rational x."""
        return self.sign_at_ratio(*Fraction(x).as_integer_ratio())

    def sign_at_ratio(self, n: int, d: int) -> int:
        """Sign of self(n/d) for integers n and d > 0, not necessarily
        coprime: Horner's rule on n and d gives the integer
        d^degree * self(n/d), with no fraction formed."""
        acc, dpow = 0, 1
        for c in reversed(self.coeffs):
            acc, dpow = acc * n + c * dpow, dpow * d
        return (acc > 0) - (acc < 0)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise DomainError("negative polynomial power")
        out = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def shift_int(self, a: int) -> "IntPolynomial":
        """Taylor shift f(x + a) for integer a."""
        out = [0]
        for c in reversed(self.coeffs):
            # out = out * (x + a) + c
            new = [0] * (len(out) + 1)
            for i, v in enumerate(out):
                new[i + 1] += v
                new[i] += v * a
            new[0] += c
            out = new
        return IntPolynomial(out)

    def reversed_poly(self) -> "IntPolynomial":
        """x^deg * f(1/x)."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == 1

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# integer utilities


def factor_integer(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise DomainError("factor_integer expects a positive integer")
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 1_000_000:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) % 8
    if n > 1:
        if f * f > n:
            out[n] = out.get(n, 0) + 1
        else:
            for p in _pollard_split(n):
                out[p] = out.get(p, 0) + 1
    return out


def _pollard_split(n: int) -> List[int]:
    if n == 1:
        return []
    if _is_probable_prime(n):
        return [n]
    d = _pollard_rho(n)
    return _pollard_split(d) + _pollard_split(n // d)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def divisors(n: int) -> List[int]:
    """Positive divisors of n != 0, ascending."""
    if n == 0:
        raise DomainError("divisors of zero")
    fac = factor_integer(abs(n))
    out = [1]
    for p, e in fac.items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# content, gcd, squarefree structure


def content_and_primitive(f: IntPolynomial) -> Tuple[int, IntPolynomial]:
    """Split f into (content, primitive part); content is positive."""
    if f.is_zero():
        raise DomainError("zero polynomial has no content")
    c = math.gcd(*f.coeffs)
    return c, IntPolynomial(a // c for a in f.coeffs)


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """(q, r, s) with s * a = q * b + r and deg r < deg b, for ascending
    integer coefficient lists a and b != 0; r has no trailing zeros.

    The top coefficient c of the running remainder is cancelled by
    (c / lc(b)) x^k b; when lc(b) does not divide c, everything is first
    scaled by |lc(b)| / gcd(c, lc(b)) (Cohen, GTM 138, 3.1).  So s > 0,
    r is s times the remainder over Q, and s == 1 whenever b divides a
    over Z."""
    db = len(b) - 1
    if db < 0:
        raise DomainError("division by zero polynomial")
    lc = b[-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    s = 1
    for k in range(len(r) - 1 - db, -1, -1):
        c = r.pop()
        if not c:
            continue
        if c % lc:
            t = abs(lc) // math.gcd(c, lc)
            r = [t * x for x in r]
            q = [t * x for x in q]
            s *= t
            c *= t
        c //= lc
        q[k] = c
        for i in range(db):
            r[k + i] -= c * b[i]
    while r and r[-1] == 0:
        r.pop()
    return q, r, s


def _primitive(cs: Sequence[int]) -> List[int]:
    """cs over its positive content ([] for the zero list)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g else []


def _q_to_primitive(qs: Sequence[Fraction]) -> IntPolynomial:
    """Primitive integer polynomial proportional (positive ratio) to qs."""
    qs = [Fraction(c) for c in qs]
    while qs and qs[-1] == 0:
        qs.pop()
    if not qs:
        return IntPolynomial.zero()
    den = 1
    for c in qs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return IntPolynomial(_primitive([int(c * den) for c in qs]))


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd, normalized to positive leading coefficient: Euclid on
    the primitive parts of the pseudo-remainders."""
    a, b = f.coeffs, g.coeffs
    while b:
        a, b = b, _primitive(pseudo_divmod(a, b)[1])
    result = IntPolynomial(_primitive(a))
    return -result if not result.is_zero() and result.leading < 0 else result


def poly_divide_exact(f: IntPolynomial, g: IntPolynomial):
    """f / g as an IntPolynomial if g divides f over Z, else None."""
    q, r, s = pseudo_divmod(f.coeffs, g.coeffs)
    return IntPolynomial(q) if s == 1 and not r else None


def _divide_exact(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """f / g for a primitive g dividing f over Q, hence over Z (Gauss)."""
    q = poly_divide_exact(f, g)
    if q is None:
        raise InternalError(f"{g} does not divide {f} over Z")
    return q


def _squarefree_mod_p(f: IntPolynomial) -> bool:
    """True when gcd(f, f') modulo some prime of _FILTER_PRIMES not
    dividing the leading coefficient is constant.  Then f is squarefree
    over Q: a square factor g^2 of f over Z has a leading coefficient
    prime to p, so g mod p has degree >= 1 and its square divides f mod p.
    False decides nothing."""
    deriv = f.derivative().coeffs
    return any(
        f.leading % p and len(_pmod_gcd(f.coeffs, deriv, p)) == 1 for p in _FILTER_PRIMES
    )


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """Primitive squarefree polynomial with the same roots as f, positive
    leading coefficient: the product of the factors of
    squarefree_decomposition, so the primitive part itself when
    _squarefree_mod_p proves it squarefree."""
    if f.is_zero():
        raise DomainError("squarefree part of zero polynomial")
    return math.prod((g for g, _ in squarefree_decomposition(f)), start=IntPolynomial([1]))


def squarefree_decomposition(f: IntPolynomial) -> List[Tuple[IntPolynomial, int]]:
    """List of (g_i, i) with f ~ prod g_i^i, g_i primitive, squarefree and
    with positive leading coefficient, in increasing order of i.  A power
    x^k of x is split off first and x joins the factor of multiplicity k.
    Then [(f, 1)] for the primitive part f when _squarefree_mod_p proves
    it squarefree, else Yun's algorithm.  Every gcd there is primitive, so
    each of Yun's divisions is exact over Z (Gauss's lemma)."""
    if f.is_zero():
        raise DomainError("squarefree decomposition of zero polynomial")
    _, fp = content_and_primitive(f)
    if fp.leading < 0:
        fp = -fp
    if fp.degree < 1:
        return []
    k = next(i for i, c in enumerate(fp.coeffs) if c)
    if k:
        parts = {i: g for g, i in squarefree_decomposition(IntPolynomial(fp.coeffs[k:]))}
        parts[k] = IntPolynomial((0,) + (parts[k].coeffs if k in parts else (1,)))
        return [(parts[i], i) for i in sorted(parts)]
    if _squarefree_mod_p(fp):
        return [(fp, 1)]
    a0 = poly_gcd(fp, fp.derivative())
    b = _divide_exact(fp, a0)
    d = _divide_exact(fp.derivative(), a0) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b_next = _divide_exact(b, ai)
        d = _divide_exact(d, ai) - b_next.derivative()
        b = b_next
        i += 1
    return out


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation


def sturm_sequence(g: IntPolynomial) -> List[IntPolynomial]:
    """Sturm chain of a squarefree g: g, g', then each negated
    pseudo-remainder over its positive content, which keeps its sign."""
    seq = [g, g.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        nxt = _primitive([-c for c in pseudo_divmod(seq[-2].coeffs, seq[-1].coeffs)[1]])
        if not nxt:
            break
        seq.append(IntPolynomial(nxt))
    return [s for s in seq if not s.is_zero()]


def sign_variations(seq: Sequence[IntPolynomial], x: Fraction) -> int:
    signs = [v for v in (s.sign_at(x) for s in seq) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of f in the half-open interval (a, b]."""
    if a > b:
        raise DomainError("interval endpoints out of order")
    seq = sturm_sequence(squarefree_part(f))
    return sign_variations(seq, Fraction(a)) - sign_variations(seq, Fraction(b))


def cauchy_root_bound(f: IntPolynomial) -> Fraction:
    """B with every complex root strictly inside |z| < B."""
    if f.is_zero() or f.degree < 1:
        raise DomainError("root bound needs degree >= 1")
    lead = abs(f.leading)
    return 1 + Fraction(max(abs(c) for c in f.coeffs[:-1]), lead)


def isolate_real_roots(f: IntPolynomial) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one real root of f.

    The squarefree part is taken internally, so multiple roots are
    reported once.  Interval endpoints are never roots.
    """
    if f.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    g = squarefree_part(f)
    if g.degree < 1:
        return []
    seq = sturm_sequence(g)
    bound = cauchy_root_bound(g)
    out: List[Tuple[Fraction, Fraction]] = []

    def var(x: Fraction) -> int:
        return sign_variations(seq, x)

    def recurse(a: Fraction, b: Fraction, va: int, vb: int):
        count = va - vb
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        if g.sign_at(m) == 0:
            # rational root at the midpoint; wall it off with a tight interval
            w = (b - a) / 8
            while True:
                vl, vr = var(m - w), var(m + w)
                if vl - vr == 1 and g.sign_at(m - w) != 0 and g.sign_at(m + w) != 0:
                    break
                w /= 2
            out.append((m - w, m + w))
            recurse(a, m - w, va, vl)
            recurse(m + w, b, vr, vb)
        else:
            vm = var(m)
            recurse(a, m, va, vm)
            recurse(m, b, vm, vb)

    recurse(-bound, bound, var(-bound), var(bound))
    out.sort(key=lambda iv: iv[0])
    return out


def refine_root_interval(
    f: IntPolynomial, interval: Tuple[Fraction, Fraction], width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a squarefree f below the given width.

    Requires that f changes sign across the interval (true for an
    isolating interval of a simple real root).  The endpoints are kept
    as integer numerators A, B over one denominator D: a bisection step
    doubles D and tests the midpoint A + B; when that midpoint is a root
    it triples D instead and tests 2A + B, the point a third of the way up.
    """
    a, b = Fraction(interval[0]), Fraction(interval[1])
    sa, sb = f.sign_at(a), f.sign_at(b)
    if sa == 0 or sb == 0:
        raise DomainError("isolating interval endpoints must not be roots")
    if sa == sb:
        raise DomainError("no sign change across the interval")
    width = Fraction(width)
    wn, wd = width.numerator, width.denominator
    D = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    while (B - A) * wd > wn * D:
        sm = f.sign_at_ratio(A + B, 2 * D)
        if sm == 0:  # dodge an exact rational hit
            A, B, D, M = 3 * A, 3 * B, 3 * D, 2 * A + B
            sm = f.sign_at_ratio(M, D)
        else:
            A, B, D, M = 2 * A, 2 * B, 2 * D, A + B
        if sm == sa:
            A = M
        else:
            B = M
    return Fraction(A, D), Fraction(B, D)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    if k < 1:
        raise DomainError("euler_phi expects k >= 1")
    result = k
    for p in factor_integer(k):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPolynomial:
    """The k-th cyclotomic polynomial."""
    if k < 1:
        raise DomainError("cyclotomic index must be >= 1")
    poly = IntPolynomial([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for d in divisors(k):
        if d == k:
            continue
        q = poly_divide_exact(poly, cyclotomic(d))
        if q is None:
            raise DomainError(f"cyclotomic division failed at k={k}, d={d}")
        poly = q
    return poly


def cyclotomic_index(g: IntPolynomial) -> Optional[int]:
    """The k with g = cyclotomic(k), or None.  phi(k) >= sqrt(k/2), so
    every k with phi(k) = deg g is at most 2 deg(g)^2."""
    n = g.degree
    for k in range(1, 2 * n * n + 1):
        if euler_phi(k) == n and g == cyclotomic(k):
            return k
    return None


# ---------------------------------------------------------------------------
# irreducibility over Q (degree-capped exhaustive search)

_FILTER_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# Polynomials mod p are ascending lists of residues with no trailing zeros;
# [] is the zero polynomial.


def _pmod_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by a nonzero b modulo p."""
    a = _pmod_trim([c % p for c in a])
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db:
        coef = a[-1] * inv % p
        k = len(a) - 1 - db
        q[k] = coef
        for i in range(db + 1):
            a[k + i] = (a[k + i] - coef * b[i]) % p
        _pmod_trim(a)
    return q, a


def _pmod_mul(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def _pmod_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd modulo p ([] when both vanish)."""
    a = _pmod_trim([c % p for c in a])
    b = _pmod_trim([c % p for c in b])
    while b:
        a, b = b, _pmod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pmod_powmod(a: List[int], e: int, g: List[int], p: int) -> List[int]:
    """a**e modulo g and p."""
    result = [1]
    base = _pmod_divmod(a, g, p)[1]
    while e:
        if e & 1:
            result = _pmod_divmod(_pmod_mul(result, base, p), g, p)[1]
        base = _pmod_divmod(_pmod_mul(base, base, p), g, p)[1]
        e >>= 1
    return result


def _pmod_ddf(g: IntPolynomial, p: int) -> Optional[List[Tuple[List[int], int]]]:
    """Distinct-degree factorization of g modulo p: blocks (product, d),
    each block the monic product of the degree-d irreducible factors of
    g mod p.  None when p divides the leading coefficient or g mod p is
    not squarefree."""
    if g.leading % p == 0:
        return None
    inv = pow(g.leading, -1, p)
    work = [c * inv % p for c in g.coeffs]
    if len(_pmod_gcd(work, [k * c for k, c in enumerate(work) if k], p)) != 1:
        return None
    blocks = []
    h = [0, 1]  # x^(p^d) mod work
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            blocks.append((work, len(work) - 1))
            break
        h = _pmod_powmod(h, p, work, p)
        diff = h + [0] * (2 - len(h))
        diff[1] -= 1
        r = _pmod_gcd(work, diff, p)
        if len(r) > 1:
            blocks.append((r, d))
            work = _pmod_divmod(work, r, p)[0]
            h = _pmod_divmod(h, work, p)[1]
    return blocks


def _subset_sums(degrees: List[int]) -> set:
    sums = 1  # bitset
    for d in degrees:
        sums |= sums << d
    return {i for i in range(sums.bit_length()) if (sums >> i) & 1}


def _mignotte_bound(f: IntPolynomial, k: int, i: int) -> int:
    """Bound on |coefficient i| of any degree-k integer factor of f."""
    norm2 = iroot_ceil(sum(c * c for c in f.coeffs))
    bound = math.comb(k - 1, i) * norm2
    if i >= 1:
        bound += math.comb(k - 1, i - 1) * abs(f.leading)
    return bound


def iroot_ceil(n: int) -> int:
    """ceil(sqrt(n)) for an integer n >= 0."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def is_irreducible(f: IntPolynomial) -> bool:
    """Exact irreducibility over Q, up to degree IRREDUCIBILITY_DEGREE_CAP.

    Three structural answers come first: for degree >= 2, g(0) = 0 means
    x divides g (reducible); a quadratic is reducible exactly when its
    discriminant is a square; and a monic palindromic g with g(0) = 1
    that equals some cyclotomic polynomial is irreducible.  Every other g
    of degree >= 3 takes one modular route.  The factor degrees of g
    modulo up to six small primes, read from the distinct-degree
    factorization, rule out factor degrees over Z (degree 1 included);
    if some degree survives, g is factored completely modulo one prime
    exceeding twice the Mignotte coefficient bound scaled by the leading
    coefficient, and every true integer factor is visible as a subset of
    the modular factors (checked by exact trial division).  A g that is
    squarefree modulo a prime not dividing its leading coefficient is
    squarefree over Q; the gcd decides only when no filter prime is
    usable.
    """
    if f.is_zero() or f.degree < 1:
        raise DomainError("irreducibility is defined for degree >= 1")
    if f.degree > IRREDUCIBILITY_DEGREE_CAP:
        raise UnsupportedError(
            f"degree {f.degree} above irreducibility cap {IRREDUCIBILITY_DEGREE_CAP}"
        )
    _, g = content_and_primitive(f)
    if g.leading < 0:
        g = -g
    n = g.degree
    if n == 1:
        return True
    if g.constant == 0:
        return False
    cs = g.coeffs
    if n == 2:  # reducible iff it has a rational root, i.e. b^2 - 4ac is a square
        disc = cs[1] * cs[1] - 4 * cs[2] * cs[0]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if cs[0] == cs[-1] == 1 and cs == cs[::-1] and cyclotomic_index(g) is not None:
        return True
    return _irreducible_by_modular_route(g)


def _irreducible_by_modular_route(g: IntPolynomial) -> bool:
    """is_irreducible's modular route, for a primitive g of degree >= 2
    with positive leading coefficient and g(0) != 0."""
    n = g.degree
    feasible = set(range(1, n))  # degrees of a proper factor
    used = 0
    for p in _FILTER_PRIMES:
        blocks = _pmod_ddf(g, p)
        if blocks is None:
            continue
        feasible &= _subset_sums(
            [d for block, d in blocks for _ in range((len(block) - 1) // d)]
        )
        used += 1
        if not any(k <= n // 2 for k in feasible):
            return True
        if used >= 6:
            break
    if not used and poly_gcd(g, g.derivative()).degree > 0:
        return False  # repeated factor

    return not _reducible_by_modular_recombination(g)


def _next_good_prime(g: IntPolynomial, floor_value: int):
    """Smallest prime p above floor_value at which g is usable (see
    _pmod_ddf), with the distinct-degree blocks of g modulo p."""
    p = max(floor_value, 5) | 1
    while True:
        if _is_probable_prime(p):
            blocks = _pmod_ddf(g, p)
            if blocks is not None:
                return p, blocks
        p += 2


def _equal_degree_split(block: List[int], d: int, p: int, rng) -> List[List[int]]:
    """Cantor-Zassenhaus: split a monic squarefree product of degree-d
    irreducibles mod an odd prime into the irreducibles."""
    n = len(block) - 1
    if n == d:
        return [block]
    exponent = (p ** d - 1) // 2
    while True:
        a = _pmod_trim([rng.randrange(p) for _ in range(n)]) or [1]
        left = _pmod_gcd(block, a, p)
        if not 0 < len(left) - 1 < n:
            b = _pmod_powmod(a, exponent, block, p) or [0]
            b[0] -= 1
            left = _pmod_gcd(block, b, p)
            if not 0 < len(left) - 1 < n:
                continue
        right = _pmod_divmod(block, left, p)[0]
        return _equal_degree_split(left, d, p, rng) + _equal_degree_split(
            right, d, p, rng
        )


def _centered(v: int, p: int) -> int:
    v %= p
    return v - p if v > p // 2 else v


def _reducible_by_modular_recombination(g: IntPolynomial) -> bool:
    """Decide reducibility of a primitive squarefree g of degree >= 2 by
    factoring modulo one large prime and trial dividing every subset
    product of at most half the modular factors.

    The prime exceeds twice the Mignotte bound scaled by the leading
    coefficient, so the centered lift of lc * (subset product) recovers
    any true factor exactly; exhaustiveness over subsets makes the
    negative answer a proof of irreducibility.  A factor of g over Z has
    leading and constant coefficients dividing g's, so a candidate
    failing that is rejected without the trial division.
    """
    n = g.degree
    bound = max(
        _mignotte_bound(g, k, i) for k in range(1, n) for i in range(k + 1)
    )
    p, blocks = _next_good_prime(g, 2 * bound * g.leading + 3)
    rng = random.Random(0x5EED ^ hash(g.coeffs))
    factors = [u for block, d in blocks for u in _equal_degree_split(block, d, p, rng)]
    factors.sort(key=lambda u: (len(u), u))
    for size in range(1, len(factors) // 2 + 1):
        for subset in combinations(factors, size):
            prod = [g.leading % p]
            for u in subset:
                prod = _pmod_mul(prod, u, p)
            _, prim = content_and_primitive(IntPolynomial(_centered(c, p) for c in prod))
            if g.leading % prim.leading or (
                g.constant and (not prim.constant or g.constant % prim.constant)
            ):
                continue
            if poly_divide_exact(g, prim) is not None:
                return True
    return False
