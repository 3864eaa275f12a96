"""Certified rational interval arithmetic.

Every transcendental quantity in the library (logarithms, Mahler
measures, root moduli, exponentials) is carried as an Enclosure: a pair
of rationals [lo, hi] guaranteed to contain the true value.  Endpoint
arithmetic is exact big-rational arithmetic, so enclosures are sound by
construction; precision is improved by recomputing with a smaller error
budget, never by trusting floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .exceptions import DomainError, PrecisionError

Rat = Union[int, Fraction]


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1, via integer Newton."""
    if n < 0:
        raise DomainError("iroot of negative integer")
    if k < 1:
        raise DomainError("iroot order must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # power-of-two overestimate
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def floor_log2(q: Fraction) -> int:
    """Largest e with 2**e <= q, for q > 0."""
    if q <= 0:
        raise DomainError("floor_log2 needs a positive rational")
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** e > q:
        e -= 1
    if Fraction(2) ** (e + 1) <= q:
        e += 1
    return e


def _round_down(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(q.numerator * scale // q.denominator, scale)


def _round_up(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-q.numerator) * scale // q.denominator), scale)


class Enclosure:
    """Closed rational interval [lo, hi] containing one true real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise DomainError(f"enclosure endpoints out of order: {lo} > {hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def exact(cls, q: Rat) -> "Enclosure":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Rat) -> bool:
        return self.lo <= q <= self.hi

    def __repr__(self):
        return f"Enclosure({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, Enclosure)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # ---- arithmetic (all outward-exact) ----

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        return Enclosure(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(self.lo - other.hi, self.hi - other.lo)
        return Enclosure(self.lo - other, self.hi - other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Enclosure):
            prods = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return Enclosure(min(prods), max(prods))
        other = Fraction(other)
        if other >= 0:
            return Enclosure(self.lo * other, self.hi * other)
        return Enclosure(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Enclosure):
            if other.lo <= 0 <= other.hi:
                raise DomainError("division by an enclosure containing zero")
            return self * other.reciprocal()
        other = Fraction(other)
        if other == 0:
            raise DomainError("division by zero")
        return self * (Fraction(1) / other)

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise DomainError("reciprocal of an enclosure containing zero")
        return Enclosure(Fraction(1) / self.hi, Fraction(1) / self.lo)

    def __pow__(self, n: int) -> "Enclosure":
        if n < 0:
            return (self ** (-n)).reciprocal()
        result = Enclosure.exact(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(0, max(-self.lo, self.hi))

    def round_out(self, bits: int) -> "Enclosure":
        """Widen endpoints outward to denominators of at most 2**bits."""
        return Enclosure(_round_down(self.lo, bits), _round_up(self.hi, bits))

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise DomainError("enclosures do not intersect")
        return Enclosure(lo, hi)


def sqrt_enclosure(q: Rat, err: Rat) -> Enclosure:
    """Enclosure of sqrt(q) of width <= err, q >= 0 rational."""
    return nth_root_enclosure(q, 2, err)


def nth_root_enclosure(q: Rat, k: int, err: Rat) -> Enclosure:
    """Enclosure of q**(1/k) of width <= err, for rational q >= 0."""
    q = Fraction(q)
    err = Fraction(err)
    if q < 0:
        raise DomainError("nth_root_enclosure of a negative rational")
    if err <= 0:
        raise DomainError("error budget must be positive")
    if q == 0:
        return Enclosure.exact(0)
    bits = max(4, 1 - floor_log2(err))
    num = (q.numerator << (k * bits)) // q.denominator
    lo_int = iroot(num, k)
    scale = 1 << bits
    # q * 2**(k*bits) < num + 1 <= (lo_int + 1)**k, so hi is an upper bound
    return Enclosure(Fraction(lo_int, scale), Fraction(lo_int + 1, scale))


def _atanh_series(z: Fraction, budget: Fraction) -> Enclosure:
    """Enclosure of 2*atanh(z) = log((1+z)/(1-z)) for 0 <= z < 1/2."""
    if z == 0:
        return Enclosure.exact(0)
    zz = z * z
    geom = Fraction(1, 1) / (1 - zz)
    total = Fraction(0)
    term = z
    k = 1
    while True:
        total += term / k
        term *= zz
        k += 2
        tail = 2 * term / k * geom
        if tail <= budget:
            return Enclosure(2 * total, 2 * total + tail)


@lru_cache(maxsize=None)
def _log2_at_bits(k: int) -> Enclosure:
    return _atanh_series(Fraction(1, 3), Fraction(1, 1 << k))


def log2_enclosure(err: Rat) -> Enclosure:
    """Enclosure of log 2 of width <= err (natural log).

    A function of err alone: the series runs to the budget 2^-k with
    k = ceil(-log2 err) (at least 0), and each k is computed once."""
    return _log2_at_bits(max(0, -floor_log2(Fraction(err))))


def log_enclosure(q: Rat, err: Rat) -> Enclosure:
    """Enclosure of log(q) of width <= err, for rational q > 0."""
    q = Fraction(q)
    err = Fraction(err)
    if q <= 0:
        raise DomainError("log of a non-positive rational")
    if err <= 0:
        raise DomainError("error budget must be positive")
    if q == 1:
        return Enclosure.exact(0)
    if q < 1:
        return -log_enclosure(1 / q, err)
    e = floor_log2(q)
    m = q / Fraction(2) ** e  # in [1, 2)
    budget = err / 4
    bits = max(8, 1 - floor_log2(budget))
    m_lo = _round_down(m, bits)
    m_hi = _round_up(m, bits)
    if m_lo < 1:
        m_lo = Fraction(1)
    lo_part = _atanh_series((m_lo - 1) / (m_lo + 1), budget)
    hi_part = _atanh_series((m_hi - 1) / (m_hi + 1), budget)
    if e == 0:
        return Enclosure(lo_part.lo, hi_part.hi)
    ln2 = log2_enclosure(budget / abs(e))
    scaled = ln2 * e
    return Enclosure(scaled.lo + lo_part.lo, scaled.hi + hi_part.hi)


def _exp_core(t: Fraction, budget: Fraction) -> Enclosure:
    """Enclosure of exp(t) for 0 <= t <= 1/2 with series tail <= budget."""
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    while True:
        j += 1
        term = term * t / j
        total += term
        tail = 2 * term * t / (j + 1)
        if tail <= budget:
            return Enclosure(total, total + tail)


def exp_enclosure(t: Rat, err: Rat) -> Enclosure:
    """Enclosure of exp(t) of width <= err, for rational t."""
    t = Fraction(t)
    err = Fraction(err)
    if err <= 0:
        raise DomainError("error budget must be positive")
    if t == 0:
        return Enclosure.exact(1)
    if t < 0:
        # exp(t) = 1/exp(-t); reciprocal shrinks widths since exp(-t) >= 1
        return exp_enclosure(-t, err).reciprocal()
    halvings = 0
    s = t
    while s > Fraction(1, 2):
        s /= 2
        halvings += 1
    budget = err / 4
    for _ in range(80):
        enc = _exp_core(s, budget)
        for _ in range(halvings):
            enc = enc * enc
        if enc.width <= err:
            return enc
        budget /= 16
    raise PrecisionError(f"exp enclosure did not converge for t={t}")


def pow_enclosure(base: Enclosure, p: int, q: int, err: Rat) -> Enclosure:
    """Enclosure of base**(p/q) for a positive enclosure and integers p, q >= 1."""
    if base.lo < 0:
        raise DomainError("rational powers need a nonnegative enclosure")
    powered = base ** p
    lo_root = nth_root_enclosure(powered.lo, q, err)
    hi_root = nth_root_enclosure(powered.hi, q, err)
    return Enclosure(lo_root.lo, hi_root.hi)
