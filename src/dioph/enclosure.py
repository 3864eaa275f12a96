"""Certified rational interval arithmetic.

Every transcendental quantity in the library (logarithms, Mahler
measures, root moduli, exponentials) is carried as an Enclosure: a pair
of rationals [lo, hi] guaranteed to contain the true value.  Arithmetic
on enclosures is exact rational arithmetic on the endpoints.  Logs,
exponentials and n-th roots are computed on integer mantissas at scale
2**-w, with every step that feeds the lower end floored and every step
that feeds the upper end ceiled, so they are sound by construction; w is
the requested bits plus the guard bits counted in their docstrings, and
the endpoints' denominators are powers of two of about that size.
Precision is improved by recomputing with a smaller error budget, never
by trusting floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Tuple, Union

from .exceptions import DomainError

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


def floor_log2(q: Rat) -> int:
    """Largest e with 2**e <= q, for rational q > 0."""
    if q <= 0:
        raise DomainError("floor_log2 needs a positive rational")
    return floor_log2_ratio(q.numerator, q.denominator)


def floor_log2_ratio(n: int, d: int) -> int:
    """Largest e with 2**e <= n/d, for integers n, d > 0."""
    e = n.bit_length() - d.bit_length()  # n/d lies in (2**(e-1), 2**(e+1))
    if n << max(-e, 0) < d << max(e, 0):
        e -= 1
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
        if not isinstance(lo, Fraction):
            lo = Fraction(lo)
        if not isinstance(hi, Fraction):
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


def nth_root_enclosure(q: Rat, k: int, err: Rat) -> Enclosure:
    """Enclosure of q**(1/k) of width <= err, for rational q >= 0."""
    q = Fraction(q)
    err = Fraction(err)
    if q < 0:
        raise DomainError("nth_root_enclosure of a negative rational")
    if err <= 0:
        raise DomainError("error budget must be positive")
    bits = max(4, 1 - floor_log2(err))
    lo, hi = root_mantissas(q.numerator, q.denominator, k, bits)
    return Enclosure(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def root_mantissas(n: int, d: int, k: int, bits: int) -> Tuple[int, int]:
    """(m, m + 1) for m = floor(2**bits * (n/d)**(1/k)), integers n >= 0
    and d > 0, or (0, 0) for n = 0: the endpoints of nth_root_enclosure
    at scale 2**-bits.  With N = floor(n * 2**(k*bits) / d),
    n/d * 2**(k*bits) < N + 1 <= (m + 1)**k, so m + 1 is an upper bound."""
    if n == 0:
        return 0, 0
    big = (n << (k * bits)) // d
    m = isqrt(big) if k == 2 else iroot(big, k)
    return m, m + 1


def _working_bits(base: int) -> int:
    """base + g with g = bit_length(base + 64), so the result w < 2**g
    (g <= 64).  The series below round at most w times, a few units each,
    and g pays for that count: 4w + 2 < 2**(g + 2)."""
    return base + (base + 64).bit_length()


def _atanh_units(a: int, b: int, w: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2**w * 2*atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    Fixed point at scale S = 2**w.  The lower sum floors every power and
    quotient and the upper sum ceils them, so pl <= z**k * S <= pu at each
    odd k, and the sums bracket the partial sums of sum z**k / k.  The
    series stops at the first k with pu <= k; the upper end then adds
    ceil(9 pu / (8 k)), which bounds the tail because
    sum_{j >= k} z**j / j <= z**k / (k (1 - z**2)) and z**2 <= 1/9.

    Width: the rounded squares of z differ by at most 2 units, so
    pu - pl <= 3 at every k; each term after the first then adds at most
    2 units to hi - lo, the first at most 1 and the tail at most 2, and
    hi - lo <= 2 (2n + 1) for n terms.  While the loop runs, z**k * S > 2
    for k >= 5, i.e. 3**k < S, so n <= w / 3 + 3 <= w and
    hi - lo <= 4w + 2.
    """
    zl = (a << w) // b
    zu = -((-a << w) // b)
    z2l = zl * zl >> w
    z2u = -(-zu * zu >> w)
    lo = hi = 0
    pl, pu, k = zl, zu, 1
    while pu > k:
        lo += pl // k
        hi -= -pu // k
        pl = pl * z2l >> w
        pu = -(-pu * z2u >> w)
        k += 2
    hi -= -9 * pu // (8 * k)
    return 2 * lo, 2 * hi


@lru_cache(maxsize=None)
def _log2_units(w: int) -> Tuple[int, int]:
    """log 2 = 2*atanh(1/3) at scale 2**w, each w computed once."""
    return _atanh_units(1, 3, w)


def log_units(n: int, d: int, b: int) -> Tuple[int, int, int]:
    """(lo, hi, w) with lo <= 2**w * log(n/d) <= hi and hi - lo <= 2**(w - b),
    for integers n, d > 0 and b >= 0: the integer core of log_enclosure.

    With n/d = 2**e * m, m = num/den in [1, 2) and z = (num - den)/(num + den)
    in [0, 1/3), log(n/d) = e log 2 + 2 atanh(z).  Both series run at scale
    2**-w (_atanh_units) and each has width at most 4w + 2 units, so the
    enclosure is at most (1 + |e|)(4w + 2) < 2**(bit_length(|e|) + g + 2)
    units wide, g = w - base from _working_bits.  With
    w = b + bit_length(|e|) + 2 + g that is at most 2**(w - b) units.
    """
    e = floor_log2_ratio(n, d)
    num, den = n << max(-e, 0), d << max(e, 0)
    w = _working_bits(b + abs(e).bit_length() + 2)
    lo, hi = _atanh_units(num - den, num + den, w)
    if e:
        ln2_lo, ln2_hi = _log2_units(w)
        lo += e * (ln2_lo if e > 0 else ln2_hi)
        hi += e * (ln2_hi if e > 0 else ln2_lo)
    return lo, hi, w


def log_enclosure(q: Rat, err: Rat) -> Enclosure:
    """Enclosure of log(q) of width <= err, for rational q > 0: log_units
    at the b with 2**-b <= err."""
    q = Fraction(q)
    err = Fraction(err)
    if q <= 0:
        raise DomainError("log of a non-positive rational")
    if err <= 0:
        raise DomainError("error budget must be positive")
    lo, hi, w = log_units(q.numerator, q.denominator, max(0, -floor_log2(err)))
    return Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def _exp_units(a: int, b: int, w: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2**w * exp(a/b) <= hi, for 0 < a/b <= 1/2.

    Fixed point at scale S = 2**w.  The terms s**j / j! * S are floored
    in the lower sum and ceiled in the upper one, down to the first upper
    term tu <= 1; the tail after it is at most that term times
    (s/2)/(1 - s/2) <= 1/3, so the upper end adds tu once more.

    Width: with s * S <= S/2 the two j-th terms differ by at most 3 units
    (the first by 1), and the loop stops by j = w + 2, so
    hi - lo <= 3 (w + 2) + 1 < 4w.
    """
    sl = (a << w) // b
    su = -((-a << w) // b)
    lo = hi = tl = tu = 1 << w
    j = 0
    while tu > 1:
        j += 1
        tl = tl * sl // (j << w)
        tu = -(-tu * su // (j << w))
        lo += tl
        hi += tu
    return lo, hi + tu


def exp_enclosure(t: Rat, err: Rat) -> Enclosure:
    """Enclosure of exp(t) of width <= err, for rational t.

    With u = |t|, s = u / 2**h <= 1/2 and exp(u) = exp(s)**(2**h): the
    series (_exp_units) at scale S = 2**w is squared h times, flooring the
    lower and ceiling the upper end.  Both ends stay >= S, so each squaring
    costs a factor (1 +- 1/S) on top of squaring the relative error; from
    the series' relative error eps <= 4w / S, the squares lo <= S exp(u)
    <= hi end within a factor exp(y) above and 1 - y below, where
    y = 2**h (eps + 1/S) <= 2**(h + g + 2) / S, as 4w < 2**(g + 2) with
    g = w - base from _working_bits.  Every w below is at least h + g + 4,
    so y <= 1/4 and hi - lo < 3 y S exp(u).  Let 2**-b <= err.

    t > 0: the width is below 3 y exp(t) < 2**(h + g + 4 + mag - w), where
    mag = ceil(3t/2) >= log2 exp(t), so w = b + mag + h + 4 + g gives
    width <= 2**-b.

    t < 0: the ends are floor(S**2 / hi) and ceil(S**2 / lo), which
    bracket S exp(t) = S**2 / (S exp(u)).  Their difference is at most
    S**2 (hi - lo) / (lo hi) + 2 <= 3 y S / ((1 - y) exp(u)) + 2 <= 4 y S + 2
    units, since lo >= (1 - y) S exp(u), hi >= S exp(u) and exp(u) >= 1; the
    width is then at most 2**(h + g + 4 - w) + 2**(1 - w), and
    w = b + 1 + h + 4 + g gives width <= 2**-b, whatever the size of u.
    """
    t = Fraction(t)
    err = Fraction(err)
    if err <= 0:
        raise DomainError("error budget must be positive")
    if t == 0:
        return Enclosure.exact(1)
    n, d = abs(t.numerator), t.denominator
    halvings = 0
    while 2 * n > d << halvings:
        halvings += 1
    mag = -(-3 * n // (2 * d)) if t > 0 else 1
    w = _working_bits(max(0, -floor_log2(err)) + mag + halvings + 4)
    lo, hi = _exp_units(n, d << halvings, w)
    for _ in range(halvings):
        lo = lo * lo >> w
        hi = -(-hi * hi >> w)
    if t < 0:
        lo, hi = (1 << 2 * w) // hi, -(-(1 << 2 * w) // lo)
    return Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w))

