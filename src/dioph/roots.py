"""Certified complex root enclosures for integer polynomials.

Floating point seeds are polished by Newton steps on dyadic centers and
certified by the residual bound: for squarefree g of degree n and
g'(z) != 0, some root of g lies within n*|g(z)/g'(z)| of z.  Once the n
disks are pairwise disjoint each contains exactly one root, which
upgrades the float guesses to rigorous enclosures.  The seeds come from
the Aberth-Ehrlich iteration on Python complex floats.  mpmath's
polyroots at a higher working precision is the fallback (a coefficient
of 1e300 or more, no convergence within the sweep budget, or a value
that is not finite) and gives the finer seeds of every retry.

A center is a pair of integer mantissas (x, y) standing for
(x + iy) / 2**bits.  The starting bits come from the target radius, and
doubling them is the fallback when certification fails.  g and g' are
evaluated by Horner's rule on Gaussian integers, each step rounds
z - g(z)/g'(z) down to 2**-bits, and the residual bound is decided by
integer cross-multiplication.  Two disks are disjoint when their centers
are further apart than the sum of integer upper bounds on the radii, a
test on integers of about 2*bits bits; only disks that nearly touch go
on to the exact cross-multiplied test.  All certificates are exact; the
floats only ever choose starting points.

Results stay integer mantissas.  root_disks returns (den, [(x, y, p, q)])
with center (x + iy) / den and squared radius p / (q * den**2).
root_moduli and ordered_root_boxes bound |center| and the radius by the
integer square roots of enclosure.root_mantissas, the endpoints
nth_root_enclosure would give, at one scale 2**-s: a modulus is a pair
(lo, hi) and a box (Box) four integers, each standing for the same
rational as Enclosure arithmetic on the disks would give.  Only
max_root_modulus returns an Enclosure.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import List, Tuple

from .enclosure import Enclosure, floor_log2_ratio, root_mantissas
from .exceptions import DomainError, InternalError, PrecisionError
from .intpoly import IntPolynomial, iroot_ceil, squarefree_decomposition, squarefree_part

# seeds: a shared binary scale and one integer mantissa pair per root
Seeds = Tuple[int, List[Tuple[int, int]]]
# (x, y, p, q): center (x + iy) / den and squared radius p / (q * den**2)
Disk = Tuple[int, int, int, int]
# (re_lo, re_hi, im_lo, im_hi): [re_lo, re_hi] / 2**s + i [im_lo, im_hi] / 2**s
# at a scale s that travels with the box
Box = Tuple[int, int, int, int]


def _floor_scaled(q: Fraction, bits: int) -> int:
    """floor(q * 2**bits)."""
    return (q.numerator << bits) // q.denominator


def _horner(coeffs, x: int, y: int, bits: int) -> Tuple[int, int]:
    """2**(bits*m) * p(z) at z = (x + iy) / 2**bits, for p of degree m
    with ascending integer coeffs: Horner's rule on Gaussian integers,
    with the j-th coefficient scaled by 2**(bits*(m - j))."""
    re, im, shift = coeffs[-1], 0, 0
    for c in reversed(coeffs[:-1]):
        shift += bits
        re, im = re * x - im * y + (c << shift), re * y + im * x
    return re, im


# sweeps of the Aberth iteration before the mpmath seeds take over
_ABERTH_STEPS = 100
# root_disks tries the seeds at doubling bits this many times
_CERTIFY_ATTEMPTS = 8


def _float_seeds(g: IntPolynomial) -> Seeds:
    """Float approximations of the n roots of g (degree n >= 2) as
    mantissas at scale 2**-64, from the Aberth-Ehrlich iteration; the
    mpmath seeds when a coefficient does not fit comfortably in a
    float, the iteration does not converge within _ABERTH_STEPS sweeps
    or an iterate is not finite."""
    try:
        a = [float(c) for c in g.coeffs]
        roots = _aberth(a) if all(abs(c) < 1e300 for c in a) else None
    except (OverflowError, ZeroDivisionError):
        roots = None
    if roots is None:
        return _mpmath_seeds(g, 60)
    return 64, [(_mantissa(z.real), _mantissa(z.imag)) for z in roots]


def _mantissa(x: float) -> int:
    """floor(x * 2**64), exact for a finite float."""
    num, den = x.as_integer_ratio()
    return (num << 64) // den


def _aberth(a: List[float]):
    """Roots of sum a[k] x**k by the Aberth-Ehrlich iteration (Aberth,
    Math. Comp. 27, 1973), or None if it has not converged within
    _ABERTH_STEPS Gauss-Seidel sweeps or an iterate or a bound is not
    finite.

    The start is a circle about the centroid -a[n-1] / (n a[n]) of the
    roots, of radius |a[0] / a[n]|**(1/n), their geometric mean modulus,
    turned by 0.4 rad so that no point lies on the real axis (Bini,
    Numer. Algorithms 13, 1996).  A root is frozen once its step falls
    below 1e-14 * max(1, |z|), or once |p(z)| is within the rounding
    error 4n * eps * sum |a_k| |z|**k of Horner's rule, where no float
    step can improve it (a root of a cluster stops there).
    """
    n = len(a) - 1
    lead = a[n]
    rest = list(zip(a[-2::-1], map(abs, a[-2::-1])))
    noise = 4 * n * sys.float_info.epsilon
    radius = abs(a[0] / lead) ** (1.0 / n) or 1.0
    center = -a[n - 1] / (n * lead)
    zs = [center + radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    moving = range(n)
    for _ in range(_ABERTH_STEPS):
        still = []
        for i in moving:
            z = zs[i]
            r = abs(z)
            # p(z) and p'(z) by one Horner pass, with e = sum |a_k| r**k
            p, d, e = lead, 0, abs(lead)
            for c, ac in rest:
                d = d * z + p
                p = p * z + c
                e = e * r + ac
            if not e < math.inf:
                return None
            if abs(p) <= noise * e:
                continue  # p(z) is rounding noise: z is as good as floats get
            w = p / d
            step = w / (1 - w * sum([1 / (z - y) for y in zs[:i] + zs[i + 1:]]))
            z -= step
            if not cmath.isfinite(z):
                return None
            zs[i] = z
            if abs(step) >= 1e-14 * max(1.0, abs(z)):
                still.append(i)
        if not still:
            return zs
        moving = still
    return None


def _mpmath_seeds(g: IntPolynomial, digits: int, attempts: int = 0) -> Seeds:
    """Seeds from mpmath.polyroots at `digits` digits.  PrecisionError,
    naming the `attempts` root_disks has spent, if it does not converge."""
    import mpmath

    with mpmath.workdps(digits + 10 * g.degree):
        try:
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(g.coeffs)], maxsteps=200, extraprec=200
            )
        except mpmath.mp.NoConvergence:
            raise PrecisionError(f"could not seed the roots of {g!r}: mpmath.polyroots did not "
                                 f"converge at {digits} digits; used {attempts} attempts, "
                                 f"the cap is {_CERTIFY_ATTEMPTS} attempts") from None
        bits = int(digits * 3.4) + 16
        return bits, [
            (
                _floor_scaled(Fraction(mpmath.nstr(r.real, digits + 5)), bits),
                _floor_scaled(Fraction(mpmath.nstr(r.imag, digits + 5)), bits),
            )
            for r in roots
        ]


def _pairwise_disjoint(disks: List[Disk]) -> bool:
    """Disks (x, y, p, q) with center (x + iy) / 2**b and squared radius
    p / (q * 4**b), q > 0, on one scale b.  True iff every two satisfy
    |z_i - z_j| > r_i + r_j.

    In units of 2**-b the radius is sqrt(p/q) <= R = ceil(sqrt(ceil(p/q))),
    so (x_i - x_j)^2 + (y_i - y_j)^2 > (R_i + R_j)^2 proves the pair
    disjoint on integers of about 2b bits.  Only a pair that fails this
    is decided exactly (_apart): s = |z_i - z_j|^2 - r_i^2 - r_j^2 > 0
    and s^2 > 4 r_i^2 r_j^2, tested on t = s * q_i * q_j * 4**b.
    """
    radii = [iroot_ceil(-(-p // q)) for _, _, p, q in disks]
    for i, (xi, yi, _, _) in enumerate(disks):
        for j in range(i + 1, len(disks)):
            xj, yj, _, _ = disks[j]
            near = (xi - xj) ** 2 + (yi - yj) ** 2 <= (radii[i] + radii[j]) ** 2
            if near and not _apart(disks[i], disks[j]):
                return False
    return True


def _apart(u: Disk, v: Disk) -> bool:
    """The exact test of _pairwise_disjoint for one pair of disks."""
    (xi, yi, pi, qi), (xj, yj, pj, qj) = u, v
    t = ((xi - xj) ** 2 + (yi - yj) ** 2) * qi * qj - pi * qj - pj * qi
    return t > 0 and t * t > 4 * pi * pj * qi * qj


def root_disks(g: IntPolynomial, target: Tuple[int, int]) -> Tuple[int, List[Disk]]:
    """Certified disks around all complex roots of a squarefree g, as
    (den, [(x, y, p, q)]): center (x + iy) / den and squared radius at
    most p / (q * den**2).  den = 2**bits, or |lead| at degree 1, where
    the root is an exact rational and the radius 0.

    Each disk contains exactly one root and has squared radius at most
    num / den for target = (num, den), integers.  Raises PrecisionError
    if certification fails within the iteration budget.
    """
    n = g.degree
    if n < 1:
        raise DomainError("root_disks needs degree >= 1")
    if n == 1:
        lead = g.leading
        return abs(lead), [(-g.constant if lead > 0 else g.constant, 0, 0, 1)]
    coeffs, deriv = g.coeffs, g.derivative().coeffs
    num, den = target

    seed_bits, seeds = _float_seeds(g)
    # n^2 * 2 * 4**-bits, the residual bound of a converged center, is
    # then below the target
    bits = max(128, (den.bit_length() - num.bit_length()) // 2 + 2 * n.bit_length() + 32)
    for attempt in range(_CERTIFY_ATTEMPTS):
        if attempt:
            bits *= 2
            seed_bits, seeds = _mpmath_seeds(g, 40 * attempt, attempt)
        scale = max(bits, seed_bits)
        centers = [(x << (scale - seed_bits), y << (scale - seed_bits)) for x, y in seeds]
        # 41 evaluations: at the seeds, then at 40 Newton iterates, each
        # one feeding both the certificate and the next step
        for rnd in range(41):
            vals = []
            for x, y in centers:
                dr, di = _horner(deriv, x, y, scale)
                d2 = dr * dr + di * di
                if d2 == 0:
                    break
                vals.append((_horner(coeffs, x, y, scale), dr, di, d2))
            if len(vals) < n:
                break
            if rnd:
                disks = [
                    (x, y, n * n * (vr * vr + vi * vi), d2)
                    for (x, y), ((vr, vi), _, _, d2) in zip(centers, vals)
                ]
                # n^2 |V|^2 / (|D|^2 4**bits) <= num / den for every center
                fits = all(p * den <= (num * q) << (2 * bits) for _, _, p, q in disks)
                if fits and _pairwise_disjoint(disks):
                    return 1 << bits, disks
                if rnd == 40:
                    break
            # Newton step: z - g(z)/g'(z) = (Z - V conj(D) / |D|^2) / 2**scale
            # for z = Z / 2**scale, rounded down to 2**-bits
            shift = scale - bits
            centers = [
                (
                    (x - (vr * dr + vi * di + d2 - 1) // d2) >> shift,
                    (y - (vi * dr - vr * di + d2 - 1) // d2) >> shift,
                )
                for (x, y), ((vr, vi), dr, di, d2) in zip(centers, vals)
            ]
            scale = bits
    raise PrecisionError(
        f"could not certify root disks of {g!r} at target {num / den}: "
        f"used {_CERTIFY_ATTEMPTS} attempts of 40 Newton steps, up to {bits} bits; "
        f"the cap is {_CERTIFY_ATTEMPTS} attempts"
    )


def _precision_parts(precision: Fraction) -> Tuple[int, int, int]:
    """(num, den, e) of a precision num/den > 0, with 2**e <= num/den <
    2**(e + 1); DomainError for precision <= 0.  An int or a Fraction is
    read as it stands; anything else goes through Fraction first."""
    if not isinstance(precision, (int, Fraction)):
        precision = Fraction(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    num, den = precision.numerator, precision.denominator
    return num, den, floor_log2_ratio(num, den)


def ordered_root_boxes(f: IntPolynomial, precision: Fraction) -> Tuple[int, List[Box]]:
    """Boxes around the distinct roots of f at one scale 2**-s, as
    (s, [Box]), ordered by the real and then the imaginary part of their
    centers, which fixes a deterministic conjugate numbering.

    Each box is its disk's center plus or minus the radius bound of
    nth_root_enclosure at err precision / 8 (scale 2**-b); the disks have
    squared radii at most (precision / 4)**2.  s = max(b, bits) for
    disks at den = 2**bits, so every endpoint is exact; a degree-1
    squarefree part with a root that is not dyadic is rounded outward to
    2**-s.  Raises DomainError for precision <= 0 before any root is
    computed.
    """
    num, den, e = _precision_parts(precision)
    b = max(4, 4 - e)
    c, disks = root_disks(squarefree_part(f), (num * num, 16 * den * den))
    s = max(b, c.bit_length() - 1)
    boxes = []
    for x, y, p, q in disks:
        r = root_mantissas(p, q * c * c, 2, b)[1] << (s - b)
        x_lo, y_lo = (x << s) // c, (y << s) // c
        x_hi, y_hi = -((-x << s) // c), -((-y << s) // c)
        boxes.append((x_lo - r, x_hi + r, y_lo - r, y_hi + r))
    boxes.sort(key=lambda z: (z[0] + z[1], z[2] + z[3]))
    return s, boxes


def root_moduli(f: IntPolynomial, precision: Fraction) -> Tuple[int, List[Tuple[int, int]]]:
    """Enclosures [lo, hi] / 2**s of |root| for every root of f, counted
    with multiplicity, as (s, [(lo, hi)]), ordered by midpoint and then
    by the real part of the disk's center.

    Each enclosure has width <= precision: the disks have squared radii
    at most (precision / 8)**2, and |center| and the radius are bounded
    as nth_root_enclosure would at err precision / 4 and precision / 8,
    whose scales are 2**-(s - 1) or 2**-s and 2**-s.  The product of the
    enclosures times |leading| is checked against |constant| as an
    internal consistency test.
    """
    num, den, e = _precision_parts(precision)
    if f.is_zero() or f.degree < 1:
        raise DomainError("root_moduli needs a nonzero polynomial of degree >= 1")
    b, s = max(4, 3 - e), max(4, 4 - e)
    out = []
    for factor, mult in squarefree_decomposition(f):
        c, disks = root_disks(factor, (num * num, 64 * den * den))
        for x, y, p, q in disks:
            m_lo, m_hi = root_mantissas(x * x + y * y, c * c, 2, b)
            r = root_mantissas(p, q * c * c, 2, s)[1]
            lo, hi = max(0, (m_lo << (s - b)) - r), (m_hi << (s - b)) + r
            out += [(lo, hi, x, c)] * mult
    # x / c compared on one common denominator
    common = math.lcm(*(c for _, _, _, c in out))
    out.sort(key=lambda m: (m[0] + m[1], m[2] * (common // m[3])))
    moduli = [(lo, hi) for lo, hi, _, _ in out]
    _check_product(f, s, moduli)
    return s, moduli


def _check_product(f: IntPolynomial, s: int, moduli: List[Tuple[int, int]]) -> None:
    """|lc| * prod lo <= |a_0| * 2**(n*s) <= |lc| * prod hi."""
    lo = hi = abs(f.leading)
    for m_lo, m_hi in moduli:
        lo *= m_lo
        hi *= m_hi
    if not lo <= abs(f.constant) << (len(moduli) * s) <= hi:
        raise InternalError("root moduli product does not enclose |constant coefficient|")


def max_root_modulus(f: IntPolynomial, precision: Fraction) -> Enclosure:
    """Enclosure of the largest root modulus of f."""
    s, moduli = root_moduli(f, precision)
    return Enclosure(Fraction(max(lo for lo, _ in moduli), 1 << s),
                     Fraction(max(hi for _, hi in moduli), 1 << s))
