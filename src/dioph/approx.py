"""Continued fractions of real algebraic numbers and empirical
approximation analysis: certified convergent errors, the explicit
Liouville lower-bound constant, violation scans, and approximation
exponents.

Partial quotients are computed by exact floor-and-invert on the
algebraic number itself (sign evaluations of the minimal polynomial
decide every floor); no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .enclosure import Enclosure, log_enclosure
from .exceptions import DomainError, InternalError, PrecisionError
from .numberfield import AlgebraicNumber
from .roots import max_root_modulus

_REFINE_ROUNDS = 80


@dataclass
class ApproxRecord:
    """One rational approximation p/q with its certified error data."""

    p: int
    q: int
    error: Enclosure  # |alpha - p/q|
    kappa: Optional[Enclosure]  # -log|alpha - p/q| / log q, for q >= 2


@dataclass
class ContinuedFraction:
    subject: AlgebraicNumber
    partial_quotients: List[int]
    convergents: List[Tuple[int, int]]
    terminated: bool = False


def error_enclosure(
    alpha: AlgebraicNumber, p: int, q: int, rel_bits: int = 30
) -> Enclosure:
    """Enclosure of |alpha - p/q| with relative width about 2**-rel_bits.

    For irrational alpha the enclosure excludes zero.
    """
    if q < 1:
        raise DomainError("denominator must be >= 1")
    target = Fraction(p, q)
    if alpha.is_rational():
        return Enclosure.exact(abs(alpha.rational_value() - target))
    lo, hi = alpha.interval()
    for _ in range(_REFINE_ROUNDS * 4):
        diff = Enclosure(lo - target, hi - target)
        if not diff.contains(0):
            err = abs(diff)
            if err.width * (1 << rel_bits) <= err.lo:
                return err
        lo, hi = alpha.refine((hi - lo) / 16)
    raise PrecisionError("error enclosure refinement stalled")


def _convergents(quotients: List[int]) -> List[Tuple[int, int]]:
    out = []
    p0, q0 = 1, 0
    p1, q1 = 0, 1
    for a in quotients:
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        out.append((p0, q0))
    return out


def cf_quotients(alpha: AlgebraicNumber) -> Iterator[int]:
    """Stream of partial quotients; terminates only for rational alpha."""
    if not alpha.is_real():
        raise DomainError("continued fractions need a real root selector")
    if alpha.is_rational():
        num = alpha.rational_value().numerator
        den = alpha.rational_value().denominator
        while den != 0:
            a = num // den
            yield a
            num, den = den, num - a * den
        return
    state = alpha
    while True:
        a = state.floor()
        yield a
        state = state.shift_int(a).reciprocal()


def continued_fraction(alpha: AlgebraicNumber, n_terms: int) -> ContinuedFraction:
    """First n_terms partial quotients and convergents of a real algebraic
    number, each convergent certified to satisfy |alpha - p/q| < 1/q^2."""
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if not alpha.is_real():
        raise DomainError("continued fractions need a real root selector")
    quotients: List[int] = []
    terminated = False
    for a in cf_quotients(alpha):
        quotients.append(a)
        if len(quotients) >= n_terms:
            break
    else:
        terminated = True
    convergents = _convergents(quotients)
    for p, q in convergents:
        _certify_dirichlet(alpha, p, q)
    return ContinuedFraction(
        subject=alpha,
        partial_quotients=quotients,
        convergents=convergents,
        terminated=terminated,
    )


def _certify_dirichlet(alpha: AlgebraicNumber, p: int, q: int) -> None:
    """Exact check of the convergent inequality |alpha - p/q| < 1/q^2."""
    bound = Fraction(1, q * q)
    if alpha.is_rational():
        if abs(alpha.rational_value() - Fraction(p, q)) >= bound:
            raise InternalError(f"convergent {p}/{q} violates the 1/q^2 bound")
        return
    lo, hi = alpha.interval()
    target = Fraction(p, q)
    for _ in range(_REFINE_ROUNDS * 4):
        if lo - target > -bound and hi - target < bound:
            return
        if lo - target >= bound or hi - target <= -bound:
            raise InternalError(f"convergent {p}/{q} violates the 1/q^2 bound")
        lo, hi = alpha.refine((hi - lo) / 16)
    raise PrecisionError("convergent certification stalled")


def convergents_up_to(alpha: AlgebraicNumber, q_max: int) -> List[Tuple[int, int]]:
    """All convergents with denominator <= q_max."""
    out = []
    p0, q0 = 1, 0
    p1, q1 = 0, 1
    for a in cf_quotients(alpha):
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        if q0 > q_max:
            break
        out.append((p0, q0))
    return out


# ---------------------------------------------------------------------------
# Liouville's explicit constant and the violation scan


def liouville_constant(
    alpha: AlgebraicNumber, precision: Fraction = Fraction(1, 10 ** 9)
) -> Enclosure:
    """The proof's constant c(alpha) = min(M, 1/(|a_n| (3M)^(n-1))) with
    M the largest root modulus of the minimal polynomial."""
    n = alpha.degree
    if n < 2:
        raise DomainError("Liouville's bound concerns algebraic numbers of degree >= 2")
    precision = Fraction(precision)
    w = precision
    lead = abs(alpha.min_poly.leading)
    for _ in range(40):
        M = max_root_modulus(alpha.min_poly, w)
        denom = (M * 3) ** (n - 1) * lead
        second = denom.reciprocal()
        c = Enclosure(min(M.lo, second.lo), min(M.hi, second.hi))
        if c.width <= precision:
            return c
        w /= 64
    raise PrecisionError("Liouville constant enclosure did not converge")


@dataclass
class LiouvilleViolation:
    p: int
    q: int
    error: Enclosure
    threshold: Enclosure


def liouville_scan(
    alpha: AlgebraicNumber, q_max: int, sweep_limit: int = 1000
) -> List[LiouvilleViolation]:
    """Certify |alpha - p/q| > c(alpha)/q^n over all convergents with
    q <= q_max plus a complete sweep of every q <= sweep_limit.

    Returns the violation list, expected empty: the best-approximation
    theorem makes convergents (plus the small-q sweep) a complete search.
    """
    n = alpha.degree
    if n < 2:
        raise DomainError("Liouville scan needs an irrational algebraic number")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    c = liouville_constant(alpha, Fraction(1, 10 ** 12))
    candidates = set(convergents_up_to(alpha, q_max))
    for q in range(1, min(sweep_limit, q_max) + 1):
        lo, hi = alpha.refine(Fraction(1, 4 * q))
        base = (lo * q).__floor__()
        for p in (base - 1, base, base + 1, base + 2):
            candidates.add((p, q))
    violations = []
    for p, q in sorted(candidates, key=lambda t: (t[1], t[0])):
        threshold = c * Fraction(1, q ** n)
        err = error_enclosure(alpha, p, q)
        decided = False
        for _ in range(_REFINE_ROUNDS):
            if err.lo > threshold.hi:
                decided = True
                break
            if err.hi <= threshold.lo:
                violations.append(
                    LiouvilleViolation(p=p, q=q, error=err, threshold=threshold)
                )
                decided = True
                break
            err = error_enclosure(alpha, p, q, rel_bits=60)
            threshold = liouville_constant(alpha, Fraction(1, 10 ** 30)) * Fraction(
                1, q ** n
            )
        if not decided:
            raise PrecisionError(f"could not decide the bound at {p}/{q}")
    return violations


# ---------------------------------------------------------------------------
# exponent experiments


@dataclass
class ExponentSummary:
    dirichlet_count: int
    hurwitz_liminf: Optional[Enclosure]  # min of q^2 |alpha - p/q| on the tail half
    max_exponent: Optional[Enclosure]  # max kappa over q >= 2


def exponent_report(
    alpha: AlgebraicNumber, q_max: int
) -> Tuple[List[ApproxRecord], ExponentSummary]:
    """Approximation records for every convergent with q <= q_max.

    dirichlet_count counts certified |alpha - p/q| < 1/q^2 (all of them,
    by the convergent inequality); hurwitz_liminf is the minimum of
    q^2 * error over the tail half of the records; max_exponent is the
    largest kappa = -log(error)/log(q) over records with q >= 2.
    """
    if alpha.is_rational():
        raise DomainError("exponent experiments need an irrational subject")
    records: List[ApproxRecord] = []
    dirichlet = 0
    for p, q in convergents_up_to(alpha, q_max):
        err = error_enclosure(alpha, p, q)
        kappa = None
        if q >= 2:
            log_err = Enclosure(
                log_enclosure(err.lo, Fraction(1, 10 ** 9)).lo,
                log_enclosure(err.hi, Fraction(1, 10 ** 9)).hi,
            )
            log_q = log_enclosure(q, Fraction(1, 10 ** 9))
            kappa = (-log_err) / log_q
        records.append(ApproxRecord(p=p, q=q, error=err, kappa=kappa))
        _certify_dirichlet(alpha, p, q)
        dirichlet += 1
    hurwitz = None
    if records:
        tail = records[len(records) // 2 :]
        vals = [r.error * (r.q * r.q) for r in tail]
        hurwitz = Enclosure(min(v.lo for v in vals), min(v.hi for v in vals))
    kappas = [r.kappa for r in records if r.kappa is not None]
    max_exp = None
    if kappas:
        max_exp = Enclosure(max(k.lo for k in kappas), max(k.hi for k in kappas))
    return records, ExponentSummary(
        dirichlet_count=dirichlet, hurwitz_liminf=hurwitz, max_exponent=max_exp
    )
