"""Continued fractions of real algebraic numbers and empirical
approximation analysis: certified convergent errors, the explicit
Liouville lower-bound constant, violation scans, and approximation
exponents.

Partial quotients are read off the isolating interval: the common
prefix of the continued fractions of its two rational endpoints is a
prefix of alpha's, and the interval is refined (width w to w^2) when
the prefix runs out.  Every comparison of alpha with a rational is made
on integers (AlgebraicNumber.compare_ratio): p/q +- a/(b q^k) is the
pair (p b q^(k-1) -+ a, b q^k), which is cross-multiplied with the
endpoints of the isolating interval, and only a point strictly inside
the interval costs a sign test of the minimal polynomial.  Two such
comparisons certify each convergent's |alpha - p/q| < 1/q^2.  A
Liouville candidate is first compared with the interval's endpoints,
read once per scan, which settles nearly every one; at most four
compare_ratio calls decide the rest against c(alpha)/q^n.  The
exponents kappa are quotients of the integer log mantissas of
enclosure.log_units.  No floating point enters any verdict, and no
comparison refines the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Optional, Set, Tuple

from .enclosure import Enclosure, floor_log2_ratio, log_units
from .exceptions import DomainError, InternalError, PrecisionError, UnsupportedError
from .numberfield import AlgebraicNumber
from .roots import max_root_modulus

_REFINE_ROUNDS = 320
# root-modulus widths liouville_constant tries, each 1/64 of the last
_CONSTANT_ROUNDS = 40
# error_enclosure's grid: 2**-_ERROR_BITS relative to the error
_ERROR_BITS = 40
# continued_fraction computes at most this many partial quotients
CF_TERMS_CAP = 1000
# exponent_report's logs are 2**-30 <= 1e-9 wide
_KAPPA_LOG_BITS = 30


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


def error_enclosure(alpha: AlgebraicNumber, p: int, q: int) -> Enclosure:
    """Enclosure of |alpha - p/q|.

    For irrational alpha it is the cell [k, k + 1] * 2**(f - 40) that holds
    the value, f = floor(log2 |alpha - p/q|): the interval is refined until
    the endpoints, rounded outward to that grid, span one cell.  A
    binade boundary 2**f is a grid point, so the accepted cell is the
    same whatever alpha's cached interval was, and its relative width is
    at most 2**-40.  The differences of the endpoints with p/q and their
    grid cells are computed on integer numerators and denominators.
    """
    if q < 1:
        raise DomainError("denominator must be >= 1")
    if alpha.is_rational():
        return Enclosure.exact(abs(alpha.rational_value() - Fraction(p, q)))
    lo, hi = alpha.interval()
    for _ in range(_REFINE_ROUNDS):
        # lo - p/q = nl/dl and hi - p/q = nh/dh with dl, dh > 0
        nl, dl = lo.numerator * q - p * lo.denominator, lo.denominator * q
        nh, dh = hi.numerator * q - p * hi.denominator, hi.denominator * q
        if nl > 0 or nh < 0:
            # |alpha - p/q| lies in [n1/d1, n2/d2]
            n1, d1, n2, d2 = (nl, dl, nh, dh) if nl > 0 else (-nh, dh, -nl, dl)
            bits = max(0, _ERROR_BITS - floor_log2_ratio(n1, d1))
            k = (n1 << bits) // d1
            if -((-n2 << bits) // d2) == k + 1:
                return Enclosure(Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits))
        lo, hi = alpha.refine((hi - lo) / 16)
    raise PrecisionError(f"|alpha - {p}/{q}| did not settle in one grid cell: used "
                         f"{_REFINE_ROUNDS} refinements; the cap is {_REFINE_ROUNDS}")


def _common_prefix(lo: Fraction, hi: Fraction) -> Tuple[List[int], bool]:
    """(terms, lo == hi): the partial quotients that Euclid's algorithm on
    lo and on hi shares and continues past, or all of them when lo == hi."""
    terms: List[int] = []
    n1, d1, n2, d2 = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    while True:
        a = n1 // d1
        if n2 // d2 != a:
            return terms, False
        n1, d1, n2, d2 = d1, n1 - a * d1, d2, n2 - a * d2
        if d1 == 0 and d2 == 0:
            return terms + [a], True
        if d1 == 0 or d2 == 0:
            return terms, False
        terms.append(a)


def cf_quotients(alpha: AlgebraicNumber) -> Iterator[int]:
    """Stream of partial quotients; terminates only for rational alpha.

    They are the common prefix of the expansions of the endpoints
    lo <= alpha <= hi of alpha's isolating interval.  Proof: the reals
    whose expansion starts a_0, ..., a_k and goes on are the image of
    (a_k, a_k + 1) under the monotone map y -> [a_0; ..., a_(k-1), y], an
    interval.  A rational whose canonical expansion continues past a_k
    has its k-th complete quotient strictly inside (a_k, a_k + 1), so it
    lies in that interval; if lo and hi do, so does alpha between them.
    An irrational alpha is inside every such interval, so refining the
    width w to min(w^2, w/4) whenever the prefix runs out yields every term.
    A rational alpha is the case lo == hi, expanded whole.
    """
    if not alpha.is_real():
        raise DomainError("continued fractions need a real root selector")
    lo, hi = alpha.interval()
    emitted = 0
    while True:
        terms, ended = _common_prefix(lo, hi)
        yield from terms[emitted:]
        if ended:
            return
        # the refined interval lies inside the old one, so the prefix only grows
        emitted = len(terms)
        w = hi - lo
        lo, hi = alpha.refine(min(w * w, w / 4))


def _convergents(alpha: AlgebraicNumber) -> Iterator[Tuple[int, int, int]]:
    """(a_k, p_k, q_k): each partial quotient with its convergent p_k/q_k."""
    p0, q0 = 1, 0
    p1, q1 = 0, 1
    for a in cf_quotients(alpha):
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        yield a, p0, q0


def continued_fraction(alpha: AlgebraicNumber, n_terms: int) -> ContinuedFraction:
    """First n_terms partial quotients and convergents of a real algebraic
    number, each convergent certified to satisfy |alpha - p/q| < 1/q^2.

    n_terms may not exceed CF_TERMS_CAP."""
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if n_terms > CF_TERMS_CAP:
        raise UnsupportedError(
            f"{n_terms} continued-fraction terms requested; the cap is {CF_TERMS_CAP}"
        )
    head = list(islice(_convergents(alpha), n_terms))
    for _, p, q in head:
        _certify_dirichlet(alpha, p, q)
    return ContinuedFraction(
        subject=alpha,
        partial_quotients=[a for a, _, _ in head],
        convergents=[(p, q) for _, p, q in head],
        terminated=len(head) < n_terms,
    )


def _within(alpha: AlgebraicNumber, p: int, q: int, a: int, b: int, k: int) -> bool:
    """|alpha - p/q| < a/(b q^k) (also <=, alpha irrational), for b, k >= 1:
    alpha is compared with p/q -+ a/(b q^k) = (p b q^(k-1) -+ a)/(b q^k)."""
    den, mid = b * q ** k, p * b * q ** (k - 1)
    return alpha.compare_ratio(mid - a, den) > 0 and alpha.compare_ratio(mid + a, den) < 0


def _certify_dirichlet(alpha: AlgebraicNumber, p: int, q: int) -> None:
    """Exact check of the convergent inequality |alpha - p/q| < 1/q^2."""
    if not _within(alpha, p, q, 1, 1, 2):
        raise InternalError(f"convergent {p}/{q} violates the 1/q^2 bound")


def _convergents_past(alpha: AlgebraicNumber, q_max: int) -> Iterator[Tuple[int, int, int]]:
    """_convergents up to the first with q > q_max (or the end, for
    rational alpha).  Raises UnsupportedError when that takes more than
    CF_TERMS_CAP partial quotients."""
    for k, c in enumerate(_convergents(alpha)):
        if k == CF_TERMS_CAP:
            raise UnsupportedError(
                f"a q_max of {q_max.bit_length()} bits needs more than {CF_TERMS_CAP} "
                f"continued-fraction terms; the cap is CF_TERMS_CAP = {CF_TERMS_CAP}"
            )
        yield c
        if c[2] > q_max:
            return


def convergents_up_to(alpha: AlgebraicNumber, q_max: int) -> List[Tuple[int, int]]:
    """All convergents with denominator <= q_max."""
    return [(p, q) for _, p, q in _convergents_past(alpha, q_max) if q <= q_max]


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
    for _ in range(_CONSTANT_ROUNDS):
        M = max_root_modulus(alpha.min_poly, w)
        denom = (M * 3) ** (n - 1) * lead
        second = denom.reciprocal()
        c = Enclosure(min(M.lo, second.lo), min(M.hi, second.hi))
        if c.width <= precision:
            return c
        w /= 64
    raise PrecisionError(
        f"Liouville constant enclosure did not reach width {float(precision):.3g}: used "
        f"{_CONSTANT_ROUNDS} root-modulus widths down to {float(w * 64):.3g}; the cap is "
        f"{_CONSTANT_ROUNDS}")


@dataclass
class LiouvilleViolation:
    p: int
    q: int
    error: Enclosure
    threshold: Enclosure


def _fatou_candidates(alpha: AlgebraicNumber, q_max: int) -> Set[Tuple[int, int]]:
    """The convergents and neighbours (p_(k+1) +- p_k)/(q_(k+1) +- q_k),
    from (p_-1, q_-1) = (1, 0), with 1 <= q <= q_max: by Fatou's theorem
    every p/q in lowest terms with |alpha - p/q| < 1/q^2.  The stream
    stops at the first q_(k+1) > q_max: later neighbours have q > q_max
    or repeat an earlier convergent."""
    out: Set[Tuple[int, int]] = set()
    p0, q0 = 1, 0
    for _, p1, q1 in _convergents_past(alpha, q_max):
        for p, q in ((p1, q1), (p1 + p0, q1 + q0), (p1 - p0, q1 - q0)):
            if 1 <= q <= q_max:
                out.add((p, q))
        p0, q0 = p1, q1
    return out


def _violates(alpha: AlgebraicNumber, p: int, q: int, c: Enclosure) -> Optional[bool]:
    """True if |alpha - p/q| <= c.lo/q^n, False if it exceeds c.hi/q^n,
    None if c's window leaves it open."""
    n = alpha.degree
    if not _within(alpha, p, q, c.hi.numerator, c.hi.denominator, n):
        return False
    return True if _within(alpha, p, q, c.lo.numerator, c.lo.denominator, n) else None


def liouville_scan(
    alpha: AlgebraicNumber,
    q_max: int,
    sweep_limit: int = 1000,
    coarse: Optional[Enclosure] = None,
) -> List[LiouvilleViolation]:
    """Certify |alpha - p/q| > c(alpha)/q^n for every p/q with q <= q_max;
    returns the violations, expected empty.

    The search is complete: c(alpha) <= min(M, 1/(3M)) <= 1/sqrt(3) < 1,
    so a violator in lowest terms has |alpha - p/q| < 1/q^2 and is among
    _fatou_candidates.  The four p nearest q*alpha for each q <= sweep_limit
    are checked too.  A candidate in the window of c's 1e-12 enclosure is
    decided again with c to 1e-30, once.  A coarse enclosure of c at
    most 1e-12 wide, such as the caller's own liouville_constant, is used
    in place of the 1e-12 one.

    The isolating interval [lo, hi] is read once, after the sweep, and
    each candidate is first cross-multiplied against it: a window
    [p/q - c.hi/q^n, p/q + c.hi/q^n] that starts at or above hi, or ends
    at or below lo, leaves alpha outside, so |alpha - p/q| > c.hi/q^n.
    That is the first test compare_ratio makes, so the verdict is the one
    _violates would give; later refinements (error_enclosure, on a
    violation) stay inside [lo, hi], which therefore stays valid.  Only
    the candidates this leaves open go on to _violates.
    """
    n = alpha.degree
    if n < 2:
        raise DomainError("Liouville scan needs an irrational algebraic number")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    if sweep_limit < 0:
        raise DomainError("sweep_limit must be >= 0")
    candidates = _fatou_candidates(alpha, q_max)
    lo, hi = alpha.interval()
    w_num, w_den = (hi - lo).as_integer_ratio()
    for q in range(1, min(sweep_limit, q_max) + 1):
        if 4 * q * w_num > w_den:  # refine(1/(4q)) would narrow the interval
            lo, hi = alpha.refine(Fraction(1, 4 * q))
            w_num, w_den = (hi - lo).as_integer_ratio()
        base = lo.numerator * q // lo.denominator
        candidates.update((p, q) for p in range(base - 1, base + 3))
    if coarse is None or coarse.width > Fraction(1, 10 ** 12):
        coarse = liouville_constant(alpha, Fraction(1, 10 ** 12))
    lo, hi = alpha.interval()
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    a, b = coarse.hi.numerator, coarse.hi.denominator
    fine = None
    violations = []
    for p, q in sorted(candidates, key=lambda t: (t[1], t[0])):
        # the window p/q -+ c.hi/q^n is [(mid - a)/den, (mid + a)/den]; one
        # starting at or above hi, or ending at or below lo, misses alpha
        den, mid = b * q ** n, p * b * q ** (n - 1)
        if (mid - a) * hd >= hn * den or (mid + a) * ld <= ln * den:
            continue
        c, verdict = coarse, _violates(alpha, p, q, coarse)
        if verdict is None:
            fine = fine or liouville_constant(alpha, Fraction(1, 10 ** 30))
            c, verdict = fine, _violates(alpha, p, q, fine)
        if verdict is None:
            raise PrecisionError(f"could not decide the bound at {p}/{q}: used c(alpha) to "
                                 "1e-12 and 1e-30; the cap is those two widths")
        if verdict:
            threshold = c * Fraction(1, q ** n)
            violations.append(LiouvilleViolation(p, q, error_enclosure(alpha, p, q), threshold))
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
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    records: List[ApproxRecord] = []
    dirichlet = 0
    for p, q in convergents_up_to(alpha, q_max):
        err = error_enclosure(alpha, p, q)
        kappa = None
        if q >= 2:
            # a_lo/2**w_lo <= log(err.lo) and log(err.hi) <= a_hi/2**w_hi, both below
            # log(1/4) + 2**-30 < 0, and 0 < q_lo/2**w_q <= log(q) <= q_hi/2**w_q, so
            # kappa = -log(err)/log(q) lies in [-a_hi/q_hi, -a_lo/q_lo] once scaled
            a_lo, _, w_lo = log_units(err.lo.numerator, err.lo.denominator, _KAPPA_LOG_BITS)
            _, a_hi, w_hi = log_units(err.hi.numerator, err.hi.denominator, _KAPPA_LOG_BITS)
            q_lo, q_hi, w_q = log_units(q, 1, _KAPPA_LOG_BITS)
            kappa = Enclosure(Fraction(-a_hi << w_q, q_hi << w_hi),
                              Fraction(-a_lo << w_q, q_lo << w_lo))
        records.append(ApproxRecord(p=p, q=q, error=err, kappa=kappa))
        _certify_dirichlet(alpha, p, q)
        dirichlet += 1
    hurwitz = None
    if records:
        tail = records[len(records) // 2 :]
        hurwitz = Enclosure(min(r.error.lo * (r.q * r.q) for r in tail),
                            min(r.error.hi * (r.q * r.q) for r in tail))
    kappas = [r.kappa for r in records if r.kappa is not None]
    max_exp = None
    if kappas:
        max_exp = Enclosure(max(k.lo for k in kappas), max(k.hi for k in kappas))
    return records, ExponentSummary(
        dirichlet_count=dirichlet, hurwitz_liminf=hurwitz, max_exponent=max_exp
    )
