"""Oracles the tests check the production routes against.

The search oracles scan the defining box directly, with no reduction
and no pruning, so they share no code with the routes they check.  The
Liouville oracle decides by enclosures of the error, not by the sign
tests of the production scan.  The bisection oracle refines a root
interval in Fraction arithmetic, where production bisects integer
numerators over one denominator.  The root oracles bound |root|, the
root boxes and M(f) by nth_root_enclosure and Enclosure arithmetic on
Fraction views of the certified disks, where production keeps every
endpoint an integer mantissa.  The embedding oracles compute c1 and h(B)
with Enclosure arithmetic on rational complex boxes, where production
works on integer mantissas of the root boxes.  The index oracle builds
and evaluates one normalized derivative per multi-index, where
production reads every derivative off one Taylor shift.  The minima
oracle picks witnesses by one rank per candidate, where production
tests each candidate against an integer basis of the witnesses'
orthogonal complement.  The polynomial oracles run Euclid and Yun's
algorithm over Q on Fraction coefficient lists, where production
pseudo-divides integer polynomials.  The Mahler-filter oracle decides
M(f) <= c by the structural and enclosure route alone, where production
asks an integer Graeffe verdict first, and it runs whole mahler_enclosure
ladders, where production takes the root moduli once per rung.  The
Northcott oracle scans the box in the order irreducibility (by sympy),
then that oracle.
"""

from fractions import Fraction
from math import comb, gcd
from itertools import product as iter_product
from typing import Optional, Tuple

import sympy

from dioph.enclosure import Enclosure, log_enclosure, nth_root_enclosure
from dioph.exceptions import PrecisionError
from dioph.heights import _residual_mahler, _strip_exact_factors, mahler_enclosure
from dioph.intpoly import (
    IntPolynomial,
    content_and_primitive,
    squarefree_decomposition,
    squarefree_part,
)
from dioph.lattice import MinimaResult, _enumerate_reduced, _reduced_lattice
from dioph.multipoly import IndexValue, MultiPoly, normalized_derivative
from dioph.numberfield import AlgebraicNumber
from dioph.roots import root_disks, root_moduli
from dioph.siegel import IntMatrix


def pigeonhole_solve(matrix: IntMatrix, box: int) -> Optional[Tuple[int, ...]]:
    """Nonzero kernel vector with all |x_i| <= box, by a meet-in-the-middle
    collision search mirroring the pigeonhole existence proof; None if the
    closed box is empty of solutions."""
    n = matrix.ncols
    half = n // 2
    rng = range(-box, box + 1)
    left_cols = list(range(half))
    right_cols = list(range(half, n))
    seen = {}
    for xl in iter_product(*(rng for _ in left_cols)):
        key = tuple(
            sum(row[c] * xl[i] for i, c in enumerate(left_cols))
            for row in matrix.entries
        )
        if key not in seen:
            seen[key] = xl
    for xr in iter_product(*(rng for _ in right_cols)):
        target = tuple(
            -sum(row[c] * xr[i] for i, c in enumerate(right_cols))
            for row in matrix.entries
        )
        xl = seen.get(target)
        if xl is None:
            continue
        x = tuple(xl) + tuple(xr)
        if any(v != 0 for v in x):
            return x
    return None


def exact_rank(vectors) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def lattice_points_in_cube(rows, cap: int):
    """Every nonzero integer combination of the independent `rows` with
    sup norm <= cap, found by scanning the cube [-cap, cap]^N and solving
    for the coefficients with a left inverse computed by sympy."""
    R = sympy.Matrix(rows)
    # z = P y for every y in the row space, with P = (R R^T)^-1 R
    P = [[Fraction(int(c.p), int(c.q)) for c in row] for row in ((R * R.T).inv() * R).tolist()]
    found = set()
    for y in iter_product(range(-cap, cap + 1), repeat=len(rows[0])):
        z = [sum(p * v for p, v in zip(row, y)) for row in P]
        if any(y) and all(c.denominator == 1 for c in z) and all(
            sum(c * r[j] for c, r in zip(z, rows)) == v for j, v in enumerate(y)
        ):
            found.add(y)
    return found


def _greedy_minima(body, points):
    """Gauges of the greedy independent picks from `points` sorted by gauge."""
    lambdas, picked = [], []
    for t, x in sorted((body.gauge(x), x) for x in points):
        if len(picked) == body.dimension:
            break
        if exact_rank(picked + [x]) > len(picked):
            picked.append(x)
            lambdas.append(t)
    return lambdas


def brute_force_minima(body, max_points: int = 20_000) -> Optional[Tuple[Fraction, ...]]:
    """Successive minima of a ConvexBody by scanning every integer point
    of a box that holds all points of gauge <= lambda_N; None when that
    box has more than `max_points` points.

    The greedy picks among the points of [-1, 1]^N (the unit vectors are
    there) give T >= lambda_N, and a point of gauge <= T has
    |x|_inf <= T * |(D L)^-1|_inf."""
    n = body.dimension
    top = _greedy_minima(body, iter_product(range(-1, 2), repeat=n))[-1]
    scaled = sympy.Matrix(
        [[sympy.Rational(a.numerator, a.denominator) / sympy.Rational(c.numerator, c.denominator)
          for a in row] for row, c in zip(body.forms, body.bounds)]
    )
    inv = scaled.inv()
    norm = max(sum(abs(inv[i, j]) for j in range(n)) for i in range(n))
    box = int(sympy.floor(norm * sympy.Rational(top.numerator, top.denominator)))
    if (2 * box + 1) ** n > max_points:
        return None
    points = (x for x in iter_product(range(-box, box + 1), repeat=n) if any(x))
    return tuple(_greedy_minima(body, points))


def successive_minima_by_rank(body) -> MinimaResult:
    """Successive minima by the greedy over ranks: the points of the same
    enumeration as production, sorted by (den * gauge, x), each witness
    the first point that raises the rank of those picked before it."""
    n = body.dimension
    rows, V, den = _reduced_lattice(body)
    cap = max(abs(v) for row in rows for v in row)
    scored = []
    for z, y in _enumerate_reduced(rows, cap):
        x = tuple(sum(V[i][j] * z[i] for i in range(n)) for j in range(n))
        scored.append((max(abs(v) for v in y), x))
    scored.sort()
    lambdas, witnesses = [], []
    for t, x in scored:
        if len(witnesses) == n:
            break
        if exact_rank(witnesses + [x]) > len(witnesses):
            witnesses.append(x)
            lambdas.append(Fraction(t, den))
    return MinimaResult(lambdas=tuple(lambdas), witnesses=tuple(witnesses))


def index_by_enumeration(P: MultiPoly, point, weights) -> IndexValue:
    """The index of P at the point by enumerate-and-evaluate: the
    multi-indices of the degree box in increasing weighted order, one
    normalized derivative built and evaluated per multi-index, up to the
    first that does not vanish.  +infinity for the zero polynomial."""
    if P.is_zero():
        return IndexValue(None)

    def order(idx):
        return sum(Fraction(i, r) for i, r in zip(idx, weights))

    for idx in sorted(iter_product(*(range(d + 1) for d in P.partial_degrees())), key=order):
        if normalized_derivative(P, idx).evaluate(point) != 0:
            return IndexValue(order(idx))
    raise AssertionError("a nonzero polynomial with every boxed derivative zero")


def refine_root_interval_by_fractions(f, interval, width):
    """Bisect an isolating interval of a squarefree f, with a sign change
    across it, below the given width: the midpoint, or the point a third
    of the way up when the midpoint is a root."""
    a, b = Fraction(interval[0]), Fraction(interval[1])
    sa = f.sign_at(a)
    while b - a > width:
        m = (a + b) / 2
        sm = f.sign_at(m)
        if sm == 0:
            m = a + (b - a) / 3
            sm = f.sign_at(m)
        if sm == sa:
            a = m
        else:
            b = m
    return a, b


def _qdivmod(a, b):
    """Quotient and remainder of ascending Fraction coefficient lists."""
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    q = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db:
        k = len(a) - 1 - db
        coef = a[-1] / b[-1]
        q[k] = coef
        for i in range(db + 1):
            a[k + i] -= coef * b[i]
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _to_primitive(qs) -> IntPolynomial:
    """The primitive integer polynomial that is a positive multiple of qs."""
    den = 1
    for c in qs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in qs]
    g = gcd(*ints)
    return IntPolynomial(c // g for c in ints) if g else IntPolynomial.zero()


def _with_positive_lead(f: IntPolynomial) -> IntPolynomial:
    return -f if not f.is_zero() and f.leading < 0 else f


def gcd_by_fractions(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient, by Euclid over Q."""
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        a, b = b, _qdivmod(a, b)[1]
    return _with_positive_lead(_to_primitive([Fraction(c) for c in a]))


def divide_exact_by_fractions(f: IntPolynomial, g: IntPolynomial):
    """f / g if g divides f over Z, else None, by division over Q."""
    q, r = _qdivmod(f.coeffs, [Fraction(c) for c in g.coeffs])
    if r or any(c.denominator != 1 for c in q):
        return None
    return IntPolynomial(int(c) for c in q)


def sturm_sequence_by_fractions(g: IntPolynomial):
    """Sturm chain of a squarefree g: g, g', then the primitive positive
    multiple of minus each remainder over Q."""
    seq = [g, g.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        rem = _qdivmod(seq[-2].coeffs, [Fraction(c) for c in seq[-1].coeffs])[1]
        if not rem:
            break
        seq.append(_to_primitive([-c for c in rem]))
    return [s for s in seq if not s.is_zero()]


def _derive(qs):
    return [k * c for k, c in enumerate(qs) if k]


def _sub(a, b):
    n = max(len(a), len(b))
    return [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def squarefree_decomposition_by_fractions(f: IntPolynomial):
    """[(g_i, i)] with f ~ prod g_i^i, each g_i primitive, squarefree, of
    positive leading coefficient and degree >= 1: Yun's algorithm over Q
    on the whole of f, with no power of x split off and no modular test."""
    if f.degree < 1:
        return []
    fq = [Fraction(c) for c in f.coeffs]
    a0 = [Fraction(c) for c in gcd_by_fractions(f, f.derivative()).coeffs]
    b = _qdivmod(fq, a0)[0]
    d = _sub(_qdivmod(_derive(fq), a0)[0], _derive(b))
    out, i = [], 1
    while len(b) > 1:
        ai = gcd_by_fractions(_to_primitive(b), _to_primitive(d))
        if ai.degree > 0:
            out.append((ai, i))
        aq = [Fraction(c) for c in ai.coeffs]
        b_next = _qdivmod(b, aq)[0]
        d = _sub(_qdivmod(d, aq)[0], _derive(b_next))
        b, i = b_next, i + 1
    return out


def liouville_verdict_by_enclosure(alpha, p: int, q: int, c) -> bool:
    """True if |alpha - p/q| <= c.lo/q^n, False if it exceeds c.hi/q^n:
    the enclosure route of the Liouville scan, which refines a copy of
    alpha's isolating interval until the enclosure of the error
    |alpha - p/q| clears the threshold window."""
    alpha = AlgebraicNumber(alpha.min_poly, interval=alpha.interval())
    x, qn = Fraction(p, q), q ** alpha.degree
    for _ in range(400):
        lo, hi = alpha.interval()
        err_lo, err_hi = max(lo - x, x - hi, 0), max(hi - x, x - lo)
        if err_lo > c.hi / qn:
            return False
        if err_hi <= c.lo / qn:
            return True
        alpha.refine((hi - lo) / 16)
    raise AssertionError(f"enclosures did not decide the bound at {p}/{q}")


def disk_view(den: int, disks):
    """root_disks's (den, [(x, y, p, q)]) as ((re, im), radius_sq) Fractions."""
    return [((Fraction(x, den), Fraction(y, den)), Fraction(p, q * den * den))
            for x, y, p, q in disks]


def enclosure_view(s: int, items):
    """root_moduli's (s, [(lo, hi)]) as Enclosures, or ordered_root_boxes's
    (s, [Box]) as (re, im) Enclosure pairs, all at scale 2**-s."""

    def enc(lo, hi):
        return Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s))

    return [enc(*m) if len(m) == 2 else (enc(*m[:2]), enc(*m[2:])) for m in items]


def modulus_enclosure(disk, err: Fraction) -> Enclosure:
    """Enclosure of |root| for a disk ((re, im), radius_sq) of disk_view,
    of width <= err when the radius is at most err / 8."""
    (re, im), radius_sq = disk
    r_hi = nth_root_enclosure(radius_sq, 2, err / 8).hi
    middle = nth_root_enclosure(re * re + im * im, 2, err / 4)
    return Enclosure(max(Fraction(0), middle.lo - r_hi), middle.hi + r_hi)


def real_enclosure(disk, err: Fraction) -> Enclosure:
    (re, _), radius_sq = disk
    r_hi = nth_root_enclosure(radius_sq, 2, err / 8).hi
    return Enclosure(re - r_hi, re + r_hi)


def imag_enclosure(disk, err: Fraction) -> Enclosure:
    (_, im), radius_sq = disk
    r_hi = nth_root_enclosure(radius_sq, 2, err / 8).hi
    return Enclosure(im - r_hi, im + r_hi)


def _target(q: Fraction):
    return q.numerator, q.denominator


def root_moduli_by_enclosures(f: IntPolynomial, precision: Fraction):
    """roots.root_moduli as Enclosures, ordered by midpoint and then by
    the real part of the disk's center."""
    out = []
    for factor, mult in squarefree_decomposition(f):
        for disk in disk_view(*root_disks(factor, _target((precision / 8) ** 2))):
            out += [(disk[0][0], modulus_enclosure(disk, precision))] * mult
    out.sort(key=lambda pair: (pair[1].mid, pair[0]))
    return [enc for _, enc in out]


def ordered_root_boxes_by_enclosures(f: IntPolynomial, precision: Fraction):
    """roots.ordered_root_boxes as (re, im) Enclosure pairs, ordered by
    their midpoints."""
    g = squarefree_part(f)
    disks = disk_view(*root_disks(g, _target((precision / 4) ** 2)))
    boxes = [(real_enclosure(d, precision), imag_enclosure(d, precision)) for d in disks]
    boxes.sort(key=lambda b: (b[0].mid, b[1].mid))
    return boxes


def mahler_by_enclosures(f: IntPolynomial, precision: Fraction) -> Enclosure:
    """heights.mahler_enclosure by Enclosure products of the oracle
    moduli, each clipped at 1, with the same ladder of modulus widths."""
    content, prim = content_and_primitive(f)
    w = precision / (4 * prim.degree * max(1, abs(prim.leading)))
    for _ in range(60):
        acc = Enclosure.exact(abs(prim.leading))
        for m in root_moduli_by_enclosures(prim, w):
            acc = acc * Enclosure(max(m.lo, Fraction(1)), max(m.hi, Fraction(1)))
        acc = acc * content
        if acc.width <= precision:
            return acc
        w /= 64
    raise PrecisionError("the oracle's Mahler ladder did not converge")


def mahler_leq_by_ladders(f: IntPolynomial, c: Fraction) -> bool:
    """heights._mahler_leq_exact as an earlier version wrote it: whole
    mahler_enclosure ladders at widths 1e-8 to 1e-40, each run to its
    width, then the tie rules on root moduli at 1e-40, then enclosures at
    1e-80, 1e-160 and 1e-320; production takes the root moduli once per
    rung of one ladder and asks the tie rules on every rung."""
    content, prim = content_and_primitive(f)
    exact_part, rest = _strip_exact_factors(prim)
    target = c / content / exact_part
    exact = _residual_mahler(rest)
    if exact is not None:
        return exact <= target
    for k in range(8, 41, 4):
        enc = mahler_enclosure(rest, Fraction(1, 10 ** k))
        if enc.hi <= target:
            return True
        if enc.lo > target:
            return False
    s, moduli = root_moduli(rest, Fraction(1, 10 ** 40))
    if all(lo > 1 << s for lo, _ in moduli):
        return Fraction(abs(rest.constant)) <= target  # M = |a_0|
    if all(hi < 1 << s for _, hi in moduli):
        return Fraction(abs(rest.leading)) <= target
    for k in (80, 160, 320):
        enc = mahler_enclosure(rest, Fraction(1, 10 ** k))
        if enc.hi <= target:
            return True
        if enc.lo > target:
            return False
    raise PrecisionError(f"the oracle's ladders did not decide M({f}) <= {c}")


def mahler_leq_by_enclosures(f: IntPolynomial, c) -> bool:
    """heights.mahler_leq without its Graeffe verdict: the two early
    rejects |lc| > c and |f(0)| > c on the primitive part, then
    mahler_leq_by_ladders."""
    c = Fraction(c)
    content, prim = content_and_primitive(f)
    if abs(prim.leading) > c / content:
        return False
    if prim.constant != 0 and abs(prim.constant) > c / content:
        return False
    return mahler_leq_by_ladders(f, c)


def northcott_by_scan(degree_max: int, height_max) -> list:
    """heights.northcott_enumerate as a plain scan of the same box: each
    primitive vector is tested for irreducibility by sympy, then by
    mahler_leq_by_enclosures against X^n."""
    x = sympy.Symbol("x")
    height_max = Fraction(height_max)
    out = []
    for n in range(1, degree_max + 1):
        xn = height_max ** n
        ranges = [range(-int(comb(n, i) * xn), int(comb(n, i) * xn) + 1) for i in range(n)]
        for an in range(1, int(xn) + 1):
            for lower in iter_product(*ranges):
                cs = list(lower) + [an]
                g = 0
                for v in cs:
                    g = gcd(g, v)
                if g != 1 or not sympy.Poly(cs[::-1], x).is_irreducible:
                    continue
                f = IntPolynomial(cs)
                if mahler_leq_by_enclosures(f, xn):
                    out.append(f)
    out.sort(key=lambda p: (p.degree, p.coeffs))
    return out


class ComplexBox:
    """A complex rectangle re + i*im with enclosure parts.  Sums,
    products and negation are the exact interval operations."""

    __slots__ = ("re", "im")

    def __init__(self, re: Enclosure, im: Enclosure):
        self.re = re
        self.im = im

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def _abs2(self) -> Enclosure:
        return self.re * self.re + self.im * self.im

    def abs_upper(self, err: Fraction) -> Fraction:
        return nth_root_enclosure(max(self._abs2().hi, Fraction(0)), 2, err).hi

    def abs_lower(self, err: Fraction) -> Fraction:
        return nth_root_enclosure(max(self._abs2().lo, Fraction(0)), 2, err).lo


def embedding_matrix(boxes):
    """Complex boxes for W[r][k] = sigma_r(alpha)^k, one row per root box."""
    d = len(boxes)
    W = []
    for re, im in boxes:
        row = [ComplexBox(Enclosure.exact(1), Enclosure.exact(0))]
        z = ComplexBox(re, im)
        for _ in range(1, d):
            row.append(row[-1] * z)
        W.append(row)
    return W


def inverse_embedding_bound_by_enclosures(a, precision, boxes) -> Enclosure:
    """numberfield.inverse_embedding_bound on ComplexBoxes: the Lagrange
    columns q_r = f / (x - sigma_r) by synthetic division, each entry
    bounded in modulus and divided by bounds on |q_r(sigma_r)|."""
    precision = Fraction(precision)
    d = a.degree
    if d == 1:
        return Enclosure.exact(1)
    coeffs = a.min_poly.coeffs
    for _ in range(6):
        row_hi = [Fraction(0)] * d
        row_lo = [Fraction(0)] * d
        if boxes is None:
            boxes = ordered_root_boxes_by_enclosures(a.min_poly, precision)
        for re, im in boxes:
            z = ComplexBox(re, im)
            q = [ComplexBox(Enclosure.exact(coeffs[d]), Enclosure.exact(0))]
            for c in reversed(coeffs[1:d]):
                t = q[-1] * z
                q.append(ComplexBox(t.re + c, t.im))
            q.reverse()  # q[k] is the coefficient of x^k in f / (x - z)
            fprime = q[d - 1]
            for c in reversed(q[: d - 1]):
                fprime = fprime * z + c
            f_lo = fprime.abs_lower(precision)
            if f_lo == 0:
                break
            f_hi = fprime.abs_upper(precision)
            for k in range(d):
                row_hi[k] += q[k].abs_upper(precision) / f_lo
                row_lo[k] += q[k].abs_lower(precision) / f_hi
        else:
            hi = max(row_hi)
            return Enclosure(min(max(row_lo), hi), hi)
        boxes = None
        precision /= 10 ** 4
    raise PrecisionError("f'(sigma) could not be separated from 0")


def coefficient_log_height_by_enclosures(entries, d: int, err, boxes) -> Enclosure:
    """siegel._coefficient_log_height on the rows of embedding_matrix:
    (1/d) * sum over the root boxes of log max(1, max |sigma(a)|) over
    the integer coordinate tuples a in `entries`."""
    if d == 1:
        return log_enclosure(max([abs(rep[0]) for rep in entries] + [1]), err)
    total = Enclosure.exact(0)
    for box_pows in embedding_matrix(boxes):
        max_sq_hi = max_sq_lo = Fraction(1)
        for rep in entries:
            re = Enclosure.exact(0)
            im = Enclosure.exact(0)
            for k, c in enumerate(rep):
                re = re + box_pows[k].re * c
                im = im + box_pows[k].im * c
            abs2 = re * re + im * im
            max_sq_hi = max(max_sq_hi, abs2.hi)
            max_sq_lo = max(max_sq_lo, abs2.lo)
        hi = log_enclosure(max_sq_hi, err).hi / 2
        lo = log_enclosure(max_sq_lo, err).lo / 2
        total = total + Enclosure(min(lo, hi), hi)
    return total * Fraction(1, d)
