"""Seeded job lists for the three benchmark workloads.

A job is a dict with the `argv` handed to `dioph.cli.main` plus the
parameters the checkers need.  Every list is a function of
(workload, seed) alone: the slot layout (which subcommand, which size)
is fixed per workload and the seed draws the concrete inputs, so two
seeds cost about the same and the same seed yields the same list.

Inputs the program would reject are filtered here with sympy (reducible
or non-squarefree polynomials, singular forms), never by calling dioph.
Every positional argument follows `--` and options with signed values
are written `--opt=value`, so signed inputs are allowed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import sympy

X = sympy.Symbol("x")

WORKLOADS = ("heights", "approximation", "lattices")

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


# ---------------------------------------------------------------------------
# polynomial helpers (ascending integer coefficients)


def poly_text(coeffs):
    """'3x^2-x+5' style text for ascending integer coefficients."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if k == 0:
            body = str(a)
        else:
            mono = "x" if k == 1 else f"x^{k}"
            body = mono if a == 1 else f"{a}{mono}"
        parts.append((sign, body))
    text = "".join(s + b for s, b in parts)
    return text[1:] if text.startswith("+") else text


def _spoly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")


def _primitive(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g == 1


def _squarefree(coeffs):
    p = _spoly(coeffs)
    return sympy.gcd(p, p.diff(X)).degree() == 0


def _irreducible(coeffs):
    return _spoly(coeffs).is_irreducible


@lru_cache(maxsize=None)
def cyclotomic(k):
    return [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(k, X), X).all_coeffs())]


def _real_root_intervals(coeffs):
    """Isolating intervals (lo, hi) of the real roots, ascending, from sympy."""
    return [(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
            for (a, b), _ in _spoly(coeffs).intervals()]


def _random_poly(rng, degree, height, monic=False):
    coeffs = [rng.randint(-height, height) for _ in range(degree)]
    lead = 1 if monic else rng.choice([c for c in range(-height, height + 1) if c])
    if coeffs[0] == 0:
        coeffs[0] = rng.choice([-1, 1])
    return coeffs + [lead]


def _random_irreducible(rng, degree, height, monic=False, real_root=False):
    while True:
        f = _random_poly(rng, degree, height, monic=monic)
        if f[-1] < 0:
            f = [-c for c in f]
        if not _primitive(f) or not _irreducible(f):
            continue
        if real_root and not _real_root_intervals(f):
            continue
        return f


def _frac(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _random_rational(rng, size):
    den = rng.randint(1, size)
    return Fraction(rng.randint(-size, size), den)


# ---------------------------------------------------------------------------
# heights: complex-root certification and enclosure series

# (degree, digits) per mahler slot.  A shape's cost hardly depends on the
# coefficients drawn, so every seed gets the same mix of sizes.  At 1e-40
# a job costs ten times its 1e-30 cost (0.5-1.1 s from degree 8 up), so
# degrees 9-11 stop at 1e-30 to keep a round near five seconds.
MAHLER_SHAPES = ([(d, p) for d in range(2, 13) for p in (12, 20, 30)]
                 + [(d, 40) for d in range(2, 9)] + [(12, 40)]
                 # about ten jobs cost 0.1 s or more, so the p90 falls among
                 # jobs of one cost instead of between two sizes
                 + [(12, 12), (12, 20)] * 2)
KRONECKER_ORDERS = [k for k in range(2, 31) if sympy.totient(k) <= 8]
KRONECKER_DEGREES = [2, 2, 3, 3, 4, 4, 5, 6, 6, 8]
NORTHCOTT_SCANS = [(1, "3"), (1, "5/2"), (1, "4"), (2, "1"), (2, "5/4"), (2, "3/2")]


def _mahler_job(coeffs, digits):
    return {"kind": "mahler", "coeffs": coeffs, "precision": f"1e-{digits}",
            "argv": ["mahler", "--precision", f"1e-{digits}", "--", poly_text(coeffs)]}


def heights_jobs(rng):
    jobs = [_mahler_job(LEHMER, 40)]
    for degree, digits in MAHLER_SHAPES:
        while True:
            f = _random_poly(rng, degree, 9)
            if _squarefree(f):
                break
        jobs.append(_mahler_job(f, digits))
    # Kronecker with the Weil height: cyclotomic inputs and others
    for _ in range(10):
        k = rng.choice(KRONECKER_ORDERS)
        jobs.append(_kronecker_job(cyclotomic(k), k, rng.choice((12, 20))))
    for degree in KRONECKER_DEGREES:
        f = _random_irreducible(rng, degree, 3)
        while any(f == cyclotomic(k) for k in range(1, 60)):
            f = _random_irreducible(rng, degree, 3)
        jobs.append(_kronecker_job(f, None, rng.choice((12, 20))))
    # exact heights of rationals, affine and projective points, polynomials
    for _ in range(8):
        q = _random_rational(rng, 10 ** rng.randint(1, 30))
        jobs.append({"kind": "height", "mode": "value", "values": [_frac(q)],
                     "argv": ["height", "--", _frac(q)]})
    for _ in range(8):
        pts = [_frac(_random_rational(rng, 10 ** 6)) for _ in range(rng.randint(1, 5))]
        jobs.append({"kind": "height", "mode": "point", "values": pts,
                     "argv": ["height", "--point=" + ",".join(pts)]})
    for _ in range(7):
        pts = [_frac(_random_rational(rng, 1000)) for _ in range(rng.randint(2, 5))]
        if all(Fraction(p) == 0 for p in pts):
            pts[0] = "1"
        jobs.append({"kind": "height", "mode": "projective", "values": pts,
                     "argv": ["height", "--projective=" + ":".join(pts)]})
    for _ in range(7):
        f = _random_poly(rng, rng.randint(1, 8), 50)
        jobs.append({"kind": "height", "mode": "poly", "values": [str(c) for c in f],
                     "argv": ["height", "--poly=" + poly_text(f)]})
    # small Northcott scans
    for degree, height in rng.sample(NORTHCOTT_SCANS, 4):
        jobs.append({"kind": "northcott", "degree": degree, "height": height,
                     "argv": ["northcott", "--degree", str(degree), "--height", height]})
    return jobs


def _kronecker_job(coeffs, order, digits):
    return {"kind": "kronecker", "coeffs": coeffs, "order": order,
            "precision": f"1e-{digits}",
            "argv": ["kronecker", "--with-height", "--precision", f"1e-{digits}",
                     "--", poly_text(coeffs)]}


# ---------------------------------------------------------------------------
# approximation: continued fractions, Liouville scans, exponents

# Sizes sit just below the knee of today's exponential growth: one or
# two more cf terms (or a tenfold qmax) make some draws take seconds.
CF_TERMS = {2: 16, 3: 14, 4: 6}
CF_SLOTS = [2, 3, 4] * 18
# liouville and exponents take qmax; the generator sets it to the k-th
# convergent denominator (computed here with mpmath), so a job streams
# k + 1 partial quotients whatever sizes the seed draws:
# (degree, k, sweep) and (degree, k)
LIOUVILLE_SLOTS = [(2, 10, 200), (3, 8, 200), (4, 5, 200)] * 6
EXPONENT_SLOTS = [(2, 14), (3, 12), (4, 5)] * 15


def _convergent_denominator(coeffs, root, k):
    from checks import convergents, cf_expansion

    quotients, _ = cf_expansion(coeffs, [_frac(r) for r in root], k)
    return convergents(quotients)[-1][1]


def _real_algebraic(rng, degree):
    """(coeffs, root interval, pass interval on the command line?)."""
    f = _random_irreducible(rng, degree, 5, real_root=True)
    roots = _real_root_intervals(f)
    if len(roots) > 1 and rng.random() < 0.5:
        return f, rng.choice(roots[:-1]), True
    return f, roots[-1], False


def _alpha_args(rng, f, root, explicit):
    text = poly_text(f) if rng.random() < 0.7 else json.dumps({"coeffs": [str(c) for c in f]})
    args = [f"--root-interval={_frac(root[0])},{_frac(root[1])}"] if explicit else []
    return args, text


def approximation_jobs(rng):
    jobs = []
    for degree in CF_SLOTS:
        f, root, explicit = _real_algebraic(rng, degree)
        args, text = _alpha_args(rng, f, root, explicit)
        terms = CF_TERMS[degree]
        jobs.append({"kind": "cf", "coeffs": f, "root": [_frac(r) for r in root], "terms": terms,
                     "argv": ["cf", "--terms", str(terms), *args, "--", text]})
    for degree, k, sweep in LIOUVILLE_SLOTS:
        f, root, explicit = _real_algebraic(rng, degree)
        args, text = _alpha_args(rng, f, root, explicit)
        qmax = _convergent_denominator(f, root, k)
        jobs.append({"kind": "liouville", "coeffs": f, "root": [_frac(r) for r in root],
                     "argv": ["liouville", "--qmax", str(qmax), "--sweep", str(sweep),
                              *args, "--", text]})
    for degree, k in EXPONENT_SLOTS:
        f, root, explicit = _real_algebraic(rng, degree)
        args, text = _alpha_args(rng, f, root, explicit)
        qmax = _convergent_denominator(f, root, k)
        jobs.append({"kind": "exponents", "coeffs": f, "root": [_frac(r) for r in root],
                     "qmax": qmax,
                     "argv": ["exponents", "--qmax", str(qmax), *args, "--", text]})
    return jobs


# ---------------------------------------------------------------------------
# lattices: integer kernels, LLL, number fields, enumeration

SIEGEL_SHAPES = 2 * [(1, 3), (1, 6), (2, 5), (2, 8), (3, 7), (3, 10), (4, 9), (4, 12),
                 (5, 11), (5, 13), (6, 13), (6, 14)]
SIEGEL_NF_DEGREES = [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5]
# auxpoly slots (generator degree, m, epsilon, r): the seed draws the
# generator x^d - a; a slot's cost hardly depends on a.  x^3 - 2 with
# m = 3 is the largest case and is always present.
AUXPOLY_SLOTS = [(2, 2, "1/2", "3,3")] * 6 + [(3, 2, "1/2", "3,3")] * 3
MINIMA_DIMS = [2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]
MINKOWSKI_DIMS = [2, 2, 3, 3, 3, 3, 4, 4, 4, 4]
# Random 5-dim bodies took from under 0.1 s to over 10 s per draw, so dimension 5
# enters through two fixed bodies whose cost is the same for every seed.
FIXED_BODIES = [
    ("minima", {"forms": [["1", "1", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                          ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "-1"],
                          ["0", "0", "0", "0", "1"]],
                "bounds": ["1/2", "1", "3/2", "1", "1/2"]}),
    ("minkowski", {"forms": [["1", "0", "0", "0", "0"], ["0", "1", "1", "0", "0"],
                             ["0", "0", "2", "0", "0"], ["0", "0", "0", "1", "0"],
                             ["1", "0", "0", "0", "1"]],
                   "bounds": ["1", "1/2", "1", "3/2", "1"]}),
]


def _siegel_job(rng, m, n):
    amax = rng.randint(2, 10)
    while True:
        rows = [[rng.randint(-amax, amax) for _ in range(n)] for _ in range(m)]
        if any(any(r) for r in rows):
            break
    return {"kind": "siegel", "entries": rows,
            "argv": ["siegel", "--", json.dumps({"entries": rows})]}


# The cost of inverse_embedding_bound grows like d! and varies with the
# field, so degrees 4 and 5 use fixed generators; the seed draws the rows.
SIEGEL_NF_BASES = {4: [-1, -1, 0, 0, 1], 5: [-1, -1, 0, 0, 0, 1]}


def _siegel_nf_job(rng, degree):
    base = SIEGEL_NF_BASES.get(degree) or _random_irreducible(rng, degree, 3, monic=True)
    m = 1 if degree >= 4 else rng.randint(1, 2)
    n = degree * m + rng.randint(1, 3)
    while True:
        rows = [[[str(rng.randint(-4, 4)) for _ in range(rng.randint(1, degree))]
                 for _ in range(n)] for _ in range(m)]
        if any(any(int(c) for c in cell) for row in rows for cell in row):
            break
    data = {"base": poly_text(base), "entries": rows}
    return {"kind": "siegel-nf", "base": base, "entries": rows,
            "argv": ["siegel-nf", "--", json.dumps(data)]}


def _random_multipoly(rng, arity, degs, terms, size):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, d) for d in degs)
        out[exps] = rng.randint(-size, size)
    out = {e: c for e, c in out.items() if c}
    if not out:
        out[tuple(0 for _ in degs)] = 1
    return out


def _vanishing_multipoly(rng, point, degs):
    """A random polynomial times powers of (x_h - point_h), expanded with sympy."""
    xs = sympy.symbols(f"y0:{len(point)}")
    base = _random_multipoly(rng, len(point), [1] * len(point), 3, 5)
    expr = sum(c * sympy.prod([v ** e for v, e in zip(xs, exps)]) for exps, c in base.items())
    for v, p, d in zip(xs, point, degs):
        expr *= (v - sympy.Rational(p)) ** rng.randint(0, d)
    poly = sympy.Poly(sympy.expand(expr), *xs)
    return {tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
            for exps, c in poly.terms()}


def _multipoly_json(terms, arity):
    return {"arity": arity, "terms": [{"coeff": _frac(c), "exps": list(e)}
                                      for e, c in sorted(terms.items())]}


def lattices_jobs(rng):
    jobs = [_siegel_job(rng, m, n) for m, n in SIEGEL_SHAPES]
    jobs += [_siegel_nf_job(rng, d) for d in SIEGEL_NF_DEGREES]
    for degree, m, eps, r in AUXPOLY_SLOTS + [(3, 3, "1/2", "3,3,3")]:
        a = 2 if m == 3 else rng.randint(2, 40)
        while not _irreducible([-a] + [0] * (degree - 1) + [1]):
            a = rng.randint(2, 40)
        alpha = f"x^{degree}-{a}"
        jobs.append({"kind": "auxpoly", "alpha": alpha, "m": m, "epsilon": eps, "r": r,
                     "argv": ["auxpoly", "--alpha", alpha, "--m", str(m),
                              "--epsilon", eps, "--r", r]})
    pool = ["0", "1", "-1", "1/2", "2", "-3/2"]
    for arity in (1, 1, 2, 2, 2, 2, 3, 3, 3, 3):
        point = [rng.choice(pool) for _ in range(arity)]
        weights = [rng.randint(1, 4) for _ in range(arity)]
        poly = _multipoly_json(_vanishing_multipoly(rng, point, [3] * arity), arity)
        jobs.append({"kind": "index", "poly": poly, "point": point, "weights": weights,
                     "argv": ["index", "--poly", json.dumps(poly),
                              "--point=" + ",".join(point),
                              "--weights", ",".join(map(str, weights))]})
    for n, arity in 2 * ((2, 1), (3, 2), (3, 2), (4, 2), (4, 3)):
        fam = [_random_multipoly(rng, arity, [3] * arity, 4, 5) for _ in range(n)]
        if rng.random() < 0.4:  # a dependent family
            combo = {}
            for f in fam[:-1]:
                k = rng.randint(-3, 3)
                for e, c in f.items():
                    combo[e] = combo.get(e, 0) + k * c
            combo = {e: c for e, c in combo.items() if c}
            if combo:
                fam[-1] = combo
        polys = [_multipoly_json(f, arity) for f in fam]
        jobs.append({"kind": "wronskian", "polys": polys,
                     "argv": ["wronskian", "--", json.dumps(polys)]})
    for _ in range(10):
        m = rng.randint(1, 6)
        eps = rng.choice(["1/4", "1/2", "3/4", "1/3"])
        r = [rng.randint(1, 6) for _ in range(m)]
        jobs.append({"kind": "index-count", "m": m, "epsilon": eps, "r": r,
                     "argv": ["index-count", "--m", str(m), "--epsilon", eps,
                              "--r", ",".join(map(str, r))]})
    for _ in range(8):
        jobs.append(_roth_job(rng))
    for n in MINIMA_DIMS:
        jobs.append(_body_job(rng, "minima", n))
    for n in MINKOWSKI_DIMS:
        jobs.append(_body_job(rng, "minkowski", n))
    for kind, body in FIXED_BODIES:
        jobs.append({"kind": kind, "body": body, "argv": [kind, "--", json.dumps(body)]})
    return jobs


def _roth_job(rng):
    """An index-bound instance whose hypotheses hold (as in the paper's lemma)."""
    m = rng.randint(1, 2)
    # with m = 2 and eta = 1/8 the betas would need tens of thousands of bits
    eta = Fraction(rng.randint(1 if m == 1 else 2, 4), 8)
    omega = eta ** (2 ** (m - 1))
    if m == 1:
        weights = [rng.randint(2, 12)]
    else:
        r1 = rng.randint(4, 12)
        weights = [r1, max(1, int(r1 * omega))]
    if m == 1:
        j = rng.randint(0, min(2, weights[0]))
        terms = {(k,): c for k, c in enumerate(_binomial_power(j))}
    else:
        terms = {(0, 0): 1, (1, 0): rng.randint(-3, 3)}
        terms = {e: c for e, c in terms.items() if c}
    h_poly = max(abs(c) for c in terms.values())
    need = (h_poly.bit_length() + 2 * m * weights[0] + 8) * 4
    betas = []
    for h in range(m):
        k = int(need / (omega * weights[h])) + rng.randint(8, 64)
        betas.append(str(2 ** k) if rng.random() < 0.5 else str(-(2 ** k) + rng.randint(1, 9)))
    inst = {"poly": _multipoly_json(terms, m), "betas": betas, "weights": weights,
            "eta": _frac(eta)}
    return {"kind": "roth-verify", "instance": inst,
            "argv": ["roth-verify", "--", json.dumps(inst)]}


def _binomial_power(j):
    """Ascending coefficients of (x - 2)^j."""
    return [comb(j, i) * (-2) ** (j - i) for i in range(j + 1)]


def _body_job(rng, kind, n):
    """A body {x : |L_i x| <= c_i}: unimodular shears of the identity, an
    optional scaled row, rational bounds.  Bodies of dimension 4 get one
    or two unit shears and bounds within a factor 3 of each other; the
    acceptance suite's heavier skew makes single draws take seconds
    there (see the README)."""
    wide = n <= 3
    while True:
        forms = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 4) if wide else rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2] if wide else [-1, 1])
            forms[i] = [a + c * b for a, b in zip(forms[i], forms[j])]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            s = rng.choice([2, 3, Fraction(1, 2), Fraction(3, 2)] if wide else [2, Fraction(1, 2)])
            forms[i] = [s * a for a in forms[i]]
        if wide and rng.random() < 0.4:
            i, j = rng.sample(range(n), 2)
            forms[i] = [2 * a + b for a, b in zip(forms[i], forms[j])]
        if sympy.Matrix(forms).det() != 0:
            break
    if wide:
        bounds = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
    else:
        bounds = [rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)]) for _ in range(n)]
    body = {"forms": [[_frac(c) for c in row] for row in forms],
            "bounds": [_frac(c) for c in bounds]}
    return {"kind": kind, "body": body, "argv": [kind, "--", json.dumps(body)]}


# ---------------------------------------------------------------------------


GENERATORS = {"heights": heights_jobs, "approximation": approximation_jobs,
              "lattices": lattices_jobs}


def make_jobs(workload, seed):
    """The job list of one round; a pure function of (workload, seed)."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
