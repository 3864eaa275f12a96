"""Checks of CLI outputs against computations made apart from dioph.

Each checker takes the job (as built in workloads.py) and the parsed
JSON output, and raises CheckError when the output is wrong.  The
references come from mpmath (roots, logs, continued fractions at a
precision well beyond the one requested), sympy (cyclotomic polynomials,
irreducibility, ranks, Taylor expansions, arithmetic modulo a minimal
polynomial) and plain brute force; nothing here imports dioph.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import sympy

# enclosure_to_json rounds endpoints outward to denominators of at most
# 2**128 (docs/formats.md), which can add 2**-128 at each end.
SERIAL_SLACK = Fraction(2, 2 ** 128)


class CheckError(AssertionError):
    """An output that disagrees with the independent computation."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def enclosure(obj):
    lo, hi = Fraction(obj["lo"]), Fraction(obj["hi"])
    require(lo <= hi, f"enclosure endpoints out of order: {obj}")
    return lo, hi


def mpf(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def require_contains(enc, value, what):
    lo, hi = enclosure(enc)
    require(mpf(lo) <= value <= mpf(hi), f"{what}: {mpmath.nstr(value, 30)} not in [{lo}, {hi}]")


def require_width(enc, precision, what):
    lo, hi = enclosure(enc)
    require(hi - lo <= Fraction(precision) + SERIAL_SLACK,
            f"{what}: width {float(hi - lo):.3g} above requested {precision}")


# ---------------------------------------------------------------------------
# mpmath references


def poly_roots(coeffs, dps):
    """All complex roots of an integer polynomial (ascending coefficients)."""
    with mpmath.workdps(dps):
        desc = [mpmath.mpf(c) for c in reversed(coeffs)]
        steps = 100
        while True:
            try:
                return mpmath.polyroots(desc, maxsteps=steps, extraprec=dps + 20)
            except mpmath.libmp.NoConvergence:
                steps *= 4
                if steps > 10 ** 5:
                    raise


def mahler(coeffs, dps):
    with mpmath.workdps(dps):
        m = abs(mpmath.mpf(coeffs[-1]))
        for r in poly_roots(coeffs, dps):
            m *= max(mpmath.mpf(1), abs(r))
        return +m


def primitive(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    sign = -1 if coeffs[-1] < 0 else 1
    return [sign * c // g for c in coeffs]


def real_root(coeffs, root, dps):
    """The real root of the polynomial inside the isolating interval `root`."""
    lo, hi = Fraction(root[0]), Fraction(root[1])
    with mpmath.workdps(dps):
        best = None
        for r in poly_roots(coeffs, dps):
            if mpf(lo) <= r.real <= mpf(hi):
                if best is None or abs(r.imag) < abs(best.imag):
                    best = r
        require(best is not None, f"no root of {coeffs} in [{lo}, {hi}]")
        return +best.real


def digits_of(precision):
    return int(math.ceil(-math.log10(float(Fraction(precision)))))


def cf_expansion(coeffs, root, n_terms):
    """n_terms partial quotients; the precision doubles until two agree."""
    dps = 30
    prev = None
    while True:
        with mpmath.workdps(dps):
            x = real_root(coeffs, root, dps)
            quotients = []
            for _ in range(n_terms):
                a = int(mpmath.floor(x))
                quotients.append(a)
                x = 1 / (x - a)
        if quotients == prev:
            return quotients, dps
        prev = quotients
        dps *= 2
        require(dps <= 20000, "cf reference did not stabilise")


def convergents(quotients):
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in quotients:
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        out.append([p0, q0])
    return out


# ---------------------------------------------------------------------------
# heights


def check_mahler(job, out):
    # the command measures the primitive form (docs/formats.md), sign free
    digits = digits_of(job["precision"])
    f = primitive(job["coeffs"])
    require(out["coeffs"] in (f, [-c for c in f]), "coefficients echoed wrongly")
    ref = mahler(f, 3 * digits + 10)
    with mpmath.workdps(3 * digits + 10):
        require_contains(out["mahler"], ref, "Mahler measure")
    require_width(out["mahler"], job["precision"], "Mahler measure")


def check_kronecker(job, out):
    require(out["is_root_of_unity"] == (job["order"] is not None), "root-of-unity verdict")
    require(out["order"] == job["order"], f"order {out['order']} != {job['order']}")
    if job["order"] is not None:
        cyc = sympy.Poly(sympy.cyclotomic_poly(job["order"], sympy.Symbol("x")))
        require([int(c) for c in reversed(cyc.all_coeffs())] == job["coeffs"],
                "input is not the cyclotomic polynomial of the reported order")
    digits = digits_of(job["precision"])
    dps = 3 * digits + 10
    f = primitive(job["coeffs"])
    with mpmath.workdps(dps):
        ref = mahler(f, dps) ** (mpmath.mpf(1) / (len(f) - 1))
        require_contains(out["weil_height"]["enclosure"], ref, "Weil height")
    require_width(out["weil_height"]["enclosure"], job["precision"], "Weil height")


def projective_height(values):
    coords = [Fraction(v) for v in values]
    den = 1
    for c in coords:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coords]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    return max(abs(c) // g for c in ints)


def check_height(job, out):
    # a rational is the point (1 : q), an affine point (1 : x), a polynomial
    # its coefficient vector
    values = job["values"]
    want = projective_height(["1"] + values if job["mode"] in ("value", "point") else values)
    require(Fraction(out["exact"]) == want, f"height {out['exact']} != {want}")
    require(enclosure(out["enclosure"]) == (want, want), "height enclosure is not exact")


def northcott_reference(degree, height):
    """Brute force over the coefficient box |a_i| <= C(n,i) X^n, sympy for
    irreducibility, mpmath for the Mahler filter M(f) <= X^n."""
    height = Fraction(height)
    x = sympy.Symbol("x")
    found = []
    for n in range(1, degree + 1):
        xn = height ** n
        bounds = [int(math.comb(n, i) * xn) for i in range(n)]
        for an in range(1, int(xn) + 1):
            for lower in itertools.product(*(range(-b, b + 1) for b in bounds)):
                f = list(lower) + [an]
                if math.gcd(*f) != 1 or f[0] == 0 and n > 1:
                    continue
                if not sympy.Poly(list(reversed(f)), x).is_irreducible:
                    continue
                with mpmath.workdps(50):
                    if mahler(f, 50) <= mpf(xn) + mpmath.mpf(10) ** -40:
                        found.append(f)
    found.sort(key=lambda f: (len(f), f))
    return found


def check_northcott(job, out):
    want = northcott_reference(job["degree"], job["height"])
    got = [entry["coeffs"] for entry in out]
    require(got == want, f"northcott list differs: {len(got)} vs {len(want)} polynomials")
    for entry in out:
        with mpmath.workdps(50):
            require_contains(entry["mahler"], mahler(entry["coeffs"], 50), "Northcott Mahler")


# ---------------------------------------------------------------------------
# approximation


def _approx_dps(quotients):
    """Working digits that resolve |alpha - p/q| for the convergents given."""
    q = convergents(quotients)[-1][1] if quotients else 1
    return 4 * len(str(q)) + 60


def check_cf(job, out):
    n = job["terms"]
    want, _ = cf_expansion(job["coeffs"], job["root"], n)
    require(out["partial_quotients"] == want,
            f"partial quotients differ from the mpmath expansion: {out['partial_quotients']} vs {want}")
    require(out["convergents"] == convergents(want), "convergents do not follow the quotients")
    require(out["terminated"] is False, "an irrational expansion terminated")
    dps = _approx_dps(want)
    with mpmath.workdps(dps):
        alpha = real_root(job["coeffs"], job["root"], dps)
        for p, q in out["convergents"]:
            require(abs(alpha - mpmath.mpf(p) / q) < mpmath.mpf(1) / (q * q),
                    f"convergent {p}/{q} violates |alpha - p/q| < 1/q^2")


def check_liouville(job, out):
    f = primitive(job["coeffs"])
    n = len(f) - 1
    require(out["degree"] == n, "degree")
    require(out["violations"] == [], f"Liouville's theorem violated: {out['violations'][:2]}")
    with mpmath.workdps(60):
        big = max(abs(r) for r in poly_roots(f, 60))
        c = min(big, 1 / (abs(f[-1]) * (3 * big) ** (n - 1)))
        require_contains(out["constant"], c, "Liouville constant")


def check_exponents(job, out):
    qmax = job["qmax"]
    terms = 8
    while True:
        quotients, _ = cf_expansion(job["coeffs"], job["root"], terms)
        convs = convergents(quotients)
        if convs[-1][1] > qmax:
            break
        terms *= 2
    want = [c for c in convs if c[1] <= qmax]
    records = out["records"]
    require([[r["p"], r["q"]] for r in records] == want, "records are not the convergents with q <= qmax")
    require(out["summary"]["dirichlet_count"] == len(records), "dirichlet count")
    dps = _approx_dps(quotients)
    with mpmath.workdps(dps):
        alpha = real_root(job["coeffs"], job["root"], dps)
        kappas = []
        for r in records:
            p, q = r["p"], r["q"]
            err = abs(alpha - mpmath.mpf(p) / q)
            require(err < mpmath.mpf(1) / (q * q), f"{p}/{q} violates the 1/q^2 bound")
            require_contains(r["error"], err, f"error of {p}/{q}")
            if q >= 2:
                kappa = -mpmath.log(err) / mpmath.log(q)
                require_contains(r["kappa"], kappa, f"kappa of {p}/{q}")
                kappas.append(kappa)
            else:
                require(r["kappa"] is None, "kappa reported for q = 1")
        if kappas:
            require_contains(out["summary"]["max_exponent"], max(kappas), "max exponent")


# ---------------------------------------------------------------------------
# lattices


def check_siegel(job, out):
    a = job["entries"]
    m, n = len(a), len(a[0])
    x = out["x"]
    amax = max(abs(v) for row in a for v in row)
    require(len(x) == n and any(x), "solution must be a nonzero vector of length N")
    require(all(sum(r * v for r, v in zip(row, x)) == 0 for row in a), "Ax != 0")
    require(max(abs(v) for v in x) ** (n - m) < (n * amax) ** m,
            "size bound max|x|^(N-M) < (N*A)^M fails")
    require((out["rows"], out["cols"], out["max_entry"]) == (m, n, amax), "shape echoed wrongly")


def _sym_poly(coeffs, t):
    return sum(int(c) * t ** k for k, c in enumerate(coeffs))


def _nf_zero(expr, base, t):
    """True when a polynomial expression in t vanishes modulo the minimal polynomial."""
    return sympy.rem(sympy.expand(expr), _sym_poly(base, t), t) == 0


def check_siegel_nf(job, out):
    t = sympy.Symbol("t")
    base, rows = job["base"], job["entries"]
    x = out["x"]
    n = len(rows[0])
    require(len(x) == n and any(x), "solution must be a nonzero vector of length N")
    for row in rows:
        expr = sum(xj * sum(sympy.Rational(c) * t ** k for k, c in enumerate(cell))
                   for xj, cell in zip(x, row))
        require(_nf_zero(expr, base, t), "a row does not vanish at alpha")
    require(out["constraints"] == (len(base) - 1) * len(rows) and out["unknowns"] == n, "shape")


def _taylor_coefficients(terms, point, base=None):
    """Coefficients of P(y + point) by monomial, with point entries rational
    or the generator 't' reduced modulo `base`."""
    t = sympy.Symbol("t")
    arity = len(point)
    ys = sympy.symbols(f"y0:{arity}")
    shift = [t if p == "alpha" else sympy.Rational(p) for p in point]
    expr = sum(sympy.Rational(c) * sympy.prod([(y + s) ** e for y, s, e in zip(ys, shift, exps)])
               for exps, c in terms)
    poly = sympy.Poly(sympy.expand(expr), *ys)
    out = {}
    for exps, c in poly.terms():
        if base is not None:
            c = sympy.rem(sympy.expand(c), _sym_poly(base, t), t)
        if c != 0:
            out[exps] = c
    return out


def taylor_index(terms, point, weights, base=None):
    coeffs = _taylor_coefficients(terms, point, base)
    if not coeffs:
        return None
    return min(sum(Fraction(i, r) for i, r in zip(e, weights)) for e in coeffs)


def _terms(poly_json):
    return [(tuple(t["exps"]), t["coeff"]) for t in poly_json["terms"]]


def _index_text(value):
    return "inf" if value is None else f"{value.numerator}/{value.denominator}"


def check_index(job, out):
    want = taylor_index(_terms(job["poly"]), job["point"], job["weights"])
    require(out["index"] == _index_text(want), f"index {out['index']} != {_index_text(want)}")


def check_roth(job, out):
    inst = job["instance"]
    terms = _terms(inst["poly"])
    weights = inst["weights"]
    m = len(weights)
    eta = Fraction(inst["eta"])
    idx = taylor_index(terms, inst["betas"], weights)
    require(out["index"] == _index_text(idx), f"index {out['index']} != {_index_text(idx)}")
    bound = 2 * m * eta
    require(Fraction(out["index_bound"]) == bound, "index bound 2 m eta")
    require(out["conclusion_holds"] == (idx is None or idx <= bound), "conclusion")
    omega = eta ** (2 ** (m - 1))
    ratio_ok = all(Fraction(weights[j + 1], weights[j]) <= omega for j in range(m - 1))
    require(out["ratio_hypothesis_ok"] == ratio_ok, "ratio hypothesis")
    heights = [max(abs(Fraction(b).numerator), Fraction(b).denominator) for b in inst["betas"]]
    h_poly = max(abs(Fraction(c)) for _, c in terms)
    with mpmath.workdps(50):
        lhs = min(r * mpmath.log(h) for r, h in zip(weights, heights)) * mpf(omega)
        height_ok = bool(lhs >= mpmath.log(mpf(h_poly)) + 2 * m * weights[0])
    require(out["height_hypothesis_ok"] == height_ok, "height hypothesis")
    require(out["hypotheses_hold"] == (ratio_ok and height_ok), "hypotheses")


def check_index_count(job, out):
    m, weights = job["m"], job["r"]
    threshold = Fraction(m) * (1 - Fraction(job["epsilon"])) / 2
    count = sum(
        1 for tup in itertools.product(*(range(r + 1) for r in weights))
        if sum(Fraction(i, r) for i, r in zip(tup, weights)) <= threshold
    )
    require(out["count"] == count, f"count {out['count']} != brute force {count}")
    with mpmath.workdps(40):
        eps = mpf(job["epsilon"])
        bound = math.prod(r + 1 for r in weights) * mpmath.exp(-eps ** 2 * m / 16)
        require_contains(out["bound"], bound, "analytic bound")


def _normalized_derivative(expr, ys, mu):
    for y, k in zip(ys, mu):
        if k:
            expr = sympy.diff(expr, y, k) / math.factorial(k)
    return expr


def check_wronskian(job, out):
    polys = job["polys"]
    arity = polys[0]["arity"]
    ys = sympy.symbols(f"y0:{arity}")
    exprs = [sum(sympy.Rational(c) * sympy.prod([y ** e for y, e in zip(ys, exps)])
                 for exps, c in _terms(p)) for p in polys]
    monomials = sorted({exps for p in polys for exps, _ in _terms(p)})
    rows = [[sympy.Rational(dict(_terms(p)).get(mono, 0)) for mono in monomials] for p in polys]
    independent = sympy.Matrix(rows).rank() == len(polys)
    require(out["independent"] == independent, f"verdict {out['independent']} != rank test {independent}")
    if not independent:
        require(out["witness"] is None, "dependent family with a witness")
        return
    mus = [tuple(mu) for mu in out["witness"]]
    require(len(mus) == len(polys) and len(set(mus)) == len(mus), "witness needs distinct multi-indices")
    matrix = sympy.Matrix([[_normalized_derivative(f, ys, mu) for f in exprs] for mu in mus])
    # a nonzero value at some integer point proves the Wronskian nonzero
    rng = random.Random(0)
    for _ in range(8):
        pt = [rng.randint(-1000, 1000) for _ in ys]
        if matrix.subs(dict(zip(ys, pt))).det() != 0:
            return
    raise CheckError("the reported Wronskian vanished at every sampled point")


def check_auxpoly(job, out):
    t = sympy.Symbol("t")
    base = [int(c) for c in reversed(sympy.Poly(job["alpha"].replace("^", "**"), sympy.Symbol("x")).all_coeffs())]
    m = job["m"]
    weights = [int(r) for r in job["r"].split(",")]
    eps = Fraction(job["epsilon"])
    terms = _terms(out["poly"])
    require(terms, "auxiliary polynomial is zero")
    require(all(Fraction(c).denominator == 1 for _, c in terms), "coefficients must be integers")
    require(all(e <= r for exps, _ in terms for e, r in zip(exps, weights)), "degree box")
    threshold = Fraction(m) * (1 - eps) / 2
    coeffs = _taylor_coefficients(terms, ["alpha"] * m, base)
    for exps in coeffs:
        require(sum(Fraction(i, r) for i, r in zip(exps, weights)) >= threshold,
                f"derivative {exps} below the threshold does not vanish at alpha")
    require(Fraction(out["index_lower"]) >= threshold, "index below the threshold")
    h = max(abs(Fraction(c)) for _, c in terms)
    require(Fraction(out["height"]["exact"]) == h, "height of the auxiliary polynomial")


def _body(job):
    forms = [[Fraction(c) for c in row] for row in job["body"]["forms"]]
    bounds = [Fraction(c) for c in job["body"]["bounds"]]
    return forms, bounds


def gauge(forms, bounds, x):
    return max(abs(sum(a * v for a, v in zip(row, x))) / c for row, c in zip(forms, bounds))


def brute_lambda1(forms, bounds, t):
    """Smallest gauge over nonzero integer points, searched in the box that
    holds every point of gauge <= t: |x|_inf <= |L^-1|_inf * t * max c."""
    n = len(forms)
    inv = sympy.Matrix(forms).inv()
    norm = max(sum(abs(Fraction(int(v.p), int(v.q))) for v in inv.row(i)) for i in range(n))
    radius = int(norm * t * max(bounds))
    require((2 * radius + 1) ** n <= 400_000, f"brute-force box radius {radius} too large")
    best = None
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if any(x):
            g = gauge(forms, bounds, x)
            if best is None or g < best:
                best = g
    return best


def check_body(job, out):
    forms, bounds = _body(job)
    n = len(forms)
    lambdas = [Fraction(v) for v in out["lambdas"]]
    require(len(lambdas) == n, "one minimum per dimension")
    require(all(a <= b for a, b in zip(lambdas, lambdas[1:])), "minima decrease")
    if n <= 3:
        lam1 = brute_lambda1(forms, bounds, lambdas[0])
        require(lam1 == lambdas[0], f"lambda_1 {lambdas[0]} is not minimal ({lam1})")
    det = sympy.Matrix(forms).det()
    vol = Fraction(2) ** n * math.prod(bounds) / abs(Fraction(int(det.p), int(det.q)))
    require(Fraction(out["volume"]) == vol, "volume")
    product = vol * math.prod(lambdas)
    require(Fraction(2) ** n / math.factorial(n) <= product <= Fraction(2) ** n,
            "Minkowski's second theorem fails")
    if job["kind"] == "minima":
        w = out["witnesses"]
        require(sympy.Matrix(w).rank() == n, "witnesses are dependent")
        for lam, x in zip(lambdas, w):
            require(gauge(forms, bounds, x) == lam, f"gauge of witness {x} != {lam}")
    else:
        require(Fraction(out["product"]) == product, "product")
        require(out["upper_ok"] is True and out["lower_ok"] is True, "Minkowski flags")


CHECKERS = {
    "mahler": check_mahler,
    "kronecker": check_kronecker,
    "height": check_height,
    "northcott": check_northcott,
    "cf": check_cf,
    "liouville": check_liouville,
    "exponents": check_exponents,
    "siegel": check_siegel,
    "siegel-nf": check_siegel_nf,
    "index": check_index,
    "roth-verify": check_roth,
    "index-count": check_index_count,
    "wronskian": check_wronskian,
    "auxpoly": check_auxpoly,
    "minima": check_body,
    "minkowski": check_body,
}


def check(job, text):
    """Raise CheckError unless `text` (the CLI's stdout) is right for `job`."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc
    CHECKERS[job["kind"]](job, out)
