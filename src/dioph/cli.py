"""Command line surface: one subcommand per library capability.

Output is JSON by default (CSV via --format csv where it makes sense),
with every number serialized as an exact rational string or an
enclosure pair.  Exit codes: 0 success, 2 invalid input, 3 a
domain-legitimate precision or infeasibility failure, 4 an internal
invariant violation (a bug, e.g. a missed size bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .approx import continued_fraction, exponent_report, liouville_constant, liouville_scan
from .exceptions import (
    DomainError,
    InfeasibleError,
    InternalError,
    ParseError,
    PrecisionError,
    UnsupportedError,
)
from .heights import (
    NORTHCOTT_DEGREE_CAP,
    check_mahler_cost,
    height_affine_point,
    height_polynomial,
    height_projective,
    height_rational,
    is_root_of_unity,
    mahler_measure,
    northcott_enumerate,
    weil_height_algebraic,
)
from .lattice import body_volume, minkowski_check, successive_minima
from .multipoly import index_at
from .numberfield import AlgebraicNumber, NumberFieldElement
from .rothlab import IndexSetSpec, build_aux_poly, count_index_set, roth_lemma_verify
from .serialization import (
    _algebraic_from_poly,
    _json_int,
    _json_list,
    _json_object,
    _json_rational,
    body_from_json,
    enclosure_to_json,
    format_rational,
    height_to_json,
    int_matrix_from_json,
    multipoly_from_json,
    multipoly_to_json,
    nf_matrix_from_json,
    parse_poly_input,
    parse_rational,
    to_int_polynomial,
)
from .siegel import siegel_solve_Z, siegel_solve_NF


def _read_json_arg(text: str):
    """JSON from an inline string, @file reference, or '-' for stdin."""
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", position=exc.pos) from exc


def _parse_csv_ints(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers: {text!r}") from exc


def _parse_csv_rationals(text: str):
    return [parse_rational(t) for t in text.split(",") if t.strip() != ""]


def _alpha_from_args(args) -> AlgebraicNumber:
    poly = to_int_polynomial(parse_poly_input(args.alpha))
    interval = None
    if args.root_interval:
        parts = args.root_interval.split(",")
        if len(parts) != 2:
            raise ParseError("--root-interval expects 'lo,hi'")
        interval = parts
    return _algebraic_from_poly(poly, interval)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-serializable dict)


def _cmd_height(args):
    chosen = [
        bool(args.value),
        bool(args.point),
        bool(args.projective),
        bool(args.poly),
    ]
    if sum(chosen) != 1:
        raise ParseError("give exactly one of VALUE, --point, --projective, --poly")
    if args.value:
        return height_to_json(height_rational(parse_rational(args.value)))
    if args.point:
        return height_to_json(height_affine_point(_parse_csv_rationals(args.point)))
    if args.projective:
        coords = [parse_rational(t) for t in args.projective.split(":")]
        return height_to_json(height_projective(coords))
    coeffs = parse_poly_input(args.poly)
    return height_to_json(height_polynomial(coeffs))


def _cmd_mahler(args):
    poly = to_int_polynomial(parse_poly_input(args.poly))
    enc = mahler_measure(poly, parse_rational(args.precision))
    return {"coeffs": list(poly.coeffs), "mahler": enclosure_to_json(enc)}


def _cmd_northcott(args):
    degree = args.degree
    height = parse_rational(args.height)
    precision = parse_rational(args.precision)
    # before the scan; a degree above the scan's own cap is refused by it
    check_mahler_cost(min(degree, NORTHCOTT_DEGREE_CAP), precision)
    return [
        {"coeffs": list(f.coeffs), "mahler": enclosure_to_json(mahler_measure(f, precision))}
        for f in northcott_enumerate(degree, height)
    ]


def _cmd_kronecker(args):
    if args.precision is not None and not args.with_height:
        raise ParseError("--precision applies only with --with-height")
    poly = to_int_polynomial(parse_poly_input(args.poly))
    alpha = _algebraic_from_poly(poly)
    flag, order = is_root_of_unity(alpha)
    out = {"is_root_of_unity": flag, "order": order}
    if args.with_height:
        precision = "1e-12" if args.precision is None else args.precision
        hv = weil_height_algebraic(alpha, parse_rational(precision))
        out["weil_height"] = height_to_json(hv)
    return out


def _cmd_siegel(args):
    matrix = int_matrix_from_json(_read_json_arg(args.system))
    x = siegel_solve_Z(matrix)
    return {
        "x": list(x),
        "max_abs": max(abs(v) for v in x),
        "rows": matrix.nrows,
        "cols": matrix.ncols,
        "max_entry": matrix.max_abs(),
        "bound_satisfied": True,
    }


def _cmd_siegel_nf(args):
    matrix = nf_matrix_from_json(_read_json_arg(args.system))
    res = siegel_solve_NF(matrix)
    return {
        "x": list(res.x),
        "height": format_rational(res.height),
        "log_height": enclosure_to_json(res.log_height),
        "c1": enclosure_to_json(res.c1),
        "cK": enclosure_to_json(res.cK),
        "coeff_log_height": enclosure_to_json(res.coeff_log_height),
        "certified_bound": enclosure_to_json(res.certified_bound),
        "nominal_bound": enclosure_to_json(res.nominal_bound),
        "constraints": res.constraints,
        "unknowns": res.unknowns,
    }


def _cmd_index(args):
    base = None
    if args.base:
        poly = to_int_polynomial(parse_poly_input(args.base))
        interval = args.root_interval.split(",") if args.root_interval else None
        base = _algebraic_from_poly(poly, interval)
    P = multipoly_from_json(_read_json_arg(args.poly), base)
    point = []
    for tok in args.point.split(","):
        tok = tok.strip()
        if tok == "alpha":
            if base is None:
                raise ParseError("point entry 'alpha' needs --base")
            point.append(NumberFieldElement.generator(base))
        else:
            point.append(parse_rational(tok))
    weights = _parse_csv_ints(args.weights)
    iv = index_at(P, point, weights)
    return {"index": "inf" if iv.is_infinite else format_rational(iv.value)}


def _cmd_wronskian(args):
    from .wronskian import are_linearly_independent, generalized_wronskian

    data = _read_json_arg(args.polys)
    if isinstance(data, dict) and "polys" in data:
        data = data["polys"]
    polys = [multipoly_from_json(item) for item in _json_list(data, "the polynomial family")]
    if args.mus:
        mus = [
            [_json_int(e, "--mus entry") for e in _json_list(mu, "--mus multi-index")]
            for mu in _json_list(_read_json_arg(args.mus), "--mus")
        ]
        det = generalized_wronskian(polys, mus)
        return {"wronskian": multipoly_to_json(det), "zero": det.is_zero()}
    ok, witness = are_linearly_independent(polys)
    return {
        "independent": ok,
        "witness": [list(mu) for mu in witness] if witness else None,
    }


def _cmd_index_count(args):
    spec = IndexSetSpec(args.m, parse_rational(args.epsilon), _parse_csv_ints(args.r))
    count, bound = count_index_set(spec)
    return {"count": count, "bound": enclosure_to_json(bound)}


def _cmd_auxpoly(args):
    alpha = _alpha_from_args(args)
    res = build_aux_poly(
        alpha, args.m, parse_rational(args.epsilon), _parse_csv_ints(args.r)
    )
    out = {
        "poly": multipoly_to_json(res.poly),
        "index_lower": format_rational(res.index_lower.value),
        "height": height_to_json(res.height),
        "height_ratio": enclosure_to_json(res.height_ratio),
        "constraints": res.constraints,
        "unknowns": res.unknowns,
        "siegel": None,
    }
    if res.siegel is not None:
        out["siegel"] = {
            "certified_bound": enclosure_to_json(res.siegel.certified_bound),
            "nominal_bound": enclosure_to_json(res.siegel.nominal_bound),
            "cK": enclosure_to_json(res.siegel.cK),
        }
    return out


def _cmd_roth_verify(args):
    data = _json_object(
        _read_json_arg(args.instance), "roth-verify JSON", "poly", "betas", "weights", "eta"
    )
    P = multipoly_from_json(data["poly"])
    betas = [_json_rational(b, '"betas" entry') for b in _json_list(data["betas"], '"betas"')]
    weights = [_json_int(r, '"weights" entry') for r in _json_list(data["weights"], '"weights"')]
    eta = _json_rational(data["eta"], '"eta"')
    rep = roth_lemma_verify(P, betas, weights, eta)
    return {
        "ratio_hypothesis_ok": rep.ratio_hypothesis_ok,
        "height_hypothesis_ok": rep.height_hypothesis_ok,
        "hypotheses_hold": rep.hypotheses_hold,
        "index": "inf" if rep.index.is_infinite else format_rational(rep.index.value),
        "index_bound": format_rational(rep.index_bound),
        "conclusion_holds": rep.conclusion_holds,
    }


def _cmd_cf(args):
    alpha = _alpha_from_args(args)
    cf = continued_fraction(alpha, args.terms)
    return {
        "partial_quotients": cf.partial_quotients,
        "convergents": [[p, q] for p, q in cf.convergents],
        "terminated": cf.terminated,
    }


def _cmd_liouville(args):
    alpha = _alpha_from_args(args)
    c = liouville_constant(alpha, parse_rational(args.precision))
    violations = liouville_scan(alpha, args.qmax, sweep_limit=args.sweep, coarse=c)
    return {
        "constant": enclosure_to_json(c),
        "degree": alpha.degree,
        "qmax": args.qmax,
        "sweep_limit": args.sweep,
        "violations": [
            {
                "p": v.p,
                "q": v.q,
                "error": enclosure_to_json(v.error),
                "threshold": enclosure_to_json(v.threshold),
            }
            for v in violations
        ],
    }


def _cmd_exponents(args):
    alpha = _alpha_from_args(args)
    records, summary = exponent_report(alpha, args.qmax)
    return {
        "records": [
            {
                "p": r.p,
                "q": r.q,
                "error": enclosure_to_json(r.error),
                "kappa": enclosure_to_json(r.kappa) if r.kappa else None,
            }
            for r in records
        ],
        "summary": {
            "dirichlet_count": summary.dirichlet_count,
            "hurwitz_liminf": enclosure_to_json(summary.hurwitz_liminf)
            if summary.hurwitz_liminf
            else None,
            "max_exponent": enclosure_to_json(summary.max_exponent)
            if summary.max_exponent
            else None,
        },
    }


def _cmd_minima(args):
    body = body_from_json(_read_json_arg(args.body))
    res = successive_minima(body)
    return {
        "lambdas": [format_rational(l) for l in res.lambdas],
        "witnesses": [list(w) for w in res.witnesses],
        "volume": format_rational(body_volume(body)),
    }


def _cmd_minkowski(args):
    body = body_from_json(_read_json_arg(args.body))
    rep = minkowski_check(body)
    return {
        "lambdas": [format_rational(l) for l in rep.lambdas],
        "volume": format_rational(rep.volume),
        "product": format_rational(rep.product),
        "upper_ok": rep.upper_ok,
        "lower_ok": rep.lower_ok,
    }


# ---------------------------------------------------------------------------
# parser assembly and output

# no option starts with a digit, so "-3/4", "-0.5" and "-1e-3" are values
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number as an argument, so
    `height -3/4` and `--point -1/2` need neither `--` nor `=`."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to a file")

    precision_opt = argparse.ArgumentParser(add_help=False)
    precision_opt.add_argument("--precision", default="1e-12", help="target enclosure width")

    root_opts = argparse.ArgumentParser(add_help=False)
    root_opts.add_argument(
        "--root-interval",
        default=None,
        help="rational isolating interval 'lo,hi' selecting the real root",
    )

    parser = _Parser(
        prog="dioph",
        description="Exact Diophantine-approximation toolkit: heights, Mahler "
        "measure, small integer solutions, polynomial index, Wronskians, "
        "continued fractions, and successive minima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", parents=[common], help="heights of rationals, points, polynomials")
    p.add_argument("value", nargs="?", default=None)
    p.add_argument("--point", default=None, help="affine point 'x1,x2,...'")
    p.add_argument("--projective", default=None, help="projective point 'x0:x1:...'")
    p.add_argument("--poly", default=None, help="polynomial text or JSON")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("mahler", parents=[common, precision_opt], help="Mahler measure enclosure")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_mahler)

    p = sub.add_parser(
        "northcott", parents=[common, precision_opt], help="enumerate bounded-height algebraics"
    )
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", required=True)
    p.set_defaults(func=_cmd_northcott)

    p = sub.add_parser("kronecker", parents=[common], help="root-of-unity test")
    p.add_argument("poly")
    p.add_argument("--with-height", action="store_true")
    p.add_argument("--precision", default=None, help="height enclosure width (needs --with-height)")
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("siegel", parents=[common], help="small integer kernel vector")
    p.add_argument("system", help="matrix JSON (inline, @file, or '-')")
    p.set_defaults(func=_cmd_siegel)

    p = sub.add_parser("siegel-nf", parents=[common], help="small solution over Q(alpha)")
    p.add_argument("system", help="NF matrix JSON")
    p.set_defaults(func=_cmd_siegel_nf)

    p = sub.add_parser("index", parents=[common, root_opts], help="vanishing index at a point")
    p.add_argument("--poly", required=True, help="multivariate polynomial JSON")
    p.add_argument("--point", required=True, help="comma list; 'alpha' allowed with --base")
    p.add_argument("--weights", required=True)
    p.add_argument("--base", default=None, help="generator minimal polynomial")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("wronskian", parents=[common], help="generalized Wronskian / independence")
    p.add_argument("polys", help="JSON array of multivariate polynomials")
    p.add_argument("--mus", default=None, help="JSON list of multi-indices")
    p.set_defaults(func=_cmd_wronskian)

    p = sub.add_parser("index-count", parents=[common], help="low-weight index set count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--r", required=True, help="weights 'r1,r2,...'")
    p.set_defaults(func=_cmd_index_count)

    p = sub.add_parser("auxpoly", parents=[common, root_opts], help="auxiliary polynomial")
    p.add_argument("--alpha", required=True, help="generator minimal polynomial")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--r", required=True)
    p.set_defaults(func=_cmd_auxpoly)

    p = sub.add_parser("roth-verify", parents=[common], help="index-bound lemma verifier")
    p.add_argument("instance", help="JSON {poly, betas, weights, eta}")
    p.set_defaults(func=_cmd_roth_verify)

    p = sub.add_parser("cf", parents=[common, root_opts], help="continued fraction expansion")
    p.add_argument("alpha", help="minimal polynomial (text or JSON)")
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser(
        "liouville", parents=[common, precision_opt, root_opts], help="Liouville bound scan"
    )
    p.add_argument("alpha")
    p.add_argument("--qmax", type=int, default=10 ** 5)
    p.add_argument("--sweep", type=int, default=1000)
    p.set_defaults(func=_cmd_liouville)

    p = sub.add_parser("exponents", parents=[common, root_opts], help="approximation exponents")
    p.add_argument("alpha")
    p.add_argument("--qmax", type=int, default=10 ** 4)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("minima", parents=[common], help="successive minima of a body")
    p.add_argument("body", help="body JSON {forms, bounds}")
    p.set_defaults(func=_cmd_minima)

    p = sub.add_parser("minkowski", parents=[common], help="two-sided Minkowski check")
    p.add_argument("body")
    p.set_defaults(func=_cmd_minkowski)

    return parser


def _to_csv(result) -> str:
    lines = []
    if isinstance(result, dict) and "records" in result:
        lines.append("q,p,error_lo,error_hi,kappa_lo,kappa_hi")
        for r in result["records"]:
            kappa = r.get("kappa")
            lines.append(
                ",".join(
                    [
                        str(r["q"]),
                        str(r["p"]),
                        r["error"]["lo"],
                        r["error"]["hi"],
                        kappa["lo"] if kappa else "",
                        kappa["hi"] if kappa else "",
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    lines.append("key,value")

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix},{obj}")

    walk("", result)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        result = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.format == "csv":
        text = _to_csv(result)
    else:
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
