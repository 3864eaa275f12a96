"""Exact stdout of fixed command sets: `cf`, `liouville` and `exponents`
(the `approximation` set), `index`, `auxpoly` and `roth-verify` (the
`index` set), `minima` and `minkowski` (the `lattice` set), and `siegel`,
`siegel-nf` and `index` over a non-monic generator (the `siegel` set), and
`mahler`, `northcott` and `kronecker` (the `heights` set).

The expected bytes of a set live in `tests/data/<set>_stdout.json`; they
were written by an earlier version of dioph, so any change to these
outputs shows here as a failure.  After a change of output that is meant,
rewrite the files with

    PYTHONPATH=src python tests/test_approximation_stdout.py

and name every changed command in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
import sympy

from dioph import cli

DATA = Path(__file__).with_name("data")


def _poly(expr: str, names: str) -> str:
    """Multivariate-polynomial JSON of an integer polynomial, expanded by
    sympy, terms in increasing exponent order."""
    gens = sympy.symbols(names, seq=True)
    terms = [{"coeff": str(c), "exps": list(e)}
             for e, c in sorted(sympy.Poly(sympy.sympify(expr), *gens).terms())]
    return json.dumps({"arity": len(gens), "terms": terms}, separators=(",", ":"))


def _roth(expr: str, names: str, betas, weights, eta) -> str:
    return json.dumps({"poly": json.loads(_poly(expr, names)), "betas": [str(b) for b in betas],
                       "weights": weights, "eta": eta}, separators=(",", ":"))


# (x - sqrt(2))^2 (y - 1) with {"rep": [...]} coefficients in Q(sqrt(2))
_SQRT2_SQUARE = json.dumps({"arity": 2, "terms": [
    {"coeff": "-2", "exps": [0, 0]}, {"coeff": "2", "exps": [0, 1]},
    {"coeff": {"rep": ["0", "2"]}, "exps": [1, 0]}, {"coeff": {"rep": ["0", "-2"]}, "exps": [1, 1]},
    {"coeff": "-1", "exps": [2, 0]}, {"coeff": "1", "exps": [2, 1]}]}, separators=(",", ":"))


def _nf(base: str, entries) -> list:
    return ["siegel-nf", "--", json.dumps({"base": base, "entries": entries})]


def _rep(*coords) -> dict:
    return {"rep": list(coords)}


def _text(expr) -> str:
    """dioph's text form of a univariate integer polynomial in x, expanded
    by sympy, terms in decreasing degree."""
    coeffs = sympy.Poly(sympy.expand(expr), _X).all_coeffs()
    parts = []
    for k, c in zip(range(len(coeffs) - 1, -1, -1), coeffs):
        if c:
            var = "" if k == 0 else "x" if k == 1 else f"x^{k}"
            mag = "" if abs(c) == 1 and k else str(abs(c))
            parts.append(("-" if c < 0 else "+" if parts else "") + mag + var)
    return "".join(parts)


_X = sympy.Symbol("x")
# squarefree over Q, but no filter prime of intpoly proves it
_FILTER_PRODUCT = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43


def _body(forms, bounds) -> str:
    return json.dumps({"forms": [[str(a) for a in row] for row in forms],
                       "bounds": [str(b) for b in bounds]})


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# the two 5-dim bodies of the `lattices` benchmark workload
_FIXED_MINIMA = _body([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, -1],
                       [0, 0, 0, 0, 1]], ["1/2", 1, "3/2", 1, "1/2"])
_FIXED_MINKOWSKI = _body([[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 1, 0],
                          [1, 0, 0, 0, 1]], [1, "1/2", 1, "3/2", 1])

COMMANDS = {
    # degree 2-4, the largest real root and (--root-interval) another one
    "approximation": [
        ["cf", "--terms", "40", "--", "x^2-2"],
        ["cf", "--terms", "20", "--", "2x^3-x-3"],
        ["cf", "--terms", "16", "--root-interval=-2,-1", "--", "x^3-3x+1"],
        ["cf", "--terms", "10", "--root-interval=-3,-2", "--", '{"coeffs": ["2", "0", "-5", "0", "1"]}'],
        ["liouville", "--qmax", "1000000", "--sweep", "200", "--", "x^2-x-1"],
        ["liouville", "--qmax", "100000", "--sweep", "100", "--root-interval=0,1", "--", "x^3-3x+1"],
        ["liouville", "--qmax", "10000", "--sweep", "50", "--", "3x^4-2x-3"],
        ["liouville", "--qmax", "5000", "--sweep", "40", "--root-interval=-2,-1", "--", "x^4-2"],
        ["exponents", "--qmax", "10000000000", "--", "x^2-2"],
        ["exponents", "--qmax", "100000000", "--root-interval=0,1", "--", "x^3-3x+1"],
        ["exponents", "--qmax", "100000", "--", "x^4-x-1"],
        ["exponents", "--qmax", "1000000", "--format", "csv", "--root-interval=-2,-1", "--", "2x^2+3x-1"],
    ],
    # the index at rational points, at alpha and at points mixing both;
    # auxiliary polynomials up to the 128-unknown cap; the lemma verifier
    # with its hypotheses holding and failing
    "index": [
        ["index", "--point=1,2", "--weights", "2,3", "--poly", _poly("(x-1)**2*(y-2)**3", "x y")],
        ["index", "--point=1/2,-1,2", "--weights", "3,1,2", "--poly",
         _poly("(2*x-1)**3*(y+1)*(z-2)**2 + 3*(2*x-1)**2*(y+1)**2*(z-2)", "x y z")],
        ["index", "--point=-3/2", "--weights", "4", "--poly", _poly("(2*x+3)**3*(x**2+1)", "x")],
        ["index", "--point=0,0", "--weights", "1,1", "--poly", '{"arity": 2, "terms": []}'],
        ["index", "--point=alpha,1", "--weights", "2,1", "--base", "x^2-2", "--poly", _SQRT2_SQUARE],
        ["index", "--point=alpha,alpha", "--weights", "2,3", "--base", "x^3-2", "--poly",
         _poly("(x**3-2)*(y**3-2)**2 + (x-y)**3*(x**3-2)", "x y")],
        ["index", "--point=alpha,-1/2,alpha", "--weights", "1,2,2", "--base", "x^2-x-1", "--poly",
         _poly("(x**2-x-1)*(2*y+1)**2*(z**2-z-1) + (x-z)**2*(2*y+1)", "x y z")],
        ["auxpoly", "--alpha", "x^2-2", "--m", "2", "--epsilon", "1/2", "--r", "3,3"],
        ["auxpoly", "--alpha", "x^3-2", "--m", "3", "--epsilon", "1/2", "--r", "3,3,3"],
        ["auxpoly", "--alpha", "x^2-3", "--m", "2", "--epsilon", "1/2", "--r", "1,63"],
        ["auxpoly", "--alpha", "x^2-5", "--m", "7", "--epsilon", "1/2", "--r", "1,1,1,1,1,1,1"],
        ["auxpoly", "--alpha", "x^3-5", "--m", "2", "--epsilon", "1/4", "--r", "5,4"],
        ["roth-verify", "--", _roth("(x-2)**2", "x", [2 ** 60], [2], "1/2")],
        ["roth-verify", "--", _roth("1+3*x", "x y", [2 ** 150, -(2 ** 300) + 5], [8, 2], "1/2")],
        ["roth-verify", "--", _roth("(x-3)*(y-5)**2", "x y", [3, 5], [4, 2], "1/4")],
    ],
    # dimension 2-5; identity forms with equal bounds and unit shears give
    # many points of equal gauge, so the witnesses show the tie-break
    "lattice": [
        ["minima", "--", _body(_identity(2), [1, 1])],
        ["minima", "--", _body(_identity(3), ["2/3"] * 3)],
        ["minkowski", "--", _body(_identity(4), ["1/2"] * 4)],
        ["minima", "--", _body(_identity(5), [2] * 5)],
        ["minima", "--", _body(_identity(5), [1, 1, 1, 1, 5])],
        ["minima", "--", _FIXED_MINIMA],
        ["minkowski", "--", _FIXED_MINKOWSKI],
        ["minima", "--", _body([[1, 1], [0, 1]], [1, 2])],
        ["minkowski", "--", _body([[3, 1], [1, 2]], ["1/2", "5/3"])],
        ["minima", "--", _body([[2, 1, 0], [0, 1, 1], [1, 0, 3]], [1, 1, 1])],
        ["minkowski", "--", _body([[1, 2, 0], [0, 1, 0], ["3/2", 0, 1]], ["1/3", 2, "3/2"])],
        ["minima", "--", _body([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], [1] * 4)],
        ["minkowski", "--", _body([[1, 0, -1, 0], [0, 2, 0, 1], [1, 1, 1, 0], [0, 0, 1, 1]],
                                  ["1/2", 3, 1, "2/3"])],
        ["minima", "--", _body([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0],
                                [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]], [1] * 5)],
        # two skewed 5-dim shear draws (unit shears of the identity, one
        # row scaled by 3, bounds in 1/3..3): their reduced rows range in
        # sup norm from 1 to 18 and from 1 to 9, so the one enumeration
        # meets about 122,000 and 93,000 candidates
        ["minima", "--", _body([[1, 0, 0, 0, 0], [0, 3, 0, 0, 6], [0, -2, 1, 2, 0], [0, 0, 0, 1, 0],
                                [1, 0, 0, 0, 1]], [3, "1/2", 1, 1, 1])],
        ["minima", "--", _body([[1, 0, 0, 0, 0], [0, -3, -9, 0, 6], [0, 2, 5, 0, 0], [0, 0, 0, 1, 0],
                                [0, 0, 0, 0, 1]], [1, "1/3", "1/2", 1, 1])],
    ],
    # Q(alpha) systems of degree 2-5 whose cells carry denominators, two
    # integer systems, and the index at a root of a non-monic 2x^2-3 and
    # 3x^3-2x-2, where reducing powers of alpha divides by the leading
    # coefficient (options reordered so that the test ids stay distinct)
    "siegel": [
        _nf("x^2-2", [[_rep("1/2", "1"), _rep("0", "-1/3"), "3", ["2", "1"], _rep("-1", "1/4"), "1"]]),
        _nf("x^2-2", [[_rep("1/2", "1"), "1", _rep("0", "1/3"), "-2", "1", "0", ["1", "1"]],
                      ["1", _rep("1/3", "-1"), "0", "2", _rep("1/2", "1/2"), "-1", "1"]]),
        _nf("x^3-x-1", [[_rep("1/2", "1", "0"), _rep("1", "0", "-2/3"), "2", ["0", "1"],
                         _rep("-1", "1/5", "1"), "-3", _rep("0", "0", "1/2")]]),
        _nf("x^4-x-1", [[_rep("1/2", "0", "1", "-1"), _rep("1", "-1/3", "0", "0"), "1",
                         ["0", "0", "1"], _rep("3", "1", "1/7", "0"), "-2"]]),
        _nf("x^5-x-1", [[_rep("1", "1/2", "0", "0", "-1"), _rep("0", "0", "2/3", "1", "0"), "1",
                         ["1", "-1"], _rep("-1/4", "0", "0", "0", "1"), "2", ["0", "0", "0", "1"]]]),
        # a sextic field with four non-real embeddings
        _nf("x^6+x^5-3x+7", [[_rep("1", "0", "1/2", "0", "0", "-1"), _rep("0", "2/3", "0", "1", "0", "0"),
                              "1", ["1", "0", "-1"], _rep("-1/4", "0", "0", "0", "1", "1"), "2",
                              ["0", "0", "0", "0", "0", "1"], "-3"]]),
        ["siegel", "--", json.dumps({"entries": [[3, -1, 4, 1, -5], [2, 6, -5, 3, 5]]})],
        ["siegel", "--", json.dumps({"entries": [[7, -3, 0, 2, 1, -8, 4], [1, 5, -9, 2, 6, 3, -2],
                                                 [-4, 0, 3, 8, -1, 2, 5]]})],
        ["index", "--base", "2x^2-3", "--point=alpha,1", "--weights", "2,1", "--poly",
         _poly("(2*x**2-3)*(y-1) + x**3*y", "x y")],
        ["index", "--weights", "2,1", "--base", "2x^2-3", "--point=alpha,1", "--poly",
         _poly("(2*x**2-3)**2*(y-1) + (2*x**2-3)*(y-1)**2*x", "x y")],
        ["index", "--base", "3x^3-2x-2", "--point=alpha,alpha", "--weights", "1,2", "--poly",
         _poly("(3*x**3-2*x-2)*(3*y**3-2*y-2) + (x-y)**2*(3*y**3-2*y-2)", "x y")],
    ],
    # repeated factors, which take Yun's route (a power of x times a square,
    # a square no filter prime sees); cyclotomic products times rational
    # linear factors; the Northcott scan, whose Mahler filter strips
    # rational and cyclotomic factors by exact division; the Kronecker test
    # (polynomials lead with a positive term, so the ids stay distinct)
    "heights": [
        ["mahler", "--precision=1e-12", _text(_X ** 3 * (_X ** 2 - _X - 1) ** 2)],
        ["mahler", "--precision=1e-40", _text(_X ** 3 * (_X ** 2 - _X - 1) ** 2)],
        ["mahler", "--precision=1e-40", _text(_X ** 2 * (2 * _X ** 3 - _X - 3) ** 3)],
        ["mahler", "--precision=1e-12", _text((1 + _FILTER_PRODUCT * _X) ** 2 * (_X - 2))],
        ["mahler", "--precision=1e-40", _text((1 + _FILTER_PRODUCT * _X) ** 2 * (_X - 2))],
        ["mahler", "--precision=1e-40", _text(_X ** 2 - _FILTER_PRODUCT)],
        ["mahler", "--precision=1e-12", _text((3 * _X ** 2 + 1) ** 2 * (2 * _X - 1) ** 3 * (_X + 4))],
        ["mahler", "--precision=1e-12", _text(sympy.cyclotomic_poly(3, _X) ** 2 * sympy.cyclotomic_poly(4, _X)
                                              * (2 * _X - 3) * (_X + 5))],
        ["mahler", "--precision=1e-40", _text(sympy.cyclotomic_poly(5, _X) * sympy.cyclotomic_poly(1, _X) ** 2
                                              * sympy.cyclotomic_poly(12, _X) * (3 * _X + 1))],
        # a non-dyadic rational root, -1/3, at the coarsest root scale
        # (precision 2, 4 bits) and at 1e-40; a triple root at 0 and a
        # repeated cyclotomic factor at precision 1/3
        ["mahler", "--precision=2", _text((3 * _X + 1) * (_X ** 2 - 2))],
        ["mahler", "--precision=1e-40", _text((3 * _X + 1) * (_X ** 2 - 2))],
        ["mahler", "--precision", "1/3", _text(_X ** 3 * (_X ** 2 + _X + 1) ** 2)],
        ["northcott", "--degree", "2", "--height", "2"],
        ["northcott", "--degree", "3", "--height", "1"],
        # wider scans, with many reducible and cyclotomic candidates
        # (options reordered so that the test ids stay distinct)
        ["northcott", "--height", "5/4", "--degree", "3"],
        ["northcott", "--height", "1", "--degree", "4"],
        ["kronecker", "x^4-x^2+1", "--with-height"],
        # Phi_16 and Phi_15
        ["kronecker", "x^8+1", "--with-height"],
        ["kronecker", "x^8-x^7+x^5-x^4+x^3-x+1", "--with-height"],
        ["kronecker", "x^3-x-1", "--with-height", "--precision", "1e-40"],
        ["kronecker", "2x^2-3", "--with-height"],
        # M(x^3 - 100x - 1) is about 100 |lc|, so the first rung of the
        # Mahler ladders has the least slack here; 24 entries at 1e-30
        ["mahler", "--precision", "1e-40", "--", "x^3-100x-1"],
        ["kronecker", "--with-height", "--precision", "1e-40", "--", "x^3-100x-1"],
        ["northcott", "--height", "3/2", "--degree", "2", "--precision", "1e-30"],
    ],
}

CASES = [(name, argv) for name, cmds in COMMANDS.items() for argv in cmds]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _expected(name):
    return json.loads((DATA / f"{name}_stdout.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[" ".join(a[:3]) for _, a in CASES])
def test_stdout_is_unchanged(name, argv):
    assert _stdout(argv) == (0, _expected(name)[" ".join(argv)])


def test_every_command_has_expected_bytes():
    for name, cmds in COMMANDS.items():
        assert sorted(_expected(name)) == sorted(" ".join(a) for a in cmds)


if __name__ == "__main__":
    for name, cmds in COMMANDS.items():
        table = {}
        for argv in cmds:
            code, text = _stdout(argv)
            if code != 0:
                sys.exit(f"exit {code}: {' '.join(argv)}")
            table[" ".join(argv)] = text
        DATA.mkdir(exist_ok=True)
        (DATA / f"{name}_stdout.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
