import json
from fractions import Fraction

import pytest

from dioph.cli import main
from dioph.exceptions import ParseError
from dioph.serialization import (
    multipoly_from_json,
    multipoly_to_json,
    parse_poly_input,
    parse_rational,
    parse_univariate_text,
)
from dioph.multipoly import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_univariate_examples():
    assert parse_univariate_text("x^2 - 2") == [Fraction(-2), Fraction(0), Fraction(1)]
    assert parse_poly_input({"coeffs": ["1/2", "0", "1"]}) == [
        Fraction(1, 2),
        Fraction(0),
        Fraction(1),
    ]
    assert parse_univariate_text("2x^2 + x - 3") == [
        Fraction(-3),
        Fraction(1),
        Fraction(2),
    ]
    assert parse_univariate_text("1/2 + x^2") == [Fraction(1, 2), 0, Fraction(1)]
    assert parse_univariate_text("-x + 5") == [Fraction(5), Fraction(-1)]
    assert parse_univariate_text("3*x^3") == [0, 0, 0, Fraction(3)]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_univariate_text("x^2 -")
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_univariate_text("x^^2")
    with pytest.raises(ParseError):
        parse_univariate_text("x^1/2")  # non-integer exponent


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("1e-12") == Fraction(1, 10 ** 12)
    assert parse_rational("-22/7") == Fraction(-22, 7)
    with pytest.raises(ParseError):
        parse_rational("3/2/1")


def test_height_subcommand(capsys):
    code, out = run(capsys, "height", "3/2")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == "3/1"
    code, out = run(capsys, "height", "--projective", "2:4:6")
    assert json.loads(out)["exact"] == "3/1"
    code, out = run(capsys, "height", "--poly", "x^2 - 2")
    assert json.loads(out)["exact"] == "2/1"
    code, out = run(capsys, "height", "--point", "1/2,3")
    assert json.loads(out)["exact"] == "6/1"


def test_mahler_subcommand(capsys):
    code, out = run(capsys, "mahler", "x^2-x-1", "--precision", "1e-12")
    assert code == 0
    data = json.loads(out)
    lo = parse_rational(data["mahler"]["lo"])
    hi = parse_rational(data["mahler"]["hi"])
    assert lo ** 2 - lo - 1 <= 0 <= hi ** 2 - hi - 1
    assert hi - lo <= Fraction(1, 10 ** 11)


def test_exit_codes(capsys):
    code, _ = run(capsys, "height", "--poly", "x^2 -")
    assert code == 2
    code, _ = run(capsys, "mahler", "0")
    assert code == 2
    # infeasible auxiliary polynomial: exit 3
    code, _ = run(
        capsys,
        "auxpoly",
        "--alpha",
        "x^2-2",
        "--m",
        "1",
        "--epsilon",
        "3/4",
        "--r",
        "1",
    )
    assert code == 3


def test_northcott_subcommand(capsys, tmp_path):
    code, out = run(capsys, "northcott", "--degree", "1", "--height", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3
    # cached rerun is byte-identical
    cache = str(tmp_path / "cache")
    code, out1 = run(
        capsys, "northcott", "--degree", "1", "--height", "2", "--cache", cache
    )
    code, out2 = run(
        capsys, "northcott", "--degree", "1", "--height", "2", "--cache", cache
    )
    assert out1 == out2
    assert len(json.loads(out1)) == 7


def test_determinism(capsys):
    _, out1 = run(capsys, "cf", "x^2-2", "--terms", "6")
    _, out2 = run(capsys, "cf", "x^2-2", "--terms", "6")
    assert out1 == out2


def test_kronecker_subcommand(capsys):
    code, out = run(capsys, "kronecker", "x^4+x^3+x^2+x+1")
    data = json.loads(out)
    assert data["is_root_of_unity"] and data["order"] == 5
    code, out = run(capsys, "kronecker", "x^2-x-1")
    assert not json.loads(out)["is_root_of_unity"]


def test_siegel_subcommands(capsys):
    code, out = run(capsys, "siegel", '{"entries": [[1, 2]]}')
    data = json.loads(out)
    assert code == 0 and data["bound_satisfied"]
    assert data["x"][0] * 1 + data["x"][1] * 2 == 0

    nf = json.dumps(
        {
            "base": "x^2-2",
            "entries": [[{"rep": ["1", "1"]}, "1", "0", "0", "0"]],
        }
    )
    code, out = run(capsys, "siegel-nf", nf)
    assert code == 0
    assert json.loads(out)["constraints"] == 2


def test_index_subcommand(capsys):
    poly = json.dumps(
        {"arity": 2, "terms": [{"coeff": "1", "exps": [1, 1]}]}
    )
    code, out = run(
        capsys, "index", "--poly", poly, "--point", "0,0", "--weights", "2,3"
    )
    assert json.loads(out)["index"] == "5/6"
    # algebraic diagonal point via --base
    poly2 = json.dumps(
        {
            "arity": 2,
            "terms": [
                {"coeff": "1", "exps": [2, 0]},
                {"coeff": "-2", "exps": [1, 1]},
                {"coeff": "1", "exps": [0, 2]},
            ],
        }
    )
    code, out = run(
        capsys,
        "index",
        "--poly",
        poly2,
        "--point",
        "alpha,alpha",
        "--weights",
        "3,3",
        "--base",
        "x^2-2",
    )
    assert json.loads(out)["index"] == "2/3"


def test_wronskian_subcommand(capsys):
    polys = json.dumps(
        [
            {"arity": 1, "terms": [{"coeff": "1", "exps": [0]}]},
            {"arity": 1, "terms": [{"coeff": "1", "exps": [1]}]},
        ]
    )
    code, out = run(capsys, "wronskian", polys)
    data = json.loads(out)
    assert data["independent"] and data["witness"] == [[0], [1]]


def test_index_count_subcommand(capsys):
    code, out = run(capsys, "index-count", "--m", "2", "--epsilon", "1/2", "--r", "2,2")
    assert json.loads(out)["count"] == 3


def test_auxpoly_subcommand(capsys):
    code, out = run(
        capsys,
        "auxpoly",
        "--alpha",
        "x^2-2",
        "--m",
        "2",
        "--epsilon",
        "1/2",
        "--r",
        "3,3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["constraints"] == 6 and data["unknowns"] == 16
    assert parse_rational(data["index_lower"]) >= Fraction(1, 2)
    # JSON output round-trips into a MultiPoly
    P = multipoly_from_json(data["poly"])
    assert not P.is_zero()


def test_roth_verify_subcommand(capsys):
    instance = json.dumps(
        {
            "poly": {
                "arity": 1,
                "terms": [
                    {"coeff": str(-(2 ** 64)), "exps": [0]},
                    {"coeff": "1", "exps": [1]},
                ],
            },
            "betas": [str(2 ** 64)],
            "weights": [10],
            "eta": "1/2",
        }
    )
    code, out = run(capsys, "roth-verify", instance)
    data = json.loads(out)
    assert data["hypotheses_hold"] and data["conclusion_holds"]
    assert data["index"] == "1/10"


def test_cf_and_liouville_subcommands(capsys):
    code, out = run(capsys, "cf", "x^2-2", "--terms", "5")
    data = json.loads(out)
    assert data["partial_quotients"] == [1, 2, 2, 2, 2]

    code, out = run(capsys, "liouville", "x^2-2", "--qmax", "1000", "--sweep", "50")
    data = json.loads(out)
    assert data["violations"] == []


def test_exponents_csv(capsys):
    code, out = run(
        capsys, "exponents", "x^2-2", "--qmax", "100", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "q,p,error_lo,error_hi,kappa_lo,kappa_hi"
    assert len(lines) > 3


def test_minima_minkowski_subcommands(capsys):
    body = json.dumps({"forms": [["1", "0"], ["0", "1"]], "bounds": ["1/2", "3"]})
    code, out = run(capsys, "minima", body)
    data = json.loads(out)
    assert data["lambdas"] == ["1/3", "2/1"]
    code, out = run(capsys, "minkowski", body)
    data = json.loads(out)
    assert data["product"] == "4/1" and data["upper_ok"] and data["lower_ok"]


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out = run(capsys, "height", "7", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["exact"] == "7/1"


def test_multipoly_json_roundtrip():
    P = MultiPoly(2, {(1, 2): Fraction(3, 4), (0, 0): Fraction(-2)})
    data = multipoly_to_json(P)
    assert multipoly_from_json(data) == P


def test_northcott_cache_is_keyed_by_precision(capsys, tmp_path):
    argv = ["northcott", "--degree", "2", "--height", "1", "--cache", str(tmp_path)]
    code, coarse = run(capsys, *argv, "--precision", "1e-3")
    assert code == 0
    code, fine = run(capsys, *argv, "--precision", "1e-20")
    assert code == 0
    data = json.loads(fine)
    assert len(data) == len(json.loads(coarse)) > 0
    for entry in data:
        mahler = entry["mahler"]
        width = parse_rational(mahler["hi"]) - parse_rational(mahler["lo"])
        assert width <= Fraction(1, 10 ** 20)


@pytest.mark.parametrize(
    "matrix",
    [
        '{"entries": [[1.5, 2, 1]]}',  # was truncated to [[1, 2, 1]]
        '{"entries": [[1, "a"]]}',  # was a ValueError traceback
        '{"entries": [[true, 2]]}',
        '{"rows": 1.5, "entries": [[1, 2]]}',
    ],
)
def test_siegel_rejects_non_integer_matrix_json(capsys, matrix):
    code, out = run(capsys, "siegel", matrix)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["siegel", "--precision", "1e-3", "--", '{"entries": [[1, 2]]}'],
        ["minima", "--cache", "d", "--", '{"forms": [[1, 0], [0, 1]], "bounds": [1, 1]}'],
    ],
)
def test_options_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
