import json
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dioph import approx, cli, heights
from dioph.cli import build_parser, main
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


def test_unseedable_mahler_input_exits_3(capsys):
    # x (10^100 x - 1) (x^2 + 1): mpmath.polyroots does not converge on it;
    # that was an uncaught NoConvergence traceback with exit 1
    poly = f"{10 ** 100}x^4-x^3+{10 ** 100}x^2-x"
    assert main(["mahler", "--precision", "1e-20", "--", poly]) == 3
    assert "mpmath.polyroots did not converge" in capsys.readouterr().err


def test_northcott_subcommand(capsys):
    code, out = run(capsys, "northcott", "--degree", "1", "--height", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3


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


def test_liouville_subcommand_certifies_the_constant_once(capsys, monkeypatch):
    calls = []
    real = approx.liouville_constant
    counted = lambda *a: calls.append(a) or real(*a)
    monkeypatch.setattr(approx, "liouville_constant", counted)
    monkeypatch.setattr(cli, "liouville_constant", counted)
    code, out = run(capsys, "liouville", "x^2-2", "--qmax", "1000", "--sweep", "50")
    assert code == 0 and json.loads(out)["violations"] == []
    assert len(calls) == 1


def test_cf_terms_above_the_cap_exit_2_at_once(capsys):
    start = time.perf_counter()
    code = main(["cf", "--terms", "100000000", "--", "x^2-2"])
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert "100000000" in err and "cap is 1000" in err


def _random_body(n, seed):
    """A random n x n body, entries p/q with |p|, q <= 9."""
    rng = random.Random(seed)
    entry = lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    return json.dumps({"forms": [[entry() for _ in range(n)] for _ in range(n)],
                       "bounds": [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(n)]})


BODY_140 = _random_body(140, 140)


@pytest.mark.parametrize(
    "argv, value, cap",
    [
        (["height", "--", "1e99999999"], "99999999", "the cap is 1000"),
        (["mahler", "--", "x^" + "9" * 30], "x^" + "9" * 30, "the degree cap is 1000"),
        (["northcott", "--degree", "12", "--height", "1"],
         "29426343959418943113115032504", "the cap is 30000"),
        (["auxpoly", "--alpha", "x^2-2", "--m", "3", "--epsilon", "1/4", "--r", "6,6,6"],
         "343 unknowns", "the cap is 128"),
        (["mahler", "--", "x^121+x+1"], "degree 121", "the cap is 120"),
        (["mahler", "--precision", "1e-1000", "--", "x^1000-2"], "degree 1000", "the cap is 120"),
        (["mahler", "--precision", "1e-300", "--", "x^40+x+1"], "degree 40 at about 996 bits",
         "the cap is 30108672000"),
        (["mahler", "--precision", "1e-41", "--", "x^120+x+1"], "degree 120 at about 136 bits",
         "the cap is 30108672000"),
        (["northcott", "--degree", "12", "--height", "1", "--precision", "1/1" + "0" * 1300],
         "degree 12 at about 4318 bits", "the cap is 30108672000"),
        (["kronecker", "--with-height", "--precision", "1/1" + "0" * 2000, "--",
          "x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1"], "degree 10 at about 6643 bits",
         "the cap is 30108672000"),
        (["minima", "--", BODY_140], "dimension 140", "the cap is 5"),
        (["minkowski", "--", BODY_140], "dimension 140", "the cap is 5"),
        (["index", "--point=3,5", "--weights", "1,1", "--poly",
          '{"arity": 2, "terms": [{"coeff": "1", "exps": [1000, 1000]}]}'],
         "partial degrees (1000, 1000)", "the cap is SHIFT_COST_CAP = 800000000000"),
        (["index", "--point=3", "--weights", "1", "--poly",
          '{"arity": 1, "terms": [{"coeff": "1", "exps": [20000]}]}'],
         "partial degrees (20000,)", "the cap is SHIFT_COST_CAP = 800000000000"),
    ],
)
def test_inputs_above_a_cap_exit_2_at_once(capsys, argv, value, cap):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert value in err and cap in err


def test_northcott_checks_the_mahler_cost_before_the_scan(capsys, monkeypatch):
    monkeypatch.setattr(heights, "MAHLER_COST_CAP", 10 ** 6)
    monkeypatch.setattr(cli, "northcott_enumerate", None)  # never reached
    code = main(["northcott", "--degree", "2", "--height", "1", "--precision", "1e-300"])
    assert code == 2
    assert "degree 2 at about 996 bits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["liouville", "exponents"])
def test_q_max_above_the_terms_cap_exits_2(capsys, monkeypatch, command):
    # sqrt(2) needs 12 partial quotients to pass q = 10**4
    monkeypatch.setattr(approx, "CF_TERMS_CAP", 11)
    code = main([command, "--qmax", "10000", "--", "x^2-2"])
    assert code == 2
    assert "the cap is CF_TERMS_CAP = 11" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exponents", "--qmax", "0", "--", "x^2-2"], "q_max must be >= 1"),
        (["exponents", "--qmax", "-7", "--", "x^2-2"], "q_max must be >= 1"),
        (["liouville", "--qmax", "0", "--", "x^2-2"], "q_max must be >= 1"),
        (["liouville", "--sweep", "-1", "--qmax", "10", "--", "x^2-2"], "sweep_limit must be >= 0"),
        (["liouville", "--sweep", "-5", "--qmax", "10", "--", "x^2-2"], "sweep_limit must be >= 0"),
        (["cf", "--root-interval", "5,7,9", "--", "x^2-2"], "--root-interval expects 'lo,hi'"),
        (["cf", "--root-interval=", "--", "x^2-2"], "--root-interval expects 'lo,hi'"),
        (["index", "--base", "x^2-2", "--root-interval", "5,7,9", "--poly",
          '{"arity": 1, "terms": []}', "--point", "0", "--weights", "1"],
         "--root-interval expects 'lo,hi'"),
    ],
)
def test_bad_flag_values_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_liouville_sweep_0_and_exponents_qmax_1_are_admitted(capsys):
    code, out = run(capsys, "liouville", "--sweep", "0", "--qmax", "10", "--", "x^2-2")
    assert code == 0 and json.loads(out)["sweep_limit"] == 0
    code, out = run(capsys, "exponents", "--qmax", "1", "--", "x^2-2")
    assert code == 0 and json.loads(out)["records"]


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


def test_northcott_enclosures_meet_the_requested_precision(capsys):
    argv = ["northcott", "--degree", "2", "--height", "1"]
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
        ["northcott", "--cache", "d", "--degree", "1", "--height", "1"],
        ["index", "--root-interval", "1,2", "--poly", '{"arity": 1, "terms": []}',
         "--point", "0", "--weights", "1"],  # no --base to select a root of
    ],
)
def test_options_only_where_read(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_every_flag_in_the_formats_doc_is_an_option():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    options = {
        option
        for action in build_parser()._subparsers._group_actions
        for command in action.choices.values()
        for option in command._option_string_actions
    }
    named = set(re.findall(r"--[a-z][a-z-]*", doc))
    assert named and named <= options, sorted(named - options)


@pytest.mark.parametrize(
    "argv",
    [
        ["kronecker", "--precision", "banana", "--", "x^2+1"],
        ["kronecker", "--precision", "1e-20", "--", "x^2+1"],  # no height asked for
        ["kronecker", "--with-height", "--precision", "banana", "--", "x^2+1"],
    ],
)
def test_kronecker_precision_needs_with_height(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv, exact",
    [
        (["height", "-3/4"], "4/1"),
        (["height", "-0.5"], "2/1"),
        (["height", "--point", "-1/2,3"], "6/1"),
        (["height", "--point", "-1/2"], "2/1"),
    ],
)
def test_negative_numbers_are_arguments(capsys, argv, exact):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["exact"] == exact


@pytest.mark.parametrize("argv", [["height", "--bogus"], ["mahler"], ["no-such-command"]])
def test_usage_errors_return_exit_code(capsys, argv):
    code, out = run(capsys, *argv)  # returned, not raised as SystemExit
    assert code == 2
    assert out == ""


def test_mahler_precision_below_2_to_minus_128_is_honoured(capsys):
    lehmer = "x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1"
    code, out = run(capsys, "mahler", "--precision", "1e-60", "--", lehmer)
    assert code == 0
    enc = json.loads(out)["mahler"]
    assert Fraction(enc["hi"]) - Fraction(enc["lo"]) <= Fraction(1, 10 ** 60)


def test_unreadable_json_file_is_a_parse_error(capsys, tmp_path):
    for name in ("missing.json", ""):  # a missing file and a directory
        code, out = run(capsys, "siegel", "@" + str(tmp_path / name))
        assert code == 2
        assert out == ""
    instance = tmp_path / "matrix.json"
    instance.write_text('{"entries": [[1, 2]]}', encoding="utf-8")
    code, out = run(capsys, "siegel", "@" + str(instance))
    assert code == 0 and json.loads(out)["bound_satisfied"]


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.strip() for ln in block.splitlines() if ln.strip().startswith("dioph ")]
    return [shlex.split(ln)[1:] for ln in lines if "@" not in ln]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_line_examples_run(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out


_WRONSKIAN_PAIR = '[{"arity":1,"terms":[{"coeff":"1","exps":[0]}]},{"arity":1,"terms":[{"coeff":"1","exps":[1]}]}]'
_ROTH_POLY = '{"arity": 1, "terms": [{"coeff": "1", "exps": [1]}]}'


@pytest.mark.parametrize(
    "argv, field",
    [
        (["wronskian", "--", '[{"arity": 1, "terms": [{"coeff": "1"}]}]'], '"exps"'),
        (["wronskian", "--", "5"], "polynomial family"),
        (["wronskian", "--", "[5]"], "multivariate JSON"),
        (["wronskian", "--", '[{"arity": "a", "terms": []}]'], '"arity"'),
        (["wronskian", "--mus", "5", "--", _WRONSKIAN_PAIR], "--mus"),
        (["wronskian", "--", '[{"arity": 1.7, "terms": [{"coeff": "1", "exps": [1]}]}]'], '"arity"'),
        (["wronskian", "--", '[{"arity": 1, "terms": [{"coeff": "1", "exps": [true]}]}]'], '"exps"'),
        (["wronskian", "--mus", "[[0],[1.5]]", "--", _WRONSKIAN_PAIR], "--mus entry"),
        (["siegel-nf", "--", '{"base": "x^2-2", "entries": [[{"x": 1}, "1", "0"]]}'], '"rep"'),
        (["siegel-nf", "--", '{"base": "x^2-2", "entries": 5}'], '"entries"'),
        (["siegel-nf", "--", '{"base": "x^2-2", "root_interval": ["1"], "entries": [["1", "1", "0"]]}'],
         "root interval"),
        (["index", "--base", "x^2-2", "--point", "0", "--weights", "1",
          "--poly", '{"arity": 1, "terms": [{"coeff": {"x": 1}, "exps": [1]}]}'], '"rep"'),
        (["roth-verify", "--", '{"poly": %s, "betas": ["4"], "weights": ["a"], "eta": "1/2"}' % _ROTH_POLY],
         '"weights"'),
        (["roth-verify", "--", '{"poly": %s, "betas": ["4"], "weights": [1.5], "eta": "1/2"}' % _ROTH_POLY],
         '"weights"'),
        (["minima", "--", '{"forms": 5, "bounds": ["1"]}'], '"forms"'),
        (["mahler", "--", '{"coeffs": 5}'], '"coeffs"'),
        (["mahler", "--", '{"coeffs": [1, true]}'], '"coeffs"'),
    ],
    ids=[
        "wronskian-term-without-exps", "wronskian-number", "wronskian-list-of-number",
        "wronskian-string-arity", "wronskian-mus-number", "wronskian-float-arity",
        "wronskian-bool-exponent", "wronskian-float-mu", "siegel-nf-cell-without-rep",
        "siegel-nf-entries-number", "siegel-nf-short-root-interval", "index-coeff-without-rep",
        "roth-verify-string-weight", "roth-verify-float-weight", "minima-forms-number",
        "mahler-coeffs-number", "mahler-bool-coeff",
    ],
)
def test_malformed_json_fields_are_parse_errors(capsys, argv, field):
    args = build_parser().parse_args(argv)
    with pytest.raises(ParseError, match=re.escape(field)):
        args.func(args)
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
