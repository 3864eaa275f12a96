import json
from fractions import Fraction

import pytest

from dioph.approx import continued_fraction, convergents_up_to
from dioph.cli import main
from dioph.exceptions import DomainError
from dioph.heights import (
    nf_element_height,
    northcott_enumerate,
    weil_height_algebraic,
)
from dioph.intpoly import IntPolynomial, cyclotomic_index
from dioph.numberfield import AlgebraicNumber, NumberFieldElement


def test_cf_negative_algebraic():
    neg_sqrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 1]), interval=(-2, -1))
    cf = continued_fraction(neg_sqrt2, 6)
    assert cf.partial_quotients[0] == -2
    assert all(a >= 1 for a in cf.partial_quotients[1:])
    p, q = cf.convergents[-1]
    assert (Fraction(p, q) ** 2 - 2) ** 2 < Fraction(1, 10 ** 4)


def test_cf_quartic():
    quartic = AlgebraicNumber(IntPolynomial([-2, 0, 0, 0, 1]), interval=(1, 2))
    conv = convergents_up_to(quartic, 10 ** 4)
    assert conv[0] == (1, 1)
    p, q = conv[-1]
    # convergents approximate 2^(1/4)
    assert abs(Fraction(p, q) ** 4 - 2) < Fraction(1, 10 ** 6)


def test_northcott_degree_three_height_one():
    # phi(k) = 3 has no solutions, so no new entries appear at degree 3
    assert northcott_enumerate(3, Fraction(1)) == northcott_enumerate(2, Fraction(1))
    for f in northcott_enumerate(3, Fraction(1)):
        if f.constant != 0:
            assert cyclotomic_index(f) is not None


def test_nf_element_height_of_power():
    cbrt2 = AlgebraicNumber(IntPolynomial([-2, 0, 0, 1]), interval=(1, 2))
    gen = NumberFieldElement.generator(cbrt2)
    h = nf_element_height(gen * gen, Fraction(1, 10 ** 10)).enclosure
    # H(2^(2/3)) = 4^(1/3): check via cubes
    assert h.lo ** 3 <= 4 <= h.hi ** 3
    ref = weil_height_algebraic(
        AlgebraicNumber(IntPolynomial([-4, 0, 0, 1]), interval=(1, 2)),
        Fraction(1, 10 ** 10),
    ).enclosure
    assert h.lo <= ref.hi and ref.lo <= h.hi


def test_algebraic_number_degree_one_selectors():
    five = AlgebraicNumber.from_rational(5)
    assert five.is_rational() and five.rational_value() == 5
    assert weil_height_algebraic(five).exact == 5


def test_liouville_scan_degree_check():
    from dioph.approx import liouville_scan

    with pytest.raises(DomainError):
        liouville_scan(AlgebraicNumber.from_rational(Fraction(3, 7)), 100)


def test_cli_stdin_and_file_inputs(capsys, tmp_path, monkeypatch):
    body = {"forms": [["1", "0"], ["0", "1"]], "bounds": ["1", "1"]}
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    code = main(["minima", f"@{path}"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["lambdas"] == ["1/1", "1/1"]

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
    code = main(["minima", "-"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["volume"] == "4/1"


def test_cli_csv_generic(capsys):
    code = main(["height", "3/2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "key,value" in out.splitlines()[0]
    assert any("exact,3/1" in line for line in out.splitlines())


def test_enclosure_json_is_outward():
    from dioph.enclosure import Enclosure
    from dioph.serialization import enclosure_to_json, parse_rational

    enc = Enclosure(Fraction(1, 3), Fraction(2, 3))
    data = enclosure_to_json(enc)
    assert parse_rational(data["lo"]) <= Fraction(1, 3)
    assert parse_rational(data["hi"]) >= Fraction(2, 3)
