"""Text and JSON formats shared by the library and the command line.

All numbers cross the boundary as exact rational strings "num/den" (or
plain integers); enclosures are {"lo": ..., "hi": ...} pairs.  The
univariate text grammar accepts forms like "x^3 - 2" and "2x^2 + x/2";
see docs/formats.md for the full grammar.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .enclosure import Enclosure
from .exceptions import DomainError, ParseError, UnsupportedError
from .heights import HeightValue
from .intpoly import IntPolynomial, _q_to_primitive
from .lattice import ConvexBody
from .multipoly import MultiPoly
from .numberfield import AlgebraicNumber, NumberFieldElement
from .siegel import IntMatrix, NFMatrix


# Parse-time caps: larger inputs raise UnsupportedError before any work.
EXPONENT_CAP = 1000  # |e| in scientific text such as "1e-40"
TEXT_DEGREE_CAP = 1000  # k in x^k of the univariate text grammar

_EXPONENT = re.compile(r"[eE]([-+]?)(\d+(?:_\d+)*)$")


def parse_rational(text: Union[str, int, float]) -> Fraction:
    """Exact rational from "p/q", integer, or decimal/scientific text.
    A decimal exponent above EXPONENT_CAP in size raises UnsupportedError."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise DomainError("refusing a float where an exact rational is required")
    text = text.strip()
    m = _EXPONENT.search(text)
    if m is not None:
        digits = m.group(2).replace("_", "").lstrip("0")
        if len(digits) > len(str(EXPONENT_CAP)) or int(digits or 0) > EXPONENT_CAP:
            raise UnsupportedError(
                f"exponent {m.group(1)}{m.group(2)} in {text!r}; the cap is {EXPONENT_CAP}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, booleans and strings are not silently cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_rational(value, what: str) -> Fraction:
    """A rational from a JSON string or integer; booleans, floats and
    other JSON values are refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{what} must be a rational string or a JSON integer, got {value!r}")
    try:
        return parse_rational(value)
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array, got {value!r}")
    return value


def _json_object(value, what: str, *keys: str) -> dict:
    """`value` as a JSON object holding every one of `keys`."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {value!r}")
    for key in keys:
        if key not in value:
            raise ParseError(f'{what} needs "{key}"')
    return value


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def enclosure_to_json(enc: Enclosure) -> dict:
    """Serialize with outward dyadic rounding: endpoints stay certified
    but denominators are capped at 2**128 for readability, or, for an
    enclosure narrower than 2**-120, at 2**(e + 8) where 2**-(e + 1) is
    below its width, so rounding widens it by less than 1/64."""
    width = enc.width
    bits = 128
    if width:
        bits = max(bits, width.denominator.bit_length() - width.numerator.bit_length() + 8)
    rounded = enc.round_out(bits)
    return {"lo": format_rational(rounded.lo), "hi": format_rational(rounded.hi)}


def height_to_json(hv: HeightValue) -> dict:
    return {
        "exact": format_rational(hv.exact) if hv.exact is not None else None,
        "enclosure": enclosure_to_json(hv.enclosure),
    }


# ---------------------------------------------------------------------------
# univariate polynomial text grammar

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>x)|(?P<caret>\^)|(?P<plus>\+)"
    r"|(?P<minus>-)|(?P<star>\*))"
)


def parse_univariate_text(text: str) -> List[Fraction]:
    """Ascending rational coefficients of a univariate polynomial string.

    Grammar: terms joined by + or -, each term a rational coefficient,
    a power of x, or coefficient*x^k (the * is optional).  Raises
    ParseError carrying the character offset of the first bad token.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {text[pos]!r} at offset {pos}", position=pos
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))

    coeffs: dict = {}
    i = 0

    def bad(idx):
        raise ParseError(
            f"parse error at offset {tokens[idx][2]}", position=tokens[idx][2]
        )

    first = True
    while tokens[i][0] != "end":
        sign = 1
        if tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -1
            i += 1
        elif not first:
            bad(i)
        first = False
        coef = None
        if tokens[i][0] == "number":
            coef = Fraction(tokens[i][1])
            i += 1
            if tokens[i][0] == "star":
                i += 1
                if tokens[i][0] != "var":
                    bad(i)
        exp = 0
        if tokens[i][0] == "var":
            exp = 1
            i += 1
            if tokens[i][0] == "caret":
                i += 1
                if tokens[i][0] != "number" or "/" in tokens[i][1]:
                    bad(i)
                exp = int(tokens[i][1])
                if exp > TEXT_DEGREE_CAP:
                    raise UnsupportedError(
                        f"power x^{exp}; the degree cap is {TEXT_DEGREE_CAP}"
                    )
                i += 1
        if coef is None:
            if exp == 0:
                bad(i)
            coef = Fraction(1)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    if not coeffs:
        raise ParseError("empty polynomial", position=0)
    top = max(coeffs)
    return [coeffs.get(k, Fraction(0)) for k in range(top + 1)]


def parse_poly_input(data: Union[str, dict]) -> List[Fraction]:
    """Polynomial from text ("x^2 - 2") or JSON {"coeffs": [...]} form,
    as ascending rational coefficients."""
    if isinstance(data, dict):
        coeffs = _json_list(_json_object(data, "polynomial JSON", "coeffs")["coeffs"], '"coeffs"')
        return [_json_rational(c, '"coeffs" entry') for c in coeffs]
    if not isinstance(data, str):
        raise ParseError(f"a polynomial must be text or a JSON object, got {data!r}")
    text = data.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", position=exc.pos) from exc
        return parse_poly_input(obj)
    return parse_univariate_text(text)


def to_int_polynomial(coeffs: Sequence[Fraction]) -> IntPolynomial:
    """Primitive integer polynomial proportional to the rational input."""
    poly = _q_to_primitive([Fraction(c) for c in coeffs])
    if poly.is_zero():
        raise DomainError("zero polynomial")
    return poly


# ---------------------------------------------------------------------------
# multivariate polynomials


def multipoly_to_json(P: MultiPoly) -> dict:
    terms = []
    for exps in sorted(P.terms):
        c = P.terms[exps]
        if isinstance(c, NumberFieldElement):
            coeff = {"rep": [format_rational(r) for r in c.rep]}
        else:
            coeff = format_rational(c)
        terms.append({"coeff": coeff, "exps": list(exps)})
    return {"arity": P.arity, "terms": terms}


def _rep_from_json(cell, base: AlgebraicNumber) -> NumberFieldElement:
    """A {"rep": [...]} power-basis element of Q(alpha)."""
    rep = _json_list(_json_object(cell, "a number-field value", "rep")["rep"], '"rep"')
    return NumberFieldElement(base, [_json_rational(r, '"rep" entry') for r in rep])


def multipoly_from_json(
    data: dict, base: Optional[AlgebraicNumber] = None
) -> MultiPoly:
    _json_object(data, "multivariate JSON", "arity", "terms")
    arity = _json_int(data["arity"], '"arity"')
    terms = {}
    for item in _json_list(data["terms"], '"terms"'):
        _json_object(item, "a term", "coeff", "exps")
        exps = tuple(_json_int(e, '"exps" entry') for e in _json_list(item["exps"], '"exps"'))
        c = item["coeff"]
        if isinstance(c, dict):
            if base is None:
                raise ParseError("rep coefficients need a base generator")
            coeff = _rep_from_json(c, base)
        else:
            coeff = _json_rational(c, '"coeff"')
        terms[exps] = coeff
    return MultiPoly(arity, terms)


# ---------------------------------------------------------------------------
# matrices and bodies


def int_matrix_from_json(data: dict) -> IntMatrix:
    entries = [
        [_json_int(c, "matrix entry") for c in _json_list(row, '"entries" row')]
        for row in _json_list(_json_object(data, "matrix JSON", "entries")["entries"], '"entries"')
    ]
    if "rows" in data and len(entries) != _json_int(data["rows"], '"rows"'):
        raise ParseError("row count disagrees with entries")
    if "cols" in data and entries and len(entries[0]) != _json_int(data["cols"], '"cols"'):
        raise ParseError("column count disagrees with entries")
    return IntMatrix(entries)


def nf_matrix_from_json(data: dict) -> NFMatrix:
    _json_object(data, "NF matrix JSON", "base", "entries")
    base_poly = to_int_polynomial(parse_poly_input(data["base"]))
    base = _algebraic_from_poly(base_poly, data.get("root_interval"))
    rows = []
    for row in _json_list(data["entries"], '"entries"'):
        cells = []
        for cell in _json_list(row, '"entries" row'):
            if isinstance(cell, dict):
                cells.append(_rep_from_json(cell, base))
            else:
                rep = cell if isinstance(cell, list) else [cell]
                cells.append(
                    NumberFieldElement(base, [_json_rational(r, '"entries" entry') for r in rep])
                )
        rows.append(cells)
    return NFMatrix(base, rows)


def _algebraic_from_poly(
    poly: IntPolynomial, root_interval=None
) -> AlgebraicNumber:
    """Root selection: an explicit interval, else the largest real root,
    else conjugate index 0."""
    if root_interval is not None:
        if not isinstance(root_interval, list) or len(root_interval) != 2:
            raise ParseError(f"a root interval is a pair lo, hi; got {root_interval!r}")
        lo, hi = (_json_rational(v, "root interval endpoint") for v in root_interval)
        return AlgebraicNumber(poly, interval=(lo, hi))
    from .intpoly import isolate_real_roots

    real = isolate_real_roots(poly)
    if real:
        return AlgebraicNumber(poly, interval=real[-1])
    return AlgebraicNumber(poly, conjugate_index=0)


def body_from_json(data: dict) -> ConvexBody:
    _json_object(data, "body JSON", "forms", "bounds")
    forms = [
        [_json_rational(c, '"forms" entry') for c in _json_list(row, '"forms" row')]
        for row in _json_list(data["forms"], '"forms"')
    ]
    bounds = [_json_rational(c, '"bounds" entry') for c in _json_list(data["bounds"], '"bounds"')]
    return ConvexBody(forms, bounds)
