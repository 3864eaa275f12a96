"""Exact stdout of a fixed set of `cf`, `liouville` and `exponents` commands.

The expected bytes live in `tests/data/approximation_stdout.json`; they
were written by an earlier version of dioph, so any change to these
outputs shows here as a failure.  After a change of output that is meant,
rewrite the file with

    PYTHONPATH=src python tests/test_approximation_stdout.py

and name every changed command in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dioph import cli

DATA = Path(__file__).with_name("data") / "approximation_stdout.json"

# degree 2-4, the largest real root and (--root-interval) another one
COMMANDS = [
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
]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_stdout_is_unchanged(argv):
    expected = json.loads(DATA.read_text())[" ".join(argv)]
    assert _stdout(argv) == (0, expected)


def test_every_command_has_expected_bytes():
    assert sorted(json.loads(DATA.read_text())) == sorted(" ".join(a) for a in COMMANDS)


if __name__ == "__main__":
    table = {}
    for argv in COMMANDS:
        code, text = _stdout(argv)
        if code != 0:
            sys.exit(f"exit {code}: {' '.join(argv)}")
        table[" ".join(argv)] = text
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
