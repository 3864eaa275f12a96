"""The runtime dependencies of dioph: the third-party packages imported
under src/dioph are exactly those pyproject.toml declares, and a run of
every subcommand never loads numpy.  README's module table names every
module under src/dioph, and docs/formats.md states the enumeration budget."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _declared_dependencies():
    """Distribution names in the [project] dependencies list."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", item).group().lower()
            for item in re.findall(r'"([^"]+)"', block)}


def _imported_packages():
    """Top-level names of every import under src/dioph, wherever it sits
    in a module (lazy imports inside functions included)."""
    names = set()
    for path in (SRC / "dioph").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"__future__", "dioph"}
    assert third_party == _declared_dependencies() == {"mpmath"}


# one job per subcommand
JOBS = [
    ["height", "--", "-3/4"],
    ["mahler", "--precision", "1e-30", "--", "x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1"],
    ["northcott", "--degree", "2", "--height", "1"],
    ["kronecker", "--with-height", "--", "x^3-x-1"],
    ["siegel", "--", '{"entries": [[1, 2, 3]]}'],
    ["siegel-nf", "--", '{"base": "x^2-2", "entries": [[["1", "1"], "1", "0", "0", "0"]]}'],
    ["index", "--poly", '{"arity":2,"terms":[{"coeff":"1","exps":[1,1]}]}',
     "--point", "0,0", "--weights", "2,3"],
    ["wronskian", "--", '[{"arity":1,"terms":[{"coeff":"1","exps":[0]}]},'
     '{"arity":1,"terms":[{"coeff":"1","exps":[1]}]}]'],
    ["index-count", "--m", "2", "--epsilon", "1/2", "--r", "2,2"],
    ["auxpoly", "--alpha", "x^2-2", "--m", "2", "--epsilon", "1/2", "--r", "2,2"],
    ["roth-verify", "--", '{"poly": {"arity": 1, "terms": [{"coeff": "1", "exps": [1]}]},'
     ' "betas": ["18446744073709551616"], "weights": [10], "eta": "1/2"}'],
    ["cf", "--terms", "8", "--", "x^3-2"],
    ["liouville", "--qmax", "100", "--sweep", "20", "--", "x^2-2"],
    ["exponents", "--qmax", "100", "--", "x^2-2"],
    ["minima", "--", '{"forms": [["1","0"],["0","1"]], "bounds": ["1/2","3"]}'],
    ["minkowski", "--", '{"forms": [["1","1"],["0","1"]], "bounds": ["1","2"]}'],
]

SCRIPT = """
import contextlib, io, json, sys
from dioph.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_no_subcommand_loads_numpy():
    assert len({argv[0] for argv in JOBS}) == 16
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(JOBS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report == {"codes": [0] * 16, "numpy": False}


def test_every_module_has_a_row_in_the_readme_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `dioph\.(\w+)` \|", table, re.M))
    modules = {p.stem for p in (SRC / "dioph").glob("*.py") if p.stem != "__init__"}
    assert modules - rows == set()


def test_formats_doc_states_the_enumeration_node_budget():
    from dioph.lattice import _ENUM_NODE_BUDGET

    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    assert f"more than {_ENUM_NODE_BUDGET:,} nodes" in formats.replace("\n  ", " ")


def test_formats_doc_states_the_shift_cost_cap():
    from dioph.multipoly import SHIFT_COST_CAP

    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    assert f"above {SHIFT_COST_CAP:,} units" in formats.replace("\n  ", " ")
