"""Every layer boundary named by the benchmark's tracer resolves in dioph.

bench/tracing.py wraps functions by name (Tracer.install looks each one
up with vars() on its module or class), so a rename under src/ would
break `bench/run.py --trace 1`; this test catches it in the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _paths():
    for name, (module, paths) in tracing.BOUNDARIES.items():
        for path in paths if isinstance(paths, list) else [paths]:
            yield name, module, path


@pytest.mark.parametrize("name,module,path", list(_paths()))
def test_boundary_resolves(name, module, path):
    owner = importlib.import_module(f"dioph.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr]), name


def test_cf_generator_resolves():
    module, attr = tracing.CF_GENERATOR
    assert callable(vars(importlib.import_module(f"dioph.{module}"))[attr])
