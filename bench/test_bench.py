"""Tests of the benchmark itself: determinism, checkers, tracing, smoke mode.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import BOUNDARIES, Tracer  # noqa: E402
from worker import WARMUP, call  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

from dioph import cli  # noqa: E402


def run(job):
    rc, text, _ = call(cli, job["argv"])
    assert rc == 0, text
    return text


def first(workload, kind, seed=1):
    return next(j for j in make_jobs(workload, seed) if j["kind"] == kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_differs_and_passes_every_check(workload):
    jobs = make_jobs(workload, 1009)
    assert jobs != make_jobs(workload, 7)
    assert [j["kind"] for j in jobs] == [j["kind"] for j in make_jobs(workload, 7)]
    for job in jobs:
        checks.check(job, run(job))


def test_fixed_number_fields_are_irreducible():
    import workloads

    for coeffs in workloads.SIEGEL_NF_BASES.values():
        assert workloads._irreducible(coeffs)


def test_workloads_cover_every_subcommand():
    kinds = {j["argv"][0] for w in WORKLOADS for j in make_jobs(w, 1)}
    assert kinds == {argv[0] for argv in WARMUP}


def _shift(enc, delta):
    lo, hi = Fraction(enc["lo"]), Fraction(enc["hi"])
    return {"lo": str(lo + delta), "hi": str(hi + delta)}


def test_checker_rejects_wrong_quotient():
    job = first("approximation", "cf")
    out = json.loads(run(job))
    checks.check(job, json.dumps(out))
    out["partial_quotients"][3] += 1
    with pytest.raises(CheckError):
        checks.check(job, json.dumps(out))


def test_checker_rejects_enclosure_off_the_value():
    job = first("heights", "mahler")
    out = json.loads(run(job))
    lo, hi = Fraction(out["mahler"]["lo"]), Fraction(out["mahler"]["hi"])
    out["mahler"] = _shift(out["mahler"], 2 * (hi - lo) + Fraction(1, 10 ** 45))
    with pytest.raises(CheckError, match="not in"):
        checks.check(job, json.dumps(out))


def test_checker_rejects_vector_outside_the_kernel():
    job = first("lattices", "siegel")
    out = json.loads(run(job))
    out["x"][0] += 1
    with pytest.raises(CheckError, match="Ax != 0"):
        checks.check(job, json.dumps(out))


def test_checker_rejects_lambda1_that_is_not_minimal():
    forms = [["1", "0"], ["0", "1"]]
    job = {"kind": "minima", "body": {"forms": forms, "bounds": ["1", "2"]},
           "argv": ["minima", "--", json.dumps({"forms": forms, "bounds": ["1", "2"]})]}
    out = json.loads(run(job))
    assert out["lambdas"] == ["1/2", "1/1"]
    # (1, 0) has gauge 1: a consistent claim that still misses (0, 1)
    out["lambdas"] = ["1/1", "1/1"]
    out["witnesses"] = [[1, 0], [1, 1]]
    with pytest.raises(CheckError, match="not minimal"):
        checks.check(job, json.dumps(out))


def test_tracer_is_transparent_and_counts_repeat():
    jobs = make_jobs("lattices", 3)[::4] + make_jobs("heights", 3)[::8]
    plain = [run(j) for j in jobs]
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            traced = [run(j) for j in jobs]
        finally:
            tracer.uninstall()
        assert traced == plain
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if not k.endswith("_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(jobs)
    assert all(c >= 0 for c in counts[0].values())
    # every wrapper is gone again
    from dioph import numberfield, siegel
    assert not hasattr(siegel.siegel_solve_Z, "__wrapped__")
    assert not hasattr(numberfield.NumberFieldElement.__mul__, "__wrapped__")
    assert not hasattr(cli.siegel_solve_Z, "__wrapped__")


def test_every_boundary_is_wrapped_where_it_is_bound():
    import importlib

    tracer = Tracer()
    tracer.install()
    try:
        for module, paths in BOUNDARIES.values():
            for path in paths if isinstance(paths, list) else [paths]:
                owner = importlib.import_module(f"dioph.{module}")
                for part in path.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), f"{module}.{path}"
        # names imported elsewhere with `from .x import f` are wrapped too
        assert hasattr(cli.mahler_measure, "__wrapped__")
        assert hasattr(cli.siegel_solve_NF, "__wrapped__")
    finally:
        tracer.uninstall()


def test_smoke_mode_is_quick_and_correct():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WARMUP)
    assert elapsed < 60


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "heights",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
