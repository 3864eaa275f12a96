"""Benchmark of the dioph command line over three seeded workloads.

    python3 bench/run.py --workload heights --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke --seed 1

Run from the root of a checkout.  The job list is made from the seed
(workloads.py); fresh worker processes (worker.py) set up dioph and run
the list in whole rounds, one client in a closed loop; every distinct
output is then checked against an independent computation (checks.py),
outside the timed region.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUPS = 3  # worker start-ups per run; setup_s is their median
MIN_JOBS = 100  # timed jobs per run, so the p90 has ten samples beyond it
WORKER_TIMEOUT = 150  # seconds; a run must end within 180


def spawn_worker(setup_only):
    env = dict(os.environ, PYTHONHASHSEED="0")
    args = [sys.executable, str(HERE / "worker.py")] + (["--setup-only"] if setup_only else [])
    return subprocess.Popen(args, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def start_worker(setup_only):
    """(process, seconds from spawn until the worker is warm)."""
    start = time.perf_counter()
    proc = spawn_worker(setup_only)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError("worker did not start; see its stderr")
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(request):
    """Measure SETUPS start-ups, the last of which runs the request."""
    setups = []
    for _ in range(SETUPS - 1):
        proc, ready = start_worker(setup_only=True)
        setups.append(ready)
        try:
            proc.communicate(timeout=WORKER_TIMEOUT)
        finally:
            stop(proc)
    proc, ready = start_worker(setup_only=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(json.dumps(request) + "\n", timeout=WORKER_TIMEOUT)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def check_outputs(jobs, outputs):
    """(attempted, failed, messages): every distinct output checked once."""
    from checks import CheckError, check

    attempted = failed = 0
    messages = []
    for job, seen in zip(jobs, outputs):
        for key, count in seen.items():
            rc, text = json.loads(key)
            attempted += count
            try:
                if rc != 0:
                    raise CheckError(f"exit {rc}: {text.strip()[:200]}")
                check(job, text)
            except CheckError as exc:
                failed += count
                messages.append(f"{job['argv'][0]} {json.dumps(job['argv'][1:])[:160]}: {exc}")
    return attempted, failed, messages


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result, setups):
    lat = result["latencies"]
    return {
        "jobs_per_s": {"value": len(lat) / sum(result["round_seconds"]), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "latency_p90_ms": {"value": percentile(lat, 90) * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(result):
    from tracing import layer_metric_units

    units = dict(layer_metric_units())
    units.update({"trace.overhead_ratio": "ratio", "trace.traced_jobs_per_s": "1/s",
                  "trace.untraced_jobs_per_s": "1/s"})
    return {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}


def smoke_jobs(seed):
    """The first job of every subcommand across the three workloads."""
    from workloads import WORKLOADS, make_jobs

    seen, jobs = set(), []
    for workload in WORKLOADS:
        for job in make_jobs(workload, seed):
            if job["kind"] not in seen:
                seen.add(job["kind"])
                jobs.append(job)
    return jobs


def main(argv=None):
    from workloads import WORKLOADS, make_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one checked job per subcommand, one round")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "dioph" / "cli.py").is_file():
        print(f"error: no dioph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = smoke_jobs(args.seed) if args.smoke else make_jobs(args.workload, args.seed)
    spans = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    request = {"jobs": [job["argv"] for job in jobs],
               "seconds": 0 if args.smoke else args.seconds,
               "min_jobs": 0 if args.smoke else MIN_JOBS,
               "trace": args.trace, "spans": spans}
    result, setups = run_worker(request)
    attempted, failed, messages = check_outputs(jobs, result["outputs"])
    mismatch = result.get("trace_mismatch", [])
    for i in mismatch:
        messages.append(f"traced output differs from untraced: {jobs[i]['argv'][0]}")
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    print(json.dumps({"correct": failed == 0 and not mismatch, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
