"""One benchmark process: set up dioph, then time rounds of CLI jobs.

Protocol with run.py, over the pipes:
  1. import dioph, run the warm-up jobs, write "READY" on stdout;
  2. exit here with --setup-only; otherwise read one JSON line from
     stdin: {"jobs": [argv, ...], "seconds": s, "min_jobs": k, "trace": 0|1,
     "spans": path or null};
  3. run whole rounds of the job list (one client, closed loop) and write
     one JSON line with the timings, the distinct outputs of every job,
     the peak RSS and, when traced, the per-layer metrics.

Each job is `dioph.cli.main(argv)` in-process, stdout and stderr
captured.  Only that call is inside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Fixed job per subcommand, run before timing so lazy imports and the
# program's process-global caches are warm in every worker.
WARMUP = [
    ["height", "--", "-3/4"],
    ["mahler", "--", "x^2-x-1"],
    ["northcott", "--degree", "1", "--height", "2"],
    ["kronecker", "--with-height", "--", "x^2+x+1"],
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
    ["cf", "--terms", "8", "--", "x^2-2"],
    ["liouville", "--qmax", "100", "--sweep", "20", "--", "x^2-2"],
    ["exponents", "--qmax", "100", "--", "x^2-2"],
    ["minima", "--", '{"forms": [["1","0"],["0","1"]], "bounds": ["1/2","3"]}'],
    ["minkowski", "--", '{"forms": [["1","1"],["0","1"]], "bounds": ["1","2"]}'],
]


def call(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue() if rc == 0 else err.getvalue(), elapsed


def run_round(cli, jobs, outputs, tracer=None):
    """Run the job list once; count each job's distinct (exit code, output)
    in `outputs`.  Returns (wall seconds, per-job latencies)."""
    latencies = []
    start = time.perf_counter()
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        rc, text, elapsed = call(cli, argv)
        latencies.append(elapsed)
        key = json.dumps([rc, text])
        outputs[i][key] = outputs[i].get(key, 0) + 1
    return time.perf_counter() - start, latencies


def main():
    setup_only = "--setup-only" in sys.argv
    from dioph import cli

    for argv in WARMUP:
        rc, text, _ = call(cli, argv)
        if rc != 0:
            print(f"warm-up failed: {argv[0]}: {text.strip()}", file=sys.stderr)
            return 3
    print("READY", flush=True)
    if setup_only:
        return 0

    req = json.loads(sys.stdin.readline())
    jobs = req["jobs"]
    outputs = [{} for _ in jobs]
    rounds, latencies = [], []
    result = {}
    if not req["trace"]:
        # whole rounds until the time is spent and enough jobs are timed
        began = time.perf_counter()
        while (not rounds or time.perf_counter() - began < req["seconds"]
               or len(latencies) < req["min_jobs"]):
            wall, lats = run_round(cli, jobs, outputs)
            rounds.append(wall)
            latencies += lats
    else:
        from tracing import Tracer

        # one untraced round settles the program's process-global caches;
        # then traced and untraced rounds alternate, so the overhead ratio
        # compares rounds made at nearly the same time
        plain_outputs = [{} for _ in jobs]
        run_round(cli, jobs, plain_outputs)
        tracer = Tracer()
        traced_walls, plain_walls, layer_rounds = [], [], []
        traced_outputs = [{} for _ in jobs]
        began = time.perf_counter()
        while not traced_walls or time.perf_counter() - began < req["seconds"]:
            tracer.reset()
            tracer.install()
            try:
                wall, _ = run_round(cli, jobs, traced_outputs, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_rounds.append(tracer.metrics())
            if len(traced_walls) == 1 and req["spans"]:
                tracer.write_spans(req["spans"])
            wall, _ = run_round(cli, jobs, plain_outputs)
            plain_walls.append(wall)
        tracer.reset()
        layers = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        layers["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
        layers["trace.traced_jobs_per_s"] = len(jobs) * len(traced_walls) / sum(traced_walls)
        layers["trace.untraced_jobs_per_s"] = len(jobs) * len(plain_walls) / sum(plain_walls)
        result["layers"] = layers
        # the wrappers must not change a byte of any output
        result["trace_mismatch"] = [i for i in range(len(jobs))
                                    if not set(traced_outputs[i]) <= set(plain_outputs[i])]
        for i in range(len(jobs)):
            for key, n in list(plain_outputs[i].items()) + list(traced_outputs[i].items()):
                outputs[i][key] = outputs[i].get(key, 0) + n
    result.update({
        "round_seconds": rounds,
        "latencies": latencies,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
