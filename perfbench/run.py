"""lindbladsim benchmark: times calls into the public API on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BLAS is pinned to one thread before any process loads numpy. With --trace 0
the run measures set-up as the median of several fresh interpreter starts,
then one workload process runs whole passes for S seconds and reports the
median pass time and its peak resident set. With --trace 1 the same passes
run with public functions wrapped (tracer.py) and the per-layer figures are
reported instead. The last line of standard output is one JSON object; a
record with every sample is written to perfbench-out/BENCH_<label>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("static-deep", "static-wide", "timedep-drive", "cli-batch")
SETUP_STARTS = 5          # timed fresh interpreter starts, after one untimed
RUN_TIMEOUT_S = 170.0

# Span names whose median self time per pass is a per-layer metric, and the
# counts taken at the same boundaries.
LAYER_TIMES = [
    "series.segment_time", "series.choose_orders", "series.as_superoperator",
    "series.normalizer_sum_squares", "series.iter_terms", "series.simulate",
    "linalg.batched_kraus_sum", "quadrature.canonical_rule", "models.exact_channel",
    "metrics.diamond_sandwich", "timedep.sampler", "timedep.td_simulate",
    "timedep.rk4_reference", "modelio.load_model", "primitives.verification_matrix",
    "cli.main",
]
SELF_SUFFIX = {"series.simulate", "timedep.td_simulate", "cli.main"}
LAYER_COUNTS = {
    "series.kraus_terms": "count", "series.segments": "count",
    "linalg.kraus_mats": "count", "quadrature.canonical_rule_calls": "count",
    "timedep.sampler_calls": "count", "cli.artifact_bytes": "bytes",
}


def layer_metric_name(span):
    return span + ("_self_s" if span in SELF_SUFFIX else "_s")


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def worker_cmd(args, workdir, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--workdir", workdir, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def run_child(cmd, env, deadline):
    """Runs one worker to its end; returns (seconds from start to READY, last stdout
    line). The worker is killed when the run's deadline (a perf_counter time) passes."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - t0
            lines = [first] + proc.stdout.readlines()
            proc.wait()
        finally:
            killer.cancel()
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready, lines[-1]


def layer_metrics(layers):
    """Median over passes of each layer's self time and of each count."""
    metrics = {}
    for span in LAYER_TIMES:
        values = [self_s.get(span, 0.0) for self_s, _, _ in layers]
        metrics[layer_metric_name(span)] = {"value": statistics.median(values), "unit": "s"}
    for name, unit in LAYER_COUNTS.items():
        values = [counts.get(name, 0) for _, _, counts in layers]
        metrics[name] = {"value": statistics.median_low(values), "unit": unit}
    return metrics


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "lindbladsim", "__init__.py")):
        sys.exit(f"no lindbladsim source under {SRC}")
    env = dict(os.environ, **BLAS_ENV)
    deadline = perf_counter() + RUN_TIMEOUT_S
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_STARTS + 1):
                ready, _ = run_child(worker_cmd(args, workdir, True), env, deadline)
                if i:
                    setup.append(ready)
        _, line = run_child(worker_cmd(args, workdir, False), env, deadline)
        result = json.loads(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["pass_s"]
    if args.trace:
        metrics = layer_metrics(result["layers"])
        metrics["trace.pass_s"] = {"value": statistics.median(passes), "unit": "s"}
        for name in result["absent"]:
            print(f"absent: {name} is not in this version of lindbladsim; "
                  "its layer figures read 0")
    else:
        metrics = {
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for failure in result["failures"]:
        print(f"check failed: {failure}")

    label = args.workload + ("-trace" if args.trace else "")
    record = {"label": label, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "setup_s": setup,
              "metrics": metrics, **result}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
