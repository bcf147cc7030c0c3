"""Benchmark a parent checkout against this one in alternating pairs of runs.

    python tools/ab_bench.py PARENT_CHECKOUT --workload W --pairs N --seconds S

Each pair runs `perfbench/run.py --trace 0` once from PARENT_CHECKOUT and once
from this checkout, with the same seed, one after the other, each compiling
every module from source (PYTHONDONTWRITEBYTECODE=1 and a fresh, empty
PYTHONPYCACHEPREFIX). The side that
goes first alternates from pair to pair, and no two runs overlap. For each
end-to-end metric in this checkout's BENCHMARK.json it prints both medians,
their ratio (change / parent), the pairs the change won (ties count for
neither), the interquartile range of the parent's runs and the metric's bound:
the figures a no-regression or gain claim is read from. Each run also writes
its usual record under its own checkout's perfbench-out/. The first line names
the environment every speed record must name: the machine, the CPUs this
process may use and the machine's CPU count, the Python, numpy and scipy
versions, and the BLAS thread variables as set here (perfbench/run.py pins
each run to one BLAS thread whatever they are).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The summary line of one benchmark run from checkout. Every module is
    compiled from source, as on a host that checks out afresh: the run writes
    no bytecode and reads it only from an empty cache directory, so neither a
    checkout's stale __pycache__ nor an earlier run's bytecode is used."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run(cmd, cwd=checkout, env=env, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo where there is one."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown CPU"


def environment() -> str:
    """One line naming the machine, its CPUs, the versions and the BLAS threads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    blas = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"env: machine {platform.machine()} ({cpu_model()}) "
            f"affinity_cpus {cpus} cpu_count {os.cpu_count()} "
            f"python {platform.python_version()} "
            f"numpy {importlib.metadata.version('numpy')} "
            f"scipy {importlib.metadata.version('scipy')} {blas}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    print(environment(), flush=True)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = run(sides[side], args.workload, pair, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in end_to_end)
            print(f"pair {pair} {side}: {values} failed={result['failed']}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s runs")
    for side, results in runs.items():
        print(f"  {side}: {sum(r['attempted'] for r in results)} operations attempted, "
              f"{sum(r['failed'] for r in results)} failed")
    for metric in end_to_end:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(f"  {name}: parent {p_med:.6g} change {c_med:.6g} ratio {c_med / p_med:.4f} "
              f"wins {wins}/{args.pairs} parent_iqr {q3 - q1:.6g} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
