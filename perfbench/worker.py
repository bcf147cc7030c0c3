"""One workload process: imports, builds the first pass's inputs, then runs passes.

Started by run.py, which pins BLAS to one thread in its environment. It prints
READY once the first pass's inputs are built, which ends set-up. With
--setup-only it exits there. Otherwise it runs one untimed warm-up pass, then
whole passes until --seconds have gone by, and prints one JSON line.

Usage: python3 perfbench/worker.py --src SRC --workdir DIR --workload NAME
           --seed N --seconds S --trace 0|1 [--setup-only]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main():
    args = parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (part of the program's import cost)

    import lindbladsim
    if not os.path.abspath(lindbladsim.__file__).startswith(os.path.abspath(args.src)):
        sys.exit(f"lindbladsim was imported from {lindbladsim.__file__}, not {args.src}")
    import workloads
    from tracer import SAMPLER, Tracer

    build = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def instrument(tl):
        if tracer is not None:
            tl.sampler = tracer.wrap_callable(tl.sampler, SAMPLER)

    def inputs(index):
        return build(np.random.default_rng([args.seed, index]), args.workdir, instrument)

    if tracer is not None:
        tracer.install("lindbladsim")
    ops = inputs(0)
    print("READY", flush=True)
    if args.setup_only:
        return

    failures = []

    def run_pass(ops):
        """Times every call, then checks every output; returns (seconds, failed)."""
        elapsed, outputs, failed = 0.0, [], 0
        for op in ops:
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = op.call()
            except (lindbladsim.LindbladSimError, workloads.CommandFailed) as ex:
                out = ex
            elapsed += perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                if op.artifact and os.path.exists(op.artifact):
                    tracer.counts["cli.artifact_bytes"] += os.path.getsize(op.artifact)
            outputs.append(out)
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                failed += 1
            else:
                failures.extend(f"{op.label}: {msg}" for msg in op.check(out))
        return elapsed, failed

    run_pass(ops)                     # warm-up: untimed, still checked
    if tracer is not None:
        tracer.take()
    times, layers, attempted, failed = [], [], 0, 0
    index, start = 1, perf_counter()
    while perf_counter() - start < args.seconds or len(times) < 3:
        ops = inputs(index)
        elapsed, n_failed = run_pass(ops)
        times.append(elapsed)
        attempted += len(ops)
        failed += n_failed
        if tracer is not None:
            layers.append(tracer.take())
        index += 1

    result = {
        "pass_s": times,
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(np, scipy),
    }
    if tracer is not None:
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.uninstall()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
