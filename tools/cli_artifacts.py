"""Write a fixed set of CLI artifacts into OUTDIR, running the CLI in-process.

    PYTHONPATH=src python tools/cli_artifacts.py OUTDIR

Artifacts are bitwise deterministic, so two checkouts can be compared with
one `diff -r` of their output directories. lindbladsim is imported from the
path, so point PYTHONPATH at the checkout under test; model files are read
from this checkout's `models/`. BLAS runs on one thread, as in the benchmark,
since threading can move last bits.
"""
from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy loads, as perfbench/run.py runs the benchmark
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from lindbladsim import cli  # noqa: E402

MODELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "models")

RUNS = [
    ("kraus-amplitude-t0.5-eps1e-4.csv",
     ["kraus-dump", "--model", "amplitude_damping.json", "--time", "0.5", "--eps", "1e-4"]),
    ("kraus-amplitude-t3-eps1e-6.csv",
     ["kraus-dump", "--model", "amplitude_damping.json", "--time", "3", "--eps", "1e-6"]),
    ("kraus-amplitude-t0.csv",
     ["kraus-dump", "--model", "amplitude_damping.json", "--time", "0", "--eps", "1e-4"]),
    ("kraus-heisenberg-t0.5-eps1e-3.csv",
     ["kraus-dump", "--model", "heisenberg_pair.json", "--time", "0.5", "--eps", "1e-3"]),
    # 55,987 rows over 2 jumps, the shape of the benchmark's read-out
    ("kraus-heisenberg-t0.5-eps1e-4.csv",
     ["kraus-dump", "--model", "heisenberg_pair.json", "--time", "0.5", "--eps", "1e-4"]),
    ("simulate-verify.json",
     ["simulate", "--model", "amplitude_damping.json", "--time", "1", "--eps", "1e-4",
      "--verify"]),
    # d = 8 at K = 9, q = 5: series levels of up to 495 parents, many chunks each
    ("simulate-ising3-verify.json",
     ["simulate", "--model", "ising_chain3.json", "--time", "1", "--eps", "1e-6", "--verify"]),
    ("analyze-error.csv",
     ["analyze-error", "--random-models", "2", "--seed", "7", "--time", "0.3",
      "--max-order", "3"]),
    ("quadrature.csv", ["quadrature", "--max-q", "8"]),
] + [
    (f"primitives-seed{seed}.json", ["primitives-verify", "--seed", str(seed)])
    for seed in range(6)
] + [
    ("td-simulate-driven.json",
     ["td-simulate", "--model", "driven_damped_qubit.json", "--time", "0.3", "--eps", "1e-4"]),
    ("td-simulate-driven-segments4.json",
     ["td-simulate", "--model", "driven_damped_qubit.json", "--time", "0.3", "--eps", "1e-4",
      "--segments", "4", "--order", "3", "--grid", "8"]),
    # both jumps tabulated in time, so the jumps are read at the series nodes
    ("td-simulate-ramped-decay.json",
     ["td-simulate", "--model", "ramped_decay_qubit.json", "--time", "0.8", "--eps", "1e-4"]),
    # no segment: the declared contract is dyson_contract at delta = 0
    ("td-simulate-driven-t0.json",
     ["td-simulate", "--model", "driven_damped_qubit.json", "--time", "0", "--eps", "1e-4"]),
    # a static model file, sampled through timedep.from_static
    ("td-simulate-amplitude.json",
     ["td-simulate", "--model", "amplitude_damping.json", "--time", "1", "--eps", "1e-4"]),
    # a default grid count M of 366 uniform steps a segment; every other artifact
    # and benchmark workload runs at M <= 256
    ("td-simulate-driven-eps1e-8.json",
     ["td-simulate", "--model", "driven_damped_qubit.json", "--time", "1", "--eps", "1e-8"]),
]


def main(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    failed = 0
    for name, argv in RUNS:
        argv = [os.path.join(MODELS, a) if a.endswith(".json") else a for a in argv]
        code = cli.main(argv + ["--out", os.path.join(outdir, name)])
        print(f"{name}: exit {code}")
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
