"""Write the output of every benchmark operation of the API workloads into OUTDIR.

    PYTHONPATH=src python tools/workload_outputs.py OUTDIR

Runs the first pass of `static-deep`, `static-wide` and `timedep-drive` from
`perfbench/workloads.py` on seeds 1 and 2, with the inputs the benchmark
builds for them. Each state is written as `<workload>-seed<N>-<label>.npy`
and each report as sorted-key JSON beside it, so two checkouts can be
compared bit for bit with one `diff -r` of their output directories.
lindbladsim is imported from the path, so point PYTHONPATH at the checkout
under test; the workloads are read from this checkout's `perfbench/`. BLAS
runs on one thread, as in the benchmark, since threading can move last bits.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

# one BLAS thread, set before numpy loads, as perfbench/run.py runs the workloads
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402

NAMES = ("static-deep", "static-wide", "timedep-drive")
SEEDS = (1, 2)


def main(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    for name in NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                # the benchmark's first pass draws from default_rng([seed, 0])
                ops = workloads.WORKLOADS[name](np.random.default_rng([seed, 0]), workdir,
                                                lambda tl: None)
                for op in ops:
                    stem = os.path.join(outdir, f"{name}-seed{seed}-{op.label}")
                    out = op.call()
                    if isinstance(out, tuple):
                        out, report = out
                        with open(stem + ".json", "w") as fh:
                            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                            fh.write("\n")
                    np.save(stem + ".npy", out)
                    print(f"{os.path.basename(stem)}: written")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
