"""Remake the CLI artifacts and workload outputs and pin them for the tests.

    python tools/pin_artifacts.py

Runs `tools/cli_artifacts.py` and `tools/workload_outputs.py` on this
checkout's `src/`, each in a process of its own (each pins BLAS to one thread
before numpy loads). It writes the sha256 of every file, and the environment
they were made in, to `tests/pinned/digests.json`, and copies the workload
outputs to `tests/pinned/workload_outputs/`. `tests/test_artifacts.py` remakes
them and compares. A change that moves an artifact on purpose runs this and
commits the result in the same diff.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy
import scipy
from ab_bench import cpu_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(ROOT, "tests", "pinned")
TOOLS = ("cli_artifacts", "workload_outputs")


def environment() -> dict:
    """What the pinned bytes were made with: the machine and CPU model (the
    OpenBLAS builds pick their kernels by CPU), Python, numpy and scipy, and
    the OpenBLAS build each of the two links."""
    def openblas(module):
        deps = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        return " ".join(deps.get("blas", {}).get("openblas configuration", "unknown").split())

    return {"machine": platform.machine(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numpy_blas": openblas(numpy), "scipy": scipy.__version__,
            "scipy_blas": openblas(scipy)}


def remake(outdir: str) -> dict[str, dict[str, str]]:
    """Run each tool into outdir/<tool> on this checkout's src/; the sha256 of
    every file written, by tool and file name."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    digests = {}
    for tool in TOOLS:
        out = os.path.join(outdir, tool)
        subprocess.run([sys.executable, os.path.join(ROOT, "tools", f"{tool}.py"), out],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        digests[tool] = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[tool][name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as outdir:
        digests = remake(outdir)
        copies = os.path.join(PINNED, "workload_outputs")
        shutil.rmtree(copies, ignore_errors=True)
        shutil.copytree(os.path.join(outdir, "workload_outputs"), copies)
    with open(os.path.join(PINNED, "digests.json"), "w") as fh:
        json.dump({"environment": environment(), **digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for tool, files in digests.items():
        print(f"{tool}: {len(files)} files pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
