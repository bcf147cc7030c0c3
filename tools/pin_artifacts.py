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

import ctypes
import glob
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


def openblas_core(module, symbol: str) -> str:
    """The kernel core that the OpenBLAS library bundled with module (in its
    wheel's <module>.libs folder) selected on this CPU at load time, read from
    its exported symbol; "unknown" where no bundled library exports it."""
    site = os.path.dirname(os.path.dirname(module.__file__))
    libs = os.path.join(site, f"{module.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        corename = getattr(ctypes.CDLL(path), symbol, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> dict:
    """What the pinned bytes were made with: the machine and CPU model, Python,
    numpy and scipy, the OpenBLAS build each of the two links and the kernel
    core each picked for this CPU at run time (a DYNAMIC_ARCH build picks its
    kernels by the CPU's features, which a generic model name may not tell)."""
    def openblas(module):
        deps = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        return " ".join(deps.get("blas", {}).get("openblas configuration", "unknown").split())

    return {"machine": platform.machine(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numpy_blas": openblas(numpy),
            "numpy_blas_core": openblas_core(numpy, "scipy_openblas_get_corename64_"),
            "scipy": scipy.__version__, "scipy_blas": openblas(scipy),
            "scipy_blas_core": openblas_core(scipy, "scipy_openblas_get_corename")}


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
