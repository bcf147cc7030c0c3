"""Time a parent checkout's engine against this one's, alternating in one process.

    python tools/ab_inproc.py PARENT_SRC [--rounds N]

PARENT_SRC is the directory that holds the parent's `lindbladsim` package (its
checkout's `src`). That package and this checkout's are each loaded under a
name of their own, so both run side by side in this process. The ops of
every workload, `cli-batch`'s in-process `cli.main` calls included, are built
for each side from this checkout's `perfbench/workloads.py`, with the inputs of
the benchmark's first pass on seed 1, so both sides get the same inputs; each
side writes its files into a directory of its own. Each round runs every op
once on each side, one side right after the other, and the side that goes
first flips from round to round. Per op it prints the median ratio of this
checkout's time to the parent's, the rounds this checkout won (ties count for
neither), the two-sided sign-test p-value of those wins, and whether the two
sides' first outputs are bitwise equal, or else their largest absolute
difference; for an op that writes an artifact file, whether the two sides'
files are byte for byte equal. Then per workload it prints the same three
figures for the op times summed over each round. BLAS runs on one thread, as
in the benchmark. Host drift moves both sides of a round alike, so this
separates changes of a few percent that `tools/ab_bench.py`'s separate
processes cannot; setup time and peak memory still need those.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import os
import statistics
import sys
import tempfile
import time

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as perfbench/run.py runs the workloads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
import numpy as np  # noqa: E402
from ab_bench import environment  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
NAMES = ("static-deep", "static-wide", "timedep-drive", "cli-batch")


def load_package(name: str, src: str):
    """The lindbladsim package under src, imported as name, with its cli."""
    pkg_dir = os.path.join(src, "lindbladsim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")  # workloads.py imports it; __init__ does not
    return pkg


def build_ops(pkg, workdir: str) -> list:
    """(workload, op) for every op of NAMES, from perfbench/workloads.py loaded
    with lindbladsim bound to pkg."""
    if PERFBENCH not in sys.path:  # workloads.py imports checks.py beside it
        sys.path.insert(0, PERFBENCH)
    saved = sys.modules.get("lindbladsim")
    sys.modules["lindbladsim"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{pkg.__name__}", os.path.join(PERFBENCH, "workloads.py"))
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["lindbladsim"]
        else:
            sys.modules["lindbladsim"] = saved
    return [(name, op) for name in NAMES
            for op in workloads.WORKLOADS[name](np.random.default_rng([1, 0]), workdir,
                                                lambda tl: None)]


def arrays(out) -> list:
    """The state of one op's output, and its report's values where it has one."""
    if isinstance(out, tuple):
        rho, report = out
        values = [math.nan if v is None else v for v in report.as_dict().values()]
        return [np.asarray(rho), np.array(values, dtype=float)]
    return [np.asarray(out)]


def difference(a, b) -> float | None:
    """None when two outputs are bitwise equal, else their largest absolute
    difference (inf where their shapes or artifact bytes differ)."""
    if isinstance(a, bytes):
        return None if a == b else math.inf
    pairs = list(zip(arrays(a), arrays(b), strict=True))
    if all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs):
        return None
    return max(float(np.nanmax(np.abs(x - y))) if x.shape == y.shape else math.inf
               for x, y in pairs)


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def summary(parent: list, change: list) -> dict:
    """ratio (median of change / parent over rounds), wins, rounds and p of two
    sides' per-round times."""
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    return {"ratio": statistics.median([c / p for p, c in zip(parent, change)]),
            "wins": wins, "rounds": len(parent), "p": sign_test(wins, losses)}


def compare(parent_src: str, rounds: int, labels=None) -> list[dict]:
    """One result per op (all of NAMES, or those whose label is in labels):
    workload, label, the summary of its times, their times per side, artifact
    (whether it writes a file) and difference (None when its first outputs, or
    for an artifact op its files, are bitwise equal)."""
    sides = {"parent": load_package("ab_parent", parent_src),
             "change": load_package("ab_change", os.path.join(ROOT, "src"))}
    ops, times, first = {}, {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for side, pkg in sides.items():
            os.mkdir(os.path.join(workdir, side))
            ops[side] = [(name, op) for name, op
                         in build_ops(pkg, os.path.join(workdir, side))
                         if labels is None or op.label in labels]
            times[side] = [[] for _ in ops[side]]
        for r in range(rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for i in range(len(ops["change"])):
                for side in order:
                    op = ops[side][i][1]
                    start = time.perf_counter()
                    out = op.call()
                    times[side][i].append(time.perf_counter() - start)
                    if (side, i) not in first:
                        if op.artifact is not None:
                            with open(op.artifact, "rb") as fh:
                                out = fh.read()
                        first[side, i] = out
    return [{"workload": name, "label": op.label,
             **summary(times["parent"][i], times["change"][i]),
             "times": {side: times[side][i] for side in sides},
             "artifact": op.artifact is not None,
             "difference": difference(first["parent", i], first["change", i])}
            for i, (name, op) in enumerate(ops["change"])]


def totals(results: list[dict]) -> dict:
    """Per workload, the summary of its ops' times summed over each round."""
    sums = {}
    for res in results:
        per_side = sums.setdefault(res["workload"], {})
        for side, ts in res["times"].items():
            per_side[side] = [a + b for a, b in zip(per_side.get(side, [0.0] * len(ts)), ts)]
    return {name: summary(per_side["parent"], per_side["change"])
            for name, per_side in sums.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args()
    print(environment(), flush=True)
    results = compare(args.parent_src, args.rounds)
    for res in results:
        diff = res["difference"]
        if res["artifact"]:
            outputs = "artifacts " + ("byte-equal" if diff is None else "differ")
        else:
            outputs = "outputs " + ("bitwise equal" if diff is None
                                    else f"differ by up to {diff:.3g}")
        print(f"{res['workload']} {res['label']}: ratio {res['ratio']:.4f} "
              f"wins {res['wins']}/{res['rounds']} p {res['p']:.3g} {outputs}", flush=True)
    for name, res in totals(results).items():
        print(f"{name} total: ratio {res['ratio']:.4f} wins {res['wins']}/{res['rounds']} "
              f"p {res['p']:.3g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
