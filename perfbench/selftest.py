"""Self-test of the benchmark's checks: each accepts a correct output and rejects
a perturbed one.

Usage (from the root of a checkout): python3 perfbench/selftest.py
Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from lindbladsim import cli, series, timedep  # noqa: E402

results = []


def run_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited with {rc}")


def expect(name, fails, accept):
    ok = (not fails) == accept
    results.append(ok)
    verdict = "accepts" if not fails else f"rejects ({fails[0]})"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")


def static_cases(rng):
    m = workloads.random_model(rng, 1, 1, 0.6, 0.6)
    rho0 = workloads.random_density(rng, 2)
    eps = 1e-4
    rho, report = series.simulate(m.lindbladian(), rho0, 1.0, eps, verify=True)
    ref = checks.exact_state(m.H, m.Ls, rho0, 1.0)
    report = report.as_dict()

    def run(r=report, state=rho):
        return checks.check_static(r, state, ref, eps, m.beta, m.alpha_sq)

    expect("static: simulate output", run(), True)
    kick = np.array([[0, 1], [1, 0]]) * 3 * eps
    expect("static: state moved by 3 eps", run(state=rho + kick), False)
    for key, value in [("normalizer_sum_squares", report["normalizer_sum_squares"] * (1 + 1e-6)),
                       ("bound_duhamel", report["per_segment_eps"]),
                       ("segments", report["segments"] + 1),
                       ("measured_choi_lower", 2 * eps)]:
        bad = dict(report, **{key: value})
        expect(f"static: {key} perturbed", run(r=bad), False)


def timedep_cases(rng):
    sample, tl = workloads.drive_model(rng)
    rho0 = workloads.random_density(rng, 2)
    ref = checks.ode_state(sample, rho0, 1.0)
    rho = timedep.td_simulate(tl, rho0, 1.0, 1e-4)[0]
    expect("timedep: td_simulate output", checks.check_state(rho, ref, 1e-4, "td"), True)
    kick = np.array([[0, 1], [1, 0]]) * 3e-4
    expect("timedep: td_simulate moved", checks.check_state(rho + kick, ref, 1e-4, "td"), False)
    rk = timedep.rk4_reference(tl, rho0, 1.0, 5e-4)
    expect("timedep: rk4_reference output",
           checks.check_state(rk, ref, checks.RK4_TOL, "rk4"), True)
    expect("timedep: rk4_reference moved by 1e-8",
           checks.check_state(rk + kick / 3e4, ref, checks.RK4_TOL, "rk4"), False)


def cli_cases(rng, workdir):
    path = lambda name: os.path.join(workdir, name)
    m = workloads.random_model(rng, 1, 2, 0.5, 0.5)
    workloads.write_model(path("model.json"), m)

    run_cli(["kraus-dump", "--model", path("model.json"), "--time", "0.5",
             "--eps", "1e-3", "--out", path("kraus.csv")])
    rows = workloads.read_csv(path("kraus.csv"))
    run = lambda r: checks.check_kraus_dump(r, [m.jump_norm] * 2, 0.5, m.beta)
    expect("kraus-dump: rows", run(rows), True)
    for key in ("coefficient", "normalizer"):
        bad = copy.deepcopy(rows)
        bad[-1][key] = repr(float(bad[-1][key]) * 1.001)
        expect(f"kraus-dump: one {key} perturbed", run(bad), False)
    expect("kraus-dump: last row dropped", run(rows[:-1]), False)

    run_cli(["analyze-error", "--random-models", "1", "--seed", "3", "--time", "0.3",
             "--max-order", "2", "--out", path("sweep.csv")])
    rows = workloads.read_csv(path("sweep.csv"))
    expect("analyze-error: rows", checks.check_analyze_error(rows), True)
    bad = copy.deepcopy(rows)
    row = bad[-1]
    row["choi_lower"] = repr(1.01 * sum(float(row[key]) for key in
                                        ("bound_duhamel", "bound_quadrature", "bound_taylor")))
    expect("analyze-error: choi_lower above the bounds", checks.check_analyze_error(bad), False)

    run_cli(["quadrature", "--max-q", "4", "--times", "0.3", "5.0", "--out", path("quad.csv")])
    rows = workloads.read_csv(path("quad.csv"))
    expect("quadrature: rows", checks.check_quadrature(rows), True)
    for key, value in (("moment_lhs", float(rows[-1]["moment_lhs"]) * (1 + 1e-9)),
                       ("residual", 1e-9)):
        bad = copy.deepcopy(rows)
        bad[-1][key] = repr(value)
        expect(f"quadrature: {key} perturbed", checks.check_quadrature(bad), False)

    cli.main(["primitives-verify", "--seed", str(workloads.PRIMITIVES_SEED),
              "--out", path("prim.json")])
    obj = workloads.read_json(path("prim.json"))
    expect("primitives-verify: seed with a failing invariant", checks.check_primitives(obj), False)
    good = copy.deepcopy(obj)
    for v in good["checks"].values():
        v["pass"] = True
    good["all_pass"] = True
    expect("primitives-verify: every invariant passing", checks.check_primitives(good), True)
    bad = dict(good, all_pass=False)
    expect("primitives-verify: all_pass false", checks.check_primitives(bad), False)


def main():
    workdir = os.path.join(ROOT, "perfbench-out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        rng = np.random.default_rng(2024)
        static_cases(rng)
        timedep_cases(rng)
        cli_cases(rng, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} expectations met")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
