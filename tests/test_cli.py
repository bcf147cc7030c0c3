import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lindbladsim.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


def write_rho1(tmp_path):
    path = tmp_path / "rho1.json"
    path.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]]))
    return str(path)


def rho_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_amplitude_damping_decay(tmp_path, capsys):
    rho0 = write_rho1(tmp_path)
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--rho0", rho0, "--time", "1.0", "--eps", "1e-8"], capsys)
    assert code == 0
    out = json.loads(cap.out)
    rho = rho_from_json(out["rho"])
    assert abs(rho[1, 1].real - math.exp(-1.0)) <= 1e-7
    assert out["report"]["eps"] == 1e-8
    assert out["runtime_ms"] == 0.0


def test_simulate_verify_reports_choi_gap(tmp_path, capsys):
    rho0 = write_rho1(tmp_path)
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--rho0", rho0, "--time", "0.8", "--eps", "1e-5",
                         "--verify"], capsys)
    assert code == 0
    rep = json.loads(cap.out)["report"]
    assert rep["measured_choi_lower"] <= 1e-5
    assert rep["measured_choi_lower"] <= rep["measured_choi_upper"]


def test_simulate_verify_rejects_large_register(tmp_path, capsys):
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({"n_qubits": 4,
                                 "hamiltonian": {"pauli_sum": "0.5*ZIII"}}))
    code, cap = run_cli(["simulate", "--model", str(model), "--time", "0.1",
                         "--eps", "1e-4", "--verify"], capsys)
    assert code == 2
    assert "verify" in cap.err


def test_simulate_writes_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--time", "0.5", "--eps", "1e-6", "--out", str(out)], capsys)
    assert code == 0
    assert cap.out == ""
    rho = rho_from_json(json.loads(out.read_text())["rho"])
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-9)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_missing_file(capsys):
    code, cap = run_cli(["simulate", "--model", "missing.json",
                         "--time", "1.0", "--eps", "1e-4"], capsys)
    assert code == 2
    assert "error:" in cap.err


def test_exit_code_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 1, "hamiltonian": [[[0, 0]]]}))
    code, _ = run_cli(["simulate", "--model", str(bad),
                       "--time", "1.0", "--eps", "1e-4"], capsys)
    assert code == 2


def test_exit_code_bad_arguments(capsys):
    code, _ = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                       "--time", "-1.0", "--eps", "1e-4"], capsys)
    assert code == 2
    code, _ = run_cli(["td-simulate", "--model", "models/driven_damped_qubit.json",
                       "--time", "0.5", "--eps", "1e-4", "--order", "3"], capsys)
    assert code == 2


def test_exit_code_infeasible_precision(capsys):
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--time", "1.0", "--eps", "1e-300"], capsys)
    assert code == 3
    assert "error:" in cap.err


def test_exit_code_resource_limits(capsys):
    # K = 18, q = 9: 3,124,550 series nodes; then 8,532,192 sampler calls
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--time", "1.0", "--eps", "1e-26"], capsys)
    assert code == 3
    assert "nodes" in cap.err
    code, cap = run_cli(["td-simulate", "--model", "models/driven_damped_qubit.json",
                         "--time", "10", "--eps", "1e-6"], capsys)
    assert code == 3
    assert "sampler calls" in cap.err


def test_exit_code_static_model_mismatch(capsys):
    code, _ = run_cli(["simulate", "--model", "models/driven_damped_qubit.json",
                       "--time", "0.5", "--eps", "1e-4"], capsys)
    assert code == 2
    code, _ = run_cli(["analyze-error", "--model",
                       "models/driven_damped_qubit.json"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# analyze-error


def test_analyze_error_rows_and_bound(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(["analyze-error", "--model", "models/amplitude_damping.json",
                       "--time", "0.4", "--max-order", "3", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["model", "t", "K", "Kp", "q", "bound_duhamel",
                      "bound_quadrature", "bound_taylor", "choi_lower",
                      "choi_upper", "runtime_ms"]
    assert len(rows) == 3 * 2 * 2
    for row in rows:
        assert row[0] == "amplitude_damping"
        bd, bq, bt = float(row[5]), float(row[6]), float(row[7])
        lower, upper = float(row[8]), float(row[9])
        assert lower <= upper + 1e-15
        # each bound column covers one error source; their sum covers the gap
        assert lower <= bd + bq + bt
        assert float(row[10]) == 0.0


def test_analyze_error_deterministic_across_runs_and_workers(tmp_path, capsys):
    outs = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        path = tmp_path / name
        code, _ = run_cli(["analyze-error", "--random-models", "2",
                           "--seed", "7", "--time", "0.3", "--max-order", "2",
                           "--workers", str(workers), "--out", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_analyze_error_needs_some_model(capsys):
    code, _ = run_cli(["analyze-error"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# other subcommands


def test_quadrature_table(tmp_path, capsys):
    out = tmp_path / "quad.csv"
    code, _ = run_cli(["quadrature", "--max-q", "6", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["q", "t", "ell", "moment_lhs", "moment_rhs", "residual"]
    assert all(float(r[5]) <= 1e-12 for r in rows)


def test_kraus_dump_table(tmp_path, capsys):
    out = tmp_path / "terms.csv"
    code, _ = run_cli(["kraus-dump", "--model", "models/amplitude_damping.json",
                       "--time", "0.5", "--eps", "1e-4", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["term", "k", "jump_path", "node_path", "coefficient",
                      "normalizer"]
    assert rows[0][1] == "0" and rows[0][2] == "" and rows[0][3] == ""
    assert all(float(r[4]) > 0 and float(r[5]) > 0 for r in rows)
    depth_one = [r for r in rows if r[1] == "1"]
    assert depth_one and all(r[2] == "0" for r in depth_one)


def test_kraus_dump_zero_time(tmp_path, capsys):
    # one zero-length segment: only the k = 0 term, the identity, as simulate's
    # zero-time report (kraus_terms = 1) has it
    out = tmp_path / "terms.csv"
    argv = ["kraus-dump", "--model", "models/amplitude_damping.json", "--eps", "1e-4",
            "--out", str(out)]
    code, _ = run_cli(argv + ["--time", "0"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows == [["0", "0", "", "", "1.0", "1.0"]]
    code, _ = run_cli(argv + ["--time", "-0.5"], capsys)
    assert code == 2


def test_primitives_verify_passes(capsys):
    code, cap = run_cli(["primitives-verify"], capsys)
    assert code == 0
    out = json.loads(cap.out)
    assert out["all_pass"] is True
    assert all(v["pass"] for v in out["checks"].values())


def test_td_simulate_driven_model(capsys):
    code, cap = run_cli(["td-simulate", "--model",
                         "models/driven_damped_qubit.json",
                         "--time", "0.3", "--eps", "1e-4"], capsys)
    assert code == 0
    out = json.loads(cap.out)
    rho = rho_from_json(out["rho"])
    assert abs(np.trace(rho).real - 1.0) <= 1e-4
    assert out["report"]["segments"] >= 1
    assert out["dyson"]["grid_points"] >= 1
    assert out["dyson"]["declared_contract"] > 0.0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lindbladsim.cli",
                           "quadrature", "--max-q", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("q,t,ell,")
