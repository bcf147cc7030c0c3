import csv
import io
import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest

from lindbladsim import cli, load_model, modelio, quadrature, series
from lindbladsim.cli import main

from kraus_reference import per_term_rows


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


def returns_within(fn, seconds):
    """fn(), failing the test instead of hanging when it has not returned in time."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"no return within {seconds} s"
    return out[0]


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


def test_simulate_verify_four_qubits(tmp_path, capsys):
    model, out = tmp_path / "wide.json", tmp_path / "out.json"
    model.write_text(json.dumps({"n_qubits": 4, "hamiltonian": {"pauli_sum": "0.5*ZIII"},
                                 "jumps": [{"pauli_sum": "0.4*XIIY"}]}))
    code, _ = run_cli(["simulate", "--model", str(model), "--time", "1", "--eps", "1e-3",
                       "--verify", "--out", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert 0.0 <= rep["measured_choi_lower"] <= rep["measured_choi_upper"] <= 1e-3


def test_simulate_verify_rejects_large_register(tmp_path, capsys):
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({"n_qubits": 5,
                                 "hamiltonian": {"pauli_sum": "0.5*ZIIII"}}))
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
    # json reads NaN and Infinity: non-finite bounds, knots and states are model errors
    with open("models/driven_damped_qubit.json") as fh:
        driven = json.load(fh)
    knot = json.loads(json.dumps(driven))
    knot["time_dependence"]["hamiltonian"][1][0][0] = [math.nan, 0.0]
    static = {"n_qubits": 1, "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    # an integer too large for a float is a model error naming its field
    huge = 10 ** 400
    times = dict(driven["time_dependence"], times=[huge] + driven["time_dependence"]["times"][1:])
    for command, obj, err in [
            ("simulate", dict(static, hamiltonian=[[[huge, 0], [0, 0]], [[0, 0], [0, 0]]]),
             "hamiltonian: entry (0,0) must be a number within the float range"),
            ("simulate", dict(static, alphas={"hamiltonian": huge}),
             "alphas.hamiltonian must be a number within the float range"),
            ("td-simulate", dict(driven, time_dependence=dict(driven["time_dependence"],
                                                              jdot_bound=huge)),
             "time_dependence.jdot_bound must be a number within the float range"),
            ("td-simulate", dict(driven, time_dependence=times),
             "time_dependence.times[0] must be a number within the float range"),
            ("simulate", dict(static, alphas={"hamiltonian": math.nan}), "declared bounds"),
            ("simulate", dict(static, alphas={"hamiltonian": math.inf}), "declared bounds"),
            # a negative bound fails as a model error, not in the segment budget
            ("simulate", dict(static, alphas={"hamiltonian": -1e-13}),
             "declared bounds must be nonnegative and finite"),
            ("kraus-dump", dict(static, alphas={"hamiltonian": -1e-13}),
             "declared bounds must be nonnegative and finite"),
            ("td-simulate", dict(driven, time_dependence=dict(driven["time_dependence"],
                                                              jdot_bound=math.nan)),
             "declared bounds"),
            ("td-simulate", knot, "time_dependence.hamiltonian[1]: entry (0,0) is not finite"),
            # finite bounds whose squares overflow give beta = inf
            ("simulate", dict(static, jumps=[[[[0, 0], [1e160, 0]], [[0, 0], [0, 0]]]]),
             "overflow the be-norm"),
            ("td-simulate", dict(driven, alphas={"jumps": [1e160]}), "overflow the be-norm"),
            # jumps and their bounds must be lists, not a bare number
            ("simulate", dict(static, jumps=5), "jumps must be a list"),
            ("simulate", dict(static, alphas={"jumps": 5}), "alphas.jumps must be a list"),
            # numbers in strings and booleans are not numbers
            ("simulate", dict(static, jumps=[static["hamiltonian"]],
                              alphas={"hamiltonian": "0.5", "jumps": ["1"]}),
             "alphas.hamiltonian must be a number within the float range"),
            ("simulate", dict(static, jumps=[static["hamiltonian"]], alphas={"jumps": ["1"]}),
             "alphas.jumps[0] must be a number within the float range"),
            ("simulate", {"n_qubits": True, "hamiltonian": [[[True, False], [False, False]],
                                                            [[False, False], [True, False]]]},
             "n_qubits must be a positive integer"),
            ("simulate", dict(static, hamiltonian=[[[True, False], [False, False]],
                                                   [[False, False], [True, False]]]),
             "hamiltonian: entry (0,0) must be a number within the float range")]:
        bad.write_text(json.dumps(obj))
        code, cap = run_cli([command, "--model", str(bad), "--time", "0.5", "--eps", "1e-4"],
                            capsys)
        assert code == 2
        assert err in cap.err
    bad.write_text(json.dumps(dict(static, alphas={"hamiltonian": -1e-13})))
    code, cap = run_cli(["analyze-error", "--model", str(bad)], capsys)
    assert code == 2
    assert "declared bounds must be nonnegative and finite" in cap.err
    rho0 = tmp_path / "rho0.json"
    rho0.write_text(json.dumps([[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--rho0", str(rho0), "--time", "1.0", "--eps", "1e-4"], capsys)
    assert code == 2
    assert "rho0: entry (0,0) is not finite" in cap.err
    rho0.write_text(json.dumps([[[1, huge], [0, 0]], [[0, 0], [0, 0]]]))
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--rho0", str(rho0), "--time", "1.0", "--eps", "1e-4"], capsys)
    assert code == 2
    assert "rho0: entry (0,0) must be a number within the float range" in cap.err
    # bytes that are not UTF-8 are a model error naming the file
    bad.write_bytes(b'{"n_qubits": 1, "hamiltonian": "\xff"}')
    code, cap = run_cli(["simulate", "--model", str(bad), "--time", "1.0", "--eps", "1e-4"],
                        capsys)
    assert code == 2
    assert f"{bad}: invalid JSON" in cap.err


def test_exit_code_bad_arguments(capsys):
    code, _ = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                       "--time", "-1.0", "--eps", "1e-4"], capsys)
    assert code == 2
    code, _ = run_cli(["td-simulate", "--model", "models/driven_damped_qubit.json",
                       "--time", "0.5", "--eps", "1e-4", "--order", "3"], capsys)
    assert code == 2
    code, cap = run_cli(["td-simulate", "--model", "models/driven_damped_qubit.json",
                         "--time", "0.6", "--eps", "1e-2", "--segments", "1"], capsys)
    assert code == 2
    assert "budget minimum n0 = 4" in cap.err
    code, cap = run_cli(["analyze-error", "--random-models", "1", "--workers", "0"], capsys)
    assert code == 2
    assert "--workers must be at least 1, got 0" in cap.err
    for argv in (["primitives-verify", "--seed", "-1"],
                 ["analyze-error", "--random-models", "1", "--seed", "-3"]):
        code, cap = run_cli(argv, capsys)
        assert code == 2
        assert "seed must be an integer >= 0, got -" in cap.err
    # non-finite times and precisions: typed errors, not a traceback or exit 3
    for command, model in [("simulate", "amplitude_damping"), ("kraus-dump", "amplitude_damping"),
                           ("td-simulate", "driven_damped_qubit")]:
        code, cap = run_cli([command, "--model", f"models/{model}.json",
                             "--time", "inf", "--eps", "1e-4"], capsys)
        assert code == 2
        assert "evolution time must be nonnegative and finite, got inf" in cap.err
    for time, eps in [("nan", "1e-4"), ("1.0", "nan")]:
        code, _ = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                           "--time", time, "--eps", eps], capsys)
        assert code == 2
    for command, model in [("simulate", "amplitude_damping"),
                           ("td-simulate", "driven_damped_qubit")]:
        code, cap = run_cli([command, "--model", f"models/{model}.json",
                             "--time", "1.0", "--eps", "inf"], capsys)
        assert code == 2
        assert "target precision must be positive and finite, got inf" in cap.err
    # t^(ell+1) underflows to 0 or overflows: the moment table cannot be formed
    for time in ("1e-300", "1e200"):
        code, cap = run_cli(["quadrature", "--times", time], capsys)
        assert code == 2
        assert f"time {float(time)}:" in cap.err and "outside the float range" in cap.err
    for argv, err in [(["quadrature", "--times", "inf"], "interval length"),
                      (["analyze-error", "--random-models", "1", "--time", "inf"],
                       "evolution time"),
                      (["analyze-error", "--random-models", "1", "--time", "nan"],
                       "evolution time")]:
        code, cap = run_cli(argv, capsys)
        assert code == 2
        assert f"{err} must be" in cap.err and "and finite, got" in cap.err


@pytest.mark.parametrize("argv, err", [
    (["quadrature", "--max-q", "0"], "--max-q must be an integer in [1, 64], got 0"),
    (["quadrature", "--max-q", "-3"], "--max-q must be an integer in [1, 64], got -3"),
    (["quadrature", "--max-q", "65"], "--max-q must be an integer in [1, 64], got 65"),
    (["analyze-error", "--random-models", "1", "--max-order", "0"],
     "--max-order must be an integer in [1, 40], got 0"),
    # the planner's own order cap, series.MAX_SEARCH_ORDER: the job list grew
    # by about 8 KB an order, with no engine guard firing at t = 0
    (["analyze-error", "--random-models", "1", "--time", "0", "--max-order", "41"],
     "--max-order must be an integer in [1, 40], got 41"),
    (["analyze-error", "--model", "models/amplitude_damping.json", "--random-models", "-1"],
     "--random-models must be an integer >= 0, got -1"),
], ids=["max-q-0", "max-q-negative", "max-q-65", "max-order-0", "max-order-41",
        "random-models-negative"])
def test_exit_code_count_options(capsys, monkeypatch, argv, err):
    # refused before any rule, model or exact channel is built
    def unbuilt(*args, **kwargs):
        raise AssertionError("work started before the counts were checked")

    for owner, name in [(cli, "canonical_rule"), (cli.modelio, "load_model"),
                        (cli.models, "random_lindbladian"), (cli.models, "exact_channel")]:
        monkeypatch.setattr(owner, name, unbuilt)
    code, cap = run_cli(argv, capsys)
    assert code == 2
    assert err in cap.err


def test_exit_code_infeasible_precision(capsys):
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--time", "1.0", "--eps", "1e-300"], capsys)
    assert code == 3
    assert "error:" in cap.err


def test_exit_code_resource_limits(capsys):
    # K = 18, q = 9: 3,124,550 series nodes; then at least 5,528,768 sampler
    # calls, counted on each segment's uniform steps before its table is built
    code, cap = run_cli(["simulate", "--model", "models/amplitude_damping.json",
                         "--time", "1.0", "--eps", "1e-26"], capsys)
    assert code == 3
    assert "nodes" in cap.err
    code, cap = run_cli(["td-simulate", "--model", "models/driven_damped_qubit.json",
                         "--time", "100", "--eps", "1e-6"], capsys)
    assert code == 3
    assert "sampler calls" in cap.err


def test_exit_code_huge_be_norm(tmp_path, capsys):
    # a declared bound of 1e13 leaves no segment length within the budget: the
    # run commands exit 3 naming the be-norm; at time 0 kraus-dump still plans one
    model = tmp_path / "huge.json"
    obj = json.loads(open("models/amplitude_damping.json").read())
    model.write_text(json.dumps(dict(obj, alphas={"hamiltonian": 1e13})))
    for command in ("simulate", "td-simulate", "kraus-dump"):
        code, cap = run_cli([command, "--model", str(model), "--time", "1", "--eps", "1e-3"],
                            capsys)
        assert code == 3
        assert "be-norm 10000000000000.5 leaves no segment length" in cap.err
    code, cap = run_cli(["kraus-dump", "--model", str(model), "--time", "0", "--eps", "1e-3"],
                        capsys)
    assert code == 0


def test_exit_code_order_zero_superoperator_bytes(tmp_path, capsys):
    # with no jumps only the order-0 term is left, one d^2 x d^2 superoperator:
    # 16 * 256^4 bytes = 64 GiB at 8 qubits, refused before anything is built
    model = tmp_path / "jumpless.json"
    model.write_text(json.dumps({"n_qubits": 8, "hamiltonian": {"pauli_sum": "1.0*XXXXXXXX"}}))
    for command in ("simulate", "td-simulate"):
        code, cap = run_cli([command, "--model", str(model), "--time", "1", "--eps", "1e-3"],
                            capsys)
        assert code == 3
        assert f"would hold {16 * 256 ** 4} > {2 ** 30} bytes" in cap.err


def test_exit_code_order_zero_bytes_before_any_operator_is_built(tmp_path, capsys, monkeypatch):
    # at 10 qubits the order-0 term alone takes 16 * 1024^4 bytes, which the
    # register fixes: refused before the model's operators are built and their
    # spectral norms taken
    model = tmp_path / "ten.json"
    model.write_text(json.dumps({"n_qubits": 10, "hamiltonian": {"pauli_sum": "1.0*" + "X" * 10},
                                 "jumps": [{"pauli_sum": "0.5*Z" + "I" * 9}]}))

    def unbuilt(self):
        raise AssertionError("operators built before the byte limit was checked")

    monkeypatch.setattr(modelio.ParsedModel, "to_lindbladian", unbuilt)
    monkeypatch.setattr(modelio.ParsedModel, "to_time_dependent", unbuilt)
    for command in ("simulate", "td-simulate"):
        code, cap = run_cli([command, "--model", str(model), "--time", "1", "--eps", "1e-3"],
                            capsys)
        assert code == 3
        assert f"would hold {16 * 1024 ** 4} > {2 ** 30} bytes" in cap.err


def test_exit_code_oversized_pauli_register(tmp_path, capsys):
    # one dense operator on 30 qubits would take 16 * 4^30 bytes
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({"n_qubits": 30, "hamiltonian": {"pauli_sum": "1.0*" + "X" * 30}}))
    for command in ("simulate", "td-simulate", "kraus-dump"):
        code, cap = run_cli([command, "--model", str(model), "--time", "1", "--eps", "1e-3"],
                            capsys)
        assert code == 2
        assert f"dense operator on 30 qubits would take {16 * 4 ** 30} > {2 ** 30}" in cap.err


def test_exit_code_static_model_mismatch(capsys):
    driven = ["--model", "models/driven_damped_qubit.json"]
    for argv in (["simulate"] + driven + ["--time", "0.5", "--eps", "1e-4"],
                 ["kraus-dump"] + driven + ["--time", "0.5", "--eps", "1e-4"],
                 ["analyze-error"] + driven):
        code, cap = run_cli(argv, capsys)
        assert code == 2
        assert "use td-simulate" in cap.err


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


def test_analyze_error_refuses_wide_random_models_before_building_them(capsys, monkeypatch):
    # at 8 qubits the order-0 term alone takes 16 * 256^4 bytes: refused before
    # the random model, its Liouvillian or its exact channel is built
    def unbuilt(*args, **kwargs):
        raise AssertionError("a model was built before the byte limit was checked")

    monkeypatch.setattr(cli.models, "random_lindbladian", unbuilt)
    code, cap = run_cli(["analyze-error", "--random-models", "1", "--n-qubits", "8"], capsys)
    assert code == 3
    assert f"would hold {16 * 256 ** 4} > {2 ** 30} bytes" in cap.err


def test_analyze_error_checks_every_row_before_building_one(capsys, monkeypatch):
    # K = 13, q = 9 is the sweep's first row over the node cap; rows K = 1..12
    # were once built first, about 5 s of work
    def unbuilt(*args, **kwargs):
        raise AssertionError("a row or exact channel was built before the sweep was checked")

    monkeypatch.setattr(series.CPMapApprox, "as_superoperator", unbuilt)
    monkeypatch.setattr(cli.models, "exact_channel", unbuilt)
    code, cap = run_cli(["analyze-error", "--random-models", "1", "--max-order", "20"], capsys)
    assert code == 3
    assert "series engine would build 293930 > 262144 nodes" in cap.err


def test_analyze_error_refuses_wide_model_files_before_building_them(tmp_path, capsys,
                                                                    monkeypatch):
    # at 7 qubits the order-0 term takes 16 * 128^4 bytes: refused before the
    # model's operators are built, at any time, t = 0 included
    model = tmp_path / "seven.json"
    model.write_text(json.dumps({"n_qubits": 7, "hamiltonian": {"pauli_sum": "1.0*" + "X" * 7},
                                 "jumps": [{"pauli_sum": "0.5*Z" + "I" * 6}]}))

    def unbuilt(self):
        raise AssertionError("operators built before the byte limit was checked")

    monkeypatch.setattr(modelio.ParsedModel, "to_lindbladian", unbuilt)
    for time in ("0.3", "0"):
        code, cap = run_cli(["analyze-error", "--model", str(model), "--time", time], capsys)
        assert code == 3
        assert f"would hold {16 * 128 ** 4} > {2 ** 30} bytes" in cap.err


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


def test_kraus_dump_negative_time_names_the_evolution_time(capsys):
    code, cap = run_cli(["kraus-dump", "--model", "models/amplitude_damping.json",
                         "--time", "-1", "--eps", "1e-4"], capsys)
    assert code == 2
    assert "evolution time must be nonnegative" in cap.err


def test_kraus_dump_guard_fires_before_the_file_is_opened(tmp_path, capsys):
    # over TERM_GUARDRAIL = 2^20, so no partial file is left behind; at 2 to
    # 5 us a row, the 2,396,745 terms would be 5 to 12 s of CSV
    out = tmp_path / "terms.csv"
    for time, eps, terms in [("1", "1e-8", 1111111111), ("0.5", "1e-5", 2396745)]:
        code, cap = run_cli(["kraus-dump", "--model", "models/heisenberg_pair.json",
                             "--time", time, "--eps", eps, "--out", str(out)], capsys)
        assert code == 3
        assert f"{terms} > 1048576 terms" in cap.err
        assert not out.exists()


INLINE_MODELS = {
    "three-jumps": {"n_qubits": 1, "hamiltonian": {"pauli_sum": "0.5*Z"},
                    "jumps": [{"pauli_sum": "0.3*X"}, {"pauli_sum": "0.2*Z"},
                              {"pauli_sum": "0.1*Y"}]},
    # two jumps with declared equal alphas, so every jump path of a depth
    # writes the same normalizers
    "equal-alphas": {"n_qubits": 2, "hamiltonian": {"pauli_sum": "0.25*ZI + 0.25*XX"},
                     "jumps": [{"pauli_sum": "0.3*XI + 0.2*IY"}, {"pauli_sum": "0.4*ZZ"}],
                     "alphas": {"hamiltonian": 0.5, "jumps": [0.5, 0.5]}},
}


def reference_kraus_csv(model, t, eps):
    """kraus-dump's table written row by row through csv.writer, from the
    term-by-term reference rows of the planned segment."""
    lind = load_model(model).to_lindbladian()
    cfg = series._plan(lind, t, eps)
    # the read-out keeps the order-0 term alone at zero time or without jumps
    K = cfg.series_order if lind.num_jumps and cfg.segment_time > 0 else 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["term", "k", "jump_path", "node_path", "coefficient", "normalizer"])
    for term, ((k, path, js), c, s) in enumerate(
            per_term_rows(lind, cfg.segment_time, K, cfg.quadrature_order)):
        writer.writerow([term, k, "-".join(map(str, path)), "-".join(map(str, js)), c, s])
    return buf.getvalue()


@pytest.mark.parametrize("chunk_size", [quadrature.CHUNK_SIZE, 5])
@pytest.mark.parametrize("model, time, eps", [
    ("models/amplitude_damping.json", 0.5, 1e-4),
    ("models/heisenberg_pair.json", 0.5, 1e-3),
    ("three-jumps", 0.2, 1e-3),
    ("equal-alphas", 0.5, 1e-3),
    ("models/heisenberg_pair.json", 0.0, 1e-3),
])
@pytest.mark.parametrize("to_file", [True, False])
def test_kraus_dump_matches_a_csv_writer_reference(tmp_path, capsys, monkeypatch, chunk_size,
                                                    model, time, eps, to_file):
    # a chunk size of 5 splits each depth into ragged chunks shared by its jump paths
    monkeypatch.setattr(quadrature, "CHUNK_SIZE", chunk_size)
    if model in INLINE_MODELS:
        spec, model = INLINE_MODELS[model], tmp_path / "model.json"
        model.write_text(json.dumps(spec))
    argv = ["kraus-dump", "--model", str(model), "--time", str(time), "--eps", str(eps)]
    out = tmp_path / "terms.csv"
    code, cap = run_cli(argv + (["--out", str(out)] if to_file else []), capsys)
    assert code == 0
    written = out.read_bytes().decode() if to_file else cap.out
    assert written == reference_kraus_csv(str(model), time, eps)


@pytest.mark.parametrize("alpha0, jumps", [(1e-5, []), (1e-8, []), (1e-310, []),
                                           (1e-6, [1e-4])])
def test_weakly_coupled_models_run(tmp_path, capsys, alpha0, jumps):
    # a budget root above 2^13, or a bracket 1/beta that overflows, once made
    # the segment-time bisection loop forever
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    model = tmp_path / "weak.json"
    model.write_text(json.dumps({
        "n_qubits": 1, "hamiltonian": zero,
        "jumps": [[[[0.0, 0.0], [0.0, 0.0]], [[a, 0.0], [0.0, 0.0]]] for a in jumps],
        "alphas": {"hamiltonian": alpha0, "jumps": jumps}}))
    argv = ["--model", str(model), "--time", "1", "--eps", "1e-3"]
    assert returns_within(lambda: main(["simulate"] + argv), 60) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["segments"] == 1 and report["segment_time"] == 1.0
    assert returns_within(lambda: main(["kraus-dump"] + argv), 60) == 0
    assert capsys.readouterr().out.startswith("term,k,jump_path,node_path,coefficient,normalizer\n"
                                              "0,0,,,1.0,")


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
