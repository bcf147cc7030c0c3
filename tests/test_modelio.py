import bisect
import json
import math

import numpy as np
import pytest

from lindbladsim import (
    ModelError,
    load_density,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)
from lindbladsim.linalg import spectral_norm
from lindbladsim.modelio import matrix_from_json, matrix_to_json

from fixtures import SM, SZ


def m2j(mat):
    return matrix_to_json(np.asarray(mat, dtype=complex))


def static_model_obj():
    return {
        "n_qubits": 1,
        "hamiltonian": {"pauli_sum": "0.5*Z"},
        "jumps": [m2j(math.sqrt(0.3) * SM)],
    }


def driven_model_obj():
    return {
        "n_qubits": 1,
        "hamiltonian": m2j(0.5 * SZ),
        "jumps": [m2j(0.6 * SM)],
        "time_dependence": {
            "times": [0.0, 1.0],
            "hamiltonian": [m2j(0.5 * SZ), m2j(SZ)],
            "jumps": [[m2j(0.6 * SM), m2j(0.8 * SM)]],
        },
    }


# ---------------------------------------------------------------------------
# matrices


def test_matrix_json_round_trip():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(A), 4, "x"), A)


def test_matrix_from_json_validation():
    good = m2j(SZ)
    with pytest.raises(ModelError):
        matrix_from_json(good, 4, "x")
    with pytest.raises(ModelError):
        matrix_from_json([good[0]], 2, "x")
    with pytest.raises(ModelError):
        matrix_from_json([[[1.0, 0.0]], good[1]], 2, "x")
    with pytest.raises(ModelError):
        matrix_from_json([[[1.0], [0.0, 0.0]], good[1]], 2, "x")
    with pytest.raises(ModelError):
        matrix_from_json([[["a", 0.0], [0.0, 0.0]], good[1]], 2, "x")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match=r"x: entry \(1,0\) is not finite"):
            matrix_from_json([good[0], [[0.0, bad], [0.0, 0.0]]], 2, "x")


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_static_model():
    pm = parse_model(static_model_obj())
    assert not pm.is_time_dependent
    lind = pm.to_lindbladian()
    np.testing.assert_allclose(lind.hamiltonian, 0.5 * SZ, atol=1e-15)
    assert lind.alpha0 == pytest.approx(0.5)
    assert lind.alphas[0] == pytest.approx(math.sqrt(0.3))


def test_serialize_parse_idempotent():
    for obj in (static_model_obj(), driven_model_obj()):
        once = serialize_model(parse_model(obj))
        twice = serialize_model(parse_model(once))
        assert once == twice


def test_declared_alphas_override_derived():
    obj = static_model_obj()
    obj["alphas"] = {"hamiltonian": 2.0, "jumps": [1.5]}
    lind = parse_model(obj).to_lindbladian()
    assert lind.alpha0 == 2.0
    assert lind.alphas == (1.5,)


def test_unknown_fields_rejected():
    obj = static_model_obj()
    obj["comment"] = "hello"
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = static_model_obj()
    obj["alphas"] = {"hamiltonian": 1.0, "extra": 2.0}
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["stride"] = 3
    with pytest.raises(ModelError):
        parse_model(obj)
    with pytest.raises(ModelError):
        parse_model({"n_qubits": 1, "hamiltonian": {"matrix": m2j(SZ)}})


def test_structural_validation():
    with pytest.raises(ModelError):
        parse_model([])
    with pytest.raises(ModelError):
        parse_model({"n_qubits": 0, "hamiltonian": m2j(SZ)})
    with pytest.raises(ModelError):
        parse_model({"n_qubits": 1})
    obj = static_model_obj()
    obj["alphas"] = {"jumps": [1.0, 2.0]}
    with pytest.raises(ModelError):
        parse_model(obj)


def test_table_validation():
    obj = driven_model_obj()
    obj["time_dependence"]["times"] = [0.0]
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["times"] = [0.0, 0.0]
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["hamiltonian"] = [m2j(SZ)]
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    del obj["time_dependence"]["hamiltonian"]
    del obj["time_dependence"]["jumps"]
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["jdot_bound"] = -1.0
    with pytest.raises(ModelError):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"] = [0.0, 1.0]
    with pytest.raises(ModelError, match="time_dependence must be an object"):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["jumps"].append(obj["time_dependence"]["jumps"][0])
    with pytest.raises(ModelError, match="time_dependence.jumps must have one table per jump"):
        parse_model(obj)
    obj = driven_model_obj()
    del obj["time_dependence"]["jumps"][0][1]
    with pytest.raises(ModelError, match=r"time_dependence.jumps\[0\] must have one matrix per time"):
        parse_model(obj)
    obj = driven_model_obj()
    obj["time_dependence"]["jumps"][0][1][0][1] = [math.nan, 0.0]
    with pytest.raises(ModelError, match=r"time_dependence.jumps\[0\]\[1\]: entry \(0,1\)"):
        parse_model(obj)


# ---------------------------------------------------------------------------
# time dependence


def test_interpolation_clamps_outside_table():
    pm = parse_model(driven_model_obj())
    tl = pm.to_time_dependent()
    Hlo, _ = tl.sample(-5.0)
    Hhi, _ = tl.sample(5.0)
    Hmid, Ls = tl.sample(0.5)
    np.testing.assert_allclose(Hlo, 0.5 * SZ, atol=1e-15)
    np.testing.assert_allclose(Hhi, SZ, atol=1e-15)
    np.testing.assert_allclose(Hmid, 0.75 * SZ, atol=1e-15)
    np.testing.assert_allclose(Ls[0], 0.7 * SM, atol=1e-15)


def pointwise_lerp(times, knots, t):
    # the table interpolation as a sampler once made it, one time per call
    if t <= times[0]:
        return knots[0]
    if t >= times[-1]:
        return knots[-1]
    i = bisect.bisect_right(times, t) - 1
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return knots[i] + frac * (knots[i + 1] - knots[i])


@pytest.mark.parametrize("path", ["models/driven_damped_qubit.json",
                                  "models/ramped_decay_qubit.json"])
def test_batched_table_sampler_matches_the_pointwise_lerp(path):
    # at the knots, mid-panel, off-center, before the first knot and after the
    # last, and at random times, bit for bit; a constant operator is its matrix
    pm = load_model(path)
    tb = pm.table
    ts = np.array(tb.times)
    times = np.concatenate([ts, (ts[:-1] + ts[1:]) / 2, ts[:-1] + 0.3 * np.diff(ts),
                            [ts[0] - 1.0, ts[0] - 1e-12, ts[-1] + 1e-12, ts[-1] + 2.0],
                            np.random.default_rng(3).uniform(ts[0] - 0.5, ts[-1] + 0.5, 40)])
    H, L = pm.to_time_dependent().sampler(times)
    constant = (pm.hamiltonian.matrix(), np.array([j.matrix() for j in pm.jumps]))
    assert (tb.hamiltonians is None) != (tb.jumps is None)
    for stack, knots, const in ((H, tb.hamiltonians, constant[0]), (L, tb.jumps, constant[1])):
        for b, t in enumerate(times.tolist()):
            ref = const if knots is None else pointwise_lerp(tb.times, tuple(knots), t)
            np.testing.assert_array_equal(stack[b], ref)


def test_derived_table_bounds():
    tl = parse_model(driven_model_obj()).to_time_dependent()
    assert tl.alpha0 == pytest.approx(1.0)
    assert tl.alphas[0] == pytest.approx(0.8)
    # slope bound: ||dH/dt|| + ||dL/dt|| max ||L|| over the single panel
    assert tl.jdot_bound == pytest.approx(0.5 + 0.2 * 0.8, rel=1e-12)


@pytest.mark.parametrize("m, N, tabulated", [
    (1, 2, "both"), (3, 5, "jumps"), (2, 4, "hamiltonian"), (7, 2, "both"), (9, 3, "both"),
])
def test_derived_table_bounds_match_the_per_knot_norms(m, N, tabulated):
    # the batched bounds against every knot and panel norm taken on its own,
    # each panel's slope summed H first, then the jumps in order, bit for bit
    rng = np.random.default_rng(10 * m + N)

    def mat(herm=False):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return (A + A.conj().T) / 2 if herm else A

    times = np.cumsum(rng.uniform(0.1, 1.0, N)).tolist()
    H0, L0 = mat(True), [mat() for _ in range(m)]
    Hs = [mat(True) for _ in range(N)] if tabulated != "jumps" else None
    Ls = [[mat() for _ in range(N)] for _ in range(m)] if tabulated != "hamiltonian" else None
    td = {"times": times}
    if Hs:
        td["hamiltonian"] = [m2j(H) for H in Hs]
    if Ls:
        td["jumps"] = [[m2j(L) for L in col] for col in Ls]
    tl = parse_model({"n_qubits": 1, "hamiltonian": m2j(H0), "jumps": [m2j(L) for L in L0],
                      "time_dependence": td}).to_time_dependent()
    knots = [[spectral_norm(L) for L in col] for col in (Ls or [[L] for L in L0])]
    jdot = 0.0
    for i in range(N - 1):
        dt = times[i + 1] - times[i]
        slope = 0.0
        if Hs:
            slope += spectral_norm(Hs[i + 1] - Hs[i]) / dt
        for col, norms in zip(Ls or [], knots):
            slope += spectral_norm(col[i + 1] - col[i]) / dt * max(norms[i], norms[i + 1])
        jdot = max(jdot, slope)
    assert tl.alpha0 == max(spectral_norm(H) for H in (Hs or [H0]))
    assert tl.alphas == tuple(max(norms) for norms in knots)
    assert tl.jdot_bound == jdot


def test_declared_table_bounds_override_derived():
    obj = driven_model_obj()
    obj["alphas"] = {"hamiltonian": 3.0, "jumps": [2.0]}
    obj["time_dependence"]["jdot_bound"] = 9.0
    tl = parse_model(obj).to_time_dependent()
    assert tl.alpha0 == 3.0
    assert tl.alphas == (2.0,)
    assert tl.jdot_bound == 9.0


def test_static_model_as_constant_sampler():
    tl = parse_model(static_model_obj()).to_time_dependent()
    assert tl.jdot_bound == 0.0
    H, Ls = tl.sample(0.7)
    np.testing.assert_allclose(H, 0.5 * SZ, atol=1e-15)
    np.testing.assert_allclose(Ls[0], math.sqrt(0.3) * SM, atol=1e-15)


def test_time_dependent_model_refuses_static_conversion():
    with pytest.raises(ModelError):
        parse_model(driven_model_obj()).to_lindbladian()


# ---------------------------------------------------------------------------
# files


def test_save_load_round_trip(tmp_path):
    pm = parse_model(driven_model_obj())
    path = tmp_path / "model.json"
    save_model(pm, path)
    again = load_model(path)
    assert serialize_model(again) == serialize_model(pm)
    # declared bounds, the model's and the table's, are saved and read back
    obj = driven_model_obj()
    obj["alphas"] = {"hamiltonian": 3.0, "jumps": [2.0]}
    obj["time_dependence"]["jdot_bound"] = 9.0
    save_model(parse_model(obj), path)
    again = load_model(path)
    assert serialize_model(again) == obj
    tl = again.to_time_dependent()
    assert (tl.alpha0, tl.alphas, tl.jdot_bound) == (3.0, (2.0,), 9.0)


def test_bundled_models_load():
    for name in ("amplitude_damping", "heisenberg_pair", "driven_damped_qubit",
                 "ramped_decay_qubit"):
        pm = load_model(f"models/{name}.json")
        tl = pm.to_time_dependent()
        assert tl.dim == 2 ** pm.n_qubits


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(path)


def test_load_density_forms(tmp_path):
    rho = np.array([[0.25, 0.0], [0.0, 0.75]])
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(m2j(rho)))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"rho0": m2j(rho)}))
    for path in (bare, wrapped):
        np.testing.assert_array_equal(load_density(path, 2), rho)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"state": m2j(rho)}))
    with pytest.raises(ModelError):
        load_density(bad, 2)
