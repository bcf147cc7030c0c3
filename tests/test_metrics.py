import numpy as np
import pytest

from lindbladsim import (
    ArgumentError,
    CPMapApprox,
    TruncationConfig,
    amplitude_damping,
    choi,
    choi_to_superop,
    cptp_report,
    dag,
    diamond_sandwich,
    exact_channel,
    kraus_superop,
    random_lindbladian,
    taylor_total_bound,
    bound_duhamel,
    bound_quadrature,
    be_norm,
    trace_norm,
)

from fixtures import SX, SZ


def random_superop(rng, d):
    return rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))


def test_choi_identity_channel():
    C = choi(np.eye(4))
    # unnormalized maximally entangled projector, trace d
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0
    np.testing.assert_allclose(C, np.outer(psi, psi), atol=1e-14)
    assert abs(np.trace(C) - 2.0) <= 1e-13


def test_choi_pauli_x_conjugation():
    C = choi(kraus_superop(SX))
    eigs = np.linalg.eigvalsh((C + dag(C)) / 2)
    assert eigs.min() >= -1e-13
    assert abs(np.trace(C) - 2.0) <= 1e-13
    assert np.sum(eigs > 1e-10) == 1


def test_choi_round_trip():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        S = random_superop(rng, d)
        np.testing.assert_allclose(choi_to_superop(choi(S)), S, atol=1e-14)


def test_choi_linearity():
    rng = np.random.default_rng(5)
    S1, S2 = random_superop(rng, 2), random_superop(rng, 2)
    a, b = 0.7, -1.3 + 0.2j
    np.testing.assert_allclose(choi(a * S1 + b * S2),
                               a * choi(S1) + b * choi(S2), atol=1e-13)


def test_trace_norm_identity():
    assert trace_norm(np.eye(4)) == pytest.approx(4.0)


def test_trace_norm_rank_one():
    rng = np.random.default_rng(6)
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    u /= np.linalg.norm(u)
    assert trace_norm(np.outer(u, u.conj())) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_hermitian_matches_eigenvalues():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = (A + dag(A)) / 2
    expected = np.sum(np.abs(np.linalg.eigvalsh(H)))
    assert abs(trace_norm(H) - expected) <= 1e-12


def test_trace_norm_is_a_norm():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A, B = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in "ab")
        assert trace_norm(A + B) <= trace_norm(A) + trace_norm(B) + 1e-12
        c = rng.normal()
        assert abs(trace_norm(c * A) - abs(c) * trace_norm(A)) <= 1e-11


def test_diamond_sandwich_equal_inputs():
    S = kraus_superop(SX)
    lower, upper = diamond_sandwich(S, S)
    assert lower == 0.0 and upper == 0.0


def test_diamond_sandwich_brackets_known_distance():
    # distance between the identity and Z-conjugation channels is exactly 2
    lower, upper = diamond_sandwich(np.eye(4), kraus_superop(SZ))
    assert lower <= 2.0 <= upper
    assert upper == pytest.approx(2 * lower)


def test_diamond_sandwich_ratio_is_dimension():
    rng = np.random.default_rng(9)
    for d in (2, 4):
        lower, upper = diamond_sandwich(random_superop(rng, d), random_superop(rng, d))
        assert upper == pytest.approx(d * lower)


@pytest.mark.parametrize("S, message", [
    (np.eye(4)[:, :3], r"superoperator must be square, got shape \(4, 3\)"),
    (np.eye(3), "superoperator side 3 is not a perfect square"),
], ids=["not-square", "side-not-square"])
def test_choi_rejects_a_matrix_that_is_no_superoperator(S, message):
    with pytest.raises(ArgumentError, match=message):
        choi(S)


def test_diamond_sandwich_rejects_dim_mismatch():
    with pytest.raises(ArgumentError):
        diamond_sandwich(np.eye(4), np.eye(9))


def test_cptp_report_on_exact_channel():
    lind = random_lindbladian(2, num_jumps=2, seed=12)
    rep = cptp_report(exact_channel(lind, 0.9))
    assert rep.min_choi_eigenvalue >= -1e-10
    assert rep.tp_residual <= 1e-10
    assert rep.hermiticity_residual <= 1e-10


def test_cptp_report_on_kraus_approximant():
    lind = amplitude_damping()
    t = 0.4
    cfg = TruncationConfig(series_order=3, taylor_order=6, quadrature_order=3,
                           segment_time=t)
    rep = cptp_report(CPMapApprox(lind, t, cfg).as_superoperator())
    beta = be_norm(lind)
    budget = (bound_duhamel(3, t, beta)
              + sum(bound_quadrature(k, 3, t, beta) for k in (1, 2, 3))
              + taylor_total_bound(6, t, beta))
    assert rep.min_choi_eigenvalue >= -1e-10
    assert rep.tp_residual <= budget


def test_cptp_report_flags_transpose_map():
    d = 2
    T = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            T[j * d + i, i * d + j] = 1.0
    rep = cptp_report(T)
    assert rep.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)
