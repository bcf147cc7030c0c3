import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from lindbladsim import (
    ArgumentError,
    CPMapApprox,
    ContractError,
    amplitude_damping,
    be_norm,
    channel_projectors,
    choose_orders,
    dag,
    dilate,
    dilute,
    effective_generator,
    extend_with_ancilla,
    lcu_channel,
    lcu_sum,
    mu_coefficients,
    oaa_step,
    segment_time,
    spectral_norm,
    verification_matrix,
)

from lindbladsim.primitives import _pad_pow2, _select_unitary

from fixtures import SX, SZ
from series_reference import taylor_drift


def unitarity_residual(U):
    return spectral_norm(dag(U) @ U - np.eye(U.shape[0]))


def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def budgeted_family(eps=1e-2):
    lind = amplitude_damping(1.0)
    seg = segment_time(lind)
    cfg = choose_orders(lind, seg, eps)
    cp = CPMapApprox(lind, seg, cfg)
    return cp, list(cp.iter_terms())


# ---------------------------------------------------------------------------
# dilate


def test_dilate_scalar_closed_form():
    enc = dilate(np.array([[0.5]]), 1.0)
    expected = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    np.testing.assert_allclose(enc.unitary, expected, atol=1e-15)


def test_dilate_unitary_exact_block():
    enc = dilate(SX, 1.0)
    np.testing.assert_allclose(enc.block(), SX, atol=1e-14)
    assert unitarity_residual(enc.unitary) <= 1e-12


def test_dilate_random_extraction():
    rng = np.random.default_rng(1)
    for d in (2, 4):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        enc = dilate(A, spectral_norm(A))
        assert unitarity_residual(enc.unitary) <= 1e-11
        assert enc.extraction_error() <= 1e-12


def random_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_dilate_diagonal_blocks_are_the_scaled_target_bitwise():
    rng = np.random.default_rng(3)
    for d in (1, 2, 4):
        A = random_operator(rng, d)
        alpha = 1.5 * spectral_norm(A)
        U = dilate(A, alpha).unitary
        assert U.dtype == complex and U.shape == (2 * d, 2 * d)
        assert U[:d, :d].tobytes() == (A / alpha).tobytes()
        assert U[d:, d:].tobytes() == (-dag(A / alpha)).tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("count", [1, 3, 4, 5])
def test_select_unitary_matches_block_diag_bitwise(count, n_qubits):
    # each unitary on the diagonal, then the identity on each padding slot
    rng = np.random.default_rng([count, n_qubits])
    d = 2 ** n_qubits
    encs = [dilate(A, spectral_norm(A)) for A in (random_operator(rng, d) for _ in range(count))]
    Mp = _pad_pow2(count)
    ref = block_diag(*[e.unitary for e in encs],
                     *[np.eye(2 * d, dtype=complex)] * (Mp - count))
    sel = _select_unitary(encs, Mp)
    assert (sel.dtype, sel.shape) == (ref.dtype, ref.shape) == (complex, (2 * d * Mp,) * 2)
    assert sel.tobytes() == ref.tobytes()


def test_dilate_rejects_oversized_target():
    with pytest.raises(ArgumentError):
        dilate(2.0 * SX, 1.0)
    with pytest.raises(ArgumentError):
        dilate(SX, 0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_dilate_rejects_non_finite_normalizer(alpha):
    with pytest.raises(ArgumentError, match="normalizer must be positive and finite"):
        dilate(SX, alpha)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_dilate_rejects_non_finite_target(entry):
    with pytest.raises(ArgumentError, match="A must be finite"):
        dilate(np.array([[entry, 0.0], [0.0, 0.5]]), 1.0)


# ---------------------------------------------------------------------------
# lcu_sum


def test_lcu_sum_single_term():
    enc = dilate(SX, 1.0)
    combo = lcu_sum([enc], [1.0])
    np.testing.assert_allclose(combo.block(), SX, atol=1e-12)
    assert combo.alpha == pytest.approx(1.0)


def test_lcu_sum_pauli_pair():
    combo = lcu_sum([dilate(SX, 1.0), dilate(SZ, 1.0)], [1.0, 1.0])
    assert combo.alpha == pytest.approx(2.0)
    assert spectral_norm((SX + SZ) - combo.block()) <= 1e-12
    assert unitarity_residual(combo.unitary) <= 1e-11


def test_lcu_sum_taylor_normalizer():
    # assembling the Taylor drift from powers of J keeps the normalizer
    # below e^{beta t}
    lind = amplitude_damping()
    J = effective_generator(lind)
    beta = be_norm(lind)
    t, Kp = 0.4, 5
    encs, y = [], []
    for ell in range(Kp + 1):
        P = np.linalg.matrix_power(J, ell)
        nrm = max(spectral_norm(P), 1e-30)
        encs.append(dilate(P, nrm))
        y.append(t**ell / math.factorial(ell))
    combo = lcu_sum(encs, y)
    assert combo.alpha <= math.exp(beta * t) + 1e-12
    assert spectral_norm(combo.block() - taylor_drift(lind, t, Kp)) <= 1e-11


def test_lcu_sum_rejects_mismatched_registers():
    small = dilate(SX, 1.0)
    big = lcu_sum([dilate(SX, 1.0), dilate(SZ, 1.0)], [1.0, 1.0])
    with pytest.raises(ArgumentError):
        lcu_sum([small, big], [1.0, 1.0])
    with pytest.raises(ArgumentError):
        lcu_sum([small], [1.0, 2.0])
    with pytest.raises(ArgumentError):
        lcu_sum([small], [-1.0])
    with pytest.raises(ArgumentError, match="lcu_sum needs at least one encoding"):
        lcu_sum([], [])
    with pytest.raises(ArgumentError, match="total normalizer must be positive"):
        lcu_sum([small], [0.0])


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_lcu_sum_rejects_non_finite_coefficient(c):
    with pytest.raises(ArgumentError, match="coefficient must be nonnegative and finite"):
        lcu_sum([dilate(SX, 1.0)], [c])


# ---------------------------------------------------------------------------
# lcu_channel


def test_lcu_channel_identity_kraus():
    rng = np.random.default_rng(2)
    psi = random_state(rng, 2)
    app = lcu_channel([dilate(np.eye(2, dtype=complex), 1.0)], psi)
    assert app.success_amplitude == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(app.branch[0], psi, atol=1e-12)


def test_lcu_channel_trace_preserving_pair():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 2)
    half = 1.0 / math.sqrt(2.0)
    app = lcu_channel([dilate(half * np.eye(2, dtype=complex), half),
                       dilate(half * SX, half)], psi)
    expected = np.stack([half * psi, half * (SX @ psi)])
    np.testing.assert_allclose(app.branch, expected, atol=1e-12)
    assert app.success_amplitude == pytest.approx(1.0, abs=1e-12)


def test_lcu_channel_budgeted_success_probability():
    rng = np.random.default_rng(4)
    psi = random_state(rng, 2)
    _, terms = budgeted_family()
    encs = [dilate(term.operator, term.normalizer) for term in terms]
    app = lcu_channel(encs, psi)
    assert app.success_amplitude**2 >= 0.25


def test_lcu_channel_residual_contract():
    # injected encoding error eps must keep the branch within m eps / sqrt(sum s^2)
    rng = np.random.default_rng(5)
    psi = random_state(rng, 2)
    _, terms = budgeted_family()
    for eps in (0.0, 1e-8, 1e-6):
        encs = []
        for term in terms:
            Aj = term.operator
            G = np.zeros((2, 2), dtype=complex)
            if eps > 0.0:
                G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                G *= eps / spectral_norm(G)
            e = dilate(Aj + G, term.normalizer)
            encs.append(replace(e, target=Aj, epsilon=eps))
        app = lcu_channel(encs, psi)
        assert app.residual <= app.residual_bound + 1e-13


def test_lcu_channel_matches_kraus_application():
    rng = np.random.default_rng(6)
    psi = random_state(rng, 2)
    cp, terms = budgeted_family()
    app = lcu_channel([dilate(t.operator, t.normalizer) for t in terms], psi)
    rho_cp = cp.apply(np.outer(psi, psi.conj()))
    sigma = np.einsum("ji,jk->ik", app.branch, app.branch.conj())
    assert np.abs(sigma * app.sum_s_squares - rho_cp).max() <= 1e-9


def test_lcu_channel_rejects_unnormalized_state():
    with pytest.raises(ArgumentError):
        lcu_channel([dilate(np.eye(2, dtype=complex), 1.0)],
                    np.array([1.0, 1.0]))


def test_lcu_channel_rejects_a_state_of_another_size_and_no_encodings():
    with pytest.raises(ArgumentError, match="psi has dimension 4, expected 2"):
        lcu_channel([dilate(SX, 1.0)], np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ArgumentError, match="lcu_channel needs at least one encoding"):
        lcu_channel([], np.array([1.0, 0.0]))


def test_lcu_channel_rejects_non_finite_state():
    # a NaN norm would pass a normalization check that compares with >
    with pytest.raises(ArgumentError, match="psi must be finite"):
        lcu_channel([dilate(SX, 1.0)], np.array([math.nan, 0.0]))


# ---------------------------------------------------------------------------
# mu state


def test_mu_coefficients_zeroth_order():
    lind = amplitude_damping()
    cfg = choose_orders(lind, 0.2, 0.5)
    cp = CPMapApprox(lind, 0.2, replace(cfg, series_order=0))
    mu = mu_coefficients(cp)
    np.testing.assert_allclose(mu.amplitudes, [1.0], atol=1e-15)


def test_mu_coefficients_first_order_profile():
    from lindbladsim import Lindbladian, TruncationConfig, canonical_rule

    t = 1.0
    lind = Lindbladian(np.zeros((2, 2)), jumps=[np.array([[0, 0.8], [0, 0]])])
    cfg = TruncationConfig(series_order=1, taylor_order=3, quadrature_order=2,
                           segment_time=t)
    cp = CPMapApprox(lind, t, cfg)
    mu = mu_coefficients(cp)
    rule = canonical_rule(2, t)
    alpha = lind.alphas[0]
    raw = np.array([1.0, math.sqrt(rule.weights[0]) * alpha,
                    math.sqrt(rule.weights[1]) * alpha])
    np.testing.assert_allclose(mu.amplitudes, raw / np.linalg.norm(raw), atol=1e-13)


def test_mu_amplitudes_factorize_per_register():
    cp, terms = budgeted_family()
    mu = mu_coefficients(cp)
    beta = be_norm(cp.lind)
    scale = math.exp(beta * cp.t)
    for term in terms:
        k, ells, js = term.index
        f = 1.0
        if k > 0:
            reg = mu.register_factors[k]
            f = reg["k_factor"]
            for ell in ells:
                f *= reg["jump_factor"][ell]
            for i, j in enumerate(js):
                f *= reg["node_factors"][i][j]
        assert abs(term.normalizer - scale * f) <= 1e-12


def test_mu_amplitudes_normalized():
    cp, _ = budgeted_family()
    mu = mu_coefficients(cp)
    assert np.linalg.norm(mu.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert mu.sum_s_squares == pytest.approx(cp.normalizer_sum_squares(), rel=1e-12)


# ---------------------------------------------------------------------------
# amplification and dilution


def synthetic_rotation_instance(amp):
    # rotation in the span of |00> and |10>; P0 keeps the first qubit at |0>
    theta = math.acos(amp)
    W = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    W[0, 0] = c; W[0, 2] = -s
    W[2, 0] = s; W[2, 2] = c
    P0 = np.diag([1.0, 1.0, 0.0, 0.0])
    psi_hat = np.array([1.0, 0.0, 0.0, 0.0])
    P1 = np.outer(psi_hat, psi_hat)
    return W, P0, P1, psi_hat


def test_oaa_exact_on_synthetic_instance():
    W, P0, P1, psi_hat = synthetic_rotation_instance(0.5)
    out = oaa_step(W, P0, P1, psi_hat)
    phi = np.zeros(4)
    phi[0] = 1.0
    assert abs(abs(np.vdot(phi, out)) - 1.0) <= 1e-10
    assert np.linalg.norm(out - phi) <= 1e-10


def test_oaa_rejects_off_premise_amplitude():
    W, P0, P1, psi_hat = synthetic_rotation_instance(0.6)
    with pytest.raises(ContractError) as info:
        oaa_step(W, P0, P1, psi_hat)
    assert info.value.measured == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("name, error, message", [
    ("W", ArgumentError, "W must be finite"),
    ("psi_hat", ArgumentError, "psi_hat must be finite"),
    ("P0", ContractError, "success amplitude nan deviates"),
])
def test_oaa_rejects_non_finite_inputs(name, error, message):
    # a NaN amplitude would pass a premise check that compares with >
    args = dict(zip(["W", "P0", "P1", "psi_hat"], synthetic_rotation_instance(0.5)))
    args[name] = args[name] * math.nan
    with pytest.raises(error, match=message):
        oaa_step(**args)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_oaa_rejects_invalid_tolerance(tol):
    W, P0, P1, psi_hat = synthetic_rotation_instance(0.5)
    with pytest.raises(ArgumentError, match="tol must be positive and finite"):
        oaa_step(W, P0, P1, psi_hat, tol=tol)


def test_oaa_on_diluted_channel():
    # trace-preserving Kraus pair has input-independent amplitude 1; dilution
    # brings it to 1/2 and one amplification round lands on the good state
    rng = np.random.default_rng(7)
    half = 1.0 / math.sqrt(2.0)
    for declared in (half, 1.0):
        psi = random_state(rng, 2)
        encs = [dilate(half * np.eye(2, dtype=complex), declared),
                dilate(half * SX, declared)]
        app = lcu_channel(encs, psi)
        _, W = dilute(app.success_amplitude, app.select)
        P0, P1 = channel_projectors(app)
        out = oaa_step(W, extend_with_ancilla(P0), extend_with_ancilla(P1),
                       extend_with_ancilla(app.psi_hat, state=True))
        good = extend_with_ancilla(P0) @ (W @ extend_with_ancilla(app.psi_hat, state=True))
        good /= np.linalg.norm(good)
        assert np.linalg.norm(out - good) <= 1e-10


def test_dilution_angles():
    theta, _ = dilute(1.0)
    assert theta == pytest.approx(math.pi / 3)
    theta, _ = dilute(0.5)
    assert theta == pytest.approx(0.0, abs=1e-12)


def test_dilution_hits_half_exactly():
    rng = np.random.default_rng(8)
    psi = random_state(rng, 2)
    half = 1.0 / math.sqrt(2.0)
    encs = [dilate(half * np.eye(2, dtype=complex), 0.9),
            dilate(half * SX, 0.8)]
    app = lcu_channel(encs, psi)
    assert 0.5 < app.success_amplitude <= 1.0
    _, W = dilute(app.success_amplitude, app.select)
    P0, _ = channel_projectors(app)
    amp = np.linalg.norm(extend_with_ancilla(P0)
                         @ (W @ extend_with_ancilla(app.psi_hat, state=True)))
    assert amp == pytest.approx(0.5, abs=1e-12)


def test_dilution_rejects_out_of_range():
    with pytest.raises(ArgumentError):
        dilute(0.4)
    with pytest.raises(ArgumentError):
        dilute(1.2)


@pytest.mark.parametrize("seed", range(20))
def test_verification_matrix_all_pass(seed):
    out = verification_matrix(seed=seed)
    assert out, "empty verification matrix"
    for name, row in out.items():
        assert row["pass"], f"{name}: {row}"
