import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindbladsim import (
    ArgumentError,
    DysonConfig,
    Lindbladian,
    ModelError,
    ResourceLimitError,
    TimeDependentLindbladian,
    TruncationConfig,
    amplitude_damping,
    dyson_contract,
    enumerate_kraus,
    exact_channel,
    from_static,
    ordered_propagator,
    random_lindbladian,
    rk4_reference,
    simulate,
    taylor_drift,
    td_simulate,
)
from lindbladsim.series import _WORK_BYTES
from lindbladsim.timedep import (_RK4_STEPS, _batched_propagator, _segment_sampler_calls,
                                 _segment_superop)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def driven_damped(omega=1.5, freq=2.0, gamma=0.4):
    def sampler(t):
        return 0.5 * omega * math.cos(freq * t) * SX, [math.sqrt(gamma) * SM]

    jdot = 0.5 * omega * freq
    return TimeDependentLindbladian(sampler, 0.5 * omega, [math.sqrt(gamma)], jdot)


def phase_modulated():
    def sampler(t):
        return math.cos(t) * SZ, []

    return TimeDependentLindbladian(sampler, 1.0, [], 1.0)


def generator_rk4(tl, s, t, step):
    # matrix-valued classical Runge-Kutta for dV/dtau = J(tau) V
    n = max(1, math.ceil((t - s) / step))
    h = (t - s) / n
    V = np.eye(tl.dim, dtype=complex)
    for i in range(n):
        tau = s + i * h
        k1 = tl.effective_generator_at(tau) @ V
        Jm = tl.effective_generator_at(tau + h / 2)
        k2 = Jm @ (V + h / 2 * k1)
        k3 = Jm @ (V + h / 2 * k2)
        k4 = tl.effective_generator_at(tau + h) @ (V + h * k3)
        V = V + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return V


def rotating_model(d, m, seed):
    # H(t) and L_j(t) rotate between two random matrices each; bounds are the sums
    rng = np.random.default_rng(seed)

    def mat(norm, herm=False):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = (A + A.conj().T) / 2 if herm else A
        return A * (norm / np.linalg.norm(A, 2))

    H0, H1 = mat(0.6, True), mat(0.4, True)
    Ls = [(mat(0.5), mat(0.3)) for _ in range(m)]

    def sampler(t):
        c, s = math.cos(2 * t), math.sin(2 * t)
        return c * H0 + s * H1, [c * A + s * B for A, B in Ls]

    return TimeDependentLindbladian(sampler, 1.0, [0.8] * m, 4.0)


def sequential_propagator(tl, s, t, cfg):
    # the midpoint product one midpoint at a time, later factors on the left
    d, B = tl.dim, s.shape[0]
    M, Kd = cfg.grid_points, cfg.order
    step = (t - s) / M
    eye = np.broadcast_to(np.eye(d, dtype=complex), (B, d, d))
    terms = [eye] + [np.zeros((B, d, d), complex) for _ in range(Kd)]
    for i in range(M):
        Jstep = np.stack([tl.effective_generator_at(float(tau))
                          for tau in s + (i + 0.5) * step]) * step[:, None, None]
        Jpow = [eye]
        for _ in range(Kd):
            Jpow.append(Jpow[-1] @ Jstep)
        terms = [terms[0]] + [terms[p] + sum(Jpow[r] @ terms[p - r] / math.factorial(r)
                                             for r in range(1, p + 1))
                              for p in range(1, Kd + 1)]
    return sum(terms)


def random_density(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# ordered_propagator


def test_constant_generator_reproduces_taylor_polynomial():
    lind = amplitude_damping(0.8)
    tl = from_static(lind)
    for grid in (1, 4):
        V = ordered_propagator(tl, 0.0, 0.6, DysonConfig(order=5, grid_points=grid))
        np.testing.assert_allclose(V, taylor_drift(lind, 0.6, 5), atol=1e-12)


def test_commuting_family_closed_form():
    tl = phase_modulated()
    t = 1.0
    target = np.diag(np.exp([-1j * math.sin(t), 1j * math.sin(t)]))
    errs = {}
    for grid in (16, 64):
        cfg = DysonConfig(order=10, grid_points=grid)
        V = ordered_propagator(tl, 0.0, t, cfg)
        err = np.abs(V - target).max()
        assert err <= dyson_contract(tl, t, cfg)
        errs[grid] = err
    # the midpoint product converges quadratically in the grid count
    assert errs[64] <= errs[16] / 8


def test_driven_propagator_matches_dense_integration():
    tl = driven_damped()
    cfg = DysonConfig(order=8, grid_points=48)
    t = 0.7
    V = ordered_propagator(tl, 0.0, t, cfg)
    ref = generator_rk4(tl, 0.0, t, 1e-4)
    assert np.abs(V - ref).max() <= dyson_contract(tl, t, cfg)


def test_propagator_composition():
    tl = driven_damped()
    cfg = DysonConfig(order=8, grid_points=64)
    s, u, t = 0.1, 0.45, 0.9
    direct = ordered_propagator(tl, s, t, cfg)
    composed = ordered_propagator(tl, u, t, cfg) @ ordered_propagator(tl, s, u, cfg)
    budget = (dyson_contract(tl, t - s, cfg) + dyson_contract(tl, u - s, cfg)
              + dyson_contract(tl, t - u, cfg))
    assert np.abs(direct - composed).max() <= budget


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), m=st.integers(0, 2), Kd=st.integers(0, 6),
       M=st.one_of(st.integers(1, 33), st.sampled_from([1, 2, 4, 8, 16, 32])),
       B=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d=2, m=1, Kd=6, M=33, B=5, seed=0)
@example(d=4, m=2, Kd=5, M=32, B=3, seed=1)
def test_tree_product_matches_sequential_product(d, m, Kd, M, B, seed):
    tl = rotating_model(d, m, seed)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 0.5, size=B)
    t = s + rng.uniform(0.0, 0.6, size=B)
    cfg = DysonConfig(order=Kd, grid_points=M)
    ref = sequential_propagator(tl, s, t, cfg)
    assert np.abs(_batched_propagator(tl, s, t, cfg) - ref).max() <= 1e-13


def test_tree_product_across_interval_chunks():
    d, Kd, M, B = 4, 8, 64, 60
    # intervals are taken in chunks whose factor stack stays under _WORK_BYTES
    assert B > _WORK_BYTES // (16 * (Kd + 1) * M * d * d)
    tl = rotating_model(d, 2, 7)
    s = np.linspace(0.0, 0.3, B)
    t = s + np.linspace(0.05, 0.4, B)
    cfg = DysonConfig(order=Kd, grid_points=M)
    ref = sequential_propagator(tl, s, t, cfg)
    assert np.abs(_batched_propagator(tl, s, t, cfg) - ref).max() <= 1e-13


def test_propagator_interval_edge_cases():
    tl = driven_damped()
    cfg = DysonConfig(order=3, grid_points=2)
    np.testing.assert_array_equal(ordered_propagator(tl, 0.3, 0.3, cfg), np.eye(2))
    with pytest.raises(ArgumentError):
        ordered_propagator(tl, 0.5, 0.2, cfg)


def test_dyson_config_validation():
    with pytest.raises(ArgumentError):
        DysonConfig(order=-1, grid_points=4)
    with pytest.raises(ArgumentError):
        DysonConfig(order=2, grid_points=0)


def test_dyson_contract_plugin():
    tl = driven_damped(omega=1.0, freq=2.0, gamma=1.0)
    beta = tl.be_norm
    cfg = DysonConfig(order=2, grid_points=4)
    expected = (beta * 0.5) ** 3 / 6 + 0.25 * tl.jdot_bound / 4
    assert dyson_contract(tl, 0.5, cfg) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# td_simulate


def test_td_simulate_degenerates_to_static_pipeline():
    lind = amplitude_damping(1.0)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    t, eps = 1.2, 1e-6
    rho_s, rep_s = simulate(lind, rho0, t, eps)
    rho_t, rep_t, cfg = td_simulate(from_static(lind), rho0, t, eps,
                                    cfg=DysonConfig(rep_s.taylor_order, 1),
                                    segments=rep_s.segments)
    assert rep_t.series_order == rep_s.series_order
    assert rep_t.quadrature_order == rep_s.quadrature_order
    assert np.abs(rho_t - rho_s).max() <= 1e-10


def test_segment_superop_shares_the_static_engine():
    # a constant sampler with one grid point gives the Taylor drift exactly, so a
    # segment's superoperator is the static approximant's, wherever it starts
    lind = random_lindbladian(1, num_jumps=2, seed=21)
    cfg = TruncationConfig(series_order=3, taylor_order=5, quadrature_order=2,
                           segment_time=0.3)
    static = enumerate_kraus(lind, 0.3, cfg).as_superoperator()
    seg = _segment_superop(from_static(lind), 0.6, 0.3, 3, 2, DysonConfig(5, 1))
    assert np.abs(seg - static).max() <= 1e-14


def test_td_simulate_unitary_family_stays_pure():
    tl = phase_modulated()
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho, report, _ = td_simulate(tl, rho0, 1.0, 1e-8)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)
    phase = np.exp(-1j * math.sin(1.0))
    target = np.diag([phase, phase.conj()])
    expected = target @ rho0 @ target.conj().T
    assert np.abs(rho - expected).max() <= 1e-5
    assert report.segments >= 1


def test_td_simulate_output_is_density():
    rng = np.random.default_rng(11)
    tl = driven_damped()
    rho0 = random_density(rng, 2)
    rho, report, _ = td_simulate(tl, rho0, 1.0, 1e-5)
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= report.eps + report.trace_deviation + 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-6


def test_td_simulate_tracks_dense_reference():
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho, _, _ = td_simulate(tl, rho0, 1.0, 1e-6)
    ref = rk4_reference(tl, rho0, 1.0, 1e-3)
    assert np.abs(rho - ref).max() <= 1e-4


def test_td_simulate_flags_declared_bound_violation():
    def sampler(t):
        return (1.0 + t) * SZ, []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 1.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError):
        td_simulate(tl, rho0, 1.0, 1e-4)


def test_td_simulate_names_the_first_failing_probe():
    # H is Hermitian except on [0.4, 0.45]; the segment [0, 1] probes 0, 1/16, ...
    # so the first failing probe is 7/16
    def sampler(t):
        skew = 0.5 * SM if 0.4 <= t <= 0.45 else 0.0 * SM
        return 0.5 * SZ + skew, []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 1.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError, match=r"at t=0\.4375 is not Hermitian"):
        td_simulate(tl, rho0, 1.0, 1e-4, segments=1)


def test_td_simulate_rejects_wide_chain_trees():
    def sampler(t):
        return np.zeros((2, 2)), [math.sqrt(0.5) * SM, math.sqrt(0.5) * SX]

    tl = TimeDependentLindbladian(sampler, 0.0,
                                  [math.sqrt(0.5), math.sqrt(0.5)], 0.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ResourceLimitError):
        td_simulate(tl, rho0, 4.0, 1e-12, segments=1)


def test_td_simulate_sampler_guard():
    # 544 segments and 4,891,104 sampler calls, rejected before the first probe
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        td_simulate(driven_damped(), rho0, 10.0, 1e-6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("make, t, eps", [(phase_modulated, 1.0, 1e-4),
                                          (driven_damped, 0.5, 1e-3),
                                          (driven_damped, 1.0, 1e-4)])
def test_segment_sampler_calls_match_a_counting_sampler(make, t, eps):
    tl = make()
    sampler, calls = tl.sampler, [0]

    def counting(tau):
        calls[0] += 1
        return sampler(tau)

    tl.sampler = counting
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, report, cfg = td_simulate(tl, rho0, t, eps)
    assert calls[0] == report.segments * _segment_sampler_calls(
        report.series_order, report.quadrature_order, tl.num_jumps, cfg.grid_points)


def test_td_simulate_argument_validation():
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ArgumentError):
        td_simulate(tl, rho0, -1.0, 1e-4)
    with pytest.raises(ArgumentError):
        td_simulate(tl, rho0, 1.0, 0.0)
    with pytest.raises(ModelError):
        td_simulate(tl, np.eye(2, dtype=complex), 1.0, 1e-4)


def test_td_simulate_time_zero():
    tl = driven_damped()
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    rho, report, _ = td_simulate(tl, rho0, 0.0, 1e-4)
    np.testing.assert_array_equal(rho, rho0)
    assert report.segments == 0


# ---------------------------------------------------------------------------
# sampler wrapper and rk4 reference


def test_sampler_validation():
    def crooked(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]), []

    tl = TimeDependentLindbladian(lambda t: (SZ, []), 1.0, [], 0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(crooked, 1.0, [], 0.0).sample(0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(lambda t: (SZ, [SM]), 1.0, [], 0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(lambda t: (SZ, []), -1.0, [], 0.0)
    H, Ls = tl.sample(0.3)
    np.testing.assert_array_equal(H, SZ)
    assert Ls == []


def test_rk4_reference_chunks_match_per_step_liouvillians():
    # n = 2 chunks + 1 steps: two full chunks and a one-step tail, against RK4
    # with each step's Liouvillians built on their own
    tl = driven_damped()
    sampler, calls = tl.sampler, [0]

    def counting(tau):
        calls[0] += 1
        return sampler(tau)

    def liouvillian(tau):
        H, Ls = sampler(tau)
        J = -1j * H - 0.5 * sum(L.conj().T @ L for L in Ls)
        eye = np.eye(2)
        return (np.kron(eye, J) + np.kron(J.conj(), eye)
                + sum(np.kron(L.conj(), L) for L in Ls))

    tl.sampler = counting
    n, t = 2 * _RK4_STEPS + 1, 0.8
    h = t / n
    rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    v = rho0.reshape(-1, order="F").astype(complex)
    for i in range(n):
        tau = i * h
        L0, Lm, L1 = liouvillian(tau), liouvillian(tau + h / 2), liouvillian(tau + h)
        k1 = L0 @ v
        k2 = Lm @ (v + h / 2 * k1)
        k3 = Lm @ (v + h / 2 * k2)
        k4 = L1 @ (v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    rho = rk4_reference(tl, rho0, t, h)
    assert calls[0] == 2 * n + 1
    assert np.abs(rho - v.reshape(2, 2, order="F")).max() <= 1e-14


def test_rk4_reference_matches_exact_channel():
    lind = amplitude_damping(1.0)
    tl = from_static(lind)
    rho0 = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
    ref = rk4_reference(tl, rho0, 1.0, 1e-3)
    E = exact_channel(lind, 1.0)
    expected = (E @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.abs(ref - expected).max() <= 1e-9
    with pytest.raises(ArgumentError):
        rk4_reference(tl, rho0, 1.0, 0.0)
