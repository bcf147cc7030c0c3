import math

import numpy as np
import pytest
import scipy.linalg

from lindbladsim import (
    ArgumentError,
    Lindbladian,
    ModelError,
    ResourceLimitError,
    TimeDependentLindbladian,
    amplitude_damping,
    be_norm,
    choi,
    dag,
    drift_generator_matrix,
    drift_semigroup,
    effective_generator,
    exact_channel,
    jump_superoperator,
    kraus_superop,
    liouvillian_matrix,
    random_lindbladian,
    simulate,
    spectral_norm,
    td_simulate,
    unvec,
    vec,
)
from lindbladsim.models import _check_stack

from fixtures import SM, SZ, random_density


def apply_lindblad_direct(lind, rho):
    H = lind.hamiltonian
    out = -1j * (H @ rho - rho @ H)
    for L in lind.jumps:
        LdL = dag(L) @ L
        out += L @ rho @ dag(L) - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def test_effective_generator_amplitude_damping():
    lind = amplitude_damping(gamma=1.0)
    expected = -0.5 * np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(effective_generator(lind), expected, atol=1e-14)


def test_effective_generator_no_jumps():
    lind = Lindbladian(SZ)
    np.testing.assert_allclose(effective_generator(lind), -1j * SZ, atol=1e-15)


def test_effective_generator_matches_formula():
    lind = random_lindbladian(2, num_jumps=3, seed=5)
    H = lind.hamiltonian
    acc = -1j * H
    for L in lind.jumps:
        acc = acc - 0.5 * (dag(L) @ L)
    np.testing.assert_allclose(effective_generator(lind), acc, atol=1e-13)


def test_effective_generator_dissipative():
    for seed in range(6):
        lind = random_lindbladian(1, num_jumps=2, seed=seed)
        eigs = np.linalg.eigvals(effective_generator(lind))
        assert np.max(eigs.real) <= 1e-12


def test_rejects_non_hermitian_hamiltonian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ModelError):
        Lindbladian(H)


@pytest.mark.parametrize("call, message", [
    (lambda: random_lindbladian(0), "n_qubits must be an integer >= 1, got 0"),
    (lambda: random_lindbladian(1.5), "n_qubits must be an integer >= 1, got 1.5"),
    (lambda: random_lindbladian(1, 1.5), "num_jumps must be an integer >= 0, got 1.5"),
    (lambda: random_lindbladian(1, -1), "num_jumps must be an integer >= 0, got -1"),
    (lambda: amplitude_damping(-1.0), "gamma must be nonnegative"),
    (lambda: random_lindbladian(1, 1, seed=1, h_norm=-0.5),
     r"h_norm must be a nonnegative, finite real number, got -0\.5"),
    (lambda: random_lindbladian(1, 1, seed=1, jump_norm=-2.0),
     r"jump_norm must be a nonnegative, finite real number, got -2\.0"),
    (lambda: random_lindbladian(1, 1, seed=1, h_norm="x"),
     "h_norm must be a nonnegative, finite real number, got 'x'"),
    (lambda: random_lindbladian(1, 1, seed=1, h_norm=True),
     "h_norm must be a nonnegative, finite real number, got True"),
    (lambda: random_lindbladian(1, 1, seed=1, h_norm=math.inf),
     "h_norm must be a nonnegative, finite real number, got inf"),
    (lambda: random_lindbladian(1, 1, seed=1, jump_norm=math.nan),
     "jump_norm must be a nonnegative, finite real number, got nan"),
], ids=["no-qubits", "fractional-qubits", "fractional-jumps", "negative-jumps",
        "negative-gamma", "negative-h-norm", "negative-jump-norm", "string-h-norm",
        "bool-h-norm", "infinite-h-norm", "nan-jump-norm"])
def test_model_constructors_reject_bad_counts_and_rates(call, message):
    # a fractional count used to raise a bare TypeError, and a negative jump
    # count to give a model with no jumps; a negative norm gave a model with a
    # negated operator, a string a bare TypeError, and a non-finite one a
    # ModelError that blamed the model for the argument
    with pytest.raises(ArgumentError, match=message):
        call()


def test_lindbladian_repr_names_its_shape_and_bounds():
    lind = Lindbladian(0.5 * SZ, [SM], alpha0=0.75)
    assert repr(lind) == "Lindbladian(dim=2, jumps=1, alpha0=0.75, alphas=['1'])"


def test_symmetrizes_near_hermitian_hamiltonian():
    H = SZ + 1e-14 * np.array([[0, 1j], [0, 0]])
    lind = Lindbladian(H)
    np.testing.assert_allclose(lind.hamiltonian, dag(lind.hamiltonian), atol=0)


def test_rejects_undersized_declared_bounds():
    with pytest.raises(ModelError):
        Lindbladian(SZ, alpha0=0.5)
    with pytest.raises(ModelError):
        Lindbladian(np.zeros((2, 2)), jumps=[SZ], alphas=[0.1])
    # a non-finite bound passes every dominance comparison but bounds nothing
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError, match="finite"):
            Lindbladian(SZ, alpha0=bad)
        with pytest.raises(ModelError, match="finite"):
            Lindbladian(np.zeros((2, 2)), jumps=[SZ], alphas=[bad])
    # a negative bound bounds nothing, even within the slack of the norm check
    with pytest.raises(ModelError, match="nonnegative and finite"):
        Lindbladian(np.zeros((2, 2)), alpha0=-1e-13)
    with pytest.raises(ModelError, match="nonnegative and finite"):
        Lindbladian(np.zeros((2, 2)), jumps=[np.zeros((2, 2))], alphas=[-1e-13])


@pytest.mark.parametrize("H, alpha0, jump_bound, ok", [
    (SM, 1.0, 1.0, False),  # not Hermitian
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), 1.0, 1.0, False),
    (SZ, 1.0 - 1e-10, 1.0, False),  # 1e-10 relative below ||H||
    (SZ, 1.0, 1.0 - 1e-10, False),  # 1e-10 relative below ||L||
    (np.zeros((2, 2)), -1e-13, 1.0, False),
    (SZ, 1.0 - 1e-13, 1.0 - 1e-13, True),  # within the norm slack
    (np.zeros((2, 2)), 1.0, 1e160, False),  # finite, but beta = 1 + 1e320 / 2 = inf
    # shapes and numeric entries; a jump bound of None means no jump
    (np.zeros((2, 3)), 1.0, None, False),  # not square
    (np.zeros(2), 1.0, None, False),  # 1-D
    (np.array([["x", "0"], ["0", "1"]]), 1.0, 1.0, False),  # not numeric
    (np.zeros((3, 3)), 1.0, 1.0, False),  # of another size than its jump
])
def test_static_and_time_dependent_models_share_one_contract(H, alpha0, jump_bound, ok):
    bounds = [] if jump_bound is None else [jump_bound]
    jumps = [SM] * len(bounds)
    makes = [lambda: Lindbladian(H, jumps, alpha0, bounds),
             lambda: TimeDependentLindbladian(lambda t: (H, jumps), alpha0, bounds, 0.0)]
    for make in makes:
        if ok:
            make()
        else:
            with pytest.raises(ModelError):
                make()


def test_overflowing_be_norm_is_a_model_error():
    # a jump norm of 1e160 squares to inf, so beta = inf and no segment fits;
    # the run fails as a model error at construction, not in the planner
    rho0 = np.diag([1.0, 0.0])
    with pytest.raises(ModelError, match="overflow the be-norm"):
        simulate(Lindbladian(np.zeros((2, 2)), [1e160 * SM]), rho0, 1.0, 1e-3)
    with pytest.raises(ModelError, match="overflow the be-norm"):
        td_simulate(TimeDependentLindbladian(lambda t: (np.zeros((2, 2)), [1e160 * SM]),
                                             0.0, [1e160], 0.0), rho0, 1.0, 1e-3)
    assert be_norm(Lindbladian(np.zeros((2, 2)), [1e150 * SM])) == pytest.approx(0.5e300)


def test_huge_finite_be_norm_is_a_resource_limit():
    # at beta = 1e13 the budget root lies below segment_time's 1e-12 tolerance,
    # so it comes back as 0.0 and no segment fits; a run at t = 0 still returns rho0
    rho0 = np.diag([1.0, 0.0])
    lind = Lindbladian(SZ, [], alpha0=1e13)
    tl = TimeDependentLindbladian(lambda t: (SZ, []), 1e13, [], 0.0)
    for run in (simulate, td_simulate):
        with pytest.raises(ResourceLimitError, match=r"be-norm 10000000000000\.0 leaves no"):
            run(lind if run is simulate else tl, rho0, 1.0, 1e-3)
    np.testing.assert_array_equal(simulate(lind, rho0, 0.0, 1e-3)[0], rho0)


def test_model_keeps_read_only_copies_of_caller_arrays():
    H, L = SZ.copy(), SM.copy()
    lind = Lindbladian(H, [L])
    assert not lind.hamiltonian.flags.writeable and not lind.jumps[0].flags.writeable
    # the jumps are one read-only (m, d, d) array, empty with no jumps
    assert isinstance(lind.jumps, np.ndarray) and lind.jumps.shape == (1, 2, 2)
    assert not lind.jumps.flags.writeable
    assert Lindbladian(H).jumps.shape == (0, 2, 2) and not Lindbladian(H).jumps.flags.writeable
    # the caller's arrays stay writable, and writing them leaves the model as it was
    H[0, 0], L[0, 0] = 5.0, 1.0
    np.testing.assert_array_equal(lind.hamiltonian, SZ)
    np.testing.assert_array_equal(lind.jumps[0], SM)


@pytest.mark.parametrize("n_qubits, num_jumps, seed", [(1, 0, 0), (1, 3, 1), (2, 2, 2), (3, 1, 3)])
def test_default_bounds_are_the_exact_spectral_norms(n_qubits, num_jumps, seed):
    # undeclared bounds come from the constructor's batched check, bit for bit
    # the norm of each operator on its own
    src = random_lindbladian(n_qubits, num_jumps, seed=seed)
    H = src.hamiltonian + 1e-14 * np.triu(np.ones_like(src.hamiltonian), 1)
    lind = Lindbladian(H, src.jumps)
    assert lind.alpha0 == spectral_norm(lind.hamiltonian)
    assert lind.alphas == tuple(spectral_norm(L) for L in lind.jumps)


def test_stack_check_norms_are_the_per_matrix_svd_norms(monkeypatch):
    # runs of equal operators, of different lengths in each slot, share one SVD:
    # 3 runs of H and 2 of the second jump; the first jump has 3 runs, and a 4th
    # from a -0.0 that differs from 0.0 in its bits alone
    rng = np.random.default_rng(4)
    ops = rng.normal(size=(4, 3, 3, 3)) + 1j * rng.normal(size=(4, 3, 3, 3))
    picks = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 0], [1, 2, 3], [0, 2, 3]])
    stack = ops[picks, np.arange(3)]
    H = (stack[:, 0] + stack[:, 0].conj().swapaxes(-1, -2)) / 2
    L = stack[:, 1:].copy()
    L[4, 0, 0, 0] = -0.0
    L[5, 0, 0, 0] = 0.0
    taken, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: taken.append(len(a)) or svd(a, **kw))
    _, norms = _check_stack(H, L, (100.0, 100.0, 100.0))
    monkeypatch.undo()
    assert taken == [9]
    for b in range(len(picks)):
        for j, op in enumerate([(H[b] + H[b].conj().T) / 2, *L[b]]):
            assert norms[b, j] == np.linalg.svd(op, compute_uv=False)[0]


def test_stack_check_names_a_bad_jump_after_a_run_of_equal_ones():
    L = np.broadcast_to(0.5 * SZ, (6, 1, 2, 2)).copy()
    L[4, 0] = 2.0 * SZ
    times = np.linspace(0.0, 0.5, 6)
    with pytest.raises(ModelError, match=r"\|\|L_0\|\| = 2\.0 at t=0\.4 exceeds"):
        _check_stack(np.broadcast_to(SZ, (6, 2, 2)), L, (1.0, 1.0), times)


def test_be_norm_plug_ins():
    Z4 = np.zeros((4, 4))
    I4 = np.eye(4)
    assert be_norm(Lindbladian(Z4, jumps=[2 * I4], alpha0=1.0)) == pytest.approx(3.0)
    assert be_norm(Lindbladian(Z4, alpha0=0.0)) == pytest.approx(0.0)
    lind = Lindbladian(Z4, jumps=[I4, I4], alpha0=0.5)
    assert be_norm(lind) == pytest.approx(1.5)


def test_liouvillian_trivial_model_is_zero():
    lind = Lindbladian(np.zeros((2, 2)))
    np.testing.assert_allclose(liouvillian_matrix(lind), np.zeros((4, 4)), atol=0)


def test_liouvillian_amplitude_damping_action():
    lind = amplitude_damping(gamma=1.0)
    Lhat = liouvillian_matrix(lind)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    out = unvec(Lhat @ vec(rho1))
    np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


def test_liouvillian_matches_direct_application():
    rng = np.random.default_rng(3)
    lind = random_lindbladian(2, num_jumps=2, seed=3)
    Lhat = liouvillian_matrix(lind)
    for _ in range(20):
        rho = random_density(rng, 4)
        direct = apply_lindblad_direct(lind, rho)
        np.testing.assert_allclose(unvec(Lhat @ vec(rho)), direct, atol=1e-12)


def test_exact_channel_identity_at_zero():
    lind = random_lindbladian(1, num_jumps=1, seed=0)
    np.testing.assert_allclose(exact_channel(lind, 0.0), np.eye(4), atol=1e-14)


def test_exact_channel_amplitude_damping_population():
    lind = amplitude_damping(gamma=1.0)
    rho0 = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
    rho1 = unvec(exact_channel(lind, 1.0) @ vec(rho0))
    assert abs(rho1[1, 1] - np.exp(-1.0) * rho0[1, 1]) <= 1e-12


def test_exact_channel_rejects_negative_time():
    with pytest.raises(ArgumentError):
        exact_channel(amplitude_damping(), -0.1)


def test_exact_channel_matches_rk4():
    lind = random_lindbladian(2, num_jumps=1, seed=9)
    Lhat = liouvillian_matrix(lind)
    t, h = 0.3, 1e-4
    V = np.eye(Lhat.shape[0], dtype=complex)
    steps = round(t / h)
    for _ in range(steps):
        k1 = Lhat @ V
        k2 = Lhat @ (V + 0.5 * h * k1)
        k3 = Lhat @ (V + 0.5 * h * k2)
        k4 = Lhat @ (V + h * k3)
        V = V + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(exact_channel(lind, t), V, atol=1e-8)


def test_drift_semigroup_identity_at_zero():
    lind = amplitude_damping()
    np.testing.assert_allclose(drift_semigroup(lind, 0.0), np.eye(4), atol=1e-14)


def test_drift_semigroup_two_construction_paths():
    for seed in range(5):
        lind = random_lindbladian(2, num_jumps=2, seed=seed)
        direct = drift_semigroup(lind, 0.8)
        via_generator = scipy.linalg.expm(0.8 * drift_generator_matrix(lind))
        np.testing.assert_allclose(direct, via_generator, atol=1e-11)


def test_drift_semigroup_closed_dynamics_full_period():
    lind = Lindbladian(SZ)
    S = drift_semigroup(lind, np.pi)
    # e^{-i pi sz} = -I, and the global phase cancels in the channel
    np.testing.assert_allclose(S, np.eye(4), atol=1e-12)


def test_jump_superoperator_empty_and_identity():
    lind = Lindbladian(np.zeros((2, 2)))
    np.testing.assert_allclose(jump_superoperator(lind), np.zeros((4, 4)), atol=0)
    lind_id = Lindbladian(np.zeros((2, 2)), jumps=[np.eye(2)])
    np.testing.assert_allclose(jump_superoperator(lind_id), np.eye(4), atol=1e-15)


def test_generator_recombination():
    for seed in range(8):
        lind = random_lindbladian(2, num_jumps=2, seed=seed)
        total = drift_generator_matrix(lind) + jump_superoperator(lind)
        np.testing.assert_allclose(total, liouvillian_matrix(lind), atol=1e-12)


def test_exact_channel_is_trace_preserving():
    for seed in range(4):
        lind = random_lindbladian(1, num_jumps=2, seed=seed)
        for t in (0.2, 1.0):
            C = choi(exact_channel(lind, t))
            d = lind.dim
            tp = np.einsum("kikj->ij", C.reshape(d, d, d, d))
            np.testing.assert_allclose(tp, np.eye(d), atol=1e-10)


def test_exact_channel_is_completely_positive():
    for seed in range(4):
        lind = random_lindbladian(2, num_jumps=1, seed=seed)
        C = choi(exact_channel(lind, 0.7))
        eigs = np.linalg.eigvalsh((C + dag(C)) / 2)
        assert eigs.min() >= -1e-10


def test_semigroup_property():
    lind = random_lindbladian(2, num_jumps=2, seed=21)
    for s, t in ((0.1, 0.4), (0.5, 0.5), (0.3, 1.1)):
        lhs = exact_channel(lind, s) @ exact_channel(lind, t)
        np.testing.assert_allclose(lhs, exact_channel(lind, s + t), atol=1e-9)


def test_generator_norm_below_be_norm():
    for seed in range(10):
        lind = random_lindbladian(2, num_jumps=3, seed=seed)
        assert spectral_norm(effective_generator(lind)) <= be_norm(lind) + 1e-12


def test_second_power_eight_term_expansion():
    # H = 0, single jump: L^2 applied to rho expands into eight terms
    rng = np.random.default_rng(17)
    lind = random_lindbladian(1, num_jumps=1, seed=17, h_norm=0.0)
    L = lind.jumps[0]
    Ld = dag(L)
    Lhat2 = np.linalg.matrix_power(liouvillian_matrix(lind), 2)
    for _ in range(20):
        rho = random_density(rng, 2)
        expansion = (
            L @ L @ rho @ Ld @ Ld
            - 0.5 * L @ Ld @ L @ rho @ Ld
            - 0.5 * L @ rho @ Ld @ L @ Ld
            - 0.5 * Ld @ L @ L @ rho @ Ld
            + 0.25 * Ld @ L @ Ld @ L @ rho
            - 0.5 * L @ rho @ Ld @ Ld @ L
            + 0.5 * Ld @ L @ rho @ Ld @ L
            + 0.25 * rho @ Ld @ L @ Ld @ L
        )
        np.testing.assert_allclose(unvec(Lhat2 @ vec(rho)), expansion, atol=1e-12)


def test_kraus_superop_convention():
    # column-stacking vec sends K[A] to conj(A) kron A
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(kraus_superop(A), np.kron(A.conj(), A), atol=1e-14)
    rho = random_density(rng, 3)
    np.testing.assert_allclose(unvec(kraus_superop(A) @ vec(rho)),
                               A @ rho @ dag(A), atol=1e-13)
