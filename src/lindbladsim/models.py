"""Lindbladian models and their matrix-level generators.

A model is a Hamiltonian H plus jump operators L_j, generating

    d rho / dt = -i[H, rho] + sum_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} ).

The generator splits into a drift part rho -> J rho + rho J^dag with
J = -iH - (1/2) sum_j L_j^dag L_j, and a jump part rho -> sum_j L_j rho L_j^dag.
Everything here works on dense complex matrices; the vectorized forms follow the
column-stacking convention from :mod:`lindbladsim.linalg`.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, ModelError
from .linalg import dag, kraus_superop, left_mult, right_mult, spectral_norm

HERM_TOL = 1e-12


def _as_complex_matrix(mat, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


class Lindbladian:
    """Validated, immutable bundle of H, jump operators and their norm bounds.

    alpha0 bounds the spectral norm of H and each alphas[j] bounds the spectral
    norm of L_j; defaults are the exact norms. A Hamiltonian within 1e-12 of
    Hermitian is symmetrized on ingest, anything worse is rejected.
    """

    def __init__(self, hamiltonian, jumps=(), alpha0: float | None = None,
                 alphas=None):
        H = _as_complex_matrix(hamiltonian, "hamiltonian")
        herm_gap = np.abs(H - H.conj().T).max()
        scale = max(1.0, np.abs(H).max())
        if herm_gap > HERM_TOL * scale:
            raise ModelError(f"hamiltonian is not Hermitian (residual {herm_gap:.3e})")
        H = (H + H.conj().T) / 2
        d = H.shape[0]

        Ls = tuple(_as_complex_matrix(L, f"jumps[{i}]") for i, L in enumerate(jumps))
        for i, L in enumerate(Ls):
            if L.shape != (d, d):
                raise ModelError(f"jumps[{i}] has shape {L.shape}, expected {(d, d)}")

        if alpha0 is None:
            alpha0 = spectral_norm(H)
        if alphas is None:
            alphas = tuple(spectral_norm(L) for L in Ls)
        else:
            alphas = tuple(float(a) for a in alphas)
        alpha0 = float(alpha0)
        if len(alphas) != len(Ls):
            raise ModelError("alphas must have one entry per jump operator")
        slack = 1e-12
        if alpha0 < spectral_norm(H) * (1 - slack) - slack:
            raise ModelError("alpha0 does not dominate ||H||")
        for a, L in zip(alphas, Ls):
            if a < spectral_norm(L) * (1 - slack) - slack:
                raise ModelError("declared jump bound does not dominate ||L_j||")

        H.setflags(write=False)
        for L in Ls:
            L.setflags(write=False)
        self.hamiltonian = H
        self.jumps = Ls
        self.alpha0 = alpha0
        self.alphas = alphas

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def num_jumps(self) -> int:
        return len(self.jumps)

    def __repr__(self):
        return (f"Lindbladian(dim={self.dim}, jumps={self.num_jumps}, "
                f"alpha0={self.alpha0:.6g}, alphas={[f'{a:.6g}' for a in self.alphas]})")


def be_norm(lind: Lindbladian) -> float:
    """Block-encoding norm beta = alpha0 + (1/2) sum_j alphas[j]^2."""
    return lind.alpha0 + 0.5 * sum(a * a for a in lind.alphas)


def _jump_stack(H: np.ndarray, Ls) -> np.ndarray:
    """Jump operators as a (..., m, d, d) array over H's leading batch axes."""
    return np.asarray(Ls, dtype=complex).reshape(H.shape[:-2] + (-1,) + H.shape[-2:])


def _drift_generator(H: np.ndarray, Ls) -> np.ndarray:
    """J = -iH - (1/2) sum_j L_j^dag L_j for H (..., d, d) and jumps (..., m, d, d)
    or a list of m matrices; the sum runs over j in order."""
    H = np.asarray(H, dtype=complex)
    L = _jump_stack(H, Ls)
    LdL = L.conj().swapaxes(-1, -2) @ L
    J = -1j * H
    for j in range(L.shape[-3]):
        J = J - 0.5 * LdL[..., j, :, :]
    return J


def _liouvillian(H: np.ndarray, Ls) -> np.ndarray:
    """Vectorized generator I kron J + conj(J) kron I + sum_j conj(L_j) kron L_j,
    batched over H's leading axes like _drift_generator."""
    J = _drift_generator(H, Ls)
    L = _jump_stack(J, Ls)
    d = J.shape[-1]
    eye = np.eye(d)

    def kron(A, B):
        # kron(A, B)[a d + i, b d + k] = A[a, b] B[i, k], as (..., a, i, b, k); a
        # broadcast product, which rounds as np.kron does (einsum's does not)
        return A[..., :, None, :, None] * B[..., None, :, None, :]

    S = np.zeros(J.shape[:-2] + (d, d, d, d), dtype=complex)
    for j in range(L.shape[-3]):
        S += kron(L[..., j, :, :].conj(), L[..., j, :, :])
    return (kron(eye, J) + kron(J.conj(), eye) + S).reshape(J.shape[:-2] + (d * d, d * d))


def effective_generator(lind: Lindbladian) -> np.ndarray:
    """Drift matrix J = -iH - (1/2) sum_j L_j^dag L_j.

    Dissipative: every eigenvalue of J has nonpositive real part, so
    ||exp(J s)|| <= 1 for s >= 0.
    """
    return _drift_generator(lind.hamiltonian, lind.jumps)


def jump_superoperator(lind: Lindbladian) -> np.ndarray:
    """Vectorized jump part: sum_j conj(L_j) kron L_j."""
    d = lind.dim
    S = np.zeros((d * d, d * d), dtype=complex)
    for L in lind.jumps:
        S += kraus_superop(L)
    return S


def drift_generator_matrix(lind: Lindbladian) -> np.ndarray:
    """Vectorized drift part: rho -> J rho + rho J^dag."""
    J = effective_generator(lind)
    return left_mult(J) + right_mult(dag(J))


def liouvillian_matrix(lind: Lindbladian) -> np.ndarray:
    """Vectorized full generator; equals drift + jump parts by construction."""
    return _liouvillian(lind.hamiltonian, lind.jumps)


def exact_channel(lind: Lindbladian, t: float) -> np.ndarray:
    """Superoperator matrix of exp(L t), the exact channel at time t."""
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    return expm(liouvillian_matrix(lind) * t)


def drift_semigroup(lind: Lindbladian, t: float) -> np.ndarray:
    """Superoperator of rho -> exp(Jt) rho exp(Jt)^dag (the no-jump semigroup)."""
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    return kraus_superop(expm(effective_generator(lind) * t))


def amplitude_damping(gamma: float = 1.0) -> Lindbladian:
    """Single-qubit amplitude damping: H = 0, L = sqrt(gamma) |0><1|."""
    if gamma < 0:
        raise ArgumentError("gamma must be nonnegative")
    L = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return Lindbladian(np.zeros((2, 2)), [L])


def random_lindbladian(n_qubits: int, num_jumps: int = 1, seed=None,
                       h_norm: float | None = None,
                       jump_norm: float | None = None) -> Lindbladian:
    """Seeded random model: Hermitian H and dense jump operators with O(1) norms."""
    if n_qubits < 1:
        raise ArgumentError("n_qubits must be >= 1")
    rng = np.random.default_rng(seed)
    d = 2 ** n_qubits
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = (G + G.conj().T) / 2
    target_h = h_norm if h_norm is not None else rng.uniform(0.3, 1.0)
    nh = spectral_norm(H)
    H = H * (target_h / nh) if nh > 0 else H
    jumps = []
    for _ in range(num_jumps):
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        target_l = jump_norm if jump_norm is not None else rng.uniform(0.3, 1.0)
        jumps.append(L * (target_l / spectral_norm(L)))
    return Lindbladian(H, jumps)
