"""Lindbladian models and their matrix-level generators.

A model is a Hamiltonian H plus jump operators L_j, generating

    d rho / dt = -i[H, rho] + sum_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} ).

The generator splits into a drift part rho -> J rho + rho J^dag with
J = -iH - (1/2) sum_j L_j^dag L_j, and a jump part rho -> sum_j L_j rho L_j^dag.
Everything here works on dense complex matrices; the vectorized forms follow the
column-stacking convention from :mod:`lindbladsim.linalg`.
"""
from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, ModelError, check_count, check_time
from .linalg import kraus_superop, kron, spectral_norm

HERM_TOL = 1e-12
NORM_SLACK = 1e-12  # a norm may exceed its declared bound by this, relative plus absolute


def _stack(Hs, Ls) -> tuple[np.ndarray, np.ndarray]:
    """Complex copies of B Hamiltonians and B jump lists, stacked as H (B, d, d)
    and L (B, m, d, d), so the caller's arrays are never the model's.

    Raises ModelError unless every entry is numeric, every H is square of one
    size d, and every jump list holds the same number m of d x d matrices."""
    try:
        H = np.array(Hs, dtype=complex)
    except (TypeError, ValueError) as ex:
        raise ModelError("hamiltonian must be a numeric square matrix of one size") from ex
    if H.ndim != 3 or H.shape[1] != H.shape[2]:
        raise ModelError(f"hamiltonian has shape {H.shape[1:]}, expected a square (d, d)")
    try:
        L = np.array(Ls, dtype=complex)
    except (TypeError, ValueError) as ex:
        raise ModelError(f"jumps must be numeric {H.shape[1:]} matrices, as many "
                         "at every time") from ex
    if L.shape == (len(H), 0):  # no jumps
        L = L.reshape(L.shape + H.shape[1:])
    if L.shape[:1] + L.shape[2:] != H.shape:
        raise ModelError(f"jumps have shape {L.shape[2:]}, expected {H.shape[1:]}")
    return H, L


def _check_bounds(alpha0: float, alphas, *others: float) -> None:
    """Raise ModelError unless the bounds alpha0 (of H), alphas (of the jumps) and
    others are nonnegative and finite, and so is the be-norm
    alpha0 + (1/2) sum alphas^2 they give: finite bounds whose squares overflow
    make it inf, which leaves no segment to plan."""
    if not all(0 <= b < math.inf for b in (alpha0, *alphas, *others)):
        raise ModelError("declared bounds must be nonnegative and finite")
    if alpha0 + 0.5 * sum(a * a for a in alphas) == math.inf:
        raise ModelError("norm bounds overflow the be-norm alpha0 + (1/2) sum alphas^2")


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms (B, n) of the operators of a finite (B, n, d, d) stack: one
    SVD per run of bitwise-equal operators in a slot, its norm copied along the
    run, so a slot held constant costs one SVD."""
    bits = stack.view(np.uint64)
    new = np.ones(stack.shape[:2], dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=(-2, -1))
    norms = np.zeros(new.shape)
    norms[new] = np.linalg.svd(stack[new], compute_uv=False)[:, 0]
    first = np.maximum.accumulate(np.where(new, np.arange(len(new))[:, None], 0), axis=0)
    return np.take_along_axis(norms, first, axis=0)


def _check_stack(H: np.ndarray, L: np.ndarray, bounds, times=None) -> tuple[np.ndarray, np.ndarray]:
    """The model contract on stacked operators, H (B, d, d) and jumps L (B, m, d, d),
    with the declared bounds (alpha0, alpha_1, ..., alpha_m); returns H symmetrized
    and the (B, 1 + m) spectral norms of H and of each jump.

    Raises ModelError unless there is one bound per jump, and otherwise at the
    failing entry whose H or a jump is not finite, whose H is not Hermitian
    within HERM_TOL of max(1, max|H|), or whose H or a jump has a spectral norm
    over its bound by more than NORM_SLACK relative plus NORM_SLACK absolute:
    the first one, or, when its times (B,) are given, the earliest, whose time
    the message names."""
    if len(bounds) != 1 + L.shape[1]:
        raise ModelError(f"{L.shape[1]} jump operators but {len(bounds) - 1} declared jump bounds")
    finite = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(L).all(axis=(1, 2, 3))
    Hd = H.conj().swapaxes(-1, -2)
    gap = np.abs(H - Hd).max(axis=(-2, -1))
    skew = gap > HERM_TOL * np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))
    H = (H + Hd) / 2
    stack = np.concatenate([H[:, None], L], axis=1)
    stack[~finite] = 0.0  # the SVD cannot take NaN or inf; those entries fail below
    norms = _spectral_norms(stack)
    over = norms * (1 - NORM_SLACK) - NORM_SLACK > np.asarray(bounds)
    bad = np.flatnonzero(~finite | skew | over.any(axis=1))
    if bad.size:
        b = bad[0] if times is None else bad[np.argmin(times[bad])]
        at = "" if times is None else f" at t={float(times[b])}"
        if not finite[b]:
            raise ModelError(f"hamiltonian or a jump{at} is not finite")
        if skew[b]:
            raise ModelError(f"hamiltonian{at} is not Hermitian (residual {gap[b]:.3e})")
        j = np.flatnonzero(over[b])[0]
        raise ModelError(f"||{'H' if j == 0 else f'L_{j - 1}'}|| = {float(norms[b, j])!r}{at} "
                         f"exceeds its declared bound {float(bounds[j])!r}")
    return H, norms


class Lindbladian:
    """Validated, immutable bundle of H, jump operators and their norm bounds.

    alpha0 bounds the spectral norm of H and each alphas[j] bounds the spectral
    norm of L_j; defaults are the exact norms of the symmetrized H and of each
    jump. The model contract is the one time-dependent models are held to:
    _check_bounds on the bounds and _check_stack on the operators, so
    a Hamiltonian within HERM_TOL of Hermitian is symmetrized on ingest and
    anything worse is rejected. The model keeps read-only copies of the
    caller's arrays: hamiltonian (d, d) and jumps, one (m, d, d) stack.
    """

    def __init__(self, hamiltonian, jumps=(), alpha0: float | None = None,
                 alphas=None):
        H, L = _stack([hamiltonian], [jumps])
        m = L.shape[1]
        declared = [None if a is None else float(a)
                    for a in (alpha0, *((None,) * m if alphas is None else alphas))]
        # an undeclared bound defaults to the exact norm, which passes the norm
        # check; the be-norm of the bounds is checked once all of them are known
        _check_bounds(0.0 if declared[0] is None else declared[0],
                      [a for a in declared[1:] if a is not None])
        bounds = [math.inf if a is None else a for a in declared]
        H, norms = _check_stack(H, L, bounds)
        H, L, norms = H[0], L[0], norms[0].tolist()

        H.setflags(write=False)
        L.setflags(write=False)
        self.hamiltonian = H
        self.jumps = L
        self.alpha0 = norms[0] if alpha0 is None else declared[0]
        self.alphas = tuple(norms[1:]) if alphas is None else tuple(declared[1:])
        _check_bounds(self.alpha0, self.alphas)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def num_jumps(self) -> int:
        return len(self.jumps)

    def __repr__(self):
        return (f"Lindbladian(dim={self.dim}, jumps={self.num_jumps}, "
                f"alpha0={self.alpha0:.6g}, alphas={[f'{a:.6g}' for a in self.alphas]})")


def be_norm(model) -> float:
    """Block-encoding norm beta = alpha0 + (1/2) sum_j alphas[j]^2 from the declared
    bounds of a Lindbladian or a timedep.TimeDependentLindbladian."""
    return model.alpha0 + 0.5 * sum(a * a for a in model.alphas)


def _drift_generator(H: np.ndarray, L: np.ndarray) -> np.ndarray:
    """J = -iH - (1/2) sum_j L_j^dag L_j for H (..., d, d) and jumps L (..., m, d, d);
    the sum runs over j in order."""
    LdL = L.conj().swapaxes(-1, -2) @ L
    J = -1j * H
    for j in range(L.shape[-3]):
        J = J - 0.5 * LdL[..., j, :, :]
    return J


def _liouvillian(H: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Vectorized generator, for H (..., d, d) and jumps L (..., m, d, d) as in
    _drift_generator: the drift part I kron J + conj(J) kron I plus the jump part
    sum_j conj(L_j) kron L_j, whose sum runs over j in order."""
    J, d = _drift_generator(H, L), L.shape[-1]
    S = np.zeros(L.shape[:-3] + (d * d, d * d), dtype=complex)
    for j in range(L.shape[-3]):
        S += kraus_superop(L[..., j, :, :])
    eye = np.eye(d)
    return kron(eye, J) + kron(J.conj(), eye) + S


def effective_generator(lind: Lindbladian) -> np.ndarray:
    """Drift matrix J = -iH - (1/2) sum_j L_j^dag L_j.

    Dissipative: every eigenvalue of J has nonpositive real part, so
    ||exp(J s)|| <= 1 for s >= 0.
    """
    return _drift_generator(lind.hamiltonian, lind.jumps)


def liouvillian_matrix(lind: Lindbladian) -> np.ndarray:
    """Vectorized full generator; equals drift + jump parts by construction."""
    return _liouvillian(lind.hamiltonian, lind.jumps)


def exact_channel(lind: Lindbladian, t: float) -> np.ndarray:
    """Superoperator matrix of exp(L t), the exact channel at time t."""
    check_time(t)
    return expm(liouvillian_matrix(lind) * t)


def amplitude_damping(gamma: float = 1.0) -> Lindbladian:
    """Single-qubit amplitude damping: H = 0, L = sqrt(gamma) |0><1|."""
    if gamma < 0:
        raise ArgumentError("gamma must be nonnegative")
    L = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return Lindbladian(np.zeros((2, 2)), [L])


def random_lindbladian(n_qubits: int, num_jumps: int = 1, seed=None,
                       h_norm: float | None = None,
                       jump_norm: float | None = None) -> Lindbladian:
    """Seeded random model: Hermitian H and dense jump operators with O(1) norms,
    or the spectral norms h_norm and jump_norm where given.

    Raises ArgumentError unless n_qubits >= 1, num_jumps >= 0 and seed >= 0
    are integers and each given norm is a nonnegative, finite real number."""
    check_count(n_qubits, "n_qubits", 1)
    check_count(num_jumps, "num_jumps", 0)
    for name, norm in (("h_norm", h_norm), ("jump_norm", jump_norm)):
        if norm is not None and (isinstance(norm, bool) or not isinstance(norm, numbers.Real)
                                 or not 0 <= norm < math.inf):
            raise ArgumentError(f"{name} must be a nonnegative, finite real number, got {norm!r}")
    if seed is not None:
        check_count(seed, "seed", 0)
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
