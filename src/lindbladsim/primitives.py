"""Matrix-level realizations of the quantum primitives behind the algorithm.

Everything here manipulates dense unitaries and state vectors; registers are
tensor factors, ordered (index register) kron (encoding ancilla) kron (system),
with any dilution ancilla appended last. A block-encoding stores the unitary
together with its normalizer alpha, its ancilla factor, the matrix it encodes
and a declared error, so every consumer can check extraction against contract.

The linear-combination construction applied to the Kraus family sends
|mu>|0>|psi> to sum_j s_j |j> (A_j/s_j)|psi> / sqrt(sum s^2) plus a part with
nonzero encoding ancilla; projecting the ancilla onto zero leaves the channel
application with success amplitude sqrt(<psi| sum A^dag A |psi> / sum s^2),
at least 1/2 on a budgeted segment. One round of oblivious amplitude
amplification, after diluting the amplitude to exactly 1/2, lifts it to one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from .errors import ArgumentError, ContractError, check_count, check_time
from .linalg import dag, spectral_norm
from .models import amplitude_damping, be_norm
from .quadrature import canonical_rule
from .series import CPMapApprox, choose_orders, segment_time


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """Unitary on ancilla kron system whose top-left block is target / alpha.

    ||target - alpha * block|| <= epsilon is the declared contract.
    """

    unitary: np.ndarray
    alpha: float
    ancilla_dim: int
    target: np.ndarray
    epsilon: float = 0.0

    @property
    def dim(self) -> int:
        return self.target.shape[0]

    def block(self) -> np.ndarray:
        """alpha times the encoded top-left block."""
        a, d = self.ancilla_dim, self.dim
        U4 = self.unitary.reshape(a, d, a, d)
        return self.alpha * U4[0, :, 0, :]

    def extraction_error(self) -> float:
        return spectral_norm(self.target - self.block())


def _finite(x, name: str) -> np.ndarray:
    """x as a complex array, after raising ArgumentError unless every entry is finite."""
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise ArgumentError(f"{name} must be finite")
    return x


def dilate(A: np.ndarray, alpha: float) -> BlockEncoding:
    """Exact one-ancilla block-encoding by unitary completion.

    U = [[A/alpha, sqrt(I - A A^dag / alpha^2)],
         [sqrt(I - A^dag A / alpha^2), -A^dag / alpha]].

    Both square roots come from one SVD A / alpha = W S V^dag, as
    W sqrt(1 - S^2) W^dag and V sqrt(1 - S^2) V^dag, so they complete a unitary
    even when ||A|| = alpha makes I - A A^dag / alpha^2 singular. A must be
    finite, with ||A|| <= alpha, or ArgumentError is raised.
    """
    A = _finite(A, "A")
    check_time(alpha, "normalizer", positive=True)
    B = A / alpha
    Wl, sv, Vh = np.linalg.svd(B)
    if sv[0] > 1 + 1e-12:
        raise ArgumentError(
            f"cannot encode: ||A|| = {sv[0] * alpha:.6g} exceeds alpha = {alpha:.6g}")
    c = np.sqrt(np.clip(1.0 - sv * sv, 0.0, None))
    S_top = (Wl * c) @ dag(Wl)
    S_bot = (dag(Vh) * c) @ Vh
    U = np.block([[B, S_top], [S_bot, -dag(B)]])
    return BlockEncoding(unitary=U, alpha=float(alpha), ancilla_dim=2,
                         target=A, epsilon=0.0)


def _prep_unitary(amplitudes: np.ndarray) -> np.ndarray:
    """Deterministic unitary sending e_0 to the given real unit vector."""
    v = np.asarray(amplitudes, dtype=float)
    n = v.size
    e0 = np.zeros(n)
    e0[0] = 1.0
    w = e0 - v
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n)
    w = w / nw
    return np.eye(n) - 2.0 * np.outer(w, w)


def _pad_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _select_unitary(encodings, pad_to: int) -> np.ndarray:
    """sum_j |j><j| kron U_j, identity on padding slots."""
    pad = np.eye(encodings[0].ancilla_dim * encodings[0].dim, dtype=complex)
    return block_diag(*[e.unitary for e in encodings], *[pad] * (pad_to - len(encodings)))


def _shared_registers(encodings, caller: str) -> tuple[int, int]:
    """(system, ancilla) dimensions of a non-empty list of encodings that share them."""
    if not encodings:
        raise ArgumentError(f"{caller} needs at least one encoding")
    d, a = encodings[0].dim, encodings[0].ancilla_dim
    if any(e.dim != d or e.ancilla_dim != a for e in encodings):
        raise ArgumentError("encodings must share system and ancilla dimensions")
    return d, a


def lcu_sum(encodings, y) -> BlockEncoding:
    """Block-encoding of sum_j y_j A_j with normalizer s = sum_j y_j alpha_j.

    The index register is padded to a power of two; its preparation unitary B
    satisfies B e_0 = sum_j sqrt(y_j alpha_j / s) |j>, and the combined unitary
    is (B^dag kron I) select (B kron I). Declared error: sum_j y_j alpha_j eps_j.
    """
    encodings = list(encodings)
    y = [float(c) for c in y]
    d, a = _shared_registers(encodings, "lcu_sum")
    if len(y) != len(encodings):
        raise ArgumentError("coefficient list must match encodings")
    for c in y:
        check_time(c, "coefficient")
    s = sum(c * e.alpha for c, e in zip(y, encodings))
    if s <= 0:
        raise ArgumentError("total normalizer must be positive")
    Mp = _pad_pow2(len(encodings))
    amps = np.zeros(Mp)
    for j, (c, e) in enumerate(zip(y, encodings)):
        amps[j] = math.sqrt(c * e.alpha / s)
    B = _prep_unitary(amps)
    sel = _select_unitary(encodings, Mp)
    Bfull = np.kron(B, np.eye(a * d))
    W = dag(Bfull) @ sel @ Bfull
    target = sum(c * e.target for c, e in zip(y, encodings))
    eps = sum(c * e.alpha * e.epsilon for c, e in zip(y, encodings))
    return BlockEncoding(unitary=W, alpha=float(s), ancilla_dim=Mp * a,
                         target=target, epsilon=float(eps))


# ---------------------------------------------------------------------------
# channel application via LCU over the Kraus family


@dataclass(frozen=True, eq=False)
class MuState:
    """Preparation amplitudes over the Kraus index set, A_0 first, and the
    per-register factorization metadata for each chain depth."""

    amplitudes: np.ndarray
    sum_s_squares: float
    register_factors: dict


def mu_coefficients(cp: CPMapApprox) -> MuState:
    """Normalized preparation amplitudes proportional to the term normalizers.

    For depth k the unnormalized amplitude factorizes per register:
    t^{-k(k-1)/4} * prod_i alpha_{l_i} * prod_i sqrt(w_{j_i} shat_{j_i}^{i-1}).
    """
    s_vals = np.concatenate([norms for *_, norms in cp.term_blocks()])
    total = float(np.sum(s_vals ** 2))
    factors = {}
    alphas = np.asarray(cp.lind.alphas, dtype=float)
    if cp.term_count > 1:  # the family has terms of depth 1 or deeper
        rule = canonical_rule(cp.config.quadrature_order, cp.t)
        shat, what = rule.nodes, rule.weights
        for k in range(1, cp.config.series_order + 1):
            factors[k] = {
                "k_factor": cp.t ** (-k * (k - 1) / 4.0),
                "jump_factor": alphas.copy(),
                "node_factors": [np.sqrt(what * shat ** (i - 1)) for i in range(1, k + 1)],
            }
    return MuState(amplitudes=s_vals / math.sqrt(total), sum_s_squares=total,
                   register_factors=factors)


@dataclass(frozen=True, eq=False)
class ChannelApplication:
    """Result of applying the select unitary to |mu>|0>|psi>."""

    select: np.ndarray
    mu: np.ndarray
    sum_s_squares: float
    index_dim: int
    ancilla_dim: int
    dim: int
    psi_hat: np.ndarray
    branch: np.ndarray
    residual: float
    residual_bound: float
    success_amplitude: float


def lcu_channel(encodings, psi) -> ChannelApplication:
    """Apply the LCU of Kraus-term encodings to a finite, normalized system state.

    Verifies the extraction identity: the zero-ancilla branch of
    select |mu>|0>|psi> equals sum_j s_j |j> (A_j/s_j) |psi| / sqrt(sum s^2)
    up to m * eps / sqrt(sum s^2) for encodings with declared error eps.
    """
    encodings = list(encodings)
    d, a = _shared_registers(encodings, "lcu_channel")
    psi = _finite(psi, "psi").reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ArgumentError("psi must be normalized")
    if psi.size != d:
        raise ArgumentError(f"psi has dimension {psi.size}, expected {d}")
    M = len(encodings)
    Mp = _pad_pow2(M)
    s_vals = np.array([e.alpha for e in encodings])
    total = float(np.sum(s_vals ** 2))
    mu = np.zeros(Mp)
    mu[:M] = s_vals / math.sqrt(total)
    sel = _select_unitary(encodings, Mp)

    zero_anc = np.zeros(a)
    zero_anc[0] = 1.0
    psi_hat = np.kron(mu, np.kron(zero_anc, psi))
    applied = sel @ psi_hat
    branch = applied.reshape(Mp, a, d)[:, 0, :]

    target = np.zeros((Mp, d), dtype=complex)
    for j, e in enumerate(encodings):
        target[j] = (e.target @ psi) / math.sqrt(total)
    residual = float(np.linalg.norm(branch - target))
    eps_max = max(e.epsilon for e in encodings)
    return ChannelApplication(
        select=sel, mu=mu, sum_s_squares=total,
        index_dim=Mp, ancilla_dim=a, dim=d, psi_hat=psi_hat, branch=branch,
        residual=residual,
        residual_bound=M * eps_max / math.sqrt(total),
        success_amplitude=float(np.linalg.norm(branch)),
    )


def channel_projectors(app: ChannelApplication):
    """(P0, P1) for amplification: P0 fixes the encoding ancilla at zero,
    P1 projects onto the prepared |mu>|0> ancilla configuration."""
    proj0 = np.zeros((app.ancilla_dim, app.ancilla_dim))
    proj0[0, 0] = 1.0
    P0 = np.kron(np.eye(app.index_dim), np.kron(proj0, np.eye(app.dim)))
    P1 = np.kron(np.outer(app.mu, app.mu.conj()), np.kron(proj0, np.eye(app.dim)))
    return P0, P1


# ---------------------------------------------------------------------------
# oblivious amplitude amplification


def oaa_step(W: np.ndarray, P0: np.ndarray, P1: np.ndarray, psi_hat: np.ndarray,
             tol: float = 1e-6) -> np.ndarray:
    """One exact amplification round: -W (I - 2 P1) W^dag (I - 2 P0) W |psi_hat>.

    Requires a finite W and psi_hat (ArgumentError) and the success amplitude
    ||P0 W psi_hat|| to equal 1/2 within tol (ContractError, also for a NaN
    amplitude); under the oblivious premise the output is exactly the success
    state.
    """
    check_time(tol, "tol", positive=True)
    _finite(W, "W")
    psi_hat = _finite(psi_hat, "psi_hat").reshape(-1)
    a = W @ psi_hat
    amp = float(np.linalg.norm(P0 @ a))
    if not abs(amp - 0.5) <= tol:
        raise ContractError(
            f"success amplitude {amp:.8f} deviates from 1/2 beyond {tol}", measured=amp)
    n = W.shape[0]
    I = np.eye(n)
    return -(W @ ((I - 2 * P1) @ (dag(W) @ ((I - 2 * P0) @ a))))


def dilute(success_amp: float, W: np.ndarray | None = None):
    """Rotation angle (and optionally the extended unitary) bringing a known
    success amplitude in [1/2, 1] down to exactly 1/2 via one appended ancilla.

    The ancilla starts in |0>, the rotation R(theta) with theta =
    arccos(1/(2 amp)) multiplies the success amplitude by cos(theta);
    projectors must be extended with kron(P, |0><0|).
    """
    if not (0.5 - 1e-12 <= success_amp <= 1.0 + 1e-12):
        raise ArgumentError(
            f"dilution needs success amplitude in [1/2, 1], got {success_amp}")
    amp = min(max(success_amp, 0.5), 1.0)
    theta = math.acos(1.0 / (2.0 * amp))
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    if W is None:
        return theta, None
    return theta, np.kron(W, R)


def extend_with_ancilla(op: np.ndarray, state: bool = False) -> np.ndarray:
    """kron with the dilution ancilla: |0><0| for projectors, |0> for states."""
    if state:
        return np.kron(np.asarray(op), np.array([1.0, 0.0]))
    return np.kron(np.asarray(op), np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# self-verification


def _check(measured: float, threshold: float) -> dict:
    return {"pass": bool(measured <= threshold), "measured": float(measured),
            "threshold": float(threshold)}


def verification_matrix(seed: int = 0) -> dict:
    """Run the primitive invariants on seeded instances; returns a pass/fail
    matrix keyed by invariant name. Deterministic given the seed, a nonnegative
    integer."""
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    out = {}

    d = 4
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    alpha = spectral_norm(A)
    enc = dilate(A, alpha)
    U = enc.unitary
    out["dilation_unitarity"] = _check(
        spectral_norm(dag(U) @ U - np.eye(U.shape[0])), 1e-11)
    out["dilation_extraction"] = _check(enc.extraction_error(), 1e-12)

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    combo = lcu_sum([dilate(X, 1.0), dilate(Z, 1.0)], [1.0, 1.0])
    out["sum_unitarity"] = _check(
        spectral_norm(dag(combo.unitary) @ combo.unitary - np.eye(combo.unitary.shape[0])),
        1e-11)
    out["sum_extraction"] = _check(combo.extraction_error(), 1e-12)

    lind = amplitude_damping(1.0)
    seg = segment_time(lind)
    cfg = choose_orders(lind, seg, 1e-2)
    cp = CPMapApprox(lind, seg, cfg)
    terms = list(cp.iter_terms())
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = psi / np.linalg.norm(psi)

    worst = 0.0
    for eps in (0.0, 1e-8, 1e-6):
        encs = []
        for term in terms:
            Aj = term.operator
            if eps > 0.0:
                G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                G *= eps / spectral_norm(G)
            else:
                G = np.zeros((2, 2))
            encs.append(replace(dilate(Aj + G, term.normalizer), target=Aj, epsilon=eps))
        app = lcu_channel(encs, psi)
        slack = app.residual - app.residual_bound
        worst = max(worst, slack)
    out["channel_residual_contract"] = _check(worst, 1e-13)

    encs = [dilate(term.operator, term.normalizer) for term in terms]
    app = lcu_channel(encs, psi)
    out["success_amplitude_quarter"] = {
        "pass": bool(app.success_amplitude ** 2 >= 0.25),
        "measured": float(app.success_amplitude ** 2), "threshold": 0.25}

    rho_cp = cp.apply(np.outer(psi, psi.conj()))
    sigma = np.einsum("ji,jk->ik", app.branch, app.branch.conj())
    out["channel_equivalence"] = _check(
        np.abs(sigma * app.sum_s_squares - rho_cp).max(), 1e-9)

    # premise-exact instance: trace-preserving Kraus pair, amplitude 1 for
    # every input, diluted down to exactly 1/2 (the end-segment pattern)
    half = 1.0 / math.sqrt(2.0)
    tp_encs = [dilate(half * np.eye(2, dtype=complex), half), dilate(half * X, half)]
    tp_app = lcu_channel(tp_encs, psi)
    _, Wd = dilute(tp_app.success_amplitude, tp_app.select)
    P0, P1 = channel_projectors(tp_app)
    P0d = extend_with_ancilla(P0)
    P1d = extend_with_ancilla(P1)
    psi_hat_d = extend_with_ancilla(tp_app.psi_hat, state=True)
    outv = oaa_step(Wd, P0d, P1d, psi_hat_d)
    good = P0d @ (Wd @ psi_hat_d)
    good = good / np.linalg.norm(good)
    out["oaa_identity"] = _check(np.linalg.norm(outv - good), 1e-10)

    th1, _ = dilute(1.0)
    out["dilution_angle"] = _check(abs(th1 - math.pi / 3), 1e-12)

    mu = mu_coefficients(cp)
    beta = be_norm(lind)
    resid = 0.0
    for term in terms:
        k, ells, js = term.index
        f = 1.0
        if k > 0:
            f = mu.register_factors[k]["k_factor"]
            for ell in ells:
                f *= mu.register_factors[k]["jump_factor"][ell]
            for i, j in enumerate(js):
                f *= mu.register_factors[k]["node_factors"][i][j]
        f *= math.exp(beta * seg)
        resid = max(resid, abs(term.normalizer - f))
    out["mu_factorization"] = _check(resid, 1e-12)

    return out
