"""Time-ordered extension: discretized Dyson propagators for drifting models.

The drift factor exp(J s) becomes the time-ordered propagator V(s, t) of
J(tau) = -i H(tau) - (1/2) sum_j L_j(tau)^dag L_j(tau). V is approximated by
the order-Kd truncation of the discretized Dyson sum over an M-point midpoint
grid on [s, t],

    sum_{k<=Kd} (delta^k / (M^k k!)) sum_tuples T[J(t_{j_k}) ... J(t_{j_1})],

which is computed as the product over midpoints of the graded factors
F_r = (J(t_j) delta / M)^r / r!, r <= Kd, later midpoints on the left,
truncated at total grade Kd (the two forms agree term by term). Truncation
keeps the product associative, so it is reduced pairwise as a tree rather than
one midpoint at a time. For constant J this reproduces the order-Kd Taylor
polynomial of exp(J delta) exactly, and the per-interval error contract is

    O(||J||_max^{Kd+1} delta^{Kd+1} / (Kd+1)! + delta^2 ||dJ/dt||_max / M).

Norm bounds and the generator derivative bound are declared by the caller,
never estimated from samples. Sampling is batched: every time a step needs
(the midpoints of all its intervals, the jump nodes of a series level, a
segment's probes, a chunk of RK4 half-steps) is sampled by one helper, one
sampler call per time, into stacked H and L arrays, from which J and the
Liouvillian are built in one call. Validation policy: a time-dependent
model meets the one model contract of lindbladsim.models, as a static one
does. The constructor checks the declared bounds (models._check_bounds), and
sample() checks its sample (models._check_stack: finite entries, a Hermitian
H, norms within the declared bounds). Propagators, jumps and RK4 use the
samples unchecked; td_simulate checks each segment's probe grid as one stack
with the same _check_stack, so declared-bound violations surface as model
errors naming the first failing time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, ModelError, ResourceLimitError, check_count, check_time
from .linalg import unvec, vec
from .models import (Lindbladian, _check_bounds, _check_stack, _drift_generator, _liouvillian,
                     be_norm)
from .series import (MAX_SAMPLER_CALLS, _WORK_BYTES, _plan, _report, _validate_rho0,
                     _zero_time_report, series_superop)


@dataclass(frozen=True)
class DysonConfig:
    """Truncation order and midpoint grid count per propagator interval."""

    order: int
    grid_points: int

    def __post_init__(self):
        check_count(self.order, "Dyson order", 0)
        check_count(self.grid_points, "grid count", 1)


class TimeDependentLindbladian:
    """Sampler plus declared sup-norm bounds for H(t), L_j(t) and dJ/dt.

    The sampler must be pure in its time argument (it may be called
    concurrently and at repeated times). The model contract is the static
    Lindbladian's: models._check_bounds on the declared bounds here, and
    models._check_stack on every sample() and on td_simulate's probes.
    """

    def __init__(self, sampler, alpha0: float, alphas, jdot_bound: float):
        self.sampler = sampler
        self.alpha0 = float(alpha0)
        self.alphas = tuple(float(a) for a in alphas)
        self.jdot_bound = float(jdot_bound)
        _check_bounds(self.alpha0, *self.alphas, self.jdot_bound)
        self.dim = self.sample(0.0)[0].shape[0]

    @property
    def num_jumps(self) -> int:
        return len(self.alphas)

    def sample(self, t: float):
        """Sample H(t), [L_j(t)] and enforce the declared invariants."""
        times = np.array([float(t)])
        H, L = _sample_stack(self, times)
        return _check_stack(H, L, (self.alpha0, *self.alphas), times)[0], list(L[0])


def _sample_stack(tl: TimeDependentLindbladian, times: np.ndarray):
    """Unchecked samples at each time, in order, one sampler call per time:
    H as (B, d, d) and the jumps, which must be d x d too, as (B, m, d, d)."""
    times = np.asarray(times, dtype=float).ravel()
    H, L = [], []
    for tau in times.tolist():
        Hb, Ls = tl.sampler(tau)
        H.append(Hb)
        L.append(Ls)
    H = np.array(H, dtype=complex)
    try:
        L = np.array(L, dtype=complex)
    except ValueError as ex:
        raise ModelError(f"sampler jumps must all have shape {H.shape[1:]}") from ex
    if L.size and L.shape[2:] != H.shape[1:]:
        raise ModelError(f"sampler jumps must all have shape {H.shape[1:]}, got {L.shape[2:]}")
    return H, L if L.size else np.empty(H.shape[:1] + (0,) + H.shape[1:], dtype=complex)


def from_static(lind: Lindbladian) -> TimeDependentLindbladian:
    """Wrap a static model as a constant sampler with zero derivative bound."""
    H = lind.hamiltonian
    Ls = lind.jumps
    return TimeDependentLindbladian(lambda t: (H, Ls), lind.alpha0, lind.alphas, 0.0)


def _batched_propagator(tl: TimeDependentLindbladian, s: np.ndarray, t: np.ndarray,
                        cfg: DysonConfig) -> np.ndarray:
    """Order-truncated midpoint-product propagators over a batch of intervals,
    taken in chunks of intervals whose (Kd+1, M, B, d, d) factor stack stays
    under _WORK_BYTES."""
    d, B = tl.dim, s.shape[0]
    M, Kd = cfg.grid_points, cfg.order
    chunk = max(1, _WORK_BYTES // (16 * (Kd + 1) * M * d * d))
    out = np.empty((B, d, d), dtype=complex)
    for start in range(0, B, chunk):
        sl = slice(start, min(start + chunk, B))
        out[sl] = _midpoint_product(tl, s[sl], t[sl], M, Kd)
    return out


def _midpoint_product(tl: TimeDependentLindbladian, s: np.ndarray, t: np.ndarray,
                      M: int, Kd: int) -> np.ndarray:
    """Product over the M midpoints of their graded factors F_r = (J delta)^r / r!,
    later midpoints on the left, truncated at total grade Kd and summed.

    The truncated graded product is associative, so it is reduced pairwise: A
    (later) times B has grades C_p = A_p + B_p + [A_1 ... A_{p-1}] [B_{p-1} ... B_1],
    one matmul over the stacked inner dimension per grade."""
    d, B = tl.dim, s.shape[0]
    step = (t - s) / M
    taus = s + (np.arange(M)[:, None] + 0.5) * step
    J = _drift_generator(*_sample_stack(tl, taus)).reshape(M, B, d, d)
    J *= step[:, None, None]
    F = np.empty((M, B, Kd, d, d), dtype=complex)  # grades 1..Kd; grade 0 is I
    if Kd:
        F[:, :, 0] = J
    for r in range(1, Kd):
        F[:, :, r] = (F[:, :, r - 1] @ J) / (r + 1)
    while F.shape[0] > 1:
        n = F.shape[0]
        A, Bf = F[1::2], F[0:n - 1:2]
        C = A + Bf
        for p in range(2, Kd + 1):
            left = A[:, :, :p - 1].transpose(0, 1, 3, 2, 4).reshape(n // 2, B, d, (p - 1) * d)
            right = Bf[:, :, p - 2::-1].reshape(n // 2, B, (p - 1) * d, d)
            C[:, :, p - 1] += left @ right
        F = np.concatenate([C, F[n - 1:]]) if n % 2 else C
    return np.eye(d) + F[0].sum(axis=1)


def ordered_propagator(tl: TimeDependentLindbladian, s: float, t: float,
                       cfg: DysonConfig) -> np.ndarray:
    """Order-truncated midpoint-grid approximation of the ordered exponential."""
    if t < s:
        raise ArgumentError(f"propagator needs s <= t, got s={s}, t={t}")
    if t == s:
        return np.eye(tl.dim, dtype=complex)
    return _batched_propagator(tl, np.array([float(s)]), np.array([float(t)]), cfg)[0]


def dyson_contract(tl: TimeDependentLindbladian, delta: float, cfg: DysonConfig) -> float:
    """Stated per-interval error contract of ordered_propagator."""
    beta = be_norm(tl)
    return ((beta * delta) ** (cfg.order + 1) / math.factorial(cfg.order + 1)
            + delta ** 2 * tl.jdot_bound / cfg.grid_points)


def _segment_superop(tl: TimeDependentLindbladian, a: float, delta: float,
                     K: int, q: int, cfg: DysonConfig) -> np.ndarray:
    """Superoperator for the segment [a, a + delta] at every order: the static
    pipeline's series engine run on segment-relative times with ordered
    propagators and jumps sampled at the nodes."""
    def propagate(s, u):
        return _batched_propagator(tl, a + s, a + u, cfg)

    def jumps(u):
        return _sample_stack(tl, a + u)[1]

    return series_superop(propagate, jumps, delta, q, K, tl.num_jumps, tl.dim)


_PROBES = 17  # validating samples per segment
_RK4_STEPS = 256  # RK4 steps whose Liouvillians are built in one stacked call


def _segment_sampler_calls(K: int, q: int, m: int, M: int) -> int:
    """Sampler calls td_simulate makes per segment: the probes, M per propagator
    interval and one per jump node. series_superop asks for (q+1) C(q+K-1, K-1)
    intervals over depths 0..K-1 plus C(q+K-1, K) for the leaves, and for the
    jumps at the C(q+K, K) - 1 nodes of depths 1..K."""
    if K == 0 or m == 0:
        return _PROBES + M
    return (_PROBES + M * ((q + 1) * math.comb(q + K - 1, K - 1) + math.comb(q + K - 1, K))
            + math.comb(q + K, K) - 1)


def rk4_reference(tl: TimeDependentLindbladian, rho0: np.ndarray, t: float,
                  step: float) -> np.ndarray:
    """Dense classical Runge-Kutta integration of the vectorized master equation.

    Raises ResourceLimitError before the first sample when its 2n + 1 sampler
    calls, n = ceil(t / step), would exceed MAX_SAMPLER_CALLS."""
    check_time(t)
    check_time(step, "step", positive=True)
    ratio = t / step  # inf when a tiny step overflows it
    n = max(1, math.ceil(ratio - 1e-12)) if ratio < math.inf else math.inf
    if 2 * n + 1 > MAX_SAMPLER_CALLS:
        raise ResourceLimitError(f"RK4 reference at step {step} would make {2 * n + 1:.9g} > "
                                 f"{MAX_SAMPLER_CALLS} sampler calls")
    h = t / n
    v = vec(np.asarray(rho0, dtype=complex))
    d2 = tl.dim ** 2
    # Liouvillians at the 2n+1 half-step times, built a chunk of steps at a time;
    # each step's end starts the next step, across chunks too
    chunk = max(1, min(_RK4_STEPS, _WORK_BYTES // (2 * 16 * d2 * d2)))
    L_start = _liouvillian(*_sample_stack(tl, np.zeros(1)))[0]
    for i0 in range(0, n, chunk):
        tau = np.arange(i0, min(i0 + chunk, n)) * h
        times = np.stack([tau + h / 2, tau + h], axis=1)
        for Lmid, L_end in _liouvillian(*_sample_stack(tl, times)).reshape(-1, 2, d2, d2):
            k1 = L_start @ v
            k2 = Lmid @ (v + h / 2 * k1)
            k3 = Lmid @ (v + h / 2 * k2)
            k4 = L_end @ (v + h * k3)
            v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            L_start = L_end
    return unvec(v)


def td_simulate(tl: TimeDependentLindbladian, rho0: np.ndarray, t: float, eps: float,
                cfg: DysonConfig | None = None, segments: int | None = None):
    """Time-ordered analogue of simulate; returns (rho, report, dyson_config).

    Segmentation and (K, q) come from the static pipeline's planner, which reads
    the declared bounds. It takes the multiple n0 2^i (i <= 8) of the budget
    minimum n0 with the least total chain work, since more, shorter segments
    shrink the chain tree exponentially and time-ordered segments cannot share
    one superoperator. The propagator truncation order defaults to the static
    Taylor-order criterion and the grid count to a heuristic calibrated to the
    midpoint product's measured quadratic convergence (the reported contract
    uses the declared first-order rate). Pass cfg or segments to override; a
    segments count below the budget minimum n0 raises ArgumentError.

    Sampling is the run's cost, so before the first probe it raises
    ResourceLimitError when the run would make more than MAX_SAMPLER_CALLS
    sampler calls; the series engine's own node and byte caps still apply.
    """
    check_time(t)
    check_time(eps, "target precision", positive=True)
    rho = _validate_rho0(rho0, tl.dim)
    if t == 0.0:
        return rho, _zero_time_report(eps), cfg or DysonConfig(0, 1)

    if segments is not None:
        check_count(segments, "segment count", 1)
    counts = (lambda n0: (segments,)) if segments else (lambda n0: [n0 * 2 ** i for i in range(9)])
    orders = _plan(tl, t, eps, counts)
    n_seg, delta = orders.num_segments, orders.segment_time
    K, q = orders.series_order, orders.quadrature_order
    if cfg is None:
        if tl.jdot_bound == 0.0:
            grid = 1
        else:
            first_order = delta ** 2 * tl.jdot_bound / (eps / n_seg)
            grid = int(min(256, max(16, math.ceil(math.sqrt(first_order)))))
        cfg = DysonConfig(order=orders.taylor_order, grid_points=grid)
    calls = n_seg * _segment_sampler_calls(K, q, tl.num_jumps, cfg.grid_points)
    if calls > MAX_SAMPLER_CALLS:
        raise ResourceLimitError(
            f"time-ordered run would make {calls} > {MAX_SAMPLER_CALLS} sampler calls; "
            "lower the precision or the horizon")

    v = vec(rho)
    for i in range(n_seg):
        a = i * delta
        probes = np.linspace(a, a + delta, _PROBES)
        _check_stack(*_sample_stack(tl, probes), (tl.alpha0, *tl.alphas), probes)
        S = _segment_superop(tl, a, delta, K, q, cfg)
        v = S @ v
    rho_out = unvec(v)
    return rho_out, _report(tl, t, eps, replace(orders, taylor_order=cfg.order), rho_out), cfg
