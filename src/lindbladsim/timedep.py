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
Liouvillian are built in one call. Validation policy: sample() checks
hermiticity and the declared norm bounds; propagators, jumps and RK4 use the
samples unchecked, and td_simulate checks each segment's probe grid as one
stack with the same validator, so declared-bound violations surface as model
errors naming the first failing time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InfeasiblePrecisionError, ModelError, ResourceLimitError
from .linalg import kraus_superop, unvec, vec
from .models import Lindbladian, _drift_generator, _liouvillian
from .quadrature import canonical_rule
from .series import (MAX_SAMPLER_CALLS, _WORK_BYTES, _chain_count, _report, _validate_rho0,
                     _zero_time_report, choose_orders_from_bounds, segment_time_from_bounds,
                     series_superop)


@dataclass(frozen=True)
class DysonConfig:
    """Truncation order and midpoint grid count per propagator interval."""

    order: int
    grid_points: int

    def __post_init__(self):
        if self.order < 0:
            raise ArgumentError("Dyson order must be nonnegative")
        if self.grid_points < 1:
            raise ArgumentError("grid count must be >= 1")


class TimeDependentLindbladian:
    """Sampler plus declared sup-norm bounds for H(t), L_j(t) and dJ/dt.

    The sampler must be pure in its time argument (it may be called
    concurrently and at repeated times).
    """

    def __init__(self, sampler, alpha0: float, alphas, jdot_bound: float):
        self.sampler = sampler
        self.alpha0 = float(alpha0)
        self.alphas = tuple(float(a) for a in alphas)
        self.jdot_bound = float(jdot_bound)
        if self.alpha0 < 0 or any(a < 0 for a in self.alphas) or self.jdot_bound < 0:
            raise ModelError("declared bounds must be nonnegative")
        self.dim = self.sample(0.0)[0].shape[0]

    @property
    def num_jumps(self) -> int:
        return len(self.alphas)

    @property
    def be_norm(self) -> float:
        return self.alpha0 + 0.5 * sum(a * a for a in self.alphas)

    @property
    def alpha_sq(self) -> float:
        return sum(a * a for a in self.alphas)

    def _check(self, times: np.ndarray, H: np.ndarray, L: np.ndarray) -> np.ndarray:
        """Validate stacked samples in time order; returns the symmetrized H.

        Raises ModelError at the first time whose H is not Hermitian or whose H or
        a jump exceeds its declared bound, naming that time."""
        if L.shape[1] != len(self.alphas):
            raise ModelError("sampler jump count must match declared alphas")
        Hd = H.conj().swapaxes(-1, -2)
        scale = np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))
        skew = np.abs(H - Hd).max(axis=(-2, -1)) > 1e-12 * scale
        H = (H + Hd) / 2
        norms = np.linalg.svd(np.concatenate([H[:, None], L], axis=1), compute_uv=False)[..., 0]
        bounds = np.array((self.alpha0,) + self.alphas)
        over = norms > bounds * (1 + 1e-9) + 1e-12
        bad = np.flatnonzero(skew | over.any(axis=1))
        if bad.size:
            b = bad[0]
            t = float(times[b])
            if skew[b]:
                raise ModelError(f"sampled Hamiltonian at t={t} is not Hermitian")
            if over[b, 0]:
                raise ModelError(f"||H({t})|| exceeds the declared bound {self.alpha0}")
            raise ModelError(f"a sampled jump norm at t={t} exceeds its declared bound")
        return H

    def sample(self, t: float):
        """Sample H(t), [L_j(t)] and enforce the declared invariants."""
        times = np.array([float(t)])
        H, L = _sample_stack(self, times)
        return self._check(times, H, L)[0], list(L[0])

    def effective_generator_at(self, t: float) -> np.ndarray:
        return _drift_generator(*self.sample(t))


def _sample_stack(tl: TimeDependentLindbladian, times: np.ndarray):
    """Unchecked samples at each time, in order, one sampler call per time:
    H as (B, d, d) and the jumps as (B, m, d, d)."""
    times = np.asarray(times, dtype=float).ravel()
    H, L = [], []
    for tau in times.tolist():
        Hb, Ls = tl.sampler(tau)
        H.append(Hb)
        L.append(Ls)
    H, L = np.array(H, dtype=complex), np.array(L, dtype=complex)
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
    beta = tl.be_norm
    return ((beta * delta) ** (cfg.order + 1) / math.factorial(cfg.order + 1)
            + delta ** 2 * tl.jdot_bound / cfg.grid_points)


def _segment_superop(tl: TimeDependentLindbladian, a: float, delta: float,
                     K: int, q: int, cfg: DysonConfig) -> np.ndarray:
    """Superoperator for the segment [a, a + delta]: the jump-free term plus depth
    1..K chains, from the static pipeline's series engine run on segment-relative
    times with ordered propagators and jumps sampled at the nodes."""
    def propagate(s, u):
        return _batched_propagator(tl, a + s, a + u, cfg)

    def jumps(u):
        return _sample_stack(tl, a + u)[1]

    if K == 0 or tl.num_jumps == 0:
        return kraus_superop(propagate(np.zeros(1), np.array([delta]))[0])
    return series_superop(propagate, jumps, canonical_rule(q, delta), K,
                          tl.num_jumps, tl.dim)


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
    """Dense classical Runge-Kutta integration of the vectorized master equation."""
    if step <= 0:
        raise ArgumentError("step must be positive")
    n = max(1, math.ceil(t / step - 1e-12))
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


def _segment_search(tl: TimeDependentLindbladian, t: float, eps: float):
    """Pick a segment count minimizing estimated chain work.

    Any count at or above the budget-derived minimum keeps the normalizer
    budget valid; more, shorter segments shrink the chain tree exponentially,
    which dominates total cost because time-ordered segments cannot share one
    superoperator. Returns (n_seg, orders) for the cheapest power-of-two
    multiple of the minimum.
    """
    beta, alpha_sq = tl.be_norm, tl.alpha_sq
    tstar = segment_time_from_bounds(beta, alpha_sq, cap=t)
    n0 = max(1, math.ceil(t / tstar - 1e-12))
    best = None
    for i in range(9):
        n = n0 * (2 ** i)
        try:
            orders = choose_orders_from_bounds(beta, alpha_sq, t / n, eps / n)
        except InfeasiblePrecisionError:
            continue
        work = n * _chain_count(max(tl.num_jumps, 1), orders.quadrature_order,
                                orders.series_order)
        if best is None or work < best[0]:
            best = (work, n, orders)
    if best is None:
        orders = choose_orders_from_bounds(beta, alpha_sq, t / n0, eps / n0)
        best = (0, n0, orders)
    return best[1], best[2]


def td_simulate(tl: TimeDependentLindbladian, rho0: np.ndarray, t: float, eps: float,
                cfg: DysonConfig | None = None, segments: int | None = None):
    """Time-ordered analogue of simulate; returns (rho, report, dyson_config).

    Segmentation and (K, q) come from the same be-norm budget machinery as the
    static pipeline, with declared bounds standing in for exact norms; the
    segment count is raised above the budget minimum when that lowers the total
    chain work. The propagator truncation order defaults to the static
    Taylor-order criterion and the grid count to a heuristic calibrated to the
    midpoint product's measured quadratic convergence (the reported contract
    uses the declared first-order rate). Pass cfg or segments to override.

    Sampling is the run's cost, so before the first probe it raises
    ResourceLimitError when the run would make more than MAX_SAMPLER_CALLS
    sampler calls; the series engine's own node and byte caps still apply.
    """
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    if eps <= 0:
        raise ArgumentError(f"target precision must be positive, got {eps}")
    rho = _validate_rho0(rho0, tl.dim)
    if t == 0.0:
        return rho, _zero_time_report(eps), cfg or DysonConfig(0, 1)

    beta, alpha_sq = tl.be_norm, tl.alpha_sq
    if segments is None:
        n_seg, orders = _segment_search(tl, t, eps)
    else:
        if segments < 1:
            raise ArgumentError("segment count must be >= 1")
        n_seg = segments
        orders = choose_orders_from_bounds(beta, alpha_sq, t / segments, eps / segments)
    delta = t / n_seg
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
        tl._check(probes, *_sample_stack(tl, probes))
        S = _segment_superop(tl, a, delta, K, q, cfg)
        v = S @ v
    rho_out = unvec(v)
    return rho_out, _report(t, eps, n_seg, K, cfg.order, q, tl.num_jumps, beta, alpha_sq,
                            rho_out), cfg
