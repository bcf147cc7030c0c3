"""Time-ordered extension: discretized Dyson propagators for drifting models.

The drift factor exp(J s) becomes the time-ordered propagator V(s, t) of
J(tau) = -i H(tau) - (1/2) sum_j L_j(tau)^dag L_j(tau). V is approximated by
the order-Kd truncation of the discretized Dyson sum over an M-point midpoint
grid on [s, t],

    sum_{k<=Kd} (delta^k / (M^k k!)) sum_tuples T[J(t_{j_k}) ... J(t_{j_1})],

which is computed as a product of per-midpoint Taylor factors truncated at
total order Kd (the two forms agree term by term). For constant J this
reproduces the order-Kd Taylor polynomial of exp(J delta) exactly, and the
per-interval error contract is

    O(||J||_max^{Kd+1} delta^{Kd+1} / (Kd+1)! + delta^2 ||dJ/dt||_max / M).

Norm bounds and the generator derivative bound are declared by the caller,
never estimated from samples. Validation policy: sample() always checks
hermiticity and the declared norm bounds; the inner integration loops use an
unchecked fast path for speed, and td_simulate spot-checks a per-segment probe
grid through the validating path so declared-bound violations surface as model
errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InfeasiblePrecisionError, ModelError, ResourceLimitError
from .linalg import kraus_superop, spectral_norm, unvec, vec
from .models import Lindbladian, _drift_generator, _liouvillian
from .quadrature import canonical_rule
from .series import (MAX_SAMPLER_CALLS, _chain_count, _report, _validate_rho0,
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
        H0, Ls0 = self.sample(0.0)
        self.dim = H0.shape[0]
        if len(Ls0) != len(self.alphas):
            raise ModelError("sampler jump count must match declared alphas")

    @property
    def num_jumps(self) -> int:
        return len(self.alphas)

    @property
    def be_norm(self) -> float:
        return self.alpha0 + 0.5 * sum(a * a for a in self.alphas)

    @property
    def alpha_sq(self) -> float:
        return sum(a * a for a in self.alphas)

    def _sample_raw(self, t: float):
        H, Ls = self.sampler(t)
        return np.asarray(H, dtype=complex), [np.asarray(L, dtype=complex) for L in Ls]

    def sample(self, t: float):
        """Sample H(t), [L_j(t)] and enforce the declared invariants."""
        H, Ls = self._sample_raw(t)
        scale = max(1.0, float(np.abs(H).max()))
        if np.abs(H - H.conj().T).max() > 1e-12 * scale:
            raise ModelError(f"sampled Hamiltonian at t={t} is not Hermitian")
        H = (H + H.conj().T) / 2
        slack = 1 + 1e-9
        if spectral_norm(H) > self.alpha0 * slack + 1e-12:
            raise ModelError(f"||H({t})|| exceeds the declared bound {self.alpha0}")
        for L, a in zip(Ls, self.alphas):
            if spectral_norm(L) > a * slack + 1e-12:
                raise ModelError(f"a sampled jump norm at t={t} exceeds its declared bound")
        return H, Ls

    def _generator_raw(self, t: float) -> np.ndarray:
        return _drift_generator(*self._sample_raw(t))

    def effective_generator_at(self, t: float) -> np.ndarray:
        return _drift_generator(*self.sample(t))

    def liouvillian_at(self, t: float) -> np.ndarray:
        return _liouvillian(*self._sample_raw(t))


def from_static(lind: Lindbladian) -> TimeDependentLindbladian:
    """Wrap a static model as a constant sampler with zero derivative bound."""
    H = lind.hamiltonian
    Ls = lind.jumps
    return TimeDependentLindbladian(lambda t: (H, Ls), lind.alpha0, lind.alphas, 0.0)


def _batched_propagator(tl: TimeDependentLindbladian, s: np.ndarray, t: np.ndarray,
                        cfg: DysonConfig) -> np.ndarray:
    """Order-truncated midpoint-product propagators over a batch of intervals."""
    d = tl.dim
    B = s.shape[0]
    M, Kd = cfg.grid_points, cfg.order
    step = (t - s) / M
    eye = np.broadcast_to(np.eye(d, dtype=complex), (B, d, d)).copy()
    terms = [eye] + [np.zeros((B, d, d), complex) for _ in range(Kd)]
    inv_fact = [1.0 / math.factorial(r) for r in range(Kd + 1)]
    for i in range(M):
        taus = s + (i + 0.5) * step
        Jstep = np.stack([tl._generator_raw(float(tau)) for tau in taus])
        Jstep *= step[:, None, None]
        Jpow = [eye]
        for _ in range(Kd):
            Jpow.append(Jpow[-1] @ Jstep)
        new = [terms[0]]
        for p in range(1, Kd + 1):
            acc = terms[p].copy()
            for r in range(1, p + 1):
                acc += inv_fact[r] * (Jpow[r] @ terms[p - r])
            new.append(acc)
        terms = new
    total = terms[0].copy()
    for p in range(1, Kd + 1):
        total += terms[p]
    return total


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
        return np.stack([np.stack(tl._sample_raw(float(a + x))[1]) for x in u])

    if K == 0 or tl.num_jumps == 0:
        return kraus_superop(propagate(np.zeros(1), np.array([delta]))[0])
    return series_superop(propagate, jumps, canonical_rule(q, delta), K,
                          tl.num_jumps, tl.dim)


_PROBES = 17  # validating samples per segment


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
    L_start = tl.liouvillian_at(0.0)
    for i in range(n):
        tau = i * h
        k1 = L_start @ v
        Lmid = tl.liouvillian_at(tau + h / 2)
        k2 = Lmid @ (v + h / 2 * k1)
        k3 = Lmid @ (v + h / 2 * k2)
        # the step-end Liouvillian starts the next step
        L_start = tl.liouvillian_at(tau + h)
        k4 = L_start @ (v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
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
        for tau in np.linspace(a, a + delta, _PROBES):
            tl.sample(float(tau))
        S = _segment_superop(tl, a, delta, K, q, cfg)
        v = S @ v
    rho_out = unvec(v)
    return rho_out, _report(t, eps, n_seg, K, cfg.order, q, tl.num_jumps, beta, alpha_sq,
                            rho_out), cfg
