"""Time-ordered extension: discretized Dyson propagators for drifting models.

The drift factor exp(J s) becomes the time-ordered propagator V(s, t) of
J(tau) = -i H(tau) - (1/2) sum_j L_j(tau)^dag L_j(tau). V is approximated by
the order-Kd truncation of the discretized Dyson sum over a midpoint grid on
[s, t], with steps h_j sampled at their midpoints t_j,

    sum_{k<=Kd} (1 / k!) sum_tuples T[J(t_{j_k}) h_{j_k} ... J(t_{j_1}) h_{j_1}],

which is computed as the product over steps of the graded factors
F_r = (J(t_j) h_j)^r / r!, r <= Kd, later steps on the left, truncated at
total grade Kd (the two forms agree term by term). For constant J this
reproduces the order-Kd Taylor polynomial of exp(J (t - s)) exactly, and on
steps of at most (t - s) / M the per-interval error contract is

    O(||J||_max^{Kd+1} (t-s)^{Kd+1} / (Kd+1)! + (t-s)^2 ||dJ/dt||_max / M).

ordered_propagator takes M uniform steps. td_simulate samples each segment of
length delta once, on one union grid: the M uniform steps of [0, delta] joined
with every node time of the segment's nested quadrature table. Every step is
then at most delta / M, so the contract above bounds every interval the series
engine asks for. Truncation keeps the graded product associative, so each
interval [lo, hi] between grid points is read from the prefix products P(g)
as P(hi) P(lo)^-1; every prefix is I plus a nilpotent part, so its inverse
is a finite sum. Segments go in groups, and each group's superoperators come
from one call of the series engine, on its segment axis.

rk4_reference is the dense reference: classical RK4 on the vectorized master
equation, a chunk of steps at a time. A step of a linear ODE is a matrix, the
step applied to the identity, so for d <= 4 a chunk's step maps are built in
one stacked call and each step is one matvec. A map costs about d^6 per step
against d^4 for the step's own matvecs, so at d >= 8 the state is stepped.

Norm bounds and the generator derivative bound are declared by the caller,
never estimated from samples. Sampling is batched: every time a step needs (a
group of segments' union-grid midpoints and interval ends, the uniform steps of
ordered_propagator, a chunk of RK4 half-steps) is sampled by one helper,
_sample_stack, in one call of a sampler declared batched, which takes the
times as an array, or in one call per time of a pointwise sampler. The samples
are stacked by models._stack (numeric entries, a square H of one size, jumps
of its shape) as H (B, d, d) and L (B, m, d, d), the layout a static model
keeps too, and held to one sample per time and to the size d the model took
from its sample at t = 0; J and the Liouvillian are built from that stack in
one call. A table model from modelio samples batched.

Validation policy: a time-dependent model meets the one model contract of
lindbladsim.models, as a static one does. The constructor checks the declared
bounds (models._check_bounds), and sample() and every sample a propagator or
jump is built from are checked in their batch (models._check_stack: finite
entries, a Hermitian H, norms within the declared bounds), before anything is
built from it, so a violation surfaces as a model error naming the earliest
failing time. Each is built from the H that check returns, symmetrized, as a
static model keeps it. rk4_reference alone reads raw samples, whose shape is
checked but whose values are neither checked nor symmetrized, and it starts
from a checked rho0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArgumentError, ModelError, ResourceLimitError, check_count, check_finite,
                     check_time)
from .linalg import unvec, vec
from .models import (Lindbladian, _check_bounds, _check_stack, _drift_generator, _liouvillian,
                     _stack, be_norm)
from .quadrature import NestedGrid, canonical_rule
from .series import (MAX_SAMPLER_CALLS, _WORK_BYTES, _evolve, _inf_on_overflow,
                     _segments_per_call, _validate_rho0, series_superop)


@dataclass(frozen=True)
class DysonConfig:
    """Dyson truncation order and grid count M: the uniform steps of
    ordered_propagator's interval, or of each td_simulate segment, on which
    td_simulate's union grid adds the segment's node times. M has no upper
    cap; td_simulate's sampler guard bounds the run it makes."""

    order: int
    grid_points: int

    def __post_init__(self):
        check_count(self.order, "Dyson order", 0)
        check_count(self.grid_points, "grid count", 1)


class TimeDependentLindbladian:
    """Sampler plus declared sup-norm bounds for H(t), L_j(t) and dJ/dt.

    A pointwise sampler takes one time and returns H(t) and the list of the
    L_j(t); one declared batched takes an array of B times and returns the
    stacks H (B, d, d) and L (B, m, d, d), and is called once per batch. The
    sampler must be pure in its time argument (it may be called
    concurrently and at repeated times). The model contract is the static
    Lindbladian's: models._check_bounds on the declared bounds here, and
    models._check_stack on every sample the library builds from, in its batch:
    sample(), ordered_propagator's steps and each td_simulate segment group.
    Each of those builds from the symmetrized H the check returns.
    rk4_reference alone reads samples whose values are unchecked. Every
    sample must keep the size dim of the sample at t = 0.
    """

    def __init__(self, sampler, alpha0: float, alphas, jdot_bound: float,
                 batched: bool = False):
        self.sampler = sampler
        self.batched = bool(batched)
        self.alpha0 = float(alpha0)
        self.alphas = tuple(float(a) for a in alphas)
        self.jdot_bound = float(jdot_bound)
        _check_bounds(self.alpha0, self.alphas, self.jdot_bound)
        self.dim = None  # set from the first sample
        self.dim = self.sample(0.0)[0].shape[0]

    @property
    def num_jumps(self) -> int:
        return len(self.alphas)

    def sample(self, t: float):
        """H(t) and [L_j(t)] at a finite time t, held to the model contract; H
        comes back symmetrized by it, as a static model keeps it."""
        check_finite(t, "sample time")
        H, L = _checked_stack(self, np.array([float(t)]))
        return H[0], list(L[0])


def _sample_stack(tl: TimeDependentLindbladian, times: np.ndarray):
    """Samples at each time, in order, stacked by models._stack: H (B, d, d) and
    the jumps (B, m, d, d), from one call of a batched sampler on the B times or
    one call of a pointwise sampler per time. Only their shape is checked:
    ModelError unless there is one sample per time and d is tl.dim."""
    times = np.asarray(times, dtype=float).ravel()
    if tl.batched:
        H, L = _stack(*tl.sampler(times))
    else:
        H, L = _stack(*zip(*(tl.sampler(tau) for tau in times.tolist())))
    if len(H) != times.size:
        raise ModelError(f"sampler returned {len(H)} samples for {times.size} times")
    if tl.dim not in (None, H.shape[-1]):
        raise ModelError(f"hamiltonian has shape {H.shape[1:]}, expected {(tl.dim, tl.dim)}")
    return H, L


def _checked_stack(tl: TimeDependentLindbladian, times: np.ndarray):
    """Samples at times, checked as one stack by models._check_stack, whose
    error names the earliest failing time: H symmetrized, and the jumps."""
    H, L = _sample_stack(tl, times)
    return _check_stack(H, L, (tl.alpha0, *tl.alphas), times)[0], L


def from_static(lind: Lindbladian) -> TimeDependentLindbladian:
    """Wrap a static model as a constant sampler with zero derivative bound."""
    H, L = lind.hamiltonian, lind.jumps
    return TimeDependentLindbladian(lambda t: (H, L), lind.alpha0, lind.alphas, 0.0)


def _union_grid(nested: NestedGrid, M: int):
    """One segment's sampled grid, relative to its start, and its interval ends:
    the ends are 0 and every node time of nested's table, the only points a
    propagator of the series engine starts or stops at, and the grid joins them
    with the M uniform steps of [0, delta]. Both are sorted."""
    ends = np.unique(np.concatenate([[0.0], *nested.table[0]]))
    return np.union1d(np.linspace(0.0, nested.rule.interval_length, M + 1), ends), ends


def _prefix_stacks(J: np.ndarray, grid: np.ndarray, ends: np.ndarray, Kd: int):
    """Truncated graded prefix products over the gaps of grid, for S segments
    whose drift generators J (S, N, d, d) were sampled at the N gap midpoints.

    Gap k, of length h_k, with the segment's sample J there, has the graded
    factor F_r = (J h_k)^r / r!, r <= Kd. The prefix P(g_n) is the
    product of the factors of gaps 1..n, later gaps on the left, truncated at
    total grade Kd. It is I plus a nilpotent part, so its inverse Q is a finite
    sum too: the product of the inverse factors G_r = (-J h_k)^r / r!, later
    gaps on the right. The product of the factors between grid points lo and
    hi, truncated and summed, is then the quotient

        P(hi) P(lo)^-1 = sum_r P_r(hi) C_{Kd-r}(lo),  C_k = Q_0 + ... + Q_k.

    A factor multiplies a column of grades [X_0; ..; X_Kd] from the left as the
    block lower-triangular Toeplitz matrix with blocks F_{i-j}, and a row from
    the right as the upper one with blocks G_{j-i}, so each gap costs its Kd
    powers of J h_k and one matmul per prefix. The row [C_0, .., C_Kd] takes
    the factors G as the row of Q does, because summing grades commutes with an
    upper Toeplitz matrix.

    Returns, at the E grid points in ends, P_0, .., P_Kd side by side,
    (S, E, d, (Kd+1) d), and C_Kd, .., C_0 stacked, (S, E, (Kd+1) d, d): each
    quotient is one matmul of the two."""
    S, N, d = J.shape[:3]
    D = (Kd + 1) * d
    J = J * np.diff(grid)[:, None, None]
    F = np.zeros((S, Kd + 2, d, d), dtype=complex)  # one gap's grades 0..Kd, a zero block
    F[:, 0] = np.eye(d)
    # flat positions in a gap's F of the lower and upper Toeplitz matrices'
    # entries, and the signs (-1)^(j-i) that turn the upper one's F into G
    grade, a = np.divmod(np.arange(D), d)
    lag = grade[:, None] - grade[None, :]
    lower = (np.where(lag >= 0, lag, Kd + 1) * d + a[:, None]) * d + a[None, :]
    upper = (np.where(lag <= 0, -lag, Kd + 1) * d + a[:, None]) * d + a[None, :]
    sign = (-1.0) ** lag
    P = np.broadcast_to(np.eye(D, d), (S, D, d))  # P(0) = I
    C = np.broadcast_to(np.tile(np.eye(d), Kd + 1), (S, d, D))  # C_k(0) = I
    slot = np.minimum(np.searchsorted(ends, grid), ends.size - 1)
    kept = ends[slot] == grid
    PL = np.empty((S, ends.size, d, Kd + 1, d), dtype=complex)
    CR = np.empty((S, ends.size, Kd + 1, d, d), dtype=complex)
    for n in range(N + 1):
        if n:
            for r in range(1, Kd + 1):
                F[:, r] = F[:, r - 1] @ J[:, n - 1] / r
            P = np.take(F.reshape(S, -1), lower, axis=1) @ P
            C = C @ (np.take(F.reshape(S, -1), upper, axis=1) * sign)
        if kept[n]:
            PL[:, slot[n]] = P.reshape(S, Kd + 1, d, d).transpose(0, 2, 1, 3)
            CR[:, slot[n]] = C.reshape(S, d, Kd + 1, d).transpose(0, 2, 1, 3)[:, ::-1]
    return PL.reshape(S, ends.size, d, D), CR.reshape(S, ends.size, D, d)


def ordered_propagator(tl: TimeDependentLindbladian, s: float, t: float,
                       cfg: DysonConfig) -> np.ndarray:
    """Order-truncated approximation of the ordered exponential on [s, t]: the
    graded product over M uniform steps, sampled at their midpoints and checked
    as one stack. s and t must be finite, with s <= t; either may be negative.
    Raises ResourceLimitError before the first sample when its M sampled times
    would exceed MAX_SAMPLER_CALLS."""
    check_finite(s, "propagator start")
    check_finite(t, "propagator end")
    if t < s:
        raise ArgumentError(f"propagator needs s <= t, got s={s}, t={t}")
    if t == s:
        return np.eye(tl.dim, dtype=complex)
    if cfg.grid_points > MAX_SAMPLER_CALLS:
        raise ResourceLimitError(f"ordered propagator would make {cfg.grid_points} > "
                                 f"{MAX_SAMPLER_CALLS} sampler calls")
    grid = np.linspace(0.0, t - s, cfg.grid_points + 1)
    J = _drift_generator(*_checked_stack(tl, float(s) + (grid[:-1] + np.diff(grid) / 2)))
    PL, CR = _prefix_stacks(J[None], grid, grid[[0, -1]], cfg.order)
    return PL[0, 1] @ CR[0, 0]


@_inf_on_overflow
def dyson_contract(tl: TimeDependentLindbladian, delta: float, cfg: DysonConfig) -> float:
    """Stated error contract of ordered_propagator on an interval of length delta,
    and of every propagator td_simulate reads from a segment of length delta:
    each step of its union grid is at most delta / M. delta must be nonnegative
    and finite; at delta = 0 the contract is 0, and where an intermediate
    leaves the float range it is inf."""
    check_time(delta, "segment length")
    beta = be_norm(tl)
    return ((beta * delta) ** (cfg.order + 1) / math.factorial(cfg.order + 1)
            + delta ** 2 * tl.jdot_bound / cfg.grid_points)


def _segment_superops(tl: TimeDependentLindbladian, starts: np.ndarray, nested: NestedGrid,
                      grid: np.ndarray, ends: np.ndarray, Kd: int):
    """Superoperators of the segments [a, a + delta], a in starts, in order, at
    every order: one call of the static pipeline's series engine on nested's
    table for the whole group, with each segment's propagators T(lo, hi) read
    from its prefixes on grid, where both lo and hi are interval ends, and its
    jumps read at the nodes.

    The group is sampled once, before anything is built: at each segment's gap
    midpoints of grid, which J is built from, and at its interval ends, whose
    jumps the engine reads; the one stack is checked by _checked_stack."""
    q, K, delta = nested.rule.order, nested.depth, nested.rule.interval_length
    N = grid.size - 1
    times = starts[:, None] + np.concatenate([grid[:-1] + np.diff(grid) / 2, ends])
    H, L = _checked_stack(tl, times.ravel())
    H, L = H.reshape(times.shape + H.shape[1:]), L.reshape(times.shape + L.shape[1:])
    PL, CR = _prefix_stacks(_drift_generator(H[:, :N], L[:, :N]), grid, ends, Kd)
    nodes = L[:, N:]
    yield from series_superop(
        lambda lo, hi: PL[:, np.searchsorted(ends, hi)] @ CR[:, np.searchsorted(ends, lo)],
        lambda u: nodes[:, np.searchsorted(ends, u)],
        delta, q, K, tl.num_jumps, tl.dim, nested, starts.size)


_RK4_STEPS = 256  # RK4 steps whose Liouvillians are built in one stacked call
# largest d whose RK4 steps run as step maps; at d = 8 maps were 2.6x slower
_RK4_MAP_DIM = 4


def _rk4(A: np.ndarray, B: np.ndarray, C: np.ndarray, X: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of dX/dtau = L(tau) X from X, with the
    Liouvillians A, B and C at the step's start, middle and end (stacks of them
    make a stack of steps)."""
    k1 = A @ X
    k2 = B @ (X + h / 2 * k1)
    k3 = B @ (X + h / 2 * k2)
    k4 = C @ (X + h * k3)
    return X + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_reference(tl: TimeDependentLindbladian, rho0: np.ndarray, t: float,
                  step: float) -> np.ndarray:
    """Dense classical Runge-Kutta integration of the vectorized master equation,
    from rho0 checked and symmetrized as td_simulate takes it.

    The Liouvillians at the 2n + 1 half-step times, n = ceil(t / step), are
    sampled and built a chunk of steps at a time. For d <= 4 each step is applied
    as its step map R = _rk4(L_start, L_mid, L_end, I, h), built for the whole
    chunk in one stacked call, so a step costs one matvec: at d = 2 this halved
    the run. Building a map costs about d^6 per step against d^4 for one step's
    matvecs, so a larger d steps its state through _rk4 directly.

    Raises ResourceLimitError before the first sample when its 2n + 1 sampled
    times would exceed MAX_SAMPLER_CALLS; a batched sampler takes them in one
    call per chunk. The samples are read raw: their shape is checked, their
    values are not."""
    check_time(t)
    check_time(step, "step", positive=True)
    ratio = t / step  # inf when a tiny step overflows it
    n = max(1, math.ceil(ratio - 1e-12)) if ratio < math.inf else math.inf
    if 2 * n + 1 > MAX_SAMPLER_CALLS:
        raise ResourceLimitError(f"RK4 reference at step {step} would make {2 * n + 1:.9g} > "
                                 f"{MAX_SAMPLER_CALLS} sampler calls")
    h = t / n
    v = vec(_validate_rho0(rho0, tl.dim))
    d2 = tl.dim ** 2
    maps = tl.dim <= _RK4_MAP_DIM
    # a chunk holds two Liouvillians per step and, on the step-map path, seven
    # more stacks of their size: the start Liouvillians, the four stages, their
    # argument and the maps
    chunk = max(1, min(_RK4_STEPS, _WORK_BYTES // ((9 if maps else 2) * 16 * d2 * d2)))
    # each step's end starts the next step, across chunks too
    L_end = _liouvillian(*_sample_stack(tl, np.zeros(1)))[0]
    for i0 in range(0, n, chunk):
        tau = np.arange(i0, min(i0 + chunk, n)) * h
        Ls = _liouvillian(*_sample_stack(tl, np.stack([tau + h / 2, tau + h], axis=1)))
        L_start = [L_end, *Ls[1:-1:2]]
        if maps:
            for R in _rk4(np.array(L_start), Ls[::2], Ls[1::2], np.eye(d2), h):
                v = R @ v
        else:
            for A, B, C in zip(L_start, Ls[::2], Ls[1::2]):
                v = _rk4(A, B, C, v, h)
        L_end = Ls[-1]
    return unvec(v)


def td_simulate(tl: TimeDependentLindbladian, rho0: np.ndarray, t: float, eps: float,
                cfg: DysonConfig | None = None, segments: int | None = None):
    """Time-ordered analogue of simulate; returns (rho, report, dyson_config).

    The run is series._evolve, the driver simulate uses, with this model's
    segment superoperators as its source. Segmentation and (K, q) come from its
    planner, which reads the declared bounds. It takes the multiple n0 2^i
    (i <= 8) of the budget minimum n0 with the least total chain work, since
    more, shorter segments shrink the chain tree exponentially and
    time-ordered segments cannot share one superoperator. The propagator
    truncation order defaults to the static Taylor-order criterion, and the
    report gives it as taylor_order. The count M of uniform steps per segment
    defaults to the square root of the count at which the declared first-order
    term delta^2 jdot / M reaches the per-segment eps, and at least 16
    (M = 1 when jdot_bound is 0), with no upper cap: the midpoint error falls
    as 1 / M^2, so a capped M would leave the error flat as eps tightens. That
    is a heuristic, and the reported contract, dyson_contract at this M, need
    not be within eps. Pass cfg or segments to override; a segments count below
    the budget minimum n0 raises ArgumentError.

    Every segment is sampled once, on its union grid: the M uniform steps joined
    with the node times of the nested table, which is built once per run and
    read by the grid and the series engine alike. Each propagator the engine
    asks for is a quotient of that grid's prefix products, kept at the
    interval ends only. Segments go in groups whose samples, prefix stacks and
    series engine levels stay under series._WORK_BYTES, and whose engine call
    stays within MAX_SUPEROP_BYTES: series._segments_per_call bisects on the
    engine's plan (series._engine_plan), so no engine limit can fire once
    sampling has begun. Each group is sampled once, at its gap midpoints and
    interval ends (one sampler call when the sampler is batched), and that
    one stack is checked against the declared bounds before anything is built
    from it; every propagator and jump is read from it, and the group's
    superoperators come from one series_superop call.

    No sample is taken before the guards: the driver checks the series
    engine's node and byte caps on the plan, and then, since sampling is most
    of the run's cost, ResourceLimitError is raised when the run would sample
    more than MAX_SAMPLER_CALLS times, each a sampler call when the sampler is
    pointwise: per segment, one per union-grid gap and one per interval end. A
    tree too wide for the cap fails on its lower bound, M gaps and the ends 0
    and delta, before its table is built.
    """
    counts = ((lambda n0: (check_count(segments, "segment count", 1),)) if segments is not None
              else (lambda n0: [n0 * 2 ** i for i in range(9)]))

    def source(orders):
        nonlocal cfg
        n_seg, delta = orders.num_segments, orders.segment_time
        K, q = orders.series_order, orders.quadrature_order
        if cfg is None:
            # the root is bounded before ceil, so an overflowing count fails on
            # the sampler guard's lower bound below
            first_order = delta ** 2 * tl.jdot_bound / (eps / n_seg)
            root = min(math.sqrt(first_order), MAX_SAMPLER_CALLS)
            points = 1 if tl.jdot_bound == 0.0 else max(16, math.ceil(root))
            cfg = DysonConfig(order=orders.taylor_order, grid_points=points)

        def check_calls(gaps, n_ends, at_least=""):
            # per segment, one call per union-grid gap, at its midpoint, and one
            # per interval end, 0 and every node time
            calls = n_seg * (gaps + n_ends)
            if calls > MAX_SAMPLER_CALLS:
                raise ResourceLimitError(
                    f"time-ordered run would make {at_least}{calls} > {MAX_SAMPLER_CALLS} "
                    "sampler calls; lower the precision or the horizon")

        check_calls(cfg.grid_points, 2, "at least ")
        nested = NestedGrid(canonical_rule(q, delta), K)
        grid, ends = _union_grid(nested, cfg.grid_points)
        check_calls(grid.size - 1, ends.size)
        # a segment holds its samples, J at the gaps and its prefix stacks at the
        # ends, and its levels in the group's one series engine call
        m = tl.num_jumps
        held = (2 + m) * grid.size + (1 + m + 2 * (cfg.order + 1)) * ends.size
        group = _segments_per_call(q, K, m, tl.dim, 16 * tl.dim ** 2 * held)
        starts = np.arange(n_seg) * delta
        superops = (S for first in range(0, n_seg, group)
                    for S in _segment_superops(tl, starts[first:first + group], nested, grid,
                                               ends, cfg.order))
        return replace(orders, taylor_order=cfg.order), superops

    rho, report = _evolve(tl, rho0, t, eps, source, counts)
    return rho, report, cfg or DysonConfig(0, 1)
