"""Completely positive Kraus-series approximation of the Lindblad channel.

The channel exp(Lt) is expanded around the no-jump semigroup by iterating
Duhamel's identity: truncating after K interleaved jump insertions leaves the
diamond-norm error (2 beta t)^{K+1}/(K+1)! with beta the be-norm. Each nested
time-ordered integral is discretized on the scaled Gauss-Legendre simplex grid,
and each drift factor exp(J s) is replaced by its order-Kp Taylor polynomial.
The result is an explicit finite Kraus family

    A_(k, l_1..l_k, j_1..j_k) = sqrt(what-chain product)
        * T(t - s_k) L_{l_k} T(s_k - s_{k-1}) ... L_{l_1} T(s_1)

whose map rho -> sum c^2 A rho A^dag is completely positive by construction.
Every truncation knob carries a closed-form error bound, and the normalizer
sum over the family admits a closed form that drives the segment-length budget
(success probability of the amplified channel application stays >= 1/4).

The superoperator of the family is never built chain by chain: series_superop
evaluates it as a recursion over quadrature-index multisets, shared with the
time-dependent extension. The chains themselves are enumerated only by
CPMapApprox.iter_terms, which reads the family out term by term.

Each resource guard counts the work of the function that checks it, before
that work starts: series_superop its nodes (MAX_SERIES_NODES) and held bytes
(MAX_SUPEROP_BYTES), iter_terms its terms (quadrature.TERM_GUARDRAIL), and
timedep.td_simulate its sampler calls (MAX_SAMPLER_CALLS). The (m q)^k chain
count sizes only the read-out, so it bounds no superoperator path.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, InfeasiblePrecisionError, ModelError, ResourceLimitError
from .linalg import batched_kraus_sum, kraus_superop, spectral_norm, unvec, vec
from .metrics import diamond_sandwich
from .models import (Lindbladian, be_norm, effective_generator, exact_channel,
                     jump_superoperator)
from .quadrature import TERM_GUARDRAIL, NestedGrid, QuadratureRule, canonical_rule

MAX_SEARCH_ORDER = 40


# ---------------------------------------------------------------------------
# closed-form error bounds


def bound_duhamel(K: int, t: float, beta: float) -> float:
    """Diamond-norm error of the K-fold Duhamel truncation with exact integrals."""
    if K < 0 or t < 0 or beta < 0:
        raise ArgumentError("bound_duhamel needs K >= 0, t >= 0, beta >= 0")
    return (2.0 * beta * t) ** (K + 1) / math.factorial(K + 1)


def bound_taylor(Kp: int, t: float, beta: float) -> float:
    """Diamond-norm error of replacing the drift conjugation by its Taylor map."""
    if Kp < 0 or t < 0 or beta < 0:
        raise ArgumentError("bound_taylor needs Kp >= 0, t >= 0, beta >= 0")
    return 8.0 * math.exp(beta * t) * (beta * t) ** (Kp + 1) / math.factorial(Kp + 1)


def taylor_premise_holds(Kp: int, t: float, beta: float) -> bool:
    """(Kp+1)! >= 2 (beta t)^{Kp+1}, under which Taylor factors have norm <= 2."""
    return math.factorial(Kp + 1) >= 2.0 * (beta * t) ** (Kp + 1)


def bound_composite(k: int, Kp: int, t: float, beta: float) -> float:
    """Pointwise error of the depth-k chain with all drifts Taylor-substituted."""
    if k < 0:
        raise ArgumentError("bound_composite needs k >= 0")
    return bound_taylor(Kp, t, beta) * (4.0 * beta) ** k


def bound_quadrature(k: int, q: int, t: float, beta: float) -> float:
    """Error of the depth-k nested Gauss-Legendre sum against the exact integral."""
    if k < 1:
        raise ArgumentError("bound_quadrature needs k >= 1")
    if q < 1:
        raise ArgumentError("bound_quadrature needs q >= 1")
    return ((2.0 * t) ** (k - 1) * 2.0 ** (k + 1) * beta ** k
            * beta ** (2 * q) * t ** (2 * q + 1) * q
            / (math.factorial(k - 1) * math.factorial(2 * q)))


def taylor_total_bound(Kp: int, t: float, beta: float) -> float:
    """Total Taylor-substitution error across all chain depths, plus the k=0 term."""
    tail = 32.0 * math.exp(5.0 * beta * t) * (beta * t) ** (Kp + 2) / math.factorial(Kp + 1)
    return bound_taylor(Kp, t, beta) + tail


# ---------------------------------------------------------------------------
# segment budget


def _budget_expression(t: float, beta: float, alpha_sq: float, weight_model: str) -> float:
    if weight_model == "conservative":
        return math.exp(2 * beta * t) + t * alpha_sq * math.exp(2 * beta * t) * math.exp(t * alpha_sq)
    if weight_model == "rederived":
        return math.exp(2 * beta * t) * math.exp(t * alpha_sq)
    raise ArgumentError(f"unknown weight_model {weight_model!r}")


def segment_time_from_bounds(beta: float, alpha_sq: float, cap: float | None = None,
                             weight_model: str = "conservative") -> float:
    """Largest segment length keeping the normalizer budget expression <= 2.

    With beta = 0 the dynamics are trivial and the requested cap (or infinity)
    is returned. Bisection runs to absolute tolerance 1e-12, returning the
    inner endpoint, so the expression value lands in [2 - 1e-9, 2].
    """
    if beta == 0.0:
        return float(cap) if cap is not None else math.inf
    lo, hi = 0.0, 1.0 / beta
    while _budget_expression(hi, beta, alpha_sq, weight_model) <= 2.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if _budget_expression(mid, beta, alpha_sq, weight_model) <= 2.0:
            lo = mid
        else:
            hi = mid
    tstar = lo
    if cap is not None:
        tstar = min(tstar, float(cap))
    return tstar


def segment_time(lind: Lindbladian, cap: float | None = None,
                 weight_model: str = "conservative") -> float:
    """Segment budget for a static model; see segment_time_from_bounds."""
    return segment_time_from_bounds(be_norm(lind), sum(a * a for a in lind.alphas),
                                    cap, weight_model)


# ---------------------------------------------------------------------------
# drift propagators


class _TaylorPropagator:
    """Batched order-Kp Taylor polynomial of exp(J delta)."""

    def __init__(self, J: np.ndarray, Kp: int):
        d = J.shape[0]
        self.powers = np.empty((Kp + 1, d, d), dtype=complex)
        self.powers[0] = np.eye(d)
        for ell in range(1, Kp + 1):
            self.powers[ell] = self.powers[ell - 1] @ J
        self.inv_fact = np.array([1.0 / math.factorial(ell) for ell in range(Kp + 1)])

    def batch(self, deltas: np.ndarray) -> np.ndarray:
        deltas = np.asarray(deltas, dtype=float)
        Kp = self.powers.shape[0] - 1
        coeff = deltas[:, None] ** np.arange(Kp + 1)[None, :] * self.inv_fact[None, :]
        return np.einsum("bl,lij->bij", coeff, self.powers, optimize=True)


def taylor_drift(lind: Lindbladian, s: float, Kp: int) -> np.ndarray:
    """Matrix sum_{ell<=Kp} (J s)^ell / ell!."""
    if s < 0:
        raise ArgumentError(f"duration must be nonnegative, got {s}")
    if Kp < 0:
        raise ArgumentError(f"Taylor order must be nonnegative, got {Kp}")
    J = effective_generator(lind)
    return _TaylorPropagator(J, Kp).batch(np.array([s]))[0]


# ---------------------------------------------------------------------------
# memoized series engine

# Guard limits (see the module docstring). At about 100 us per node (d <= 4)
# and 10 us of td_simulate per sampler call (2 vCPUs, one BLAS thread), the
# node cap is about 30 s of work and the sampler cap about 10 s.
MAX_SERIES_NODES = 2 ** 18
MAX_SUPEROP_BYTES = 2 ** 30
MAX_SAMPLER_CALLS = 10 ** 6
_WORK_BYTES = 2 ** 23


def _chain_count(m: int, q: int, K: int) -> int:
    return sum((m * q) ** k for k in range(1, K + 1))


def series_superop(propagate, jumps, rule: QuadratureRule, K: int, m: int,
                   d: int) -> np.ndarray:
    """Superoperator of the order-K series on [0, t], t = rule.interval_length.

    The nested grid scales the rule into [0, u] below every node u, at the
    nodes u x_j with x_j = shat_j / t, so the series is the recursion

        G_r(u) = K[T(0, u)]
                 + sum_j (u w_j / t) sum_l K[T(u x_j, u) L_l(u x_j)] G_{r-1}(u x_j),

    G_0(u) = K[T(0, u)], evaluated as G_K(t). A node is fixed by the multiset
    of its quadrature indices, so depth i has C(q+i-1, i) distinct nodes and
    each is built once, deepest level first. Depth K-1 is closed in Kraus form,
    so leaves are never stored; a node at depth i+1 is freed once its last
    parent is built, its parent count being the number of distinct indices in
    its multiset. propagate(s, u) returns T(s_b, u_b) as a (B, d, d) array and
    jumps(u) returns L_l(u_b) as a (B, m, d, d) array; both are called once per
    level.

    Raises ResourceLimitError before building anything when the C(q+K-1, K-1)
    nodes of depths 0..K-1 exceed MAX_SERIES_NODES, or when the superoperators
    held at once would exceed MAX_SUPEROP_BYTES.
    """
    t, q = rule.interval_length, rule.order
    if K < 1:
        raise ArgumentError(f"series_superop needs K >= 1, got {K}")
    nodes = math.comb(q + K - 1, K - 1)
    if nodes > MAX_SERIES_NODES:
        raise ResourceLimitError(
            f"series engine would build {nodes} > {MAX_SERIES_NODES} nodes")
    # at most the widest stored level, C(q+K-2, K-1) nodes, plus one chunk of
    # parents with their gathered children and products is held at once
    chunk = max(1, _WORK_BYTES // ((1 + q * (m + 1)) * 16 * d ** 4))
    held_bytes = (math.comb(q + K - 2, K - 1) + chunk * (1 + q * (m + 1))) * 16 * d ** 4
    if held_bytes > MAX_SUPEROP_BYTES:
        raise ResourceLimitError(
            f"series engine would hold {held_bytes} > {MAX_SUPEROP_BYTES} bytes "
            "of superoperators at once")

    # node multisets as sorted index tuples, their times and child indices
    levels = [list(itertools.combinations_with_replacement(range(q), i)) for i in range(K + 1)]
    u = [t * np.prod(rule.nodes[np.array(level, dtype=np.int64).reshape(len(level), i)] / t,
                     axis=1) for i, level in enumerate(levels)]
    children = []
    for i in range(K):
        pos = {c: n for n, c in enumerate(levels[i + 1])}
        children.append(np.array([[pos[tuple(sorted(p + (j,)))] for j in range(q)]
                                  for p in levels[i]], dtype=np.int64))

    G = None
    for i in range(K - 1, -1, -1):
        up, uc, ch = u[i], u[i + 1], children[i]
        n_p = up.size
        lo = np.concatenate([np.zeros(n_p), uc[ch].ravel()])
        hi = np.concatenate([up, np.repeat(up, q)])
        if i == K - 1:
            lo = np.concatenate([lo, np.zeros(uc.size)])
            hi = np.concatenate([hi, uc])
        T = propagate(lo, hi)
        close = T[:n_p]
        B = T[n_p:n_p * (q + 1)].reshape(n_p, q, 1, d, d) @ jumps(uc)[ch]
        W = up[:, None] * rule.weights[None, :] / t
        parents = []
        if i == K - 1:
            # depth-K leaves close in Kraus form: T(u x_j, u) L_l T(0, u x_j)
            A = B @ T[n_p * (q + 1):][ch][:, :, None]
            wts = np.repeat(W, m, axis=1)
            for p in range(n_p):
                parents.append(batched_kraus_sum(
                    np.concatenate([[1.0], wts[p]]),
                    np.concatenate([close[p:p + 1], A[p].reshape(q * m, d, d)])))
        else:
            remaining = np.array([len(set(c)) for c in levels[i + 1]])
            for start in range(0, n_p, chunk):
                sl = slice(start, min(start + chunk, n_p))
                P = sl.stop - start
                X = np.stack([G[c] for c in ch[sl].ravel()]).reshape(P, q, 1, d, d, d * d)
                # K[B] X as two d x d contractions per column: B on the ket index,
                # then conj(B), weighted, on the bra index summed over (j, l)
                Y = (B[sl][:, :, :, None] @ X).reshape(P, q * m, d, d, d * d)
                Wc = (W[sl][:, :, None, None, None] * B[sl].conj()).reshape(P, q * m, d, d)
                Z = (Wc.transpose(0, 2, 1, 3).reshape(P, d, q * m * d)
                     @ Y.reshape(P, q * m * d, d ** 3))
                for r in range(P):
                    parents.append(Z[r].reshape(d * d, d * d) + kraus_superop(close[start + r]))
                for c in ch[sl].ravel():
                    remaining[c] -= 1
                    if remaining[c] == 0:
                        G[c] = None
        G = parents
    return G[0]


def _static_superop(lind: Lindbladian, rule: QuadratureRule, K: int, propagate) -> np.ndarray:
    """series_superop with a static drift propagator and constant jumps."""
    Ls = np.stack(lind.jumps)
    return series_superop(propagate, lambda u: np.broadcast_to(Ls, (u.size,) + Ls.shape),
                          rule, K, lind.num_jumps, lind.dim)


# ---------------------------------------------------------------------------
# series maps


def f_k(lind: Lindbladian, t: float, s) -> np.ndarray:
    """Integrand superoperator at the ordered times s = (s_1 <= ... <= s_k).

    K[exp(J(t-s_k))] . L_jump . K[exp(J(s_k-s_{k-1}))] ... L_jump . K[exp(J s_1)].
    An empty s gives the drift semigroup conjugation.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    if s.size and (np.any(np.diff(s) < 0) or s[0] < 0 or s[-1] > t):
        raise ArgumentError("jump times must satisfy 0 <= s_1 <= ... <= s_k <= t")
    J = effective_generator(lind)
    LJ = jump_superoperator(lind)
    S = kraus_superop(expm(J * (t - (s[-1] if s.size else 0.0))))
    for i in range(s.size - 1, -1, -1):
        lower = s[i - 1] if i > 0 else 0.0
        S = S @ LJ @ kraus_superop(expm(J * (s[i] - lower)))
    return S


def g_K_quadrature(lind: Lindbladian, t: float, K: int, q: int) -> np.ndarray:
    """Order-K series superoperator with exact drifts and nested quadrature sums."""
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    if K < 0:
        raise ArgumentError(f"series order must be nonnegative, got {K}")
    J = effective_generator(lind)
    if K == 0 or lind.num_jumps == 0 or t == 0.0:
        return kraus_superop(expm(J * t))
    return _static_superop(lind, canonical_rule(q, t), K,
                           lambda s, u: expm((u - s)[:, None, None] * J))


# ---------------------------------------------------------------------------
# truncation configuration and order selection


@dataclass(frozen=True)
class TruncationConfig:
    """Series order K, drift Taylor order Kp, quadrature order q, segmentation."""

    series_order: int
    taylor_order: int
    quadrature_order: int
    segment_time: float
    num_segments: int = 1

    def __post_init__(self):
        if self.series_order < 0 or self.taylor_order < 0:
            raise ArgumentError("truncation orders must be nonnegative")
        if self.quadrature_order < max(1, math.ceil(self.series_order / 2)):
            # below this floor the nested weights no longer total t^k / k!
            raise ArgumentError("quadrature order must be >= max(1, ceil(K / 2))")
        if not self.segment_time >= 0:
            raise ArgumentError("segment_time must be nonnegative")
        if self.num_segments < 1:
            raise ArgumentError("num_segments must be >= 1")


def choose_orders_from_bounds(beta: float, alpha_sq: float, seg_t: float, eps: float,
                              max_order: int = MAX_SEARCH_ORDER) -> TruncationConfig:
    """Smallest (K, Kp, q) whose closed-form bounds each stay below eps/3.

    The three error sources (series truncation, quadrature transfer, Taylor
    substitution) get an even eps/3 split. Selection is sequential: K first,
    then q given K (with the floor q >= ceil(K/2) that keeps the nested weight
    identities exact), then Kp against the total substituted-drift budget.
    Monotone in eps: halving eps never decreases any order.
    """
    if eps <= 0:
        raise ArgumentError(f"target precision must be positive, got {eps}")
    if seg_t < 0:
        raise ArgumentError(f"segment time must be nonnegative, got {seg_t}")
    budget = eps / 3.0
    if beta == 0.0 or seg_t == 0.0:
        return TruncationConfig(0, 0, 1, seg_t)

    if alpha_sq == 0.0:
        K = 0
    else:
        K = next((k for k in range(0, max_order + 1)
                  if bound_duhamel(k, seg_t, beta) <= budget), None)
        if K is None:
            raise InfeasiblePrecisionError(
                f"no series order <= {max_order} reaches eps = {eps}")

    if K == 0:
        q = 1
    else:
        q_floor = max(1, math.ceil(K / 2))
        q = next((qq for qq in range(q_floor, max_order + 1)
                  if sum(bound_quadrature(k, qq, seg_t, beta)
                         for k in range(1, K + 1)) <= budget), None)
        if q is None:
            raise InfeasiblePrecisionError(
                f"no quadrature order <= {max_order} reaches eps = {eps}")

    Kp = next((kp for kp in range(0, max_order + 1)
               if taylor_premise_holds(kp, seg_t, beta)
               and taylor_total_bound(kp, seg_t, beta) <= budget), None)
    if Kp is None:
        raise InfeasiblePrecisionError(
            f"no Taylor order <= {max_order} reaches eps = {eps}")

    return TruncationConfig(K, Kp, q, seg_t)


def choose_orders(lind: Lindbladian, seg_t: float, eps: float,
                  max_order: int = MAX_SEARCH_ORDER) -> TruncationConfig:
    """Order selection for a static model; see choose_orders_from_bounds."""
    return choose_orders_from_bounds(be_norm(lind), sum(a * a for a in lind.alphas),
                                     seg_t, eps, max_order)


# ---------------------------------------------------------------------------
# the Kraus family


def _normalizer_sum(beta: float, alpha_sq: float, tau: float, K: int) -> float:
    """e^{2 beta tau} sum_{k<=K} (sum alpha^2)^k tau^k / k!, the sum of squared
    term normalizers: the depth-k chain weights total tau^k / k! for q >= ceil(k/2)."""
    return math.exp(2 * beta * tau) * math.fsum(
        alpha_sq ** k * tau ** k / math.factorial(k) for k in range(K + 1))


@dataclass(frozen=True, eq=False)
class KrausTerm:
    """One Kraus operator: index (k, (l_1..l_k), (j_1..j_k)), its sqrt-weight
    coefficient, the bare matrix product, and the block-encoding normalizer."""

    index: tuple
    coefficient: float
    matrix: np.ndarray
    normalizer: float

    @property
    def operator(self) -> np.ndarray:
        return self.coefficient * self.matrix


class CPMapApprox:
    """Completely positive Kraus approximation of exp(L t), enumerated lazily.

    iter_terms yields the Kraus family one term at a time, never holding it all
    at once; the superoperator comes from series_superop on demand and is
    cached, and the normalizer sum has a closed form.
    """

    def __init__(self, lind: Lindbladian, t: float, config: TruncationConfig):
        if t < 0:
            raise ArgumentError(f"evolution time must be nonnegative, got {t}")
        K = config.series_order if (lind.num_jumps > 0 and t > 0) else 0
        self.lind = lind
        self.t = float(t)
        self.config = config
        self._series_order = K
        self._superop: np.ndarray | None = None
        J = effective_generator(lind)
        self._prop = _TaylorPropagator(J, config.taylor_order)
        self._rule = (canonical_rule(config.quadrature_order, t) if K > 0 else None)

    @property
    def term_count(self) -> int:
        m, q = self.lind.num_jumps, self.config.quadrature_order
        return 1 + _chain_count(m, q, self._series_order)

    @property
    def zero_jump_term(self) -> np.ndarray:
        return self._prop.batch(np.array([self.t]))[0]

    def iter_terms(self) -> Iterator[KrausTerm]:
        """Terms in canonical order: k ascending, then (l_k..l_1), then (j_k..j_1).

        Raises ResourceLimitError before the first term when term_count exceeds
        TERM_GUARDRAIL.
        """
        if self.term_count > TERM_GUARDRAIL:
            raise ResourceLimitError(
                f"Kraus read-out would yield {self.term_count} > {TERM_GUARDRAIL} terms")
        beta = be_norm(self.lind)
        e_bt = math.exp(beta * self.t)
        yield KrausTerm(index=(0, (), ()), coefficient=1.0,
                        matrix=self.zero_jump_term, normalizer=e_bt)
        for k in range(1, self._series_order + 1):
            grid = NestedGrid(self._rule, k)
            for ells in itertools.product(range(self.lind.num_jumps), repeat=k):
                alpha_prod = math.prod(self.lind.alphas[ell] for ell in ells)
                path = tuple(reversed(ells))
                for idx, nodes, weights in grid.chunks():
                    A = self._prop.batch(self.t - nodes[:, 0])
                    for pos in range(k):
                        nxt = nodes[:, pos + 1] if pos + 1 < k else 0.0
                        A = A @ self.lind.jumps[ells[pos]] @ self._prop.batch(nodes[:, pos] - nxt)
                    coeff = np.sqrt(np.prod(weights, axis=1))
                    for r in range(idx.shape[0]):
                        yield KrausTerm(index=(k, path, tuple(int(j) for j in idx[r, ::-1])),
                                        coefficient=float(coeff[r]),
                                        matrix=A[r],
                                        normalizer=float(coeff[r] * e_bt * alpha_prod))

    def as_superoperator(self) -> np.ndarray:
        if self._superop is None:
            if self._series_order == 0:
                self._superop = kraus_superop(self.zero_jump_term)
            else:
                self._superop = _static_superop(self.lind, self._rule, self._series_order,
                                                lambda s, u: self._prop.batch(u - s))
        return self._superop

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.as_superoperator() @ vec(np.asarray(rho, dtype=complex)))

    def normalizer_sum_squares(self) -> float:
        """sum_j s_j^2 over the family, s_j = coeff * e^{beta t} * prod alpha."""
        return _normalizer_sum(be_norm(self.lind), sum(a * a for a in self.lind.alphas),
                               self.t, self._series_order)


def enumerate_kraus(lind: Lindbladian, t: float, config: TruncationConfig) -> CPMapApprox:
    """Build the CP Kraus approximant for one segment of length t."""
    return CPMapApprox(lind, t, config)


def normalizer_sum_squares(cp: CPMapApprox) -> float:
    return cp.normalizer_sum_squares()


# ---------------------------------------------------------------------------
# end-to-end simulation


@dataclass(frozen=True)
class SimulationReport:
    total_time: float
    eps: float
    segments: int
    segment_time: float
    series_order: int
    taylor_order: int
    quadrature_order: int
    kraus_terms: int
    normalizer_sum_squares: float
    bound_duhamel: float
    bound_quadrature: float
    bound_taylor_total: float
    per_segment_eps: float
    trace_deviation: float
    measured_choi_lower: float | None = None
    measured_choi_upper: float | None = None

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items()}
        return out


def _zero_time_report(eps: float) -> SimulationReport:
    return SimulationReport(total_time=0.0, eps=eps, segments=0, segment_time=0.0,
                            series_order=0, taylor_order=0, quadrature_order=1,
                            kraus_terms=1, normalizer_sum_squares=1.0,
                            bound_duhamel=0.0, bound_quadrature=0.0,
                            bound_taylor_total=0.0, per_segment_eps=eps,
                            trace_deviation=0.0)


def _report(t: float, eps: float, n_seg: int, K: int, Kp: int, q: int, m: int,
            beta: float, alpha_sq: float, rho_out: np.ndarray,
            measured=(None, None)) -> SimulationReport:
    """Report of a run over n_seg equal segments with series order K, drift
    order Kp, quadrature order q and m jumps; measured is the Choi (lower,
    upper) pair when verified."""
    seg_t = t / n_seg
    bq = (sum(bound_quadrature(k, q, seg_t, beta) for k in range(1, K + 1))
          if (K > 0 and m > 0) else 0.0)
    return SimulationReport(
        total_time=float(t), eps=float(eps), segments=n_seg, segment_time=seg_t,
        series_order=K, taylor_order=Kp, quadrature_order=q,
        kraus_terms=1 + _chain_count(m, q, K),
        normalizer_sum_squares=_normalizer_sum(beta, alpha_sq, seg_t, K),
        bound_duhamel=bound_duhamel(K, seg_t, beta) if m else 0.0,
        bound_quadrature=bq,
        bound_taylor_total=taylor_total_bound(Kp, seg_t, beta),
        per_segment_eps=eps / n_seg,
        trace_deviation=float(abs(np.trace(rho_out).real - 1.0)),
        measured_choi_lower=measured[0],
        measured_choi_upper=measured[1],
    )


def _validate_rho0(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ModelError(f"rho0 must have shape {(dim, dim)}, got {rho.shape}")
    scale = max(1.0, float(np.abs(rho).max()))
    if np.abs(rho - rho.conj().T).max() > 1e-10 * scale:
        raise ModelError("rho0 is not Hermitian")
    rho = (rho + rho.conj().T) / 2
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ModelError(f"rho0 must have unit trace, got {np.trace(rho).real}")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ModelError("rho0 is not positive semidefinite")
    return rho


def _static_plan(lind: Lindbladian, t: float, eps: float,
                 weight_model: str = "conservative") -> TruncationConfig:
    """Equal segments no longer than the normalizer budget allows, with orders
    chosen per segment at precision eps / num_segments. At t = 0 this is one
    zero-length segment with K = 0."""
    if t == 0.0:
        return choose_orders(lind, 0.0, eps)
    tstar = segment_time(lind, cap=t, weight_model=weight_model)
    n_seg = max(1, math.ceil(t / tstar - 1e-12))
    return replace(choose_orders(lind, t / n_seg, eps / n_seg), num_segments=n_seg)


def simulate(lind: Lindbladian, rho0: np.ndarray, t: float, eps: float,
             verify: bool = False, weight_model: str = "conservative"):
    """Evolve rho0 for time t within diamond-norm error eps; returns (rho, report).

    The interval is split into equal segments no longer than the normalizer
    budget allows, orders are chosen per segment at precision eps/num_segments,
    and the same segment superoperator is applied num_segments times.
    """
    if t < 0:
        raise ArgumentError(f"evolution time must be nonnegative, got {t}")
    if eps <= 0:
        raise ArgumentError(f"target precision must be positive, got {eps}")
    rho = _validate_rho0(rho0, lind.dim)
    if t == 0.0:
        return rho, _zero_time_report(eps)

    cfg = _static_plan(lind, t, eps, weight_model)
    n_seg = cfg.num_segments
    S = enumerate_kraus(lind, cfg.segment_time, cfg).as_superoperator()
    v = vec(rho)
    for _ in range(n_seg):
        v = S @ v
    rho_out = unvec(v)

    measured = (None, None)
    if verify:
        measured = diamond_sandwich(np.linalg.matrix_power(S, n_seg), exact_channel(lind, t))
    return rho_out, _report(t, eps, n_seg, cfg.series_order, cfg.taylor_order,
                            cfg.quadrature_order, lind.num_jumps, be_norm(lind),
                            sum(a * a for a in lind.alphas), rho_out, measured)
