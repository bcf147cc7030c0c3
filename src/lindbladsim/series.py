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
One driver, _evolve, runs simulate and timedep.td_simulate alike: it checks
the inputs, plans with _plan, which picks the segment count and orders from the
model's declared bounds, applies the segment superoperators its caller's
source yields for that plan, and builds the one report.

The superoperator of the family is never built chain by chain: series_superop,
shared with the time-dependent extension, evaluates it as a recursion over the
quadrature-index multisets of quadrature.NestedGrid.table, the table that also
gives the read-out its node times and weights. Every node of the recursion is
a Kraus map and so preserves Hermiticity, G(E_ba) = G(E_ab)^dag; a node holds
only the half columns vec(E_ab), a <= b, and only the root is expanded to d^2
columns by that mirror. The widest level, the leaves' at depth K-1, is never
held whole: it streams through a pool of rows, each built just before the
first block of its parents that reads it and its row reused after the last.
The term index set is enumerated in one place, CPMapApprox.term_blocks, which
yields indices, coefficients and normalizers block by block without matrices;
iter_terms attaches the chain products to those blocks where the operators
themselves are needed. One value, _engine_plan, describes a series_superop
call: its nodes, the bytes it holds at once, its chunks and its blocks; the
call's guard checks that plan and the call runs it. A level's chunks write
disjoint rows, so series_superop, called on the main thread, runs the chunks
of a call whose widest level is more than one chunk on every CPU the process
may use, up to as many as fit the work size, each row from the same
products, and so the same bits, as one chunk at a time; the sources it
samples stay on the calling thread.

Each resource guard counts the work of the function that checks it, before
that work starts: series_superop its plan's nodes (MAX_SERIES_NODES) and
held bytes (MAX_SUPEROP_BYTES), which _evolve also checks for the planned
orders before the source builds or samples anything (the plan counts the
stage that holds most, its nodes, operators and indices, and the chunks in
flight by a figure that holds at any number of them, so its verdict does
not depend on the CPU count), term_blocks its terms
(quadrature.TERM_GUARDRAIL), and timedep.td_simulate and
timedep.rk4_reference their sampled times (MAX_SAMPLER_CALLS), one sampler
call each for a pointwise sampler. The (m q)^k chain count sizes only the
read-out, so it bounds no superoperator path.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import (ArgumentError, InfeasiblePrecisionError, ModelError, ResourceLimitError,
                     check_count, check_time)
from .linalg import batched_kraus_sum, expand_half, kraus_rows, kraus_superop, unvec, vec
from .metrics import diamond_sandwich
from .models import Lindbladian, be_norm, effective_generator, exact_channel
from .quadrature import TERM_GUARDRAIL, NestedGrid, QuadratureRule, canonical_rule

MAX_SEARCH_ORDER = 40


# ---------------------------------------------------------------------------
# closed-form error bounds


def _check_bound_args(t: float, beta: float) -> None:
    check_time(t, "time")
    check_time(beta, "beta")


def _inf_on_overflow(bound):
    """bound, returning math.inf where an intermediate leaves the float range,
    which is still an upper bound: on an OverflowError, or on the nan of an
    overflowed factor times an underflowed one. In-range values are bound's own."""
    @functools.wraps(bound)
    def checked(*args):
        try:
            value = bound(*args)
        except OverflowError:
            return math.inf
        return math.inf if math.isnan(value) else value
    return checked


@_inf_on_overflow
def bound_duhamel(K: int, t: float, beta: float) -> float:
    """Diamond-norm error of the K-fold Duhamel truncation with exact integrals."""
    check_count(K, "series order", 0)
    _check_bound_args(t, beta)
    return (2.0 * beta * t) ** (K + 1) / math.factorial(K + 1)


@_inf_on_overflow
def bound_taylor(Kp: int, t: float, beta: float) -> float:
    """Diamond-norm error of replacing the drift conjugation by its Taylor map."""
    check_count(Kp, "Taylor order", 0)
    _check_bound_args(t, beta)
    return 8.0 * math.exp(beta * t) * (beta * t) ** (Kp + 1) / math.factorial(Kp + 1)


def taylor_premise_holds(Kp: int, t: float, beta: float) -> bool:
    """(Kp+1)! >= 2 (beta t)^{Kp+1}, under which Taylor factors have norm <= 2."""
    return math.factorial(Kp + 1) >= 2.0 * (beta * t) ** (Kp + 1)


@_inf_on_overflow
def bound_composite(k: int, Kp: int, t: float, beta: float) -> float:
    """Pointwise error of the depth-k chain with all drifts Taylor-substituted."""
    check_count(k, "chain depth", 0)
    return bound_taylor(Kp, t, beta) * (4.0 * beta) ** k


@_inf_on_overflow
def bound_quadrature(k: int, q: int, t: float, beta: float) -> float:
    """Error of the depth-k nested Gauss-Legendre sum against the exact integral."""
    check_count(k, "chain depth", 1)
    check_count(q, "quadrature order", 1)
    _check_bound_args(t, beta)
    return ((2.0 * t) ** (k - 1) * 2.0 ** (k + 1) * beta ** k
            * beta ** (2 * q) * t ** (2 * q + 1) * q
            / (math.factorial(k - 1) * math.factorial(2 * q)))


def quadrature_total_bound(K: int, q: int, t: float, beta: float) -> float:
    """bound_quadrature summed over the chain depths 1..K; 0.0 at K = 0."""
    return sum((bound_quadrature(k, q, t, beta) for k in range(1, K + 1)), 0.0)


@_inf_on_overflow
def taylor_total_bound(Kp: int, t: float, beta: float) -> float:
    """Total Taylor-substitution error across all chain depths, plus the k=0 term."""
    tail = 32.0 * math.exp(5.0 * beta * t) * (beta * t) ** (Kp + 2) / math.factorial(Kp + 1)
    return bound_taylor(Kp, t, beta) + tail


# ---------------------------------------------------------------------------
# segment budget


def _budget_expression(t: float, beta: float, alpha_sq: float) -> float:
    return math.exp(2 * beta * t) + t * alpha_sq * math.exp(2 * beta * t) * math.exp(t * alpha_sq)


def _alpha_sq(model) -> float:
    return sum(a * a for a in model.alphas)


def segment_time(model) -> float:
    """Largest segment length keeping the normalizer budget expression <= 2, from
    the declared bounds of a Lindbladian or a TimeDependentLindbladian.

    With beta = 0 the dynamics are trivial and infinity is returned, as it is
    when the bracket [0, 1/beta] overflows (beta below about 5.6e-309). At
    1/beta the expression is at least e^2 > 2, so the root lies in that
    bracket. Bisection runs to absolute tolerance 1e-12, or until the
    endpoints are adjacent floats (roots above 2^13), returning the inner
    endpoint, so the expression value lands in [2 - 1e-9, 2]; a root below
    the tolerance (beta above about 5e11) comes back as 0.0.
    """
    beta, alpha_sq = be_norm(model), _alpha_sq(model)
    lo, hi = 0.0, 1.0 / beta if beta else math.inf
    if hi == math.inf:
        return hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if _budget_expression(mid, beta, alpha_sq) <= 2.0:
            lo = mid
        else:
            hi = mid
    return lo


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
        return (coeff @ self.powers.reshape(Kp + 1, -1)).reshape(-1, *self.powers.shape[1:])


# ---------------------------------------------------------------------------
# memoized series engine

# Guard limits (see the module docstring). At 20-50 us per node (d <= 4, one
# or two jumps, up to 203,490 nodes) the node cap is at most about 13 s of work.
# td_simulate takes about 6, 12 and 28 us per sampled time at d = 2, 4 and 8
# with a pointwise sampler, and 4, 9 and 27 us with a batched one (a rotating
# model with one jump at eps 1e-6, t = 10: 512,512 sampled times; 2 vCPUs, one
# BLAS thread), so the sampler cap is about 6 s of work at d = 2 and 28 s at d = 8.
MAX_SERIES_NODES = 2 ** 18
MAX_SUPEROP_BYTES = 2 ** 30
MAX_SAMPLER_CALLS = 10 ** 6
_WORK_BYTES = 2 ** 23
# what one series_superop call holds beyond its counted arrays (the
# interpreter's objects and numpy's buffers), counted whole by its byte guard;
# tracemalloc saw at most 18 KB of it at d = 2, 4 and 8, K <= 8
_CALL_BYTES = 2 ** 16


def _chain_count(m: int, q: int, K: int) -> int:
    return sum((m * q) ** k for k in range(1, K + 1))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _parent_work(q: int, m: int, d: int, parts: int = 1) -> int:
    """Bytes of one parent's work in series_superop (see _engine_plan for the
    arguments): its gathered children and products, 1 + q(m+1) nodes of
    8 d^3 (d+1) bytes when one chunk runs at a time, and 2 + q m nodes when
    several do, as those gather one child at a time; its q m conjugated,
    weighted jump factors; and 4 KiB for the interpreter's objects and numpy's
    temporaries, which tracemalloc saw take up to 3.6 KiB of a one-parent
    linalg.kraus_rows call at d = 2."""
    nodes = 1 + q * (m + 1) if parts == 1 else 2 + q * m
    return nodes * 8 * d ** 3 * (d + 1) + q * m * 16 * d * d + 4096


def _block(q: int, d: int) -> int:
    """Parents of depth K-2 that series_superop runs per block: as many as fit
    their q children's rows in _WORK_BYTES, and at least one."""
    return max(1, _WORK_BYTES // (q * 8 * d ** 3 * (d + 1)))


@functools.lru_cache(maxsize=32)
def _leaf_schedule(q: int, K: int, segments: int, block: int):
    """(bounds, slot, pool): how series_superop of order K >= 2 on segments
    segments streams its leaves' level, depth K-1, through pool rows while the
    depth K-2 parents run in blocks of block rows, in table order. Leaf rows
    bounds[b] to bounds[b+1] are those block b reads first; they are built into
    the pool rows slot[r] while the block before runs, and a pool row is reused
    once every block that reads its leaf has run, so pool is the most leaves
    held at once. With one block no row is freed before the last leaf is built,
    so the slots are the leaf rows themselves and pool is every leaf. Read-only,
    cached per shape."""
    per_segment = math.comb(q + K - 2, K - 1)
    n_leaf = segments * per_segment
    ch = NestedGrid(canonical_rule(q, 1.0), K - 1).table[2][K - 2]
    ch = (ch + per_segment * np.arange(segments)[:, None, None]).ravel()
    blocks = np.arange(ch.size) // (q * block)  # the block of each (parent, child)
    # a leaf's first parent is its multiset less its largest index, and the
    # table lists the leaves by that parent, so first ascends with the leaf row
    first, last = np.full(n_leaf, blocks[-1]), np.zeros(n_leaf, dtype=np.int64)
    np.minimum.at(first, ch, blocks)
    np.maximum.at(last, ch, blocks)
    # each leaf takes the row of a leaf that no block from the one before its
    # first reads, or else a new row; leaves die in the order of their last
    # block (sorted, as np.argsort's code pages would add about 0.15 MB to the
    # resident memory of a process whose calls are all one block)
    ends = last.tolist()
    dying = sorted(range(n_leaf), key=ends.__getitem__)
    slot, free, k, pool = list(range(n_leaf)), [], 0, 0
    for r, f in enumerate(first.tolist()):
        while ends[dying[k]] < f - 1:
            free.append(slot[dying[k]])
            k += 1
        if free:
            slot[r] = free.pop()
        else:
            slot[r], pool = pool, pool + 1
    bounds, slot = np.searchsorted(first, np.arange(blocks[-1] + 3)), np.array(slot)
    bounds.flags.writeable = slot.flags.writeable = False
    return bounds, slot, pool


def _engine_plan(q: int, K: int, m: int, d: int, segments: int = 1) -> tuple[int, ...]:
    """(nodes, levels, per_call, parts, chunk, block), the plan of one
    series_superop call of order K over the q-point rule, m jumps on d x d
    operators, on segments segments: the nodes it builds per segment, the
    C(q+K-1, K-1) of depths 0..K-1 (0 at order 0); levels + per_call, the
    most bytes it holds at once; the chunks it runs at once, parts, of chunk
    rows each, parents or leaves; and block, the rows per block of its depth
    K-2 parents (_block).

    K = 0 or m = 0 leaves the order-0 term alone, one d^2 x d^2 superoperator
    of 16 d^4 bytes per segment, in one chunk. Otherwise levels are the bytes
    of the stage that holds most, in nodes of 16 d^2 d(d+1)/2 bytes, operator
    matrices of 16 d^2 bytes and 8-byte times, weights and indices, counted
    from the P parents and C children of a depth over all segments:
    - forming depth i: its propagators and the copies of its closing and
      jump-side ones with their gathered jumps, P(2 + 2q + qm) matrices, and
      the more of the jumps, Cm, and the jump-side factors, Pqm. The leaves'
      level, depth K-1, also makes their own propagators, C, and their
      operators, 1 + qm a leaf, which are kept; making those holds up to
      P(3 + q + 3qm) + C.
    - running depth i: its propagators and jump-side factors, q + 2 + qm a
      parent, its rows and the rows below. The leaves' level is never held
      whole: while depth K-2 runs, with the leaves' operators, the rows held
      are those of depth K-2 and the leaf pool's high-water mark
      (_leaf_schedule); while K-3 runs, those of depths K-2 and K-3. At K = 1
      the leaves' rows are the root's.
    - expanding the root: its half columns twice and the full superoperator.
    Only the running stages hold chunks in flight, so the others enter levels
    less those.

    A call whose widest level, the leaves' at depth K-1, which it builds but
    never holds whole, is one chunk when run alone, or that runs off the main
    thread, runs one chunk at a time and asks for no CPUs, so callers that run
    calls on threads of their own do not multiply them. Otherwise it runs one
    per CPU this process may use, but no more than fit one parent's per-child
    work each in _WORK_BYTES; its widest level is then more than one chunk at
    any number of parts. The chunks in flight hold at most max(_WORK_BYTES,
    one parent's work alone) at any number of parts: several parts' chunks fit
    _WORK_BYTES at the per-child work, and one part's chunk fits it or is one
    parent. That overcounts one chunk at a time by less than one parent's
    work alone. per_call adds to them the nested table, the times of the
    widest propagator call and _CALL_BYTES."""
    if not (K and m):
        return 0, segments * 16 * d ** 4, 0, 1, 1, 1
    node, mat, work, block = 8 * d ** 3 * (d + 1), 16 * d * d, _parent_work(q, m, d), _block(q, d)
    nodes, flight = math.comb(q + K - 1, K - 1), max(_WORK_BYTES, work)

    def rows(i: int) -> int:
        return segments * math.comb(q + i - 1, i)

    def formed(i: int) -> int:
        P, C, leaf = rows(i), rows(i + 1), i == K - 1
        most = P * (2 + 2 * q + q * m) + max(C * m, P * q * m)
        if leaf:
            most = C + max(most, P * (3 + q + 3 * q * m))
        return most * mat + 16 * P * (q + leaf * (1 + q * m))

    def kept(i: int) -> int:
        return rows(i) * ((q + 2 + q * m) * mat + 24 * q)

    kraus = rows(K - 1) * (1 + q * m) * (mat + 8)
    alone = [formed(K - 1), segments * (2 * node + 16 * d ** 4)]
    running = [node * rows(0) + kraus]
    if K > 1:
        # one block reads every leaf first; a shape over the node cap, refused
        # on its nodes, builds no schedule
        pool = (rows(K - 1) if rows(K - 2) <= block or nodes > MAX_SERIES_NODES
                else _leaf_schedule(q, K, segments, block)[2])
        alone.append(kraus + formed(K - 2))
        running = [node * (rows(K - 2) + pool) + kraus + kept(K - 2)]
    if K > 2:
        alone.append(node * rows(K - 2) + formed(K - 3))
        running.append(node * (rows(K - 2) + rows(K - 3)) + kept(K - 3))
    # the nested table, and the times of the widest propagator call twice over
    table = 8 * (math.comb(q + K, K) + 2 * q * math.comb(q + K - 1, K - 1)
                 + 4 * (q + 1) * math.comb(q + K - 2, K - 1) + 4 * math.comb(q + K - 1, K))
    parts = 1
    if (rows(K - 1) > max(1, _WORK_BYTES // work)
            and threading.current_thread() is threading.main_thread()):
        parts = min(_cpu_count(), max(1, _WORK_BYTES // _parent_work(q, m, d, 2)))
    return (nodes, max(max(running), max(alone) - flight), flight + table + _CALL_BYTES, parts,
            max(1, _WORK_BYTES // (parts * _parent_work(q, m, d, parts))), block)


def _check_engine(q: int, K: int, m: int, d: int, segments: int = 1) -> tuple[int, ...]:
    """Check the resource limits of one series_superop call on segments segments
    and return its plan, _engine_plan(q, K, m, d, segments).

    Raises ResourceLimitError when its nodes exceed MAX_SERIES_NODES, or when
    the bytes it holds at once would exceed MAX_SUPEROP_BYTES.
    """
    plan = _engine_plan(q, K, m, d, segments)
    if plan[0] > MAX_SERIES_NODES:
        raise ResourceLimitError(f"series engine would build {plan[0]} > {MAX_SERIES_NODES} nodes")
    if plan[1] + plan[2] > MAX_SUPEROP_BYTES:
        raise ResourceLimitError(
            f"series engine would hold {plan[1] + plan[2]} > {MAX_SUPEROP_BYTES} bytes "
            "of superoperators at once")
    return plan


def _segments_per_call(q: int, K: int, m: int, d: int, extra_bytes: int) -> int:
    """The most segments one series_superop call may take (see _engine_plan for
    the arguments) when each segment also holds extra_bytes: at least one, and no
    more than keep those and the engine's levels within _WORK_BYTES and the call
    within MAX_SUPEROP_BYTES, so a call whose single segment passes
    _check_engine passes it on this many. The levels grow with the segments, by
    at least one node each, so the count is found by bisection."""
    def fits(segments: int) -> bool:
        _, levels, per_call = _engine_plan(q, K, m, d, segments)[:3]
        return (segments * extra_bytes + levels <= _WORK_BYTES
                and levels + per_call <= MAX_SUPEROP_BYTES)

    lo, hi = 1, max(1, _WORK_BYTES // (extra_bytes + 8 * d ** 3 * (d + 1)))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
    return lo


def _run_shares(pool: ThreadPoolExecutor | None, parts: int, tasks: list) -> None:
    """Call every zero-argument task of tasks, in parts shares: the calling
    thread runs tasks[::parts] and pool thread k runs tasks[k::parts], k = 1 ..
    parts-1 (none when parts is 1, where pool may be None). Returns when all
    are done, or raises the first error met; the pool's owner then cancels the
    rest."""
    def run_share(share) -> None:
        for task in share:
            task()

    shares = [pool.submit(run_share, tasks[k::parts]) for k in range(1, parts)]
    run_share(tasks[::parts])
    for share in shares:
        share.result()


def _leaf_rows(out: np.ndarray, wts: np.ndarray, A: np.ndarray, slot: np.ndarray,
               sl: slice) -> None:
    """Leaf rows sl of series_superop, in Kraus form from the leaves' operators
    A and weights wts, into the rows slot[sl] of out."""
    out[slot[sl]] = batched_kraus_sum(wts[sl], A[sl])


def series_superop(propagate, jumps, t: float, q: int, K: int, m: int,
                   d: int, nested: NestedGrid | None = None, segments: int = 1) -> np.ndarray:
    """Superoperators (S, d^2, d^2) of the order-K series on [0, t] over the
    q-point rule, for S = segments segments that share t and the rule but not
    their propagators or jumps.

    When K = 0, m = 0 or t = 0 only the order-0 term is left: the drift
    conjugation K[T(0, t)], from one propagator call. Otherwise the nested grid
    scales canonical_rule(q, t) into [0, u] below every node u, at the
    nodes u x_j with x_j = shat_j / t, so the series is the recursion

        G_r(u) = K[T(0, u)]
                 + sum_j (u w_j / t) sum_l K[T(u x_j, u) L_l(u x_j)] G_{r-1}(u x_j),

    G_0(u) = K[T(0, u)], evaluated as G_K(t). Its node times u, weights
    u w_j / t and children come from NestedGrid(rule, K).table, one node per
    index multiset, and each node is built once, deepest level first. Depth
    K-1 is closed in Kraus form, so leaves are never stored. Only its
    operators and weights are kept: its rows stream through a pool while the
    depth K-2 parents run in blocks, in table order, each built into a free
    pool row just before the first block that reads it, with the block
    before, and its row freed after the last (_leaf_schedule). Every
    other stored level is one array. A chunk of parents takes its children
    from the rows below by indexed gathers; every row comes from the same
    products, however the blocks fall.
    propagate(s, u) returns each segment's T(s_b, u_b) as an (S, B, d, d) array
    and jumps(u) its L_l(u_b) as an (S, B, m, d, d) array; both are called once
    per level for all S segments, on the calling thread. A level's rows are its
    parents segment by segment, each row's children offset into the rows below
    by its segment, so one chunk loop walks every segment and each row is
    computed by the same products, of the same shapes, whatever S is. A caller
    that samples at the node times passes the NestedGrid it sampled from as
    nested, so both read one table.

    Chunks write disjoint rows, so a call whose widest level is more than one
    chunk run alone runs them on every CPU the process may use, within the work
    size and on the main thread only. The parts, the rows per chunk and the
    block come from the plan (_engine_plan) that the call's own guard checks
    first, so the call runs the schedule whose bytes were counted. Each step,
    a level or a block of depth K-2 with the leaves the next block reads
    first, is one task list, its chunks of parents (linalg.kraus_rows) and
    then of leaves (_leaf_rows), run by one _run_shares call: the calling
    thread takes one share and a thread pool, opened for the call, the
    others. Such a call
    gathers one child at a time, which keeps the bytes of the chunks in flight
    near those of one chunk gathering all q; the products, and so every bit of
    the result, are the same either way. Any other call runs its chunks in turn
    and starts no thread.

    Every node is a Kraus map and so preserves Hermiticity, G(E_ba) =
    G(E_ab)^dag, and each column of G_r is fixed by the same column of its
    children. So a node holds only its d(d+1)/2 half columns vec(E_ab), a <= b,
    b-major, a (d^2, d(d+1)/2) block, and only the root is expanded
    (linalg.expand_half): its column for E_ba is vec(G(E_ab)^dag), a bitwise
    mirror.

    Raises ArgumentError unless K >= 0 and q >= 1 are integers, and
    ResourceLimitError from _check_engine, on the plan, before building
    anything.
    """
    check_count(K, "series order", 0)
    check_count(q, "quadrature order", 1)
    *_, parts, chunk, block = _check_engine(q, K if t else 0, m, d, segments)
    if K == 0 or m == 0 or t == 0.0:
        return kraus_superop(propagate(np.zeros(1), np.array([t]))[:, 0])
    nh = d * (d + 1) // 2

    if nested is None:
        nested = NestedGrid(canonical_rule(q, t), K)
    u, weights, children = nested.table

    # with more than one part the deepest level is more than one chunk (_engine_plan)
    pool = ThreadPoolExecutor(parts - 1) if parts > 1 else None
    G = None
    try:
        for i in range(K - 1, -1, -1):
            up, uc, ch, W = u[i], u[i + 1], children[i], weights[i]
            n_p = up.size
            lo, hi = [np.zeros(n_p), uc[ch].ravel()], [up, np.repeat(up, q)]
            if i == K - 1:
                lo.append(np.zeros(uc.size))
                hi.append(uc)
            T = propagate(np.concatenate(lo), np.concatenate(hi))
            # rows are parents segment by segment, and each row's children are
            # offset into the rows of the level below by its segment
            ch = np.add.outer(uc.size * np.arange(segments), ch).reshape(-1, q)
            W = np.concatenate([W] * segments)
            close = T[:, :n_p].reshape(-1, d, d)
            B = (T[:, n_p:n_p * (q + 1)].reshape(-1, q, 1, d, d)
                 @ jumps(uc).reshape(-1, m, d, d)[ch])
            n_rows = close.shape[0]
            if i == K - 1:
                # depth-K leaves in Kraus form: close at weight 1, then T(u x_j, u) L_l T(0, u x_j)
                A = np.concatenate([close[:, None],
                                    (B @ T[:, n_p * (q + 1):].reshape(-1, d, d)[ch][:, :, None])
                                    .reshape(n_rows, q * m, d, d)], axis=1)
                wts = np.concatenate([np.ones((n_rows, 1)), np.repeat(W, m, axis=1)], axis=1)
                T = B = close = None
                if K > 1:
                    continue
            level = np.empty((n_rows, d * d, nh), dtype=complex)
            if i == K - 1:
                # K = 1: the leaves' rows are the root's
                G, slot, steps = level, np.arange(n_rows), [(range(0), range(n_rows))]
            elif i == K - 2:
                # the leaves' rows stream through a pool: each block of parents runs
                # in one share with the leaves the next block reads first
                bounds, slot, size = _leaf_schedule(q, K, segments, block)
                G, ch = np.empty((size, d * d, nh), dtype=complex), slot[ch]
                steps = ((range(max(0, b * block), min(b * block + block, n_rows)),
                          range(bounds[b + 1], bounds[b + 2])) for b in range(-1, len(bounds) - 2))
            else:
                steps = [(range(n_rows), range(0))]
            for parents, leaves in steps:
                _run_shares(pool, parts, [
                    *(functools.partial(kraus_rows, level, G, B, W, ch, close, parts > 1,
                                        slice(x, min(x + chunk, parents.stop)))
                      for x in parents[::chunk]),
                    *(functools.partial(_leaf_rows, G, wts, A, slot,
                                        slice(x, min(x + chunk, leaves.stop)))
                      for x in leaves[::chunk])])
            G, A, wts, T, B, close = level, None, None, None, None, None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return expand_half(G)


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
        check_count(self.series_order, "series order", 0)
        check_count(self.taylor_order, "Taylor order", 0)
        check_count(self.quadrature_order, "quadrature order", 1)
        if self.quadrature_order < math.ceil(self.series_order / 2):
            # below this floor the nested weights no longer total t^k / k!
            raise ArgumentError("quadrature order must be >= max(1, ceil(K / 2))")
        check_time(self.segment_time, "segment_time")
        check_count(self.num_segments, "num_segments", 1)


def choose_orders(model, seg_t: float, eps: float) -> TruncationConfig:
    """Smallest (K, Kp, q) whose closed-form bounds each stay below eps/3, from
    the declared bounds of a Lindbladian or a TimeDependentLindbladian.

    The three error sources (series truncation, quadrature transfer, Taylor
    substitution) get an even eps/3 split. Selection is sequential: K first,
    then q given K (with the floor q >= ceil(K/2) that keeps the nested weight
    identities exact), then Kp against the total substituted-drift budget.
    Monotone in eps: halving eps never decreases any order. At beta = 0 or
    seg_t = 0 every bound is 0, so the search itself gives K = Kp = 0, q = 1.
    """
    check_time(eps, "target precision", positive=True)
    check_time(seg_t, "segment time")
    beta, alpha_sq = be_norm(model), _alpha_sq(model)
    budget = eps / 3.0

    def least(lo, meets, what):
        for order in range(lo, MAX_SEARCH_ORDER + 1):
            if meets(order):
                return order
        raise InfeasiblePrecisionError(f"no {what} order <= {MAX_SEARCH_ORDER} reaches eps = {eps}")

    K = 0 if alpha_sq == 0.0 else least(
        0, lambda k: bound_duhamel(k, seg_t, beta) <= budget, "series")
    q = least(max(1, math.ceil(K / 2)),
              lambda qq: quadrature_total_bound(K, qq, seg_t, beta) <= budget, "quadrature")
    Kp = least(0, lambda kp: taylor_total_bound(kp, seg_t, beta) <= budget
               and taylor_premise_holds(kp, seg_t, beta), "Taylor")
    return TruncationConfig(K, Kp, q, seg_t)


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
    """Completely positive Kraus approximation of exp(L t), read out lazily.

    term_blocks yields the family's indices, coefficients and normalizers block
    by block without matrices; it is the one enumeration of the index set, and
    iter_terms only attaches the chain products to its blocks. The
    superoperator comes from series_superop on demand and is cached, and the
    normalizer sum has a closed form.
    """

    def __init__(self, lind: Lindbladian, t: float, config: TruncationConfig):
        check_time(t)
        K = config.series_order if (lind.num_jumps > 0 and t > 0) else 0
        self.lind = lind
        self.t = float(t)
        self.config = config
        self._series_order = K
        self._superop: np.ndarray | None = None
        J = effective_generator(lind)
        self._prop = _TaylorPropagator(J, config.taylor_order)

    @functools.cached_property
    def _rule(self) -> QuadratureRule:
        """The read-out's quadrature rule, built on first use, which only a
        family with terms of depth 1 or deeper makes."""
        return canonical_rule(self.config.quadrature_order, self.t)

    @property
    def term_count(self) -> int:
        m, q = self.lind.num_jumps, self.config.quadrature_order
        return 1 + _chain_count(m, q, self._series_order)

    def term_blocks(self):
        """Blocks (k, (l_k..l_1), indices, nodes, sqrt(prod w), normalizers), k
        ascending, then the jump path, then a (B, k) NestedGrid chunk (outermost
        first; one empty row at k = 0); normalizer = coeff * e^{beta t} * prod alpha.
        With more than one jump, the jump paths of a depth share its index, node
        and coefficient arrays, so they are read-only to the caller.

        Raises ResourceLimitError on the call, before the first block, when
        term_count exceeds TERM_GUARDRAIL."""
        if self.term_count > TERM_GUARDRAIL:
            raise ResourceLimitError(
                f"Kraus read-out would yield {self.term_count} > {TERM_GUARDRAIL} terms")
        return self._blocks()

    def _blocks(self):
        e_bt = math.exp(be_norm(self.lind) * self.t)
        m = self.lind.num_jumps
        empty = [(np.empty((1, 0), dtype=np.int64), np.empty((1, 0)), np.empty((1, 0)))]
        for k in range(self._series_order + 1):
            chunks = ((idx, nodes, np.sqrt(np.prod(weights, axis=1))) for idx, nodes, weights
                      in (NestedGrid(self._rule, k).chunks() if k else empty))
            if m > 1:
                # every one of the m^k jump paths reads the depth's chunks
                chunks = list(chunks)
            for ells in itertools.product(range(m), repeat=k):
                alpha_prod = math.prod(self.lind.alphas[ell] for ell in ells)
                for idx, nodes, coeff in chunks:
                    yield k, ells[::-1], idx, nodes, coeff, coeff * e_bt * alpha_prod

    def iter_terms(self) -> Iterator[KrausTerm]:
        """term_blocks one term at a time, with the chain product
        T(t - s_k) L_{l_k} ... L_{l_1} T(s_1) of each term attached."""
        for k, path, idx, nodes, coeff, norms in self.term_blocks():
            ends = np.column_stack([np.full(len(idx), self.t), nodes, np.zeros(len(idx))])
            A = self._prop.batch(ends[:, 0] - ends[:, 1])
            for pos, ell in enumerate(path[::-1]):
                A = A @ self.lind.jumps[ell] @ self._prop.batch(ends[:, pos + 1] - ends[:, pos + 2])
            for r, js in enumerate(idx[:, ::-1].tolist()):
                yield KrausTerm(index=(k, path, tuple(js)), coefficient=float(coeff[r]),
                                matrix=A[r], normalizer=float(norms[r]))

    def as_superoperator(self) -> np.ndarray:
        """series_superop for one segment, with the Taylor drift propagator and
        constant jumps; built on first use and cached."""
        if self._superop is None:
            cfg, L = self.config, self.lind.jumps
            self._superop = series_superop(lambda s, u: self._prop.batch(u - s)[None],
                                           lambda u: np.repeat(L[None, None], u.size, axis=1),
                                           self.t, cfg.quadrature_order, cfg.series_order,
                                           self.lind.num_jumps, self.lind.dim)[0]
        return self._superop

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.as_superoperator() @ vec(np.asarray(rho, dtype=complex)))

    def normalizer_sum_squares(self) -> float:
        """sum_j s_j^2 over the family, s_j = coeff * e^{beta t} * prod alpha."""
        return _normalizer_sum(be_norm(self.lind), _alpha_sq(self.lind), self.t,
                               self._series_order)


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
        return dict(self.__dict__)


def _report(model, t: float, eps: float, cfg: TruncationConfig,
            rho_out: np.ndarray) -> SimulationReport:
    """Report of a run of model over cfg's equal segments."""
    n_seg, seg_t, m, beta = cfg.num_segments, cfg.segment_time, model.num_jumps, be_norm(model)
    K, q = cfg.series_order, cfg.quadrature_order
    return SimulationReport(
        total_time=float(t), eps=float(eps), segments=n_seg, segment_time=seg_t,
        series_order=K, taylor_order=cfg.taylor_order, quadrature_order=q,
        kraus_terms=1 + _chain_count(m, q, K),
        normalizer_sum_squares=_normalizer_sum(beta, _alpha_sq(model), seg_t, K),
        bound_duhamel=bound_duhamel(K, seg_t, beta) if m else 0.0,
        bound_quadrature=quadrature_total_bound(K, q, seg_t, beta),
        bound_taylor_total=taylor_total_bound(cfg.taylor_order, seg_t, beta),
        per_segment_eps=eps / n_seg,
        trace_deviation=float(abs(np.trace(rho_out).real - 1.0)),
    )


def _validate_rho0(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ModelError(f"rho0 must have shape {(dim, dim)}, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ModelError("rho0 contains non-finite entries")
    scale = max(1.0, float(np.abs(rho).max()))
    if np.abs(rho - rho.conj().T).max() > 1e-10 * scale:
        raise ModelError("rho0 is not Hermitian")
    rho = (rho + rho.conj().T) / 2
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ModelError(f"rho0 must have unit trace, got {np.trace(rho).real}")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ModelError("rho0 is not positive semidefinite")
    return rho


def _plan(model, t: float, eps: float, counts=lambda n0: (n0,)) -> TruncationConfig:
    """Equal segments and their orders for a run of model over [0, t] at precision eps.

    n0 is the fewest equal segments no longer than segment_time allows (1 at
    t = 0); a segment_time of 0.0, from a be-norm above about 5e11, or a
    t / segment_time past the float range raises ResourceLimitError at t > 0.
    Every count at or above n0 keeps the normalizer budget, and a count in
    counts(n0) below it raises ArgumentError. Each count n gets orders at
    precision eps / n, and the feasible count with the least n times chain
    count wins, the first on ties. When no count is feasible, the first
    count's InfeasiblePrecisionError is raised.
    """
    check_time(t)
    seg = segment_time(model)
    if seg == 0.0 and t > 0:
        raise ResourceLimitError(f"be-norm {be_norm(model)!r} leaves no segment length "
                                 "within the normalizer budget")
    if t > 0 and t / seg == math.inf:
        raise ResourceLimitError(f"time {t!r} is more segments of length {seg!r} than floats count")
    n0 = max(1, math.ceil(t / seg - 1e-12)) if t > 0 else 1
    best, first_error = None, None
    for n in counts(n0):
        if n < n0:
            raise ArgumentError(
                f"{n} segments are fewer than the budget minimum n0 = {n0}; longer "
                "segments break the normalizer budget")
        try:
            cfg = choose_orders(model, t / n, eps / n)
        except InfeasiblePrecisionError as ex:
            first_error = first_error or ex
            continue
        work = n * _chain_count(max(model.num_jumps, 1), cfg.quadrature_order,
                                cfg.series_order)
        if best is None or work < best[0]:
            best = (work, replace(cfg, num_segments=n))
    if best is None:
        raise first_error
    return best[1]


def _evolve(model, rho0: np.ndarray, t: float, eps: float, source,
            counts=lambda n0: (n0,)):
    """The one run of simulate and td_simulate: evolve rho0 under model for time
    t within error eps; returns (rho, report).

    After the checks on t, eps and rho0 (t = 0 returns rho0 and its report at
    once), the run is planned by _plan(model, t, eps, counts) and the series
    engine's guards are checked on the plan. source(plan) then returns the
    configuration to report and the segment superoperators, in time order,
    which are applied to vec(rho0) as they come.
    """
    check_time(t)
    check_time(eps, "target precision", positive=True)
    rho = _validate_rho0(rho0, model.dim)
    if t == 0.0:
        # no segment: the identity, one order-0 term of normalizer 1, no error
        return rho, SimulationReport(0.0, eps, 0, 0.0, 0, 0, 1, 1, 1.0, 0.0, 0.0, 0.0, eps, 0.0)
    plan = _plan(model, t, eps, counts)
    _check_engine(plan.quadrature_order, plan.series_order, model.num_jumps, model.dim)
    cfg, superops = source(plan)
    v = vec(rho)
    for S in superops:
        v = S @ v
    rho = unvec(v)
    return rho, _report(model, t, eps, cfg, rho)


def simulate(lind: Lindbladian, rho0: np.ndarray, t: float, eps: float,
             verify: bool = False):
    """Evolve rho0 for time t within diamond-norm error eps; returns (rho, report).

    The interval is split into equal segments no longer than the normalizer
    budget allows, orders are chosen per segment at precision eps/num_segments,
    and the same segment superoperator is applied num_segments times. verify
    sets the Choi bounds of its num_segments-th power against exact_channel on
    the report.
    """
    built = []

    def source(cfg):
        built.append(CPMapApprox(lind, cfg.segment_time, cfg).as_superoperator())
        return cfg, itertools.repeat(built[0], cfg.num_segments)

    rho, report = _evolve(lind, rho0, t, eps, source)
    if verify and built:
        lower, upper = diamond_sandwich(np.linalg.matrix_power(built[0], report.segments),
                                        exact_channel(lind, t))
        report = replace(report, measured_choi_lower=lower, measured_choi_upper=upper)
    return rho, report
