import itertools
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindbladsim import (
    ArgumentError,
    ModelError,
    CPMapApprox,
    InfeasiblePrecisionError,
    Lindbladian,
    ResourceLimitError,
    TruncationConfig,
    amplitude_damping,
    be_norm,
    bound_composite,
    bound_duhamel,
    bound_quadrature,
    bound_taylor,
    canonical_rule,
    choi,
    choose_orders,
    dag,
    diamond_sandwich,
    drift_generator_matrix,
    drift_semigroup,
    effective_generator,
    exact_channel,
    f_k,
    from_static,
    g_K_quadrature,
    jump_superoperator,
    kraus_superop,
    mu_coefficients,
    nested_grid,
    quadrature_error_bound,
    random_lindbladian,
    rk4_reference,
    segment_time,
    simulate,
    spectral_norm,
    taylor_drift,
    trace_norm,
    unvec,
    vec,
)
from lindbladsim import series
from lindbladsim.linalg import kraus_rows
from lindbladsim.series import _TaylorPropagator, _budget_expression, series_superop

from duhamel_reference import duhamel_increments
from fixtures import SZ
from kraus_reference import per_term_rows


def choi_lower(S1, S2):
    return diamond_sandwich(S1, S2)[0]


# ---------------------------------------------------------------------------
# f_k


def test_f_k_zero_depth_is_drift():
    lind = amplitude_damping()
    np.testing.assert_allclose(f_k(lind, 1.0, []), drift_semigroup(lind, 1.0),
                               atol=1e-13)


def test_f_k_vanishes_without_jumps():
    lind = Lindbladian(SZ)
    np.testing.assert_allclose(f_k(lind, 1.0, [0.5]), np.zeros((4, 4)), atol=0)


def test_f_k_alternate_composition():
    lind = amplitude_damping()
    direct = f_k(lind, 1.0, [0.5])
    D = drift_generator_matrix(lind)
    alt = scipy.linalg.expm(0.5 * D) @ jump_superoperator(lind) @ scipy.linalg.expm(0.5 * D)
    np.testing.assert_allclose(direct, alt, atol=1e-12)


def test_f_k_rejects_unordered_times():
    with pytest.raises(ArgumentError):
        f_k(amplitude_damping(), 1.0, [0.7, 0.3])
    with pytest.raises(ArgumentError):
        f_k(amplitude_damping(), 1.0, [0.5, 1.5])


@pytest.mark.parametrize("s", [[math.nan], [0.2, math.nan], [math.inf], [-math.inf, 0.5]])
def test_f_k_rejects_non_finite_times(s):
    # NaN fails every comparison, so the ordering checks alone let it through
    with pytest.raises(ArgumentError, match="finite"):
        f_k(amplitude_damping(), 1.0, s)


# ---------------------------------------------------------------------------
# g_K_quadrature


def test_g_K_zeroth_order_is_drift():
    lind = amplitude_damping()
    np.testing.assert_allclose(g_K_quadrature(lind, 0.8, 0, 2),
                               drift_semigroup(lind, 0.8), atol=1e-13)


def test_g_K_exact_for_closed_dynamics():
    lind = Lindbladian(SZ)
    for K in (0, 2, 5):
        np.testing.assert_allclose(g_K_quadrature(lind, 0.9, K, 3),
                                   exact_channel(lind, 0.9), atol=1e-12)


def test_g_K_within_duhamel_bound():
    lind = amplitude_damping()
    beta = be_norm(lind)
    t = 0.5 / beta
    G = g_K_quadrature(lind, t, 4, 4)
    err = choi_lower(exact_channel(lind, t), G)
    assert err <= bound_duhamel(4, t, beta)


def test_g_K_factorial_convergence():
    lind = random_lindbladian(1, num_jumps=1, seed=3)
    beta = be_norm(lind)
    t = 0.6 / beta
    exact = exact_channel(lind, t)
    logs = [math.log(choi_lower(exact, g_K_quadrature(lind, t, K, 12)))
            for K in range(1, 6)]
    second = np.diff(logs, n=2)
    assert np.all(second < 0)


# ---------------------------------------------------------------------------
# taylor_drift


def test_taylor_drift_trivial_orders():
    lind = amplitude_damping()
    np.testing.assert_allclose(taylor_drift(lind, 0.7, 0), np.eye(2), atol=0)
    np.testing.assert_allclose(taylor_drift(lind, 0.0, 7), np.eye(2), atol=0)


def test_taylor_drift_remainder():
    lind = amplitude_damping()
    J = effective_generator(lind)
    s, Kp = 0.5, 10
    exact = scipy.linalg.expm(J * s)
    nJ = spectral_norm(J)
    remainder = math.exp(nJ * s) * (nJ * s) ** (Kp + 1) / math.factorial(Kp + 1)
    assert spectral_norm(taylor_drift(lind, s, Kp) - exact) <= remainder


def test_taylor_drift_norm_within_premise():
    lind = random_lindbladian(2, num_jumps=2, seed=4)
    beta = be_norm(lind)
    s = 0.8 / beta
    for Kp in range(2, 8):
        if math.factorial(Kp + 1) >= 2.0 * (beta * s) ** (Kp + 1):
            assert spectral_norm(taylor_drift(lind, s, Kp)) <= 2.0


# ---------------------------------------------------------------------------
# CPMapApprox


def test_cp_map_approx_zeroth_order():
    lind = amplitude_damping()
    cfg = TruncationConfig(series_order=0, taylor_order=4, quadrature_order=1,
                           segment_time=0.5)
    cp = CPMapApprox(lind, 0.5, cfg)
    terms = list(cp.iter_terms())
    assert len(terms) == 1
    np.testing.assert_allclose(terms[0].matrix, taylor_drift(lind, 0.5, 4), atol=0)


def test_cp_map_approx_term_count():
    lind = amplitude_damping()
    cfg = TruncationConfig(series_order=1, taylor_order=2, quadrature_order=2,
                           segment_time=0.5)
    cp = CPMapApprox(lind, 0.5, cfg)
    assert cp.term_count == 3
    assert len(list(cp.iter_terms())) == 3


def test_assembly_equivalence_with_manual_chains():
    # the enumerated family must reassemble to the Taylor-substituted series
    lind = random_lindbladian(1, num_jumps=2, seed=6)
    t, K, Kp, q = 0.3, 2, 5, 2
    cfg = TruncationConfig(series_order=K, taylor_order=Kp, quadrature_order=q,
                           segment_time=t)
    S = CPMapApprox(lind, t, cfg).as_superoperator()

    ref = kraus_superop(taylor_drift(lind, t, Kp))
    m = lind.num_jumps
    for k in range(1, K + 1):
        (_, nodes, weights), = nested_grid(k, q, t).chunks()
        for s_desc, w in zip(nodes.tolist(), np.prod(weights, axis=1)):  # s_k >= ... >= s_1
            gaps = [t - s_desc[0]]
            gaps += [s_desc[i] - s_desc[i + 1] for i in range(k - 1)]
            gaps += [s_desc[-1]]
            for flat in range(m**k):
                ells = []
                rem = flat
                for _ in range(k):
                    ells.append(rem % m)
                    rem //= m
                A = taylor_drift(lind, gaps[0], Kp)
                for pos in range(k):
                    A = A @ lind.jumps[ells[pos]]
                    A = A @ taylor_drift(lind, gaps[pos + 1], Kp)
                ref = ref + w * kraus_superop(A)
    np.testing.assert_allclose(S, ref, atol=1e-12)


def test_kraus_term_coefficients_and_normalizers():
    lind = random_lindbladian(1, num_jumps=2, seed=7)
    t, K, q = 0.4, 2, 2
    cfg = TruncationConfig(series_order=K, taylor_order=4, quadrature_order=q,
                           segment_time=t)
    cp = CPMapApprox(lind, t, cfg)
    beta = be_norm(lind)
    grids = {}
    for k in (1, 2):
        (idx, _, weights), = nested_grid(k, q, t).chunks()
        grids[k] = dict(zip(map(tuple, idx.tolist()), np.prod(weights, axis=1)))
    for term in cp.iter_terms():
        k, ells, js = term.index
        if k == 0:
            assert term.coefficient == 1.0
            assert term.normalizer == pytest.approx(math.exp(beta * t))
            continue
        # indices are stored innermost-first; grid points enumerate outermost-first
        expected_coeff = math.sqrt(grids[k][tuple(reversed(js))])
        assert term.coefficient == pytest.approx(expected_coeff, rel=1e-12)
        alpha_prod = math.prod(lind.alphas[l] for l in ells)
        expected_norm = expected_coeff * math.exp(beta * t) * alpha_prod
        assert term.normalizer == pytest.approx(expected_norm, rel=1e-12)


def test_chain_guardrail():
    # 20^9 chains: only the term-by-term read-out enumerates them
    lind = random_lindbladian(1, num_jumps=2, seed=8)
    cfg = TruncationConfig(series_order=9, taylor_order=4, quadrature_order=10,
                           segment_time=0.1)
    cp = CPMapApprox(lind, 0.1, cfg)
    with pytest.raises(ResourceLimitError):
        next(cp.iter_terms())


def test_truncation_config_quadrature_floor():
    with pytest.raises(ArgumentError):
        TruncationConfig(series_order=5, taylor_order=4, quadrature_order=2,
                         segment_time=0.1)
    TruncationConfig(series_order=5, taylor_order=4, quadrature_order=3,
                     segment_time=0.1)


@pytest.mark.parametrize("field", ["series_order", "taylor_order", "quadrature_order",
                                   "num_segments"])
def test_truncation_config_counts_are_integers(field):
    counts = dict(series_order=2, taylor_order=4, quadrature_order=3, num_segments=2)
    with pytest.raises(ArgumentError, match="must be an integer"):
        TruncationConfig(segment_time=0.1, **dict(counts, **{field: counts[field] + 0.5}))
    TruncationConfig(segment_time=0.1, **dict(counts, **{field: np.int64(counts[field])}))


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 2), m=st.integers(1, 2), K=st.integers(0, 4),
       q=st.integers(1, 4), seed=st.integers(0, 2**16), t=st.floats(0.05, 0.8))
@example(n_qubits=3, m=2, K=3, q=2, seed=5, t=0.4)
def test_series_engine_matches_kraus_enumeration(n_qubits, m, K, q, seed, t):
    q = max(q, math.ceil(K / 2))
    lind = random_lindbladian(n_qubits, num_jumps=m, seed=seed)
    cfg = TruncationConfig(series_order=K, taylor_order=4, quadrature_order=q,
                           segment_time=t)
    cp = CPMapApprox(lind, t, cfg)
    d = lind.dim
    S = np.zeros((d * d, d * d), dtype=complex)
    for term in cp.iter_terms():
        S += term.coefficient ** 2 * kraus_superop(term.matrix)
    assert np.abs(cp.as_superoperator() - S).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 2), m=st.integers(1, 2), K=st.integers(0, 4),
       seed=st.integers(0, 2**16), t=st.floats(0.05, 0.8), data=st.data())
def test_term_blocks_match_the_per_term_loop(n_qubits, m, K, seed, t, data):
    q = data.draw(st.integers(max(1, math.ceil(K / 2)), 4), label="q")
    lind = random_lindbladian(n_qubits, num_jumps=m, seed=seed)
    cfg = TruncationConfig(series_order=K, taylor_order=4, quadrature_order=q,
                           segment_time=t)
    cp = CPMapApprox(lind, t, cfg)
    rows = [((k, path, tuple(js)), c, s)
            for k, path, idx, _, coeff, norms in cp.term_blocks()
            for js, c, s in zip(idx[:, ::-1].tolist(), coeff.tolist(), norms.tolist())]
    expected = per_term_rows(lind, t, K, q)
    assert len(rows) == cp.term_count
    assert rows == expected
    s_vals = np.array([row[2] for row in expected])
    assert np.array_equal(mu_coefficients(cp).amplitudes,
                          s_vals / math.sqrt(float(np.sum(s_vals ** 2))))


def test_series_engine_memory_guard():
    # 266,304 chains pass the term guardrail, but at d = 16 the 2,080 depth-2
    # and 64 depth-1 nodes held at once, 544 KiB of half columns each, and one
    # parent's 129 products would take about 1.27 GB
    lind = random_lindbladian(4, num_jumps=1, seed=8)
    cfg = TruncationConfig(series_order=3, taylor_order=4, quadrature_order=64,
                           segment_time=0.1)
    cp = CPMapApprox(lind, 0.1, cfg)
    with pytest.raises(ResourceLimitError):
        cp.as_superoperator()
    with pytest.raises(ResourceLimitError):
        g_K_quadrature(lind, 0.1, 3, 64)


def test_series_engine_node_guard():
    # C(26, 17) = 3,124,550 nodes at d = 2 fit the byte guard but not the node cap
    lind = random_lindbladian(1, num_jumps=1, seed=1)
    cfg = TruncationConfig(series_order=18, taylor_order=4, quadrature_order=9,
                           segment_time=0.1)
    cp = CPMapApprox(lind, 0.1, cfg)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        cp.as_superoperator()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("K, m, t", [(0, 2, 0.4), (3, 0, 0.4), (3, 2, 0.0)])
def test_series_engine_order_zero_is_the_drift_conjugation(K, m, t):
    # K = 0, m = 0 and t = 0 each leave only the jump-free term, one propagator
    # call from 0 to t; jumps are never sampled
    lind = random_lindbladian(1, num_jumps=m, seed=11)
    prop = _TaylorPropagator(effective_generator(lind), 5)

    def propagate(s, u):
        return prop.batch(u - s)[None]

    S = series_superop(propagate, None, t, 2, K, m, lind.dim)
    assert np.array_equal(S[0], kraus_superop(propagate(np.zeros(1), np.array([t]))[0, 0]))


def segment_sources(S, d, m, seed):
    # S segments, each with its own Taylor drift propagator and jumps that drift
    # linearly in time: propagate and jumps for all S at once, and for each alone
    rng = np.random.default_rng(seed)
    models = [random_lindbladian(int(math.log2(d)), num_jumps=m, seed=seed + s) for s in range(S)]
    props = [_TaylorPropagator(effective_generator(lind), 4) for lind in models]
    slopes = 0.1 * (rng.normal(size=(S, m, d, d)) + 1j * rng.normal(size=(S, m, d, d)))

    def propagate(segs):
        return lambda lo, hi: np.stack([props[s].batch(hi - lo) for s in segs])

    def jumps(segs):
        return lambda u: np.stack([models[s].jumps + u[:, None, None, None] * slopes[s]
                                   for s in segs])

    return propagate, jumps


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_segment_axis_matches_single_segment_calls(d, m, K):
    # one call on S segments gives each segment's single-segment superoperator,
    # bit for bit; K = 0, m = 0 or t = 0 is the order-0 branch
    S, q = 3, 2
    propagate, jumps = segment_sources(S, d, m, 10 * d + m + K)
    for t in (0.4, 0.0):
        group = series_superop(propagate(range(S)), jumps(range(S)), t, q, K, m, d, segments=S)
        assert group.shape == (S, d * d, d * d)
        for s in range(S):
            np.testing.assert_array_equal(
                group[s], series_superop(propagate([s]), jumps([s]), t, q, K, m, d)[0])


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (4, 1)])
def test_segment_axis_chunks_straddle_segments(monkeypatch, d, m):
    # chunks of 3 parents on levels of 2 to 4 parents per segment: chunks hold
    # the end of one segment and the start of the next
    S, t, q, K = 3, 0.4, 2, 4
    monkeypatch.setattr(series, "_WORK_BYTES", 3 * series._parent_work(q, m, d))
    monkeypatch.setattr(series, "_cpu_count", lambda: 1)  # one chunk at a time
    assert series._engine_plan(q, K, m, d, S)[3:5] == (1, 3)
    propagate, jumps = segment_sources(S, d, m, 20 * d + m)
    group = series_superop(propagate(range(S)), jumps(range(S)), t, q, K, m, d, segments=S)
    for s in range(S):
        np.testing.assert_array_equal(
            group[s], series_superop(propagate([s]), jumps([s]), t, q, K, m, d)[0])


def recording_pool(monkeypatch):
    # series.ThreadPoolExecutor, recording the worker count of every pool opened
    opened, real = [], series.ThreadPoolExecutor

    def pool(workers):
        opened.append(workers)
        return real(workers)

    monkeypatch.setattr(series, "ThreadPoolExecutor", pool)
    return opened


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("shrunk", [False, True])
def test_series_engine_is_bitwise_equal_across_worker_counts(monkeypatch, d, shrunk):
    # levels of 3, 6 and 9 rows on 3 segments; shrunk to 6 parents' per-child
    # work, chunks are 4, 3 and 2 parents at 1, 2 and 3 workers, straddling
    # segments. At d = 8 and the default work size every level is one chunk, so
    # only d = 16 threads there. Threads switch often, so a chunk read before it
    # is written shows
    S, t, q, K, m = 3, 0.4, 2, 3, 1
    if shrunk:
        monkeypatch.setattr(series, "_WORK_BYTES", 6 * series._parent_work(q, m, d, 2))
    propagate, jumps = segment_sources(S, d, m, d + shrunk)
    opened = recording_pool(monkeypatch)
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(series, "_cpu_count", lambda: workers)
            results.append(series_superop(propagate(range(S)), jumps(range(S)), t, q, K, m, d,
                                          segments=S))
    finally:
        sys.setswitchinterval(interval)
    assert opened == ([1, 2] if shrunk or d == 16 else [])
    for other in results[1:]:
        np.testing.assert_array_equal(other, results[0])


def test_series_engine_single_chunk_levels_start_no_thread(monkeypatch):
    def unused(*args):
        raise AssertionError("asked for CPUs or opened a thread pool")

    # d = 4, q = 3, K = 4, m = 2 on 3 segments: levels of 3, 9, 18 and 30 rows
    # against chunks of 268 parents run alone, so no level needs a thread
    assert series._engine_plan(3, 4, 2, 4, 3)[3:5] == (1, 268)
    propagate, jumps = segment_sources(3, 4, 2, 5)
    with monkeypatch.context() as patch:
        patch.setattr(series, "_cpu_count", unused)
        patch.setattr(series, "ThreadPoolExecutor", unused)
        series_superop(propagate(range(3)), jumps(range(3)), 0.4, 3, 4, 2, 4, segments=3)
    # one segment and a work size of 4 parents' work: the widest level, 10 rows,
    # is 3 chunks of 4 alone, so the call runs 2 at once, of 2 parents each; the
    # levels of 10, 6, 3 and 1 rows are shared out in 5, 3, 2 and 1 chunks. On
    # one CPU every level is one share, in chunks of 4
    monkeypatch.setattr(series, "_WORK_BYTES", 4 * series._parent_work(3, 2, 4))
    shared, real = [], series._run_shares

    def recording(pool, parts, tasks):
        shared.append((parts, len(tasks)))
        real(pool, parts, tasks)

    monkeypatch.setattr(series, "_run_shares", recording)
    monkeypatch.setattr(series, "_cpu_count", lambda: 2)
    threaded = series_superop(propagate([0]), jumps([0]), 0.4, 3, 4, 2, 4)
    assert shared == [(2, 5), (2, 3), (2, 2), (2, 1)]
    monkeypatch.setattr(series, "_cpu_count", lambda: 1)
    np.testing.assert_array_equal(
        threaded, series_superop(propagate([0]), jumps([0]), 0.4, 3, 4, 2, 4))
    assert shared[4:] == [(1, 3), (1, 2), (1, 1), (1, 1)]


@pytest.mark.parametrize("on_worker", [True, False])
def test_series_engine_chunk_errors_propagate_and_leave_no_thread(monkeypatch, on_worker):
    # the deepest level's chunks fail on a pool thread, or on the calling thread
    d, m = 8, 1
    # a work size of 2 parents' per-child work: 2 parts of one parent each
    monkeypatch.setattr(series, "_WORK_BYTES", 2 * series._parent_work(2, m, d, 2))
    monkeypatch.setattr(series, "_cpu_count", lambda: 2)
    real = series.batched_kraus_sum

    def failing(weights, mats):
        if (threading.current_thread() is threading.main_thread()) != on_worker:
            raise RuntimeError("chunk failed")
        return real(weights, mats)

    monkeypatch.setattr(series, "batched_kraus_sum", failing)
    propagate, jumps = segment_sources(1, d, m, 3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk failed"):
        series_superop(propagate([0]), jumps([0]), 0.4, 2, 3, m, d)
    assert threading.active_count() == threads


def test_series_engine_guard_verdict_does_not_depend_on_cpu_count(monkeypatch):
    # d = 8, q = 2, K = 4, m = 1 holds 3 + 4 nodes a segment, depth 2 and its
    # leaves in one block, with 30,960 bytes of operators and indices. A work
    # size of 4 parents' per-child work (4 nodes, 2 jump factors and 4 KiB each)
    # makes the widest level, 4 rows, 2 chunks of 3 run alone, so 1, 2, 4 and
    # 256 CPUs run 1, 2, 4 and 4 parts. The guard counts those, the 984 bytes
    # of the table and times and the 64 KiB call allowance at each of them
    d, q, K, m = 8, 2, 4, 1
    node_bytes = 16 * d * d * d * (d + 1) // 2
    work = 4 * (4 * node_bytes + 2 * 16 * d * d + 4096)
    assert series._parent_work(q, m, d, 2) == work // 4
    monkeypatch.setattr(series, "_WORK_BYTES", work)
    per_segment, per_call = series._engine_plan(q, K, m, d)[1:3]
    assert (per_segment, per_call) == (7 * node_bytes + 30960, work + 984 + 2 ** 16)
    propagate, jumps = segment_sources(1, d, m, 7)
    opened = recording_pool(monkeypatch)
    results = []
    for cpus in (1, 2, 4, 256):
        monkeypatch.setattr(series, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(series, "MAX_SUPEROP_BYTES", per_segment + per_call)
        results.append(series_superop(propagate([0]), jumps([0]), 0.4, q, K, m, d))
        monkeypatch.setattr(series, "MAX_SUPEROP_BYTES", per_segment + per_call - 1)
        with pytest.raises(ResourceLimitError,
                           match=f"would hold {per_segment + per_call} > "):
            series_superop(propagate([0]), jumps([0]), 0.4, q, K, m, d)
    assert opened == [1, 3, 3]
    for other in results[1:]:
        np.testing.assert_array_equal(other, results[0])


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("S", [1, 3])
def test_series_engine_streams_its_leaves_within_the_guard(monkeypatch, d, m, S):
    # q = 4, K = 6: 35 depth-4 parents and 56 leaves a segment. A work size of 4
    # parents' children runs them in blocks of 4, straddling segments; the
    # traced peak of each call, its schedule built afresh, stays within the
    # guard's figure, which is below that of one block holding every leaf, and
    # every bit is that of one block at any CPU count
    q, K, t = 4, 6, 0.4
    node_bytes = 16 * d * d * d * (d + 1) // 2
    monkeypatch.setattr(series, "_WORK_BYTES", 4 * q * node_bytes)
    propagate, jumps = segment_sources(S, d, m, 30 + 10 * d + m)
    held = sum(series._engine_plan(q, K, m, d, S)[1:3])
    assert len(series._leaf_schedule(q, K, S, 4)[0]) - 2 == -(-35 * S // 4)
    with monkeypatch.context() as patch:
        patch.setattr(series, "_block", lambda q, d: 10 ** 6)
        one_block = sum(series._engine_plan(q, K, m, d, S)[1:3])
        whole = series_superop(propagate(range(S)), jumps(range(S)), t, q, K, m, d, segments=S)
    assert held < one_block
    for cpus in (1, 2, 4, 256):
        monkeypatch.setattr(series, "_cpu_count", lambda: cpus)
        series._leaf_schedule.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            streamed = series_superop(propagate(range(S)), jumps(range(S)), t, q, K, m, d,
                                      segments=S)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= held
        np.testing.assert_array_equal(streamed, whole)


@pytest.mark.parametrize("q, K, m, d, S, blocks", [
    (2, 1, 1, 2, 1, 0), (3, 1, 2, 4, 3, 0), (3, 2, 1, 2, 1, 1), (2, 2, 2, 4, 3, 1),
    (1, 2, 1, 8, 3, 1), (2, 3, 2, 2, 3, 1), (2, 3, 1, 4, 1, 1), (3, 3, 1, 8, 1, 2),
    (3, 4, 1, 4, 3, 9)])
def test_series_engine_traced_peak_is_within_its_plan(monkeypatch, q, K, m, d, S, blocks):
    # at a work size of one parent's work, so that the chunks in flight are a
    # small part of the figure: whole calls at K <= 3, from the forming of the
    # leaves to the root's expansion, and two calls whose depth K-2 parents run
    # in several blocks. Each call, its leaf schedule built afresh, holds no
    # more than its plan's levels + per_call
    monkeypatch.setattr(series, "_WORK_BYTES", series._parent_work(q, m, d))
    _, levels, per_call, parts, chunk, block = series._engine_plan(q, K, m, d, S)
    assert (parts, chunk) == (1, 1)
    assert blocks == (-(-S * math.comb(q + K - 3, K - 2) // block) if K > 1 else 0)
    propagate, jumps = segment_sources(S, d, m, 50 + 10 * d + K)
    series_superop(propagate(range(S)), jumps(range(S)), 0.4, q, K, m, d, segments=S)
    series._leaf_schedule.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series_superop(propagate(range(S)), jumps(range(S)), 0.4, q, K, m, d, segments=S)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= levels + per_call


@pytest.mark.parametrize("d", [2, 4, 8])
def test_parent_work_covers_every_traced_kraus_rows_call(d):
    # one linalg.kraus_rows call on P parents, gathering all children or one at
    # a time, holds no more than P parents' work: at d = 2 its conjugated jump
    # factors and the interpreter's objects are as large as its nodes
    rng = np.random.default_rng(d)
    nh = d * (d + 1) // 2

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for q, m, P, parts in itertools.product((1, 2, 7), (1, 3), (1, 40), (1, 2)):
        level, G = np.empty((P, d * d, nh), dtype=complex), normal(q * P, d * d, nh)
        args = (level, G, normal(P, q, m, d, d), rng.random((P, q)),
                rng.integers(0, q * P, (P, q)), normal(P, d, d), parts > 1, slice(0, P))
        kraus_rows(*args)  # warm numpy's and the engine's caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kraus_rows(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= P * series._parent_work(q, m, d, parts), (q, m, P, parts)


def test_check_engine_admits_a_shape_the_two_level_count_refused(monkeypatch):
    # d = 32, q = 4, K = 7, m = 1: 84 leaves and 56 depth-5 parents of 8.65 MB
    # each. Held whole with depth 5, as one block, they are over 1 GiB; streamed
    # one parent a block, depths 5 and 4 (91 nodes) bound the peak, about 0.87 GB
    series._check_engine(4, 7, 1, 32)
    assert 0.86e9 < sum(series._engine_plan(4, 7, 1, 32)[1:3]) < 0.88e9
    monkeypatch.setattr(series, "_block", lambda q, d: 10 ** 6)
    assert sum(series._engine_plan(4, 7, 1, 32)[1:3]) > 1.29e9
    with pytest.raises(ResourceLimitError, match="bytes of superoperators at once"):
        series._check_engine(4, 7, 1, 32)


@pytest.mark.parametrize("shape, parts, chunk, held", [
    ((3, 6, 2, 4, 1), 1, 268, 8_635_376),  # static-deep
    ((4, 8, 1, 2, 1), 1, 1379, 8_647_896),  # static-deep
    ((4, 7, 1, 8, 1), 2, 18, 14_660_720),  # static-wide
    ((4, 7, 1, 16, 1), 2, 1, 60_974_192),  # static-wide
    ((2, 3, 1, 2, 32), 1, 1618, 8_533_936),  # timedep-drive
    ((2, 4, 1, 2, 48), 1, 1618, 8_623_320),  # timedep-drive
])
def test_benchmark_engine_calls_keep_their_schedule(monkeypatch, shape, parts, chunk, held):
    # the (q, K, m, d, segments) of the benchmark's engine calls on 2 CPUs: a
    # change to their parts, rows per chunk or guard bytes fails here on any host
    monkeypatch.setattr(series, "_cpu_count", lambda: 2)
    plan = series._engine_plan(*shape)
    assert (plan[3:5], plan[1] + plan[2]) == ((parts, chunk), held)


@pytest.mark.parametrize("q, K, m, d", [(5, 4, 1, 16), (3, 4, 2, 16), (2, 3, 1, 8),
                                        (4, 5, 3, 8), (3, 3, 1, 32)])
def test_series_engine_chunks_in_flight_fit_the_work_size_on_any_host(monkeypatch, q, K, m, d):
    # on a host of 256 CPUs the chunks in flight hold no more than the guard's
    # per-call figure, and within _WORK_BYTES wherever one parent fits it; then
    # at a work size of 9 parents' per-child work, where every case runs 9 parts
    monkeypatch.setattr(series, "_cpu_count", lambda: 256)
    for shrunk in (False, True):
        if shrunk:
            monkeypatch.setattr(series, "_WORK_BYTES", 9 * series._parent_work(q, m, d, 2))
        parts, chunk = series._engine_plan(q, K, m, d, segments=4)[3:5]
        in_flight = parts * chunk * series._parent_work(q, m, d, parts)
        assert in_flight <= series._engine_plan(q, K, m, d)[2]
        if series._parent_work(q, m, d) <= series._WORK_BYTES:
            assert in_flight <= series._WORK_BYTES
        assert parts == 9 or not shrunk


def test_series_engine_off_the_main_thread_runs_one_chunk_at_a_time(monkeypatch):
    # callers that run engine calls on threads of their own start no more
    d, m = 8, 1
    # a work size of 2 parents' per-child work: 2 parts of one parent each
    monkeypatch.setattr(series, "_WORK_BYTES", 2 * series._parent_work(2, m, d, 2))
    monkeypatch.setattr(series, "_cpu_count", lambda: 2)
    opened = recording_pool(monkeypatch)
    propagate, jumps = segment_sources(1, d, m, 4)
    threaded = series_superop(propagate([0]), jumps([0]), 0.4, 2, 3, m, d)
    assert opened == [1]
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(series._engine_plan, 2, 3, m, d).result()[3] == 1
        serial = pool.submit(series_superop, propagate([0]), jumps([0]), 0.4, 2, 3, m,
                             d).result()
    assert opened == [1]
    np.testing.assert_array_equal(serial, threaded)


def test_series_engine_order_zero_edges():
    lind = random_lindbladian(1, num_jumps=1, seed=12)
    assert np.array_equal(g_K_quadrature(lind, 0.0, 3, 2), np.eye(4))
    with pytest.raises(ArgumentError, match="series order must be an integer >= 0, got -1"):
        series_superop(lambda s, u: None, None, 0.4, 2, -1, 1, 2)


def test_approximant_is_completely_positive():
    lind = random_lindbladian(2, num_jumps=1, seed=9)
    beta = be_norm(lind)
    t = 0.4 / beta
    cfg = TruncationConfig(series_order=3, taylor_order=6, quadrature_order=2,
                           segment_time=t)
    C = choi(CPMapApprox(lind, t, cfg).as_superoperator())
    eigs = np.linalg.eigvalsh((C + dag(C)) / 2)
    assert eigs.min() >= -1e-10


# ---------------------------------------------------------------------------
# normalizer sums


def test_normalizer_sum_zeroth_order():
    lind = amplitude_damping()
    cfg = TruncationConfig(series_order=0, taylor_order=3, quadrature_order=1,
                           segment_time=0.5)
    cp = CPMapApprox(lind, 0.5, cfg)
    assert cp.normalizer_sum_squares() == pytest.approx(math.exp(2 * be_norm(lind) * 0.5))


def test_normalizer_sum_closed_form_single_jump():
    # m=1, alpha=1, K=1: sum s^2 = e^{2 beta t} (1 + t) since sum w = t
    t = 0.7
    lind = Lindbladian(np.zeros((2, 2)), jumps=[np.array([[0, 1], [0, 0]])],
                       alpha0=1.0, alphas=[1.0])
    cfg = TruncationConfig(series_order=1, taylor_order=3, quadrature_order=4,
                           segment_time=t)
    cp = CPMapApprox(lind, t, cfg)
    beta = be_norm(lind)
    assert cp.normalizer_sum_squares() == pytest.approx(
        math.exp(2 * beta * t) * (1 + t), rel=1e-12)


def test_normalizer_sum_matches_closed_form_cross_check():
    lind = random_lindbladian(1, num_jumps=2, seed=10)
    beta = be_norm(lind)
    t = 0.3 / beta
    K, q = 3, 2
    cfg = TruncationConfig(series_order=K, taylor_order=4, quadrature_order=q,
                           segment_time=t)
    enumerated = CPMapApprox(lind, t, cfg).normalizer_sum_squares()
    asq = sum(a * a for a in lind.alphas)
    closed = math.exp(2 * beta * t) * math.fsum(
        asq**k * t**k / math.factorial(k) for k in range(K + 1))
    assert enumerated == pytest.approx(closed, rel=1e-10)


def test_normalizer_sum_direct_from_terms():
    lind = random_lindbladian(1, num_jumps=1, seed=11)
    cfg = TruncationConfig(series_order=2, taylor_order=4, quadrature_order=3,
                           segment_time=0.4)
    cp = CPMapApprox(lind, 0.4, cfg)
    direct = math.fsum(term.normalizer**2 for term in cp.iter_terms())
    assert cp.normalizer_sum_squares() == pytest.approx(direct, rel=1e-12)


def test_budgeted_segment_stays_under_two():
    for seed in range(4):
        lind = random_lindbladian(1, num_jumps=2, seed=seed)
        tstar = segment_time(lind)
        cfg = TruncationConfig(series_order=4, taylor_order=6, quadrature_order=3,
                               segment_time=tstar)
        cp = CPMapApprox(lind, tstar, cfg)
        assert cp.normalizer_sum_squares() <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# segment budget


def declared(alpha0, alphas):
    """A qubit model whose budget reads only the declared bounds alpha0, alphas."""
    return Lindbladian(np.zeros((2, 2)), [np.zeros((2, 2))] * len(alphas),
                       alpha0=alpha0, alphas=alphas)


def test_segment_time_expression_value():
    for beta, asq in ((1.5, 1.0), (0.7, 0.3), (3.0, 2.2)):
        lind = declared(beta - asq / 2, [math.sqrt(asq)])
        tstar = segment_time(lind)
        val = _budget_expression(tstar, be_norm(lind), sum(a * a for a in lind.alphas))
        assert 2.0 - 1e-9 <= val <= 2.0


def test_segment_time_worked_example():
    # alpha0=1, alphas=[1]: beta=1.5, and t* solves e^{3t} + t e^{4t} = 2
    tstar = segment_time(declared(1.0, [1.0]))
    assert abs(math.exp(3 * tstar) + tstar * math.exp(4 * tstar) - 2.0) <= 1e-8


def test_segment_time_trivial_model_caps():
    assert segment_time(declared(0.0, [])) == math.inf


@pytest.mark.parametrize("alpha0", [1e-5, 1e-8, 1e-310])
def test_segment_time_ends_for_weak_coupling(alpha0):
    # roots above 2^13 sit between floats further apart than the 1e-12
    # tolerance, and below about 5.6e-309 the bracket 1/beta overflows to inf
    lind = declared(alpha0, [])
    out = []
    worker = threading.Thread(target=lambda: out.append(segment_time(lind)), daemon=True)
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive(), "segment_time did not return within 10 s"
    tstar, = out
    if alpha0 < 1e-308:
        assert tstar == math.inf
    else:
        assert 2.0 - 1e-9 <= _budget_expression(tstar, be_norm(lind), 0.0) <= 2.0


# ---------------------------------------------------------------------------
# bound calculators


def test_bound_duhamel_plug_ins():
    assert bound_duhamel(3, 0.5, 1.0) == pytest.approx(1.0 / 24.0)
    assert bound_duhamel(0, 0.5, 1.0) == pytest.approx(1.0)
    vals = [bound_duhamel(K, 0.5, 1.0) for K in range(1, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bound_taylor_plug_ins():
    assert bound_taylor(0, 1.0, 1.0) == pytest.approx(8 * math.e)
    expected = 8 * math.exp(0.5) * 0.5**10 / math.factorial(10)
    assert bound_taylor(9, 0.5, 1.0) == pytest.approx(expected)


def test_bound_taylor_dominates_measured_error():
    for seed in range(4):
        lind = random_lindbladian(1, num_jumps=1, seed=seed)
        beta = be_norm(lind)
        t = 0.5 / beta
        J = effective_generator(lind)
        exact = kraus_superop(scipy.linalg.expm(J * t))
        for Kp in (2, 4, 6):
            approx = kraus_superop(taylor_drift(lind, t, Kp))
            assert choi_lower(exact, approx) <= bound_taylor(Kp, t, beta)


def test_bound_composite_consistency():
    assert bound_composite(0, 4, 0.5, 1.2) == pytest.approx(bound_taylor(4, 0.5, 1.2))
    expected = bound_taylor(8, 0.5, 1.0) * (4.0 * 1.0) ** 2
    assert bound_composite(2, 8, 0.5, 1.0) == pytest.approx(expected)


BOUNDS = {
    "bound_duhamel": lambda t, beta: bound_duhamel(2, t, beta),
    "bound_taylor": lambda t, beta: bound_taylor(2, t, beta),
    "bound_composite": lambda t, beta: bound_composite(1, 2, t, beta),
    "bound_quadrature": lambda t, beta: bound_quadrature(2, 2, t, beta),
    # beta stands for the derivative bound
    "quadrature_error_bound": lambda t, beta: quadrature_error_bound(2, t, beta),
}


@pytest.mark.parametrize("name", BOUNDS)
@pytest.mark.parametrize("t, beta", [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                     (1.0, -1.0)])
def test_bound_arguments_are_checked(name, t, beta):
    # a negative or non-finite time or rate bounds nothing; it used to come back
    # as a negative, nan or inf "bound"
    with pytest.raises(ArgumentError, match="must be nonnegative and finite, got"):
        BOUNDS[name](t, beta)


@pytest.mark.parametrize("call", [
    lambda: bound_duhamel(2.5, 0.1, 1.0),
    lambda: bound_taylor(2.5, 0.1, 1.0),
    lambda: bound_composite(1.5, 2, 0.1, 1.0),
    lambda: bound_quadrature(1.5, 2, 0.1, 1.0),
    lambda: bound_quadrature(1, 1.5, 0.1, 1.0),
    lambda: taylor_drift(amplitude_damping(), 0.1, 2.5),
    lambda: g_K_quadrature(amplitude_damping(), 0.1, 1.5, 2),
    lambda: g_K_quadrature(amplitude_damping(), 0.1, 2, 0),
], ids=["bound_duhamel", "bound_taylor", "bound_composite", "bound_quadrature_k",
        "bound_quadrature_q", "taylor_drift", "g_K_quadrature_K", "g_K_quadrature_q"])
def test_series_orders_are_checked(call):
    with pytest.raises(ArgumentError, match="must be an integer >= "):
        call()


def test_bound_composite_dominates_hybrid_chains():
    lind = amplitude_damping()
    beta = be_norm(lind)
    t = 0.5 / beta
    J = effective_generator(lind)
    for k in (1, 2):
        for Kp in (2, 4, 6):
            s = np.linspace(0.2, 0.8, k) * t
            exact_chain = f_k(lind, t, s)
            gaps = [s[0]] + list(np.diff(s)) + [t - s[-1]]
            hybrid = kraus_superop(taylor_drift(lind, gaps[0], Kp))
            pos = 0
            for g in gaps[1:]:
                pos += 1
                hybrid = kraus_superop(taylor_drift(lind, g, Kp)) @ jump_superoperator(lind) @ hybrid
            assert choi_lower(exact_chain, hybrid) <= bound_composite(k, Kp, t, beta)


def test_bound_quadrature_plug_in_and_ratio():
    q, t, beta = 2, 0.5, 1.0
    expected = (2 * t) ** 0 * 2**2 * beta * beta ** (2 * q) * t ** (2 * q + 1) * q / math.factorial(2 * q)
    assert bound_quadrature(1, q, t, beta) == pytest.approx(expected)
    ratio = bound_quadrature(1, q + 1, t, beta) / bound_quadrature(1, q, t, beta)
    assert ratio <= (beta * t) ** 2 / ((2 * q + 1) * (2 * q + 2)) * 2.0


def test_bound_quadrature_dominates_single_integral():
    # exact k=1 integral on amplitude damping, from the block exponential
    lind = amplitude_damping()
    beta = be_norm(lind)
    t = 0.5 / beta
    integral = duhamel_increments(lind, t, 1)[1]
    for q in (1, 2, 3):
        G1 = g_K_quadrature(lind, t, 1, q) - drift_semigroup(lind, t)
        err = trace_norm(choi(G1 - integral)) / lind.dim
        assert err <= bound_quadrature(1, q, t, beta)


def test_derivative_bound_on_chains():
    # finite-difference derivative norms of the chain integrand stay under
    # 2^{2k'+k} beta^k ||J||^{k'}
    lind = amplitude_damping()
    beta = be_norm(lind)
    nJ = spectral_norm(effective_generator(lind))
    t, h = 1.0, 1e-3

    def chain(args):
        return f_k(lind, t, args)

    # k=1, derivatives in s_1
    d1 = (chain([0.5 + h]) - chain([0.5 - h])) / (2 * h)
    d2 = (chain([0.5 + h]) - 2 * chain([0.5]) + chain([0.5 - h])) / h**2
    assert trace_norm(choi(d1)) / 2 <= 2 ** (2 * 1 + 1) * beta * nJ
    assert trace_norm(choi(d2)) / 2 <= 2 ** (2 * 2 + 1) * beta * nJ**2

    # k=2, derivatives in each coordinate
    base = [0.3, 0.7]
    for j in range(2):
        lo = list(base); lo[j] -= h
        hi = list(base); hi[j] += h
        d1 = (chain(hi) - chain(lo)) / (2 * h)
        d2 = (chain(hi) - 2 * chain(base) + chain(lo)) / h**2
        assert trace_norm(choi(d1)) / 2 <= 2 ** (2 * 1 + 2) * beta**2 * nJ
        assert trace_norm(choi(d2)) / 2 <= 2 ** (2 * 2 + 2) * beta**2 * nJ**2


# ---------------------------------------------------------------------------
# order selection


def test_choose_orders_worked_example():
    lind = Lindbladian(np.zeros((2, 2)),
                       jumps=[np.sqrt(0.5) * np.array([[0, 1], [0, 0]])],
                       alpha0=0.75)
    assert be_norm(lind) == pytest.approx(1.0)
    cfg = choose_orders(lind, 0.5, 1.0)
    assert (cfg.series_order, cfg.taylor_order, cfg.quadrature_order) == (2, 4, 2)


def test_choose_orders_monotone_in_precision():
    lind = random_lindbladian(1, num_jumps=1, seed=13)
    seg = segment_time(lind)
    prev = (0, 0, 0)
    for exp in range(0, 11):
        cfg = choose_orders(lind, seg, 2.0**-exp)
        cur = (cfg.series_order, cfg.taylor_order, cfg.quadrature_order)
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_choose_orders_meets_target():
    for seed in range(3):
        lind = random_lindbladian(1, num_jumps=1, seed=seed)
        for eps in (1e-4, 1e-7):
            _, report = simulate(lind, np.diag([1.0, 0.0]).astype(complex), 1.0,
                                 eps, verify=True)
            assert report.measured_choi_lower <= eps


def test_choose_orders_at_zero_be_norm_or_zero_time():
    # the search itself gives the order-0 configuration when the model or the
    # segment is zero, down to the tightest precisions
    still = Lindbladian(np.zeros((2, 2)), jumps=[np.zeros((2, 2))])
    assert be_norm(still) == 0.0
    for eps in (1e-3, 1e-14):
        assert choose_orders(still, 0.5, eps) == TruncationConfig(0, 0, 1, 0.5)
        assert choose_orders(amplitude_damping(), 0.0, eps) == TruncationConfig(0, 0, 1, 0.0)


def test_choose_orders_infeasible():
    lind = amplitude_damping()
    with pytest.raises(InfeasiblePrecisionError):
        choose_orders(lind, segment_time(lind), 1e-300)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ArgumentError, match="target precision"):
            choose_orders(lind, segment_time(lind), eps)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_time():
    lind = amplitude_damping()
    rho0 = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
    rho, report = simulate(lind, rho0, 0.0, 1e-6)
    np.testing.assert_allclose(rho, rho0, atol=0)
    assert report.segments == 0


def test_simulate_closed_dynamics():
    lind = Lindbladian(SZ)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    eps = 1e-8
    rho, _ = simulate(lind, rho0, 1.3, eps)
    U = scipy.linalg.expm(-1j * 1.3 * SZ)
    np.testing.assert_allclose(rho, U @ rho0 @ dag(U), atol=eps)


def test_simulate_amplitude_damping_closed_form():
    lind = amplitude_damping()
    rho0 = np.array([[0.25, 0.0], [0.0, 0.75]], dtype=complex)
    rho, report = simulate(lind, rho0, 3.0, 1e-6)
    assert abs(rho[1, 1] - math.exp(-3.0) * rho0[1, 1]) <= 1e-6
    assert report.trace_deviation <= (report.bound_duhamel + report.bound_quadrature
                                      + report.bound_taylor_total) * report.segments


def test_simulate_tight_precision_within_node_cap():
    # K = 11, q = 6: 435,356,466 Kraus chains but only 8,008 series nodes
    lind = random_lindbladian(1, num_jumps=1, seed=1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho, report = simulate(lind, rho0, 1.0, 1e-10)
    assert (report.series_order, report.quadrature_order) == (11, 6)
    ref = unvec(exact_channel(lind, 1.0) @ vec(rho0))
    assert np.abs(rho - ref).max() <= 1e-10


def test_simulate_rejects_bad_density():
    lind = amplitude_damping()
    with pytest.raises(ModelError):
        simulate(lind, np.diag([0.9, 0.9]).astype(complex), 1.0, 1e-4)
    with pytest.raises(ModelError):
        simulate(lind, np.array([[1.5, 0], [0, -0.5]], dtype=complex), 1.0, 1e-4)
    with pytest.raises(ArgumentError):
        simulate(lind, np.diag([1.0, 0.0]), -1.0, 1e-4)
    with pytest.raises(ArgumentError):
        simulate(lind, np.diag([1.0, 0.0]), 1.0, 0.0)
    for t, eps in [(math.inf, 1e-4), (math.nan, 1e-4), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ArgumentError):
            simulate(lind, np.diag([1.0, 0.0]), t, eps)
    with pytest.raises(ModelError, match="non-finite"):
        simulate(lind, np.array([[math.nan, 0], [0, 1]], dtype=complex), 1.0, 1e-4)


AD = amplitude_damping()
TIMED_CALLS = {
    "exact_channel": lambda t: exact_channel(AD, t),
    "drift_semigroup": lambda t: drift_semigroup(AD, t),
    "f_k": lambda t: f_k(AD, t, []),
    "g_K_quadrature": lambda t: g_K_quadrature(AD, t, 2, 1),
    "taylor_drift": lambda t: taylor_drift(AD, t, 3),
    "CPMapApprox": lambda t: CPMapApprox(AD, t, TruncationConfig(2, 3, 1, 1.0)),
    "rk4_reference": lambda t: rk4_reference(from_static(AD), np.diag([1.0, 0.0]), t, 1e-2),
    "canonical_rule": lambda t: canonical_rule(2, t),
}


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", list(TIMED_CALLS))
def test_times_must_be_finite_and_nonnegative(name, t):
    with pytest.raises(ArgumentError, match=r"must be (nonnegative|positive) and finite"):
        TIMED_CALLS[name](t)


def test_simulate_report_is_serializable():
    lind = amplitude_damping()
    _, report = simulate(lind, np.diag([1.0, 0.0]).astype(complex), 0.5, 1e-5)
    d = report.as_dict()
    assert d["segments"] == report.segments
    assert d["kraus_terms"] == report.kraus_terms
