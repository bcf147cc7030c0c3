import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindbladsim import (
    ArgumentError,
    CPMapApprox,
    DysonConfig,
    ModelError,
    ResourceLimitError,
    TimeDependentLindbladian,
    TruncationConfig,
    amplitude_damping,
    be_norm,
    choose_orders,
    diamond_sandwich,
    dyson_contract,
    exact_channel,
    from_static,
    load_model,
    ordered_propagator,
    random_lindbladian,
    rk4_reference,
    segment_time,
    simulate,
    td_simulate,
    trace_norm,
    unvec,
    vec,
)
from lindbladsim import series, timedep
from lindbladsim.models import _drift_generator
from lindbladsim.quadrature import NestedGrid, canonical_rule
from lindbladsim.timedep import (_RK4_MAP_DIM, _RK4_STEPS, _prefix_stacks, _segment_superops,
                                 _union_grid)

from fixtures import SM, SX, SZ, driven_damped, random_density
from frame_reference import FrameModel
from series_reference import taylor_drift


def phase_modulated():
    def sampler(t):
        return math.cos(t) * SZ, []

    return TimeDependentLindbladian(sampler, 1.0, [], 1.0)


def sampled_drift(tl, tau):
    # J at tau from sample()'s H and jump list, the list stacked as (m, d, d)
    H, Ls = tl.sample(tau)
    return _drift_generator(H, np.array(Ls, dtype=complex).reshape(-1, *H.shape))


def sequential_propagator(tl, a, grid, lo, hi, Kd):
    # the graded product over the gaps of grid between points lo and hi, one gap
    # at a time, later factors on the left, each gap sampled at a plus its midpoint
    d = tl.dim
    eye = np.eye(d, dtype=complex)
    terms = [eye] + [np.zeros((d, d), complex) for _ in range(Kd)]
    for k in range(lo, hi):
        h = grid[k + 1] - grid[k]
        Jstep = sampled_drift(tl, float(a + (grid[k] + h / 2))) * h
        Jpow = [eye]
        for _ in range(Kd):
            Jpow.append(Jpow[-1] @ Jstep)
        terms = [terms[0]] + [terms[p] + sum(Jpow[r] @ terms[p - r] / math.factorial(r)
                                             for r in range(1, p + 1))
                              for p in range(1, Kd + 1)]
    return sum(terms)


def plan_grid(plan, M):
    # the nested table of a plan or report (its K, q and segment time), and one
    # segment's union grid of M uniform steps and its interval ends
    nested = NestedGrid(canonical_rule(plan.quadrature_order, plan.segment_time),
                        plan.series_order)
    return (nested, *_union_grid(nested, M))


def plan_superops(tl, plan, cfg, starts):
    # the plan's segments [a, a + delta], a in starts, in order, on one union
    # grid, as td_simulate builds them
    nested, grid, ends = plan_grid(plan, cfg.grid_points)
    return _segment_superops(tl, np.asarray(starts, dtype=float), nested, grid, ends, cfg.order)


# ---------------------------------------------------------------------------
# ordered_propagator


def test_constant_generator_reproduces_taylor_polynomial():
    lind = amplitude_damping(0.8)
    tl = from_static(lind)
    for grid in (1, 4):
        V = ordered_propagator(tl, 0.0, 0.6, DysonConfig(order=5, grid_points=grid))
        np.testing.assert_allclose(V, taylor_drift(lind, 0.6, 5), atol=1e-12)


def test_commuting_family_closed_form():
    tl = phase_modulated()
    t = 1.0
    target = np.diag(np.exp([-1j * math.sin(t), 1j * math.sin(t)]))
    errs = {}
    for grid in (16, 64):
        cfg = DysonConfig(order=10, grid_points=grid)
        V = ordered_propagator(tl, 0.0, t, cfg)
        err = np.abs(V - target).max()
        assert err <= dyson_contract(tl, t, cfg)
        errs[grid] = err
    # the midpoint product converges quadratically in the grid count
    assert errs[64] <= errs[16] / 8


def test_propagator_matches_the_exact_frame_propagator():
    # frame models, whose ordered exponential is known in closed form, hold
    # ordered_propagator within its contract on intervals anywhere in time
    for n, m in [(1, 1), (1, 0), (2, 2), (3, 1)]:
        fm = FrameModel(n, m, seed=100 + n + m)
        for order, M in [(8, 48), (4, 8), (2, 4)]:
            cfg = DysonConfig(order, M)
            for s, t in [(0.0, 0.7), (0.4, 0.9), (2.0, 2.25)]:
                V = ordered_propagator(fm.tl, s, t, cfg)
                assert np.abs(V - fm.propagator(s, t)).max() <= dyson_contract(fm.tl, t - s, cfg)


def test_propagator_composition():
    tl = driven_damped()
    cfg = DysonConfig(order=8, grid_points=64)
    s, u, t = 0.1, 0.45, 0.9
    direct = ordered_propagator(tl, s, t, cfg)
    composed = ordered_propagator(tl, u, t, cfg) @ ordered_propagator(tl, s, u, cfg)
    budget = (dyson_contract(tl, t - s, cfg) + dyson_contract(tl, u - s, cfg)
              + dyson_contract(tl, t - u, cfg))
    assert np.abs(direct - composed).max() <= budget


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), m=st.integers(0, 2), Kd=st.integers(0, 6),
       M=st.one_of(st.integers(1, 33), st.sampled_from([1, 2, 4, 8, 16, 32])),
       B=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d=2, m=1, Kd=6, M=33, B=5, seed=0)
@example(d=4, m=2, Kd=5, M=32, B=3, seed=1)
def test_prefix_quotient_matches_sequential_product(d, m, Kd, M, B, seed):
    # P(hi) P(lo)^-1 on a grid of M uniform steps and a few extra points, against
    # the graded product of the factors between lo and hi, over the same gaps
    tl = FrameModel(int(math.log2(d)), m, seed).tl
    rng = np.random.default_rng(seed)
    a, delta = rng.uniform(0.0, 0.5), rng.uniform(0.01, 0.6)
    grid = np.unique(np.concatenate([np.linspace(0.0, delta, M + 1),
                                     rng.uniform(0.0, delta, size=5)]))
    lo = rng.integers(0, grid.size, size=B)
    hi = np.maximum(lo, rng.integers(0, grid.size, size=B))
    mids = a + (grid[:-1] + np.diff(grid) / 2)
    PL, CR = _prefix_stacks(_drift_generator(*timedep._sample_stack(tl, mids))[None], grid, grid,
                            Kd)
    quotient = PL[0][hi] @ CR[0][lo]
    for b in range(B):
        ref = sequential_propagator(tl, a, grid, lo[b], hi[b], Kd)
        assert np.abs(quotient[b] - ref).max() <= 1e-13


def test_segment_groups_match_single_segments(monkeypatch):
    # td_simulate takes segments in groups whose samples and prefix stacks stay
    # under _WORK_BYTES, here shrunk to a few segments' worth; across group
    # boundaries it composes the segments built alone
    d, Kd, M, n = 4, 8, 64, 12
    tl = FrameModel(2, 2, 7).tl
    rho0 = np.eye(d, dtype=complex) / d
    cfg = DysonConfig(order=Kd, grid_points=M)
    groups, prefix_stacks = [], timedep._prefix_stacks

    def recording(J, *args):
        groups.append(J.shape[0])
        return prefix_stacks(J, *args)

    monkeypatch.setattr(timedep, "_prefix_stacks", recording)
    monkeypatch.setattr(series, "_WORK_BYTES", 2 ** 19)
    rho, report, _ = td_simulate(tl, rho0, 0.5, 1e-3, cfg=cfg, segments=n)
    assert sum(groups) == n and len(groups) > 1 and max(groups) > 1
    v = vec(rho0)
    for i in range(n):
        v = next(plan_superops(tl, report, cfg, [i * report.segment_time])) @ v
    assert np.abs(rho - unvec(v)).max() <= 1e-13


def test_every_segment_interval_meets_the_dyson_contract(monkeypatch):
    # every propagator the series engine reads from one planned segment's
    # prefixes is within the per-segment contract of the exact one
    fm = FrameModel(1, 1, seed=102)
    _, report, cfg = td_simulate(fm.tl, np.diag([1.0, 0.0]), 1.0, 1e-4)
    delta, K, q = report.segment_time, report.series_order, report.quadrature_order
    read, real = [], timedep.series_superop

    def recording(propagate, *args):
        def record(lo, hi):
            T = propagate(lo, hi)
            read.extend(zip(lo, hi, T[0]))
            return T
        return real(record, *args)

    monkeypatch.setattr(timedep, "series_superop", recording)
    a = 3 * delta
    next(plan_superops(fm.tl, report, cfg, [a]))
    assert len(read) == (q + 1) * math.comb(q + K - 1, K - 1) + math.comb(q + K - 1, K)
    contract = dyson_contract(fm.tl, delta, cfg)
    for lo, hi, T in read:
        assert np.abs(T - fm.propagator(a + lo, a + hi)).max() <= contract


def test_propagator_interval_edge_cases():
    tl = driven_damped()
    cfg = DysonConfig(order=3, grid_points=2)
    np.testing.assert_array_equal(ordered_propagator(tl, 0.3, 0.3, cfg), np.eye(2))
    with pytest.raises(ArgumentError):
        ordered_propagator(tl, 0.5, 0.2, cfg)


def test_dyson_config_validation():
    with pytest.raises(ArgumentError):
        DysonConfig(order=-1, grid_points=4)
    with pytest.raises(ArgumentError):
        DysonConfig(order=2, grid_points=0)
    # non-integer counts fail here, not in range() partway through a run
    with pytest.raises(ArgumentError, match="Dyson order must be an integer"):
        DysonConfig(order=2.5, grid_points=4)
    with pytest.raises(ArgumentError, match="grid count must be an integer"):
        DysonConfig(order=2, grid_points=4.5)
    DysonConfig(order=np.int64(2), grid_points=np.int32(4))


def test_dyson_contract_plugin():
    tl = driven_damped(omega=1.0, freq=2.0, gamma=1.0)
    beta = be_norm(tl)
    cfg = DysonConfig(order=2, grid_points=4)
    expected = (beta * 0.5) ** 3 / 6 + 0.25 * tl.jdot_bound / 4
    assert dyson_contract(tl, 0.5, cfg) == pytest.approx(expected, rel=1e-12)


def test_dyson_contract_past_the_float_range_is_inf():
    # delta^2 overflows: the contract is inf, still an upper bound
    tl = driven_damped(omega=1.0, freq=2.0, gamma=1.0)
    assert dyson_contract(tl, 1e200, DysonConfig(order=2, grid_points=4)) == math.inf


# ---------------------------------------------------------------------------
# td_simulate


def test_td_simulate_degenerates_to_static_pipeline():
    lind = amplitude_damping(1.0)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    t, eps = 1.2, 1e-6
    rho_s, rep_s = simulate(lind, rho0, t, eps)
    rho_t, rep_t, cfg = td_simulate(from_static(lind), rho0, t, eps,
                                    cfg=DysonConfig(rep_s.taylor_order, 1),
                                    segments=rep_s.segments)
    assert rep_t.series_order == rep_s.series_order
    assert rep_t.quadrature_order == rep_s.quadrature_order
    assert np.abs(rho_t - rho_s).max() <= 1e-10


def test_segment_superop_shares_the_static_engine():
    # a constant sampler with one grid point gives the Taylor drift exactly, so a
    # segment's superoperator is the static approximant's, wherever it starts
    lind = random_lindbladian(1, num_jumps=2, seed=21)
    cfg = TruncationConfig(series_order=3, taylor_order=5, quadrature_order=2,
                           segment_time=0.3)
    static = CPMapApprox(lind, 0.3, cfg).as_superoperator()
    seg = next(plan_superops(from_static(lind), cfg, DysonConfig(5, 1), [0.6]))
    assert np.abs(seg - static).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("path", ["static", "timedep"])
def test_series_engine_columns_are_conjugate_mirrors(path, d, m):
    # the engine builds the columns of E_ab, a <= b, and fills those of E_ba as
    # vec(G(E_ab)^dag), so the mirror holds bit for bit
    cfg = TruncationConfig(series_order=3, taylor_order=5, quadrature_order=2, segment_time=0.3)
    if path == "static":
        lind = random_lindbladian(int(math.log2(d)), num_jumps=m, seed=d + m)
        S = CPMapApprox(lind, 0.3, cfg).as_superoperator()
    else:
        tl = FrameModel(int(math.log2(d)), m, d + m).tl
        S = next(plan_superops(tl, cfg, DysonConfig(4, 3), [0.2]))
    for a in range(d):
        for b in range(a + 1, d):
            mirror = vec(unvec(S[:, b * d + a]).conj().T)
            assert np.array_equal(S[:, a * d + b], mirror)


def test_td_simulate_unitary_family_stays_pure():
    tl = phase_modulated()
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho, report, _ = td_simulate(tl, rho0, 1.0, 1e-8)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)
    phase = np.exp(-1j * math.sin(1.0))
    target = np.diag([phase, phase.conj()])
    expected = target @ rho0 @ target.conj().T
    assert np.abs(rho - expected).max() <= 1e-5
    assert report.segments >= 1


def test_td_simulate_output_is_density():
    rng = np.random.default_rng(11)
    tl = driven_damped()
    rho0 = random_density(rng, 2)
    rho, report, _ = td_simulate(tl, rho0, 1.0, 1e-5)
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= report.eps + report.trace_deviation + 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-6


@pytest.mark.parametrize("n, m, eps, t", [
    # jumpless, at M = 1,630 uniform steps a segment: a grid count capped at 256
    # left the channel 1.8 eps away
    (1, 0, 1e-6, 2.0), (1, 1, 1e-4, 0.5), (1, 2, 1e-3, 0.5),
    (2, 0, 1e-4, 2.0), (2, 1, 1e-6, 0.5), (2, 2, 1e-3, 0.5),
    (3, 0, 1e-3, 0.5), (3, 1, 1e-4, 0.5), (3, 2, 1e-3, 0.5)])
def test_td_simulate_meets_eps_against_the_exact_frame_channel(n, m, eps, t):
    # the state within eps in trace distance, and the composed superoperators of
    # the report's plan within eps by the Choi lower bound, which sees a channel
    # error that the state may not; that channel gives the run's state
    fm = FrameModel(n, m, seed=102)
    d = fm.tl.dim
    rho0 = random_density(np.random.default_rng(n + m), d)
    rho, report, cfg = td_simulate(fm.tl, rho0, t, eps)
    exact = fm.channel(t)
    assert 0.5 * trace_norm(rho - unvec(exact @ vec(rho0))) <= eps
    S = np.eye(d * d, dtype=complex)
    for E in plan_superops(fm.tl, report, cfg, np.arange(report.segments) * report.segment_time):
        S = E @ S
    assert diamond_sandwich(S, exact)[0] <= eps
    assert np.abs(unvec(S @ vec(rho0)) - rho).max() <= 1e-13


def test_td_simulate_flags_declared_bound_violation():
    def sampler(t):
        return (1.0 + t) * SZ, []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 1.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError):
        td_simulate(tl, rho0, 1.0, 1e-4)


def test_td_simulate_names_the_first_failing_sample():
    # H is Hermitian except on [0.4, 0.45]; of the budget minimum's 3 segments
    # the test takes 4. There are no jumps, so the series order is 0 and each
    # segment's interval ends are 0 and 0.25; its union grid is M = 50 uniform
    # steps of 0.005. The second segment, [0.25, 0.5], is sampled at its ends
    # and at 0.25 + 0.0025 + 0.005 k, so the first failing sample is k = 30,
    # 0.25 + 0.1525, which rounds to 0.40249999999999997
    def sampler(t):
        skew = 0.5 * SM if 0.4 <= t <= 0.45 else 0.0 * SM
        return 0.5 * SZ + skew, []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 1.0)
    assert max(1, math.ceil(1.0 / segment_time(tl) - 1e-12)) == 3
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError, match=r"at t=0\.40249999999999997 is not Hermitian"):
        td_simulate(tl, rho0, 1.0, 1e-4, segments=4)


def test_td_simulate_checks_the_samples_it_builds_from():
    # H is non-Hermitian only within 1e-9 of the first segment's first union-grid
    # midpoint, far from its ends 0 and delta; J is built from that sample, so
    # the run must fail there and name its time
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, report, cfg = td_simulate(tl, rho0, 1.0, 1e-4)
    grid = plan_grid(report, cfg.grid_points)[1]
    mid = float(0.0 + (grid[:-1] + np.diff(grid) / 2)[0])
    sampler = tl.sampler

    def skewed(t):
        H, Ls = sampler(t)
        return (H + 0.5 * SM if abs(t - mid) < 1e-9 else H), Ls

    tl.sampler = skewed
    with pytest.raises(ModelError, match=re.escape(f"at t={mid} is not Hermitian")):
        td_simulate(tl, rho0, 1.0, 1e-4)


def test_non_finite_samples_are_model_errors_naming_the_time():
    # a NaN at t=0 fails at construction; an inf jump after t=0.5 fails at the
    # first sample past it, not in the SVD of the norm check
    with pytest.raises(ModelError, match=r"at t=0\.0 is not finite"):
        TimeDependentLindbladian(lambda t: (math.nan * SZ, []), 1.0, [], 1.0)

    def sampler(t):
        return 0.5 * SZ, [np.array([[0.0, math.inf if t > 0.5 else 0.5], [0.0, 0.0]])]

    tl = TimeDependentLindbladian(sampler, 0.5, [0.5], 1.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError, match=r"at t=0\.5\d* is not finite"):
        td_simulate(tl, rho0, 1.0, 1e-4)


def test_td_simulate_rejects_wide_chain_trees():
    def sampler(t):
        return np.zeros((2, 2)), [math.sqrt(0.5) * SM, math.sqrt(0.5) * SX]

    tl = TimeDependentLindbladian(sampler, 0.0,
                                  [math.sqrt(0.5), math.sqrt(0.5)], 0.0)
    assert max(1, math.ceil(4.0 / segment_time(tl) - 1e-12)) == 13
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    # the budget minimum's 13 segments at eps 1e-15 need K = 13, q = 7 and
    # 6,601,036 sampler calls in all
    with pytest.raises(ResourceLimitError):
        td_simulate(tl, rho0, 4.0, 1e-15, segments=13)


def test_td_simulate_rejects_segments_below_the_budget_minimum():
    # 0.6 / segment_time gives n0 = 4; one segment would report a normalizer
    # sum of squares of 11.6, far over the budget of 2
    tl = load_model("models/driven_damped_qubit.json").to_time_dependent()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for n in (1, 3):
        with pytest.raises(ArgumentError, match=r"budget minimum n0 = 4"):
            td_simulate(tl, rho0, 0.6, 1e-2, segments=n)
    assert td_simulate(tl, rho0, 0.6, 1e-2, segments=4)[1].normalizer_sum_squares <= 2.0


def test_td_simulate_sampler_guard():
    # at eps 1e-6 each segment's M uniform steps and 14 nested node times make
    # up to M + 14 union-grid gaps, with 16 interval ends (0, delta and the node
    # times): one sampler call per gap and per end, at least M + 2 before the
    # table is built. The 10,752 segments at t=100 (M = 1,182) fail on that
    # lower bound (12,730,368 calls; the exact count is 13,020,672); the 1,952
    # at t=18 (M = 499) pass it (977,952) and fail on the exact count
    # (1,032,608).
    # Either way no sample is taken.
    tl = driven_damped()

    def sampler(tau):
        raise AssertionError(f"sampled at t={tau} before the guard")

    tl.sampler = sampler
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for t, calls in [(100.0, "at least 12730368"), (18.0, "1032608")]:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"would make {calls} > 1000000 sampler"):
            td_simulate(tl, rho0, t, 1e-6)
        assert time.perf_counter() - start < 1.0


def test_td_simulate_engine_guard_takes_no_sample():
    # at d = 128 one half-column node of the series engine takes
    # 16 d^2 d(d+1)/2 bytes, about 2.2 GB, over MAX_SUPEROP_BYTES: the run
    # fails on its plan, and the sampler is not called after construction
    d, calls = 128, []

    def sampler(tau):
        calls.append(tau)
        return np.zeros((d, d)), [0.5 * np.eye(d)]

    tl = TimeDependentLindbladian(sampler, 0.0, [0.5], 0.0)
    calls.clear()
    with pytest.raises(ResourceLimitError, match="bytes of superoperators at once"):
        td_simulate(tl, np.eye(d) / d, 1.0, 1e-3)
    assert calls == []


def test_td_simulate_overflowing_grid_count_fails_on_the_sampler_guard():
    # delta^2 jdot n / eps overflows to inf at jdot_bound 1e300; the default M,
    # its root, is bounded by MAX_SAMPLER_CALLS before ceil, so the guard's lower
    # bound fails the run, with no sample taken
    tl = TimeDependentLindbladian(lambda t: (0.5 * SZ, []), 0.5, [], 1e300)

    def sampler(tau):
        raise AssertionError(f"sampled at t={tau} before the guard")

    tl.sampler = sampler
    with pytest.raises(ResourceLimitError, match="would make at least 2000004 > 1000000 sampler"):
        td_simulate(tl, np.diag([1.0, 0.0]), 1.0, 1e-10)


def test_ordered_propagator_guard_fires_before_the_first_sample():
    tl = driven_damped()

    def sampler(tau):
        raise AssertionError(f"sampled at t={tau} before the guard")

    tl.sampler = sampler
    with pytest.raises(ResourceLimitError, match="would make 1000005 > 1000000 sampler calls"):
        ordered_propagator(tl, 0.0, 1.0, DysonConfig(2, series.MAX_SAMPLER_CALLS + 5))


def table_model():
    return load_model("models/driven_damped_qubit.json").to_time_dependent()


@pytest.mark.parametrize("make, t, eps", [(phase_modulated, 1.0, 1e-4),
                                          (driven_damped, 0.5, 1e-3),
                                          (driven_damped, 1.0, 1e-4),
                                          (table_model, 0.7, 1e-5)])
def test_segment_sampler_calls_match_a_counting_sampler(make, t, eps):
    tl = make()
    sampler, calls = tl.sampler, [0]

    def counting(tau):
        calls[0] += np.size(tau)
        return sampler(tau)

    tl.sampler = counting
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, report, cfg = td_simulate(tl, rho0, t, eps)
    _, grid, ends = plan_grid(report, cfg.grid_points)
    assert calls[0] == report.segments * (grid.size - 1 + ends.size)


def test_table_groups_take_one_engine_call_and_one_sampler_call(monkeypatch):
    # with groups shrunk to a few segments, a table model is sampled once per
    # group, at every time the group needs, and each group is one engine call
    tl = table_model()
    sampler, sampled, engine, prefix = tl.sampler, [], [], []
    real_engine, real_prefix = timedep.series_superop, timedep._prefix_stacks

    def counting(times):
        sampled.append(np.size(times))
        return sampler(times)

    def engine_call(*args):
        engine.append(args[-1])
        return real_engine(*args)

    def prefix_call(J, *args):
        prefix.append(J.shape[0])
        return real_prefix(J, *args)

    tl.sampler = counting
    monkeypatch.setattr(timedep, "series_superop", engine_call)
    monkeypatch.setattr(timedep, "_prefix_stacks", prefix_call)
    monkeypatch.setattr(series, "_WORK_BYTES", 2 ** 17)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, report, cfg = td_simulate(tl, rho0, 0.7, 1e-5)
    assert tl.batched and len(engine) > 1
    assert engine == prefix and len(sampled) == len(engine) and sum(engine) == report.segments
    _, grid, ends = plan_grid(report, cfg.grid_points)
    assert sampled == [n * (grid.size - 1 + ends.size) for n in engine]


def test_td_simulate_splits_groups_at_the_engine_byte_cap(monkeypatch):
    # with the byte cap lowered to one call's chunk plus two segments' levels, the
    # groups the samples allow are split into pairs; nothing is raised after
    # sampling, and the state is the one the unsplit run gives, bit for bit
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho, report, _ = td_simulate(tl, rho0, 1.0, 1e-4)
    per_segment, per_call = series._engine_plan(report.quadrature_order,
                                                report.series_order, 1, 2)[1:3]
    groups, real = [], timedep.series_superop

    def recording(*args):
        groups.append(args[-1])
        return real(*args)

    monkeypatch.setattr(timedep, "series_superop", recording)
    monkeypatch.setattr(series, "MAX_SUPEROP_BYTES", per_call + 2 * per_segment)
    split, _, _ = td_simulate(tl, rho0, 1.0, 1e-4)
    assert report.segments > 2 and max(groups) == 2 and sum(groups) == report.segments
    np.testing.assert_array_equal(split, rho)


def test_batched_sample_failure_names_the_earliest_time():
    # test_td_simulate_names_the_first_failing_sample with its sampler batched:
    # the same first failing sample, from one sampler call
    def sampler(times):
        skewed = ((0.4 <= times) & (times <= 0.45))[:, None, None]
        return 0.5 * SZ + np.where(skewed, 0.5 * SM, 0.0 * SM), np.zeros((times.size, 0, 2, 2))

    tl = TimeDependentLindbladian(sampler, 1.0, [], 1.0, batched=True)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ModelError, match=r"at t=0\.40249999999999997 is not Hermitian"):
        td_simulate(tl, rho0, 1.0, 1e-4, segments=4)


def test_td_simulate_argument_validation():
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ArgumentError):
        td_simulate(tl, rho0, -1.0, 1e-4)
    with pytest.raises(ArgumentError):
        td_simulate(tl, rho0, 1.0, 0.0)
    for t, eps in [(math.inf, 1e-4), (math.nan, 1e-4), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ArgumentError):
            td_simulate(tl, rho0, t, eps)
    for bounds in [(math.nan, tl.alphas, tl.jdot_bound), (math.inf, tl.alphas, tl.jdot_bound),
                   (tl.alpha0, (math.nan,), tl.jdot_bound), (tl.alpha0, tl.alphas, math.nan),
                   (tl.alpha0, tl.alphas, math.inf), (tl.alpha0, tl.alphas, -1.0)]:
        with pytest.raises(ModelError, match="nonnegative and finite"):
            TimeDependentLindbladian(tl.sampler, *bounds)
    with pytest.raises(ModelError):
        td_simulate(tl, np.eye(2, dtype=complex), 1.0, 1e-4)
    table = load_model("models/driven_damped_qubit.json").to_time_dependent()
    with pytest.raises(ArgumentError, match="segment count must be an integer"):
        td_simulate(table, rho0, 1.0, 1e-3, segments=8.5)


def test_td_simulate_time_zero():
    tl = driven_damped()
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    rho, report, _ = td_simulate(tl, rho0, 0.0, 1e-4)
    np.testing.assert_array_equal(rho, rho0)
    assert report.segments == 0


@pytest.mark.parametrize("t, eps, n0, chosen", [(0.3, 1e-4, 2, 16), (1.0, 1e-6, 7, 56)])
def test_td_simulate_picks_the_least_work_segment_count(t, eps, n0, chosen):
    # the budget minimum n0, then the multiple n0 2^i (i <= 8) whose segments
    # hold the fewest Kraus terms in all, the first on ties
    tl = load_model("models/driven_damped_qubit.json").to_time_dependent()
    assert max(1, math.ceil(t / segment_time(tl) - 1e-12)) == n0
    work = {}
    for n in (n0 * 2 ** i for i in range(9)):
        cfg = choose_orders(tl, t / n, eps / n)
        mq = tl.num_jumps * cfg.quadrature_order
        work[n] = n * (1 + sum(mq ** k for k in range(1, cfg.series_order + 1)))
    assert min(work, key=work.get) == chosen
    _, report, _ = td_simulate(tl, np.diag([1.0, 0.0]).astype(complex), t, eps)
    assert report.segments == chosen


def test_plan_overrides_and_static_models():
    tl = load_model("models/driven_damped_qubit.json").to_time_dependent()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert td_simulate(tl, rho0, 0.3, 1e-4, segments=4)[1].segments == 4
    # simulate keeps the budget minimum, where the time-ordered search takes 80
    lind, t, eps = amplitude_damping(1.0), 3.0, 1e-6
    n0 = max(1, math.ceil(t / segment_time(lind) - 1e-12))
    assert simulate(lind, rho0, t, eps)[1].segments == n0 == 10
    # both model kinds plan from the same declared bounds
    wrapped = from_static(lind)
    assert segment_time(wrapped) == segment_time(lind)
    assert choose_orders(wrapped, t / n0, eps / n0) == choose_orders(lind, t / n0, eps / n0)


# ---------------------------------------------------------------------------
# sampler wrapper and rk4 reference


def test_sampler_validation():
    def crooked(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]), []

    tl = TimeDependentLindbladian(lambda t: (SZ, []), 1.0, [], 0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(crooked, 1.0, [], 0.0).sample(0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(lambda t: (SZ, [SM]), 1.0, [], 0.0)
    with pytest.raises(ModelError):
        TimeDependentLindbladian(lambda t: (SZ, []), -1.0, [], 0.0)
    # a jump of the wrong shape, and a ragged jump list, fail at construction
    with pytest.raises(ModelError, match=r"\(2, 2\)"):
        TimeDependentLindbladian(lambda t: (np.eye(2), [np.zeros((4, 4))]), 1.0, [1.0], 0.0)
    with pytest.raises(ModelError, match=r"\(2, 2\)"):
        TimeDependentLindbladian(lambda t: (np.eye(2), [SM, np.zeros((4, 4))]),
                                 1.0, [1.0, 1.0], 0.0)
    H, Ls = tl.sample(0.3)
    np.testing.assert_array_equal(H, SZ)
    assert Ls == []
    # a batched sampler returns one sample per time
    with pytest.raises(ModelError, match="returned 2 samples for 1 times"):
        TimeDependentLindbladian(lambda t: (np.stack([SZ, SZ]), np.zeros((2, 0, 2, 2))),
                                 1.0, [], 0.0, batched=True)


CFG = DysonConfig(order=2, grid_points=4)


@pytest.mark.parametrize("call", [
    lambda tl: ordered_propagator(tl, 0.0, math.inf, CFG),
    lambda tl: ordered_propagator(tl, math.nan, 1.0, CFG),
    lambda tl: ordered_propagator(tl, 0.0, math.nan, CFG),
    lambda tl: dyson_contract(tl, math.inf, CFG),
    lambda tl: dyson_contract(tl, math.nan, CFG),
    lambda tl: dyson_contract(tl, -1.0, CFG),
    lambda tl: tl.sample(math.nan),
    lambda tl: tl.sample(math.inf),
], ids=["propagator-end-inf", "propagator-start-nan", "propagator-end-nan", "contract-inf",
        "contract-nan", "contract-negative", "sample-nan", "sample-inf"])
def test_time_arguments_out_of_range_are_argument_errors(call):
    with pytest.raises(ArgumentError):
        call(driven_damped())


def test_negative_sample_times_and_propagator_ends_stay_legal():
    tl = driven_damped()
    np.testing.assert_array_equal(tl.sample(-0.5)[0], tl.sampler(-0.5)[0])
    V = ordered_propagator(tl, -0.5, -0.25, CFG)
    np.testing.assert_array_equal(V, ordered_propagator(timedep.TimeDependentLindbladian(
        lambda t: tl.sampler(t - 0.5), tl.alpha0, tl.alphas, tl.jdot_bound), 0.0, 0.25, CFG))
    with pytest.raises(ArgumentError, match="propagator needs s <= t"):
        ordered_propagator(tl, 0.0, -1.0, CFG)


def test_hamiltonian_changing_size_over_time_is_a_model_error():
    def sampler(t):
        return (SZ if t == 0.0 else np.zeros((4, 4))), []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 0.0)
    with pytest.raises(ModelError, match="hamiltonian"):
        td_simulate(tl, np.diag([1.0, 0.0]), 0.5, 1e-4)


@pytest.mark.parametrize("switch, call", [
    (0.5, lambda tl: ordered_propagator(tl, 0.6, 0.8, DysonConfig(2, 4))),
    # past rk4_reference's first Liouvillian chunks, whose samples are all 2 x 2
    (0.7682, lambda tl: rk4_reference(tl, np.diag([1.0, 0.0]), 1.0, 1e-3)),
], ids=["propagator", "rk4"])
def test_samples_keep_the_size_of_the_sample_at_time_zero(switch, call):
    # every stack the sampled batch makes is square of one size, but 4 x 4
    # where the model learned d = 2 at t = 0
    def sampler(t):
        return (SZ if t < switch else np.eye(4)), []

    tl = TimeDependentLindbladian(sampler, 1.0, [], 0.0)
    with pytest.raises(ModelError, match=r"hamiltonian has shape \(4, 4\), expected \(2, 2\)"):
        call(tl)


@pytest.mark.parametrize("rho0, message", [
    (np.eye(4) / 4, r"rho0 must have shape \(2, 2\)"),
    (np.eye(2), "rho0 must have unit trace"),
    (np.diag([math.nan, 1.0]), "rho0 contains non-finite entries"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "rho0 is not Hermitian"),
], ids=["shape", "trace-2", "nan", "not-hermitian"])
def test_rk4_reference_checks_rho0_as_td_simulate_does(rho0, message):
    tl = driven_damped()
    for run in (td_simulate, rk4_reference):
        with pytest.raises(ModelError, match=message):
            run(tl, rho0, 0.5, 1e-3)


def test_every_consumer_builds_from_the_symmetrized_hamiltonian():
    # a Hamiltonian within HERM_TOL of Hermitian drives the run exactly as the
    # symmetrized one does, as a static model's does
    skew = SZ + 1e-13 * np.array([[0.0, 1j], [0.0, 0.0]])

    def skewed(t):
        return math.cos(t) * skew, [0.5 * SM]

    def symmetrized(t):
        H, Ls = skewed(t)
        return (H + H.conj().T) / 2, Ls

    rho0 = np.diag([0.0, 1.0]).astype(complex)
    runs = []
    for sampler in (skewed, symmetrized):
        tl = TimeDependentLindbladian(sampler, 1.0, [0.5], 1.0)
        runs.append((td_simulate(tl, rho0, 0.5, 1e-4)[0],
                     ordered_propagator(tl, 0.0, 0.5, DysonConfig(order=4, grid_points=8)),
                     tl.sample(0.3)[0]))
    assert not np.array_equal(skewed(0.3)[0], symmetrized(0.3)[0])
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_rk4_reference_chunks_match_per_step_liouvillians(d):
    # n = 2 * _RK4_STEPS + 1 steps cross chunk boundaries on both paths (step
    # maps at d <= 4, stepping at d = 8), against RK4 with each step's
    # Liouvillians built on their own
    tl = driven_damped() if d == 2 else FrameModel(int(math.log2(d)), 1, d).tl
    sampler, calls = tl.sampler, [0]

    def counting(tau):
        calls[0] += 1
        return sampler(tau)

    def liouvillian(tau):
        H, Ls = sampler(tau)
        J = -1j * H - 0.5 * sum(L.conj().T @ L for L in Ls)
        eye = np.eye(d)
        return (np.kron(eye, J) + np.kron(J.conj(), eye)
                + sum(np.kron(L.conj(), L) for L in Ls))

    tl.sampler = counting
    n, t = 2 * _RK4_STEPS + 1, 0.8
    h = t / n
    rho0 = random_density(np.random.default_rng(d), d)
    v = rho0.reshape(-1, order="F").astype(complex)
    for i in range(n):
        tau = i * h
        L0, Lm, L1 = liouvillian(tau), liouvillian(tau + h / 2), liouvillian(tau + h)
        k1 = L0 @ v
        k2 = Lm @ (v + h / 2 * k1)
        k3 = Lm @ (v + h / 2 * k2)
        k4 = L1 @ (v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    rho = rk4_reference(tl, rho0, t, h)
    assert calls[0] == 2 * n + 1
    assert np.abs(rho - v.reshape(d, d, order="F")).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 8])
def test_rk4_reference_at_time_zero_returns_the_checked_rho0(d):
    # h = 0: the step map is I exactly, and a step adds 0 to the state
    tl = driven_damped() if d == 2 else FrameModel(int(math.log2(d)), 1, d).tl
    sampler, times = tl.sampler, []

    def counting(tau):
        times.append(tau)
        return sampler(tau)

    tl.sampler = counting
    rho0 = np.diag(np.arange(1.0, d + 1)).astype(complex) / (d * (d + 1) / 2)
    rho0[0, 1], rho0[1, 0] = 0.01 + 1e-13j, 0.01
    rho = rk4_reference(tl, rho0, 0.0, 1e-3)
    assert times == [0.0, 0.0, 0.0]
    assert np.array_equal(rho, series._validate_rho0(rho0, d))


def test_rk4_reference_matches_exact_channel():
    lind = amplitude_damping(1.0)
    tl = from_static(lind)
    rho0 = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
    ref = rk4_reference(tl, rho0, 1.0, 1e-3)
    E = exact_channel(lind, 1.0)
    expected = (E @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.abs(ref - expected).max() <= 1e-9
    with pytest.raises(ArgumentError):
        rk4_reference(tl, rho0, 1.0, 0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -1e-3])
def test_rk4_reference_rejects_bad_steps(step):
    with pytest.raises(ArgumentError, match="step must be positive and finite"):
        rk4_reference(from_static(amplitude_damping()), np.diag([1.0, 0.0]), 1.0, step)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rk4_reference_matches_the_exact_frame_channel(n):
    # d = 2 and 4 take the step-map path, d = 8 steps the state
    fm = FrameModel(n, 2, seed=102)
    rho0 = random_density(np.random.default_rng(n), fm.tl.dim)
    rho = rk4_reference(fm.tl, rho0, 0.5, 1e-3)
    assert (fm.tl.dim <= _RK4_MAP_DIM) == (n < 3)
    assert np.abs(rho - unvec(fm.channel(0.5) @ vec(rho0))).max() <= 1e-12


@pytest.mark.parametrize("step, calls", [(2e-6, "1000001"), (1e-300, "2e+300"), (1e-320, "inf")])
def test_rk4_reference_guard_fires_before_the_first_sample(step, calls):
    # 2n + 1 sampler calls, n = ceil(t / step); t / step overflows at 1e-320
    tl = driven_damped()

    def sampler(tau):
        raise AssertionError(f"sampled at t={tau} before the guard")

    tl.sampler = sampler
    with pytest.raises(ResourceLimitError, match=f"would make {re.escape(calls)} > 1000000"):
        rk4_reference(tl, np.diag([1.0, 0.0]), 1.0, step)
