"""End-to-end guarantees: one test per advertised property of the library.

Run with -v to get one pass/fail line per guarantee. Each test prints a
one-line measurement summary (visible with -s or on failure).
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from lindbladsim import (
    CPMapApprox,
    DysonConfig,
    Lindbladian,
    amplitude_damping,
    be_norm,
    bound_duhamel,
    bound_taylor,
    canonical_rule,
    channel_projectors,
    choose_orders,
    dag,
    diamond_sandwich,
    dilate,
    dilute,
    drift_generator_matrix,
    drift_semigroup,
    effective_generator,
    exact_channel,
    extend_with_ancilla,
    f_k,
    g_K_quadrature,
    kraus_superop,
    lcu_channel,
    liouvillian_matrix,
    nested_weight_sum,
    oaa_step,
    random_lindbladian,
    rk4_reference,
    segment_time,
    simulate,
    spectral_norm,
    taylor_drift,
    td_simulate,
    trace_norm,
    unvec,
    vec,
)
from lindbladsim.cli import main as cli_main

from duhamel_reference import duhamel_increments
from fixtures import SM, SX, driven_damped, random_density

EPS_MACH = float(np.finfo(float).eps)


def model_corpus():
    # seeds 0-9 one qubit, 10-19 two qubits, jump count alternating 1/2
    out = []
    for seed in range(20):
        n = 1 if seed < 10 else 2
        out.append(random_lindbladian(n, num_jumps=1 + seed % 2, seed=seed))
    return out


def test_01_series_truncation_bound_and_superlinear_decay():
    t0 = time.perf_counter()
    worst = 0.0
    for lind in model_corpus():
        beta = be_norm(lind)
        for bt in (0.25, 0.5, 0.75):
            t = bt / beta
            # exact increments up to an order whose series tail, at most
            # bound_duhamel, leaves their sum within 1e-16 of the channel
            kmax = next(K for K in itertools.count(5) if bound_duhamel(K, t, beta) <= 1e-16)
            inc = duhamel_increments(lind, t, kmax)
            E = exact_channel(lind, t)
            assert np.abs(inc[0] - drift_semigroup(lind, t)).max() <= 1e-13
            assert np.abs(sum(inc) - E).max() <= 1e-13
            G = inc[0]
            logs = []
            for K in range(1, 6):
                G = G + inc[K]
                lower, _ = diamond_sandwich(E, G)
                ratio = lower / bound_duhamel(K, t, beta)
                worst = max(worst, ratio)
                assert ratio <= 1.0, (bt, K, ratio)
                logs.append(math.log(lower))
            d1 = np.diff(logs)
            assert np.all(d1 < 0.0), (bt, d1)
            # superlinear: log-error decrements grow on average
            assert np.diff(d1).mean() < 0.0, (bt, np.diff(d1))

    # integrity: the engine's nested quadrature is the definitional nested sum,
    # the chain f_k at every ordered node tuple's times, outermost node first
    lind = model_corpus()[10]
    t = 0.5 / be_norm(lind)
    rule = canonical_rule(4, t)
    G = drift_semigroup(lind, t)
    for k in (1, 2, 3):
        for js in itertools.product(range(4), repeat=k):
            u, w, times = t, 1.0, []
            for j in js:
                w *= u * rule.weights[j] / t
                u *= rule.nodes[j] / t
                times.append(u)
            G = G + w * f_k(lind, t, times[::-1])
    assert np.abs(G - g_K_quadrature(lind, t, 3, 4)).max() <= 1e-13

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    print(f"series truncation: worst error/bound {worst:.4f}, {elapsed:.1f}s")


def test_02_drift_taylor_remainder_bounds():
    worst_chan = worst_op = 0.0
    for lind in model_corpus():
        beta = be_norm(lind)
        J = effective_generator(lind)
        nj = spectral_norm(J)
        for bt in (0.25, 0.5, 0.75):
            t = bt / beta
            V = expm(J * t)
            D = drift_semigroup(lind, t)
            for Kp in range(2, 11):
                P = taylor_drift(lind, t, Kp)
                lower, _ = diamond_sandwich(D, kraus_superop(P))
                worst_chan = max(worst_chan, lower / bound_taylor(Kp, t, beta))
                assert lower <= bound_taylor(Kp, t, beta), (bt, Kp)
                remainder = (math.exp(nj * t) * (nj * t) ** (Kp + 1)
                             / math.factorial(Kp + 1))
                measured = spectral_norm(V - P)
                # 64 eps allowance: the smallest remainders sit below the
                # rounding floor of the two evaluation routes
                assert measured <= 2.0 * remainder + 64 * EPS_MACH, (bt, Kp)
                if remainder > 1e-13:
                    worst_op = max(worst_op, measured / remainder)
    print(f"taylor remainder: worst channel ratio {worst_chan:.4f}, "
          f"worst observed/remainder {worst_op:.4f}")


def test_03_quadrature_moment_and_simplex_identities():
    worst_moment = 0.0
    for q in range(1, 17):
        for t in (0.1, 1.0, 7.0):
            rule = canonical_rule(q, t)
            for ell in range(2 * q):
                lhs = math.fsum(w * s ** ell
                                for w, s in zip(rule.weights, rule.nodes))
                rhs = t ** (ell + 1) / (ell + 1)
                worst_moment = max(worst_moment, abs(lhs - rhs) / rhs)
    assert worst_moment <= 1e-12

    worst_total = 0.0
    for k in range(1, 7):
        for t in (0.5, 1.3):
            target = t ** k / math.factorial(k)
            for q in (max(1, math.ceil(k / 2)), 6):
                total = nested_weight_sum(k, q, t)
                worst_total = max(worst_total, abs(total - target) / target)
    assert worst_total <= 1e-10

    # independent confirmation: the weight total is the ordered-region volume
    rng = np.random.default_rng(3)
    t, n = 1.3, 400_000
    for k in (2, 3):
        draws = rng.uniform(0.0, t, size=(n, k))
        p = float(np.mean(np.all(np.diff(draws, axis=1) >= 0.0, axis=1)))
        volume = p * t ** k
        sigma = t ** k * math.sqrt(p * (1 - p) / n)
        assert abs(volume - t ** k / math.factorial(k)) <= 5 * sigma, k
    print(f"quadrature identities: worst moment {worst_moment:.2e}, "
          f"worst nested total {worst_total:.2e}")


def test_04_drift_kraus_matches_vectorized_generator():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(50):
        lind = random_lindbladian(1 + i % 2, num_jumps=1 + (i % 3 == 0),
                                  seed=100 + i)
        t = float(rng.uniform(0.1, 1.5))
        kraus_route = drift_semigroup(lind, t)
        vec_route = expm(drift_generator_matrix(lind) * t)
        worst = max(worst, np.abs(kraus_route - vec_route).max())
    assert worst <= 1e-11
    print(f"drift kraus identity: worst deviation {worst:.2e}")


def _lsq_eight_terms(L, rho):
    Ld = dag(L)
    LL = L @ L
    return (LL @ rho @ dag(LL)
            - 0.5 * (L @ Ld @ L) @ rho @ Ld
            - 0.5 * L @ rho @ (Ld @ L @ Ld)
            - 0.5 * (Ld @ LL) @ rho @ Ld
            + 0.25 * (Ld @ L @ Ld @ L) @ rho
            - 0.5 * L @ rho @ (Ld @ Ld @ L)
            + 0.5 * (Ld @ L) @ rho @ (Ld @ L)
            + 0.25 * rho @ (Ld @ L @ Ld @ L))


def test_05_liouvillian_square_expansion():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n, seed in ((1, 5), (2, 6)):
        lind = random_lindbladian(n, num_jumps=1, seed=seed, h_norm=0.0)
        L = lind.jumps[0]
        S = liouvillian_matrix(lind)
        S2 = S @ S
        for _ in range(10):
            rho = random_density(rng, lind.dim)
            direct = unvec(S2 @ vec(rho))
            worst = max(worst, np.abs(direct - _lsq_eight_terms(L, rho)).max())
    assert worst <= 1e-12
    print(f"squared-generator expansion: worst deviation {worst:.2e}")


def test_06_end_to_end_precision():
    t0 = time.perf_counter()
    rho0 = np.array([[0.3, 0.25], [0.25, 0.7]], dtype=complex)
    rho, _ = simulate(amplitude_damping(1.0), rho0, 3.0, 1e-6)
    closed = math.exp(-3.0) * 0.7
    assert abs(rho[1, 1].real - closed) <= 1e-6

    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    worst = 0.0
    for seed in range(200, 210):
        lind = random_lindbladian(2, num_jumps=1, seed=seed)
        for eps in (1e-4, 1e-6):
            _, report = simulate(lind, rho0, 1.0, eps, verify=True)
            worst = max(worst, report.measured_choi_lower / eps)
            assert report.measured_choi_lower <= eps, (seed, eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed
    print(f"end-to-end: worst measured/target {worst:.4f}, {elapsed:.1f}s")


def test_07_order_growth_scaling():
    lind = Lindbladian(np.zeros((2, 2)), jumps=[math.sqrt(0.5) * SM],
                       alpha0=0.75)
    assert be_norm(lind) == pytest.approx(1.0)
    tstar = segment_time(lind)
    fit = {"series": 0.0, "taylor": 0.0, "quadrature": 0.0}
    for p in range(2, 11):
        eps = 10.0 ** -p
        cfg = choose_orders(lind, tstar, eps)
        ratio = math.log(1 / eps) / math.log(math.log(1 / eps))
        fit["series"] = max(fit["series"], cfg.series_order / (ratio + 1))
        fit["taylor"] = max(fit["taylor"], cfg.taylor_order / (ratio + 1))
        fit["quadrature"] = max(fit["quadrature"],
                                cfg.quadrature_order / (ratio + 1))
    assert max(fit.values()) <= 4.0, fit
    print("order scaling constants: "
          + ", ".join(f"{k}={v:.2f}" for k, v in fit.items()))


def test_08_channel_application_contract():
    rng = np.random.default_rng(8)
    models = [amplitude_damping(1.0)]
    models += [random_lindbladian(1, num_jumps=1 + s % 2, seed=300 + s)
               for s in range(5)]
    models += [random_lindbladian(2, num_jumps=1, seed=305 + s)
               for s in range(2)]
    min_prob = 1.0
    for lind in models:
        seg = segment_time(lind)
        cp = CPMapApprox(lind, seg, choose_orders(lind, seg, 1e-2))
        terms = list(cp.iter_terms())
        d = lind.dim
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        for eps in (0.0, 1e-8, 1e-6):
            encs = []
            for term in terms:
                A = term.operator
                # keep the perturbed operator inside its declared bound
                inject = min(eps, 0.5 * (term.normalizer - spectral_norm(A)))
                G = np.zeros((d, d), dtype=complex)
                if inject > 0.0:
                    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    G *= inject / spectral_norm(G)
                e = dilate(A + G, term.normalizer)
                encs.append(replace(e, target=A, epsilon=eps))
            app = lcu_channel(encs, psi)
            bound = len(terms) * eps / math.sqrt(app.sum_s_squares)
            assert app.residual <= bound + 1e-13, eps
            prob = app.success_amplitude ** 2
            min_prob = min(min_prob, prob)
            assert prob >= 0.25
    print(f"channel application: min success probability {min_prob:.3f}")


def _rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_09_amplification_identity():
    # synthetic half-amplitude rotation
    W = np.eye(4)
    c, s = 0.5, math.sqrt(3) / 2
    W[0, 0] = c; W[0, 2] = -s
    W[2, 0] = s; W[2, 2] = c
    P0 = np.diag([1.0, 1.0, 0.0, 0.0])
    psi_hat = np.array([1.0, 0.0, 0.0, 0.0])
    P1 = np.outer(psi_hat, psi_hat)
    out = oaa_step(W, P0, P1, psi_hat)
    target = np.zeros(4)
    target[0] = 1.0
    dev = np.linalg.norm(out - target)

    # diluted end segment: trace-preserving pair, two declared scalings
    rng = np.random.default_rng(9)
    half = 1.0 / math.sqrt(2.0)
    for declared in (half, 1.0):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        app = lcu_channel([dilate(half * np.eye(2, dtype=complex), declared),
                           dilate(half * SX, declared)], psi)
        theta, _ = dilute(app.success_amplitude)
        P0, P1 = channel_projectors(app)
        W = np.kron(app.select, _rotation2(theta))
        psi_ext = extend_with_ancilla(app.psi_hat, state=True)
        out = oaa_step(W, extend_with_ancilla(P0), extend_with_ancilla(P1),
                       psi_ext)
        good = extend_with_ancilla(P0) @ (W @ psi_ext)
        good /= np.linalg.norm(good)
        dev = max(dev, np.linalg.norm(out - good))
    assert dev <= 1e-10
    print(f"amplification identity: max deviation {dev:.2e}")


def test_10_time_ordered_reference_and_grid_convergence():
    tl = driven_damped()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    ref = rk4_reference(tl, rho0, 1.0, 1e-5)

    rho, _, _ = td_simulate(tl, rho0, 1.0, 1e-4)
    tdist = 0.5 * trace_norm(rho - ref)
    assert tdist <= 1e-4

    errs = {}
    for grid in (4, 8):
        rho_g, _, _ = td_simulate(tl, rho0, 1.0, 1e-5,
                                  cfg=DysonConfig(order=10, grid_points=grid),
                                  segments=8)
        errs[grid] = np.abs(rho_g - ref).max()
    ratio = errs[4] / errs[8]
    assert 1.0 <= ratio <= 4.1, errs
    print(f"time-ordered: trace distance {tdist:.2e}, "
          f"grid doubling ratio {ratio:.2f}")


def test_11_cli_determinism(tmp_path):
    def run(name, argv):
        path = tmp_path / name
        assert cli_main(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    sweeps = [run(f"sweep{i}.csv",
                  ["analyze-error", "--random-models", "2", "--seed", "7",
                   "--time", "0.3", "--max-order", "2", "--workers", str(w)])
              for i, w in enumerate((1, 1, 3, 4))]
    assert all(b == sweeps[0] for b in sweeps[1:])

    pairs = [
        ("sim", ["simulate", "--model", "models/amplitude_damping.json",
                 "--time", "0.7", "--eps", "1e-6"]),
        ("quad", ["quadrature", "--max-q", "5"]),
        ("kraus", ["kraus-dump", "--model", "models/amplitude_damping.json",
                   "--time", "0.5", "--eps", "1e-4"]),
        ("prim", ["primitives-verify", "--seed", "1"]),
        ("td", ["td-simulate", "--model", "models/driven_damped_qubit.json",
                "--time", "0.3", "--eps", "1e-4"]),
    ]
    for name, argv in pairs:
        first = run(f"{name}-a.out", argv)
        second = run(f"{name}-b.out", argv)
        assert first == second, name
    print("cli determinism: 4 sweep runs and 5 command pairs byte-identical")
