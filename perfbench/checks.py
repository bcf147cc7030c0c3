"""Independent checks of lindbladsim outputs.

Every reference here is computed apart from the program: the Liouvillian is
built from H and L_j in this file, exact channels come from scipy's expm,
time-dependent references from scipy's DOP853 integrator, and closed forms
come from the method (nested weight sums t^k/k!, the normalizer budget).
Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# DOP853 settings for time-dependent references.
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14
# RK4 at step 5e-4 has a global error of order step^4; 1e-9 leaves room for
# the constant while still rejecting any error visible at the eps scale.
RK4_TOL = 1e-9
# Relative tolerance on closed-form identities evaluated in double precision.
IDENTITY_RTOL = 1e-9
MOMENT_TOL = 1e-12


def liouvillian(H, Ls) -> np.ndarray:
    """Column-stacking generator: vec(A rho B) = (B^T kron A) vec(rho)."""
    d = H.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L in Ls:
        LdL = L.conj().T @ L
        out += np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)
    return out


def vec(rho):
    return np.asarray(rho).T.reshape(-1)


def unvec(v, d):
    return np.asarray(v).reshape(d, d).T


def trace_distance(a, b) -> float:
    diff = np.asarray(a) - np.asarray(b)
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def exact_state(H, Ls, rho0, t) -> np.ndarray:
    return unvec(expm(liouvillian(H, Ls) * t) @ vec(rho0), H.shape[0])


def ode_state(sample, rho0, t, breakpoints=()) -> np.ndarray:
    """rho(t) of the master equation with sample(s) -> (H(s), [L_j(s)]), integrated
    panel by panel between breakpoints so that kinks of a piecewise-linear drive
    fall on panel edges."""
    from scipy.integrate import solve_ivp

    d = rho0.shape[0]

    def rhs(s, y):
        H, Ls = sample(s)
        rho = y.reshape(d, d)
        out = -1j * (H @ rho - rho @ H)
        for L in Ls:
            LdL = L.conj().T @ L
            out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
        return out.reshape(-1)

    edges = [0.0] + sorted(b for b in breakpoints if 0.0 < b < t) + [t]
    y = np.array(rho0, dtype=complex).reshape(-1)
    for a, b in zip(edges, edges[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    return y.reshape(d, d)


def normalizer_closed_form(beta, alpha_sq, tau, K) -> float:
    """e^{2 beta tau} sum_{k<=K} (sum alpha^2)^k tau^k / k!."""
    return math.exp(2 * beta * tau) * math.fsum(
        (alpha_sq * tau) ** k / math.factorial(k) for k in range(K + 1))


def budget_segment_time(beta, alpha_sq) -> float:
    """Largest tau with e^{2 beta tau} (1 + tau a^2 e^{tau a^2}) <= 2, by bisection."""
    def over(tau):
        return math.exp(2 * beta * tau) * (1 + tau * alpha_sq * math.exp(tau * alpha_sq)) > 2
    lo, hi = 0.0, 1.0
    while not over(hi):
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if over(mid) else (mid, hi)
    return lo


def _close(a, b, rtol=IDENTITY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_static(report: dict, rho, reference, eps, beta, alpha_sq) -> list:
    """simulate output against an exact reference state and the method's closed forms."""
    fails = []
    td = trace_distance(rho, reference)
    if not td <= eps:
        fails.append(f"trace distance {td:.3e} > eps {eps:.1e}")
    n, tau = report["segments"], report["segment_time"]
    if not _close(n * tau, report["total_time"], 1e-12):
        fails.append(f"segments x segment_time = {n * tau!r} != t")
    seg_eps = report["per_segment_eps"]
    if not _close(seg_eps * n, eps, 1e-12):
        fails.append(f"per_segment_eps {seg_eps!r} != eps / segments")
    nss = report["normalizer_sum_squares"]
    if not nss <= 2.0:
        fails.append(f"normalizer_sum_squares {nss!r} > 2")
    closed = normalizer_closed_form(beta, alpha_sq, tau, report["series_order"])
    if not _close(nss, closed):
        fails.append(f"normalizer_sum_squares {nss!r} != closed form {closed!r}")
    bounds = report["bound_duhamel"] + report["bound_quadrature"] + report["bound_taylor_total"]
    if not bounds <= seg_eps:
        fails.append(f"bounds sum {bounds:.3e} > per_segment_eps {seg_eps:.3e}")
    lower = report.get("measured_choi_lower")
    if lower is not None and not lower <= eps:
        fails.append(f"measured_choi_lower {lower:.3e} > eps {eps:.1e}")
    return fails


def check_state(rho, reference, tol, what) -> list:
    td = trace_distance(rho, reference)
    return [] if td <= tol else [f"{what}: trace distance {td:.3e} > {tol:.1e}"]


def check_kraus_dump(rows, alphas, t, beta) -> list:
    """Per depth k, squared coefficients sum to (m tau)^k / k! and squared normalizers
    to e^{2 beta tau} (sum alpha^2)^k tau^k / k!; their total is within the budget of 2.
    Each normalizer is its coefficient times e^{beta tau} and its path's alphas."""
    fails = []
    alpha_sq = math.fsum(a * a for a in alphas)
    n_seg = max(1, math.ceil(t / budget_segment_time(beta, alpha_sq) - 1e-12))
    tau = t / n_seg
    growth = math.exp(beta * tau)
    coeff_sq, norm_sq = {}, {}
    worst_row = 0.0
    for row in rows:
        k, c, s = int(row["k"]), float(row["coefficient"]), float(row["normalizer"])
        coeff_sq.setdefault(k, []).append(c * c)
        norm_sq.setdefault(k, []).append(s * s)
        path = [int(x) for x in row["jump_path"].split("-")] if row["jump_path"] else []
        want = c * growth * math.prod(alphas[ell] for ell in path)
        worst_row = max(worst_row, abs(s - want) / want)
    if worst_row > IDENTITY_RTOL:
        fails.append(f"a normalizer is off its coefficient x e^(beta tau) x alphas by "
                     f"{worst_row:.3e} relative")
    K = max(coeff_sq)
    for k in range(K + 1):
        got = math.fsum(coeff_sq.get(k, []))
        want = (len(alphas) * tau) ** k / math.factorial(k)
        if not _close(got, want):
            fails.append(f"depth {k}: squared coefficients sum {got!r} != {want!r}")
        got = math.fsum(norm_sq.get(k, []))
        want = growth ** 2 * (alpha_sq * tau) ** k / math.factorial(k)
        if not _close(got, want):
            fails.append(f"depth {k}: squared normalizers sum {got!r} != {want!r}")
    total = math.fsum(math.fsum(v) for v in norm_sq.values())
    if not total <= 2.0:
        fails.append(f"squared normalizers sum {total!r} > 2")
    return fails


def check_analyze_error(rows) -> list:
    """Each measured Choi lower bound stays within its row's three error bounds."""
    fails = []
    if not rows:
        fails.append("analyze-error wrote no rows")
    for row in rows:
        total = (float(row["bound_duhamel"]) + float(row["bound_quadrature"])
                 + float(row["bound_taylor"]))
        lower, upper = float(row["choi_lower"]), float(row["choi_upper"])
        if not (lower <= total and lower <= upper):
            fails.append(f"{row['model']} K={row['K']} Kp={row['Kp']} q={row['q']}: "
                         f"choi_lower {lower!r} above bounds sum {total:.3e} "
                         f"or choi_upper {upper!r}")
    return fails


def check_quadrature(rows) -> list:
    """Gauss-Legendre moments: the program's residual and one recomputed here."""
    fails = []
    if not rows:
        fails.append("quadrature wrote no rows")
    for row in rows:
        t, ell = float(row["t"]), int(row["ell"])
        exact = t ** (ell + 1) / (ell + 1)
        own = abs(float(row["moment_lhs"]) - exact) / exact
        if not (float(row["residual"]) <= MOMENT_TOL and own <= MOMENT_TOL):
            fails.append(f"q={row['q']} t={row['t']} ell={ell}: residual "
                         f"{row['residual']} / recomputed {own:.3e} > {MOMENT_TOL}")
    return fails


def check_primitives(obj) -> list:
    fails = [f"{name}: measured {v['measured']!r} > {v['threshold']!r}"
             for name, v in sorted(obj["checks"].items()) if not v["pass"]]
    if not obj["all_pass"]:
        fails.append("all_pass is false")
    return fails
