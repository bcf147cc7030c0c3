"""Reference forms of the series and its quadrature that no program path needs:
the chain integrand f_k, the order-K series with exact drifts, the Taylor drift
matrix, the nested weight total and the one-rule error bound. Each reads the
library's own helpers, so its numbers are the library's bit for bit."""
import math

import numpy as np
from scipy.linalg import expm

from lindbladsim import ArgumentError, NestedGrid, canonical_rule, effective_generator, kraus_superop
from lindbladsim import series
from lindbladsim.errors import check_count, check_time

from duhamel_reference import jump_superoperator


def f_k(lind, t, s):
    """Integrand superoperator at the ordered times s = (s_1 <= ... <= s_k).

    K[exp(J(t-s_k))] . L_jump . K[exp(J(s_k-s_{k-1}))] ... L_jump . K[exp(J s_1)].
    An empty s gives the drift semigroup conjugation.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    check_time(t)
    if not np.all(np.isfinite(s)):
        raise ArgumentError(f"jump times must be finite, got {s.tolist()}")
    if s.size and (np.any(np.diff(s) < 0) or s[0] < 0 or s[-1] > t):
        raise ArgumentError("jump times must satisfy 0 <= s_1 <= ... <= s_k <= t")
    J = effective_generator(lind)
    LJ = jump_superoperator(lind)
    S = kraus_superop(expm(J * (t - (s[-1] if s.size else 0.0))))
    for i in range(s.size - 1, -1, -1):
        lower = s[i - 1] if i > 0 else 0.0
        S = S @ LJ @ kraus_superop(expm(J * (s[i] - lower)))
    return S


def g_K_quadrature(lind, t, K, q):
    """Order-K series superoperator with exact drifts and nested quadrature sums:
    the engine of CPMapApprox.as_superoperator with expm in place of the Taylor
    propagator."""
    check_time(t)
    J, L = effective_generator(lind), lind.jumps
    return series.series_superop(lambda s, u: expm((u - s)[None, :, None, None] * J),
                                 lambda u: np.repeat(L[None, None], u.size, axis=1),
                                 t, q, K, lind.num_jumps, lind.dim)[0]


def taylor_drift(lind, s, Kp):
    """Matrix sum_{ell<=Kp} (J s)^ell / ell!."""
    check_time(s, "duration")
    check_count(Kp, "Taylor order", 0)
    J = effective_generator(lind)
    return series._TaylorPropagator(J, Kp).batch(np.array([s]))[0]


def nested_weight_sum(k, q, t):
    """Sum of chain-weight products over all q^k tuples; equals t^k/k! for q >= ceil(k/2).

    Accumulated with compensated (exact) summation per chunk so the result does
    not depend on how iteration is partitioned.
    """
    partials = []
    for _, _, weights in NestedGrid(canonical_rule(q, t), k).chunks():
        partials.append(math.fsum(np.prod(weights, axis=1).tolist()))
    return math.fsum(partials)


def quadrature_error_bound(q, t, f2q_bound):
    """|E_q[f]| <= f2q_bound * t^(2q+1) * q / ((2q)! * 2^(4q-1)) on [0, t]."""
    check_count(q, "quadrature order", 1)
    check_time(t, "interval length")
    check_time(f2q_bound, "derivative bound")
    return f2q_bound * t ** (2 * q + 1) * q / (math.factorial(2 * q) * 2.0 ** (4 * q - 1))
