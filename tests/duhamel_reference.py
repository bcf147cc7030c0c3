"""Exact Duhamel increments of a static model, a reference that shares no code
with the series engine or the nested quadrature grid, and the vectorized drift
and jump parts and drift semigroup it and the tests build them from."""
import numpy as np
from scipy.linalg import expm

from lindbladsim import effective_generator, kraus_superop
from lindbladsim.errors import check_time
from lindbladsim.linalg import kron


def drift_generator_matrix(lind):
    """Vectorized drift part: rho -> J rho + rho J^dag."""
    J = effective_generator(lind)
    eye = np.eye(J.shape[-1])
    return kron(eye, J) + kron(J.conj(), eye)


def jump_superoperator(lind):
    """Vectorized jump part: sum_j conj(L_j) kron L_j, summed over j in order."""
    d = lind.dim
    S = np.zeros((d * d, d * d), dtype=complex)
    for L in lind.jumps:
        S += kraus_superop(L)
    return S


def drift_semigroup(lind, t):
    """Superoperator of rho -> exp(Jt) rho exp(Jt)^dag (the no-jump semigroup)."""
    check_time(t)
    return kraus_superop(expm(effective_generator(lind) * t))


def duhamel_increments(lind, t, K):
    """[F_0, ..., F_K] at time t: F_k is the k-fold ordered integral of the drift
    semigroup with k jump superoperators, and sum_k F_k = exp(L t).

    With M = kron(I_{K+1}, L0) + kron(N, LJ), N the upper shift, block (0, k) of
    expm(M t) is exactly F_k (Van Loan, "Computing integrals involving the
    matrix exponential", IEEE Trans. Automat. Control 23, 1978).
    """
    L0, LJ = drift_generator_matrix(lind), jump_superoperator(lind)
    D = L0.shape[0]
    M = np.kron(np.eye(K + 1), L0) + np.kron(np.eye(K + 1, k=1), LJ)
    top = expm(M * t)[:D]
    return [top[:, k * D:(k + 1) * D] for k in range(K + 1)]
