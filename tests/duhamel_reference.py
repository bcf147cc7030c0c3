"""Exact Duhamel increments of a static model, a reference that shares no code
with the series engine or the nested quadrature grid."""
import numpy as np
from scipy.linalg import expm

from lindbladsim import drift_generator_matrix, jump_superoperator


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
