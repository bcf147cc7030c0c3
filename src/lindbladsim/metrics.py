"""Choi matrices and diamond-norm sandwich estimates.

The Choi matrix used here is the unnormalized C = sum_ij Phi(|i><j|) kron |i><j|
(output factor first), obtained from a column-stacking superoperator by an index
reshuffle. For a map given by Kraus operators, C = sum_a vec_r(A_a) vec_r(A_a)^dag
with vec_r the row-major flattening, so complete positivity shows up as C >= 0.

For a difference of channels Delta, ||C(Delta)||_1 / d <= ||Delta||_diamond
<= ||C(Delta)||_1, which brackets the diamond norm within a factor d without
semidefinite programming. Every bound-verification test in this package checks
the lower member of the sandwich against the closed-form bound.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError


def _dim_of_superop(S: np.ndarray) -> int:
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ArgumentError(f"superoperator must be square, got shape {S.shape}")
    d = math.isqrt(S.shape[0])
    if d * d != S.shape[0]:
        raise ArgumentError(f"superoperator side {S.shape[0]} is not a perfect square")
    return d


def choi(superop: np.ndarray) -> np.ndarray:
    """Reshuffle a column-stacking superoperator into its (unnormalized) Choi matrix."""
    d = _dim_of_superop(superop)
    S4 = np.asarray(superop).reshape(d, d, d, d)
    return np.einsum("lkji->kilj", S4).reshape(d * d, d * d)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(mat), compute_uv=False).sum())


def diamond_sandwich(S1: np.ndarray, S2: np.ndarray):
    """(lower, upper) bounds on ||S1 - S2||_diamond from the Choi trace norm.

    Raises ArgumentError, before the SVD, unless the shapes match and every
    entry of S1 - S2 is finite."""
    S1 = np.asarray(S1)
    S2 = np.asarray(S2)
    if S1.shape != S2.shape:
        raise ArgumentError("superoperators must have identical shapes")
    d = _dim_of_superop(S1)
    if not np.isfinite(diff := S1 - S2).all():
        raise ArgumentError("superoperators have a non-finite entry or difference")
    nrm = trace_norm(choi(diff))
    return nrm / d, nrm
