"""Vectorization convention and small dense-matrix helpers.

Density matrices are vectorized by column stacking: ``vec(rho)[j*d + i] = rho[i, j]``.
Under this convention ``vec(A rho B) = (B^T kron A) vec(rho)``, so the conjugation map
``rho -> A rho A^dag`` has the superoperator matrix ``conj(A) kron A``.
"""
from __future__ import annotations

import math

import numpy as np


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a length d^2 vector."""
    return np.asarray(mat).T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d).T


def dag(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).conj().T


def kraus_superop(A: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> A rho A^dag."""
    A = np.asarray(A)
    return np.kron(A.conj(), A)


def left_mult(A: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> A rho."""
    A = np.asarray(A)
    return np.kron(np.eye(A.shape[0]), A)


def right_mult(B: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> rho B."""
    B = np.asarray(B)
    return np.kron(B.T, np.eye(B.shape[0]))


def spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(mat), 2))


def batched_kraus_sum(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Sum_b weights[b] * conj(mats[b]) kron mats[b], accumulated in batch order."""
    d = mats.shape[-1]
    out = np.einsum("b,bij,bkl->ikjl", weights, mats.conj(), mats, optimize=True)
    return out.reshape(d * d, d * d)
