"""Vectorization convention and small dense-matrix helpers.

Density matrices are vectorized by column stacking: ``vec(rho)[j*d + i] = rho[i, j]``.
Under this convention ``vec(A rho B) = (B^T kron A) vec(rho)``, so the conjugation map
``rho -> A rho A^dag`` has the superoperator matrix ``conj(A) kron A``.

This module is the one place that builds Kronecker products and weighted Kraus sums.
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


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, batched over the leading axes; one
    broadcast product per entry, so it rounds exactly as NumPy's kron does."""
    out = np.asarray(A)[..., :, None, :, None] * np.asarray(B)[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


def kraus_superop(A: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> A rho A^dag, batched over leading axes."""
    return kron(np.conj(A), A)


def left_mult(A: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> A rho."""
    return kron(np.eye(np.shape(A)[0]), A)


def right_mult(B: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> rho B."""
    return kron(np.transpose(B), np.eye(np.shape(B)[0]))


def spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(mat), 2))


def batched_kraus_sum(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Sum_b weights[..., b] conj(mats[..., b]) kron mats[..., b] for mats (..., b, d, d):
    one matrix product (w conj A)^T @ A over the flattened d^2 axis and an index swap.
    tests/test_linalg.py pins its bits, for 2 to 9 matrices of side 2 to 8, against
    the optimized einsum "b,bij,bkl->ikjl"."""
    *lead, b, d, _ = np.shape(mats)
    A = np.reshape(mats, (*lead, b, d * d))
    wA = np.asarray(weights)[..., None] * A.conj()
    out = (wA.swapaxes(-1, -2) @ A).reshape(*lead, d, d, d, d)
    return out.swapaxes(-3, -2).reshape(*lead, d * d, d * d)
