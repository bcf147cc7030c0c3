"""Vectorization convention and small dense-matrix helpers.

Density matrices are vectorized by column stacking: ``vec(rho)[j*d + i] = rho[i, j]``.
Under this convention ``vec(A rho B) = (B^T kron A) vec(rho)``, so the conjugation map
``rho -> A rho A^dag`` has the superoperator matrix ``conj(A) kron A``.

A map rho -> sum c^2 A rho A^dag preserves Hermiticity, G(E_ba) = G(E_ab)^dag, so its
superoperator is fixed by the d(d+1)/2 columns vec(E_ab) with a <= b, its half
columns. kraus_superop builds those columns alone when asked for half=True,
batched_kraus_sum builds only those columns, and expand_half fills in the rest.

This module is the one place that builds Kronecker products and weighted Kraus sums.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ArgumentError


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a length d^2 vector."""
    return np.asarray(mat).T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ArgumentError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d).T


def dag(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).conj().T


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, batched over the leading axes; one
    broadcast product per entry, so it rounds exactly as NumPy's kron does."""
    out = np.asarray(A)[..., :, None, :, None] * np.asarray(B)[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


@functools.lru_cache(maxsize=8)
def _half_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the half columns vec(E_ab), a <= b, b-major, so the columns of one b
    are adjacent and their vec indices b*d + a ascend; read-only, cached per d."""
    b, a = np.tril_indices(d)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def expand_half(H: np.ndarray) -> np.ndarray:
    """The (..., d^2, d^2) superoperators of Hermiticity-preserving maps from their
    half columns H (..., d^2, d(d+1)/2): the column of E_ba is vec(G(E_ab)^dag)."""
    *lead, d2, _ = H.shape
    d = math.isqrt(d2)
    a, b = _half_pairs(d)
    V = H.reshape(*lead, d, d, -1)
    S = np.empty((*lead, d, d, d, d), dtype=complex)
    S[..., a, b] = V.conj().swapaxes(-3, -2)
    S[..., b, a] = V
    return S.reshape(*lead, d2, d2)


def kraus_superop(A: np.ndarray, half: bool = False) -> np.ndarray:
    """Superoperator matrix of rho -> A rho A^dag, batched over leading axes; with
    half, only its half columns, from the same products conj(A)[y, b] A[x, a]."""
    if not half:
        return kron(np.conj(A), A)
    a, b = _half_pairs(np.shape(A)[-1])
    out = np.conj(A)[..., :, None, b] * np.asarray(A)[..., None, :, a]
    return out.reshape(out.shape[:-3] + (-1, a.size))


def spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(mat), 2))


def batched_kraus_sum(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Half columns of sum_n weights[..., n] conj(mats[..., n]) kron mats[..., n] for
    mats (..., n, d, d), a (..., d^2, d(d+1)/2) array: for each b one matrix product
    of (w conj A)[:, :, b]^T with A[:, :, :b+1]. expand_half gives the full
    superoperator; tests/test_linalg.py holds it to an einsum reference."""
    mats = np.asarray(mats)
    *lead, n, d, _ = mats.shape
    wA = np.asarray(weights)[..., None, None] * mats.conj()
    out = np.empty((*lead, d, d, d * (d + 1) // 2), dtype=complex)
    for b in range(d):
        h = b * (b + 1) // 2
        right = mats[..., :b + 1].reshape(*lead, n, d * (b + 1))
        out[..., h:h + b + 1] = (wA[..., b].swapaxes(-1, -2) @ right).reshape(
            *lead, d, d, b + 1)
    return out.reshape(*lead, d * d, -1)
