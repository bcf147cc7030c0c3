"""Vectorization convention and small dense-matrix helpers.

Density matrices are vectorized by column stacking: ``vec(rho)[j*d + i] = rho[i, j]``.
Under this convention ``vec(A rho B) = (B^T kron A) vec(rho)``, so the conjugation map
``rho -> A rho A^dag`` has the superoperator matrix ``conj(A) kron A``.

A map rho -> sum c^2 A rho A^dag preserves Hermiticity, G(E_ba) = G(E_ab)^dag, so its
superoperator is fixed by the d(d+1)/2 columns vec(E_ab) with a <= b, its half
columns. batched_kraus_sum and kraus_rows, a level of the series engine's recursion,
build only those columns, and expand_half fills in the rest.

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


def kraus_superop(A: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> A rho A^dag, batched over leading axes."""
    return kron(np.conj(A), A)


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


def kraus_rows(level: np.ndarray, G: np.ndarray, B: np.ndarray, W: np.ndarray, ch: np.ndarray,
               close: np.ndarray, by_child: bool, sl: slice) -> None:
    """Rows sl of one level of series.series_superop's recursion, in half
    columns: level[r] = K[close_r] + sum_j W[r, j] sum_l K[B[r, j, l]] G[ch[r, j]],
    from the rows below, G, each row's children's rows ch, their weights W,
    jump-side factors B (rows, q, m, d, d) and closing propagators close.
    by_child gathers and multiplies one child at a time, which holds fewer
    bytes and forms the same products."""
    Bs, C = B[sl], close[sl]
    P, q, m, d, _ = Bs.shape
    nh = G.shape[-1]
    a, b = _half_pairs(d)
    # the closing term's half columns conj(C)[y, b] C[x, a] first, while no
    # product is held; the sum below commutes
    np.multiply(np.conj(C)[..., :, None, b], C[..., None, :, a], out=level[sl].reshape(P, d, d, nh))
    # K[B] X as two d x d contractions per column: B on the ket index,
    # then conj(B), weighted, on the bra index summed over (j, l)
    if by_child:
        Y = np.empty((P, q, m, d, d, nh), dtype=complex)
        for j in range(q):
            np.matmul(Bs[:, j, :, None], G[ch[sl, j]].reshape(P, 1, d, d, nh), out=Y[:, j])
    else:
        Y = Bs[:, :, :, None] @ G[ch[sl]].reshape(P, q, 1, d, d, nh)
    # conj(B) weighted, laid out bra index first: (P, d, q, m, d)
    Wc = np.conj(Bs.transpose(0, 3, 1, 2, 4), order="C")
    Wc *= W[sl][:, None, :, None, None]
    Z = Wc.reshape(P, d, q * m * d) @ Y.reshape(P, q * m * d, d * nh)
    level[sl] += Z.reshape(P, d * d, nh)
