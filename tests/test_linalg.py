"""The linalg primitives against np.kron, bit for bit, and against einsum references."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladsim import ArgumentError
from lindbladsim.linalg import (batched_kraus_sum, expand_half, kraus_rows, kraus_superop, kron,
                                unvec)
from lindbladsim.series import _TaylorPropagator


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _einsum_kraus_sum(weights, mats):
    # the full superoperator sum_b w_b conj(A_b) kron A_b
    d = mats.shape[-1]
    out = np.einsum("b,bij,bkl->ikjl", weights, mats.conj(), mats, optimize=True)
    return out.reshape(d * d, d * d)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4, 8]), P=st.none() | st.integers(1, 5), seed=st.integers(0, 2**16))
def test_kron_and_kraus_sum_are_bitwise_the_reference(d, P, seed):
    rng = np.random.default_rng(seed)
    lead = () if P is None else (P,)
    A, C = _complex(rng, lead + (d, d)), _complex(rng, lead + (d, d))
    for n in np.ndindex(lead):
        assert np.array_equal(kron(A, C)[n], np.kron(A[n], C[n]))
        assert np.array_equal(kraus_superop(A)[n], np.kron(A[n].conj(), A[n]))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4, 8]), b=st.integers(2, 9), P=st.none() | st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_half_columns_match_the_full_superoperators(d, b, P, seed):
    # the half columns are vec(E_ab), a <= b, b-major; kraus_rows forms the
    # closing term's from the same products as kraus_superop, and its children,
    # at weight zero, add nothing, while the Kraus sum's matrix products differ
    # in shape from einsum's, and the mirrored columns of expand_half are
    # conjugates, so both agree to rounding only
    rng = np.random.default_rng(seed)
    lead = () if P is None else (P,)
    A = _complex(rng, (P or 1, d, d))
    mats, weights = _complex(rng, lead + (b, d, d)), rng.uniform(0.0, 2.0, lead + (b,))
    bi, ai = np.tril_indices(d)
    half_cols = bi * d + ai
    nh = d * (d + 1) // 2
    for by_child in (False, True):
        level = np.full((P or 1, d * d, nh), np.nan, dtype=complex)
        kraus_rows(level, _complex(rng, (2, d * d, nh)), _complex(rng, (P or 1, 2, 1, d, d)),
                   np.zeros((P or 1, 2)), rng.integers(0, 2, (P or 1, 2)), A, by_child,
                   slice(None))
        assert np.array_equal(level, kraus_superop(A)[..., half_cols])
    full = np.stack([_einsum_kraus_sum(weights[n], mats[n]) for n in np.ndindex(lead)]
                    ).reshape(lead + (d * d, d * d))
    half = batched_kraus_sum(weights, mats)
    tol = 1e-14 * np.abs(full).max()
    assert half.shape == lead + (d * d, d * (d + 1) // 2)
    assert np.abs(half - full[..., half_cols]).max() <= tol
    for n in np.ndindex(lead):
        assert np.abs(expand_half(half[n]) - full[n]).max() <= tol


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 4, 16]), Kp=st.sampled_from([3, 8, 14]), B=st.integers(1, 300),
       seed=st.integers(0, 2**16))
def test_taylor_batch_is_bitwise_the_einsum(d, Kp, B, seed):
    rng = np.random.default_rng(seed)
    prop = _TaylorPropagator(_complex(rng, (d, d)) / d, Kp)
    deltas = rng.uniform(0.0, 1.0, B)
    coeff = deltas[:, None] ** np.arange(Kp + 1)[None, :] * np.array(
        [1.0 / math.factorial(ell) for ell in range(Kp + 1)])[None, :]
    ref = np.einsum("bl,lij->bij", coeff, prop.powers, optimize=True)
    assert np.array_equal(prop.batch(deltas), ref)


def test_unvec_of_a_length_that_is_not_square_is_an_argument_error():
    # typed, and still a ValueError for callers that catch that
    assert issubclass(ArgumentError, ValueError)
    with pytest.raises(ArgumentError, match="vector of length 3 is not"):
        unvec(np.ones(3))
