"""The Kraus family's index set, coefficients and normalizers term by term, a
reference for the block read-out CPMapApprox.term_blocks and the kraus-dump
table."""
import itertools
import math

import numpy as np

from lindbladsim import NestedGrid, be_norm, canonical_rule


def per_term_rows(lind, t, K, q):
    """((k, (l_k..l_1), (j_k..j_1)), coefficient, normalizer) of every term of the
    order-K series on [0, t] over the q-point rule: k ascending, then the jump
    path, then the nested grid's tuples. Every jump path walks its depth's grid
    afresh, one row at a time."""
    e_bt = math.exp(be_norm(lind) * t)
    rows = [((0, (), ()), 1.0, e_bt)]
    for k in range(1, K + 1):
        grid = NestedGrid(canonical_rule(q, t), k)
        for ells in itertools.product(range(lind.num_jumps), repeat=k):
            alpha_prod = math.prod(lind.alphas[ell] for ell in ells)
            path = tuple(reversed(ells))
            for idx, _, weights in grid.chunks():
                coeff = np.sqrt(np.prod(weights, axis=1))
                for r in range(idx.shape[0]):
                    rows.append(((k, path, tuple(int(j) for j in idx[r, ::-1])),
                                 float(coeff[r]), float(coeff[r] * e_bt * alpha_prod)))
    return rows
