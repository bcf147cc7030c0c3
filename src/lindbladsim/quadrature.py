"""Gauss-Legendre rules and the nested simplex grid built from them.

legendre_rule finds the roots of P_q by Newton iteration on the three-term
recurrence, seeded with Chebyshev-angle estimates; weights come from
w_i = 2 / ((1 - x_i^2) P_q'(x_i)^2). canonical_rule rescales [-1, 1] to [0, t].

The nested grid at depth k scales a single rule into the ordered simplex
0 <= s_1 <= ... <= s_k <= t by the recursion

    node(())             = t
    node(prefix + (j,))  = node(prefix) * shat[j] / t
    weight(prefix, j)    = node(prefix) * w[j] / t

so every deeper node multiplies by shat[j]/t < 1 and the chain is ordered by
construction. The product of the chain weights summed over all q^k index
tuples equals t^k / k! whenever q >= ceil(k / 2).

A node depends only on the multiset of its indices, so NestedGrid.table holds
one entry per sorted multiset: depth i has C(q+i-1, i) of them, in
combinations_with_replacement order. Depth i+1 extends each multiset of depth
i, in order, by every index no smaller than its last, so the table is built by
one array pass per depth. A node's product of shat / t is its parent's times
shat[j] / t, the left-to-right order in which np.prod rounds t * prod(shat / t)
over the sorted multiset; each weight is u * w[j] / t from its parent's time u,
and each parent lists the positions of its q children.
The table is the one place that turns rule nodes into nested node times and
weights: the series engine (series.series_superop) reads its levels, and
NestedGrid.chunks walks it along each ordered index tuple, so the Kraus
read-out sees the engine's numbers bit for bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_time

MAX_ORDER = 64
TERM_GUARDRAIL = 2 ** 20
CHUNK_SIZE = 8192
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 100


def _legendre_value_derivative(q: int, x: np.ndarray):
    """P_q(x) and P_q'(x) by the ascending three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(2, q + 1):
        p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_rule(q: int):
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1], as
    read-only arrays computed once per order and shared by every caller."""
    return _legendre_rule(int(check_count(q, "quadrature order", 1, MAX_ORDER)))


@functools.cache
def _legendre_rule(q: int):
    i = np.arange(1, q + 1)
    x = np.cos(np.pi * (i - 0.25) / (q + 0.5))
    for _ in range(NEWTON_MAX_ITER):
        p, dp = _legendre_value_derivative(q, x)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() < NEWTON_TOL:
            break
    _, dp = _legendre_value_derivative(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A Gauss-Legendre rule scaled to the interval [0, interval_length]."""

    order: int
    interval_length: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def canonical_rule(q: int, t: float) -> QuadratureRule:
    """q-point rule on [0, t]: shat = t(x+1)/2, what = t v / 2."""
    check_time(t, "interval length", positive=True)
    x, v = legendre_rule(q)
    return QuadratureRule(order=int(q), interval_length=float(t),
                          nodes=t * (x + 1.0) / 2.0, weights=t * v / 2.0)


@dataclass(frozen=True, eq=False)
class NestedGrid:
    """Nested grid of depth k over a canonical rule, walked in chunks."""

    rule: QuadratureRule
    depth: int

    def __post_init__(self):
        check_count(self.depth, "nesting depth", 0)

    @property
    def count(self) -> int:
        return self.rule.order ** self.depth

    @functools.cached_property
    def table(self):
        """(u, weights, children): the index-multiset table of depths 0..k, built once.

        u[i] holds the times of the C(q+i-1, i) sorted multisets of depth i in
        combinations_with_replacement order, weights[i][p, j] = u[i][p] w_j / t
        and children[i][p, j] is the position of sorted(p + (j,)) in depth i+1.
        Depth i+1 lists each p extended by j = last(p) .. q-1 (last(()) = 0);
        a child with j < last(p) is the child of prefix(p) at j, extended by
        last(p).
        """
        q, k, t = self.rule.order, self.depth, self.rule.interval_length
        ratio, j = self.rule.nodes / t, np.arange(q)
        last, prods = np.zeros(1, dtype=np.int64), np.ones(1)
        u, children = [t * prods], []
        for _ in range(k):
            extends = j >= last[:, None]
            off = np.cumsum(q - last) - q  # the child (p, j) of an extending j is at off[p] + j
            b = children[-1][parent] if children else 0
            children.append(np.where(extends, off[:, None] + j, off[b] + last[:, None]))
            parent, last = np.nonzero(extends)
            prods = prods[parent] * ratio[last]
            u.append(t * prods)
        weights = [up[:, None] * self.rule.weights[None, :] / t for up in u[:k]]
        return u, weights, children

    def chunks(self):
        """Yield (indices, nodes, weights) arrays of shape (B, k) in enumeration order.

        Enumeration is lexicographic over (j_k, ..., j_1); axis 1 runs outermost
        (s_k) to innermost (s_1), each entry read from the table along the
        tuple's prefixes. Chunking never changes the enumeration order.
        """
        u, weights_of, children = self.table
        total = self.count
        for start in range(0, total, CHUNK_SIZE):
            idx = np.stack(np.unravel_index(np.arange(start, min(start + CHUNK_SIZE, total)),
                                            (self.rule.order,) * self.depth), axis=1)
            nodes, weights = np.empty((2,) + idx.shape)
            p = np.zeros(len(idx), dtype=np.int64)
            for pos, j in enumerate(idx.T):
                flat = p * self.rule.order + j
                weights[:, pos] = weights_of[pos].ravel()[flat]
                p = children[pos].ravel()[flat]
                nodes[:, pos] = u[pos + 1][p]
            yield idx, nodes, weights
