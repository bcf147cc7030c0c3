import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from lindbladsim import (
    ArgumentError,
    NestedGrid,
    ResourceLimitError,
    canonical_rule,
    legendre_rule,
    nested_grid,
    nested_weight_sum,
    quadrature_error_bound,
)


def test_legendre_rule_q1_closed_form():
    nodes, weights = legendre_rule(1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [2.0], atol=1e-15)


def test_legendre_rule_q2_closed_form():
    nodes, weights = legendre_rule(2)
    r = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(nodes, [-r, r], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-14)


def test_legendre_rule_q5_monomial():
    # integral of x^8 over [-1,1] is 2/9; q=5 is exact through degree 9
    nodes, weights = legendre_rule(5)
    val = math.fsum(w * x**8 for w, x in zip(weights, nodes))
    assert abs(val - 2.0 / 9.0) <= 1e-14


def test_legendre_rule_matches_reference():
    for q in (1, 2, 3, 7, 16, 33, 64):
        nodes, weights = legendre_rule(q)
        ref_nodes, ref_weights = leggauss(q)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-14)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-14)


def test_legendre_rule_orthonormality():
    # the rule itself reproduces the normalized Legendre inner products
    q = 6
    nodes, weights = legendre_rule(q)
    polys = [np.polynomial.legendre.Legendre.basis(r) for r in range(q)]
    for r in range(q):
        for s in range(q):
            if r + s > 2 * q - 1:
                continue
            val = math.fsum(w * polys[r](x) * polys[s](x)
                            for w, x in zip(weights, nodes))
            expected = 2.0 / (2 * r + 1) if r == s else 0.0
            assert abs(val - expected) <= 1e-13


def test_legendre_rule_is_read_only_and_repeats():
    # the rule is computed once per order and shared, so no caller may write it
    for q in (1, 3, 8):
        nodes, weights = legendre_rule(q)
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = legendre_rule(np.int64(q))
        np.testing.assert_array_equal(again[0], nodes)
        np.testing.assert_array_equal(again[1], weights)


def test_legendre_rule_rejects_out_of_range():
    with pytest.raises(ArgumentError):
        legendre_rule(0)
    with pytest.raises(ArgumentError):
        legendre_rule(65)


def test_canonical_rule_q1():
    rule = canonical_rule(1, 1.0)
    np.testing.assert_allclose(rule.nodes, [0.5], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0], atol=1e-15)


def test_canonical_rule_first_moment():
    rule = canonical_rule(2, 1.0)
    val = math.fsum(w * s for w, s in zip(rule.weights, rule.nodes))
    assert abs(val - 0.5) <= 1e-15


def test_canonical_rule_second_moment_scaled():
    rule = canonical_rule(3, 2.0)
    val = math.fsum(w * s**2 for w, s in zip(rule.weights, rule.nodes))
    assert abs(val - 8.0 / 3.0) <= 1e-14


def test_canonical_rule_rejects_nonpositive_interval():
    with pytest.raises(ArgumentError):
        canonical_rule(2, 0.0)
    with pytest.raises(ArgumentError):
        canonical_rule(2, -1.0)


def test_moment_identity_all_orders():
    # sum w s^ell = t^{ell+1}/(ell+1) for ell <= 2q-1
    for t in (0.1, 1.0, 7.0):
        for q in range(1, 17):
            rule = canonical_rule(q, t)
            for ell in range(2 * q):
                lhs = math.fsum(w * s**ell for w, s in zip(rule.weights, rule.nodes))
                rhs = t ** (ell + 1) / (ell + 1)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_weight_sum_equals_interval():
    for q in (1, 4, 11):
        rule = canonical_rule(q, 5.5)
        assert abs(math.fsum(rule.weights) - 5.5) <= 1e-13


def test_scaled_rule_covariance():
    t, s = 3.0, 0.7
    big = canonical_rule(5, t)
    small = canonical_rule(5, s)
    np.testing.assert_allclose(small.nodes, big.nodes * (s / t), atol=1e-14)
    np.testing.assert_allclose(small.weights, big.weights * (s / t), atol=1e-14)


def test_nodes_interior_and_weights_positive_up_to_cap():
    for q in (1, 2, 16, 41, 64):
        rule = canonical_rule(q, 1.0)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)


def test_nested_grid_depth_one_matches_rule():
    rule = canonical_rule(4, 1.3)
    (_, nodes, weights), = nested_grid(1, 4, 1.3).chunks()
    np.testing.assert_allclose(nodes[:, 0], rule.nodes, atol=1e-15)
    np.testing.assert_allclose(weights[:, 0], rule.weights, atol=1e-15)


def test_nested_grid_depth_two_product_nodes():
    t = 1.0
    rule = canonical_rule(2, t)
    for idx, nodes, _ in nested_grid(2, 2, t).chunks():
        expected = rule.nodes[idx[:, 0]] * rule.nodes[idx[:, 1]] / t
        assert np.abs(nodes[:, 1] - expected).max() <= 1e-15


def test_nested_grid_simplex_ordering():
    t = 0.7
    for _, s, weights in nested_grid(3, 4, t).chunks():
        assert np.all((0 < s[:, 2]) & (s[:, 2] <= s[:, 1]) & (s[:, 1] <= s[:, 0])
                      & (s[:, 0] <= t))
        assert np.all(weights > 0)


GRID_TIMES = (1e-3, 0.1, 0.37, 1.0, 2.9, 7.0)


def _multiset_time(rule, js):
    # t * prod(shat_j / t) over the sorted multiset, multiplied left to right
    t = rule.interval_length
    prod = np.ones(js.shape[0])
    for c in range(js.shape[1]):
        prod = prod * (rule.nodes[js[:, c]] / t)
    return t * prod


def test_nested_grid_nodes_and_weights_are_the_multiset_table():
    # every node is t * prod(shat / t) over its sorted prefix and every weight
    # u_parent * w / t, bit for bit, so the read-out sees the engine's numbers
    for q in range(1, 9):
        for k in range(1, 5):
            for t in GRID_TIMES:
                grid = nested_grid(k, q, t)
                rule = grid.rule
                for idx, nodes, weights in grid.chunks():
                    parent = np.full(idx.shape[0], t)
                    for pos in range(k):
                        node = _multiset_time(rule, np.sort(idx[:, :pos + 1], axis=1))
                        assert np.array_equal(nodes[:, pos], node)
                        assert np.array_equal(weights[:, pos],
                                              parent * rule.weights[idx[:, pos]] / t)
                        parent = node


def test_nested_grid_table_counts_and_children():
    # the reference builds every depth by combinations_with_replacement and looks
    # each child up by its sorted multiset; shapes too big for that are skipped
    for q in range(1, 13):
        for k in range(10):
            if math.comb(q + k - 1, k) * q > 40000:
                continue
            rule = canonical_rule(q, 0.7)
            u, weights, children = NestedGrid(rule, k).table
            assert len(weights) == len(children) == k
            levels = [list(itertools.combinations_with_replacement(range(q), i))
                      for i in range(k + 1)]
            for i, level in enumerate(levels):
                assert u[i].shape == (math.comb(q + i - 1, i),) == (len(level),)
                js = np.array(level, dtype=np.int64).reshape(len(level), i)
                assert np.array_equal(u[i], _multiset_time(rule, js))
            for i in range(k):
                assert weights[i].shape == children[i].shape == (len(levels[i]), q)
                expected = u[i][:, None] * rule.weights / rule.interval_length
                assert weights[i].tobytes() == expected.tobytes()
                assert children[i].dtype == np.int64
                for p, multiset in enumerate(levels[i]):
                    for j in range(q):
                        child = levels[i + 1][children[i][p, j]]
                        assert child == tuple(sorted(multiset + (j,)))


@pytest.mark.parametrize("call", [
    lambda: nested_grid(2.5, 3, 1.0),
    lambda: nested_weight_sum(2.5, 3, 1.0),
    lambda: NestedGrid(canonical_rule(3, 1.0), -1),
    lambda: quadrature_error_bound(2.5, 1.0, 1.0),
], ids=["nested_grid-fractional-depth", "nested_weight_sum-fractional-depth",
        "NestedGrid-negative-depth", "error_bound-fractional-order"])
def test_depth_and_order_must_be_integers(call):
    with pytest.raises(ArgumentError):
        call()


def test_nested_grid_guardrail():
    with pytest.raises(ResourceLimitError):
        nested_grid(10, 64, 1.0)


def test_nested_weight_sum_depth_one():
    for q in (1, 3, 6):
        assert abs(nested_weight_sum(1, q, 2.5) - 2.5) <= 1e-13


def test_nested_weight_sum_examples():
    assert abs(nested_weight_sum(2, 2, 1.0) - 0.5) <= 1e-13
    assert abs(nested_weight_sum(3, 3, 2.0) - 8.0 / 6.0) <= 1e-12


def test_nested_weight_sum_factorial_identity():
    # total weight equals the simplex volume t^k/k! once q >= ceil(k/2)
    for t in (0.3, 1.0, 4.0):
        for k in range(1, 7):
            q = max(1, math.ceil(k / 2))
            expected = t**k / math.factorial(k)
            got = nested_weight_sum(k, q, t)
            assert abs(got - expected) <= 1e-10 * expected


def test_nested_weight_sum_monte_carlo_volume():
    # independent check against a sampled simplex volume for small depth
    rng = np.random.default_rng(11)
    t = 1.4
    n = 2_000_000
    for k in (2, 3):
        pts = rng.uniform(0.0, t, size=(n, k))
        frac = np.mean(np.all(np.diff(pts, axis=1) >= 0, axis=1))
        vol = frac * t**k
        got = nested_weight_sum(k, k, t)
        assert abs(got - vol) <= 4e-3 * t**k / math.factorial(k)


def test_error_bound_plug_in():
    assert abs(quadrature_error_bound(1, 1.0, 1.0) - 1.0 / 16.0) <= 1e-15


def test_error_bound_dominates_smooth_function():
    # f = exp on [0,1], q=4: |E_q[f]| <= bound with sup|f^(8)| = e
    q, t = 4, 1.0
    rule = canonical_rule(q, t)
    approx = math.fsum(w * math.exp(s) for w, s in zip(rule.weights, rule.nodes))
    actual = abs(approx - (math.e - 1.0))
    assert actual <= quadrature_error_bound(q, t, math.e)


def test_error_bound_nonnegative_on_exact_polynomials():
    q, t = 3, 2.0
    rule = canonical_rule(q, t)
    # degree 2q-1 polynomial integrates exactly, so 0 <= bound trivially
    approx = math.fsum(w * s**5 for w, s in zip(rule.weights, rule.nodes))
    assert abs(approx - t**6 / 6) <= 1e-12
    assert quadrature_error_bound(q, t, 1.0) >= 0.0
