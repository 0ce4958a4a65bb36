"""Newton (Knight-Ruiz) balancing on the sparse support, checked against the
dense N x N Sinkhorn loop (``util.reference_balance``) wherever that loop
converges: same structure and values within 1e-13, on stars, isolated
nodes, empty graphs, disconnected components, one-way edges and softmax rows
with underflowed zeros. A run that stops short warns with a cause and
returns a row-stochastic field; the stall warning's prefix is what the
benchmark's stall counter reads.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcrf import (
    NeighborGraph,
    PointCloud,
    PointwiseTransform,
    balance_similarity,
    knn_graph,
    pairwise_similarity,
    radius_graph,
)
from util import graph_from_lists, reference_balance

STALL = "similarity balancing stalled at residual"


def adjacency_graph(adjacency, rng):
    np.fill_diagonal(adjacency, False)
    return graph_from_lists([rng.permutation(np.flatnonzero(row)) for row in adjacency])


@st.composite
def fields(draw):
    """Softmax similarity fields on 1-12 nodes over kNN, radius, star,
    component, one-way, underflow and edgeless graphs."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(
        ["knn", "radius", "star", "components", "one-way", "underflow", "empty"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(positions=rng.normal(size=(n, 3)), features=rng.normal(size=(n, 2)))
    if kind in ("knn", "underflow"):
        graph = knn_graph(cloud, draw(st.integers(1, n + 1)))
    elif kind == "radius":
        graph = radius_graph(cloud, draw(st.floats(0.05, 8.0)))
    elif kind == "star":
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1:] = adjacency[1:, 0] = True
        graph = adjacency_graph(adjacency, rng)
    elif kind == "components":
        component = rng.integers(0, 3, size=n)
        graph = adjacency_graph(component[:, None] == component[None, :], rng)
    elif kind == "one-way":
        graph = adjacency_graph(np.triu(rng.random((n, n)) < 0.5), rng)
    else:
        graph = adjacency_graph(np.zeros((n, n), dtype=bool), rng)
    features = cloud.features
    if kind == "underflow":
        # squared gaps of 4e4 or more: exp underflows to exactly 0.0
        features = rng.choice([-200.0, 0.0, 200.0], size=(n, 2))
    return pairwise_similarity(features, graph, PointwiseTransform.identity())


def balance_with_stall(balance, sim, max_iterations):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = balance(sim, max_iterations=max_iterations)
    messages = [str(w.message) for w in caught]
    assert len(messages) <= 1 and all(m.startswith(STALL) for m in messages), messages
    return got, (messages or [None])[0]


def balancing_tolerance(field):
    """How far two balancings of one support may differ when each leaves its
    row sums within 1e-13 of one: 1e-13 on a well-conditioned support.

    Rescaling the balanced field P by exp(u_i + u_j) changes its row sums by
    e = (I + P) u to first order and each entry by p_ij (u_i + u_j). So the
    fields differ by at most 2 |u| <= 2 sqrt(n) |e|_max / (1 + lambda_min),
    with |e|_max <= 2e-13 from the two residual targets and lambda_min the
    smallest eigenvalue of P. Bipartite components contribute an exact -1,
    whose eigenvector (+t on one side, -t on the other) leaves P unchanged,
    so those are skipped; nearly bipartite supports make the bound large.
    """
    gaps = 1.0 + np.linalg.eigvalsh(field.graph.operator.toarray())
    gap = gaps[gaps > 1e-9].min(initial=2.0)
    return max(1e-13, 4e-13 * np.sqrt(field.num_nodes) / gap)


def assert_same_field(got, want):
    np.testing.assert_array_equal(got.graph.indptr, want.graph.indptr)
    np.testing.assert_array_equal(got.graph.indices, want.graph.indices)
    np.testing.assert_allclose(
        got.flat_values, want.flat_values, rtol=0, atol=balancing_tolerance(got)
    )


def row_residual(field):
    """max |row sum - 1| over the rows that have neighbors."""
    sums = np.asarray(field.graph.operator.sum(axis=1)).ravel()[field.graph.degrees > 0]
    return np.abs(sums - 1.0).max(initial=0.0)


def assert_balanced(field):
    assert field.max_asymmetry() == 0.0
    assert row_residual(field) < 1e-12


def assert_row_stochastic(field):
    assert np.all(np.isfinite(field.flat_values))
    assert row_residual(field) < 1e-12


@settings(max_examples=150, deadline=None)
@given(fields(), st.sampled_from([1, 2, 7, 40, 400, 5000]))
def test_sparse_sinkhorn_matches_dense_loop(sim, max_iterations):
    # the referee is the dense Sinkhorn loop, compared only where it converges
    got, stall = balance_with_stall(balance_similarity, sim, max_iterations)
    if stall:
        assert "node" in stall or "ran out" in stall or "diverged" in stall, stall
        assert_row_stochastic(got)
        if max_iterations == 5000:
            # Newton converges wherever Sinkhorn does, given the default budget
            assert balance_with_stall(reference_balance, sim, 5000)[1] is not None
    elif row_residual(got) < 1e-12:
        assert got.max_asymmetry() == 0.0
        want, ref_stall = balance_with_stall(reference_balance, sim, 5000)
        if not ref_stall:
            assert_same_field(got, want)
    else:
        # a budget spent below the 1e-9 stall threshold returns without warning
        assert max_iterations < 5000 and row_residual(got) < 1e-9


@pytest.mark.parametrize("leaves", [2, 3, 40])
def test_star_at_default_budget_matches_dense_loop(leaves):
    # a star has no perfect matching (every leaf needs the hub as partner), so
    # no scaling exists: both routes stall, Newton naming an unmatched node,
    # and both return a row-stochastic field on the symmetric support
    n = leaves + 1
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[0, 1:] = adjacency[1:, 0] = True
    rng = np.random.default_rng(leaves)
    sim = pairwise_similarity(
        rng.normal(size=(n, 2)), adjacency_graph(adjacency, rng), PointwiseTransform.identity()
    )
    want, ref_stall = balance_with_stall(reference_balance, sim, 5000)
    assert ref_stall is not None
    with pytest.warns(UserWarning, match=STALL + r" \S+; node \d+ has no partner"):
        got = balance_similarity(sim)
    np.testing.assert_array_equal(got.graph.indptr, want.graph.indptr)
    np.testing.assert_array_equal(got.graph.indices, want.graph.indices)
    assert_row_stochastic(got)


@pytest.mark.parametrize("n, seed, positions", [(2048, 2, "normal"), (8192, 1, "uniform")])
def test_knn_fields_that_stall_sinkhorn_balance(n, seed, positions):
    # 5000 Sinkhorn sweeps end at residuals 8.4e-7 and 1.5e-4 on these fields
    rng = np.random.default_rng(seed)
    cloud = PointCloud(getattr(rng, positions)(size=(n, 3)), rng.normal(size=(n, 4)))
    sim = pairwise_similarity(cloud.features, knn_graph(cloud, 8), PointwiseTransform.identity())
    assert_balanced(balance_similarity(sim))


def test_spent_budget_is_named():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(size=(64, 3)), rng.normal(size=(64, 4)))
    sim = pairwise_similarity(cloud.features, knn_graph(cloud, 8), PointwiseTransform.identity())
    with pytest.warns(UserWarning, match=STALL + r" \S+; the budget of 3 matrix-vector"):
        got = balance_similarity(sim, max_iterations=3)
    assert_row_stochastic(got)


def test_no_nodes():
    sim = pairwise_similarity(
        np.zeros((0, 2)), NeighborGraph(0, [0], []), PointwiseTransform.identity()
    )
    got = balance_similarity(sim)
    assert got.num_nodes == 0 and got.graph.num_edges == 0


def test_memory_grows_with_edges_not_n_squared():
    rng = np.random.default_rng(8192)
    cloud = PointCloud(positions=rng.uniform(size=(8192, 3)), features=rng.normal(size=(8192, 2)))
    sim = pairwise_similarity(cloud.features, knn_graph(cloud, 8), PointwiseTransform.identity())
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match=STALL):
            balance_similarity(sim, max_iterations=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 8192 x 8192 float64 iterate alone would be 537 MB
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
