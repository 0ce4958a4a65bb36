"""Sinkhorn balancing on the sparse support, checked against the dense N x N
loop it replaced (``util.reference_balance``): same structure, values within
1e-13 and the same stall warnings on stars, isolated nodes, empty graphs,
disconnected components, one-way edges and softmax rows with underflowed
zeros. The stall warning's prefix is what the benchmark's stall counter reads.
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
from util import reference_balance

STALL = "similarity balancing stalled at residual"


def adjacency_graph(adjacency, rng):
    np.fill_diagonal(adjacency, False)
    neighbors = [rng.permutation(np.flatnonzero(row)) for row in adjacency]
    return NeighborGraph(num_nodes=len(adjacency), neighbors=neighbors)


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


def reference_with_stall(sim, max_iterations):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = reference_balance(sim, max_iterations=max_iterations)
    messages = [str(w.message) for w in caught]
    assert len(messages) <= 1 and all(m.startswith(STALL) for m in messages), messages
    return want, bool(messages)


def assert_same_field(got, want):
    np.testing.assert_array_equal(got.graph.indptr, want.graph.indptr)
    np.testing.assert_array_equal(got.graph.indices, want.graph.indices)
    np.testing.assert_allclose(got.flat_values, want.flat_values, rtol=0, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(fields(), st.sampled_from([1, 2, 7, 40, 400]))
def test_sparse_sinkhorn_matches_dense_loop(sim, max_iterations):
    want, stalled = reference_with_stall(sim, max_iterations)
    if stalled:
        with pytest.warns(UserWarning, match=STALL):
            got = balance_similarity(sim, max_iterations=max_iterations)
    else:
        got = balance_similarity(sim, max_iterations=max_iterations)
    assert_same_field(got, want)


@pytest.mark.parametrize("leaves", [2, 3, 40])
def test_star_at_default_budget_matches_dense_loop(leaves):
    # 5000 sweeps drive the hub and leaf scalings a factor `leaves` apart per
    # sweep, far past the float range, while the field itself stays bounded
    n = leaves + 1
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[0, 1:] = adjacency[1:, 0] = True
    rng = np.random.default_rng(leaves)
    sim = pairwise_similarity(
        rng.normal(size=(n, 2)), adjacency_graph(adjacency, rng), PointwiseTransform.identity()
    )
    want, stalled = reference_with_stall(sim, 5000)
    assert stalled
    with pytest.warns(UserWarning, match=STALL):
        got = balance_similarity(sim)
    assert_same_field(got, want)


def test_no_nodes():
    sim = pairwise_similarity(
        np.zeros((0, 2)), NeighborGraph(num_nodes=0, neighbors=[]), PointwiseTransform.identity()
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
