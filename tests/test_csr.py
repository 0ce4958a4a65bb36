"""The CSR graph core: validation, flat read-only storage, and every flat
kernel checked against the per-node loop it replaced (references in ``util``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcrf import (
    LabelCompatibility,
    LabelField,
    NeighborGraph,
    PointwiseTransform,
    SimilarityField,
    coordinate_descent_step,
    diffusion_step,
    dirichlet_energy,
    discrete_crf_step,
    mean_field_mean_step,
    pairwise_similarity,
)
from pointcrf.cloud import segment_reduce
from util import (
    graph_from_lists,
    node_rows,
    random_pd_compat,
    reference_aggregate,
    reference_anchored_step,
    reference_diffusion_step,
    reference_dirichlet,
    reference_discrete_step,
    reference_max_asymmetry,
    reference_similarity,
)

RTOL = 1e-13
SHAPES = ["random", "empty", "complete", "star", "components"]


@st.composite
def cases(draw):
    """(graph, rng): isolated nodes, zero-edge graphs, k >= N - 1 (complete),
    stars, disconnected cliques; rows in shuffled (not sorted) order."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        adjacency = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    elif shape == "complete":
        adjacency = np.ones((n, n), dtype=bool)
    elif shape == "star":
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1:] = adjacency[1:, 0] = True
    elif shape == "components":
        component = rng.integers(0, 3, size=n)
        adjacency = component[:, None] == component[None, :]
    else:
        adjacency = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(adjacency, False)
    return graph_from_lists([rng.permutation(np.flatnonzero(row)) for row in adjacency]), rng


def edge_weights(graph, rng):
    """Nonnegative per-edge weights with roughly a third of the rows all zero."""
    weights = rng.uniform(0.0, 2.0, size=graph.num_edges)
    weights[(rng.random(graph.num_nodes) < 0.3)[graph.edge_src]] = 0.0
    return weights


def asymmetric_field(graph, rng):
    raw = rng.uniform(0.1, 1.0, size=graph.num_edges)
    return SimilarityField(graph, raw / segment_reduce(raw, graph.indptr)[graph.edge_src])


def assert_rows_close(got_rows, want_rows):
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        # atol only absorbs subnormal rounding of values that underflow
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-300)


@settings(max_examples=80, deadline=None)
@given(cases(), st.booleans(), st.sampled_from([1.0, 40.0]))
def test_similarity_softmax_matches_per_node_loop(case, projected, spread):
    graph, rng = case
    # a wide spread puts exp(-d^2) far below the float range unless shifted
    features = rng.normal(scale=spread, size=(graph.num_nodes, 3))
    projection = (
        PointwiseTransform.linear(rng.normal(size=(2, 3))) if projected
        else PointwiseTransform.identity()
    )
    sim = pairwise_similarity(features, graph, projection)
    want = reference_similarity(features, graph, projection)
    assert_rows_close(node_rows(graph, sim.flat_values), want)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_aggregate_matches_per_node_loop(case):
    graph, rng = case
    sim = asymmetric_field(graph, rng)
    node_values = rng.uniform(0.5, 2.0, size=(graph.num_nodes, 3))
    np.testing.assert_allclose(
        sim.aggregate(node_values), reference_aggregate(graph, sim.flat_values, node_values),
        rtol=RTOL, atol=0.0,
    )


@settings(max_examples=80, deadline=None)
@given(cases())
def test_discrete_step_matches_per_node_loop(case):
    graph, rng = case
    labels = 4
    unary = rng.dirichlet(np.ones(labels), size=graph.num_nodes)
    # some entries below the log floor exercise the clamped silent-row branch
    unary[rng.random(unary.shape) < 0.1] = 0.0
    unary[unary.sum(axis=1) == 0, 0] = 1.0
    unary /= unary.sum(axis=1, keepdims=True)
    posterior = rng.dirichlet(np.ones(labels), size=graph.num_nodes)
    compat = LabelCompatibility(rng.normal(size=(labels, labels)))
    weights = edge_weights(graph, rng)
    got = discrete_crf_step(LabelField(unary, posterior), graph, weights, compat).posterior
    want = reference_discrete_step(unary, posterior, graph, weights, compat.matrix)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def assert_close_to_scale(got, want):
    # signed terms can cancel in an entry, so atol is relative to the largest one
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("step", [coordinate_descent_step, mean_field_mean_step])
@settings(max_examples=80, deadline=None)
@given(cases())
def test_anchored_steps_match_per_node_loop(step, case):
    graph, rng = case
    observed, latent = rng.normal(size=(2, graph.num_nodes, 3))
    compat = random_pd_compat(rng, 3)
    weights = edge_weights(graph, rng)
    assert_close_to_scale(
        step(observed, latent, graph, weights, compat),
        reference_anchored_step(observed, latent, graph, weights, compat.matrix),
    )


@pytest.mark.parametrize("shape", [(), (3,)], ids=["N", "N-by-3"])
@settings(max_examples=80, deadline=None)
@given(cases())
def test_diffusion_step_matches_per_node_loop(shape, case):
    graph, rng = case
    weighted = graph.with_weights(edge_weights(graph, rng))
    signal = rng.normal(size=(graph.num_nodes, *shape))
    assert_close_to_scale(
        diffusion_step(signal, weighted, 0.5), reference_diffusion_step(weighted, signal, 0.5)
    )


@settings(max_examples=80, deadline=None)
@given(cases())
def test_dirichlet_energy_matches_per_node_loop(case):
    graph, rng = case
    weighted = graph.with_weights(edge_weights(graph, rng))
    signal = rng.normal(size=graph.num_nodes)
    # h^T L h cancels against h^T h, so the tolerance is relative to that
    np.testing.assert_allclose(
        dirichlet_energy(weighted, signal), reference_dirichlet(weighted, signal),
        rtol=RTOL, atol=RTOL * float(signal @ signal),
    )


@settings(max_examples=80, deadline=None)
@given(cases())
def test_max_asymmetry_matches_per_node_loop(case):
    graph, rng = case
    sim = asymmetric_field(graph, rng)
    assert sim.max_asymmetry() == reference_max_asymmetry(graph, sim.flat_values)


class TestSegmentReduce:
    def test_empty_rows_take_the_fill_value(self):
        indptr = np.array([0, 2, 2, 5, 5])
        values = np.array([1.0, 2.0, 3.0, -1.0, 4.0])
        np.testing.assert_array_equal(segment_reduce(values, indptr), [3.0, 0.0, 6.0, 0.0])
        np.testing.assert_array_equal(
            segment_reduce(values, indptr, np.maximum, -np.inf), [2.0, -np.inf, 4.0, -np.inf]
        )

    def test_zero_edges(self):
        out = segment_reduce(np.empty((0, 2)), np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))


class TestGraphStorage:
    def test_flat_arrays_are_read_only(self):
        graph = NeighborGraph(3, [0, 2, 2, 3], [2, 1, 0], [0.5, 1.5, 2.0])
        np.testing.assert_array_equal(graph.indptr, [0, 2, 2, 3])
        np.testing.assert_array_equal(graph.indices, [2, 1, 0])
        np.testing.assert_array_equal(graph.weights, [0.5, 1.5, 2.0])
        for flat in (graph.indptr, graph.indices, graph.weights):
            with pytest.raises(ValueError):
                flat[0] = 1

    def test_to_csr_round_trips(self):
        graph = NeighborGraph(3, [0, 2, 2, 3], [2, 1, 0], [0.5, 1.5, 2.0])
        dense = graph.to_csr().toarray()
        np.testing.assert_array_equal(dense, [[0, 1.5, 0.5], [0, 0, 0], [2.0, 0, 0]])
        again = NeighborGraph(3, graph.indptr, graph.indices, graph.weights)
        np.testing.assert_array_equal(again.to_csr().toarray(), dense)

    def test_weighted_graphs_share_the_structure(self):
        graph = NeighborGraph(2, [0, 1, 2], [1, 0])
        sim = SimilarityField(graph, [1.0, 1.0])
        for weighted in (sim.graph, sim.half_weighted_graph()):
            assert weighted.indices is graph.indices
            assert weighted.indptr is graph.indptr
        np.testing.assert_array_equal(sim.graph.weights, sim.flat_values)
        np.testing.assert_array_equal(sim.half_weighted_graph().weights, [0.5, 0.5])
        assert graph.weights is None

    def test_operators_follow_their_own_weights(self):
        graph = NeighborGraph(3, [0, 2, 3, 4], [1, 2, 0, 0], [1.0, 2.0, 3.0, 4.0])
        x = np.array([1.0, 10.0, 100.0])
        # cache the operator before anything derives from the graph
        np.testing.assert_array_equal(graph.operator @ x, [210.0, 3.0, 4.0])
        reweighted = graph.with_weights(np.array([0.5, 0.5, 1.0, 1.0]))
        np.testing.assert_array_equal(reweighted.operator @ x, [55.0, 1.0, 1.0])
        first = SimilarityField(graph, [0.25, 0.75, 1.0, 1.0])
        second = SimilarityField(graph, [0.5, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(first.aggregate(x), [77.5, 1.0, 1.0])
        np.testing.assert_array_equal(second.aggregate(x), [55.0, 1.0, 1.0])
        np.testing.assert_array_equal(graph.operator @ x, [210.0, 3.0, 4.0])


# ``neighbors`` is (indptr, indices) on 3 nodes; ``weights`` is flat, one per edge
@pytest.mark.parametrize(
    "neighbors, weights, message",
    [
        (([0, 1, 2, 3], [1, 0, 2]), None, "node 2 lists itself"),
        (([0, 1, 2, 3], [1, 0, 3]), None, "node 2 has a neighbor index out of range"),
        (([0, 1, 2, 3], [1, -1, 0]), None, "node 1 has a neighbor index out of range"),
        (([0, 1, 2, 5], [1, 0, 0, 1, 0]), None, "node 2 lists a duplicate"),
        (([0, 1, 2, 3], [1, 0, 0]), [1.0, 1.0, -0.5], "node 2: edge weights must be finite"),
        (([0, 1, 2, 3], [1, 0, 0]), [1.0, np.nan, 1.0], "node 1: edge weights must be finite"),
        (([0, 1, 2, 3], [1, 0, 0]), [np.inf, 1.0, 1.0], "node 0: edge weights must be finite"),
    ],
)
def test_neighbor_graph_rejects_and_names_the_node(neighbors, weights, message):
    with pytest.raises(ValueError, match=message):
        NeighborGraph(3, *neighbors, weights)


def test_constructor_rejects_a_malformed_indptr():
    with pytest.raises(ValueError, match="indptr"):
        NeighborGraph(2, [0, 2, 1], [1, 0])
    with pytest.raises(ValueError, match="node 1 lists itself"):
        NeighborGraph(2, [0, 1, 2], [1, 1])


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.5, 0.5, 1.0, 0.7, 0.2], "node 2: similarities sum to"),
        ([1.5, -0.5, 1.0, 0.5, 0.5], "node 0: edge weights must be finite"),
        ([0.5, 0.5, np.nan, 0.5, 0.5], "node 1: edge weights must be finite"),
    ],
)
def test_similarity_field_rejects_and_names_the_node(values, message):
    graph = NeighborGraph(3, [0, 2, 3, 5], [1, 2, 0, 0, 1])
    with pytest.raises(ValueError, match=message):
        SimilarityField(graph, values)


@pytest.mark.parametrize(
    "values",
    [[[0.5, 0.5], [1.0], [0.5, 0.5]], [[1.0]] * 5, [0.2] * 5 + [0.0]],
    ids=["rows", "2-D", "mis-sized"],
)
def test_edge_arrays_must_be_flat_and_sized(values):
    graph = NeighborGraph(3, [0, 2, 3, 5], [1, 2, 0, 0, 1])
    with pytest.raises(ValueError, match="edge weights must be a flat array of 5 values"):
        graph.with_weights(values)
    with pytest.raises(ValueError, match="similarities must be a flat array of 5 values"):
        SimilarityField(graph, values)
