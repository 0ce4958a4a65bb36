"""Discrete label-refinement tests: kernels, steps, invariants, planted clusters."""

import math

import numpy as np
import pytest

from pointcrf import (
    KernelMixture,
    LabelCompatibility,
    LabelField,
    NeighborGraph,
    PointCloud,
    discrete_crf_infer,
    discrete_crf_step,
    kernel_weights,
    knn_graph,
    read_probabilities,
    write_probabilities,
)
from util import graph_from_lists, node_rows, random_simplex_rows, random_symmetric_graph


def mutual_pair_graph():
    return NeighborGraph(2, [0, 1, 2], [1, 0])


class TestKernelWeights:
    def test_identical_features_give_unit_weight(self):
        graph = mutual_pair_graph()
        features = np.array([[0.3, 0.7], [0.3, 0.7]])
        weights = kernel_weights(features, graph, KernelMixture.default(2))
        assert weights[0] == 1.0

    def test_unit_gap_gives_exp_minus_one(self):
        graph = mutual_pair_graph()
        features = np.array([[0.0], [1.0]])
        weights = kernel_weights(features, graph, KernelMixture.default(1))
        np.testing.assert_allclose(weights[0], math.exp(-1.0), atol=1e-15)

    def test_two_components_combine_convexly(self):
        graph = mutual_pair_graph()
        features = np.array([[1.0], [1.0]])
        mix = KernelMixture(
            projections=[np.eye(1), 2.0 * np.eye(1)], weights=[0.5, 0.5]
        )
        weights = kernel_weights(features, graph, mix)
        assert weights[0] == 1.0

    def test_negative_mixture_weight_warns(self):
        graph = mutual_pair_graph()
        features = np.array([[0.0], [1.0]])
        mix = KernelMixture(projections=[np.eye(1)], weights=[-1.0])
        with pytest.warns(UserWarning, match="negative"):
            kernel_weights(features, graph, mix)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel_weights(np.zeros((2, 3)), mutual_pair_graph(), KernelMixture.default(2))

    def test_mixture_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mix = KernelMixture(
            projections=[rng.normal(size=(3, 2)), rng.normal(size=(3, 1))],
            weights=rng.normal(size=2),
        )
        path = tmp_path / "kernel.txt"
        mix.save(path)
        back = KernelMixture.load(path)
        np.testing.assert_array_equal(back.weights, mix.weights)
        for a, b in zip(mix.projections, back.projections):
            np.testing.assert_array_equal(a, b)


class TestDiscreteStep:
    def test_zero_weights_return_unaries_exactly(self):
        field = LabelField.from_unary(random_simplex_rows(np.random.default_rng(1), 2, 3))
        graph = mutual_pair_graph()
        out = discrete_crf_step(
            field, graph, np.zeros(2), LabelCompatibility.identity(3)
        )
        np.testing.assert_array_equal(out.posterior, field.unary)

    def test_hand_softmax_update(self):
        field = LabelField.from_unary(np.array([[0.9, 0.1], [0.6, 0.4]]))
        out = discrete_crf_step(
            field,
            mutual_pair_graph(),
            np.array([1.0, 1.0]),
            LabelCompatibility.identity(2),
        )
        logits = np.log([0.9, 0.1]) - np.array([0.6, 0.4])
        expect = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(out.posterior[0], expect, atol=1e-12)
        np.testing.assert_allclose(out.posterior[0], [0.8805, 0.1195], atol=5e-5)

    def test_rank_one_shift_leaves_posterior_unchanged(self):
        rng = np.random.default_rng(2)
        n, labels = 8, 4
        graph = random_symmetric_graph(rng, n)
        weights = rng.uniform(0.2, 1.0, size=graph.num_edges)
        field = LabelField.from_unary(random_simplex_rows(rng, n, labels))
        base = LabelCompatibility(matrix=rng.normal(size=(labels, labels)))
        shifted = LabelCompatibility(
            matrix=base.matrix + 1.7 * np.ones((labels, labels))
        )
        a = discrete_crf_step(field, graph, weights, base)
        b = discrete_crf_step(field, graph, weights, shifted)
        assert np.max(np.abs(a.posterior - b.posterior)) <= 1e-12

    def test_simplex_preserved_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            labels = int(rng.integers(2, 6))
            graph = random_symmetric_graph(rng, n)
            weights = rng.uniform(0.0, 2.0, size=graph.num_edges)
            field = LabelField.from_unary(random_simplex_rows(rng, n, labels))
            out = discrete_crf_step(
                field, graph, weights, LabelCompatibility(rng.normal(size=(labels, labels)))
            )
            assert np.all(out.posterior >= 0)
            np.testing.assert_allclose(out.posterior.sum(axis=1), 1.0, atol=1e-9)

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        n, labels = 9, 3
        graph = random_symmetric_graph(rng, n)
        weights = rng.uniform(0.2, 1.0, size=graph.num_edges)
        unary = random_simplex_rows(rng, n, labels)
        compat = LabelCompatibility(rng.normal(size=(labels, labels)))
        base = discrete_crf_step(LabelField.from_unary(unary), graph, weights, compat)
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        rows, weight_rows = node_rows(graph), node_rows(graph, weights)
        pgraph = graph_from_lists(
            [inverse[rows[j]] for j in perm], [weight_rows[j] for j in perm]
        )
        permuted = discrete_crf_step(
            LabelField.from_unary(unary[perm]), pgraph, pgraph.weights, compat
        )
        np.testing.assert_allclose(permuted.posterior, base.posterior[perm], atol=1e-12)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n, labels = 7, 4
        graph = random_symmetric_graph(rng, n)
        weights = rng.uniform(0.2, 1.0, size=graph.num_edges)
        unary = random_simplex_rows(rng, n, labels)
        matrix = rng.normal(size=(labels, labels))
        sigma = rng.permutation(labels)
        base = discrete_crf_step(
            LabelField.from_unary(unary), graph, weights, LabelCompatibility(matrix)
        )
        relabeled = discrete_crf_step(
            LabelField.from_unary(unary[:, sigma]),
            graph,
            weights,
            LabelCompatibility(matrix[np.ix_(sigma, sigma)]),
        )
        np.testing.assert_allclose(relabeled.posterior, base.posterior[:, sigma], atol=1e-12)


class TestDiscreteInfer:
    def test_empty_graph_returns_unaries(self):
        rng = np.random.default_rng(6)
        unary = random_simplex_rows(rng, 5, 3)
        graph = NeighborGraph(5, [0] * 6, [])
        out = discrete_crf_infer(
            unary,
            rng.normal(size=(5, 2)),
            graph,
            KernelMixture.default(2),
            LabelCompatibility.identity(3),
            steps=7,
        )
        np.testing.assert_array_equal(out.posterior, unary)

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(7)
        unary = random_simplex_rows(rng, 12, 4)
        graph = random_symmetric_graph(rng, 12)
        out = discrete_crf_infer(
            unary,
            rng.normal(size=(12, 3)),
            graph,
            KernelMixture.default(3),
            LabelCompatibility.potts_complement(4),
            steps=4,
        )
        assert np.all(out.posterior >= 0)
        np.testing.assert_allclose(out.posterior.sum(axis=1), 1.0, atol=1e-9)

    def test_planted_two_cluster_boundary_flips(self):
        """Noisy points near a cluster boundary flip toward their neighborhood
        majority, and each flip agrees with a brute-force single-node update."""
        rng = np.random.default_rng(8)
        left = rng.normal(scale=0.3, size=(20, 3)) + np.array([0.0, 0.0, 0.0])
        right = rng.normal(scale=0.3, size=(20, 3)) + np.array([6.0, 0.0, 0.0])
        cloud = PointCloud(
            positions=np.vstack([left, right]), features=np.zeros((40, 0))
        )
        truth = np.array([0] * 20 + [1] * 20)
        unary = np.where(truth[:, None] == np.arange(2)[None, :], 0.9, 0.1)
        noisy = [3, 27]
        for i in noisy:
            unary[i] = [0.45, 0.55] if truth[i] == 0 else [0.55, 0.45]
        graph = knn_graph(cloud, 5)
        compat = LabelCompatibility.potts_complement(2)
        mix = KernelMixture(projections=[0.2 * np.eye(3)], weights=[1.0])
        weights = node_rows(graph, kernel_weights(cloud.positions, graph, mix))
        out = discrete_crf_infer(
            unary, cloud.positions, graph, mix, compat, steps=5
        )
        refined = np.argmax(out.posterior, axis=1)
        for i in noisy:
            assert np.argmax(unary[i]) != truth[i]
            assert refined[i] == truth[i]
            # brute-force single-node conditional update from the unaries
            message = sum(
                w * unary[j] for j, w in zip(node_rows(graph)[i], weights[i])
            )
            logits = np.log(np.maximum(unary[i], 1e-12)) - compat.matrix @ message
            assert int(np.argmax(logits)) == truth[i]


class TestProbabilityCSV:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        table = random_simplex_rows(rng, 6, 3)
        path = tmp_path / "p.csv"
        write_probabilities(path, table)
        np.testing.assert_array_equal(read_probabilities(path), table)

    def test_bad_row_sum_names_the_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5,0.5\n0.9,0.3\n")
        with pytest.raises(ValueError, match="row 2"):
            read_probabilities(path)

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1.2,-0.2\n")
        with pytest.raises(ValueError, match="negative"):
            read_probabilities(path)
