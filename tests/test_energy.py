"""Quadratic energy model: evaluation, exact solve, Dirichlet energy."""

import tracemalloc

import numpy as np
import pytest

import pointcrf.energy as energy_mod
from pointcrf import (
    CompatibilityMatrix,
    NeighborGraph,
    PointCloud,
    QuadraticEnergyModel,
    dirichlet_energy,
    evaluate_energy,
    knn_graph,
    solve_exact,
)
from util import (
    graph_from_lists,
    node_rows,
    random_pd_compat,
    random_symmetric_graph,
    reference_solve,
    symmetric_stochastic_field,
)


def two_node_model(similarity, observed=((0.0,), (2.0,)), mutual=True):
    if mutual:
        graph = NeighborGraph(2, [0, 1, 2], [1, 0], [similarity, similarity])
    else:
        graph = NeighborGraph(2, [0, 1, 1], [1], [similarity])
    return QuadraticEnergyModel(
        graph=graph,
        compat=CompatibilityMatrix.identity(1),
        observed=np.array(observed),
    )


def random_model(rng, n, d, scale=0.5):
    graph = random_symmetric_graph(rng, n)
    return QuadraticEnergyModel(
        graph=graph.with_weights(rng.uniform(0.0, 1.0, size=graph.num_edges)),
        compat=random_pd_compat(rng, d, scale=scale),
        observed=rng.normal(size=(n, d)),
    )


class TestCompatibilityMatrix:
    def test_realized_matrix_is_spd_for_random_factors(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            d = int(rng.integers(1, 17))
            eps = float(rng.uniform(1e-6, 1e-2))
            compat = CompatibilityMatrix(factor=rng.normal(size=(d, d)), epsilon=eps)
            asym = np.max(np.abs(compat.matrix - compat.matrix.T))
            assert asym <= 1e-12
            assert np.min(np.linalg.eigvalsh(compat.matrix)) >= eps - 1e-12

    def test_identity_option_is_exact(self):
        compat = CompatibilityMatrix.identity(4)
        np.testing.assert_array_equal(compat.matrix, np.eye(4))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            CompatibilityMatrix(factor=np.eye(2), epsilon=-1e-3)


class TestEvaluateEnergy:
    def test_zero_when_latent_matches_and_edges_are_silent(self):
        model = two_node_model(0.0)
        assert evaluate_energy(model, model.observed) == 0.0

    def test_hand_value_with_mutual_edges(self):
        model = two_node_model(1.0)
        # fidelity 0, each directed edge contributes (0-2)^2 = 4
        assert evaluate_energy(model, model.observed) == 8.0

    def test_shape_mismatch_rejected(self):
        model = two_node_model(1.0)
        with pytest.raises(ValueError):
            evaluate_energy(model, np.zeros((3, 1)))

    def test_minimizer_beats_observed_start(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 20)), int(rng.integers(1, 4)))
            best = solve_exact(model)
            assert evaluate_energy(model, best) <= evaluate_energy(model, model.observed) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 12, 3)
        latent = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        inverse = np.argsort(perm)
        rows, weights = node_rows(model.graph), node_rows(model.graph, model.graph.weights)
        permuted_graph = graph_from_lists(
            [inverse[rows[j]] for j in perm], [weights[j] for j in perm]
        )
        permuted = QuadraticEnergyModel(
            graph=permuted_graph, compat=model.compat, observed=model.observed[perm]
        )
        a = evaluate_energy(model, latent)
        b = evaluate_energy(permuted, latent[perm])
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestSolveExact:
    def test_silent_edges_return_observed(self):
        model = two_node_model(0.0)
        np.testing.assert_allclose(solve_exact(model), model.observed, atol=1e-14)

    def test_two_by_two_hand_solve(self):
        # single directed edge with weight 1 assembles [[2,-1],[-1,2]] x = [0,2]
        model = two_node_model(1.0, mutual=False)
        np.testing.assert_allclose(
            solve_exact(model).ravel(), [2.0 / 3.0, 4.0 / 3.0], atol=1e-12
        )

    def test_gradient_vanishes_at_minimizer(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 8, 2)
        best = solve_exact(model)
        step = 1e-6
        grad = np.zeros_like(best)
        for i in range(8):
            for j in range(2):
                plus = best.copy()
                minus = best.copy()
                plus[i, j] += step
                minus[i, j] -= step
                grad[i, j] = (
                    evaluate_energy(model, plus) - evaluate_energy(model, minus)
                ) / (2 * step)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_random_perturbations_never_do_better(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 10, 3)
        best = solve_exact(model)
        floor = evaluate_energy(model, best)
        for _ in range(100):
            delta = rng.normal(scale=rng.uniform(1e-4, 1.0), size=best.shape)
            assert evaluate_energy(model, best + delta) >= floor - 1e-9

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 25)), int(rng.integers(1, 5)))
            best = solve_exact(model)
            system = energy_mod._system_operator(model)
            resid = np.max(np.abs(system @ best.ravel() - model.observed.ravel()))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(model.observed)))

    def test_iterative_path_matches_dense(self):
        rng = np.random.default_rng(10)
        models = [random_model(rng, int(rng.integers(2, 40)), int(rng.integers(1, 5)))
                  for _ in range(10)]
        ill = random_model(np.random.default_rng(17), 20, 3, scale=10.0)  # cond 7.9e3
        assert np.linalg.cond(energy_mod._system_operator(ill).toarray()) > 5e3
        for model in models + [ill]:
            np.testing.assert_allclose(
                solve_exact(model), reference_solve(model), rtol=1e-12, atol=1e-12
            )

    def test_solve_memory_grows_with_edges(self):
        """A 4096-unknown solve stays sparse (a dense copy alone is 134 MB)."""
        rng = np.random.default_rng(1024)
        n, d = 1024, 4
        cloud = PointCloud(positions=rng.uniform(size=(n, 3)), features=np.zeros((n, 1)))
        model = QuadraticEnergyModel(
            graph=knn_graph(cloud, 8).with_weights(rng.uniform(size=n * 8)),
            compat=random_pd_compat(rng, d),
            observed=rng.normal(size=(n, d)),
        )
        tracemalloc.start()
        try:
            solve_exact(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestDirichletEnergy:
    def test_constant_signal_is_flat(self):
        rng = np.random.default_rng(11)
        sim = symmetric_stochastic_field(rng, 15)
        graph = sim.graph
        value = dirichlet_energy(graph, np.full(15, 3.7))
        assert abs(value) <= 1e-12

    def test_two_node_hand_value(self):
        graph = NeighborGraph(2, [0, 1, 2], [1, 0], [1.0, 1.0])
        assert dirichlet_energy(graph, np.array([0.0, 2.0])) == 4.0

    def test_isolated_node_contributes_its_square(self):
        graph = NeighborGraph(2, [0, 0, 0], [], [])
        assert dirichlet_energy(graph, np.array([3.0, 1.0])) == 10.0

    def test_nonnegative_on_symmetric_normalized_scan(self):
        rng = np.random.default_rng(12)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            sim = symmetric_stochastic_field(rng, n)
            graph = sim.graph
            if dirichlet_energy(graph, rng.normal(size=n)) < -1e-12:
                violations += 1
        assert violations == 0
