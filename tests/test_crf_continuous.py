"""Message-passing layer tests: similarity, steps, convergence, covariance.

Convergence and monotonicity checks run on symmetric row-stochastic fields:
there the per-node update is exact coordinate descent of the halved-weight
energy, so the iteration provably shares its fixed point with the closed-form
solve and gauss-seidel traces must not increase.
"""

import math

import numpy as np
import pytest

from pointcrf import (
    Activation,
    CompatibilityMatrix,
    ContinuousCrfState,
    CrfConfig,
    NeighborGraph,
    PointCloud,
    PointwiseTransform,
    SimilarityField,
    balance_similarity,
    coordinate_descent_step,
    crf_convolve,
    crf_step,
    decode_level,
    knn_interpolate,
    mean_field_covariance,
    mean_field_mean_step,
    pairwise_similarity,
    run_crf,
    similarity_energy_model,
    solve_exact,
)
from util import (
    graph_from_lists,
    node_rows,
    random_cloud,
    random_pd_compat,
    random_symmetric_graph,
    symmetric_stochastic_field,
)

IDENTITY_READOUT = Activation()


def two_node_setup():
    sim = SimilarityField(NeighborGraph(2, [0, 1, 2], [1, 0]), [1.0, 1.0])
    observed = np.array([[0.0], [2.0]])
    return sim, observed


def config(compat, steps=1, schedule="jacobi", tol=0.0):
    return CrfConfig(
        compat=compat,
        steps=steps,
        schedule=schedule,
        convergence_tol=tol,
        readout=IDENTITY_READOUT,
    )


# ---------------------------------------------------------------------------
# Normalized similarity
# ---------------------------------------------------------------------------

class TestPairwiseSimilarity:
    def test_equal_distances_share_mass(self):
        features = np.array([[0.0], [1.0], [-1.0], [1.0], [-1.0]])
        graph = NeighborGraph(5, [0, 4, 4, 4, 4, 4], [1, 2, 3, 4])
        sim = pairwise_similarity(features, graph, PointwiseTransform.identity())
        np.testing.assert_allclose(sim.flat_values, 0.25)

    def test_hand_softmax(self):
        features = np.array([[0.0], [0.0], [math.sqrt(math.log(2.0))]])
        graph = NeighborGraph(3, [0, 2, 2, 2], [1, 2])
        sim = pairwise_similarity(features, graph, PointwiseTransform.identity())
        np.testing.assert_allclose(sim.flat_values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_identity_projection_is_plain_euclidean(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(6, 4))
        graph = random_symmetric_graph(rng, 6)
        sim = pairwise_similarity(features, graph, PointwiseTransform.identity())
        values = node_rows(graph, sim.flat_values)
        for i, nbrs in enumerate(node_rows(graph)):
            d2 = ((features[nbrs] - features[i]) ** 2).sum(axis=1)
            raw = np.exp(-(d2 - d2.min()))
            np.testing.assert_allclose(values[i], raw / raw.sum(), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 20, d=3)
        graph = random_symmetric_graph(rng, 20)
        sim = pairwise_similarity(cloud.features, graph, PointwiseTransform.identity())
        for vals in node_rows(graph, sim.flat_values):
            if vals.size:
                assert abs(vals.sum() - 1.0) <= 1e-12
                assert np.all(vals >= 0)

    def test_large_distances_stay_stable(self):
        features = np.array([[0.0], [200.0], [-200.0]])
        graph = NeighborGraph(3, [0, 2, 2, 2], [1, 2])
        sim = pairwise_similarity(features, graph, PointwiseTransform.identity())
        assert np.all(np.isfinite(sim.flat_values))
        np.testing.assert_allclose(sim.flat_values.sum(), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        graph = NeighborGraph(2, [0, 1, 2], [1, 0])
        projection = PointwiseTransform.linear(np.eye(3))
        with pytest.raises(ValueError):
            pairwise_similarity(np.zeros((2, 2)), graph, projection)


class TestBalanceSimilarity:
    def test_balanced_field_is_symmetric_and_stochastic(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 25, d=2)
        from pointcrf import knn_graph

        sim = pairwise_similarity(
            cloud.features, knn_graph(cloud, 4), PointwiseTransform.identity()
        )
        balanced = balance_similarity(sim)
        assert balanced.max_asymmetry() <= 1e-12
        for vals in node_rows(balanced.graph, balanced.flat_values):
            if vals.size:
                assert abs(vals.sum() - 1.0) <= 1e-9

    def test_unscalable_support_warns_but_stays_stochastic(self):
        # a star admits no doubly stochastic scaling: the hub row must sum to
        # one while every leaf needs its single edge at weight one
        graph = NeighborGraph(4, [0, 3, 4, 5, 6], [1, 2, 3, 0, 0, 0])
        sim = SimilarityField(graph, [1 / 3, 1 / 3, 1 / 3, 1.0, 1.0, 1.0])
        with pytest.warns(UserWarning, match="stalled"):
            balanced = balance_similarity(sim, max_iterations=200)
        for vals in node_rows(balanced.graph, balanced.flat_values):
            if vals.size:
                assert abs(vals.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Step and run semantics
# ---------------------------------------------------------------------------

class TestCrfStep:
    def test_two_node_jacobi_midpoint(self):
        sim, observed = two_node_setup()
        cfg = config(CompatibilityMatrix.identity(1))
        state = crf_step(ContinuousCrfState.from_observed(observed), sim, cfg)
        np.testing.assert_allclose(state.latent.ravel(), [1.0, 1.0], atol=1e-15)
        assert state.steps_done == 1

    def test_empty_graph_halves_toward_anchor(self):
        sim = SimilarityField(NeighborGraph(3, [0, 0, 0, 0], []), [])
        observed = np.array([[2.0], [-4.0], [6.0]])
        cfg = config(CompatibilityMatrix.identity(1))
        state = crf_step(ContinuousCrfState.from_observed(observed), sim, cfg)
        np.testing.assert_allclose(state.latent, observed / 2.0, atol=1e-15)

    def test_fixed_point_matches_exact_solve(self):
        sim, observed = two_node_setup()
        compat = CompatibilityMatrix.identity(1)
        cfg = config(compat, steps=200, tol=1e-14)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        np.testing.assert_allclose(state.latent.ravel(), [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)
        exact = solve_exact(similarity_energy_model(sim, compat, observed))
        np.testing.assert_allclose(state.latent, exact, atol=1e-12)

    def test_jacobi_reads_previous_state_gauss_seidel_reads_updates(self):
        sim, observed = two_node_setup()
        compat = CompatibilityMatrix.identity(1)
        jacobi = crf_step(
            ContinuousCrfState.from_observed(observed), sim, config(compat)
        )
        gs = crf_step(
            ContinuousCrfState.from_observed(observed),
            sim,
            config(compat, schedule="gauss-seidel"),
        )
        np.testing.assert_allclose(jacobi.latent.ravel(), [1.0, 1.0])
        # node 0 -> (0 + 2)/2 = 1; node 1 then reads the fresh value: (2 + 1)/2
        np.testing.assert_allclose(gs.latent.ravel(), [1.0, 1.5])

    def test_schedules_share_the_fixed_point(self):
        rng = np.random.default_rng(3)
        sim = symmetric_stochastic_field(rng, 12)
        compat = random_pd_compat(rng, 3)
        observed = rng.normal(size=(12, 3))
        results = []
        for schedule in ("jacobi", "gauss-seidel"):
            cfg = config(compat, steps=4000, schedule=schedule, tol=1e-13)
            state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
            results.append(state.latent)
        np.testing.assert_allclose(results[0], results[1], atol=1e-9)


class TestRunSemantics:
    def test_infinite_tolerance_applies_no_steps(self):
        sim, observed = two_node_setup()
        cfg = config(CompatibilityMatrix.identity(1), steps=5, tol=math.inf)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        assert state.steps_done == 0
        np.testing.assert_array_equal(state.latent, observed)

    def test_early_stop_reports_fewer_steps(self):
        sim, observed = two_node_setup()
        cfg = config(CompatibilityMatrix.identity(1), steps=500, tol=1e-10)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        assert 0 < state.steps_done < 500

    def test_zero_tolerance_runs_every_step(self):
        sim, observed = two_node_setup()
        cfg = config(CompatibilityMatrix.identity(1), steps=7, tol=0.0)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        assert state.steps_done == 7
        assert len(state.energy_trace) == 8  # initial energy plus one per step


class TestEnergyTrace:
    def test_gauss_seidel_trace_never_increases(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(1, 4))
            sim = symmetric_stochastic_field(rng, n)
            cfg = config(random_pd_compat(rng, d), steps=25, schedule="gauss-seidel")
            state = run_crf(
                ContinuousCrfState.from_observed(rng.normal(size=(n, d))), sim, cfg
            )
            trace = np.array(state.energy_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_jacobi_converges_to_oracle_energy(self):
        rng = np.random.default_rng(5)
        sim = symmetric_stochastic_field(rng, 10)
        compat = random_pd_compat(rng, 2)
        observed = rng.normal(size=(10, 2))
        cfg = config(compat, steps=5000, tol=1e-13)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        model = similarity_energy_model(sim, compat, observed)
        exact = solve_exact(model)
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(state.latent - exact)) / scale <= 1e-8


# ---------------------------------------------------------------------------
# Full layer
# ---------------------------------------------------------------------------

class TestCrfConvolve:
    def test_composed_two_node_layer(self):
        graph = NeighborGraph(2, [0, 1, 2], [1, 0])
        observed = np.array([[0.0], [2.0]])
        cfg = CrfConfig(
            compat=CompatibilityMatrix.identity(1),
            steps=200,
            convergence_tol=1e-14,
            readout=Activation.leaky_relu(0.1),
        )
        out = crf_convolve(
            observed,
            graph,
            PointwiseTransform.identity(),
            PointwiseTransform.identity(),
            observed,
            cfg,
        )
        expect = Activation.leaky_relu(0.1).apply(np.array([[2.0 / 3.0], [4.0 / 3.0]]))
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_infinite_tolerance_returns_activated_unary(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 8, d=2)
        graph = random_symmetric_graph(rng, 8)
        cfg = CrfConfig(
            compat=CompatibilityMatrix.identity(2),
            steps=10,
            convergence_tol=math.inf,
            readout=Activation.leaky_relu(0.1),
        )
        out, state = crf_convolve(
            cloud.features,
            graph,
            PointwiseTransform.identity(),
            PointwiseTransform.identity(),
            cloud.features,
            cfg,
            return_state=True,
        )
        assert state.steps_done == 0
        np.testing.assert_array_equal(out, Activation.leaky_relu(0.1).apply(cloud.features))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        n, d = 14, 3
        cloud = random_cloud(rng, n, d=d)
        graph = random_symmetric_graph(rng, n)
        compat = random_pd_compat(rng, d)
        cfg = CrfConfig(compat=compat, steps=6, readout=Activation.leaky_relu(0.1))
        base = crf_convolve(
            cloud.features,
            graph,
            PointwiseTransform.identity(),
            PointwiseTransform.identity(),
            cloud.features,
            cfg,
        )
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        rows = node_rows(graph)
        permuted_graph = graph_from_lists([inverse[rows[j]] for j in perm])
        permuted = crf_convolve(
            cloud.features[perm],
            permuted_graph,
            PointwiseTransform.identity(),
            PointwiseTransform.identity(),
            cloud.features[perm],
            cfg,
        )
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_messages_are_convex_combinations(self):
        rng = np.random.default_rng(8)
        n = 15
        sim = symmetric_stochastic_field(rng, n)
        latent = rng.normal(size=(n, 2))
        message = sim.aggregate(latent)
        for j in range(2):
            assert np.max(np.abs(message[:, j])) <= np.max(np.abs(latent[:, j])) + 1e-12

    def test_constant_anchor_is_a_fixed_point(self):
        rng = np.random.default_rng(9)
        n, d = 12, 2
        sim = symmetric_stochastic_field(rng, n)
        compat = random_pd_compat(rng, d)
        observed = np.tile(rng.normal(size=(1, d)), (n, 1))
        cfg = config(compat, steps=50)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        np.testing.assert_allclose(state.latent, observed, atol=1e-12)

    def test_nonconstant_anchor_never_reaches_consensus(self):
        rng = np.random.default_rng(10)
        n = 10
        sim = symmetric_stochastic_field(rng, n)
        observed = rng.normal(size=(n, 1))
        cfg = config(CompatibilityMatrix.identity(1), steps=3000, tol=1e-13)
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        consensus_gap = np.max(np.abs(state.latent - sim.aggregate(state.latent)))
        assert consensus_gap > 1e-6


# ---------------------------------------------------------------------------
# Mean-field pieces
# ---------------------------------------------------------------------------

class TestMeanFieldCovariance:
    def test_isolated_node_is_half_identity(self):
        sim = SimilarityField(NeighborGraph(1, [0, 0], []), [])
        cov = mean_field_covariance(sim, CompatibilityMatrix.identity(3))
        np.testing.assert_array_equal(cov[0], 0.5 * np.eye(3))

    def test_identity_coupling_gives_quarter_identity(self):
        sim, _ = two_node_setup()
        cov = mean_field_covariance(sim, CompatibilityMatrix.identity(1))
        np.testing.assert_array_equal(cov[0], np.array([[0.25]]))

    def test_always_symmetric_positive_definite(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 5))
            if n > 1:
                sim = symmetric_stochastic_field(rng, n)
            else:
                sim = SimilarityField(NeighborGraph(1, [0, 0], []), [])
            cov = mean_field_covariance(sim, random_pd_compat(rng, d))
            np.testing.assert_allclose(cov, np.swapaxes(cov, 1, 2), atol=1e-12)
            assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestUpdateEquivalence:
    """The two independently coded update routes must produce equal iterates."""

    def run_iterates(self, rng, normalized):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        if normalized:
            field = symmetric_stochastic_field(rng, n)
            graph, sims = field.graph, field.flat_values
        else:
            graph = random_symmetric_graph(rng, n)
            sims = rng.uniform(0.1, 2.0, size=graph.num_edges)
        compat = random_pd_compat(rng, d)
        observed = rng.normal(size=(n, d))
        a = observed.copy()
        b = observed.copy()
        worst = 0.0
        for _ in range(25):
            a = coordinate_descent_step(observed, a, graph, sims, compat)
            b = mean_field_mean_step(observed, b, graph, sims, compat)
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst

    def test_unnormalized_form(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            assert self.run_iterates(rng, normalized=False) <= 1e-12

    def test_normalized_form(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            assert self.run_iterates(rng, normalized=True) <= 1e-12

    def test_normalized_update_equals_production_step(self):
        rng = np.random.default_rng(14)
        n, d = 9, 2
        sim = symmetric_stochastic_field(rng, n)
        compat = random_pd_compat(rng, d)
        observed = rng.normal(size=(n, d))
        latent = rng.normal(size=(n, d))
        general = coordinate_descent_step(observed, latent, sim.graph, sim.flat_values, compat)
        state = ContinuousCrfState(observed=observed, latent=latent)
        stepped = crf_step(state, sim, config(compat))
        np.testing.assert_allclose(general, stepped.latent, atol=1e-11)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

class TestDecodeLevel:
    def test_degenerate_upsample_concatenates_guide(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 6, d=2)
        cfg = CrfConfig(
            compat=CompatibilityMatrix.identity(2),
            steps=4,
            convergence_tol=math.inf,
            readout=Activation.leaky_relu(0.1),
        )
        out = decode_level(
            cloud, cloud, 3, PointwiseTransform.identity(), PointwiseTransform.identity(), cfg
        )
        expect = np.hstack(
            [Activation.leaky_relu(0.1).apply(cloud.features), cloud.features]
        )
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_single_coarse_point_spreads_one_unary(self):
        rng = np.random.default_rng(16)
        coarse = PointCloud(
            positions=np.zeros((1, 3)), features=np.array([[1.5, -0.5]])
        )
        fine = random_cloud(rng, 7, d=2)
        upsampled = knn_interpolate(coarse, fine.positions, k=3)
        np.testing.assert_allclose(upsampled, np.tile([[1.5, -0.5]], (7, 1)), atol=1e-12)

    def test_output_width_is_compat_plus_guide(self):
        rng = np.random.default_rng(17)
        coarse = random_cloud(rng, 5, d=3)
        fine = random_cloud(rng, 11, d=2)
        unary = PointwiseTransform.linear(rng.normal(size=(4, 3)))
        cfg = CrfConfig(compat=CompatibilityMatrix.identity(4), steps=2)
        out = decode_level(coarse, fine, 3, unary, PointwiseTransform.identity(), cfg)
        assert out.shape == (11, 4 + 2)
