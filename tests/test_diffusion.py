"""Diffusion baseline tests and the comparison against anchored message passing."""

import numpy as np
import pytest

from pointcrf import (
    ConvergenceError,
    NeighborGraph,
    SimilarityField,
    compare_crf_vs_diffusion,
    diffuse_to_steady,
    diffusion_step,
    multichannel_dirichlet,
)
from util import symmetric_stochastic_field


def two_node_graph():
    return NeighborGraph(2, [0, 1, 2], [1, 0], [1.0, 1.0])


class TestDiffusionStep:
    def test_constant_signal_unchanged(self):
        rng = np.random.default_rng(0)
        sim = symmetric_stochastic_field(rng, 10)
        h = np.full((10, 2), 1.25)
        out = diffusion_step(h, sim.graph, 0.5)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_two_node_half_rate_midpoint(self):
        out = diffusion_step(np.array([[0.0], [2.0]]), two_node_graph(), 0.5)
        np.testing.assert_allclose(out.ravel(), [1.0, 1.0], atol=1e-15)

    def test_zero_coefficient_is_identity(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 3))
        sim = symmetric_stochastic_field(rng, 6)
        np.testing.assert_array_equal(diffusion_step(h, sim.graph, 0.0), h)

    def test_isolated_nodes_never_move(self):
        graph = NeighborGraph(3, [0, 1, 2, 2], [1, 0], [1.0, 1.0])
        h = np.array([[0.0], [2.0], [5.0]])
        out = diffusion_step(h, graph, 0.5)
        assert out[2, 0] == 5.0

    def test_max_principle(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 15))
            sim = symmetric_stochastic_field(rng, n)
            graph = sim.graph
            h = rng.normal(size=(n, 1))
            lo, hi = h.min(), h.max()
            c = float(rng.uniform(0.05, 1.0))
            for _ in range(20):
                h = diffusion_step(h, graph, c)
                assert h.min() >= lo - 1e-12 and h.max() <= hi + 1e-12

    def test_mean_preserved_on_doubly_stochastic_weights(self):
        rng = np.random.default_rng(3)
        sim = symmetric_stochastic_field(rng, 12)
        graph = sim.graph
        h = rng.normal(size=(12, 2))
        total = h.sum(axis=0)
        for _ in range(25):
            h = diffusion_step(h, graph, 0.5)
        np.testing.assert_allclose(h.sum(axis=0), total, atol=1e-9)


class TestDiffuseToSteady:
    def test_constant_input_needs_zero_steps(self):
        rng = np.random.default_rng(4)
        sim = symmetric_stochastic_field(rng, 8)
        h = np.full((8, 1), 2.0)
        out, steps = diffuse_to_steady(h, sim.graph, 0.5, tol=1e-10)
        assert steps == 0
        np.testing.assert_array_equal(out, h)

    def test_two_node_reaches_the_average(self):
        out, steps = diffuse_to_steady(
            np.array([[0.0], [2.0]]), two_node_graph(), 0.5, tol=1e-12
        )
        np.testing.assert_allclose(out.ravel(), [1.0, 1.0], atol=1e-12)
        assert steps >= 1

    def test_steady_state_kills_the_laplacian(self):
        rng = np.random.default_rng(5)
        sim = symmetric_stochastic_field(rng, 10)
        graph = sim.graph
        h = rng.normal(size=(10, 1))
        out, _ = diffuse_to_steady(h, graph, 0.5, tol=1e-12, max_steps=20000)
        after = diffusion_step(out, graph, 0.5)
        assert np.max(np.abs(after - out)) <= 1e-11

    def test_dirichlet_energy_never_increases(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            sim = symmetric_stochastic_field(rng, n)
            graph = sim.graph
            h = rng.normal(size=(n, 1))
            before = multichannel_dirichlet(graph, h)
            h2 = diffusion_step(h, graph, 0.5)
            after = multichannel_dirichlet(graph, h2)
            assert after <= before + 1e-10

    def test_oscillation_raises_with_residual(self):
        # c = 1 on a mutual pair swaps the two values forever
        with pytest.raises(ConvergenceError) as info:
            diffuse_to_steady(
                np.array([[0.0], [2.0]]), two_node_graph(), 1.0, tol=1e-10, max_steps=50
            )
        assert info.value.residual > 0
        assert info.value.steps == 50


class TestCompareReport:
    def test_first_steps_coincide(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 30))
            sim = symmetric_stochastic_field(rng, n)
            observed = rng.normal(size=(n, 2))
            report = compare_crf_vs_diffusion(observed, sim, steps=3)
            assert report.step_one_max_difference <= 1e-12
            assert len(report.rows) == 3

    def test_two_node_limits_differ(self):
        sim = SimilarityField(NeighborGraph(2, [0, 1, 2], [1, 0]), [1.0, 1.0])
        observed = np.array([[0.0], [2.0]])
        report = compare_crf_vs_diffusion(observed, sim, steps=120)
        last = report.rows[-1]
        # diffusion collapses to the average [1, 1]; the anchored process
        # settles at [2/3, 4/3], strictly closer to the observations
        np.testing.assert_allclose(
            last.diffusion_fidelity, np.sqrt(2.0), atol=1e-8
        )
        np.testing.assert_allclose(
            last.crf_fidelity, np.sqrt((2.0 / 3.0) ** 2 * 2), atol=1e-8
        )
        assert last.crf_fidelity < last.diffusion_fidelity

    def test_constant_observations_keep_both_processes_still(self):
        rng = np.random.default_rng(8)
        sim = symmetric_stochastic_field(rng, 9)
        observed = np.full((9, 2), -0.75)
        report = compare_crf_vs_diffusion(observed, sim, steps=5)
        for row in report.rows:
            assert row.crf_fidelity <= 1e-10
            assert row.diffusion_fidelity <= 1e-10
