"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (a ``[PASS]`` line is also printed when a criterion succeeds, shown
with ``-s``).

Continuous-CRF criteria use symmetric row-stochastic similarity fields: on
those the per-node update is exact coordinate descent of the halved-weight
energy, which is what makes closed-form equivalence and monotonicity exact
statements rather than approximations.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from pointcrf import (
    Activation,
    CompatibilityMatrix,
    ContinuousCrfState,
    CrfConfig,
    LabelCompatibility,
    LabelField,
    NeighborGraph,
    PointCloud,
    SimilarityField,
    coordinate_descent_step,
    crf_gradients,
    crf_step,
    diffusion_step,
    dilated_knn_graph,
    discrete_crf_step,
    farthest_point_sample,
    knn_graph,
    mean_field_covariance,
    mean_field_mean_step,
    pairwise_similarity,
    radius_graph,
    run_crf,
    similarity_energy_model,
    solve_exact,
    write_cloud,
    write_probabilities,
)
from pointcrf.cli import main as cli_main
from pointcrf.cloud import sample_count
from pointcrf.transform import PointwiseTransform
from test_crf_gradients import build_instance, central_difference, scalar_objective
from util import (
    node_rows,
    planted_cluster_cloud,
    random_cloud,
    random_pd_compat,
    random_simplex_rows,
    random_symmetric_graph,
    symmetric_stochastic_field,
)

IDENTITY = Activation()


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


# ---------------------------------------------------------------------------
# 1. Closed-form vs iterated message passing
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        sim = symmetric_stochastic_field(rng, n)
        compat = random_pd_compat(rng, d)
        observed = rng.normal(size=(n, d))
        cfg = CrfConfig(
            compat=compat, steps=20000, schedule="jacobi",
            convergence_tol=1e-12, readout=IDENTITY,
        )
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        exact = solve_exact(similarity_energy_model(sim, compat, observed))
        rel = np.max(np.abs(state.latent - exact)) / (1.0 + np.max(np.abs(exact)))
        worst = max(worst, float(rel))
        assert rel <= 1e-8, f"relative error {rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"50 instances match the exact solve (worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Mean-field update equals coordinate descent, iterate for iterate
# ---------------------------------------------------------------------------

def test_criterion_2_update_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 9))
        if case % 2 == 0:
            graph = random_symmetric_graph(rng, n)
            sims = rng.uniform(0.1, 2.0, size=graph.num_edges)
        else:
            field = symmetric_stochastic_field(rng, n)
            graph, sims = field.graph, field.flat_values
        compat = random_pd_compat(rng, d)
        observed = rng.normal(size=(n, d))
        a = observed.copy()
        b = observed.copy()
        for _ in range(25):
            a = coordinate_descent_step(observed, a, graph, sims, compat)
            b = mean_field_mean_step(observed, b, graph, sims, compat)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12, f"iterate gap {worst:.3e}"
    report(2, f"20 instances, 25 steps, both routes agree (worst gap {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. Gauss-seidel energy traces never increase
# ---------------------------------------------------------------------------

def test_criterion_3_energy_monotonicity():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 5))
        sim = symmetric_stochastic_field(rng, n)
        cfg = CrfConfig(
            compat=random_pd_compat(rng, d), steps=25,
            schedule="gauss-seidel", readout=IDENTITY,
        )
        state = run_crf(
            ContinuousCrfState.from_observed(rng.normal(size=(n, d))), sim, cfg
        )
        increases = np.diff(np.array(state.energy_trace))
        worst = max(worst, float(increases.max(initial=-np.inf)))
        assert np.all(increases <= 1e-10)
    report(3, f"50 gauss-seidel traces non-increasing (worst step delta {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. Posterior covariance formula
# ---------------------------------------------------------------------------

def test_criterion_4_covariance_formula():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 6))
        sim = symmetric_stochastic_field(rng, n)
        cov = mean_field_covariance(sim, random_pd_compat(rng, d))
        np.testing.assert_allclose(cov, np.swapaxes(cov, 1, 2), atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    isolated = SimilarityField(NeighborGraph(1, [0, 0], []), [])
    np.testing.assert_array_equal(
        mean_field_covariance(isolated, CompatibilityMatrix.identity(3))[0],
        0.5 * np.eye(3),
    )
    pair = SimilarityField(NeighborGraph(2, [0, 1, 2], [1, 0]), [1.0, 1.0])
    np.testing.assert_array_equal(
        mean_field_covariance(pair, CompatibilityMatrix.identity(2))[0],
        0.25 * np.eye(2),
    )
    report(4, "covariances SPD; isolated node exactly I/2; unit-coupling case exactly I/4")


# ---------------------------------------------------------------------------
# 5. Analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(105)
    worst = 0.0
    for case in range(10):
        steps = 1 if case % 2 == 0 else 3
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        graph, unary, projection, factor, cfg, inputs, guide, upstream = build_instance(
            rng, n=n, d_in=3, d=d, d_proj=2, steps=steps, readout=IDENTITY
        )
        grads = crf_gradients(inputs, graph, unary, projection, guide, cfg, upstream)
        evaluate = scalar_objective(graph, guide, upstream, steps, IDENTITY, 1e-3)
        args = {
            "inputs": inputs,
            "uw": unary.layers[0].weight,
            "ub": unary.layers[0].bias,
            "u_act": unary.layers[0].activation,
            "pw": projection.layers[0].weight,
            "pb": projection.layers[0].bias,
            "factor": factor,
        }
        analytic = {
            "inputs": grads.inputs,
            "uw": grads.unary[0][0],
            "ub": grads.unary[0][1],
            "pw": grads.projection[0][0],
            "pb": grads.projection[0][1],
            "factor": grads.compat_factor,
        }
        for name, got in analytic.items():
            expect = central_difference(evaluate, args, name)
            rel = np.max(np.abs(got - expect)) / (1.0 + np.max(np.abs(expect)))
            worst = max(worst, float(rel))
            assert rel <= 1e-5, f"{name}: relative error {rel:.3e}"
    report(5, f"10 configurations, all parameter groups within 1e-5 (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. Identity-coupled CRF vs half-rate diffusion
# ---------------------------------------------------------------------------

def test_criterion_6_diffusion_correspondence():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 101))
        d = int(rng.integers(1, 4))
        sim = symmetric_stochastic_field(rng, n)
        observed = rng.normal(size=(n, d))
        cfg = CrfConfig(
            compat=CompatibilityMatrix.identity(d), steps=1, readout=IDENTITY
        )
        crf_one = crf_step(ContinuousCrfState.from_observed(observed), sim, cfg).latent
        diff_one = diffusion_step(observed, sim.graph, 0.5)
        gap = float(np.max(np.abs(crf_one - diff_one)))
        worst = max(worst, gap)
        assert gap <= 1e-12

    sim = SimilarityField(NeighborGraph(2, [0, 1, 2], [1, 0]), [1.0, 1.0])
    observed = np.array([[0.0], [2.0]])
    cfg = CrfConfig(
        compat=CompatibilityMatrix.identity(1), steps=5000,
        convergence_tol=1e-13, readout=IDENTITY,
    )
    crf_fixed = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg).latent
    np.testing.assert_allclose(crf_fixed.ravel(), [2.0 / 3.0, 4.0 / 3.0], atol=1e-8)
    heat = observed.copy()
    for _ in range(200):
        heat = diffusion_step(heat, sim.graph, 0.5)
    np.testing.assert_allclose(heat.ravel(), [1.0, 1.0], atol=1e-8)
    report(6, f"step-1 equality on 20 instances (worst {worst:.2e}); fixed points differ as expected")


# ---------------------------------------------------------------------------
# 7. Discrete CRF invariants
# ---------------------------------------------------------------------------

def test_criterion_7_discrete_invariants():
    rng = np.random.default_rng(107)
    steps_checked = 0
    while steps_checked < 1000:
        n = int(rng.integers(2, 10))
        labels = int(rng.integers(2, 6))
        graph = random_symmetric_graph(rng, n)
        weights = rng.uniform(0.0, 2.0, size=graph.num_edges)
        compat = LabelCompatibility(rng.normal(size=(labels, labels)))
        field = LabelField.from_unary(random_simplex_rows(rng, n, labels))
        for _ in range(10):
            field = discrete_crf_step(field, graph, weights, compat)
            assert np.all(field.posterior >= 0)
            assert np.max(np.abs(field.posterior.sum(axis=1) - 1.0)) <= 1e-9
            steps_checked += 1

    graph = random_symmetric_graph(rng, 6)
    unary = random_simplex_rows(rng, 6, 3)
    zero = np.zeros(graph.num_edges)
    out = discrete_crf_step(
        LabelField.from_unary(unary), graph, zero, LabelCompatibility.identity(3)
    )
    np.testing.assert_array_equal(out.posterior, unary)

    weights = rng.uniform(0.2, 1.0, size=graph.num_edges)
    base = LabelCompatibility(rng.normal(size=(3, 3)))
    shifted = LabelCompatibility(base.matrix + 0.9 * np.ones((3, 3)))
    a = discrete_crf_step(LabelField.from_unary(unary), graph, weights, base)
    b = discrete_crf_step(LabelField.from_unary(unary), graph, weights, shifted)
    assert np.max(np.abs(a.posterior - b.posterior)) <= 1e-12
    report(7, f"{steps_checked} steps stayed on the simplex; degeneracy and shift invariance exact")


# ---------------------------------------------------------------------------
# 8. Graph construction against brute force
# ---------------------------------------------------------------------------

def _pair_table(positions):
    n = len(positions)
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            delta = positions[i] - positions[j]
            table[i, j] = float((delta * delta).sum())
    return table


def test_criterion_8_graph_oracles():
    rng = np.random.default_rng(108)
    for case in range(100):
        n = int(rng.integers(2, 65))
        cloud = random_cloud(rng, n)
        if case % 7 == 0 and n >= 3:  # exercise exact ties
            cloud.positions[1] = cloud.positions[0]
        table = _pair_table(cloud.positions)
        order = {
            i: sorted((table[i, j], j) for j in range(n) if j != i) for i in range(n)
        }

        k = int(rng.integers(1, 7))
        rows = node_rows(knn_graph(cloud, k))
        for i in range(n):
            expect = [j for _, j in order[i][: min(k, n - 1)]]
            assert list(rows[i]) == expect

        dil = int(rng.integers(1, 4))
        rows = node_rows(dilated_knn_graph(cloud, k, dil))
        for i in range(n):
            pool = [j for _, j in order[i][: min(k * dil, n - 1)]]
            assert list(rows[i]) == pool[dil - 1 :: dil][:k]

        r = float(rng.uniform(0.5, 8.0))
        rows = node_rows(radius_graph(cloud, r))
        for i in range(n):
            expect = [j for d2, j in order[i] if d2 <= r]
            assert list(rows[i]) == expect

        ratio = float(rng.uniform(0.1, 1.0))
        seed = int(rng.integers(0, n))
        sample = farthest_point_sample(cloud, ratio=ratio, seed_index=seed)
        assert len(sample) == sample_count(ratio, n)
        assert sample.selected[0] == seed
        chosen = [seed]
        for t in range(1, len(sample)):
            remaining = np.array([j for j in range(n) if j not in chosen])
            min_d2 = table[np.ix_(remaining, chosen)].min(axis=1)
            best = min_d2.max()
            candidates = remaining[min_d2 == best]
            assert sample.selected[t] == candidates.min()
            chosen.append(int(sample.selected[t]))
    report(8, "100 clouds: knn, dilated knn, radius, and sampling match brute force")


# ---------------------------------------------------------------------------
# 9. Step sweep on a planted clustered cloud
# ---------------------------------------------------------------------------

def test_criterion_9_step_sweep():
    rng = np.random.default_rng(109)
    start = time.perf_counter()
    cloud, _ = planted_cluster_cloud(rng, per_cluster=100)
    assert cloud.num_points == 300
    graph = knn_graph(cloud, 8)
    from pointcrf import balance_similarity

    sim = balance_similarity(
        pairwise_similarity(cloud.features, graph, PointwiseTransform.identity())
    )
    compat = CompatibilityMatrix.identity(3)
    observed = cloud.features

    energies, crf_fidelities, diffusion_fidelities = [], [], []
    for steps in (1, 2, 5, 10, 20, 50):
        cfg = CrfConfig(
            compat=compat, steps=steps, schedule="gauss-seidel", readout=IDENTITY
        )
        state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
        energies.append(state.energy_trace[-1])
        crf_fidelities.append(float(np.linalg.norm(state.latent - observed)))
        heat = observed.copy()
        for _ in range(steps):
            heat = diffusion_step(heat, sim.graph, 0.5)
        diffusion_fidelities.append(float(np.linalg.norm(heat - observed)))

    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:])), energies
    for steps, crf_f, diff_f in zip(
        (1, 2, 5, 10, 20, 50), crf_fidelities, diffusion_fidelities
    ):
        if steps >= 5:
            assert crf_f <= diff_f, (steps, crf_f, diff_f)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(9, f"energy non-increasing in T; anchored fidelity below diffusion for T >= 5 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _run_all_commands(runner, tmp_path, tag):
    out_dir = tmp_path / f"out-{tag}"
    config = {
        "input": {"path": str(tmp_path / "cloud.csv"), "format": "csv-xyz"},
        "output": {"dir": str(out_dir)},
        "graph": {"method": "knn", "k": 3},
        "crf": {"steps": 6, "schedule": "gauss-seidel", "compat": "identity",
                "activation": "identity", "symmetrize": True},
        "discrete": {"steps": 3, "probabilities": str(tmp_path / "probs.csv")},
        "diffusion": {"steps": 5},
        "seed": 7,
    }
    config_path = tmp_path / f"config-{tag}.json"
    config_path.write_text(json.dumps(config))
    commands = [
        ["build-graph"],
        ["smooth"],
        ["refine-labels"],
        ["diffuse-compare"],
        ["sweep-steps", "--steps-list", "1,2,5"],
        ["check-oracle"],
    ]
    for command in commands:
        result = runner.invoke(cli_main, command + ["--config", str(config_path)])
        assert result.exit_code == 0, f"{command}: {result.output}"
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(110)
    cloud = random_cloud(rng, 15, d=2)
    write_cloud(cloud, tmp_path / "cloud.csv", "csv-xyz")
    write_probabilities(tmp_path / "probs.csv", random_simplex_rows(rng, 15, 3))
    runner = CliRunner()
    first = _run_all_commands(runner, tmp_path, "a")
    second = _run_all_commands(runner, tmp_path, "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(10, "all six commands byte-identical across runs")
