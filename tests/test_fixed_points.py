"""Fixed points of the iterative routes against the exact solve on awkward graphs.

The per-node minimizers (coordinate descent and the mean-field mean update)
are iterated on the symmetrized edge weights, as ``check-oracle`` does, over
asymmetric fields on stars, graphs with isolated nodes, disconnected
components and random one-way supports. The jacobi message-passing run is
checked on symmetric row-stochastic fields, the inputs on which its fixed
point is the exact minimizer, including several disconnected components and
isolated nodes. On kNN and radius fields passed through
``balance_similarity`` the gauss-seidel run is exact coordinate descent, so
its energy trace must not rise.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointcrf import (
    Activation,
    ContinuousCrfState,
    CrfConfig,
    NeighborGraph,
    PointCloud,
    PointwiseTransform,
    SimilarityField,
    balance_similarity,
    coordinate_descent_step,
    knn_graph,
    mean_field_mean_step,
    pairwise_similarity,
    radius_graph,
    run_crf,
    similarity_energy_model,
    solve_exact,
)
from pointcrf.cloud import segment_reduce
from util import graph_from_lists, random_pd_compat, symmetric_stochastic_field

TOL = 1e-9
SWEEPS = 20000


def relative_gap(latent, exact):
    return np.max(np.abs(latent - exact), initial=0.0) / (1.0 + np.max(np.abs(exact), initial=0.0))


@st.composite
def asymmetric_fields(draw):
    """(field, rng): row-stochastic fields with s_ij != s_ji on 1-12 nodes."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["star", "isolated", "components", "one-way"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "star":
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1:] = adjacency[1:, 0] = True
    elif shape == "components":
        component = rng.integers(0, 3, size=n)
        adjacency = component[:, None] == component[None, :]
    elif shape == "one-way":
        adjacency = np.triu(rng.random((n, n)) < 0.5)
    else:
        adjacency = rng.random((n, n)) < 0.5
        lonely = rng.random(n) < 0.4
        adjacency[lonely, :] = adjacency[:, lonely] = False
    np.fill_diagonal(adjacency, False)
    graph = graph_from_lists([rng.permutation(np.flatnonzero(row)) for row in adjacency])
    raw = rng.uniform(0.1, 1.0, size=graph.num_edges)
    return SimilarityField(graph, raw / segment_reduce(raw, graph.indptr)[graph.edge_src]), rng


@pytest.mark.parametrize("step", [coordinate_descent_step, mean_field_mean_step])
@settings(max_examples=60, deadline=None)
@given(asymmetric_fields(), st.integers(1, 4))
def test_per_node_routes_reach_the_exact_solve(step, case, d):
    sim, rng = case
    compat = random_pd_compat(rng, d)
    observed = rng.normal(size=(sim.num_nodes, d))
    model = similarity_energy_model(sim, compat, observed)
    s_sym = model.symmetrized_similarity()
    sym = NeighborGraph(sim.num_nodes, s_sym.indptr, s_sym.indices, s_sym.data)
    latent = observed
    for _ in range(SWEEPS):
        updated = step(observed, latent, sym, sym.weights, compat)
        change = np.max(np.abs(updated - latent), initial=0.0)
        latent = updated
        if change < 1e-13:
            break
    assert relative_gap(latent, solve_exact(model)) <= TOL


@st.composite
def symmetric_fields(draw):
    """(field, rng): 1-3 disconnected symmetric stochastic components of 2-10
    nodes and 0-3 isolated nodes, in shuffled node order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 10), min_size=1, max_size=3))
    blocks = [symmetric_stochastic_field(rng, n, draw(st.integers(1, 3))).graph.operator
              for n in sizes]
    isolated = draw(st.integers(0, 3))
    s = sp.block_diag(blocks + [sp.csr_matrix((isolated, isolated))], format="csr")
    order = rng.permutation(s.shape[0])
    s = s[order][:, order]
    s.sort_indices()
    return SimilarityField(NeighborGraph(s.shape[0], s.indptr, s.indices), s.data), rng


@settings(max_examples=60, deadline=None)
@given(symmetric_fields(), st.integers(1, 4))
def test_jacobi_run_reaches_the_exact_solve(case, d):
    sim, rng = case
    compat = random_pd_compat(rng, d)
    observed = rng.normal(size=(sim.num_nodes, d))
    cfg = CrfConfig(
        compat=compat, steps=SWEEPS, convergence_tol=1e-13, readout=Activation()
    )
    state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
    assert state.steps_done < SWEEPS
    exact = solve_exact(similarity_energy_model(sim, compat, observed))
    assert relative_gap(state.latent, exact) <= TOL


@st.composite
def balanced_fields(draw):
    """(field, rng): kNN or radius softmax fields on 1-40 points in 1-3
    far-apart clusters, balanced. Radius graphs leave isolated nodes, and
    both kinds split into components. Supports that admit no doubly
    stochastic scaling (stars) stall and carry no descent guarantee, so
    they are filtered out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    centers = 100.0 * rng.normal(size=(draw(st.integers(1, 3)), 3))
    positions = centers[rng.integers(0, len(centers), size=n)] + rng.normal(size=(n, 3))
    cloud = PointCloud(positions, rng.normal(size=(n, 2)))
    if draw(st.booleans()):
        graph = knn_graph(cloud, draw(st.integers(1, n + 1)))
    else:
        graph = radius_graph(cloud, draw(st.floats(0.5, 3.0)))
    sim = pairwise_similarity(cloud.features, graph, PointwiseTransform.identity())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        balanced = balance_similarity(sim)
    assume(not caught)
    return balanced, rng


@settings(max_examples=80, deadline=None)
@given(balanced_fields(), st.integers(1, 4))
def test_gauss_seidel_trace_descends_on_balanced_fields(case, d):
    sim, rng = case
    cfg = CrfConfig(
        compat=random_pd_compat(rng, d), steps=8, schedule="gauss-seidel", readout=Activation()
    )
    start = ContinuousCrfState.from_observed(rng.normal(size=(sim.num_nodes, d)))
    trace = np.array(run_crf(start, sim, cfg).energy_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1])), trace
