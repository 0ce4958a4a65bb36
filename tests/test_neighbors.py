"""The KD-tree neighbor core against the brute-force ranking (``util``).

The generated clouds are tie-heavy on purpose: integer lattices put many
points at exactly the k-th distance, duplicated points give zero distances,
and radii sit exactly on an existing squared distance. Graph builders must
match the reference index for index and distance for distance, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcrf import (
    PointCloud,
    dilated_knn_graph,
    knn_graph,
    knn_interpolate,
    radius_graph,
)
from util import (
    node_rows,
    reference_interpolate,
    reference_knn,
    reference_radius,
    reference_ranking,
)


@st.composite
def clouds(draw):
    """1-24 points: integer lattices (1 to 4 values per axis), clusters of
    duplicated points, or Gaussian; scaled so ties are not only integers."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["lattice", "duplicates", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        positions = rng.integers(0, draw(st.integers(1, 4)), size=(n, 3)).astype(float)
    elif kind == "duplicates":
        base = rng.normal(size=(max(1, n // 3), 3))
        positions = base[rng.integers(0, len(base), size=n)]
    else:
        positions = rng.normal(size=(n, 3))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-4, 1e5]))
    return PointCloud(positions=positions * scale, features=rng.normal(size=(n, 2)))


def assert_matches(graph, expect):
    assert graph.num_nodes == len(expect)
    indices, weights = node_rows(graph), node_rows(graph, graph.weights)
    for i, (idx, dist) in enumerate(expect):
        np.testing.assert_array_equal(indices[i], idx)
        assert weights[i].tobytes() == dist.tobytes(), f"node {i}"


@settings(max_examples=150, deadline=None)
@given(clouds(), st.integers(1, 26), st.integers(1, 3))
def test_knn_and_dilated_knn_match_brute_force(cloud, k, dil):
    assert_matches(knn_graph(cloud, k), reference_knn(cloud.positions, k))
    assert_matches(dilated_knn_graph(cloud, k, dil), reference_knn(cloud.positions, k, dil))


@settings(max_examples=150, deadline=None)
@given(clouds(), st.integers(0, 10**6), st.booleans())
def test_radius_graph_matches_brute_force(cloud, pick, on_boundary):
    d2 = np.concatenate([row for _, row in reference_ranking(cloud.positions)])
    positive = np.unique(d2[d2 > 0])
    if on_boundary and positive.size:
        r = float(positive[pick % positive.size])  # the `<=` boundary
    else:
        r = float(np.median(positive) if positive.size else 1.0) * (0.5 + pick / 10**6)
    assert_matches(radius_graph(cloud, r), reference_radius(cloud.positions, r))


@settings(max_examples=150, deadline=None)
@given(clouds(), st.integers(1, 26), st.integers(0, 2**32 - 1))
def test_knn_interpolate_matches_brute_force(coarse, k, seed):
    rng = np.random.default_rng(seed)
    picks = coarse.positions[rng.integers(0, coarse.num_points, size=3)]
    scale = max(float(np.abs(coarse.positions).max()), 1.0)
    fine = np.vstack([
        picks,  # coincident: copied verbatim
        picks + 1e-13 * scale,  # within the coincidence distance for small scales
        np.round(rng.normal(size=(6, 3)) * 2),  # lattice points, tied on lattice clouds
        rng.normal(size=(3, 3)) * scale,
    ])
    fine = fine[rng.permutation(len(fine))][: rng.integers(0, len(fine) + 1)]
    got = knn_interpolate(coarse, fine, k=k)
    want = reference_interpolate(coarse, fine, k)
    # sums of k >= 8 weights run in another order than numpy's pairwise sum
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("build", [
    lambda cloud: knn_graph(cloud, 16),
    lambda cloud: dilated_knn_graph(cloud, 16, 2),
    lambda cloud: radius_graph(cloud, 0.01),
], ids=["knn", "dilated", "radius"])
def test_graph_build_memory_grows_with_edges_not_n_squared(build):
    rng = np.random.default_rng(4096)
    cloud = PointCloud(positions=rng.uniform(size=(4096, 3)), features=np.zeros((4096, 1)))
    tracemalloc.start()
    try:
        graph = build(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_edges > 4096 * 8
    # an N x N x 3 float64 difference table alone would be 403 MB
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
