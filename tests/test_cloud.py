"""Cloud I/O, graph construction, sampling, and interpolation tests.

Graph builders are checked against brute-force per-node references that sort
the full distance list independently of the library's vectorized path.
"""

import numpy as np
import pytest

from pointcrf import (
    CloudParseError,
    PointCloud,
    dilated_knn_graph,
    farthest_point_sample,
    knn_graph,
    knn_interpolate,
    radius_graph,
    read_cloud,
    write_cloud,
)
from util import node_rows, random_cloud


def collinear_cloud(xs, features=None):
    positions = np.zeros((len(xs), 3))
    positions[:, 0] = xs
    feats = np.zeros((len(xs), 0)) if features is None else np.asarray(features)
    return PointCloud(positions=positions, features=feats)


def brute_sorted_neighbors(positions, i):
    """All other nodes of node i ordered by (squared distance, index)."""
    pairs = []
    for j in range(len(positions)):
        if j == i:
            continue
        delta = positions[i] - positions[j]
        pairs.append((float((delta * delta).sum()), j))
    pairs.sort()
    return [j for _, j in pairs]


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

class TestCloudIO:
    def test_csv_positions_only(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0,0\n1,0,0\n0,1,0\n")
        cloud = read_cloud(path, "csv-xyz")
        assert cloud.num_points == 3
        assert cloud.feature_dim == 0

    def test_csv_short_row_errors_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        with pytest.raises(CloudParseError, match="line 1"):
            read_cloud(path, "csv-xyz")

    def test_csv_inconsistent_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,1\n1,2,3\n")
        with pytest.raises(CloudParseError, match="line 2"):
            read_cloud(path, "csv-xyz")

    def test_csv_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0\n1,x,3\n")
        with pytest.raises(CloudParseError, match="line 2"):
            read_cloud(path, "csv-xyz")

    def test_ply_rgb_schema(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            "0 0 0 255 0 0\n1 1 1 0 255 0\n"
        )
        cloud = read_cloud(path, "ply-ascii")
        assert cloud.num_points == 2
        assert cloud.feature_dim == 3
        np.testing.assert_array_equal(cloud.features[0], [255, 0, 0])

    def test_ply_rejects_binary(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(CloudParseError, match="ascii"):
            read_cloud(path, "ply-ascii")

    def test_ply_ignores_zero_count_elements(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 0\nproperty int vertex_index\n"
            "end_header\n"
            "1 2 3\n"
        )
        cloud = read_cloud(path, "ply-ascii")
        assert cloud.num_points == 1
        assert cloud.feature_dim == 0

    def test_ply_rejects_populated_extra_elements(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 2\nend_header\n1 2 3\n"
        )
        with pytest.raises(CloudParseError, match="face"):
            read_cloud(path, "ply-ascii")

    def test_ply_row_count_mismatch(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n"
        )
        with pytest.raises(CloudParseError):
            read_cloud(path, "ply-ascii")

    @pytest.mark.parametrize("format", ["csv-xyz", "ply-ascii"])
    def test_round_trip_exact(self, tmp_path, format):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, 17, d=4)
        path = tmp_path / "c.dat"
        write_cloud(cloud, path, format)
        back = read_cloud(path, format)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.features, cloud.features)

    def test_write_empty_cloud(self, tmp_path):
        cloud = PointCloud(positions=np.empty((0, 3)), features=np.empty((0, 0)))
        for format in ("csv-xyz", "ply-ascii"):
            path = tmp_path / "empty.dat"
            write_cloud(cloud, path, format)
            back = read_cloud(path, format)
            assert back.num_points == 0

    def test_wide_feature_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 3, d=6)
        path = tmp_path / "c.csv"
        write_cloud(cloud, path, "csv-xyz")
        first = path.read_text().splitlines()[0]
        assert len(first.split(",")) == 9


# ---------------------------------------------------------------------------
# kNN / dilated / radius graphs
# ---------------------------------------------------------------------------

class TestKnnGraph:
    def test_collinear_hand_case(self):
        graph = knn_graph(collinear_cloud([0.0, 1.0, 3.0]), k=1)
        assert [list(n) for n in node_rows(graph)] == [[1], [0], [1]]

    def test_saturated_k_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 6)
        graph = knn_graph(cloud, k=10)
        for i, nbrs in enumerate(node_rows(graph)):
            assert sorted(nbrs) == [j for j in range(6) if j != i]

    def test_coincident_points_tie_break(self):
        cloud = collinear_cloud([0.0, 0.0, 5.0])
        graph = knn_graph(cloud, k=1)
        assert list(graph.indices) == [1, 0, 0]  # node 2: tie between 0 and 1 at d=5
        assert graph.weights[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 6))
            cloud = random_cloud(rng, n)
            rows = node_rows(knn_graph(cloud, k))
            for i in range(n):
                expect = brute_sorted_neighbors(cloud.positions, i)[: min(k, n - 1)]
                assert list(rows[i]) == expect

    def test_neighbors_sorted_by_distance(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 30)
        graph = knn_graph(cloud, 5)
        for dists in node_rows(graph, graph.weights):
            assert np.all(np.diff(dists) >= 0)


class TestDilatedKnn:
    def test_dilation_one_matches_knn(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 25)
        a = knn_graph(cloud, 4)
        b = dilated_knn_graph(cloud, 4, 1)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_rank_selection_hand_case(self):
        cloud = collinear_cloud([0.0, 1.0, 2.0, 3.0, 4.0])
        graph = dilated_knn_graph(cloud, k=2, dil=2)
        assert list(node_rows(graph)[0]) == [2, 4]

    def test_truncates_when_pool_is_short(self):
        cloud = collinear_cloud([0.0, 1.0, 2.0])
        graph = dilated_knn_graph(cloud, k=2, dil=2)
        # only two candidates exist; ranks {2, 4} keep just rank 2
        assert list(node_rows(graph)[0]) == [2]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 5))
            dil = int(rng.integers(1, 4))
            cloud = random_cloud(rng, n)
            rows = node_rows(dilated_knn_graph(cloud, k, dil))
            for i in range(n):
                pool = brute_sorted_neighbors(cloud.positions, i)[: min(k * dil, n - 1)]
                expect = pool[dil - 1 :: dil][:k]
                assert list(rows[i]) == expect


class TestRadiusGraph:
    def test_too_small_radius_gives_empty_graph(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 10, spread=10.0)
        graph = radius_graph(cloud, 1e-12)
        assert graph.num_edges == 0

    def test_hand_case_squared_threshold(self):
        graph = radius_graph(collinear_cloud([0.0, 1.0, 3.0]), r=1.0)
        assert [list(n) for n in node_rows(graph)] == [[1], [0], []]

    def test_huge_radius_gives_complete_graph(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 8)
        graph = radius_graph(cloud, 1e12)
        for i, nbrs in enumerate(node_rows(graph)):
            assert sorted(nbrs) == [j for j in range(8) if j != i]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            cloud = random_cloud(rng, n)
            r = float(rng.uniform(0.5, 6.0))
            rows = node_rows(radius_graph(cloud, r))
            for i in range(n):
                expect = [
                    j
                    for j in brute_sorted_neighbors(cloud.positions, i)
                    if ((cloud.positions[i] - cloud.positions[j]) ** 2).sum() <= r
                ]
                assert list(rows[i]) == expect


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

def greedy_property_holds(positions, selected):
    """Each selection must maximize the min squared distance to prior picks."""
    chosen = [selected[0]]
    for t in range(1, len(selected)):
        def min_d2(j):
            return min(float(((positions[j] - positions[c]) ** 2).sum()) for c in chosen)

        best = max(min_d2(j) for j in range(len(positions)) if j not in chosen)
        candidates = [
            j for j in range(len(positions)) if j not in chosen and min_d2(j) == best
        ]
        if selected[t] != min(candidates):
            return False
        chosen.append(selected[t])
    return True


class TestFarthestPointSample:
    def test_full_ratio_selects_everything(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 9)
        sample = farthest_point_sample(cloud, ratio=1.0, seed_index=4)
        assert sorted(sample.selected) == list(range(9))
        assert sample.selected[0] == 4

    def test_hand_trace(self):
        cloud = collinear_cloud([0.0, 1.0, 10.0])
        sample = farthest_point_sample(cloud, ratio=2 / 3, seed_index=0)
        assert list(sample.selected) == [0, 2]

    def test_greedy_oracle_replay(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 24))
            cloud = random_cloud(rng, n)
            ratio = float(rng.uniform(0.2, 1.0))
            seed = int(rng.integers(0, n))
            sample = farthest_point_sample(cloud, ratio=ratio, seed_index=seed)
            assert greedy_property_holds(cloud.positions, list(sample.selected))


# ---------------------------------------------------------------------------
# kNN interpolation
# ---------------------------------------------------------------------------

class TestKnnInterpolate:
    def test_coincidence_copies_exactly(self):
        rng = np.random.default_rng(21)
        coarse = random_cloud(rng, 10, d=3)
        out = knn_interpolate(coarse, coarse.positions[4:5], k=3)
        np.testing.assert_array_equal(out[0], coarse.features[4])

    def test_equidistant_mean(self):
        coarse = collinear_cloud([0.0, 2.0], features=[[0.0], [2.0]])
        out = knn_interpolate(coarse, np.array([[1.0, 0.0, 0.0]]), k=2)
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_hand_inverse_distance_weights(self):
        coarse = collinear_cloud([0.0, 2.0], features=[[0.0], [3.0]])
        out = knn_interpolate(coarse, np.array([[0.5, 0.0, 0.0]]), k=2)
        np.testing.assert_allclose(out[0, 0], 0.3, atol=1e-12)

    def test_weights_behave_like_convex_combination(self):
        # constants are reproduced (weights sum to 1) and outputs stay within
        # the coarse feature range (weights are nonnegative)
        rng = np.random.default_rng(17)
        coarse = random_cloud(rng, 12, d=1)
        fine = rng.normal(size=(40, 3))
        constant = PointCloud(
            positions=coarse.positions, features=np.full((12, 1), 2.5)
        )
        np.testing.assert_allclose(
            knn_interpolate(constant, fine, k=3), 2.5, atol=1e-12
        )
        out = knn_interpolate(coarse, fine, k=3)
        assert np.all(out >= coarse.features.min() - 1e-12)
        assert np.all(out <= coarse.features.max() + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fine_point_is_named(self, bad):
        coarse = collinear_cloud([0.0, 2.0], features=[[0.0], [3.0]])
        fine = np.array([[0.5, 0.0, 0.0], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="fine_positions must be finite"):
            knn_interpolate(coarse, fine, k=2)
