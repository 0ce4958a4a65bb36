"""The fixed-width neighbour query against the padded-ball search it replaced.

``cloud._ranked_pairs`` fetches ``count + _SLACK`` candidates per row and
sends only rows cut inside a tie to the padded ball. Its ranks below
``count`` must equal ``util.reference_ranked_pairs`` row for row, index for
index and bit for bit. The clouds here are larger than ``test_neighbors``'s,
so the query width is below N and rows take both routes: integer lattices
tie many points at the reach, and coincident piles wider than the query
width tie at distance 0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcrf import PointCloud, dilated_knn_graph, knn_graph, knn_interpolate
from pointcrf import cloud as cloud_module
from util import reference_interpolate, reference_knn, reference_ranked_pairs

from test_neighbors import assert_matches

SLACKS = [0, 1, 2, 5, 1000]


@st.composite
def wide_points(draw):
    """50-300 points: lattices (2 to 6 values per axis), coincident piles of
    up to 40 points, or Gaussian; scaled so ties are not only integers."""
    n = draw(st.integers(50, 300))
    kind = draw(st.sampled_from(["lattice", "piles", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        positions = rng.integers(0, draw(st.integers(2, 6)), size=(n, 3)).astype(float)
    elif kind == "piles":
        base = rng.normal(size=(max(1, n // draw(st.integers(5, 40))), 3))
        positions = base[rng.integers(0, len(base), size=n)]
    else:
        positions = rng.normal(size=(n, 3))
    return positions * draw(st.sampled_from([1.0, 0.1, 1e-4, 1e5]))


def query_points(rng, points, size):
    """Queries off and on the points: copies of points, lattice nodes, Gaussians."""
    scale = max(float(np.abs(points).max()), 1.0)
    pool = np.vstack([
        points[rng.integers(0, len(points), size=size)],
        np.round(rng.normal(size=(size, 3)) * 2),
        rng.normal(size=(size, 3)) * scale,
    ])
    return pool[rng.permutation(len(pool))][:size]


def ranked(points, queries, count, slack, block=None):
    patches = {"_SLACK": slack} if block is None else {"_SLACK": slack, "_PAIR_BLOCK": block}
    with mock.patch.multiple(cloud_module, **patches):
        return cloud_module._ranked_pairs(points, queries, count=count)


def assert_same_ranks(got, want, count, m):
    """Ranks below ``count`` equal, d2 by bytes, and every row well ordered."""
    rows, cols, d2, rank = got
    assert rows.size == cols.size == d2.size == rank.size
    # the contract: sorted by (row, d2, col), rank the position in the row
    np.testing.assert_array_equal(np.lexsort((cols, d2, rows)), np.arange(rows.size))
    starts = np.searchsorted(rows, np.arange(m))
    np.testing.assert_array_equal(rank, np.arange(rows.size) - starts[rows])
    keep, ref_keep = rank < count, want[3] < count
    for name, a, b in zip(("rows", "cols", "d2", "rank"), got, want):
        assert a[keep].tobytes() == b[ref_keep].tobytes(), name


@settings(max_examples=120, deadline=None)
@given(wide_points(), st.integers(1, 8), st.sampled_from(SLACKS))
def test_self_rows_match_the_padded_ball(points, count, slack):
    got = ranked(points, None, count, slack)
    assert_same_ranks(got, reference_ranked_pairs(points, count=count), count, len(points))


@settings(max_examples=80, deadline=None)
@given(wide_points(), st.integers(1, 8), st.sampled_from(SLACKS),
       st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_other_queries_match_the_padded_ball(points, count, slack, seed, size):
    queries = query_points(np.random.default_rng(seed), points, size)
    got = ranked(points, queries, count, slack)
    assert_same_ranks(got, reference_ranked_pairs(points, queries, count=count), count, size)


@settings(max_examples=40, deadline=None)
@given(wide_points(), st.integers(1, 8), st.sampled_from([1, 7, 1 << 16]))
def test_pair_blocks_do_not_change_the_bits(points, count, block):
    want = ranked(points, None, count, 2)
    got = ranked(points, None, count, 2, block=block)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("slack", SLACKS)
@pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
def test_small_clouds_and_count_at_or_past_n(slack, count):
    rng = np.random.default_rng(count)
    for n in (1, 2, 4, 5):
        points = rng.integers(0, 2, size=(n, 3)).astype(float)
        for queries in (None, np.empty((0, 3)), query_points(rng, points, 6)):
            m = n if queries is None else len(queries)
            got = ranked(points, queries, count, slack)
            want = reference_ranked_pairs(points, queries, count=count)
            assert_same_ranks(got, want, count, m)
            per_row = min(count, n - (queries is None))
            assert np.count_nonzero(got[3] < count) == m * per_row


def shuffled_lattice(side, seed):
    """A full integer lattice in random index order, so the tree's pick among
    tied neighbours is rarely the lowest index."""
    axis = np.arange(side, dtype=float)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[np.random.default_rng(seed).permutation(len(grid))]


@pytest.mark.parametrize("slack", [0, 2])
def test_rows_cut_inside_a_tie_take_the_ball(slack):
    points = shuffled_lattice(5, 0)
    routed = []
    ball = cloud_module._ball_pairs

    def spy(tree, pts, queries, rows_of, reach, self_rows):
        routed.append(rows_of.copy())
        return ball(tree, pts, queries, rows_of, reach, self_rows)

    with mock.patch.object(cloud_module, "_ball_pairs", spy):
        got = ranked(points, None, 1, slack)
    # every lattice point has at least 3 nearest neighbours at distance 1
    np.testing.assert_array_equal(np.concatenate(routed), np.arange(len(points)))
    assert_same_ranks(got, reference_ranked_pairs(points, count=1), 1, len(points))


def test_rows_clear_of_ties_skip_the_ball():
    points = np.random.default_rng(7).normal(size=(300, 3))
    with mock.patch.object(cloud_module, "_ball_pairs", side_effect=AssertionError):
        rows, cols, d2, rank = cloud_module._ranked_pairs(points, count=6)
    assert rows.size == 300 * 6


@settings(max_examples=40, deadline=None)
@given(wide_points(), st.integers(1, 6), st.integers(1, 3), st.sampled_from(SLACKS))
def test_wide_knn_graphs_match_brute_force(points, k, dil, slack):
    cloud = PointCloud(positions=points, features=np.zeros((len(points), 0)))
    with mock.patch.object(cloud_module, "_SLACK", slack):
        assert_matches(knn_graph(cloud, k), reference_knn(points, k))
        assert_matches(dilated_knn_graph(cloud, k, dil), reference_knn(points, k, dil))


@settings(max_examples=40, deadline=None)
@given(wide_points(), st.integers(1, 6), st.sampled_from(SLACKS), st.integers(0, 2**32 - 1))
def test_wide_interpolation_matches_brute_force(points, k, slack, seed):
    rng = np.random.default_rng(seed)
    coarse = PointCloud(positions=points, features=rng.normal(size=(len(points), 2)))
    fine = query_points(rng, points, 30)
    with mock.patch.object(cloud_module, "_SLACK", slack):
        got = knn_interpolate(coarse, fine, k=k)
    np.testing.assert_allclose(got, reference_interpolate(coarse, fine, k), rtol=1e-13, atol=1e-13)
