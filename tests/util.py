"""Shared builders for randomized test instances."""

import numpy as np

from pointcrf import (
    CompatibilityMatrix,
    NeighborGraph,
    PointCloud,
    SimilarityField,
)
from pointcrf.cloud import COINCIDENT_DISTANCE


def random_cloud(rng, n, d=3, spread=1.0):
    return PointCloud(
        positions=rng.normal(scale=spread, size=(n, 3)),
        features=rng.normal(size=(n, d)),
    )


def random_symmetric_graph(rng, n, extra_edge_prob=0.2) -> NeighborGraph:
    """Ring lattice plus random mutual pairs; every node has a neighbor."""
    adjacency = [set() for _ in range(n)]
    if n == 1:
        return NeighborGraph(num_nodes=1, neighbors=[np.empty(0, dtype=np.int64)])
    for i in range(n):
        j = (i + 1) % n
        adjacency[i].add(j)
        adjacency[j].add(i)
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < extra_edge_prob:
                adjacency[i].add(j)
                adjacency[j].add(i)
    neighbors = [np.array(sorted(a), dtype=np.int64) for a in adjacency]
    return NeighborGraph(num_nodes=n, neighbors=neighbors)


def symmetric_stochastic_field(rng, n, components=3) -> SimilarityField:
    """Random symmetric row-stochastic similarity field on n >= 2 nodes.

    Built as a convex combination of symmetrized random full cycles, so rows
    and columns sum to one exactly (up to float addition) by construction,
    with no dependence on the balancing code under test.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    dense = np.zeros((n, n))
    mix = rng.dirichlet(np.ones(components))
    for weight in mix:
        order = rng.permutation(n)
        cycle = np.zeros((n, n))
        cycle[order, np.roll(order, -1)] = 1.0
        dense += weight * 0.5 * (cycle + cycle.T)
    neighbors = [np.flatnonzero(dense[i]) for i in range(n)]
    values = [dense[i, nbrs] for i, nbrs in enumerate(neighbors)]
    graph = NeighborGraph(num_nodes=n, neighbors=neighbors)
    return SimilarityField(graph, values)


def random_pd_compat(rng, d, scale=0.5, epsilon=1e-4) -> CompatibilityMatrix:
    return CompatibilityMatrix(factor=rng.normal(scale=scale, size=(d, d)), epsilon=epsilon)


def random_simplex_rows(rng, n, labels) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, size=(n, labels))
    return raw / raw.sum(axis=1, keepdims=True)


def planted_cluster_cloud(rng, per_cluster=100, noise=0.15):
    """Three spatial blobs whose features are noisy cluster signatures."""
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 4.0, 0.0]])
    signatures = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    positions, features, labels = [], [], []
    for c in range(3):
        positions.append(centers[c] + rng.normal(scale=0.4, size=(per_cluster, 3)))
        features.append(signatures[c] + rng.normal(scale=noise, size=(per_cluster, 3)))
        labels.extend([c] * per_cluster)
    return (
        PointCloud(positions=np.vstack(positions), features=np.vstack(features)),
        np.array(labels),
    )


# ---------------------------------------------------------------------------
# Per-node reference loops: the straightforward versions of the flat CSR
# kernels, kept here so every fast path is tested against the loop it replaced.
# ---------------------------------------------------------------------------

def reference_similarity(features, graph, projection):
    """Per-node softmax of negative squared projected distances (list of rows)."""
    projected = projection.apply(np.asarray(features, dtype=np.float64))
    values = []
    for i, nbrs in enumerate(graph.neighbors):
        if nbrs.size == 0:
            values.append(np.empty(0, dtype=np.float64))
            continue
        diff = projected[nbrs] - projected[i]
        logits = -np.einsum("nd,nd->n", diff, diff)
        shifted = np.exp(logits - logits.max())
        values.append(shifted / shifted.sum())
    return values


def reference_aggregate(graph, values, node_values):
    """Per-node sum of value * node_values[neighbor] over outgoing edges."""
    out = np.zeros((graph.num_nodes, node_values.shape[1]))
    for i, (nbrs, vals) in enumerate(zip(graph.neighbors, values)):
        if nbrs.size:
            out[i] = vals @ node_values[nbrs]
    return out


def reference_discrete_step(unary, posterior, graph, weights, compat_matrix, floor=1e-12):
    """One simultaneous label update: per-node messages, then per-node softmax."""
    messages = reference_aggregate(graph, weights, posterior)
    log_unary = np.log(np.maximum(unary, floor))
    out = np.empty_like(posterior)
    for i in range(unary.shape[0]):
        if not messages[i].any():
            row = unary[i]
            if np.all(row >= floor):
                out[i] = row
            else:
                clamped = np.maximum(row, floor)
                out[i] = clamped / clamped.sum()
            continue
        logits = log_unary[i] - compat_matrix @ messages[i]
        shifted = np.exp(logits - logits.max())
        out[i] = shifted / shifted.sum()
    return out


def reference_dirichlet(graph, signal):
    """h^T (I - D^-1 W) h with zero-degree rows treated as isolated."""
    lh = signal.copy()
    for i, (nbrs, w) in enumerate(zip(graph.neighbors, graph.edge_weights)):
        deg = float(w.sum())
        if nbrs.size and deg > 0.0:
            lh[i] -= float(w @ signal[nbrs]) / deg
    return float(signal @ lh)


def reference_max_asymmetry(graph, values):
    """max |s_ij - s_ji| over all edges, a missing reverse edge counting as 0."""
    table = {}
    for i, (nbrs, vals) in enumerate(zip(graph.neighbors, values)):
        for j, v in zip(nbrs, vals):
            table[(i, int(j))] = float(v)
    return max((abs(v - table.get((j, i), 0.0)) for (i, j), v in table.items()), default=0.0)


# ---------------------------------------------------------------------------
# Brute-force neighbor search: the O(N^2) ranking the graph builders and
# knn_interpolate used before the KD-tree candidate core, kept as its oracle.
# ---------------------------------------------------------------------------

def reference_ranking(points, queries=None):
    """Per query: (indices, squared distances) of all points in (d2, index) order.

    Squared distances come from coordinate differences, so coincident points
    give exactly 0.0. Without ``queries`` the points query themselves and row
    i leaves point i out.
    """
    self_rows = queries is None
    queries = points if self_rows else np.asarray(queries, dtype=np.float64)
    diff = queries[:, None, :] - points[None, :, :]
    table = np.einsum("ijk,ijk->ij", diff, diff)
    rows = []
    for i, d2 in enumerate(table):
        order = np.lexsort((np.arange(d2.size), d2))
        if self_rows:
            order = order[order != i]
        rows.append((order, d2[order]))
    return rows


def reference_knn(positions, k, dil=1):
    """Per node: ranks dil, 2*dil, ..., k*dil of the brute-force order, with distances."""
    return [
        (idx[: k * dil][dil - 1 :: dil], np.sqrt(d2[: k * dil][dil - 1 :: dil]))
        for idx, d2 in reference_ranking(positions)
    ]


def reference_radius(positions, r):
    """Per node: every other point with squared distance <= r, with distances."""
    return [(idx[d2 <= r], np.sqrt(d2[d2 <= r])) for idx, d2 in reference_ranking(positions)]


def reference_interpolate(coarse, fine_positions, k):
    """Per fine point: 1/d^2-weighted mean of the min(k, M) nearest coarse
    features, or the nearest feature verbatim when closer than 1e-12."""
    take = min(k, coarse.num_points)
    out = np.zeros((len(fine_positions), coarse.feature_dim))
    for i, (idx, d2) in enumerate(reference_ranking(coarse.positions, fine_positions)):
        if d2[0] < COINCIDENT_DISTANCE**2:
            out[i] = coarse.features[idx[0]]
            continue
        w = 1.0 / d2[:take]
        out[i] = (w[:, None] * coarse.features[idx[:take]]).sum(axis=0) / w.sum()
    return out
