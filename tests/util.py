"""Shared builders for randomized test instances."""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pointcrf import (
    CompatibilityMatrix,
    NeighborGraph,
    PointCloud,
    SimilarityField,
)
from pointcrf.cloud import COINCIDENT_DISTANCE
from pointcrf.energy import _system_operator


def graph_from_lists(neighbors, weights=None) -> NeighborGraph:
    """CSR graph from per-node neighbor lists and optional per-node weight rows."""
    rows = [np.asarray(r, dtype=np.int64).reshape(-1) for r in neighbors]
    indptr = np.cumsum([0] + [r.size for r in rows])
    if weights is not None:
        weights = np.concatenate([np.empty(0)] + [np.reshape(w, -1) for w in weights])
    indices = np.concatenate([np.empty(0, np.int64)] + rows)
    return NeighborGraph(len(rows), indptr, indices, weights)


def node_rows(graph, flat=None) -> list:
    """Per-node slices of a flat per-edge array (default: the neighbor indices)."""
    flat = graph.indices if flat is None else np.asarray(flat)
    return np.split(flat, graph.indptr[1:-1])[: graph.num_nodes]


def random_cloud(rng, n, d=3, spread=1.0):
    return PointCloud(
        positions=rng.normal(scale=spread, size=(n, 3)),
        features=rng.normal(size=(n, d)),
    )


def random_symmetric_graph(rng, n, extra_edge_prob=0.2) -> NeighborGraph:
    """Ring lattice plus random mutual pairs; every node has a neighbor."""
    adjacency = [set() for _ in range(n)]
    if n == 1:
        return NeighborGraph(1, [0, 0], [])
    for i in range(n):
        j = (i + 1) % n
        adjacency[i].add(j)
        adjacency[j].add(i)
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < extra_edge_prob:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return graph_from_lists([sorted(a) for a in adjacency])


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
    support = sp.csr_matrix(dense)
    return SimilarityField(NeighborGraph(n, support.indptr, support.indices), support.data)


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
    for i, nbrs in enumerate(node_rows(graph)):
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
    for i, (nbrs, vals) in enumerate(zip(node_rows(graph), node_rows(graph, values))):
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


def reference_anchored_step(observed, latent, graph, weights, coupling):
    """Per node: solve (I + sum_j s_ij C) x = z_i + C sum_j s_ij x_j against the
    given latent state; nodes without neighbors keep their anchor z_i."""
    out = observed.copy()
    eye = np.eye(coupling.shape[0])
    for i, (nbrs, s) in enumerate(zip(node_rows(graph), node_rows(graph, weights))):
        if nbrs.size:
            out[i] = np.linalg.solve(
                eye + s.sum() * coupling, observed[i] + coupling @ (s @ latent[nbrs])
            )
    return out


def reference_diffusion_step(graph, signal, coefficient):
    """Per node: h_i - c * sum_j w_ij (h_i - h_j), for (N,) or (N, d) signals."""
    out = signal.copy()
    for i, (nbrs, w) in enumerate(zip(node_rows(graph), node_rows(graph, graph.weights))):
        out[i] = signal[i] - coefficient * (w @ (signal[i] - signal[nbrs]))
    return out


def reference_dirichlet(graph, signal):
    """h^T (I - D^-1 W) h with zero-degree rows treated as isolated."""
    lh = signal.copy()
    for i, (nbrs, w) in enumerate(zip(node_rows(graph), node_rows(graph, graph.weights))):
        deg = float(w.sum())
        if nbrs.size and deg > 0.0:
            lh[i] -= float(w @ signal[nbrs]) / deg
    return float(signal @ lh)


def reference_max_asymmetry(graph, values):
    """max |s_ij - s_ji| over all edges, a missing reverse edge counting as 0."""
    table = {}
    for i, (nbrs, vals) in enumerate(zip(node_rows(graph), node_rows(graph, values))):
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


# ---------------------------------------------------------------------------
# Dense Sinkhorn balancing: the N x N loop balance_similarity ran before it
# moved to two scaling vectors on the sparse support, kept as its oracle.
# ---------------------------------------------------------------------------

def reference_balance(sim, max_iterations=5000, tol=1e-13):
    """Alternate row and column normalization on the dense symmetrized field."""
    n = sim.num_nodes
    dense = np.zeros((n, n), dtype=np.float64)
    if sim.graph.num_edges:
        dense[sim.graph.edge_src, sim.graph.indices] = sim.flat_values
    dense = 0.5 * (dense + dense.T)
    active = dense.sum(axis=1) > 0
    residual = np.inf
    for _ in range(max_iterations):
        row = dense.sum(axis=1)
        row[~active] = 1.0
        dense /= row[:, None]
        col = dense.sum(axis=0)
        col[col == 0] = 1.0
        dense /= col[None, :]
        row_res = np.abs(dense.sum(axis=1)[active] - 1.0).max(initial=0.0)
        col_res = np.abs(dense.sum(axis=0)[active] - 1.0).max(initial=0.0)
        residual = max(row_res, col_res)
        if residual < tol:
            break
    if residual >= 1e-9:
        warnings.warn(
            f"similarity balancing stalled at residual {residual:.3e}; "
            "the support may admit no doubly stochastic scaling",
            stacklevel=2,
        )
        row = dense.sum(axis=1)
        row[~active] = 1.0
        dense /= row[:, None]
    else:
        dense = 0.5 * (dense + dense.T)
    support = sp.csr_matrix(dense)
    return SimilarityField(NeighborGraph(n, support.indptr, support.indices), support.data)


# ---------------------------------------------------------------------------
# Sparse direct solve: the factorization solve_exact used for small systems
# before it kept only conjugate gradients, kept as its oracle.
# ---------------------------------------------------------------------------

def reference_solve(model):
    """Exact minimizer by a sparse LU factorization of the assembled system."""
    rhs = model.observed.ravel()
    return spla.spsolve(_system_operator(model).tocsc(), rhs).reshape(model.observed.shape)
