"""Shared builders for randomized test instances."""

import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pointcrf import (
    CloudParseError,
    CompatibilityMatrix,
    ContinuousCrfState,
    NeighborGraph,
    PointCloud,
    SimilarityField,
    diffusion_step,
    pairwise_similarity,
    run_crf,
)
from pointcrf.cloud import COINCIDENT_DISTANCE, _indptr
from pointcrf.diffusion import DEFAULT_COEFFICIENT


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
# Padded-ball candidate search: the KD-tree core every kNN graph and
# knn_interpolate ran before the fixed-width query, kept as its referee.
# ---------------------------------------------------------------------------

def reference_ranked_pairs(points, queries=None, count=None, r2=None):
    """Candidate (query, point) pairs sorted by (row, d2, col), with the rank in each row.

    Row i holds every point within the ``count``-th smallest squared distance
    of ``queries[i]`` (no ``queries``: of point i, itself left out), or within
    ``r2``. A KD-tree only proposes candidates, searching a ball padded by a
    relative 1e-9 so points tied at the reach all come back; d2 comes from
    coordinate differences (coincident points give exactly 0.0) and ties go
    to the lower index, as in a brute-force search. Many points tied at the
    reach (e.g. coincident ones) still cost O(N^2).
    """
    from scipy.spatial import cKDTree  # deferred: only graph building pays the import

    self_rows = queries is None
    queries = points if self_rows else queries
    tree = cKDTree(points)
    m = queries.shape[0]
    if count is None:
        reach = math.sqrt(r2)
    else:
        reach = tree.query(queries, k=[min(count + self_rows, len(points))])[0].reshape(m)
    found = tree.query_ball_point(queries, reach * (1.0 + 1e-9))
    sizes = np.fromiter(map(len, found), dtype=np.int64, count=m)
    rows = np.repeat(np.arange(m, dtype=np.int64), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=rows.size)
    if self_rows:
        rows, cols = rows[rows != cols], cols[rows != cols]
    diff = queries[rows] - points[cols]
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((cols, d2, rows))
    rows, cols, d2 = rows[order], cols[order], d2[order]
    return rows, cols, d2, np.arange(rows.size) - _indptr(rows, m)[rows]


# ---------------------------------------------------------------------------
# Dense Sinkhorn balancing: the N x N loop balance_similarity ran before its
# sparse and then Newton rewrites, kept as its oracle where it converges.
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
# Assembled exact system and sparse direct solve: the Kronecker system and
# the factorization solve_exact used before it split the channels in the
# eigenbasis of C, kept as its oracle.
# ---------------------------------------------------------------------------

def reference_system(model):
    """The SPD matrix M with gradient(evaluate_energy)(X) = 2 (M X - Z).

    M = I + kron(L, C) where L is the graph Laplacian of the symmetrized
    similarities; using the symmetrized edge set keeps the oracle consistent
    with the energy even for asymmetric input similarities.
    """
    s_sym = model.symmetrized_similarity()
    deg = np.asarray(s_sym.sum(axis=1)).ravel()
    laplacian = sp.diags(deg) - s_sym
    n, d = model.num_nodes, model.dim
    system = sp.kron(laplacian, sp.csr_matrix(model.compat.matrix), format="csr")
    return system + sp.identity(n * d, format="csr")


def reference_solve(model):
    """Exact minimizer by a sparse LU factorization of the assembled system."""
    rhs = model.observed.ravel()
    return spla.spsolve(reference_system(model).tocsc(), rhs).reshape(model.observed.shape)


# ---------------------------------------------------------------------------
# Gauss-seidel sweep: the per-row loop crf_step ran before its triangular
# solves in the eigenbasis of C, kept as its oracle.
# ---------------------------------------------------------------------------

def reference_gauss_seidel_step(observed, latent, sim, compat):
    """Latent state after one in-order sweep of (I + C)^-1 (z_i + C sum_j s_ij x_j);
    nodes without neighbors take their anchor z_i."""
    coupling = compat.matrix
    inverse = np.linalg.inv(np.eye(compat.dim) + coupling)
    latent = latent.copy()
    bounds, indices, vals = sim.graph.indptr.tolist(), sim.graph.indices, sim.flat_values
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a == b:
            latent[i] = observed[i]
        else:
            msg = vals[a:b] @ latent[indices[a:b]]
            latent[i] = inverse @ (observed[i] + coupling @ msg)
    return latent


# ---------------------------------------------------------------------------
# Diffusion to a steady state: the consensus referee. Plain diffusion drifts
# to per-component consensus, the contrast to the anchored update that the
# diffusion tests pin; the library itself only runs fixed step counts.
# ---------------------------------------------------------------------------

DEFAULT_STEADY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Diffusion failed to reach a steady state within the step budget."""

    def __init__(self, message: str, residual: float, state: np.ndarray, steps: int):
        super().__init__(message)
        self.residual = residual
        self.state = state
        self.steps = steps


def diffuse_to_steady(
    signal: np.ndarray,
    graph: NeighborGraph,
    coefficient: float = DEFAULT_COEFFICIENT,
    tol: float = DEFAULT_STEADY_TOL,
    max_steps: int | None = None,
):
    """Iterate diffusion until the per-step change drops below ``tol``.

    Returns (steady_state, steps_applied); a step that would change nothing
    by at least ``tol`` is not applied, so an already-steady input reports
    zero steps. Raises ConvergenceError (carrying the final residual and
    state) if the budget of max_steps (default 10 * N) runs out.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_steps is None:
        max_steps = 10 * graph.num_nodes
    current = np.array(signal, dtype=np.float64)
    for step in range(max_steps):
        candidate = diffusion_step(current, graph, coefficient)
        change = float(np.max(np.abs(candidate - current), initial=0.0))
        if change < tol:
            return current, step
        current = candidate
    candidate = diffusion_step(current, graph, coefficient)
    residual = float(np.max(np.abs(candidate - current), initial=0.0))
    if residual < tol:
        return current, max_steps
    raise ConvergenceError(
        f"diffusion did not settle within {max_steps} steps "
        f"(final residual {residual:.3e}, tol {tol:.3e})",
        residual=residual,
        state=current,
        steps=max_steps,
    )


# ---------------------------------------------------------------------------
# Energy-traced layer and per-count step sweep: crf_convolve as it ran before
# it stepped the prepared sweep without an energy trace, and sweep-steps as
# it ran before it resumed one run across its counts.
# ---------------------------------------------------------------------------

def reference_crf_convolve(inputs, graph, unary, projection, guide_features, cfg):
    """Unary transform, similarity, a traced ``run_crf`` from the anchor, readout."""
    observed = unary.apply(inputs)
    sim = pairwise_similarity(guide_features, graph, projection)
    state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
    return cfg.readout.apply(state.latent)


def reference_sweep_rows(observed, sim, crf, step_counts):
    """``sweep.csv`` rows with timing off, from one fresh ``run_crf`` per count."""
    rows = []
    for count in step_counts:
        state = run_crf(
            ContinuousCrfState.from_observed(observed), sim, replace(crf, steps=count)
        )
        fidelity = float(np.linalg.norm(state.latent - observed))
        rows.append((str(count), reference_fmt(state.energy_trace[-1]), reference_fmt(fidelity),
                     reference_fmt(0.0)))
    return rows


# ---------------------------------------------------------------------------
# Text tables: the three readers and the writers of comma-separated numbers
# that cloud.py, crf_discrete.py and cli.py each kept before they shared
# cloud.read_table and cloud.format_rows, kept as their referees.
# ---------------------------------------------------------------------------

def reference_parse_csv(text: str) -> PointCloud:
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 3:
                raise CloudParseError(f"line {lineno}: expected at least 3 columns, got {width}")
        elif len(parts) != width:
            raise CloudParseError(
                f"line {lineno}: expected {width} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CloudParseError(f"line {lineno}: non-numeric field") from None
    if not rows:
        return PointCloud(positions=np.empty((0, 3)), features=np.empty((0, 0)))
    return PointCloud.from_columns(np.array(rows, dtype=np.float64))


def reference_read_matrix_csv(path) -> np.ndarray:
    """Comma-separated matrix, one row per non-blank line; a non-numeric entry
    or a row of another length than the first is a ValueError naming the line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(rows[-1])}")
    return np.array(rows, dtype=np.float64)


def reference_read_probabilities(path, tol: float = 1e-6) -> np.ndarray:
    """Read an N x L probability table, validating each row sums to 1."""
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValueError(f"{path}: row {lineno}: expected {width} columns")
        try:
            row = [float(v) for v in parts]
        except ValueError:
            raise ValueError(f"{path}: row {lineno}: non-numeric entry") from None
        total = sum(row)
        if not math.isfinite(total):
            raise ValueError(f"{path}: row {lineno}: non-finite probability")
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"{path}: row {lineno}: probabilities sum to {total!r}, expected 1"
            )
        if any(v < 0 for v in row):
            raise ValueError(f"{path}: row {lineno}: negative probability")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no probability rows found")
    return np.array(rows, dtype=np.float64)


def reference_format_value(value: float) -> str:
    # repr round-trips float64 exactly, which keeps file output deterministic
    # and makes read(write(cloud)) bit-identical.
    return repr(float(value))


def reference_write_cloud(cloud: PointCloud, path, format: str) -> None:
    """Write ``cloud`` to ``path``; read_cloud round-trips values exactly."""
    path = Path(path)
    if format == "csv-xyz":
        lines = [
            ",".join(reference_format_value(v) for v in row)
            for row in cloud.to_columns()
        ]
        path.write_text("".join(line + "\n" for line in lines))
        return
    d = cloud.feature_dim
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.num_points}"]
    for name in ("x", "y", "z"):
        header.append(f"property double {name}")
    for j in range(d):
        header.append(f"property double f{j}")
    header.append("end_header")
    body = [" ".join(reference_format_value(v) for v in row) for row in cloud.to_columns()]
    path.write_text("".join(line + "\n" for line in header + body))


def reference_write_probabilities(path, table: np.ndarray) -> None:
    table = np.asarray(table, dtype=np.float64)
    lines = [",".join(repr(float(v)) for v in row) for row in table]
    Path(path).write_text("".join(line + "\n" for line in lines))


def reference_fmt(value: float) -> str:
    return repr(float(value))


def reference_write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(cell for cell in row) for row in rows)
    path.write_text("".join(line + "\n" for line in lines))
