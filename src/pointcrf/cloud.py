"""Point-cloud data model, file I/O, neighbor graphs, sampling, and interpolation.

Positions live in 3D Euclidean space; every point carries an optional feature
vector. Every neighbor search goes through one function: a KD-tree proposes
candidates, squared distances from coordinate differences decide, and ties go
to the lower index, so graphs equal a brute-force search without its N^2 table.
"""

import copy
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CloudParseError",
    "PointCloud",
    "NeighborGraph",
    "segment_reduce",
    "SampleIndex",
    "read_cloud",
    "write_cloud",
    "knn_graph",
    "dilated_knn_graph",
    "radius_graph",
    "farthest_point_sample",
    "knn_interpolate",
]

# Fine points closer than this to a coarse point copy its feature verbatim.
COINCIDENT_DISTANCE = 1e-12


class CloudParseError(ValueError):
    """A cloud or numeric table file failed to parse; the message names the file."""


@dataclass
class PointCloud:
    """N points with 3D positions and d-dimensional per-point features."""

    positions: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {self.positions.shape}")
        if self.features.ndim != 2:
            raise ValueError(f"features must have shape (N, d), got {self.features.shape}")
        if self.features.shape[0] != self.positions.shape[0]:
            raise ValueError(
                f"positions ({self.positions.shape[0]}) and features "
                f"({self.features.shape[0]}) disagree on point count"
            )
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions contain non-finite values")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_columns(cls, table: np.ndarray) -> "PointCloud":
        """Build a cloud from an (N, 3+d) table whose first 3 columns are x, y, z."""
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] < 3:
            raise ValueError(f"need at least 3 columns, got shape {table.shape}")
        return cls(positions=table[:, :3], features=table[:, 3:])

    def to_columns(self) -> np.ndarray:
        return np.hstack([self.positions, self.features])


def segment_reduce(values, indptr, ufunc=np.add, empty=0.0) -> np.ndarray:
    """Reduce flat per-edge values over each CSR row with ``ufunc.reduceat``.

    Row i covers ``values[indptr[i]:indptr[i + 1]]``; empty rows get ``empty``
    (reduceat alone would misread them). Sums run sequentially in edge order.
    """
    values = np.asarray(values)
    out = np.full((indptr.size - 1,) + values.shape[1:], empty, dtype=values.dtype)
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if values.shape[0]:
        out[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return out


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class NeighborGraph:
    """Directed adjacency in compressed sparse row (CSR) form.

    Node i's neighbors are ``indices[indptr[i]:indptr[i + 1]]`` in stored
    order; a row never holds the node itself or a duplicate. ``weights``,
    when present, holds one finite nonnegative scalar per edge, aligned with
    ``indices``. All three are flat read-only arrays, validated once here.
    ``operator`` is the weights as a cached N x N CSR matrix, so every
    weighted neighbor sum is one product ``graph.operator @ x``.
    """

    def __init__(self, num_nodes: int, indptr, indices, weights=None):
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        self.num_nodes = n = int(num_nodes)
        self.indptr = _frozen(np.asarray(indptr, dtype=np.int64).reshape(-1))
        self.indices = _frozen(np.asarray(indices, dtype=np.int64).reshape(-1))
        if (
            self.indptr.size != n + 1
            or self.indptr[0] != 0
            or np.any(np.diff(self.indptr) < 0)
            or self.indptr[-1] != self.indices.size
        ):
            raise ValueError("indptr must rise from 0 to the edge count in num_nodes + 1 entries")
        src, dst = self.edge_src, self.indices
        for bad, problem in (
            (dst == src, "lists itself as a neighbor"),
            ((dst < 0) | (dst >= n), "has a neighbor index out of range"),
        ):
            if bad.any():
                raise ValueError(f"node {src[np.argmax(bad)]} {problem}")
        keys = np.sort(src * n + dst)
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise ValueError(f"node {keys[repeated[0]] // n} lists a duplicate neighbor")
        self._set_weights(weights)

    def with_weights(self, weights) -> "NeighborGraph":
        """The same neighbor structure (shared, not revalidated) with new weights."""
        graph = copy.copy(self)
        graph._set_weights(weights)
        return graph

    def _set_weights(self, weights) -> None:
        self.__dict__.pop("operator", None)
        self.weights = None
        if weights is None:
            return
        flat = _frozen(self.edge_array(weights, "edge weights"))
        bad = ~np.isfinite(flat) | (flat < 0)
        if bad.any():
            raise ValueError(
                f"node {self.edge_src[np.argmax(bad)]}: edge weights must be finite and >= 0"
            )
        self.weights = flat

    @cached_property
    def edge_src(self) -> np.ndarray:
        """Source node of every edge (the CSR row index, expanded)."""
        return _frozen(np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def operator(self) -> sp.csr_matrix:
        """``to_csr()`` of the weights, built once and shared by every product."""
        return self.to_csr()

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    def edge_array(self, values, name: str) -> np.ndarray:
        """``values`` as one float64 per edge, aligned with ``indices``."""
        try:
            flat = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            flat = None
        if flat is None or flat.shape != (self.num_edges,):
            raise ValueError(
                f"{name} must be a flat array of {self.num_edges} values, one per edge"
            )
        return flat

    def to_csr(self, values=None) -> sp.csr_matrix:
        """N x N matrix of ``values`` (default: the weights, else ones), columns sorted."""
        if values is None:
            values = np.ones(self.num_edges) if self.weights is None else self.weights
        n = self.num_nodes
        matrix = sp.csr_matrix((values, self.indices, self.indptr), shape=(n, n), copy=True)
        matrix.sort_indices()
        return matrix


@dataclass
class SampleIndex:
    """Ordered subset of node indices produced by farthest point sampling."""

    selected: np.ndarray

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64).reshape(-1)
        if np.unique(self.selected).size != self.selected.size:
            raise ValueError("selected indices must be unique")

    def __len__(self) -> int:
        return int(self.selected.size)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_FORMATS = ("ply-ascii", "csv-xyz")

_PLY_SCALAR_TYPES = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
    "float", "float32", "double", "float64",
}


def read_table(path):
    """The comma-separated numeric table at ``path`` and the line number of each row.

    Blank lines are skipped and every row must have the first row's width.
    Errors are CloudParseError, worded ``"{path}: line N: ..."``.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise CloudParseError(f"{path}: {exc}") from None
    rows, lines = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if rows and len(parts) != len(rows[0]):
            raise CloudParseError(
                f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CloudParseError(f"{path}: line {lineno}: non-numeric field") from None
        lines.append(lineno)
    width = len(rows[0]) if rows else 0
    return np.array(rows, dtype=np.float64).reshape(len(rows), width), lines


def write_table(path, rows, header: str | None = None, sep: str = ",") -> None:
    """Write one line per row, cells joined by ``sep``, after ``header`` if given.

    An array goes through ``tolist()`` first, so every cell is a Python int
    or float written with ``repr``, which round-trips a float64 exactly.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    body = "".join(sep.join(map(repr, row)) + "\n" for row in rows)
    Path(path).write_text(("" if header is None else header + "\n") + body)


def read_cloud(path, format: str) -> PointCloud:
    """Read a point cloud from ``path``.

    ``csv-xyz`` expects comma-separated rows ``x,y,z[,f1..fd]`` with no header;
    ``ply-ascii`` expects an ascii 1.0 PLY whose vertex properties include
    x, y, z. Extra columns/properties become the feature vector in file order.
    Every error names the file.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if format == "ply-ascii":
        try:
            # bytes that are not UTF-8 survive decoding, so a binary body
            # fails on its header's format line, not on the decoder
            return _parse_ply(Path(path).read_text(errors="surrogateescape"))
        except ValueError as exc:
            raise CloudParseError(f"{path}: {exc}") from None
    table, lines = read_table(path)
    if lines and table.shape[1] < 3:
        raise CloudParseError(
            f"{path}: line {lines[0]}: expected at least 3 columns, got {table.shape[1]}"
        )
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise CloudParseError(f"{path}: line {lines[np.argmin(finite)]}: non-finite value")
    return PointCloud.from_columns(table if lines else np.empty((0, 3)))


def write_cloud(cloud: PointCloud, path, format: str) -> None:
    """Write ``cloud`` to ``path``; read_cloud round-trips values exactly."""
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if format == "csv-xyz":
        write_table(path, cloud.to_columns())
        return
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.num_points}"]
    header += [f"property double {name}" for name in ("x", "y", "z")]
    header += [f"property double f{j}" for j in range(cloud.feature_dim)]
    header.append("end_header")
    write_table(path, cloud.to_columns(), "\n".join(header), sep=" ")


def _parse_ply(text: str) -> PointCloud:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError("line 1: missing 'ply' magic")
    vertex_count = None
    property_names: list[str] = []
    saw_format = False
    data_start = None
    current_element = None
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        keyword = tokens[0]
        if keyword == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise CloudParseError(
                    f"line {lineno}: only 'format ascii 1.0' is supported"
                )
            saw_format = True
        elif keyword == "element":
            if len(tokens) != 3:
                raise CloudParseError(f"line {lineno}: malformed element declaration")
            try:
                count = int(tokens[2])
            except ValueError:
                raise CloudParseError(f"line {lineno}: bad element count") from None
            current_element = tokens[1]
            if tokens[1] == "vertex":
                vertex_count = count
            elif count != 0:
                raise CloudParseError(
                    f"line {lineno}: unsupported element '{tokens[1]}'"
                )
        elif keyword == "property":
            if current_element is None:
                raise CloudParseError(f"line {lineno}: property before any element")
            if current_element != "vertex":
                continue  # trailing zero-count elements carry no data rows
            if len(tokens) != 3 or tokens[1] not in _PLY_SCALAR_TYPES:
                raise CloudParseError(
                    f"line {lineno}: unsupported property declaration {raw.strip()!r}"
                )
            property_names.append(tokens[2])
        elif keyword == "end_header":
            data_start = lineno
            break
        else:
            raise CloudParseError(f"line {lineno}: unexpected keyword {keyword!r}")
    if not saw_format:
        raise CloudParseError("header: missing format declaration")
    if data_start is None:
        raise CloudParseError("header: missing end_header")
    if vertex_count is None:
        raise CloudParseError("header: missing element vertex declaration")
    for axis in ("x", "y", "z"):
        if axis not in property_names:
            raise CloudParseError(f"header: vertex property '{axis}' missing")

    values = np.zeros((vertex_count, len(property_names)), dtype=np.float64)
    row = 0
    for lineno, raw in enumerate(lines[data_start:], start=data_start + 1):
        if not raw.strip():
            continue
        if row >= vertex_count:
            raise CloudParseError(f"line {lineno}: more data rows than declared vertices")
        parts = raw.split()
        if len(parts) != len(property_names):
            raise CloudParseError(
                f"line {lineno}: expected {len(property_names)} values, got {len(parts)}"
            )
        try:
            values[row] = [float(p) for p in parts]
        except ValueError:
            raise CloudParseError(f"line {lineno}: non-numeric field") from None
        row += 1
    if row != vertex_count:
        raise CloudParseError(
            f"header declared {vertex_count} vertices but file has {row} data rows"
        )
    axes = [property_names.index(a) for a in ("x", "y", "z")]
    feature_cols = [j for j in range(len(property_names)) if j not in axes]
    return PointCloud(positions=values[:, axes], features=values[:, feature_cols])


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

# Extra neighbors the fixed-width query fetches beyond the ``count`` it must
# rank, so that a row rarely ends inside a tie and needs the ball.
_SLACK = 2
# Pairs whose coordinate differences are held in memory at once.
_PAIR_BLOCK = 1 << 16


def _ranked_pairs(points, queries=None, count=None, r2=None):
    """Candidate (query, point) pairs sorted by (row, d2, col), with the rank in each row.

    Row i ranks the points nearest ``queries[i]`` (no ``queries``: point i,
    itself left out). With ``count``, ranks below ``count`` equal a
    brute-force search; with ``r2``, the row holds every point within it. d2
    comes from coordinate differences (coincident points give exactly 0.0)
    and ties go to the lower index.

    A ``count`` search is one fixed-width KD-tree query of ``count + _SLACK``
    candidates per row (plus the row's own point), each row sorted on its
    own, keeping its ``count`` nearest. A row whose farthest candidate is
    still within a relative 1e-9 of the reach, the tree's ``count``-th
    distance, may have been cut inside a tie. Such rows, and radius searches,
    take every point of a ball padded by that 1e-9 instead, so points tied at
    the reach all come back. Many points tied at the reach (e.g. coincident
    ones) still cost O(N^2).
    """
    from scipy.spatial import cKDTree  # deferred: only graph building pays the import

    self_rows = queries is None
    queries = points if self_rows else queries
    tree = cKDTree(points)
    m, n = queries.shape[0], points.shape[0]
    if count is None:
        return _ball_pairs(tree, points, queries, np.arange(m), math.sqrt(r2), self_rows)
    need = min(count + self_rows, n)
    width = min(need + _SLACK, n)
    dist, cols = (a.reshape(m, width) for a in tree.query(queries, k=width))
    reach = dist[:, need - 1]
    tied = (width < n) & (dist[:, -1] <= reach * (1.0 + 1e-9))
    fixed = np.flatnonzero(~tied)
    cols = cols[fixed]
    cols.sort(axis=1)
    if self_rows:  # a row that is not tied holds its own point exactly once
        width -= 1
        cols = cols[cols != fixed[:, None]].reshape(fixed.size, width)
    d2 = _pair_d2(queries, points, np.repeat(fixed, width), cols.reshape(-1))
    d2 = d2.reshape(fixed.size, width)
    keep = need - self_rows
    order = np.argsort(d2, axis=1, kind="stable")[:, :keep]
    pairs = (
        np.repeat(fixed, keep),
        np.take_along_axis(cols, order, axis=1).reshape(-1),
        np.take_along_axis(d2, order, axis=1).reshape(-1),
        np.tile(np.arange(keep), fixed.size),
    )
    if not tied.any():
        return pairs
    ball = _ball_pairs(tree, points, queries, np.flatnonzero(tied), reach[tied], self_rows)
    merged = [np.concatenate(parts) for parts in zip(pairs, ball)]
    order = np.argsort(merged[0], kind="stable")
    return tuple(part[order] for part in merged)


def _ball_pairs(tree, points, queries, rows_of, reach, self_rows):
    """``_ranked_pairs`` for queries ``rows_of``: every point within ``reach``, padded."""
    found = tree.query_ball_point(queries[rows_of], reach * (1.0 + 1e-9))
    sizes = np.fromiter(map(len, found), dtype=np.int64, count=rows_of.size)
    rows = np.repeat(rows_of, sizes)
    cols = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=rows.size)
    if self_rows:
        rows, cols = rows[rows != cols], cols[rows != cols]
    d2 = _pair_d2(queries, points, rows, cols)
    order = np.lexsort((cols, d2, rows))
    rows, cols, d2 = rows[order], cols[order], d2[order]
    return rows, cols, d2, np.arange(rows.size) - _indptr(rows, len(queries))[rows]


def _pair_d2(queries, points, rows, cols) -> np.ndarray:
    """Squared distance of each (row, col) pair from coordinate differences.

    The differences are formed ``_PAIR_BLOCK`` pairs at a time; each block
    sums them with the same einsum, so the bits do not depend on the block.
    """
    d2 = np.empty(rows.size)
    for s in range(0, rows.size, _PAIR_BLOCK):
        diff = queries[rows[s : s + _PAIR_BLOCK]] - points[cols[s : s + _PAIR_BLOCK]]
        d2[s : s + _PAIR_BLOCK] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _indptr(rows, m) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])


def _pair_graph(n, rows, cols, d2, keep) -> NeighborGraph:
    return NeighborGraph(n, _indptr(rows[keep], n), cols[keep], np.sqrt(d2[keep]))


def knn_graph(cloud: PointCloud, k: int) -> NeighborGraph:
    """k nearest neighbors per node, sorted by distance, ties to lower index."""
    if cloud.num_points < 1:
        raise ValueError("knn_graph requires at least one point")
    if k < 1:
        raise ValueError("k must be >= 1")
    rows, cols, d2, rank = _ranked_pairs(cloud.positions, count=k)
    return _pair_graph(cloud.num_points, rows, cols, d2, rank < k)


def dilated_knn_graph(cloud: PointCloud, k: int, dil: int) -> NeighborGraph:
    """Keep every dil-th distance rank among the k*dil nearest neighbors.

    Rank selection is dil, 2*dil, ..., k*dil (1-indexed, self excluded), so
    dil=1 reproduces knn_graph. When fewer than k*dil candidates exist the
    selection truncates after the available ranks.
    """
    if cloud.num_points < 1:
        raise ValueError("dilated_knn_graph requires at least one point")
    if k < 1 or dil < 1:
        raise ValueError("k and dil must be >= 1")
    rows, cols, d2, rank = _ranked_pairs(cloud.positions, count=k * dil)
    keep = (rank < k * dil) & (rank % dil == dil - 1)
    return _pair_graph(cloud.num_points, rows, cols, d2, keep)


def radius_graph(cloud: PointCloud, r: float) -> NeighborGraph:
    """Connect each node to every other point with squared distance <= r."""
    if r <= 0:
        raise ValueError("radius must be > 0")
    if cloud.num_points < 1:
        raise ValueError("radius_graph requires at least one point")
    rows, cols, d2, _ = _ranked_pairs(cloud.positions, r2=r)
    return _pair_graph(cloud.num_points, rows, cols, d2, d2 <= r)


def sample_count(ratio: float, num_points: int) -> int:
    """Number of points a ratio keeps: max(1, ceil(ratio * N)).

    The tiny slack absorbs float error in ratio * N so that e.g. 0.1 * 10
    counts as 1 point, not 2.
    """
    return max(1, math.ceil(ratio * num_points - 1e-12))


def farthest_point_sample(cloud: PointCloud, ratio: float, seed_index: int = 0) -> SampleIndex:
    """Greedy farthest point sampling starting from ``seed_index``.

    Repeatedly adds the point with maximum distance to the already selected
    set (ties to the lower index) until ceil(ratio * N) points are chosen.
    """
    n = cloud.num_points
    if n < 1:
        raise ValueError("farthest_point_sample requires at least one point")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if not 0 <= seed_index < n:
        raise ValueError(f"seed_index {seed_index} out of range for {n} points")
    count = sample_count(ratio, n)
    selected = [seed_index]
    diff = cloud.positions - cloud.positions[seed_index]
    min_d2 = np.einsum("ij,ij->i", diff, diff)
    # selected entries are parked below any real distance so coincident
    # points can never re-select them
    min_d2[seed_index] = -1.0
    while len(selected) < count:
        nxt = int(np.argmax(min_d2))  # argmax returns the first (lowest) index on ties
        selected.append(nxt)
        diff = cloud.positions - cloud.positions[nxt]
        min_d2 = np.minimum(min_d2, np.einsum("ij,ij->i", diff, diff))
        min_d2[nxt] = -1.0
    return SampleIndex(selected=np.array(selected, dtype=np.int64))


def knn_interpolate(coarse: PointCloud, fine_positions: np.ndarray, k: int = 3) -> np.ndarray:
    """Upsample coarse features to fine positions by inverse-squared-distance weights.

    Each fine point takes a weighted mean of its min(k, coarse.N) nearest
    coarse features with weights proportional to 1/d^2. A fine point closer
    than 1e-12 to a coarse point copies that coarse feature verbatim.
    """
    if coarse.num_points < 1:
        raise ValueError("knn_interpolate requires a non-empty coarse cloud")
    if k < 1:
        raise ValueError("k must be >= 1")
    fine_positions = np.asarray(fine_positions, dtype=np.float64)
    if fine_positions.ndim != 2 or fine_positions.shape[1] != 3:
        raise ValueError(f"fine_positions must have shape (M, 3), got {fine_positions.shape}")
    if not np.all(np.isfinite(fine_positions)):
        raise ValueError("fine_positions must be finite")
    take = min(k, coarse.num_points)
    rows, cols, d2, rank = _ranked_pairs(coarse.positions, fine_positions, count=take)
    nearest = cols[rank == 0]
    coincident = d2[rank == 0] < COINCIDENT_DISTANCE**2
    # copied rows drop out before 1/d^2, so no weight divides by zero
    keep = (rank < take) & ~coincident[rows]
    w = 1.0 / d2[keep]
    indptr = _indptr(rows[keep], len(fine_positions))
    num = segment_reduce(w[:, None] * coarse.features[cols[keep]], indptr)
    out = coarse.features[nearest]
    out[~coincident] = num[~coincident] / segment_reduce(w, indptr)[~coincident, None]
    return out
