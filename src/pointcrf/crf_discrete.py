"""Discrete-label CRF refinement as message passing on a point-cloud graph.

Per-node label distributions are pulled toward (or away from) their
neighborhood consensus through a label compatibility matrix, with edge
strengths from a mixture of Gaussian kernels over point features.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cloud import NeighborGraph, read_table, write_table
from .transform import AffineLayer, read_layer_stack, write_layer_stack

__all__ = [
    "UNARY_FLOOR",
    "LabelField",
    "KernelMixture",
    "LabelCompatibility",
    "kernel_weights",
    "discrete_crf_step",
    "discrete_crf_infer",
    "read_probabilities",
    "write_probabilities",
]

# Unary probabilities are floored here before the log; -log(0) is undefined.
UNARY_FLOOR = 1e-12

SIMPLEX_TOL = 1e-9

# Each row of a probability file must sum to 1 within this.
PROBABILITY_TOL = 1e-6


def _check_simplex(rows: np.ndarray, name: str, tol: float = SIMPLEX_TOL) -> None:
    if np.any(rows < 0) or not np.all(np.isfinite(rows)):
        raise ValueError(f"{name} rows must be finite and nonnegative")
    if rows.shape[0] and np.max(np.abs(rows.sum(axis=1) - 1.0)) > tol:
        raise ValueError(f"{name} rows must sum to 1 within {tol}")


@dataclass
class LabelField:
    """Unary probabilities and the current approximate posterior, both (N, L)."""

    unary: np.ndarray
    posterior: np.ndarray

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=np.float64)
        self.posterior = np.asarray(self.posterior, dtype=np.float64)
        if self.unary.ndim != 2 or self.unary.shape != self.posterior.shape:
            raise ValueError("unary and posterior must be matching (N, L) arrays")
        _check_simplex(self.unary, "unary")
        _check_simplex(self.posterior, "posterior")

    @property
    def num_nodes(self) -> int:
        return self.unary.shape[0]

    @property
    def num_labels(self) -> int:
        return self.unary.shape[1]

    @classmethod
    def from_unary(cls, unary: np.ndarray) -> "LabelField":
        unary = np.asarray(unary, dtype=np.float64)
        return cls(unary=unary, posterior=unary.copy())


@dataclass
class KernelMixture:
    """Mixture of Gaussian kernels over projected feature differences.

    Component m contributes weight_m * exp(-|P_m^T f_i - P_m^T f_j|^2).
    Negative mixture weights are allowed but can make edge weights negative.
    """

    projections: list
    weights: np.ndarray

    def __post_init__(self):
        self.projections = [np.asarray(p, dtype=np.float64) for p in self.projections]
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(self.projections) != self.weights.size or not self.projections:
            raise ValueError("need one mixture weight per projection, at least one")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("mixture weights must be finite")
        dims = {p.shape[0] for p in self.projections}
        if len(dims) != 1:
            raise ValueError("all projections must share the input feature dimension")
        for p in self.projections:
            if p.ndim != 2 or not np.all(np.isfinite(p)):
                raise ValueError("projections must be finite 2D matrices")

    @property
    def feature_dim(self) -> int:
        return self.projections[0].shape[0]

    @classmethod
    def default(cls, feature_dim: int) -> "KernelMixture":
        """Single unit-weight component with the identity projection."""
        return cls(projections=[np.eye(feature_dim)], weights=np.array([1.0]))

    def save(self, path) -> None:
        """Store as a layer stack: components first, then a 1-output combiner."""
        layers = [
            AffineLayer(weight=p.T, bias=np.zeros(p.shape[1])) for p in self.projections
        ]
        layers.append(
            AffineLayer(weight=self.weights.reshape(1, -1), bias=np.zeros(1))
        )
        write_layer_stack(path, layers)

    @classmethod
    def load(cls, path) -> "KernelMixture":
        layers = read_layer_stack(path)
        if len(layers) < 2:
            raise ValueError(f"{path}: kernel file needs components plus a combiner layer")
        combiner = layers[-1]
        if combiner.out_dim != 1 or combiner.in_dim != len(layers) - 1:
            raise ValueError(
                f"{path}: final layer must be 1 x {len(layers) - 1} mixture weights"
            )
        return cls(
            projections=[layer.weight.T for layer in layers[:-1]],
            weights=combiner.weight.ravel(),
        )


@dataclass
class LabelCompatibility:
    """L x L label coupling applied to aggregated neighbor messages."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"compatibility matrix must be square, got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("compatibility matrix must be finite")

    @property
    def num_labels(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, num_labels: int) -> "LabelCompatibility":
        return cls(matrix=np.eye(num_labels))

    @classmethod
    def potts_complement(cls, num_labels: int) -> "LabelCompatibility":
        """All-ones minus identity: rewards neighborhood label agreement.

        Up to the softmax's shift invariance this is the negative of the
        identity coupling, which penalizes agreement instead.
        """
        return cls(matrix=np.ones((num_labels, num_labels)) - np.eye(num_labels))

    @classmethod
    def load(cls, path) -> "LabelCompatibility":
        return cls(matrix=read_table(path)[0])


def kernel_weights(
    features: np.ndarray, graph: NeighborGraph, mix: KernelMixture
) -> np.ndarray:
    """Kernel value of every edge, one float per edge aligned with ``graph.indices``."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"features must have shape ({graph.num_nodes}, d), got {features.shape}"
        )
    if features.shape[1] != mix.feature_dim:
        raise ValueError(
            f"kernel mixture expects feature width {mix.feature_dim}, "
            f"got {features.shape[1]}"
        )
    flat = np.zeros(graph.num_edges, dtype=np.float64)
    for omega, proj in zip(mix.weights, mix.projections):
        projected = features @ proj
        diff = projected[graph.edge_src] - projected[graph.indices]
        flat += omega * np.exp(-np.einsum("ed,ed->e", diff, diff))
    if np.any(flat < 0):
        warnings.warn(
            "negative mixture weights produced negative edge weights", stacklevel=2
        )
    return flat


def _clamped_log_unary(unary: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(unary, UNARY_FLOOR))


def discrete_crf_step(
    field: LabelField, graph: NeighborGraph, weights, compat: LabelCompatibility
) -> LabelField:
    """One simultaneous posterior update from the previous posteriors.

    Nodes whose aggregated message is exactly zero (isolated nodes, or all
    incident weights zero) keep their unary distribution verbatim, up to the
    flooring of entries below the log clamp.
    """
    if field.num_nodes != graph.num_nodes:
        raise ValueError("label field and graph disagree on node count")
    if compat.num_labels != field.num_labels:
        raise ValueError("compatibility size does not match the label count")
    w = graph.edge_array(weights, "weights")
    messages = graph.to_csr(w) @ field.posterior
    logits = _clamped_log_unary(field.unary) - messages @ compat.matrix.T
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    posterior = shifted / shifted.sum(axis=1, keepdims=True)
    silent = ~messages.any(axis=1)
    unary = field.unary[silent]
    clamped = np.maximum(unary, UNARY_FLOOR)
    floored = np.all(unary >= UNARY_FLOOR, axis=1, keepdims=True)
    posterior[silent] = np.where(floored, unary, clamped / clamped.sum(axis=1, keepdims=True))
    return LabelField(unary=field.unary, posterior=posterior)


def discrete_crf_infer(
    unary: np.ndarray,
    features: np.ndarray,
    graph: NeighborGraph,
    mix: KernelMixture,
    compat: LabelCompatibility,
    steps: int,
) -> LabelField:
    """Initialize the posterior at the unaries and run ``steps`` updates."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    weights = kernel_weights(features, graph, mix)
    field = LabelField.from_unary(unary)
    for _ in range(steps):
        field = discrete_crf_step(field, graph, weights, compat)
    return field


# ---------------------------------------------------------------------------
# Probability CSV (N rows, L columns)
# ---------------------------------------------------------------------------

def read_probabilities(path) -> np.ndarray:
    """Read an N x L probability table whose rows each sum to 1 within PROBABILITY_TOL."""
    table, lines = read_table(path)
    if not lines:
        raise ValueError(f"{path}: no probability rows found")
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are reported below
        totals = np.cumsum(table, axis=1)[:, -1]  # each row added left to right
    bad = ~(np.abs(totals - 1.0) <= PROBABILITY_TOL) | (table < 0).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        total, where = float(totals[row]), f"{path}: row {lines[row]}"
        if not math.isfinite(total):
            raise ValueError(f"{where}: non-finite probability")
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"{where}: probabilities sum to {total!r}, expected 1")
        raise ValueError(f"{where}: negative probability")
    return table


def write_probabilities(path, table: np.ndarray) -> None:
    write_table(path, np.asarray(table, dtype=np.float64))
