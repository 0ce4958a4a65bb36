"""Continuous-feature CRF message passing on point-cloud graphs.

One step updates every node from its observed anchor plus a channel-coupled
convex combination of neighbor states; iterating drives the latent features
toward the exact quadratic-energy minimizer while the anchor prevents the
collapse to neighborhood consensus that plain diffusion suffers.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .cloud import NeighborGraph, PointCloud, knn_graph, knn_interpolate, segment_reduce
from .energy import CompatibilityMatrix, QuadraticEnergyModel, evaluate_energy
from .transform import Activation, PointwiseTransform

__all__ = [
    "SimilarityField",
    "ContinuousCrfState",
    "CrfConfig",
    "CrfGradients",
    "UnsupportedScheduleError",
    "pairwise_similarity",
    "balance_similarity",
    "similarity_energy_model",
    "crf_step",
    "run_crf",
    "crf_convolve",
    "mean_field_covariance",
    "coordinate_descent_step",
    "mean_field_mean_step",
    "crf_gradients",
    "decode_level",
]

ROW_SUM_TOL = 1e-9

SCHEDULES = ("jacobi", "gauss-seidel")


class UnsupportedScheduleError(ValueError):
    """Raised when an operation does not support the requested schedule."""


class SimilarityField:
    """Per-edge normalized similarities: each node's outgoing values sum to 1.

    ``graph`` is the neighbor graph weighted with one flat similarity per
    edge; ``flat_values`` is those weights, aligned with ``graph.indices``.
    Nodes without neighbors carry an empty row. Message aggregation is one
    product with the graph's cached CSR operator, which sums each row
    sequentially in column order, so results do not depend on thread count.
    """

    def __init__(self, graph: NeighborGraph, values):
        self.graph = graph.with_weights(graph.edge_array(values, "similarities"))
        self.flat_values = self.graph.weights
        sums = segment_reduce(self.flat_values, graph.indptr)
        off = np.flatnonzero((graph.degrees > 0) & (np.abs(sums - 1.0) > ROW_SUM_TOL))
        if off.size:
            raise ValueError(f"node {off[0]}: similarities sum to {sums[off[0]]!r}, expected 1")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def aggregate(self, node_values: np.ndarray) -> np.ndarray:
        """Per-node sum of similarity * node_values[neighbor] over outgoing edges."""
        return self.graph.operator @ node_values

    def half_weighted_graph(self) -> NeighborGraph:
        """Graph weighted with half the normalized similarities.

        Each mutual pair appears in both directed edge sums of the quadratic
        energy; halving makes the energy whose exact per-node minimization
        is the message-passing update, so gauss-seidel traces descend it.
        """
        return self.graph.with_weights(0.5 * self.flat_values)

    def max_asymmetry(self) -> float:
        """max |s_ij - s_ji| over all edges (missing reverse edges count as 0)."""
        if not self.graph.num_edges:
            return 0.0
        s = self.graph.operator
        return float(abs(s - s.T).max())


@dataclass
class ContinuousCrfState:
    """Observed anchors, latent means, optional per-node covariances, trace."""

    observed: np.ndarray
    latent: np.ndarray
    covariances: np.ndarray | None = None
    steps_done: int = 0
    energy_trace: list = field(default_factory=list)

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=np.float64)
        self.latent = np.asarray(self.latent, dtype=np.float64)
        if self.observed.shape != self.latent.shape or self.observed.ndim != 2:
            raise ValueError(
                f"observed {self.observed.shape} and latent {self.latent.shape} "
                "must be matching (N, d) arrays"
            )
        if not (np.all(np.isfinite(self.observed)) and np.all(np.isfinite(self.latent))):
            raise ValueError("state arrays must be finite")
        if self.covariances is not None:
            self.covariances = np.asarray(self.covariances, dtype=np.float64)
            n, d = self.observed.shape
            if self.covariances.shape != (n, d, d):
                raise ValueError(f"covariances must have shape ({n}, {d}, {d})")
            if not np.allclose(self.covariances, np.swapaxes(self.covariances, 1, 2)):
                raise ValueError("covariances must be symmetric")
            if np.any(np.linalg.eigvalsh(self.covariances) <= 0):
                raise ValueError("covariances must be positive definite")

    @classmethod
    def from_observed(cls, observed: np.ndarray) -> "ContinuousCrfState":
        observed = np.asarray(observed, dtype=np.float64)
        return cls(observed=observed, latent=observed.copy())


@dataclass
class CrfConfig:
    """Message-passing run parameters.

    ``convergence_tol`` stops the run before applying an update that would
    change no latent coordinate by that much; 0 runs exactly ``steps`` steps
    and infinity runs none (useful for testing the unary path alone).
    """

    compat: CompatibilityMatrix
    steps: int = 1
    schedule: str = "jacobi"
    convergence_tol: float = 0.0
    readout: Activation = field(default_factory=lambda: Activation.leaky_relu(0.1))

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if np.isnan(self.convergence_tol) or self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0 (may be inf)")


def pairwise_similarity(
    features: np.ndarray, graph: NeighborGraph, projection: PointwiseTransform
) -> SimilarityField:
    """Softmax of negative squared projected distances over each neighborhood.

    The projection acts as a learned metric; with the identity projection the
    distances are plain Euclidean. Softmax rows are computed with
    max-subtraction so large distances cannot underflow the normalizer.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"features must have shape ({graph.num_nodes}, d'), got {features.shape}"
        )
    projected = projection.apply(features)
    return SimilarityField(graph, _softmax_similarity(projected, graph))


def _softmax_similarity(projected: np.ndarray, graph: NeighborGraph) -> np.ndarray:
    """Per-row softmax of -|p_j - p_i|^2 over each neighborhood, one value per edge."""
    src, indptr = graph.edge_src, graph.indptr
    diff = projected[graph.indices] - projected[src]
    logits = -np.einsum("ed,ed->e", diff, diff)
    shifted = np.exp(logits - segment_reduce(logits, indptr, np.maximum, -np.inf)[src])
    return shifted / segment_reduce(shifted, indptr)[src]


def _softmax_similarity_backward(
    projected: np.ndarray, graph: NeighborGraph, values: np.ndarray, g_values: np.ndarray
) -> np.ndarray:
    """Cotangent of the projected features given the similarity cotangents."""
    src, dst, indptr = graph.edge_src, graph.indices, graph.indptr
    g_logits = values * (g_values - segment_reduce(values * g_values, indptr)[src])
    scaled = -2.0 * g_logits[:, None] * (projected[src] - projected[dst])
    g_projected = segment_reduce(scaled, indptr)
    np.add.at(g_projected, dst, -scaled)
    return g_projected


def balance_similarity(
    sim: SimilarityField, max_iterations: int = 5000, tol: float = 1e-13
) -> SimilarityField:
    """Rebalance a similarity field into a symmetric row-stochastic one.

    Averages each edge with its reverse, then alternately normalizes rows and
    columns (Sinkhorn) on the symmetric support and symmetrizes the result.
    The iterate is diag(r) A diag(c) on the averaged support A: rows set
    r = 1 / (A c) where active, columns c = 1 / (A^T r) where nonzero, and
    the residuals reuse both products, so a sweep is two sparse matvecs.
    A symmetric field makes the message-passing update exact coordinate
    descent of the halved-similarity energy, which guarantees non-increasing
    gauss-seidel traces. A stalled run (some sparsity patterns, e.g. stars,
    admit no doubly stochastic scaling) warns and ends on a row normalization.
    """
    n = sim.num_nodes
    s = sim.graph.operator
    a = 0.5 * (s + s.T)
    at = a.T
    r, c = np.ones(n), np.ones(n)
    ac = a @ c
    active = ac > 0
    residual = np.inf
    for _ in range(max_iterations):
        np.divide(1.0, ac, out=r, where=active)
        atr = at @ r
        np.divide(1.0, atr, out=c, where=atr != 0)
        ac = a @ c
        residual = np.abs(np.stack((r * ac, c * atr)) - 1.0).max(initial=0.0, where=active)
        if residual < tol:
            break
        if max(r.max(initial=1.0), c.max(initial=1.0)) > 1e100:
            # unscalable supports (stars) push scalings to overflow: fold into A
            a = sp.diags(r) @ a @ sp.diags(c)
            at = a.T
            ac *= r
            r[:], c[:] = 1.0, 1.0
    if residual >= 1e-9:
        warnings.warn(
            f"similarity balancing stalled at residual {residual:.3e}; "
            "the support may admit no doubly stochastic scaling",
            stacklevel=2,
        )
        np.divide(1.0, ac, out=r, where=active)
    p = sp.diags(r) @ a @ sp.diags(c)
    p = sp.csr_matrix(p if residual >= 1e-9 else 0.5 * (p + p.T))
    p.eliminate_zeros()
    p.sort_indices()
    return SimilarityField(NeighborGraph(n, p.indptr, p.indices), p.data)


def similarity_energy_model(
    sim: SimilarityField, compat: CompatibilityMatrix, observed: np.ndarray
) -> QuadraticEnergyModel:
    """Quadratic energy model the message-passing iteration descends."""
    return QuadraticEnergyModel(
        graph=sim.half_weighted_graph(), compat=compat, observed=observed
    )


def _shared_update_matrices(compat: CompatibilityMatrix):
    return compat.matrix, np.linalg.inv(np.eye(compat.dim) + compat.matrix)


def crf_step(state: ContinuousCrfState, sim: SimilarityField, cfg: CrfConfig):
    """One message-passing sweep; appends the post-step energy to the trace.

    The jacobi schedule reads every neighbor from the pre-step state; the
    gauss-seidel schedule consumes updates in node order within the sweep.
    Nodes without neighbors relax toward their anchor alone.
    """
    if state.observed.shape[0] != sim.num_nodes:
        raise ValueError("state and similarity field disagree on node count")
    if state.observed.shape[1] != cfg.compat.dim:
        raise ValueError("feature width does not match the compatibility dimension")
    coupling, inverse = _shared_update_matrices(cfg.compat)
    if cfg.schedule == "jacobi":
        messages = sim.aggregate(state.latent)
        latent = (state.observed + messages @ coupling.T) @ inverse.T
    else:
        latent = state.latent.copy()
        bounds, indices, vals = sim.graph.indptr.tolist(), sim.graph.indices, sim.flat_values
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            msg = vals[a:b] @ latent[indices[a:b]] if b > a else np.zeros(cfg.compat.dim)
            latent[i] = inverse @ (state.observed[i] + coupling @ msg)
    energy = evaluate_energy(
        similarity_energy_model(sim, cfg.compat, state.observed), latent
    )
    return replace(
        state,
        latent=latent,
        steps_done=state.steps_done + 1,
        energy_trace=state.energy_trace + [energy],
    )


def run_crf(state: ContinuousCrfState, sim: SimilarityField, cfg: CrfConfig):
    """Run up to cfg.steps sweeps with the config's early-stopping rule.

    An update that changes no coordinate by at least ``convergence_tol`` is
    discarded and the run stops, so an infinite tolerance runs zero steps.
    The initial energy is prepended to the trace when it is empty.
    """
    if not state.energy_trace:
        initial = evaluate_energy(
            similarity_energy_model(sim, cfg.compat, state.observed), state.latent
        )
        state = replace(state, energy_trace=[initial])
    for _ in range(cfg.steps):
        candidate = crf_step(state, sim, cfg)
        change = float(np.max(np.abs(candidate.latent - state.latent), initial=0.0))
        if change < cfg.convergence_tol:
            return state
        state = candidate
    return state


def crf_convolve(
    inputs: np.ndarray,
    graph: NeighborGraph,
    unary: PointwiseTransform,
    projection: PointwiseTransform,
    guide_features: np.ndarray,
    cfg: CrfConfig,
    return_state: bool = False,
):
    """Full layer: unary transform, similarity, message passing, readout.

    ``guide_features`` drive the similarities (typically lower-level features
    at the same resolution); ``inputs`` pass through the unary transform to
    become both the anchor and the initial latent state.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    observed = unary.apply(inputs)
    if observed.shape[1] != cfg.compat.dim:
        raise ValueError(
            f"unary output width {observed.shape[1]} does not match "
            f"compatibility dimension {cfg.compat.dim}"
        )
    sim = pairwise_similarity(guide_features, graph, projection)
    state = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg)
    out = cfg.readout.apply(state.latent)
    if return_state:
        return out, state
    return out


def mean_field_covariance(sim: SimilarityField, compat: CompatibilityMatrix) -> np.ndarray:
    """Per-node posterior covariance: half the inverse of (I + sum_j w_ij).

    With unit row sums this is 0.5 * (I + C)^-1 for every node that has
    neighbors and exactly 0.5 * I for isolated nodes.
    """
    sums = segment_reduce(sim.flat_values, sim.graph.indptr)
    distinct, which = np.unique(sums, return_inverse=True)
    inverses = np.linalg.inv(np.eye(compat.dim) + distinct[:, None, None] * compat.matrix)
    return 0.5 * inverses[which]


def coordinate_descent_step(
    observed: np.ndarray,
    latent: np.ndarray,
    graph: NeighborGraph,
    similarities,
    compat: CompatibilityMatrix,
) -> np.ndarray:
    """Simultaneous sweep of the per-node exact minimizer of the energy.

    Works with raw (not necessarily normalized) similarities: each node
    solves (I + sum_j s_ij C) x = z_i + C sum_j s_ij x_j against the pre-step
    latent state.
    """
    observed = np.asarray(observed, dtype=np.float64)
    latent = np.asarray(latent, dtype=np.float64)
    s = graph.edge_array(similarities, "similarity")
    coupling = compat.matrix
    weighted = graph.to_csr(s) @ latent
    lhs = np.eye(compat.dim) + segment_reduce(s, graph.indptr)[:, None, None] * coupling
    out = np.linalg.solve(lhs, (observed + weighted @ coupling.T)[:, :, None])[:, :, 0]
    isolated = graph.degrees == 0
    out[isolated] = observed[isolated]
    return out


def mean_field_mean_step(
    observed: np.ndarray,
    latent: np.ndarray,
    graph: NeighborGraph,
    similarities,
    compat: CompatibilityMatrix,
) -> np.ndarray:
    """Simultaneous mean update of the factorized Gaussian approximation.

    Deliberately written as an independent route from coordinate_descent_step:
    it first forms every node's posterior covariance explicitly and then
    scales the anchored message by twice that covariance. Equivalence of the
    two routes is a library invariant exercised by the test suite.
    """
    observed = np.asarray(observed, dtype=np.float64)
    latent = np.asarray(latent, dtype=np.float64)
    s = graph.edge_array(similarities, "similarity")
    coupling = compat.matrix
    sums = segment_reduce(s, graph.indptr)
    covariances = 0.5 * np.linalg.inv(np.eye(compat.dim) + sums[:, None, None] * coupling)
    message = graph.to_csr(s) @ latent @ coupling.T
    return 2.0 * np.einsum("nij,nj->ni", covariances, observed + message)


@dataclass
class CrfGradients:
    """Cotangents of the unrolled layer with respect to its parameters."""

    inputs: np.ndarray
    unary: list
    projection: list
    compat_factor: np.ndarray


def crf_gradients(
    inputs: np.ndarray,
    graph: NeighborGraph,
    unary: PointwiseTransform,
    projection: PointwiseTransform,
    guide_features: np.ndarray,
    cfg: CrfConfig,
    upstream: np.ndarray,
) -> CrfGradients:
    """Reverse-mode gradients through the unrolled jacobi iteration.

    Returns cotangents for the layer inputs, the unary and projection layer
    parameters, and the compatibility factor. The realized number of applied
    steps is treated as fixed; the gauss-seidel schedule is not supported.
    """
    if cfg.schedule != "jacobi":
        raise UnsupportedScheduleError(
            "crf_gradients supports only the jacobi schedule"
        )
    inputs = np.asarray(inputs, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)

    # Forward pass, mirroring crf_convolve but keeping every intermediate.
    observed, unary_trace = unary.apply_with_trace(inputs)
    if observed.shape[1] != cfg.compat.dim:
        raise ValueError("unary output width does not match the compatibility dimension")
    guide = np.asarray(guide_features, dtype=np.float64)
    projected, proj_trace = projection.apply_with_trace(guide)
    sim = SimilarityField(graph, _softmax_similarity(projected, graph))

    coupling, inverse = _shared_update_matrices(cfg.compat)
    trajectory = [observed.copy()]
    messages = []
    for _ in range(cfg.steps):
        agg = sim.aggregate(trajectory[-1])
        candidate = (observed + agg @ coupling.T) @ inverse.T
        change = float(np.max(np.abs(candidate - trajectory[-1]), initial=0.0))
        if change < cfg.convergence_tol:
            break
        messages.append(agg)
        trajectory.append(candidate)
    final = trajectory[-1]

    if upstream.shape != final.shape:
        raise ValueError(f"upstream cotangent must have shape {final.shape}")

    # Backward pass.
    g_hidden = upstream * cfg.readout.derivative(final)
    g_observed = np.zeros_like(observed)
    g_coupling = np.zeros_like(coupling)
    g_inverse = np.zeros_like(inverse)
    g_edge_values = np.zeros_like(sim.flat_values)
    src, dst = graph.edge_src, graph.indices
    transposed = sim.graph.operator.T
    for step in range(len(messages) - 1, -1, -1):
        agg = messages[step]
        previous = trajectory[step]
        pre_inverse = observed + agg @ coupling.T
        g_pre = g_hidden @ inverse
        g_inverse += g_hidden.T @ pre_inverse
        g_observed += g_pre
        g_agg = g_pre @ coupling
        g_coupling += g_pre.T @ agg
        g_hidden = transposed @ g_agg
        g_edge_values += np.einsum("ed,ed->e", g_agg[src], previous[dst])
    g_observed += g_hidden  # the initial latent state is the unary output

    # Through the shared (I + C)^-1 factor.
    g_coupling += -(inverse.T @ g_inverse @ inverse.T)

    # Softmax and squared-distance backward into the projected guide features.
    g_projected = _softmax_similarity_backward(projected, graph, sim.flat_values, g_edge_values)
    _, projection_grads = projection.backward(proj_trace, g_projected)
    g_inputs, unary_grads = unary.backward(unary_trace, g_observed)
    g_factor = cfg.compat.factor @ (g_coupling + g_coupling.T)
    return CrfGradients(
        inputs=g_inputs,
        unary=unary_grads,
        projection=projection_grads,
        compat_factor=g_factor,
    )


def decode_level(
    coarse: PointCloud,
    fine: PointCloud,
    k: int,
    unary: PointwiseTransform,
    projection: PointwiseTransform,
    cfg: CrfConfig,
) -> np.ndarray:
    """Restore coarse features at fine resolution and append the guide.

    Coarse features are first upsampled to the fine positions by inverse
    squared-distance interpolation, then refined by message passing on the
    fine cloud's k-nearest-neighbor graph with the fine features as guide.
    The result is the refined features concatenated with the guide, so the
    output width is the compat dimension plus the fine feature width.
    """
    if coarse.num_points < 1 or fine.num_points < 1:
        raise ValueError("decode_level requires non-empty clouds")
    upsampled = knn_interpolate(coarse, fine.positions, k=k)
    graph = knn_graph(fine, k)
    restored = crf_convolve(upsampled, graph, unary, projection, fine.features, cfg)
    return np.hstack([restored, fine.features])
