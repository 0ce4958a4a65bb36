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
import scipy.sparse.linalg as spla

from .cloud import NeighborGraph, PointCloud, knn_graph, knn_interpolate, segment_reduce
from .energy import CompatibilityMatrix, QuadraticEnergyModel, channel_basis, evaluate_energy
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
    """Observed anchors, latent means, steps applied and the energy trace."""

    observed: np.ndarray
    latent: np.ndarray
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
    projected = projection.apply(_guide_array(features, graph))
    return SimilarityField(graph, _softmax_similarity(projected, graph))


def _guide_array(features, graph: NeighborGraph) -> np.ndarray:
    """Guide features as a float array with one row per graph node."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"features must have shape ({graph.num_nodes}, d'), got {features.shape}"
        )
    return features


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

    Averages each edge with its reverse into A = (S + S^T) / 2 and finds one
    scaling vector x with x * (A x) = 1 on every row that has neighbors, by
    the symmetric Newton iteration of Knight & Ruiz ("A fast algorithm for
    matrix balancing", IMA J. Numer. Anal. 33(3), 2013). ``max_iterations``
    caps the sparse matrix-vector products, and the run converges once
    max |x_i (A x)_i - 1| over those rows is below ``tol``. The result is
    diag(x) A diag(x), formed entrywise as a_ij (x_i x_j) so that it is
    exactly symmetric. A symmetric field makes the message-passing update
    exact coordinate descent of the halved-similarity energy, which
    guarantees non-increasing gauss-seidel traces.

    Nodes without neighbors keep an empty row. A run that stops short
    (residual 1e-9 or more when the budget is spent, a scaling leaving
    [1e-100, 1e100] or a singular Newton system) warns and returns the
    row-normalized last iterate. The warning names a node without a partner
    in a perfect matching of the support, which proves that no doubly
    stochastic scaling exists (stars), or else says why the run stopped.
    """
    n = sim.num_nodes
    s = sim.graph.operator
    a = 0.5 * (s + s.T)
    isolated = (a @ np.ones(n)) == 0
    # a unit diagonal on isolated rows balances them at x = 1 exactly
    b = a + sp.diags(isolated.astype(np.float64)) if isolated.any() else a
    x = np.ones(n)
    v = b @ x
    rk = 1.0 - v
    residual, rout = np.abs(rk).max(initial=0.0), rk @ rk
    matvecs, eta, diverged = 1, 0.1, False
    while residual >= tol and matvecs + 1 < max_iterations:
        # the floor keeps an inner solve running while max |rk| >= tol
        inner_tol = max(eta * eta * rout, 0.25 * tol * tol)
        x_new, used = _newton_step(b, x, v, rk, inner_tol, max_iterations - matvecs - 1)
        matvecs += used
        if x_new is None or not (1e-100 <= x_new.min() and x_new.max() <= 1e100):
            diverged = True
            break
        x = x_new
        v = x * (b @ x)
        matvecs += 1
        rk, rold = 1.0 - v, rout
        residual, rout = np.abs(rk).max(initial=0.0), rk @ rk
        # the paper's forcing term (g = 0.9, eta_max = 0.1); with eta <= 0.1
        # its safeguard max(eta, g * eta_prev^2) never applies
        eta = min(0.1, 0.9 * rout / rold)
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    scale = x[rows] * x[a.indices]  # x_i x_j = x_j x_i, so the field is exactly symmetric
    if residual >= 1e-9:
        warnings.warn(
            f"similarity balancing stalled at residual {residual:.3e}; "
            + _stall_cause(a, isolated, diverged, max_iterations),
            stacklevel=2,
        )
        scale /= v[rows]
    p = sp.csr_matrix((a.data * scale, a.indices, a.indptr), shape=(n, n))
    p.eliminate_zeros()
    p.sort_indices()
    return SimilarityField(NeighborGraph(n, p.indptr, p.indices), p.data)


def _newton_step(b, x, v, rk, inner_tol, budget):
    """One Knight-Ruiz Newton step, solved by diagonally preconditioned CG.

    Returns the next scaling x * y, with every factor kept in
    0.1 <= y <= 3 (the paper's delta and Delta), and the matrix-vector
    products used; the scaling is None when the Newton system is singular
    along the search direction.
    """
    y, p = np.ones(len(x)), np.zeros(len(x))
    z = rk / v
    rho, rho_prev, used = rk @ z, np.inf, 0
    while rho > inner_tol and used < budget:
        p = z + (rho / rho_prev) * p
        w = x * (b @ (x * p)) + v * p
        used += 1
        curvature = p @ w
        if not curvature > 0:
            return None, used
        alpha = rho / curvature
        step = alpha * p
        y_new = y + step
        if y_new.min() <= 0.1 or y_new.max() >= 3.0:
            # stop where the step first meets the boundary of the cone
            moving = step != 0
            y += ((np.where(step < 0, 0.1, 3.0) - y)[moving] / step[moving]).min() * step
            break
        y = y_new
        rk = rk - alpha * w
        rho_prev, z = rho, rk / v
        rho = rk @ z
    return x * y, used


def _stall_cause(a, isolated, diverged, max_iterations) -> str:
    """Why balancing stopped short: a node that no perfect matching covers,
    which rules out any doubly stochastic scaling, or how the run ended."""
    from scipy.sparse.csgraph import maximum_bipartite_matching

    a = a.copy()
    a.eliminate_zeros()
    unmatched = np.flatnonzero((maximum_bipartite_matching(a, perm_type="column") < 0) & ~isolated)
    if unmatched.size:
        return (f"node {unmatched[0]} has no partner in a perfect matching of the support, "
                "so no doubly stochastic scaling exists")
    if diverged:
        return "the Newton steps diverged (a scaling left [1e-100, 1e100] or the system became singular)"
    return f"the budget of {max_iterations} matrix-vector products ran out"


def similarity_energy_model(
    sim: SimilarityField, compat: CompatibilityMatrix, observed: np.ndarray
) -> QuadraticEnergyModel:
    """Quadratic energy model the message-passing iteration descends."""
    return QuadraticEnergyModel(
        graph=sim.half_weighted_graph(), compat=compat, observed=observed
    )


def _prepare_sweep(sim: SimilarityField, compat: CompatibilityMatrix, schedule: str, observed):
    """The ``crf_step`` update of one run as a function latent -> next latent.

    Rejects an anchor of the wrong shape or with a non-finite entry. All
    that does not depend on the latent state is built once. Gauss-seidel
    sweeps each channel of x' = x Q, C = Q diag(lambda) Q^T, by one
    triangular solve (I - a_c tril(S)) x'_c = z'_c / (1 + lambda_c) +
    a_c triu(S) x_old'_c, a_c = lambda_c / (1 + lambda_c), rhs z'_i on rows
    without neighbors; those rows then take z_i exactly, not up to Q Q^T
    rounding.
    """
    if observed.shape != (sim.num_nodes, compat.dim):
        raise ValueError(f"anchor features have shape {observed.shape}; this field and "
                         f"compatibility matrix need ({sim.num_nodes}, {compat.dim})")
    bad = ~np.isfinite(observed).all(axis=1)
    if bad.any():
        raise ValueError(f"anchor features must be finite; row {np.argmax(bad)} is not")
    isolated = sim.graph.degrees == 0
    s = sim.graph.operator
    if schedule == "jacobi":
        coupling = compat.matrix
        inverse = np.linalg.inv(np.eye(compat.dim) + coupling)

        def update(latent):
            return (observed + (s @ latent) @ coupling.T) @ inverse.T
    else:
        eigenvalues, basis = channel_basis(compat)
        lower, upper = sp.tril(s, format="csr"), sp.triu(s, format="csr")
        identity = sp.identity(sim.num_nodes, format="csr")
        anchor = observed @ basis
        channels = []
        for c, lam in enumerate(eigenvalues):
            a = lam / (1.0 + lam)
            rhs = np.where(isolated, anchor[:, c], anchor[:, c] / (1.0 + lam))
            channels.append((a, identity - a * lower, rhs))

        def update(latent):
            previous = latent @ basis
            rotated = np.empty_like(anchor)
            for c, (a, system, rhs) in enumerate(channels):
                rhs = rhs + a * (upper @ previous[:, c])
                rotated[:, c] = spla.spsolve_triangular(system, rhs, unit_diagonal=True)
            return rotated @ basis.T

    def sweep(latent):
        latent = update(latent)
        latent[isolated] = observed[isolated]
        return latent

    return sweep


def _accepted_states(sweep, latent: np.ndarray, steps: int, tol: float):
    """Yield the state after each of up to ``steps`` sweeps from ``latent``.

    An update that changes no coordinate by at least ``tol`` is discarded
    and ends the run, so an infinite tolerance yields nothing.
    """
    for _ in range(steps):
        candidate = sweep(latent)
        if float(np.max(np.abs(candidate - latent), initial=0.0)) < tol:
            return
        latent = candidate
        yield latent


def crf_step(state: ContinuousCrfState, sim: SimilarityField, cfg: CrfConfig):
    """One message-passing sweep; appends the post-step energy to the trace.

    Every node with neighbors moves to (I + C)^-1 (z_i + C sum_j s_ij x_j),
    its exact energy minimizer given unit row sums. The jacobi schedule
    reads every neighbor from the pre-step state; the gauss-seidel schedule
    consumes updates in node order within the sweep. A node without
    neighbors has no pairwise term, so it moves to its anchor z_i.
    """
    latent = _prepare_sweep(sim, cfg.compat, cfg.schedule, state.observed)(state.latent)
    energy = evaluate_energy(similarity_energy_model(sim, cfg.compat, state.observed), latent)
    return replace(state, latent=latent, steps_done=state.steps_done + 1,
                   energy_trace=state.energy_trace + [energy])


def run_crf(state: ContinuousCrfState, sim: SimilarityField, cfg: CrfConfig):
    """Run up to cfg.steps ``crf_step`` sweeps with the config's early stop.

    The sweep and the energy model are prepared once, and the result equals
    the same number of chained ``crf_step`` calls. An update that changes
    no coordinate by at least ``convergence_tol`` is discarded and the run
    stops, so an infinite tolerance runs zero steps. The initial energy is
    prepended to the trace when it is empty.
    """
    sweep = _prepare_sweep(sim, cfg.compat, cfg.schedule, state.observed)
    model = similarity_energy_model(sim, cfg.compat, state.observed)
    trace = list(state.energy_trace) or [evaluate_energy(model, state.latent)]
    latent, steps = state.latent, state.steps_done
    for latent in _accepted_states(sweep, latent, cfg.steps, cfg.convergence_tol):
        trace.append(evaluate_energy(model, latent))
        steps += 1
    return replace(state, latent=latent, steps_done=steps, energy_trace=trace)


def crf_convolve(
    inputs: np.ndarray,
    graph: NeighborGraph,
    unary: PointwiseTransform,
    projection: PointwiseTransform,
    guide_features: np.ndarray,
    cfg: CrfConfig,
) -> np.ndarray:
    """Full layer: unary transform, similarity, message passing, readout.

    ``guide_features`` drive the similarities (typically lower-level features
    at the same resolution); ``inputs`` pass through the unary transform to
    become both the anchor and the initial latent state. The message passing
    takes the states ``run_crf`` accepts, with the same early stop, so the
    output equals the readout of ``run_crf``'s latent state bit for bit; no
    energy is evaluated.
    """
    observed = unary.apply(inputs)
    sim = pairwise_similarity(guide_features, graph, projection)
    sweep = _prepare_sweep(sim, cfg.compat, cfg.schedule, observed)
    latent = observed.copy()  # so an identity layer never returns the caller's array
    for latent in _accepted_states(sweep, latent, cfg.steps, cfg.convergence_tol):
        pass
    return cfg.readout.apply(latent)


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
    parameters, and the compatibility factor. The forward pass takes the
    states ``run_crf`` accepts, with the same early stop, so the result
    equals the gradient of exactly that many steps with tolerance 0: the
    realized number of applied steps is treated as fixed. Nodes without
    neighbors stay at their anchor, so their cotangent passes straight to
    the unary output. The backward pass recomputes each S x_t instead of
    storing it. The gauss-seidel schedule is not supported.
    """
    if cfg.schedule != "jacobi":
        raise UnsupportedScheduleError(
            "crf_gradients supports only the jacobi schedule"
        )
    upstream = np.asarray(upstream, dtype=np.float64)

    # Forward pass, mirroring crf_convolve but keeping every intermediate.
    observed, unary_trace = unary.apply_with_trace(inputs)
    projected, proj_trace = projection.apply_with_trace(_guide_array(guide_features, graph))
    sim = SimilarityField(graph, _softmax_similarity(projected, graph))
    sweep = _prepare_sweep(sim, cfg.compat, "jacobi", observed)
    trajectory = [observed, *_accepted_states(sweep, observed, cfg.steps, cfg.convergence_tol)]
    final = trajectory[-1]

    if upstream.shape != final.shape:
        raise ValueError(f"upstream cotangent must have shape {final.shape}")

    # Backward pass.
    coupling = cfg.compat.matrix
    inverse = np.linalg.inv(np.eye(cfg.compat.dim) + coupling)
    isolated = np.flatnonzero(graph.degrees == 0)
    g_hidden = upstream * cfg.readout.derivative(final)
    g_observed = np.zeros_like(observed)
    g_coupling = np.zeros_like(coupling)
    g_inverse = np.zeros_like(inverse)
    g_edge_values = np.zeros_like(sim.flat_values)
    src, dst = graph.edge_src, graph.indices
    transposed = sim.graph.operator.T
    for previous in reversed(trajectory[:-1]):
        agg = sim.aggregate(previous)
        # isolated nodes step to their anchor, past the shared inverse
        g_observed[isolated] += g_hidden[isolated]
        g_hidden[isolated] = 0.0
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
