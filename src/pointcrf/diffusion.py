"""Graph diffusion baseline and its comparison against anchored message passing.

Diffusion repeatedly mixes each node with its previous neighborhood state and
so drifts toward per-component consensus; the CRF update re-adds the original
observation every step. The comparison report quantifies both effects.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import NeighborGraph, segment_reduce
from .energy import CompatibilityMatrix, dirichlet_energy
from .crf_continuous import (
    ContinuousCrfState,
    CrfConfig,
    SimilarityField,
    crf_step,
)
from .transform import Activation

__all__ = [
    "ConvergenceError",
    "diffusion_step",
    "diffuse_to_steady",
    "multichannel_dirichlet",
    "ComparisonRow",
    "DiffusionComparison",
    "compare_crf_vs_diffusion",
]

DEFAULT_COEFFICIENT = 0.5
DEFAULT_STEADY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Diffusion failed to reach a steady state within the step budget."""

    def __init__(self, message: str, residual: float, state: np.ndarray, steps: int):
        super().__init__(message)
        self.residual = residual
        self.state = state
        self.steps = steps


def diffusion_step(
    signal: np.ndarray, graph: NeighborGraph, coefficient: float = DEFAULT_COEFFICIENT
) -> np.ndarray:
    """One explicit diffusion step: h_i <- h_i - c * sum_j w_ij (h_i - h_j).

    With normalized weights and c = 1/2 each node moves to the midpoint of
    itself and its weighted neighborhood mean. Isolated nodes are unchanged.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        return diffusion_step(signal[:, None], graph, coefficient)[:, 0]
    if signal.shape[0] != graph.num_nodes:
        raise ValueError(
            f"signal has {signal.shape[0]} rows for a {graph.num_nodes}-node graph"
        )
    if graph.weights is None:
        raise ValueError("diffusion requires edge weights")
    deg = segment_reduce(graph.weights, graph.indptr)
    return signal - coefficient * (deg[:, None] * signal - graph.operator @ signal)


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


def multichannel_dirichlet(graph: NeighborGraph, signal: np.ndarray) -> float:
    """Sum of the per-channel Dirichlet energies of an (N, d) signal."""
    return dirichlet_energy(graph, signal)


@dataclass
class ComparisonRow:
    step: int
    crf_fidelity: float
    crf_dirichlet: float
    diffusion_fidelity: float
    diffusion_dirichlet: float


@dataclass
class DiffusionComparison:
    """Per-step divergence-from-anchor and smoothness for both processes."""

    rows: list
    step_one_max_difference: float


def compare_crf_vs_diffusion(
    observed: np.ndarray, sim: SimilarityField, steps: int
) -> DiffusionComparison:
    """Run identity-coupled message passing and half-rate diffusion side by side.

    Both start from the observed features on the same normalized similarity
    graph. Their first steps coincide channel by channel; afterwards the
    diffusion track keeps smoothing while the CRF track stays anchored, which
    the per-step fidelity |state - observed| makes visible.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    observed = np.asarray(observed, dtype=np.float64)
    cfg = CrfConfig(
        compat=CompatibilityMatrix.identity(observed.shape[1]),
        steps=1,
        schedule="jacobi",
        convergence_tol=0.0,
        readout=Activation(),
    )
    state = ContinuousCrfState.from_observed(observed)
    heat = observed.copy()
    rows = []
    step_one = 0.0
    for step in range(1, steps + 1):
        state = crf_step(state, sim, cfg)
        heat = diffusion_step(heat, sim.graph, 0.5)
        if step == 1:
            step_one = float(np.max(np.abs(state.latent - heat), initial=0.0))
        rows.append(
            ComparisonRow(
                step=step,
                crf_fidelity=float(np.linalg.norm(state.latent - observed)),
                crf_dirichlet=multichannel_dirichlet(sim.graph, state.latent),
                diffusion_fidelity=float(np.linalg.norm(heat - observed)),
                diffusion_dirichlet=multichannel_dirichlet(sim.graph, heat),
            )
        )
    return DiffusionComparison(rows=rows, step_one_max_difference=step_one)
