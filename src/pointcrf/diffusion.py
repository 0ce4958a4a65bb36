"""Graph diffusion baseline and its comparison against anchored message passing.

Diffusion repeatedly mixes each node with its previous neighborhood state and
so drifts toward per-component consensus; the CRF update re-adds the original
observation every step. The comparison report quantifies both effects.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import NeighborGraph, segment_reduce
from .energy import CompatibilityMatrix, dirichlet_energy
from .crf_continuous import SimilarityField, _prepare_sweep

__all__ = [
    "diffusion_step",
    "multichannel_dirichlet",
    "ComparisonRow",
    "DiffusionComparison",
    "compare_crf_vs_diffusion",
]

DEFAULT_COEFFICIENT = 0.5


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
    if observed.ndim != 2:
        raise ValueError(f"observed must be an (N, d) array, got shape {observed.shape}")
    sweep = _prepare_sweep(sim, CompatibilityMatrix.identity(observed.shape[1]), "jacobi", observed)
    crf = heat = observed
    rows = []
    step_one = 0.0
    for step in range(1, steps + 1):
        crf = sweep(crf)
        heat = diffusion_step(heat, sim.graph, 0.5)
        if step == 1:
            step_one = float(np.max(np.abs(crf - heat), initial=0.0))
        rows.append(
            ComparisonRow(
                step=step,
                crf_fidelity=float(np.linalg.norm(crf - observed)),
                crf_dirichlet=multichannel_dirichlet(sim.graph, crf),
                diffusion_fidelity=float(np.linalg.norm(heat - observed)),
                diffusion_dirichlet=multichannel_dirichlet(sim.graph, heat),
            )
        )
    return DiffusionComparison(rows=rows, step_one_max_difference=step_one)
