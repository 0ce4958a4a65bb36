"""Quadratic feature energy: evaluation, exact minimizer, Dirichlet energy.

The energy couples a per-node fidelity term with a per-edge smoothness term
whose d x d coupling is a shared positive-definite matrix C scaled by
per-edge similarities. In the eigenbasis of C the channels decouple, and the
exact minimizer, found there by one conjugate-gradient run per channel,
doubles as the oracle for the iterative message-passing solvers.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cloud import NeighborGraph, segment_reduce

__all__ = [
    "CompatibilityMatrix",
    "QuadraticEnergyModel",
    "SolveError",
    "evaluate_energy",
    "solve_exact",
    "dirichlet_energy",
]

DEFAULT_EPSILON = 1e-4

RESIDUAL_BOUND = 1e-8


class SolveError(RuntimeError):
    """The linear solver failed to meet the required residual bound."""


@dataclass
class CompatibilityMatrix:
    """Channel coupling C = factor^T factor + epsilon * I.

    The parameterization keeps the realized matrix symmetric positive
    definite for any finite factor. ``identity`` builds an exact identity
    coupling (epsilon 0), used where channel independence must hold exactly.
    """

    factor: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        self.factor = np.asarray(self.factor, dtype=np.float64)
        if self.factor.ndim != 2 or self.factor.shape[0] != self.factor.shape[1]:
            raise ValueError(f"factor must be square, got shape {self.factor.shape}")
        if not np.all(np.isfinite(self.factor)):
            raise ValueError("factor must be finite")
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and >= 0")
        d = self.factor.shape[0]
        self.matrix = self.factor.T @ self.factor + self.epsilon * np.eye(d)

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "CompatibilityMatrix":
        return cls(factor=np.eye(dim), epsilon=0.0)


@dataclass
class QuadraticEnergyModel:
    """Fidelity plus smoothness energy on a similarity-weighted graph.

    ``graph.weights`` holds the nonnegative per-edge similarities;
    ``observed`` is the (N, d) feature array the latent state is anchored to.
    """

    graph: NeighborGraph
    compat: CompatibilityMatrix
    observed: np.ndarray

    def __post_init__(self):
        if self.graph.weights is None:
            raise ValueError("energy model requires per-edge similarities on the graph")
        self.observed = np.asarray(self.observed, dtype=np.float64)
        if self.observed.ndim != 2 or self.observed.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"observed must have shape (N={self.graph.num_nodes}, d), "
                f"got {self.observed.shape}"
            )
        if self.observed.shape[1] != self.compat.dim:
            raise ValueError("observed feature width must match the compatibility dimension")
        if not np.all(np.isfinite(self.observed)):
            raise ValueError("observed features must be finite")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def dim(self) -> int:
        return self.compat.dim

    def symmetrized_similarity(self) -> sp.csr_matrix:
        """N x N matrix with entry (i, j) = s_ij + s_ji over the directed edges."""
        s = self.graph.operator
        return (s + s.T).tocsr()


def evaluate_energy(model: QuadraticEnergyModel, latent: np.ndarray) -> float:
    """Sum of squared fidelity residuals and per-directed-edge smoothness terms.

    Each directed edge contributes once, so a mutual pair contributes twice.
    """
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != model.observed.shape:
        raise ValueError(
            f"latent shape {latent.shape} does not match observed {model.observed.shape}"
        )
    resid = latent - model.observed
    total = float(np.einsum("ij,ij->", resid, resid))
    if model.graph.num_edges:
        diff = latent[model.graph.edge_src] - latent[model.graph.indices]
        quad = np.einsum("ed,ed->e", diff @ model.compat.matrix, diff)
        total += float(model.graph.weights @ quad)
    return total


def channel_basis(compat: CompatibilityMatrix):
    """Eigenvalues lambda_c and orthonormal eigenvectors Q of C = Q diag(lambda) Q^T."""
    return np.linalg.eigh(compat.matrix)


def solve_exact(model: QuadraticEnergyModel) -> np.ndarray:
    """Exact minimizer X + L X C = Z of the energy, L the Laplacian of the
    symmetrized similarities (consistent with asymmetric input similarities).

    Each channel of X Q solves (I + lambda_c L) x'_c = z'_c by conjugate
    gradients, stopped once the residual falls to 1e-14 of the right-hand
    side's norm. Raises SolveError if a run does not get there, or if the
    residual of X + L X C - Z exceeds 1e-8 * (1 + max|observed|); the
    systems are positive definite, so this only trips on solver breakdown.
    """
    s_sym = model.symmetrized_similarity()
    laplacian = sp.diags(np.asarray(s_sym.sum(axis=1)).ravel()) - s_sym
    identity = sp.identity(model.num_nodes, format="csr")
    eigenvalues, basis = channel_basis(model.compat)
    rotated = model.observed @ basis
    for c, lam in enumerate(eigenvalues):
        rotated[:, c], info = spla.cg(identity + lam * laplacian, rotated[:, c], rtol=1e-14,
                                      atol=0.0, maxiter=50 * model.num_nodes)
        if info != 0:
            raise SolveError(f"conjugate gradient did not converge on channel {c} (info={info})")
    solution = rotated @ basis.T
    # checked in the original basis, so a wrong eigenbasis cannot pass
    residual = solution + (laplacian @ solution) @ model.compat.matrix - model.observed
    residual = float(np.max(np.abs(residual), initial=0.0))
    bound = RESIDUAL_BOUND * (1.0 + float(np.max(np.abs(model.observed), initial=0.0)))
    if residual > bound:
        raise SolveError(f"solver residual {residual:.3e} exceeds bound {bound:.3e}")
    return solution


def dirichlet_energy(graph: NeighborGraph, signal: np.ndarray) -> float:
    """h^T L h (summed over the channels of an (N, d) h), L = I - D^-1 W.

    Nodes without neighbors contribute signal_i^2 (their Laplacian row is the
    identity row, since D^-1 is undefined there). The random-walk Laplacian L
    is not symmetric, so for asymmetric weight patterns a channel's value can
    dip slightly below zero; a warning per such channel flags that.
    """
    signal = np.asarray(signal, dtype=np.float64)
    signal = signal if signal.ndim == 2 else signal.reshape(-1, 1)
    if signal.shape[0] != graph.num_nodes:
        raise ValueError(
            f"signal length {signal.shape[0]} does not match {graph.num_nodes} nodes"
        )
    if graph.weights is None:
        raise ValueError("dirichlet_energy requires edge weights")
    deg = segment_reduce(graph.weights, graph.indptr)
    mixed = graph.operator @ signal
    # all-zero weights behave like an isolated node
    active = deg > 0.0
    lh = signal.copy()
    lh[active] -= mixed[active] / deg[active, None]
    values = np.array([signal[:, j] @ lh[:, j] for j in range(signal.shape[1])])
    for value in values[values < -1e-12]:
        warnings.warn(
            f"Dirichlet energy is negative ({value:.3e}); the normalized Laplacian "
            "is asymmetric for this weight pattern",
            stacklevel=2,
        )
    return float(sum(values))
