"""Reference computations the benchmark checks the program's outputs against.

They are written from the documented maths with scipy (cKDTree neighbour
search, scipy.sparse aggregation) and share no code with the package under
test. All of them run outside the timed interval.
"""

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree


class CheckFailed(Exception):
    """A job's output disagrees with the reference or an invariant."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close_relative(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    """max |got - want| <= tol * max |want| (shapes must match)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    require(bool(np.all(np.isfinite(got))), f"{name}: non-finite values")
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    require(err <= tol * scale, f"{name}: max error {err:.3e} exceeds {tol:.0e} x {scale:.3e}")


def knn(positions: np.ndarray, k: int) -> np.ndarray:
    """(N, k) neighbour indices ordered by distance, self excluded.

    Inputs are continuous random clouds, so distance ties do not occur and
    the order agrees with any exact kNN.
    """
    n = positions.shape[0]
    _, idx = cKDTree(positions).query(positions, k=k + 1)
    not_self = idx != np.arange(n)[:, None]
    require(bool(np.all(not_self.sum(axis=1) == k)), "reference kNN: coincident points")
    return idx[not_self].reshape(n, k)


def edge_matrix(nbrs: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
    """Sparse N x N matrix with values[i, r] at (i, nbrs[i, r])."""
    n, k = nbrs.shape
    rows = np.repeat(np.arange(n), k)
    return sp.csr_matrix((values.ravel(), (rows, nbrs.ravel())), shape=(n, n))


def softmax_similarity(guide: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Per-row softmax of minus squared guide distances to each neighbour."""
    diff = guide[nbrs] - guide[:, None, :]
    logits = -np.einsum("nkd,nkd->nk", diff, diff)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def dense_layers(x: np.ndarray, layers):
    """Apply (weight, bias, activation) layers; also return the pre-activations
    of the leaky layers, whose signs decide where the map is smooth."""
    kinks = []
    for weight, bias, activation in layers:
        pre = x @ weight.T + bias
        kind, _, slope = activation.partition(":")
        if kind == "leaky_relu":
            kinks.append(pre)
            x = leaky(pre, float(slope))
        elif kind == "identity":
            x = pre
        else:
            raise ValueError(f"reference has no activation {activation!r}")
    return x, kinks


def jacobi(observed: np.ndarray, sim: sp.csr_matrix, coupling: np.ndarray, steps: int):
    """``steps`` simultaneous anchored updates x <- (I + C)^-1 (z + C S x)."""
    inverse = np.linalg.inv(np.eye(coupling.shape[0]) + coupling)
    latent = observed
    trajectory = [latent]
    for _ in range(steps):
        latent = (observed + (sim @ latent) @ coupling.T) @ inverse.T
        trajectory.append(latent)
    return trajectory


def smoothing_energy(observed, latent, sim: sp.csr_matrix, coupling) -> float:
    """|x - z|^2 plus half the similarity-weighted C-norm of each directed edge."""
    resid = latent - observed
    coo = sim.tocoo()
    diff = latent[coo.row] - latent[coo.col]
    quad = np.einsum("ed,dc,ec->e", diff, coupling, diff)
    return float(np.sum(resid * resid) + 0.5 * coo.data @ quad)


def farthest_points(positions: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest point sampling from index 0, ties to the lower index."""
    selected = [0]
    min_d2 = np.sum((positions - positions[0]) ** 2, axis=1)
    min_d2[0] = -1.0
    while len(selected) < count:
        nxt = int(np.argmax(min_d2))
        selected.append(nxt)
        min_d2 = np.minimum(min_d2, np.sum((positions - positions[nxt]) ** 2, axis=1))
        min_d2[nxt] = -1.0
    return np.array(selected)


def interpolate(coarse_pos, coarse_feat, fine_pos, k: int) -> np.ndarray:
    """Inverse squared distance weighted mean of the k nearest coarse features;
    a fine point within 1e-12 of a coarse point copies its feature."""
    d, idx = cKDTree(coarse_pos).query(fine_pos, k=k)
    coincident = d[:, 0] < 1e-12
    d[coincident] = 1.0
    w = 1.0 / (d * d)
    out = np.einsum("mk,mkd->md", w, coarse_feat[idx]) / w.sum(axis=1, keepdims=True)
    out[coincident] = coarse_feat[idx[coincident, 0]]
    return out


def crf_layer(inputs, guide, nbrs, unary, projection, factor, epsilon, steps, slope):
    """Forward pass of the continuous CRF layer (unary, similarity, jacobi,
    leaky readout). Returns the output and every leaky pre-activation."""
    observed, kinks = dense_layers(inputs, unary)
    projected, more = dense_layers(guide, projection)
    kinks += more
    sim = edge_matrix(nbrs, softmax_similarity(projected, nbrs))
    coupling = factor.T @ factor + epsilon * np.eye(factor.shape[0])
    final = jacobi(observed, sim, coupling, steps)[-1]
    kinks.append(final)
    return leaky(final, slope), kinks


def kernel_edge_weights(features, nbrs, projections, weights) -> np.ndarray:
    """(N, k) Gaussian-mixture kernel values on each edge."""
    out = np.zeros(nbrs.shape)
    for omega, proj in zip(weights, projections):
        projected = features @ proj
        diff = projected[:, None, :] - projected[nbrs]
        out += omega * np.exp(-np.einsum("nkd,nkd->nk", diff, diff))
    return out


def label_posterior(unary, features, nbrs, projections, weights, compat, steps, floor=1e-12):
    """Mean-field label refinement q <- softmax(log u - (W q) C^T), from q = u."""
    w = edge_matrix(nbrs, kernel_edge_weights(features, nbrs, projections, weights))
    log_unary = np.log(np.maximum(unary, floor))
    posterior = unary
    for _ in range(steps):
        logits = log_unary - (w @ posterior) @ compat.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        posterior = e / e.sum(axis=1, keepdims=True)
    return posterior
