"""Analytic gradients of the unrolled layer against central finite differences."""

import numpy as np
import pytest

from pointcrf import (
    Activation,
    AffineLayer,
    CompatibilityMatrix,
    CrfConfig,
    NeighborGraph,
    PointwiseTransform,
    UnsupportedScheduleError,
    crf_convolve,
    crf_gradients,
    knn_graph,
)
from util import random_cloud

FD_STEP = 1e-5


def build_instance(rng, n=8, d_in=3, d=2, d_proj=2, steps=2, readout=None):
    cloud = random_cloud(rng, n, d=0)
    graph = knn_graph(cloud, min(3, n - 1))
    unary = PointwiseTransform(
        layers=[
            AffineLayer(
                weight=rng.normal(scale=0.5, size=(d, d_in)),
                bias=rng.normal(scale=0.1, size=d),
                activation=Activation.leaky_relu(0.2),
            )
        ]
    )
    projection = PointwiseTransform(
        layers=[
            AffineLayer(
                weight=rng.normal(scale=0.5, size=(d_proj, d_in)),
                bias=rng.normal(scale=0.1, size=d_proj),
            )
        ]
    )
    factor = rng.normal(scale=0.4, size=(d, d))
    cfg = CrfConfig(
        compat=CompatibilityMatrix(factor=factor, epsilon=1e-3),
        steps=steps,
        schedule="jacobi",
        readout=readout or Activation(),
    )
    inputs = rng.normal(size=(n, d_in))
    guide = rng.normal(size=(n, d_in))
    upstream = rng.normal(size=(n, d))
    return graph, unary, projection, factor, cfg, inputs, guide, upstream


def scalar_objective(graph, guide, upstream, steps, readout, epsilon):
    """Builds f(params) = <upstream, layer(params)> for finite differencing."""

    def evaluate(inputs, uw, ub, u_act, pw, pb, factor):
        unary = PointwiseTransform(
            layers=[AffineLayer(weight=uw, bias=ub, activation=u_act)]
        )
        projection = PointwiseTransform(layers=[AffineLayer(weight=pw, bias=pb)])
        cfg = CrfConfig(
            compat=CompatibilityMatrix(factor=factor, epsilon=epsilon),
            steps=steps,
            schedule="jacobi",
            readout=readout,
        )
        out = crf_convolve(inputs, graph, unary, projection, guide, cfg)
        return float((out * upstream).sum())

    return evaluate


def central_difference(evaluate, args, name):
    arr = args[name]
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        index = it.multi_index
        scale = max(1.0, abs(float(arr[index])))
        step = FD_STEP * scale
        plus = dict(args)
        minus = dict(args)
        plus[name] = arr.copy()
        minus[name] = arr.copy()
        plus[name][index] += step
        minus[name][index] -= step
        grad[index] = (evaluate(**plus) - evaluate(**minus)) / (2.0 * step)
    return grad


def check_all_gradients(rng, steps, readout):
    graph, unary, projection, factor, cfg, inputs, guide, upstream = build_instance(
        rng, steps=steps, readout=readout
    )
    grads = crf_gradients(inputs, graph, unary, projection, guide, cfg, upstream)
    evaluate = scalar_objective(graph, guide, upstream, steps, cfg.readout, 1e-3)
    args = {
        "inputs": inputs,
        "uw": unary.layers[0].weight,
        "ub": unary.layers[0].bias,
        "u_act": unary.layers[0].activation,
        "pw": projection.layers[0].weight,
        "pb": projection.layers[0].bias,
        "factor": factor,
    }
    analytic = {
        "inputs": grads.inputs,
        "uw": grads.unary[0][0],
        "ub": grads.unary[0][1],
        "pw": grads.projection[0][0],
        "pb": grads.projection[0][1],
        "factor": grads.compat_factor,
    }
    for name, got in analytic.items():
        expect = central_difference(evaluate, args, name)
        err = np.max(np.abs(got - expect)) / (1.0 + np.max(np.abs(expect)))
        assert err <= 1e-5, f"{name}: relative error {err:.3e}"


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(0)
    graph, unary, projection, _, cfg, inputs, guide, upstream = build_instance(rng)
    grads = crf_gradients(
        inputs, graph, unary, projection, guide, cfg, np.zeros_like(upstream)
    )
    assert np.all(grads.inputs == 0)
    assert np.all(grads.compat_factor == 0)
    for gw, gb in grads.unary + grads.projection:
        assert np.all(gw == 0) and np.all(gb == 0)


def test_two_node_single_step_inputs_gradient():
    graph = NeighborGraph(2, [0, 1, 2], [1, 0])
    observed = np.array([[0.0], [2.0]])
    cfg = CrfConfig(
        compat=CompatibilityMatrix.identity(1), steps=1, readout=Activation()
    )
    identity = PointwiseTransform.identity()
    upstream = np.ones((2, 1))
    grads = crf_gradients(observed, graph, identity, identity, observed, cfg, upstream)

    def f(z):
        return float(crf_convolve(z, graph, identity, identity, observed, cfg).sum())

    fd = np.zeros_like(observed)
    for i in range(2):
        plus = observed.copy()
        minus = observed.copy()
        plus[i, 0] += 1e-6
        minus[i, 0] -= 1e-6
        fd[i, 0] = (f(plus) - f(minus)) / 2e-6
    np.testing.assert_allclose(grads.inputs, fd, atol=1e-8)


def test_random_configurations_match_finite_differences():
    rng = np.random.default_rng(1)
    check_all_gradients(rng, steps=1, readout=Activation())
    check_all_gradients(rng, steps=3, readout=Activation())


def test_leaky_readout_also_differentiates():
    rng = np.random.default_rng(2)
    check_all_gradients(rng, steps=2, readout=Activation.leaky_relu(0.1))


def test_gauss_seidel_is_rejected():
    rng = np.random.default_rng(3)
    graph, unary, projection, _, cfg, inputs, guide, upstream = build_instance(rng)
    bad = CrfConfig(
        compat=cfg.compat, steps=cfg.steps, schedule="gauss-seidel", readout=cfg.readout
    )
    with pytest.raises(UnsupportedScheduleError):
        crf_gradients(inputs, graph, unary, projection, guide, bad, upstream)
