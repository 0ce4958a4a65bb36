"""Analytic gradients of the unrolled layer against central finite differences."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointcrf import (
    Activation,
    AffineLayer,
    CompatibilityMatrix,
    ContinuousCrfState,
    CrfConfig,
    NeighborGraph,
    PointwiseTransform,
    UnsupportedScheduleError,
    crf_convolve,
    crf_gradients,
    knn_graph,
    pairwise_similarity,
    radius_graph,
    run_crf,
)
from util import graph_from_lists, random_cloud

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


@pytest.mark.parametrize("kind", ["knn", "radius"])
def test_early_stop_equals_the_realized_steps_at_zero_tolerance(kind):
    rng = np.random.default_rng(6)
    graph, unary, projection, _, cfg, inputs, guide, upstream = build_instance(
        rng, n=12, steps=40
    )
    if kind == "radius":
        cloud = random_cloud(rng, 12, d=0)
        cloud.positions[0] += 10.0  # a node without neighbors
        graph = radius_graph(cloud, 0.4)
        assert graph.degrees[0] == 0 and graph.num_edges > 0
    stopping = CrfConfig(compat=cfg.compat, steps=40, convergence_tol=1e-3, readout=cfg.readout)
    sim = pairwise_similarity(guide, graph, projection)
    realized = run_crf(ContinuousCrfState.from_observed(unary.apply(inputs)), sim, stopping)
    assert 0 < realized.steps_done < 40
    fixed = CrfConfig(compat=cfg.compat, steps=realized.steps_done, readout=cfg.readout)
    got = crf_gradients(inputs, graph, unary, projection, guide, stopping, upstream)
    want = crf_gradients(inputs, graph, unary, projection, guide, fixed, upstream)
    np.testing.assert_array_equal(got.inputs, want.inputs)
    np.testing.assert_array_equal(got.compat_factor, want.compat_factor)
    for got_pair, want_pair in zip(got.unary + got.projection, want.unary + want.projection):
        for g, w in zip(got_pair, want_pair):
            np.testing.assert_array_equal(g, w)


def test_mis_sized_unary_input_names_the_width():
    rng = np.random.default_rng(7)
    graph, unary, projection, _, cfg, inputs, guide, upstream = build_instance(rng, d_in=3)
    wide = rng.normal(size=(inputs.shape[0], 5))
    for layer in (crf_convolve, lambda *a: crf_gradients(*a, upstream)):
        with pytest.raises(ValueError, match="transform expects width 3, got 5"):
            layer(wide, graph, unary, projection, guide, cfg)


@pytest.mark.parametrize("rows", [4, 9])
def test_guide_with_wrong_row_count_is_rejected(rows):
    rng = np.random.default_rng(8)
    graph, unary, projection, _, cfg, inputs, _, upstream = build_instance(rng, n=6)
    guide = rng.normal(size=(rows, inputs.shape[1]))
    for layer in (crf_convolve, lambda *a: crf_gradients(*a, upstream)):
        with pytest.raises(ValueError, match=r"features must have shape \(6, d'\)"):
            layer(inputs, graph, unary, projection, guide, cfg)


@st.composite
def directional_cases(draw):
    """A layer on 1-9 nodes over a star, a graph with isolated nodes, several
    components or a one-way support, with leaky-relu unary and readout, plus
    one random direction through every parameter."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["star", "isolated", "components", "one-way"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "star":
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1:] = adjacency[1:, 0] = True
    elif shape == "components":
        component = rng.integers(0, 3, size=n)
        adjacency = component[:, None] == component[None, :]
    elif shape == "one-way":
        adjacency = np.triu(rng.random((n, n)) < 0.5)
    else:
        adjacency = rng.random((n, n)) < 0.5
        lonely = rng.random(n) < 0.4
        adjacency[lonely, :] = adjacency[:, lonely] = False
    np.fill_diagonal(adjacency, False)
    graph = graph_from_lists([rng.permutation(np.flatnonzero(row)) for row in adjacency])
    d_in, d, d_proj = (draw(st.integers(1, 3)) for _ in range(3))
    params = {
        "inputs": rng.normal(size=(n, d_in)),
        "uw": rng.normal(scale=0.5, size=(d, d_in)),
        "ub": rng.normal(scale=0.1, size=d),
        "pw": rng.normal(scale=0.5, size=(d_proj, d_in)),
        "pb": rng.normal(scale=0.1, size=d_proj),
        "factor": rng.normal(scale=0.4, size=(d, d)),
    }
    direction = {name: rng.normal(size=value.shape) for name, value in params.items()}
    fixed = {
        "graph": graph,
        "guide": rng.normal(size=(n, d_in)),
        "upstream": rng.normal(size=(n, d)),
        "steps": draw(st.integers(1, 4)),
    }
    return params, direction, fixed


def leaky_layer(params, fixed):
    """(layer output, its leaky-relu pre-activations, the layer's gradients)."""
    unary = PointwiseTransform(layers=[AffineLayer(
        weight=params["uw"], bias=params["ub"], activation=Activation.leaky_relu(0.2)
    )])
    projection = PointwiseTransform(layers=[AffineLayer(weight=params["pw"], bias=params["pb"])])
    cfg = CrfConfig(
        compat=CompatibilityMatrix(factor=params["factor"], epsilon=1e-3),
        steps=fixed["steps"],
        readout=Activation.leaky_relu(0.2),
    )
    args = (params["inputs"], fixed["graph"], unary, projection, fixed["guide"], cfg)
    observed = unary.apply(params["inputs"])
    sim = pairwise_similarity(fixed["guide"], fixed["graph"], projection)
    latent = run_crf(ContinuousCrfState.from_observed(observed), sim, cfg).latent
    kinks = [params["inputs"] @ params["uw"].T + params["ub"], latent]
    out = crf_convolve(*args)
    return out, kinks, crf_gradients(*args, fixed["upstream"])


@settings(max_examples=80, deadline=None)
@given(directional_cases())
def test_directional_derivative_matches_central_difference(case):
    params, direction, fixed = case
    out, kinks, grads = leaky_layer(params, fixed)
    analytic = sum(float(np.sum(g * direction[name])) for name, g in (
        ("inputs", grads.inputs), ("uw", grads.unary[0][0]), ("ub", grads.unary[0][1]),
        ("pw", grads.projection[0][0]), ("pb", grads.projection[0][1]),
        ("factor", grads.compat_factor),
    ))

    def shifted(t):
        return leaky_layer({k: v + t * direction[k] for k, v in params.items()}, fixed)

    # A step small enough that no leaky-relu pre-activation changes sign:
    # rates from a trial step bound the distance to the nearest kink.
    trial = 1e-6
    (up, kinks_up, _), (down, kinks_down, _) = shifted(trial), shifted(-trial)
    step = trial
    for k0, ku, kd in zip(kinks, kinks_up, kinks_down):
        rate = np.abs(ku - kd) / (2.0 * trial)
        moving = rate > 0
        if moving.any():
            step = min(step, 0.5 * float(np.min(np.abs(k0[moving]) / rate[moving])))
    assume(step > 1e-12)
    if step < trial:
        (up, _, _), (down, _, _) = shifted(step), shifted(-step)
    numeric = float(np.sum(fixed["upstream"] * (up - down))) / (2.0 * step)
    # cancellation in (up - down) costs about eps * |loss terms| / step
    roundoff = 10.0 * np.finfo(float).eps * float(np.sum(np.abs(fixed["upstream"] * out))) / step
    assert abs(numeric - analytic) <= 1e-7 * abs(analytic) + roundoff, (numeric, analytic, step)
