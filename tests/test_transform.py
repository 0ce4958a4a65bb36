"""Pointwise transform and weight-file tests."""

import numpy as np
import pytest

from pointcrf import Activation, AffineLayer, PointwiseTransform


def test_identity_transform_passes_anything_through():
    x = np.random.default_rng(0).normal(size=(5, 7))
    np.testing.assert_array_equal(PointwiseTransform.identity().apply(x), x)


def test_apply_matches_manual_chain():
    rng = np.random.default_rng(1)
    w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=4)
    w1, b1 = rng.normal(size=(2, 4)), rng.normal(size=2)
    chain = PointwiseTransform(
        layers=[
            AffineLayer(weight=w0, bias=b0, activation=Activation(kind="relu")),
            AffineLayer(weight=w1, bias=b1, activation=Activation.leaky_relu(0.3)),
        ]
    )
    x = rng.normal(size=(6, 3))
    hidden = np.maximum(x @ w0.T + b0, 0.0)
    pre = hidden @ w1.T + b1
    expect = np.where(pre > 0, pre, 0.3 * pre)
    np.testing.assert_allclose(chain.apply(x), expect, atol=1e-14)


def test_mismatched_chain_rejected():
    layers = [
        AffineLayer(weight=np.eye(3), bias=np.zeros(3)),
        AffineLayer(weight=np.eye(2), bias=np.zeros(2)),
    ]
    with pytest.raises(ValueError, match="chain"):
        PointwiseTransform(layers=layers)


def test_wrong_input_width_rejected():
    chain = PointwiseTransform.linear(np.eye(3))
    with pytest.raises(ValueError, match="width"):
        chain.apply(np.zeros((4, 2)))


def test_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    chain = PointwiseTransform(
        layers=[
            AffineLayer(
                weight=rng.normal(size=(5, 3)),
                bias=rng.normal(size=5),
                activation=Activation.leaky_relu(rng.uniform(0.01, 0.5)),
            ),
            AffineLayer(weight=rng.normal(size=(2, 5)), bias=rng.normal(size=2)),
        ]
    )
    path = tmp_path / "weights.txt"
    chain.save(path)
    back = PointwiseTransform.load(path)
    assert len(back.layers) == 2
    for a, b in zip(chain.layers, back.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("something-else\nlayers 0\n")
    with pytest.raises(ValueError, match="pointwise-transform"):
        PointwiseTransform.load(path)


def test_load_rejects_truncated_weights(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text(
        "pointwise-transform 1\nlayers 1\nlayer 0 2 2 identity\nweights 1.0 0.0 0.0\nbias 0.0 0.0\n"
    )
    with pytest.raises(ValueError, match="weights"):
        PointwiseTransform.load(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("pointwise-transform 1\n", "missing layer count"),
        # ends right after a layer's weights line
        ("pointwise-transform 1\nlayers 1\nlayer 0 1 1 identity\nweights 1.0\n",
         "truncated at layer 0"),
        ("pointwise-transform 1\nlayers 2\nlayer 0 1 1 identity\nweights 1.0\nbias 0.0\n"
         "layer 1 1 1 identity\nweights 1.0\n", "truncated at layer 1"),
    ],
    ids=["magic-only", "after-weights", "second-layer"],
)
def test_load_rejects_truncated_file_naming_the_path(tmp_path, text, message):
    path = tmp_path / "weights.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        PointwiseTransform.load(path)
    assert str(path) in str(info.value)
