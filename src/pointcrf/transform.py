"""Pointwise feature transforms: affine layer chains with simple activations.

These stand in for learned per-point networks. Weights are loadable from a
line-oriented text format (see ``write_layer_stack``); the same format also
carries Gaussian-kernel-mixture parameters for the discrete CRF.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Activation",
    "AffineLayer",
    "PointwiseTransform",
    "read_layer_stack",
    "write_layer_stack",
]

_ACTIVATIONS = ("identity", "relu", "leaky_relu")

FILE_MAGIC = "pointwise-transform 1"


@dataclass(frozen=True)
class Activation:
    """Elementwise activation: identity, relu, or leaky_relu with a slope."""

    kind: str = "identity"
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.kind!r}; expected one of {_ACTIVATIONS}")
        if not np.isfinite(self.slope):
            raise ValueError("activation slope must be finite")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        return np.where(x > 0.0, x, self.slope * x)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Elementwise derivative evaluated at the pre-activation values."""
        if self.kind == "identity":
            return np.ones_like(x)
        if self.kind == "relu":
            return np.where(x > 0.0, 1.0, 0.0)
        return np.where(x > 0.0, 1.0, self.slope)

    @classmethod
    def leaky_relu(cls, slope: float = 0.1) -> "Activation":
        return cls(kind="leaky_relu", slope=slope)


@dataclass
class AffineLayer:
    """One stage of a pointwise transform: x -> activation(W x + b)."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: Activation = field(default_factory=Activation)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.weight.ndim != 2:
            raise ValueError(f"layer weight must be 2D, got shape {self.weight.shape}")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ValueError("bias length must equal the layer output dimension")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class PointwiseTransform:
    """Chain of affine layers applied independently to each point.

    An empty chain is the identity on inputs of any width.
    """

    layers: list = field(default_factory=list)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @classmethod
    def identity(cls) -> "PointwiseTransform":
        return cls(layers=[])

    @classmethod
    def linear(cls, weight: np.ndarray, bias=None) -> "PointwiseTransform":
        weight = np.asarray(weight, dtype=np.float64)
        if bias is None:
            bias = np.zeros(weight.shape[0])
        return cls(layers=[AffineLayer(weight=weight, bias=bias)])

    @property
    def in_dim(self) -> int | None:
        """Expected input width, or None for the identity chain."""
        return self.layers[0].in_dim if self.layers else None

    def out_dim(self, in_dim: int) -> int:
        return self.layers[-1].out_dim if self.layers else in_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the chain to an (N, in_dim) array of per-point features."""
        return self.apply_with_trace(x)[0]

    def apply_with_trace(self, x: np.ndarray):
        """Apply the chain, returning (output, per-layer (input, preactivation))."""
        x = np.asarray(x, dtype=np.float64)
        if self.layers and x.shape[-1] != self.layers[0].in_dim:
            raise ValueError(
                f"transform expects width {self.layers[0].in_dim}, got {x.shape[-1]}"
            )
        trace = []
        for layer in self.layers:
            pre = x @ layer.weight.T + layer.bias
            trace.append((x, pre))
            x = layer.activation.apply(pre)
        return x, trace

    def backward(self, trace, grad_out: np.ndarray):
        """Backpropagate through the chain.

        ``trace`` comes from ``apply_with_trace``. Returns (grad_input,
        [(grad_weight, grad_bias), ...]) with one entry per layer.
        """
        grads = [None] * len(self.layers)
        g = np.asarray(grad_out, dtype=np.float64)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            x_in, pre = trace[idx]
            g_pre = g * layer.activation.derivative(pre)
            grads[idx] = (g_pre.T @ x_in, g_pre.sum(axis=0))
            g = g_pre @ layer.weight
        return g, grads

    def save(self, path) -> None:
        write_layer_stack(path, self.layers)

    @classmethod
    def load(cls, path) -> "PointwiseTransform":
        return cls(layers=read_layer_stack(path))


# ---------------------------------------------------------------------------
# Weight file format
# ---------------------------------------------------------------------------
#
#   pointwise-transform 1
#   layers <L>
#   layer <idx> <in> <out> <activation>[ <slope>]
#   weights <in*out values, row-major over the (out, in) matrix>
#   bias <out values>
#   ... repeated per layer
#
# Values are written with repr() so a load/save round trip is bit exact.


def write_layer_stack(path, layers) -> None:
    lines = [FILE_MAGIC, f"layers {len(layers)}"]
    for idx, layer in enumerate(layers):
        act = layer.activation
        head = f"layer {idx} {layer.in_dim} {layer.out_dim} {act.kind}"
        if act.kind == "leaky_relu":
            head += f" {repr(float(act.slope))}"
        lines.append(head)
        lines.append("weights " + " ".join(repr(float(v)) for v in layer.weight.ravel()))
        lines.append("bias " + " ".join(repr(float(v)) for v in layer.bias))
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _parse(kind, token: str, path, where: str):
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"{path}: {where}: {token!r} is not a valid {kind.__name__}") from None


def read_layer_stack(path) -> list:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != FILE_MAGIC:
        raise ValueError(f"{path}: not a '{FILE_MAGIC}' file")
    tokens = lines[1].split() if len(lines) > 1 else []
    if len(tokens) != 2 or tokens[0] != "layers":
        raise ValueError(f"{path}: missing layer count")
    count = _parse(int, tokens[1], path, "layer count")
    if count < 0:
        raise ValueError(f"{path}: layer count must be >= 0, got {count}")
    layers = []
    pos = 2
    for idx in range(count):
        if pos + 3 > len(lines):
            raise ValueError(f"{path}: truncated at layer {idx}")
        head = lines[pos].split()
        where = f"layer {idx}"
        if len(head) < 5 or head[0] != "layer" or _parse(int, head[1], path, where) != idx:
            raise ValueError(f"{path}: malformed header for layer {idx}")
        in_dim, out_dim = (_parse(int, t, path, where) for t in head[2:4])
        kind = head[4]
        slope = _parse(float, head[5], path, where) if len(head) > 5 else 0.0
        w_tok = lines[pos + 1].split()
        b_tok = lines[pos + 2].split()
        if w_tok[0] != "weights" or b_tok[0] != "bias":
            raise ValueError(f"{path}: layer {idx} missing weights/bias lines")
        weight = np.array([_parse(float, v, path, where) for v in w_tok[1:]])
        bias = np.array([_parse(float, v, path, where) for v in b_tok[1:]])
        if weight.size != in_dim * out_dim:
            raise ValueError(
                f"{path}: layer {idx} expects {in_dim * out_dim} weights, got {weight.size}"
            )
        if bias.size != out_dim:
            raise ValueError(f"{path}: layer {idx} expects {out_dim} bias values")
        layers.append(
            AffineLayer(
                weight=weight.reshape(out_dim, in_dim),
                bias=bias,
                activation=Activation(kind=kind, slope=slope),
            )
        )
        pos += 3
    if pos != len(lines):
        raise ValueError(f"{path}: trailing content after layer {count - 1}")
    return layers
