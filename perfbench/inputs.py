"""Seeded input generator for the benchmark.

Everything the program under test receives is made here: point clouds (as
CSV files or arrays), run configs, the transform weight files, the kernel
file and the probabilities CSV. The same seed gives byte-identical files.
The writers below follow the documented file formats on their own, so no
input passes through the code being measured before the timed job reads it.
"""

import json
from pathlib import Path

import numpy as np

TRANSFORM_MAGIC = "pointwise-transform 1"


def stream(seed: int, *key: int) -> np.random.Generator:
    """An independent random stream for (seed, purpose, index...)."""
    return np.random.default_rng([seed, *key])


def smooth_field_cloud(rng: np.random.Generator, n: int, d: int):
    """Uniform positions in the unit cube with a smooth noisy feature field.

    Features are sinusoids of position plus 0.2-sigma noise: the kind of
    signal smoothing is for, and it keeps neighbourhood softmaxes away from
    the all-on-one-neighbour limit that pure noise features give.
    """
    positions = rng.uniform(size=(n, 3))
    freq = rng.normal(scale=3.0, size=(3, d))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
    features = np.sin(positions @ freq + phase) + 0.2 * rng.normal(size=(n, d))
    return positions, features


def _fmt(value) -> str:
    return repr(float(value))


def write_csv_table(path: Path, table: np.ndarray) -> None:
    """Comma-separated rows without header, floats as repr (round-trips)."""
    path.write_text("".join(",".join(_fmt(v) for v in row) + "\n" for row in table))


def write_cloud_csv(path: Path, positions: np.ndarray, features: np.ndarray) -> None:
    write_csv_table(path, np.hstack([positions, features]))


def random_layer(rng: np.random.Generator, in_dim: int, out_dim: int, activation: str):
    """A (weight, bias, activation) triple with fan-in scaled weights."""
    weight = rng.normal(scale=1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))
    bias = rng.normal(scale=0.1, size=out_dim)
    return weight, bias, activation


def write_transform(path: Path, layers) -> None:
    """Write (weight, bias, activation) layers in the pointwise-transform format.

    ``activation`` is ``identity``, ``relu`` or ``leaky_relu:<slope>``.
    """
    lines = [TRANSFORM_MAGIC, f"layers {len(layers)}"]
    for idx, (weight, bias, activation) in enumerate(layers):
        kind, _, slope = activation.partition(":")
        head = f"layer {idx} {weight.shape[1]} {weight.shape[0]} {kind}"
        if kind == "leaky_relu":
            head += f" {_fmt(slope)}"
        lines.append(head)
        lines.append("weights " + " ".join(_fmt(v) for v in weight.ravel()))
        lines.append("bias " + " ".join(_fmt(v) for v in bias))
    path.write_text("".join(line + "\n" for line in lines))


def write_kernel(path: Path, projections, weights) -> None:
    """Kernel-mixture file: one projection layer per component, then the
    1 x M combiner holding the mixture weights."""
    layers = [(p.T, np.zeros(p.shape[1]), "identity") for p in projections]
    layers.append((np.asarray(weights, dtype=np.float64).reshape(1, -1), np.zeros(1), "identity"))
    write_transform(path, layers)


def random_probabilities(rng: np.random.Generator, n: int, labels: int) -> np.ndarray:
    """Rows of a softmax over random logits: confident but not one-hot."""
    logits = rng.normal(scale=2.0, size=(n, labels))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
