"""Feedforward network: architecture description, initialization, inference,
the input normalizer, and a versioned JSON checkpoint format.

Hidden layers use a bounded activation (tanh by default); the output layer is
linear. Inference expects inputs that are already normalized.
"""

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics
from .dataset import atomic_write
from .errors import (
    CheckpointDimensionError,
    CheckpointFormatError,
    CheckpointVersionError,
    DimensionMismatchError,
)

CHECKPOINT_VERSION = 1

ACTIVATIONS = {"tanh": numerics.tanh_act, "sigmoid": numerics.sigmoid_act}


@dataclass(frozen=True)
class Architecture:
    """Layer sizes and hidden activation of a network.

    One or two hidden layers; the output layer is always linear.
    """

    input_dim: int
    hidden_sizes: tuple
    output_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        for d in (self.input_dim, *self.hidden_sizes, self.output_dim):
            if isinstance(d, bool) or not isinstance(d, numbers.Integral):
                raise ValueError(f"layer sizes must be integers, got {d!r}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "output_dim", int(self.output_dim))
        if len(self.hidden_sizes) not in (1, 2):
            raise ValueError(f"expected 1 or 2 hidden layers, got {len(self.hidden_sizes)}")
        dims = (self.input_dim, *self.hidden_sizes, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dimensions must be >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from {sorted(ACTIVATIONS)}")

    def layer_dims(self) -> list:
        """(rows, cols) of each weight matrix, hidden layers first, output last."""
        sizes = (self.input_dim, *self.hidden_sizes, self.output_dim)
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]


@dataclass
class NetworkParams:
    """Weights and biases, ordered as arch.layer_dims().

    layers[i] is a (weights, bias) pair with weights shaped (rows, cols) and
    bias shaped (rows,).
    """

    arch: Architecture
    layers: list

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.arch, [(w.copy(), b.copy()) for w, b in self.layers])


def init_network(arch: Architecture, rng: numerics.Rng) -> NetworkParams:
    """Fresh parameters: weights ~ Normal(0, 1/sqrt(fan_in)), biases zero."""
    layers = []
    for rows, cols in arch.layer_dims():
        w = rng.normal(0.0, 1.0 / math.sqrt(cols), size=(rows, cols))
        layers.append((w, np.zeros(rows)))
    return NetworkParams(arch, layers)


def forward_batch(net: NetworkParams, inputs, out=None) -> tuple:
    """Run a (n, input_dim) block of normalized inputs through the network.

    Each layer's output is allocated once, or written into out[i], an
    (n, rows) array per layer (hidden layers first) that the caller supplies
    to reuse across calls. Bias-add and the activation run in place.

    Returns (outputs (n, output_dim), [hidden activations per hidden layer]).
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.arch.input_dim:
        raise DimensionMismatchError(
            f"expected inputs shaped (n, {net.arch.input_dim}), got {x.shape}")
    if out is None:
        out = [np.empty((x.shape[0], w.shape[0])) for w, _ in net.layers]
    act = ACTIVATIONS[net.arch.activation]
    h = x
    for i, ((w, b), z) in enumerate(zip(net.layers, out)):
        np.matmul(h, w.T, out=z)
        z += b
        if i < len(net.layers) - 1:
            act(z, out=z)
        h = z
    return h, list(out[:-1])


@dataclass(frozen=True)
class Normalizer:
    """Column-wise standardization fitted on training inputs only."""

    means: np.ndarray
    stds: np.ndarray
    constant_flags: np.ndarray

    def apply(self, inputs) -> np.ndarray:
        return (np.asarray(inputs, dtype=np.float64) - self.means) / self.stds


def fit_normalizer(inputs) -> Normalizer:
    """Population mean/std per column; constant columns standardize to zero."""
    stats = numerics.column_stats(inputs)
    return Normalizer(stats.means, stats.stds, stats.constant)


@dataclass(frozen=True)
class CheckpointMeta:
    """Provenance recorded next to the weights.

    final_train_mse is the batch training MSE recorded at the checkpointed
    epoch.
    """

    seed: int
    epochs_trained: int
    final_train_mse: float


@dataclass
class Checkpoint:
    """A trained network plus the normalizer its inputs require."""

    net: NetworkParams
    normalizer: Normalizer
    meta: CheckpointMeta


def save_checkpoint(net: NetworkParams, normalizer, meta: CheckpointMeta, path) -> None:
    """Write a version-tagged JSON checkpoint; floats keep their exact value."""
    for w, b in net.layers:
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("refusing to save non-finite parameters")
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "arch": {
            "input_dim": net.arch.input_dim,
            "hidden_sizes": list(net.arch.hidden_sizes),
            "output_dim": net.arch.output_dim,
            "activation": net.arch.activation,
        },
        "normalizer": {
            "means": np.asarray(normalizer.means).tolist(),
            "stds": np.asarray(normalizer.stds).tolist(),
            "constant_flags": np.asarray(normalizer.constant_flags).astype(bool).tolist(),
        },
        "layers": [
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "weights": w.ravel().tolist(),
                "bias": b.tolist(),
            }
            for w, b in net.layers
        ],
        "meta": {
            "seed": int(meta.seed),
            "epochs_trained": int(meta.epochs_trained),
            "final_train_mse": float(meta.final_train_mse),
        },
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")


def _payload_get(payload, key, context="checkpoint"):
    if not isinstance(payload, dict) or key not in payload:
        raise CheckpointFormatError(f"{context} is missing field {key!r}")
    return payload[key]


def _meta_number(raw_meta, key, kind):
    """meta[key] as kind: an integer for int, any number for float."""
    value = _payload_get(raw_meta, key, "meta")
    accepted = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, accepted):
        noun = "an integer" if kind is int else "a number"
        raise CheckpointFormatError(f"meta.{key} must be {noun}, got {value!r}")
    return kind(value)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, validating version,
    structure, dimensions, and finiteness."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckpointFormatError(f"unparsable checkpoint: {exc}") from None

    version = _payload_get(payload, "format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(version, CHECKPOINT_VERSION)

    raw_arch = _payload_get(payload, "arch")
    try:
        arch = Architecture(
            input_dim=_payload_get(raw_arch, "input_dim", "arch"),
            hidden_sizes=_payload_get(raw_arch, "hidden_sizes", "arch"),
            output_dim=_payload_get(raw_arch, "output_dim", "arch"),
            activation=_payload_get(raw_arch, "activation", "arch"),
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"invalid architecture block: {exc}") from None

    raw_norm = _payload_get(payload, "normalizer")
    means = np.asarray(_payload_get(raw_norm, "means", "normalizer"), dtype=np.float64)
    stds = np.asarray(_payload_get(raw_norm, "stds", "normalizer"), dtype=np.float64)
    flags = np.asarray(_payload_get(raw_norm, "constant_flags", "normalizer"), dtype=bool)
    if not (means.shape == stds.shape == flags.shape == (arch.input_dim,)):
        raise CheckpointDimensionError(
            f"normalizer arrays must have shape ({arch.input_dim},), got "
            f"{means.shape}, {stds.shape}, {flags.shape}")

    raw_layers = _payload_get(payload, "layers")
    dims = arch.layer_dims()
    if not isinstance(raw_layers, list) or len(raw_layers) != len(dims):
        raise CheckpointDimensionError(
            f"expected {len(dims)} layers, found "
            f"{len(raw_layers) if isinstance(raw_layers, list) else type(raw_layers).__name__}")
    layers = []
    for i, (raw, (rows, cols)) in enumerate(zip(raw_layers, dims)):
        stored = (_payload_get(raw, "rows", f"layer {i}"), _payload_get(raw, "cols", f"layer {i}"))
        if stored != (rows, cols):
            raise CheckpointDimensionError(
                f"layer {i}: architecture implies shape {(rows, cols)}, file stores {stored}")
        w = np.asarray(_payload_get(raw, "weights", f"layer {i}"), dtype=np.float64)
        b = np.asarray(_payload_get(raw, "bias", f"layer {i}"), dtype=np.float64)
        if w.size != rows * cols or b.shape != (rows,):
            raise CheckpointDimensionError(
                f"layer {i}: expected {rows * cols} weights and {rows} biases, "
                f"got {w.size} and {b.size}")
        layers.append((w.reshape(rows, cols), b))

    for arr in (means, stds, *[a for pair in layers for a in pair]):
        if not np.isfinite(arr).all():
            raise CheckpointFormatError("checkpoint contains non-finite values")

    raw_meta = _payload_get(payload, "meta")
    meta = CheckpointMeta(
        seed=_meta_number(raw_meta, "seed", int),
        epochs_trained=_meta_number(raw_meta, "epochs_trained", int),
        final_train_mse=_meta_number(raw_meta, "final_train_mse", float),
    )
    return Checkpoint(NetworkParams(arch, layers), Normalizer(means, stds, flags), meta)
