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
from .dataset import INPUT_COLUMNS, N_STATIONS, atomic_write
from .errors import (
    CheckpointDimensionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
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
                raise ConfigError(f"layer sizes must be integers, got {d!r}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "output_dim", int(self.output_dim))
        if len(self.hidden_sizes) not in (1, 2):
            raise ConfigError(f"expected 1 or 2 hidden layers, got {len(self.hidden_sizes)}")
        dims = (self.input_dim, *self.hidden_sizes, self.output_dim)
        if any(d < 1 for d in dims):
            raise ConfigError(f"all layer dimensions must be >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
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
    """Population mean and std per column of a non-empty (n, cols) block.

    A column whose std falls below 1e-12 is flagged constant and gets
    std = 1, so it standardizes to exactly zero instead of dividing by
    (near) zero.
    """
    try:
        data = np.asarray(inputs, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatchError(f"rows have differing lengths: {exc}") from None
    if data.ndim != 2 or len(data) == 0:
        raise DimensionMismatchError(
            f"expected at least one row of scalars, got shape {data.shape}")
    stds = data.std(axis=0)
    constant = stds < 1e-12
    return Normalizer(data.mean(axis=0), np.where(constant, 1.0, stds), constant)


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
            raise DomainError("refusing to save non-finite parameters")
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


# Per kind of checkpoint field: the types json.loads gives for it, and its name.
_KINDS = {dict: ((dict,), "an object"), list: ((list,), "a list"), str: ((str,), "a string"),
          bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
          float: ((int, float), "a finite number")}


def _field(node: dict, key, where: str, kind, size=None):
    """node[key] checked to be JSON of kind, a _KINDS key; errors name it
    where.key (e.g. "layers[1].bias"). With size, it must be a list of size
    values of kind instead, and numbers come back as a float64 array."""
    name = f"{where}.{key}" if where else key
    if key not in node:
        raise CheckpointFormatError(f"{name} is missing")
    value = node[key]
    if size is not None and type(value) is not list:
        raise CheckpointFormatError(f"{name} holds {value!r:.40}, not a list")
    types, noun = _KINDS[kind]
    items = [value] if size is None else value
    if not set(map(type, items)).issubset(types):
        bad = next(v for v in items if type(v) not in types)
        raise CheckpointFormatError(f"{name} holds {bad!r:.40}, not {noun}")
    if size is not None and len(value) != size:
        raise CheckpointDimensionError(f"{name} must hold {size} values, got {len(value)}")
    if kind is not float:
        return value
    try:
        number = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        number = np.array(np.inf)
    if not np.isfinite(number).all():
        raise CheckpointFormatError(f"{name} must be finite")
    return number if size is not None else float(number)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. Each field is checked by
    _field, every std must be > 0, and the network must map the track
    schema's input columns to its stations. A refusal is a CheckpointError
    whose message starts with the file's name."""
    path = Path(path)
    try:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"not UTF-8 text ({exc.reason})") from None
        except (ValueError, RecursionError) as exc:  # nesting deeper than the stack
            raise CheckpointFormatError(f"unparsable checkpoint: {exc}") from None
        return _checkpoint_from(payload if type(payload) is dict else {})
    except CheckpointError as exc:
        exc.args = (f"{path.name}: {exc}",)
        raise


def _checkpoint_from(payload: dict) -> Checkpoint:
    version = _field(payload, "format_version", "", int)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"format_version is {version}, not {CHECKPOINT_VERSION}")

    raw_arch = _field(payload, "arch", "", dict)
    try:
        arch = Architecture(
            input_dim=_field(raw_arch, "input_dim", "arch", int),
            hidden_sizes=_field(raw_arch, "hidden_sizes", "arch", list),
            output_dim=_field(raw_arch, "output_dim", "arch", int),
            activation=_field(raw_arch, "activation", "arch", str),
        )
    except ConfigError as exc:
        raise CheckpointFormatError(f"arch: {exc}") from None
    if (arch.input_dim, arch.output_dim) != (len(INPUT_COLUMNS), N_STATIONS):
        raise CheckpointDimensionError(
            f"network maps {arch.input_dim} inputs to {arch.output_dim} outputs, but tracks "
            f"have {len(INPUT_COLUMNS)} input columns and {N_STATIONS} stations")

    raw_norm = _field(payload, "normalizer", "", dict)
    means = _field(raw_norm, "means", "normalizer", float, arch.input_dim)
    stds = _field(raw_norm, "stds", "normalizer", float, arch.input_dim)
    flags = np.asarray(_field(raw_norm, "constant_flags", "normalizer", bool, arch.input_dim))
    if not (stds > 0).all():
        raise CheckpointFormatError(
            f"normalizer.stds holds {float(stds.min())!r}, not a value > 0")

    dims = arch.layer_dims()
    raw_layers = _field(payload, "layers", "", dict, len(dims))
    layers = []
    for i, (raw, (rows, cols)) in enumerate(zip(raw_layers, dims)):
        where = f"layers[{i}]"
        stored = (_field(raw, "rows", where, int), _field(raw, "cols", where, int))
        if stored != (rows, cols):
            raise CheckpointDimensionError(
                f"{where}: architecture implies shape {(rows, cols)}, file stores {stored}")
        w = _field(raw, "weights", where, float, rows * cols)
        layers.append((w.reshape(rows, cols), _field(raw, "bias", where, float, rows)))

    raw_meta = _field(payload, "meta", "", dict)
    meta = CheckpointMeta(
        seed=_field(raw_meta, "seed", "meta", int),
        epochs_trained=_field(raw_meta, "epochs_trained", "meta", int),
        final_train_mse=_field(raw_meta, "final_train_mse", "meta", float),
    )
    return Checkpoint(NetworkParams(arch, layers), Normalizer(means, stds, flags), meta)
