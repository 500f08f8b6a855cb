"""Feedforward network: architecture description, initialization, inference,
the input normalizer, and a versioned JSON checkpoint format.

Hidden layers use a bounded activation (tanh by default); the output layer is
linear. Inference expects inputs that are already normalized.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics
from .dataset import INPUT_COLUMNS, N_STATIONS, atomic_write
from .errors import (
    CheckpointDimensionError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    check_fields,
    check_value,
    named,
)

CHECKPOINT_VERSION = 1

ACTIVATIONS = {"tanh": numerics.tanh_act, "sigmoid": numerics.sigmoid_act}


@dataclass(frozen=True)
class Architecture:
    """Layer sizes and hidden activation of a network.

    One or two hidden layers; the output layer is always linear.
    """

    # Every layer size is at most 1024, so a typo such as 1000000 is refused
    # before it sizes buffers.
    input_dim: int = field(metadata=dict(at_least=1, at_most=1024))
    hidden_sizes: tuple
    output_dim: int = field(metadata=dict(at_least=1, at_most=1024))
    activation: str = field(default="tanh", metadata=dict(choices=tuple(sorted(ACTIVATIONS))))

    def __post_init__(self):
        check_fields(self)
        for i, h in enumerate(self.hidden_sizes):
            check_value(f"hidden_sizes[{i}]", h, int, at_least=1, at_most=1024)
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "output_dim", int(self.output_dim))
        if len(self.hidden_sizes) not in (1, 2):
            raise ConfigError(f"expected 1 or 2 hidden layers, got {len(self.hidden_sizes)}")

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


def layer_operands(net: NetworkParams, rows: int, out=None) -> list:
    """What forward_batch multiplies and adds per layer, for blocks of up to
    `rows` rows: a (w.T, bias tile) pair per layer, with w.T a C-contiguous
    copy and the tile the bias repeated on each of `rows` rows.

    With out, a list this call returned before for the same architecture
    and row count, the pairs are refreshed in place from net and out is
    returned; nothing is allocated.
    """
    if out is None:
        out = [(np.empty(w.shape[::-1]), np.empty((rows, w.shape[0]))) for w, _ in net.layers]
    for (w, b), (wt, tile) in zip(net.layers, out):
        np.copyto(wt, w.T)
        np.copyto(tile, b)
    return out


def forward_batch(net: NetworkParams, inputs, out=None, operands=None) -> tuple:
    """Run a (n, input_dim) block of normalized inputs through the network.

    Each layer's output is allocated once, or written into out[i], an
    (n, rows) array per layer (hidden layers first) that the caller supplies
    to reuse across calls. operands is what layer_operands returns for net
    and at least n rows; a caller that runs many blocks through the same net
    builds it once and passes it, and without it this call builds its own.
    Bias-add and the activation run in place.

    Returns (outputs (n, output_dim), [hidden activations per hidden layer]).
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.arch.input_dim:
        raise DimensionMismatchError(
            f"expected inputs shaped (n, {net.arch.input_dim}), got {x.shape!s:.40}")
    n = x.shape[0]
    if out is None:
        out = [np.empty((n, w.shape[0])) for w, _ in net.layers]
    if operands is None:
        operands = layer_operands(net, n)
    act = ACTIVATIONS[net.arch.activation]
    h = x
    for i, ((wt, tile), z) in enumerate(zip(operands, out)):
        # OpenBLAS multiplies by a C-contiguous copy of w.T faster than by
        # the strided w.T view, copy included: at 476 rows on one BLAS thread
        # of a 2-vCPU Xeon VM, 4.9, 27.8 and 23.1 us against 8.9, 37.2 and
        # 30.2 us for the default 6 -> 32, 32 -> 64 and 64 -> 10 layers. The
        # two take different kernels, so their bits can differ.
        np.matmul(h, wt, out=z)
        # Adding a tile of the block's shape does the same additions as
        # broadcasting the bias row, but numpy runs a broadcast row by row:
        # at 476 rows on one pinned CPU of the VM above, 5.3, 3.0 and 1.2 us
        # against 14.6, 7.6 and 3.2 us for the 64-, 32- and 10-wide layers.
        z += tile[:n]
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
        raise DimensionMismatchError(f"rows have differing lengths: {exc!s:.80}") from None
    if data.ndim != 2 or len(data) == 0:
        raise DimensionMismatchError(
            f"expected at least one row of scalars, got shape {data.shape!s:.40}")
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

    def __post_init__(self):
        check_fields(self)
        # plain numbers, as json cannot write a numpy integer
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, f.type(getattr(self, f.name)))


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
        "arch": dataclasses.asdict(net.arch),
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
        "meta": dataclasses.asdict(meta),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")


# Per kind of checkpoint field: the types json.loads gives for it, and its name.
_KINDS = {dict: ((dict,), "an object"), bool: ((bool,), "a boolean"),
          int: ((int,), "an integer"), float: ((int, float), "a finite number")}


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
        raise CheckpointDimensionError(f"{name} must hold {size!r:.40} values, got {len(value)}")
    if kind is not float:
        return value
    try:
        number = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        number = np.array(np.inf)
    if not np.isfinite(number).all():
        raise CheckpointFormatError(f"{name} must be finite")
    return number if size is not None else float(number)


# The bytes of the last file that loaded, and the Checkpoint they hold.
_last_loaded = (None, None)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. The arch and meta blocks
    are checked by the dataclasses they build, each other field by _field;
    every std must be > 0, and the network must map the track schema's input
    columns to its stations. A refusal is a CheckpointError whose message
    starts with the file's name.

    A file whose bytes equal the last file that loaded is not parsed again:
    its arrays are shared between the calls, so they are read-only."""
    global _last_loaded
    path = Path(path)
    data = path.read_bytes()
    last_data, ckpt = _last_loaded  # one read, so another thread's load cannot interleave
    if data != last_data:
        try:
            with named(path.name):
                ckpt = _checkpoint_from(_parse(data))
        except ConfigError as exc:  # a stored value its dataclass or check_value refused
            raise CheckpointFormatError(*exc.args) from None
        for array in (*(a for layer in ckpt.net.layers for a in layer), ckpt.normalizer.means,
                      ckpt.normalizer.stds, ckpt.normalizer.constant_flags):
            array.setflags(write=False)
        _last_loaded = (data, ckpt)
    # New containers, so a caller that rebinds a field does not change the
    # next caller's checkpoint.
    return Checkpoint(NetworkParams(ckpt.net.arch, list(ckpt.net.layers)), ckpt.normalizer,
                      ckpt.meta)


def _parse(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"not UTF-8 text ({exc.reason})") from None
    if "\r" in text:  # newlines translated as read_text does, so parse errors keep their positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # nesting deeper than the stack
        raise CheckpointFormatError(f"unparsable checkpoint: {exc!s:.80}") from None
    return payload if type(payload) is dict else {}


def _checkpoint_from(payload: dict) -> Checkpoint:
    version = _field(payload, "format_version", "", int)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"format_version is {version!r:.40}, not {CHECKPOINT_VERSION}")

    arch = _dataclass(payload, "arch", Architecture)
    if (arch.input_dim, arch.output_dim) != (len(INPUT_COLUMNS), N_STATIONS):
        raise CheckpointDimensionError(  # two echoed values, 18 characters each
            f"network maps {arch.input_dim!r:.18} inputs to {arch.output_dim!r:.18} outputs, "
            f"but tracks have {len(INPUT_COLUMNS)} input columns and {N_STATIONS} stations")

    raw_norm = _field(payload, "normalizer", "", dict)
    means = _field(raw_norm, "means", "normalizer", float, arch.input_dim)
    stds = _field(raw_norm, "stds", "normalizer", float, arch.input_dim)
    flags = np.asarray(_field(raw_norm, "constant_flags", "normalizer", bool, arch.input_dim))
    check_value("normalizer.stds", float(stds.min()), float, above=0)

    dims = arch.layer_dims()
    raw_layers = _field(payload, "layers", "", dict, len(dims))
    layers = []
    for i, (raw, (rows, cols)) in enumerate(zip(raw_layers, dims)):
        where = f"layers[{i}]"
        stored = (_field(raw, "rows", where, int), _field(raw, "cols", where, int))
        if stored != (rows, cols):
            raise CheckpointDimensionError(  # two echoed values, 18 characters each
                f"{where}: architecture implies shape {(rows, cols)!r:.18}, "
                f"file stores {stored!r:.18}")
        w = _field(raw, "weights", where, float, rows * cols)
        layers.append((w.reshape(rows, cols), _field(raw, "bias", where, float, rows)))

    meta = _dataclass(payload, "meta", CheckpointMeta)
    return Checkpoint(NetworkParams(arch, layers), Normalizer(means, stds, flags), meta)


def _dataclass(payload: dict, key: str, cls):
    """The dataclass cls built from the object payload[key], which must hold
    each of its fields; cls checks their values, and errors name key."""
    block = _field(payload, key, "", dict)
    names = [f.name for f in dataclasses.fields(cls)]
    for name in names:
        if name not in block:
            raise CheckpointFormatError(f"{key}.{name} is missing")
    with named(key):
        return cls(**{name: block[name] for name in names})
