"""Training loop: exact backpropagation, the adaptive-moment optimizer,
whole-track batch sampling, and synchronous multi-worker gradient averaging.

One epoch = draw a batch of whole tracks, shard its rows across workers,
average the shard gradients (weighted by shard size, reduced in a fixed
order), and apply a single optimizer update at the decayed learning rate.
The averaged gradient is identical to the single-worker gradient up to float
rounding, so worker count never changes what is learned.
"""

import csv
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TrainingDivergedError
from .network import (
    Architecture,
    Checkpoint,
    CheckpointMeta,
    NetworkParams,
    forward_batch,
    init_network,
)
from .numerics import Rng, column_stats

DEFAULT_SEED = 20170324


@dataclass(frozen=True)
class Normalizer:
    """Column-wise standardization fitted on training inputs only."""

    means: np.ndarray
    stds: np.ndarray
    constant_flags: np.ndarray

    def apply(self, inputs) -> np.ndarray:
        return (np.asarray(inputs, dtype=np.float64) - self.means) / self.stds

    def invert(self, normalized) -> np.ndarray:
        return np.asarray(normalized, dtype=np.float64) * self.stds + self.means


def fit_normalizer(inputs) -> Normalizer:
    """Population mean/std per column; constant columns standardize to zero."""
    stats = column_stats(inputs)
    return Normalizer(stats.means, stats.stds, stats.constant)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    arch: Architecture
    epochs: int
    batch_tracks: int = 32
    learning_rate: float = 1e-3
    lr_decay: float = 0.9995
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    workers: int = 1
    seed: int = DEFAULT_SEED
    validation_every: int = 100  # 0 disables validation and best-checkpoint selection

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_tracks < 1:
            raise ValueError(f"batch_tracks must be >= 1, got {self.batch_tracks}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0 <= beta < 1:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.validation_every < 0:
            raise ValueError(f"validation_every must be >= 0, got {self.validation_every}")


@dataclass
class GradientSet:
    """Loss gradients, shaped exactly like NetworkParams.layers."""

    layers: list


@dataclass
class AdamState:
    """First/second moment estimates and the shared step counter."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros(cls, net: NetworkParams) -> "AdamState":
        m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.layers]
        v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.layers]
        return cls(m, v, 0)


class _StepBuffers:
    """One thread's scratch arrays for training steps of up to `rows` batch
    rows: each layer's output (the output layer's then holds diff and then
    delta), the squared errors, and each hidden layer's delta."""

    def __init__(self, arch: Architecture, rows: int):
        sizes = [r for r, _ in arch.layer_dims()]
        self.outputs = [np.empty((rows, s)) for s in sizes]
        self.squares = np.empty((rows, arch.output_dim))
        self.deltas = [np.empty((rows, s)) for s in sizes[:-1]]


def _slope_in_place(activation: str, h: np.ndarray, scratch: np.ndarray) -> None:
    # Overwrite activation values with the activation's derivative, written in
    # terms of the value itself: 1 - h^2 (tanh) or h * (1 - h) (sigmoid).
    if activation == "tanh":
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
    else:
        np.subtract(1.0, h, out=scratch)
        np.multiply(h, scratch, out=h)


def _batch_backprop(net: NetworkParams, x: np.ndarray, t: np.ndarray,
                    buffers: _StepBuffers | None = None) -> tuple:
    """Mean squared error over all rows and outputs, and its exact gradient.

    x is (n, input_dim) of normalized inputs, t is (n, output_dim). The
    intermediates go into buffers, which must have room for n rows, or into
    arrays allocated for this call. The returned loss and gradients never
    alias the buffers.
    """
    n = x.shape[0]
    if buffers is None:
        buffers = _StepBuffers(net.arch, n)
    outputs, hidden = forward_batch(net, x, [z[:n] for z in buffers.outputs])
    k = outputs.shape[1]
    diff = np.subtract(outputs, t, out=outputs)
    squares = np.multiply(diff, diff, out=buffers.squares[:n])
    loss = float(squares.sum() / (n * k))

    acts = [x, *hidden]  # input to each layer
    delta = np.multiply(diff, 2.0 / (n * k), out=diff)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            # This layer's input is no longer needed, so its slope replaces it.
            w, _ = net.layers[i]
            slope = hidden[i - 1]
            next_delta = buffers.deltas[i - 1][:n]
            _slope_in_place(net.arch.activation, slope, next_delta)
            delta = np.matmul(delta, w, out=next_delta)
            delta *= slope
    return loss, GradientSet(grads)


def backprop(net: NetworkParams, x, target) -> tuple:
    """Loss and exact gradients for a single (input, target) row."""
    xv = np.asarray(x, dtype=np.float64).reshape(1, -1)
    tv = np.asarray(target, dtype=np.float64).reshape(1, -1)
    return _batch_backprop(net, xv, tv)


def adam_step(net: NetworkParams, grads: GradientSet, state: AdamState,
              lr: float, cfg: TrainConfig) -> tuple:
    """One adaptive-moment update; returns (new params, new state).

    Moments: m <- b1*m + (1-b1)*g and v <- b2*v + (1-b2)*g^2, bias-corrected
    by 1-b^t; the step is lr * m_hat / (sqrt(v_hat) + eps).
    """
    t = state.t + 1
    bc1 = 1.0 - cfg.adam_beta1 ** t
    bc2 = 1.0 - cfg.adam_beta2 ** t
    new_layers, new_m, new_v = [], [], []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(
            net.layers, grads.layers, state.m, state.v):
        mw = cfg.adam_beta1 * mw + (1.0 - cfg.adam_beta1) * gw
        mb = cfg.adam_beta1 * mb + (1.0 - cfg.adam_beta1) * gb
        vw = cfg.adam_beta2 * vw + (1.0 - cfg.adam_beta2) * (gw * gw)
        vb = cfg.adam_beta2 * vb + (1.0 - cfg.adam_beta2) * (gb * gb)
        new_w = w - lr * (mw / bc1) / (np.sqrt(vw / bc2) + cfg.adam_eps)
        new_b = b - lr * (mb / bc1) / (np.sqrt(vb / bc2) + cfg.adam_eps)
        new_layers.append((new_w, new_b))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return NetworkParams(net.arch, new_layers), AdamState(new_m, new_v, t)


def sample_batch(rng: Rng, data: tuple, batch_tracks: int, out=None) -> tuple:
    """Draw batch_tracks distinct tracks uniformly and gather all their rows.

    data is (inputs, targets), each stacked per track as (tracks, rows,
    cols). Returns (inputs (n, input cols), targets (n, target cols)) with
    n = batch_tracks * rows; out, if given, is an (inputs, targets) pair
    shaped (batch_tracks, rows, cols) that receives them. Batches always
    contain whole tracks, never partial ones.
    """
    inputs, targets = data
    if batch_tracks > len(inputs):
        raise ValueError(
            f"batch of {batch_tracks} tracks requested but only {len(inputs)} available")
    idx = rng.choice_without_replacement(len(inputs), batch_tracks)
    x_out, t_out = (None, None) if out is None else out
    # idx is in range by construction; mode="clip" only skips the bounds
    # check, which would gather through a temporary copy instead of into out.
    x = np.take(inputs, idx, axis=0, out=x_out, mode="clip")
    t = np.take(targets, idx, axis=0, out=t_out, mode="clip")
    return x.reshape(-1, x.shape[-1]), t.reshape(-1, t.shape[-1])


def _shard_bounds(n_rows: int, workers: int) -> list:
    """Contiguous near-equal shards; the first n % w shards get one extra row."""
    w = min(workers, n_rows)
    base, extra = divmod(n_rows, w)
    bounds, lo = [], 0
    for i in range(w):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _weighted_mean_grads(results, bounds, n_rows: int) -> tuple:
    """Reduce per-shard (loss, grads) in shard order, weighting by shard size."""
    loss = 0.0
    acc = None
    for (shard_loss, shard_grads), (lo, hi) in zip(results, bounds):
        w = hi - lo
        loss += w * shard_loss
        if acc is None:
            acc = [[w * gw, w * gb] for gw, gb in shard_grads.layers]
        else:
            for slot, (gw, gb) in zip(acc, shard_grads.layers):
                slot[0] += w * gw
                slot[1] += w * gb
    scale = 1.0 / n_rows
    return loss * scale, GradientSet([(gw * scale, gb * scale) for gw, gb in acc])


class _StepExecutor:
    """What the training steps of one train() call reuse: the batch gather
    buffers, the thread pool that shards run on (workers > 1), and one
    _StepBuffers per thread that runs steps, made on its first step.

    Nothing here outlives the train() call that owns it.
    """

    def __init__(self, arch: Architecture, batch_tracks: int, rows_per_track: int,
                 workers: int):
        self.batch = (np.empty((batch_tracks, rows_per_track, arch.input_dim)),
                      np.empty((batch_tracks, rows_per_track, arch.output_dim)))
        n_rows = batch_tracks * rows_per_track
        self._arch = arch
        self._rows = -(-n_rows // min(workers, n_rows))  # the largest shard
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def buffers(self) -> _StepBuffers:
        """The calling thread's step buffers."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = _StepBuffers(self._arch, self._rows)
        return buffers

    def map(self, fn, jobs):
        return self._pool.map(fn, jobs)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


def _parallel_loss_grads(net, x, t, workers, executor=None) -> tuple:
    """Mean loss and gradient of a batch whose rows are sharded across workers.

    executor is the _StepExecutor of a train() call: shards run on its pool
    and each step reuses its thread's buffers. Without one, shards run on a
    pool made for this call, and each step allocates its own buffers.
    """
    n_rows = x.shape[0]
    if n_rows == 0:
        raise ValueError("cannot compute gradients for an empty batch")
    if workers <= 1 or n_rows == 1:
        return _batch_backprop(net, x, t, None if executor is None else executor.buffers())
    bounds = _shard_bounds(n_rows, workers)
    jobs = [(x[lo:hi], t[lo:hi]) for lo, hi in bounds]
    # Workers only read net; results are reduced in shard order regardless of
    # completion order, so scheduling cannot change the outcome.
    if executor is None:
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            results = list(pool.map(lambda job: _batch_backprop(net, *job), jobs))
    else:
        results = list(executor.map(
            lambda job: _batch_backprop(net, *job, executor.buffers()), jobs))
    return _weighted_mean_grads(results, bounds, n_rows)


def parallel_gradient(net: NetworkParams, batch: tuple, workers: int) -> GradientSet:
    """Mean gradient of a batch computed by sharding rows across workers.

    Equals the single-worker mean gradient up to float rounding.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    x, t = batch
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    _, grads = _parallel_loss_grads(net, x, t, workers)
    return grads


@dataclass(frozen=True)
class HistoryRow:
    """One epoch of the training record; val_mse is None off-interval."""

    epoch: int
    lr: float
    train_mse: float
    val_mse: float | None


def _dataset_mse(net: NetworkParams, x: np.ndarray, t: np.ndarray) -> float:
    outputs, _ = forward_batch(net, x)
    diff = np.subtract(outputs, t, out=outputs)
    return float((diff * diff).sum() / diff.size)


def train(cfg: TrainConfig, split, progress=None) -> tuple:
    """Run the full training loop on an already-split dataset.

    Validation MSE is recorded every cfg.validation_every epochs (and at the
    final epoch); the returned checkpoint holds the parameters with the
    lowest validation MSE seen. validation_every = 0 skips validation and
    returns the final parameters. progress, if given, is called as
    progress(HistoryRow) at each validation point.

    Returns (Checkpoint, [HistoryRow per epoch]).
    """
    tracks = list(split.training)
    if not tracks:
        raise ValueError("training split is empty")
    if cfg.batch_tracks > len(tracks):
        raise ValueError(
            f"batch_tracks = {cfg.batch_tracks} exceeds the {len(tracks)} training tracks")

    raw_inputs = np.stack([tr.inputs for tr in tracks])
    normalizer = fit_normalizer(raw_inputs.reshape(-1, raw_inputs.shape[-1]))
    data = (normalizer.apply(raw_inputs),
            np.stack([np.asarray(tr.surge, dtype=np.float64) for tr in tracks]))

    val_x = val_t = None
    if cfg.validation_every and split.validation:
        val_x = normalizer.apply(np.concatenate([tr.inputs for tr in split.validation]))
        val_t = np.concatenate([np.asarray(tr.surge) for tr in split.validation])

    root = Rng(cfg.seed)
    net = init_network(cfg.arch, root.child(0))
    batch_rng = root.child(1)
    state = AdamState.zeros(net)

    history = []
    best = None  # (val_mse, params copy, epoch, train_mse)
    executor = _StepExecutor(cfg.arch, cfg.batch_tracks, data[0].shape[1], cfg.workers)
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)
            x, t = sample_batch(batch_rng, data, cfg.batch_tracks, out=executor.batch)
            loss, grads = _parallel_loss_grads(net, x, t, cfg.workers, executor)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            net, state = adam_step(net, grads, state, lr, cfg)

            val = None
            if val_x is not None and (epoch % cfg.validation_every == 0 or epoch == cfg.epochs):
                val = _dataset_mse(net, val_x, val_t)
                if best is None or val < best[0]:
                    best = (val, net.copy(), epoch, loss)
            row = HistoryRow(epoch, lr, loss, val)
            history.append(row)
            if progress is not None and val is not None:
                progress(row)
    finally:
        executor.shutdown()

    if best is not None:
        _, final_net, sel_epoch, sel_loss = best
    else:
        final_net, sel_epoch, sel_loss = net, cfg.epochs, history[-1].train_mse
    meta = CheckpointMeta(seed=cfg.seed, epochs_trained=sel_epoch, final_train_mse=sel_loss)
    return Checkpoint(final_net, normalizer, meta), history


def write_history(history, path) -> None:
    """Write the per-epoch record as CSV: epoch, lr, train_mse, val_mse."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "lr", "train_mse", "val_mse"))
        for row in history:
            writer.writerow((
                row.epoch,
                format(row.lr, ".17g"),
                format(row.train_mse, ".17g"),
                "" if row.val_mse is None else format(row.val_mse, ".17g"),
            ))
