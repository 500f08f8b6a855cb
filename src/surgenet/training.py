"""Training loop: exact backpropagation, the adaptive-moment optimizer,
whole-track batch sampling, and synchronous multi-worker gradient averaging.

One epoch = draw a batch of whole tracks, cut its rows into contiguous shards
of at most TILE_ROWS rows, average the shard gradients (weighted by shard
size, reduced in shard order), and apply a single optimizer update at the
decayed learning rate. The shards depend on the batch's row count alone;
workers only sets how many threads run them, so worker count never changes
a single bit of what is learned.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import atomic_write
from .errors import ConfigError, TrackValidationError, TrainingDivergedError, check_fields
from .network import (
    Architecture,
    Checkpoint,
    CheckpointMeta,
    NetworkParams,
    fit_normalizer,
    forward_batch,
    init_network,
    layer_operands,
    layer_views,
)
from .numerics import SLOPES, Rng

DEFAULT_SEED = 20170324

# The most rows one shard of a training step holds. Each thread runs its
# shards through one scratch set sized to the largest shard, and at 512 rows
# that set (every layer's output and delta) is about 0.8 MB, so it stays in a
# core's L2 cache (2 MB on the VM below) from shard to shard. The default
# 6176-row batch runs as 13 shards of 475 or 476 rows. One-worker train() of
# the default net and batch on the seed-7 corpus, 200 epochs, medians of 9
# interleaved runs on one pinned CPU of a 2-vCPU Xeon VM with one BLAS thread:
#
#   TILE_ROWS  128   256   384   512   768   1024  1544  2048
#   ms/epoch   6.61  5.52  5.15  4.97  5.60  5.45  5.52  5.51
TILE_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    arch: Architecture
    epochs: int = field(metadata=dict(at_least=1))
    batch_tracks: int = field(default=32, metadata=dict(at_least=1))
    learning_rate: float = field(default=1e-3, metadata=dict(above=0))
    lr_decay: float = field(default=0.9995, metadata=dict(above=0, at_most=1))
    adam_beta1: float = field(default=0.9, metadata=dict(at_least=0, below=1))
    adam_beta2: float = field(default=0.999, metadata=dict(at_least=0, below=1))
    adam_eps: float = field(default=1e-8, metadata=dict(above=0))
    # threads that run a step's shards; at a fixed BLAS thread count they
    # never change the result
    workers: int = field(default=1, metadata=dict(at_least=1))
    seed: int = DEFAULT_SEED
    # 0 disables validation and best-checkpoint selection
    validation_every: int = field(default=100, metadata=dict(at_least=0))

    def __post_init__(self):
        check_fields(self)


@dataclass
class AdamState:
    """Moment estimates m and v, laid out as NetworkParams.flat, and the step t."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, net: NetworkParams) -> "AdamState":
        return cls(np.zeros_like(net.flat), np.zeros_like(net.flat))


class _StepBuffers:
    """One thread's scratch arrays for training steps of up to `rows` batch
    rows: each layer's output (the output layer's then holds diff and then
    delta), the squared errors, each hidden layer's delta, and the ones that
    sum a delta's rows into a bias gradient. The layer operands, which every
    thread only reads, are not here: the _StepExecutor holds one set for
    all threads."""

    def __init__(self, arch: Architecture, rows: int):
        sizes = [r for r, _ in arch.layer_dims()]
        self.outputs = [np.empty((rows, s)) for s in sizes]
        self.squares = np.empty((rows, arch.output_dim))
        self.deltas = [np.empty((rows, s)) for s in sizes[:-1]]
        self.ones = np.ones(rows)


def _batch_backprop(net: NetworkParams, x: np.ndarray, t: np.ndarray,
                    buffers: _StepBuffers, operands: list, grads: list) -> tuple:
    """Mean squared error over all rows and outputs, and its exact gradient,
    written into grads: (gw, gb) pairs of C-contiguous arrays shaped like
    net.layers, such as one shard's slot of a _StepExecutor's stack.

    x is (n, input_dim) of normalized inputs, t is (n, output_dim), and
    operands is net's layer_operands for at least n rows. The intermediates
    go into buffers, which must have room for n rows. Returns (loss, grads).
    """
    n = x.shape[0]
    outputs, hidden = forward_batch(net, x, [z[:n] for z in buffers.outputs], operands)
    k = outputs.shape[1]
    diff = np.subtract(outputs, t, out=outputs)
    squares = np.multiply(diff, diff, out=buffers.squares[:n])
    loss = float(squares.sum() / (n * k))

    acts = [x, *hidden]  # input to each layer
    delta = np.multiply(diff, 2.0 / (n * k), out=diff)
    ones = buffers.ones[:n]
    for i in range(len(net.layers) - 1, -1, -1):
        gw, gb = grads[i]
        # The products take the kernels that allocating ones would, so the
        # bits are the same. The bias gradient is the column sum of delta,
        # taken as a BLAS product: delta.sum(axis=0) reduces row by row and
        # is several times slower at these shapes.
        np.matmul(delta.T, acts[i], out=gw)
        np.matmul(ones, delta, out=gb)
        if i > 0:
            # This layer's input is no longer needed, so its slope replaces it.
            w, _ = net.layers[i]
            slope = hidden[i - 1]
            next_delta = buffers.deltas[i - 1][:n]
            SLOPES[net.arch.activation](slope, next_delta)
            delta = np.matmul(delta, w, out=next_delta)
            delta *= slope
    return loss, grads


def adam_step(net: NetworkParams, grads: np.ndarray, state: AdamState,
              lr: float, cfg: TrainConfig) -> tuple:
    """One adaptive-moment update of vectors laid out as net.flat; returns
    (new params, new state) in new arrays, and only reads its arguments.
    m <- b1*m + (1-b1)*g and v <- b2*v + (1-b2)*g^2, bias-corrected by
    1-b^t; the step is lr * m_hat / (sqrt(v_hat) + eps).
    """
    t = state.t + 1
    m = cfg.adam_beta1 * state.m + (1.0 - cfg.adam_beta1) * grads
    v = cfg.adam_beta2 * state.v + (1.0 - cfg.adam_beta2) * (grads * grads)
    # The step lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps), one operation
    # at a time, in place on arrays this call made: same bits, fewer temporaries.
    denom = np.sqrt(v / (1.0 - cfg.adam_beta2 ** t))
    denom += cfg.adam_eps
    flat = m / (1.0 - cfg.adam_beta1 ** t)
    flat *= lr
    flat /= denom
    np.subtract(net.flat, flat, out=flat)
    return NetworkParams(net.arch, flat), AdamState(m, v, t)


def sample_batch(rng: Rng, data: tuple, batch_tracks: int, out: tuple) -> tuple:
    """Draw batch_tracks distinct tracks uniformly and gather all their rows
    into out.

    data is (inputs, targets), each stacked per track as (tracks, rows,
    cols); out is an (inputs, targets) pair shaped (batch_tracks, rows,
    cols). Returns views of out as (inputs (n, input cols), targets (n,
    target cols)) with n = batch_tracks * rows. Batches always contain whole
    tracks, never partial ones.
    """
    inputs, targets = data
    idx = rng.choice_without_replacement(len(inputs), batch_tracks)
    # idx is in range by construction; mode="clip" only skips the bounds
    # check, which would gather through a temporary copy instead of into out.
    x = np.take(inputs, idx, axis=0, out=out[0], mode="clip")
    t = np.take(targets, idx, axis=0, out=out[1], mode="clip")
    return x.reshape(-1, x.shape[-1]), t.reshape(-1, t.shape[-1])


def _tile_bounds(n_rows: int, most: int) -> list:
    """The fewest contiguous near-equal shards of at most `most` rows each;
    the first n_rows % shards of them get one extra row."""
    shards = -(-n_rows // most)
    base, extra = divmod(n_rows, shards)
    bounds, lo = [], 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class _StepExecutor:
    """What every training step over a batch of n_rows rows reuses: the
    shard bounds, which depend on n_rows alone, one _StepBuffers per thread
    that runs shards, each sized to the largest shard, the layer operands
    that every shard reads, the stack that every shard's gradients go into,
    and, when more than one worker gets a shard, the thread pool of
    min(workers, shards) threads that runs them.

    Thread g of T runs shards g, g + T, g + 2T, ... through buffers[g], so
    each scratch set stays warm in its core's cache from shard to shard.
    The operands (each layer's contiguous w.T, its bias tiled to the
    largest shard's rows, and the norms that bound its outputs) are made by
    the first prepare(net), and each later one refreshes them in place: once
    per step and once per validation point, on the calling thread while no
    shard runs.

    Row s of grads holds shard s's gradients, laid out as NetworkParams.flat,
    and slots[s] is that row's layer_views; counts holds each shard's row
    count as a float, shaped (shards, 1) to scale the rows of grads.
    Nothing here outlives the train() call that owns it.
    """

    def __init__(self, arch: Architecture, n_rows: int, workers: int):
        self.bounds = _tile_bounds(n_rows, TILE_ROWS)
        threads = min(workers, len(self.bounds))
        self.rows = max(hi - lo for lo, hi in self.bounds)
        self.buffers = [_StepBuffers(arch, self.rows) for _ in range(threads)]
        self.operands = None
        self.grads = np.zeros((len(self.bounds), sum(r * c + r for r, c in arch.layer_dims())))
        self.slots = [layer_views(row, arch) for row in self.grads]
        self.counts = np.array([[hi - lo] for lo, hi in self.bounds], dtype=np.float64)
        self.pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def prepare(self, net: NetworkParams) -> list:
        """The layer operands of net, for blocks of up to self.rows rows."""
        self.operands = layer_operands(net, self.rows, out=self.operands)
        return self.operands

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def _weighted_mean_grads(losses: list, executor: _StepExecutor) -> tuple:
    """Reduce the shard losses, in shard order, and the shard gradients in
    executor.grads, weighting each shard by its row count.

    Each shard's row is scaled by its count in place, the rows are summed
    into a new array and that is scaled by 1 / rows: the products and
    additions, in shard order, of scaling each shard's arrays and adding
    them one by one, so the bits are the same. Returns (loss, that array).
    executor.grads is left scaled, for the next step to overwrite.
    """
    loss = 0.0
    for shard_loss, (lo, hi) in zip(losses, executor.bounds):
        loss += (hi - lo) * shard_loss
    scale = 1.0 / executor.bounds[-1][1]
    stack = np.multiply(executor.grads, executor.counts, out=executor.grads)
    # Along the outer axis of rows longer than one value, numpy adds row
    # after row (one-value rows would be summed pairwise). Starting from
    # -0.0, the identity of addition, keeps a sum of -0.0 shards negative.
    total = np.add.reduce(stack, axis=0, initial=-0.0)
    total *= scale
    return loss * scale, total


def _parallel_loss_grads(net, x, t, workers, executor) -> tuple:
    """Mean loss and gradient of a batch, computed shard by shard.

    executor is the _StepExecutor of a train() call, made for x's row count
    and workers; its layer operands are refreshed from net once, before any
    shard runs, and every shard reads them. Without a pool (one worker or
    one shard) every shard runs in order on the calling thread through
    buffers[0]; with one, thread g runs its shards g, g + T, ... in order
    through buffers[g]. workers itself is not read here, but the
    benchmark's tracer tags each call's span from it
    (benchmark/spans.py::_shard_count), so it keeps its place in the
    signature.
    """
    # Shards only read net and the operands, and shard s writes its
    # gradients into slot s of the executor's stack alone; results are
    # reduced in shard order regardless of which thread ran a shard or when,
    # so neither scheduling nor the thread count can change the outcome.
    bounds, threads = executor.bounds, len(executor.buffers)
    operands = executor.prepare(net)

    def run(g):
        return [_batch_backprop(net, x[lo:hi], t[lo:hi], executor.buffers[g], operands, slot)[0]
                for (lo, hi), slot in zip(bounds[g::threads], executor.slots[g::threads])]

    mapper = map if executor.pool is None else executor.pool.map
    per_thread = list(mapper(run, range(threads)))
    losses = [per_thread[s % threads][s // threads] for s in range(len(bounds))]
    return _weighted_mean_grads(losses, executor)


@dataclass(frozen=True)
class HistoryRow:
    """One epoch of the training record; val_mse is None off-interval."""

    epoch: int
    lr: float
    train_mse: float
    val_mse: float | None


def _dataset_mse(net: NetworkParams, x: np.ndarray, t: np.ndarray,
                 executor: _StepExecutor) -> float:
    """Mean squared error over all rows and outputs of (x, t).

    The rows run forward as a step's shards do: in tiles of at most
    executor.rows rows, through the first thread's scratch set and the
    operands that executor.prepare(net) refreshes. The tiles' sums of
    squares are added in tile order.
    """
    buffers, operands = executor.buffers[0], executor.prepare(net)
    total = 0.0
    for lo, hi in _tile_bounds(len(x), executor.rows):
        n = hi - lo
        outputs, _ = forward_batch(net, x[lo:hi], [z[:n] for z in buffers.outputs], operands)
        diff = np.subtract(outputs, t[lo:hi], out=outputs)
        total += float(np.multiply(diff, diff, out=buffers.squares[:n]).sum())
    return total / t.size


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
        raise TrackValidationError("training split is empty")
    if cfg.batch_tracks > len(tracks):
        raise ConfigError(
            f"batch_tracks = {cfg.batch_tracks!r:.40} exceeds the {len(tracks)} training tracks")

    raw_inputs = np.stack([tr.inputs for tr in tracks])
    normalizer = fit_normalizer(raw_inputs.reshape(-1, raw_inputs.shape[-1]))
    data = (normalizer.apply(raw_inputs), np.stack([tr.surge for tr in tracks]))

    val_x = val_t = None
    if cfg.validation_every and split.validation:
        val_x = normalizer.apply(np.concatenate([tr.inputs for tr in split.validation]))
        val_t = np.concatenate([tr.surge for tr in split.validation])

    root = Rng(cfg.seed)
    net = init_network(cfg.arch, root.child(0))
    batch_rng = root.child(1)
    state = AdamState.zeros(net)

    history = []
    best = None  # (val_mse, params, epoch, train_mse)
    gathered = tuple(np.empty((cfg.batch_tracks, *part.shape[1:])) for part in data)
    executor = _StepExecutor(cfg.arch, cfg.batch_tracks * data[0].shape[1], cfg.workers)
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)
            x, t = sample_batch(batch_rng, data, cfg.batch_tracks, out=gathered)
            loss, grads = _parallel_loss_grads(net, x, t, cfg.workers, executor)
            if not math.isfinite(loss):
                last = (f"last finite training loss {float(history[-1].train_mse)!r} "
                        f"at epoch {epoch - 1}; " if history else "")
                raise TrainingDivergedError(f"{last}non-finite training loss at epoch {epoch}")
            net, state = adam_step(net, grads, state, lr, cfg)

            val = None
            if val_x is not None and (epoch % cfg.validation_every == 0 or epoch == cfg.epochs):
                val = _dataset_mse(net, val_x, val_t, executor)
                if best is None or val < best[0]:
                    best = (val, net, epoch, loss)  # adam_step never writes into net
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
    """Write the per-epoch record as CSV: epoch, lr, train_mse, val_mse.

    Each line is one %-format, as in dataset.format_rows: "%.17g" % v writes
    the bytes of format(v, ".17g") and "%d" those csv.writer writes for an
    int. Epochs off the validation interval take the template whose val_mse
    field is blank.
    """
    with_val = "%d,%.17g,%.17g,%.17g\r\n"
    without_val = "%d,%.17g,%.17g,\r\n"
    with atomic_write(path) as fh:
        fh.write("epoch,lr,train_mse,val_mse\r\n")
        fh.write("".join([
            without_val % (row.epoch, row.lr, row.train_mse) if row.val_mse is None
            else with_val % (row.epoch, row.lr, row.train_mse, row.val_mse)
            for row in history]))
