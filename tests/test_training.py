import csv
import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from surgenet.dataset import DatasetSplit, StormTrack, default_oracle, generate_track
from surgenet.errors import DomainError, TrainingDivergedError
from surgenet.network import (
    Architecture,
    NetworkParams,
    fit_normalizer,
    forward_batch,
    init_network,
)
from surgenet.numerics import Rng
from surgenet.training import (
    TILE_ROWS,
    AdamState,
    TrainConfig,
    _batch_backprop,
    _dataset_mse,
    _parallel_loss_grads,
    _StepBuffers,
    _StepExecutor,
    _tile_bounds,
    adam_step,
    sample_batch,
    train,
    write_history,
)


def make_tracks(n, seed=0):
    root = Rng(seed)
    return [generate_track(root.child(i), default_oracle(), f"track_{i:04d}")
            for i in range(n)]


def make_split(n_train, n_val=2, n_test=2, seed=0):
    tracks = make_tracks(n_train + n_val + n_test, seed=seed)
    return DatasetSplit(
        training=tuple(tracks[:n_train]),
        validation=tuple(tracks[n_train:n_train + n_val]),
        testing=tuple(tracks[n_train + n_val:]),
    )


def zero_net(arch):
    net = init_network(arch, Rng(0))
    return NetworkParams(arch, [(np.zeros_like(w), np.zeros_like(b))
                                for w, b in net.layers])


def stacked(tracks):
    """Tracks stacked as sample_batch expects: (inputs, targets) per track."""
    return np.stack([tr.inputs for tr in tracks]), np.stack([tr.surge for tr in tracks])


def draw_batch(rng, data, batch_tracks):
    """sample_batch into freshly allocated arrays of the batch's shape."""
    out = tuple(np.empty((batch_tracks, *part.shape[1:])) for part in data)
    return sample_batch(rng, data, batch_tracks, out)


def row_backprop(net, x, t):
    """Loss and gradients of one (input, target) row through the training step."""
    return _batch_backprop(net, np.reshape(x, (1, -1)), np.reshape(t, (1, -1)),
                           _StepBuffers(net.arch, 1))


def sharded_loss_grads(net, x, t, workers):
    """The training step on a _StepExecutor made for this batch and workers."""
    executor = _StepExecutor(net.arch, len(x), workers)
    try:
        return _parallel_loss_grads(net, x, t, workers, executor)
    finally:
        executor.shutdown()


def max_layer_diff(a, b):
    return max(max(np.abs(wa - wb).max(), np.abs(ba - bb).max())
               for (wa, ba), (wb, bb) in zip(a, b))


class TestNormalizer:
    def test_hand_case(self):
        norm = fit_normalizer([[0.0], [2.0]])
        assert norm.means[0] == 1.0
        assert norm.stds[0] == 1.0  # population std of {0, 2}
        assert not norm.constant_flags[0]

    def test_identical_rows_flagged_constant(self):
        norm = fit_normalizer([[3.0, 7.0]] * 5)
        assert norm.constant_flags.all()
        np.testing.assert_array_equal(norm.apply([[3.0, 7.0]]), [[0.0, 0.0]])

    def test_applies_stored_means_and_stds(self):
        data = Rng(1).normal(size=(40, 6)) * 10 + 3
        norm = fit_normalizer(data)
        np.testing.assert_allclose(norm.means, data.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(norm.stds, data.std(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(norm.apply(data), (data - norm.means) / norm.stds)

    def test_standardizes_training_data(self):
        data = Rng(2).uniform(-5, 5, size=(100, 4))
        z = fit_normalizer(data).apply(data)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


class TestBackprop:
    def test_perfect_prediction_gives_zero_gradient(self):
        net = init_network(Architecture(6, (4,), 10), Rng(3))
        x = Rng(4).normal(size=6)
        y, _ = forward_batch(net, x[None, :])
        loss, grads = row_backprop(net, x, y[0])
        assert loss == 0.0
        for gw, gb in grads:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_zero_network_closed_form(self):
        arch = Architecture(6, (4,), 10)
        net = zero_net(arch)
        t = np.arange(1.0, 11.0)
        loss, grads = row_backprop(net, np.ones(6), t)
        assert math.isclose(loss, float((t * t).mean()), rel_tol=1e-15)
        # Output stays 0, hidden activations are 0, so only the output bias
        # receives gradient: d/db mean((0 - t)^2) = -2 t / K.
        np.testing.assert_allclose(grads[-1][1], -2.0 * t / 10.0, rtol=1e-15)
        assert np.all(grads[-1][0] == 0.0)
        assert np.all(grads[0][0] == 0.0)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_matches_finite_differences(self, activation):
        arch = Architecture(5, (4, 3), 2, activation)
        net = init_network(arch, Rng(7))
        x = Rng(8).normal(size=5)
        t = Rng(9).normal(size=2)
        _, grads = row_backprop(net, x, t)
        step = 1e-6
        for li, (w, b) in enumerate(net.layers):
            for arr, ga in ((w, grads[li][0]), (b, grads[li][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + step
                    up, _ = row_backprop(net, x, t)
                    arr[ix] = orig - step
                    dn, _ = row_backprop(net, x, t)
                    arr[ix] = orig
                    fd = (up - dn) / (2 * step)
                    denom = max(abs(fd), abs(ga[ix]), 1e-3)
                    assert abs(fd - ga[ix]) / denom < 1e-6

    def test_batch_loss_is_mean_over_rows_and_outputs(self):
        net = init_network(Architecture(6, (4,), 10), Rng(5))
        xs = Rng(6).normal(size=(8, 6))
        ts = Rng(7).normal(size=(8, 10))
        losses = [row_backprop(net, xs[i], ts[i])[0] for i in range(8)]
        batch_loss, _ = _batch_backprop(net, xs, ts, _StepBuffers(net.arch, 8))
        assert math.isclose(batch_loss, float(np.mean(losses)), rel_tol=1e-12)


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(arch=Architecture(6, (4,), 10), epochs=1, **kw)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        net = init_network(Architecture(6, (4,), 10), Rng(1))
        state = AdamState.zeros(net)
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.layers]
        new_net, new_state = adam_step(net, zero, state, 0.01, self.cfg())
        assert max_layer_diff(net.layers, new_net.layers) == 0.0
        assert new_state.t == 1

    def test_first_step_bounded_by_learning_rate(self):
        net = init_network(Architecture(6, (4,), 10), Rng(2))
        state = AdamState.zeros(net)
        _, grads = row_backprop(net, Rng(3).normal(size=6), Rng(4).normal(size=10))
        lr = 0.01
        new_net, _ = adam_step(net, grads, state, lr, self.cfg())
        assert max_layer_diff(net.layers, new_net.layers) <= lr

    def test_inputs_not_mutated(self):
        net = init_network(Architecture(6, (4,), 10), Rng(5))
        before = [(w.copy(), b.copy()) for w, b in net.layers]
        state = AdamState.zeros(net)
        _, grads = row_backprop(net, Rng(6).normal(size=6), Rng(7).normal(size=10))
        adam_step(net, grads, state, 0.01, self.cfg())
        assert max_layer_diff(net.layers, before) == 0.0
        assert state.t == 0

    def test_converges_on_quadratic(self):
        # Minimize sum(theta^2) by feeding the optimizer its exact gradient.
        arch = Architecture(1, (1,), 1)
        net = NetworkParams(arch, [(np.ones((1, 1)), np.ones(1)),
                                   (np.ones((1, 1)), np.ones(1))])
        state = AdamState.zeros(net)
        cfg = self.cfg(learning_rate=0.05)
        for _ in range(2000):
            grads = [(2.0 * w, 2.0 * b) for w, b in net.layers]
            net, state = adam_step(net, grads, state, cfg.learning_rate, cfg)
        worst = max(max(np.abs(w).max(), np.abs(b).max()) for w, b in net.layers)
        assert worst < 1e-3


class TestBatchSampling:
    def test_full_batch_uses_every_track_once(self):
        tracks = make_tracks(5)
        x, t = draw_batch(Rng(10), stacked(tracks), 5)
        assert x.shape == (5 * 193, 6)
        assert t.shape == (5 * 193, 10)
        expected = {tr.inputs[0].tobytes() for tr in tracks}
        seen = {x[i * 193].tobytes() for i in range(5)}
        assert seen == expected

    def test_whole_track_row_count(self):
        tracks = make_tracks(4)
        x, _ = draw_batch(Rng(11), stacked(tracks), 3)
        assert x.shape[0] == 3 * 193

    def test_same_seed_same_batch(self):
        tracks = make_tracks(6)
        x1, t1 = draw_batch(Rng(12), stacked(tracks), 4)
        x2, t2 = draw_batch(Rng(12), stacked(tracks), 4)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(t1, t2)

    def test_oversized_batch_rejected(self):
        with pytest.raises(DomainError, match="cannot draw 3 distinct items from 2"):
            draw_batch(Rng(13), stacked(make_tracks(2)), 3)

    def test_gathers_into_out(self):
        data = stacked(make_tracks(6))
        idx = Rng(14).choice_without_replacement(6, 4)
        out = (np.empty((4, 193, 6)), np.empty((4, 193, 10)))
        x_out, t_out = sample_batch(Rng(14), data, 4, out)
        np.testing.assert_array_equal(x_out, data[0][idx].reshape(-1, 6))
        np.testing.assert_array_equal(t_out, data[1][idx].reshape(-1, 10))
        assert np.shares_memory(x_out, out[0]) and np.shares_memory(t_out, out[1])


class TestSharding:
    def test_uneven_split(self):
        assert _tile_bounds(5, 3) == [(0, 3), (3, 5)]

    def test_remainder_goes_to_leading_shards(self):
        bounds = _tile_bounds(10, 3)
        assert [hi - lo for lo, hi in bounds] == [3, 3, 2, 2]

    def test_more_workers_than_rows(self):
        # Three rows are one shard, and one shard needs no pool.
        executor = _StepExecutor(Architecture(6, (4,), 10), 3, 8)
        assert executor.bounds == [(0, 3)]
        assert executor.pool is None

    def test_covers_range_exactly(self):
        for n, most in ((193, 49), (617, 78), (32, 1)):
            bounds = _tile_bounds(n, most)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


class TestParallelGradient:
    def test_matches_single_worker(self):
        # 13 tracks' rows make 5 shards, so more than one worker uses a pool.
        net = init_network(Architecture(6, (8, 8), 10), Rng(20))
        x = Rng(21).normal(size=(13 * 193, 6))
        t = Rng(22).normal(size=(13 * 193, 10))
        ref_loss, ref = sharded_loss_grads(net, x, t, 1)
        for workers in (2, 3, 4, 8):
            loss, got = sharded_loss_grads(net, x, t, workers)
            assert loss == ref_loss
            assert max_layer_diff(ref, got) == 0.0

    # numpy warns of the diverging run's overflow on the pool threads, where
    # an np.errstate here does not reach.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_pool_thread_outlives_train(self):
        # 12 tracks are 2316 rows: 5 shards, run on a pool of 2 threads.
        cfg = TrainConfig(arch=Architecture(6, (8,), 10), epochs=3, batch_tracks=12,
                          workers=2, validation_every=0, seed=5)
        split = make_split(12)
        threads = threading.active_count()
        train(cfg, split)
        assert threading.active_count() == threads
        with pytest.raises(TrainingDivergedError, match="epoch 2$"):
            train(dataclasses.replace(cfg, learning_rate=1e300), split)
        assert threading.active_count() == threads

    # Prints the weight hash of a 30-epoch run on 16 tracks, whose batch of 12
    # tracks (2316 rows) is 5 shards, for 1 and then 2 workers.
    CORE_SCRIPT = """
import hashlib
from surgenet.dataset import DatasetSplit, default_oracle, generate_track
from surgenet.network import Architecture
from surgenet.numerics import Rng
from surgenet.training import TrainConfig, train
tracks = tuple(generate_track(Rng(7).child(i), default_oracle(), f"t{i}") for i in range(16))
for workers in (1, 2):
    cfg = TrainConfig(Architecture(6, (32, 64), 10), 30, batch_tracks=12, workers=workers,
                      validation_every=0)
    ckpt, _ = train(cfg, DatasetSplit(tracks, (), ()))
    print(hashlib.sha256(b"".join(a.tobytes() for layer in ckpt.net.layers
                                  for a in layer)).hexdigest())
"""

    @pytest.mark.parametrize("core", [None, "Haswell"], ids=["native", "Haswell"])
    def test_workers_agree_on_each_openblas_core(self, core):
        # OpenBLAS picks its kernels per CPU at load time, and OPENBLAS_CORETYPE
        # picks another, so this runs in a fresh process for each core.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        hashes = subprocess.run([sys.executable, "-c", self.CORE_SCRIPT], env=env, check=True,
                                capture_output=True, text=True, timeout=300).stdout.split()
        assert len(hashes) == 2 and hashes[0] == hashes[1]


class TestTrainConfig:
    def base(self, **kw):
        return TrainConfig(arch=Architecture(6, (4,), 10), epochs=10, **kw)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_tracks", 0), ("learning_rate", 0.0),
        ("learning_rate", -1.0), ("lr_decay", 0.0), ("lr_decay", 1.1),
        ("adam_beta1", 1.0), ("adam_beta2", -0.1), ("adam_eps", 0.0),
        ("workers", 0), ("validation_every", -1),
        ("epochs", 2.5), ("epochs", True), ("batch_tracks", 2.0),
        ("learning_rate", math.inf), ("adam_eps", math.inf), ("seed", 1.5),
    ])
    def test_rejects_bad_values(self, field, value):
        kw = {"epochs": 10, field: value} if field != "epochs" else {field: value}
        with pytest.raises(ValueError, match=field):
            TrainConfig(arch=Architecture(6, (4,), 10), **kw)

    def test_defaults_accepted(self):
        cfg = self.base()
        assert cfg.lr_decay == 0.9995
        assert cfg.batch_tracks == 32


@pytest.fixture(scope="module")
def split():
    return make_split(8)


class TestTrain:
    def small_cfg(self, **kw):
        kw.setdefault("arch", Architecture(6, (8,), 10))
        kw.setdefault("epochs", 120)
        kw.setdefault("batch_tracks", 4)
        kw.setdefault("validation_every", 40)
        kw.setdefault("seed", 77)
        return TrainConfig(**kw)

    def test_loss_decreases(self, split):
        _, history = train(self.small_cfg(), split)
        assert history[-1].train_mse < history[0].train_mse

    def test_history_covers_every_epoch(self, split):
        _, history = train(self.small_cfg(), split)
        assert [row.epoch for row in history] == list(range(1, 121))

    def test_learning_rate_schedule_exact(self, split):
        cfg = self.small_cfg(epochs=10)
        _, history = train(cfg, split)
        for row in history:
            assert row.lr == cfg.learning_rate * cfg.lr_decay ** (row.epoch - 1)

    def test_checkpoint_is_best_validation_epoch(self, split):
        ck, history = train(self.small_cfg(), split)
        recorded = [(row.val_mse, row.epoch) for row in history if row.val_mse is not None]
        assert recorded, "validation should have run"
        best_val, best_epoch = min(recorded)
        assert ck.meta.epochs_trained == best_epoch
        # Re-evaluating the stored parameters reproduces the recorded minimum.
        val_x = ck.normalizer.apply(np.concatenate([t.inputs for t in split.validation]))
        val_t = np.concatenate([t.surge for t in split.validation])
        buffers = _StepBuffers(ck.net.arch, len(val_x))
        assert math.isclose(_dataset_mse(ck.net, val_x, val_t, buffers), best_val,
                            rel_tol=1e-12)

    def test_validation_can_be_disabled(self, split):
        cfg = self.small_cfg(validation_every=0, epochs=30)
        ck, history = train(cfg, split)
        assert all(row.val_mse is None for row in history)
        assert ck.meta.epochs_trained == 30

    def test_validation_interval_respected(self, split):
        _, history = train(self.small_cfg(epochs=90, validation_every=40), split)
        val_epochs = [row.epoch for row in history if row.val_mse is not None]
        assert val_epochs == [40, 80, 90]  # interval hits plus the final epoch

    def test_reproducible_bitwise(self, split):
        cfg = self.small_cfg(epochs=50)
        ck1, h1 = train(cfg, split)
        ck2, h2 = train(cfg, split)
        assert max_layer_diff(ck1.net.layers, ck2.net.layers) == 0.0
        assert [r.train_mse for r in h1] == [r.train_mse for r in h2]

    def test_divergence_detected(self, split):
        cfg = self.small_cfg(learning_rate=1e200, epochs=50, validation_every=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train(cfg, split)

    def test_divergence_names_the_last_finite_loss(self):
        # The batch of 12 tracks diverges at epoch 2 at this learning rate.
        cfg = TrainConfig(arch=Architecture(6, (8,), 10), epochs=3, batch_tracks=12,
                          validation_every=0, seed=5, learning_rate=1e300)
        split = make_split(12)
        _, history = train(dataclasses.replace(cfg, epochs=1), split)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train(cfg, split)
        assert str(info.value) == (f"last finite training loss {history[0].train_mse!r} "
                                   "at epoch 1; non-finite training loss at epoch 2")

    def test_divergence_at_the_first_epoch_names_no_earlier_loss(self, split):
        # Targets of 1e200 square to infinity in the very first loss.
        huge = tuple(StormTrack(tr.track_id, tr.inputs, tr.surge * 1e200)
                     for tr in split.training)
        cfg = self.small_cfg(epochs=3, validation_every=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train(cfg, DatasetSplit(huge, (), ()))
        assert str(info.value) == "non-finite training loss at epoch 1"

    def test_oversized_batch_rejected(self, split):
        with pytest.raises(ValueError, match="exceeds"):
            train(self.small_cfg(batch_tracks=100), split)

    def test_normalizer_fitted_on_training_only(self, split):
        ck, _ = train(self.small_cfg(epochs=2, validation_every=0), split)
        train_inputs = np.concatenate([t.inputs for t in split.training])
        np.testing.assert_allclose(ck.normalizer.means, train_inputs.mean(axis=0),
                                   rtol=1e-12)

    def test_progress_called_at_validation_points(self, split):
        rows = []
        train(self.small_cfg(epochs=80, validation_every=40), split, progress=rows.append)
        assert [r.epoch for r in rows] == [40, 80]
        assert all(r.val_mse is not None for r in rows)


class TestWriteHistory:
    def test_round_trip(self, tmp_path):
        split = make_split(6)
        cfg = TrainConfig(arch=Architecture(6, (8,), 10), epochs=25, batch_tracks=3,
                          validation_every=10, seed=5)
        _, history = train(cfg, split)
        path = tmp_path / "history.csv"
        write_history(history, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lr", "train_mse", "val_mse"]
        assert len(rows) == 26
        for row, rec in zip(rows[1:], history):
            assert int(row[0]) == rec.epoch
            assert float(row[1]) == rec.lr  # 17 significant digits round-trip
            assert float(row[2]) == rec.train_mse
            if rec.val_mse is None:
                assert row[3] == ""
            else:
                assert float(row[3]) == rec.val_mse


# The allocation-heavy training step that the buffered one replaced, kept as
# the reference it must match bit for bit: fresh arrays for every layer
# output, activation, slope and delta. Bias gradients are the product of a
# ones vector with delta, and the batch runs as the fewest near-equal
# contiguous shards of at most TILE_ROWS rows, as in the buffered step.
_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)


def _reference_tanh(v):
    return np.clip(np.tanh(np.asarray(v, dtype=np.float64)), -_ONE_BELOW, _ONE_BELOW)


def _reference_sigmoid(v):
    z = np.asarray(v, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _ZERO_ABOVE, _ONE_BELOW)


def _reference_forward(net, x):
    act = {"tanh": _reference_tanh, "sigmoid": _reference_sigmoid}[net.arch.activation]
    hidden = []
    h = x
    # w.T is multiplied as a C-contiguous copy, as in forward_batch: the
    # operand's layout picks the BLAS kernel, and so the rounding.
    for w, b in net.layers[:-1]:
        h = act(h @ np.ascontiguousarray(w.T) + b)
        hidden.append(h)
    w, b = net.layers[-1]
    return h @ np.ascontiguousarray(w.T) + b, hidden


def _reference_step(net, x, t):
    outputs, hidden = _reference_forward(net, x)
    n, k = outputs.shape
    diff = outputs - t
    loss = float((diff * diff).sum() / (n * k))
    acts = [x, *hidden]
    delta = diff * (2.0 / (n * k))
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], np.ones(n) @ delta)
        if i > 0:
            w, _ = net.layers[i]
            h = hidden[i - 1]
            slope = 1.0 - h * h if net.arch.activation == "tanh" else h * (1.0 - h)
            delta = (delta @ w) * slope
    return loss, grads


def _reference_loss_grads(net, x, t):
    """The reference step over the fixed shards, reduced in shard order by
    shard size; the same for every worker count."""
    loss, acc = 0.0, None
    for lo, hi in _tile_bounds(len(x), TILE_ROWS):
        shard_loss, shard_grads = _reference_step(net, x[lo:hi], t[lo:hi])
        w = hi - lo
        loss += w * shard_loss
        if acc is None:
            acc = [[w * gw, w * gb] for gw, gb in shard_grads]
        else:
            for slot, (gw, gb) in zip(acc, shard_grads):
                slot[0] += w * gw
                slot[1] += w * gb
    scale = 1.0 / len(x)
    return loss * scale, [(gw * scale, gb * scale) for gw, gb in acc]


def _reference_dataset_mse(net, x, t, rows):
    """The validation MSE over tiles of at most `rows` rows, their sums of
    squares added in tile order, as train() validates."""
    total = 0.0
    for lo, hi in _tile_bounds(len(x), rows):
        diff = _reference_forward(net, x[lo:hi])[0] - t[lo:hi]
        total += float((diff * diff).sum())
    return total / t.size


def assert_same_grads(got, expected):
    assert len(got) == len(expected)
    for (gw, gb), (ew, eb) in zip(got, expected):
        assert np.array_equal(gw, ew) and np.array_equal(gb, eb)


def random_batch(arch, tracks, seed, scale=1.0):
    n = tracks * 193
    x = Rng(seed).normal(size=(n, arch.input_dim)) * scale
    t = Rng(seed + 1).normal(size=(n, arch.output_dim))
    return x, t


class TestBufferedStep:
    # scale 40 drives tanh into saturation, where the ulp clip decides the
    # activation and the slope (0 unclipped, about 2e-16 clipped).
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("hidden", [(32, 64), (16,)])
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_bitwise_equal_to_reference(self, activation, hidden, scale):
        arch = Architecture(6, hidden, 10, activation)
        net = init_network(arch, Rng(30))
        x, t = random_batch(arch, 3, 31, scale)
        x, t = x[:-2], t[:-2]  # 577 rows: shards of 289 and 288 rows
        ref_loss, ref_grads = _reference_step(net, x, t)
        if scale > 1.0 and activation == "tanh":
            assert np.any(np.abs(_reference_forward(net, x)[1][0]) == _ONE_BELOW)

        # Buffers of the batch's size, and larger than the batch.
        for rows in (len(x), len(x) + 5):
            loss, grads = _batch_backprop(net, x, t, _StepBuffers(arch, rows))
            assert loss == ref_loss
            assert_same_grads(grads, ref_grads)

        expected_loss, expected = _reference_loss_grads(net, x, t)
        for workers in (1, 2):
            loss, grads = sharded_loss_grads(net, x, t, workers)
            assert loss == expected_loss
            assert_same_grads(grads, expected)

    # 23 tracks are 4439 rows: 2 shards of 494 rows and 7 of 493, run on 1,
    # 2 and 4 threads, so every thread reuses its buffers from shard to shard.
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reused_buffers_never_leak_into_results(self, workers):
        arch = Architecture(6, (32, 64), 10)
        net = init_network(arch, Rng(32))
        executor = _StepExecutor(arch, 23 * 193, workers)
        assert [hi - lo for lo, hi in executor.bounds] == [494] * 2 + [493] * 7
        try:
            first = random_batch(arch, 23, 33)
            second = random_batch(arch, 23, 35, scale=5.0)
            loss1, grads1 = _parallel_loss_grads(net, *first, workers, executor)
            kept = [(gw.copy(), gb.copy()) for gw, gb in grads1]
            loss2, grads2 = _parallel_loss_grads(net, *second, workers, executor)
        finally:
            executor.shutdown()
        assert_same_grads(grads1, kept)
        for (loss, grads), batch in (((loss1, grads1), first), ((loss2, grads2), second)):
            expected_loss, expected = _reference_loss_grads(net, *batch)
            assert loss == expected_loss
            assert_same_grads(grads, expected)

    def test_threads_never_share_a_scratch_set(self):
        # 8 threads on the default batch's 13 shards, switching as often as
        # the interpreter allows: a scratch set written by two threads at
        # once would change some shard's gradient.
        arch = Architecture(6, (32, 64), 10)
        net = init_network(arch, Rng(36))
        x, t = random_batch(arch, 32, 37)
        expected_loss, expected = _reference_loss_grads(net, x, t)
        executor = _StepExecutor(arch, len(x), 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                loss, grads = _parallel_loss_grads(net, x, t, 8, executor)
                assert loss == expected_loss
                assert_same_grads(grads, expected)
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown()

    # 4 tracks are 772 rows: 2 shards of 386. The 3 validation tracks' 579
    # rows then run as 2 tiles of the 386-row buffers, through operands that
    # must be those of the net just updated, not of the step before it.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("arch", [Architecture(6, (8, 8), 10, "sigmoid"),
                                      Architecture(6, (32, 64), 10, "tanh")],
                             ids=["sigmoid-8-8", "tanh-32-64"])
    def test_train_matches_reference_loop(self, arch, workers):
        split = make_split(8, n_val=3)
        cfg = TrainConfig(arch=arch, epochs=15, batch_tracks=4, validation_every=5,
                          seed=77, workers=workers)
        ck, history = train(cfg, split)
        assert [row.epoch for row in history if row.val_mse is not None] == [5, 10, 15]

        tracks = split.training
        norm = fit_normalizer(np.concatenate([tr.inputs for tr in tracks]))
        val_x = norm.apply(np.concatenate([tr.inputs for tr in split.validation]))
        val_t = np.concatenate([tr.surge for tr in split.validation])
        tile = max(hi - lo for lo, hi in _tile_bounds(cfg.batch_tracks * 193, TILE_ROWS))
        assert len(_tile_bounds(len(val_x), tile)) == 2
        root = Rng(cfg.seed)
        net = init_network(cfg.arch, root.child(0))
        batch_rng = root.child(1)
        state = AdamState.zeros(net)
        best = None
        for row in history:
            idx = batch_rng.choice_without_replacement(len(tracks), cfg.batch_tracks)
            x = np.concatenate([norm.apply(tracks[i].inputs) for i in idx])
            t = np.concatenate([tracks[i].surge for i in idx])
            loss, grads = _reference_loss_grads(net, x, t)
            assert row.train_mse == loss
            net, state = adam_step(net, grads, state, row.lr, cfg)
            if row.val_mse is not None:
                val = _reference_dataset_mse(net, val_x, val_t, tile)
                assert row.val_mse == val
                if best is None or val < best[0]:
                    best = (val, net)
        assert max_layer_diff(ck.net.layers, best[1].layers) == 0.0

    # Blocks of 1 row, one track, and the default batch's two shard sizes;
    # scale 40 saturates tanh, where the ulp clip decides the activation.
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_prepared_forward_equals_one_off_forward(self, activation, scale):
        arch = Architecture(6, (32, 64), 10, activation)
        net = init_network(arch, Rng(60))
        x, _ = random_batch(arch, 3, 61, scale)
        executor = _StepExecutor(arch, 32 * 193, 1)
        operands = executor.prepare(net)
        for n in (1, 193, 475, 476):
            scratch = [z[:n] for z in executor.buffers[0].outputs]
            outputs, hidden = forward_batch(net, x[:n], scratch, operands)
            prepared = [a.copy() for a in (outputs, *hidden)]
            outputs, hidden = forward_batch(net, x[:n])
            one_off = [outputs, *hidden]
            outputs, hidden = _reference_forward(net, x[:n])
            reference = [outputs, *hidden]
            for a, b, c in zip(prepared, one_off, reference):
                assert np.array_equal(a, b) and np.array_equal(a, c)
        if scale > 1.0 and activation == "tanh":
            assert np.any(np.abs(reference[1]) == _ONE_BELOW)


class TestTiles:
    def test_default_batch_runs_as_thirteen_shards(self):
        executor = _StepExecutor(Architecture(6, (32, 64), 10), 32 * 193, 1)
        assert [hi - lo for lo, hi in executor.bounds] == [476] + [475] * 12
        assert executor.pool is None

    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    def test_one_scratch_set_per_thread(self, workers):
        # The default batch's 13 shards run on min(workers, 13) threads, each
        # with its own scratch set, sized to the largest shard.
        arch = Architecture(6, (32, 64), 10)
        executor = _StepExecutor(arch, 32 * 193, workers)
        try:
            threads = min(workers, 13)
            assert len(executor.buffers) == threads
            assert len({id(b) for b in executor.buffers}) == threads
            for buffers in executor.buffers:
                assert [z.shape for z in buffers.outputs] == [(476, 32), (476, 64), (476, 10)]
                assert [d.shape for d in buffers.deltas] == [(476, 32), (476, 64)]
                assert buffers.squares.shape == (476, 10) and buffers.ones.shape == (476,)
            assert (executor.pool is None) == (threads == 1)
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("n", [1, TILE_ROWS, TILE_ROWS + 1, 32 * 193, 48 * 193])
    def test_shards_are_contiguous_and_at_most_a_tile(self, n):
        bounds = _StepExecutor(Architecture(6, (4,), 10), n, 1).bounds
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert max(hi - lo for lo, hi in bounds) <= TILE_ROWS
        assert len(bounds) == -(-n // TILE_ROWS)

    def test_train_is_bitwise_the_same_for_any_worker_count(self):
        # 32 tracks of 193 rows make 13 shards, more than any of the 1-4
        # threads, so threads run several shards each through one scratch
        # set; 10 validation tracks make 1930 rows, validated in 5 tiles of
        # the first thread's 476-row buffers.
        assert len(_StepExecutor(Architecture(6, (4,), 10), 32 * 193, 1).bounds) == 13
        split = make_split(32, n_val=10, seed=3)
        runs = []
        for workers in (1, 2, 3, 4):
            cfg = TrainConfig(arch=Architecture(6, (32, 64), 10), epochs=12,
                              validation_every=4, seed=8, workers=workers)
            runs.append(train(cfg, split))
        (ck1, history1), *others = runs
        for ck, history in others:
            assert history == history1
            for (w, b), (w1, b1) in zip(ck.net.layers, ck1.net.layers):
                assert np.array_equal(w, w1) and np.array_equal(b, b1)

    # rows None: the first thread's buffers of a default-batch executor,
    # which is what train() validates through.
    @pytest.mark.parametrize("rows", [None, 700, 5000])
    def test_tiled_validation_matches_one_forward_pass(self, rows):
        arch = Architecture(6, (32, 64), 10)
        net = init_network(arch, Rng(50))
        x, t = random_batch(arch, 26, 51)  # 5018 rows
        outputs, _ = forward_batch(net, x)
        whole = float(((outputs - t) ** 2).sum() / t.size)
        buffers = (_StepExecutor(arch, 32 * 193, 1).buffers[0] if rows is None
                   else _StepBuffers(arch, rows))
        assert math.isclose(_dataset_mse(net, x, t, buffers), whole, rel_tol=1e-12)


class TestStepAllocation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_default_step_allocates_under_1mb(self, workers):
        # The allocating step took about 15.7 MB of temporaries per call at
        # these shapes; the buffered one allocates only the shard results,
        # which the reduction sums in place, and the optimizer's new
        # parameters. The warm-up step makes the buffers and layer operands.
        arch = Architecture(6, (32, 64), 10)
        cfg = TrainConfig(arch=arch, epochs=1)
        data = (Rng(40).normal(size=(40, 193, 6)), Rng(41).normal(size=(40, 193, 10)))
        gathered = (np.empty((32, 193, 6)), np.empty((32, 193, 10)))
        batch_rng = Rng(42)
        executor = _StepExecutor(arch, 32 * 193, workers)

        def step(net, state):
            x, t = sample_batch(batch_rng, data, 32, out=gathered)
            _, grads = _parallel_loss_grads(net, x, t, workers, executor)
            return adam_step(net, grads, state, cfg.learning_rate, cfg)

        net = init_network(arch, Rng(43))
        net, state = step(net, AdamState.zeros(net))  # warm-up
        operands = executor.operands
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(net, state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        executor.shutdown()
        assert peak < 1_000_000
        assert executor.operands is operands  # refreshed in place, not remade
