import csv
import math
import tracemalloc

import numpy as np
import pytest

from surgenet.dataset import DatasetSplit, default_oracle, generate_track
from surgenet.errors import TrainingDivergedError
from surgenet.network import Architecture, NetworkParams, init_network
from surgenet.numerics import Rng
from surgenet.training import (
    AdamState,
    GradientSet,
    TrainConfig,
    _batch_backprop,
    _parallel_loss_grads,
    _shard_bounds,
    _StepBuffers,
    _StepExecutor,
    adam_step,
    backprop,
    fit_normalizer,
    parallel_gradient,
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

    def test_round_trip(self):
        data = Rng(1).normal(size=(40, 6)) * 10 + 3
        norm = fit_normalizer(data)
        np.testing.assert_allclose(norm.invert(norm.apply(data)), data, atol=1e-12)

    def test_standardizes_training_data(self):
        data = Rng(2).uniform(-5, 5, size=(100, 4))
        z = fit_normalizer(data).apply(data)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


class TestBackprop:
    def test_perfect_prediction_gives_zero_gradient(self):
        net = init_network(Architecture(6, (4,), 10), Rng(3))
        x = Rng(4).normal(size=6)
        from surgenet.network import forward
        y, _ = forward(net, x)
        loss, grads = backprop(net, x, y)
        assert loss == 0.0
        for gw, gb in grads.layers:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_zero_network_closed_form(self):
        arch = Architecture(6, (4,), 10)
        net = zero_net(arch)
        t = np.arange(1.0, 11.0)
        loss, grads = backprop(net, np.ones(6), t)
        assert math.isclose(loss, float((t * t).mean()), rel_tol=1e-15)
        # Output stays 0, hidden activations are 0, so only the output bias
        # receives gradient: d/db mean((0 - t)^2) = -2 t / K.
        np.testing.assert_allclose(grads.layers[-1][1], -2.0 * t / 10.0, rtol=1e-15)
        assert np.all(grads.layers[-1][0] == 0.0)
        assert np.all(grads.layers[0][0] == 0.0)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_matches_finite_differences(self, activation):
        arch = Architecture(5, (4, 3), 2, activation)
        net = init_network(arch, Rng(7))
        x = Rng(8).normal(size=5)
        t = Rng(9).normal(size=2)
        _, grads = backprop(net, x, t)
        step = 1e-6
        for li, (w, b) in enumerate(net.layers):
            for arr, ga in ((w, grads.layers[li][0]), (b, grads.layers[li][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + step
                    up, _ = backprop(net, x, t)
                    arr[ix] = orig - step
                    dn, _ = backprop(net, x, t)
                    arr[ix] = orig
                    fd = (up - dn) / (2 * step)
                    denom = max(abs(fd), abs(ga[ix]), 1e-3)
                    assert abs(fd - ga[ix]) / denom < 1e-6

    def test_batch_loss_is_mean_over_rows_and_outputs(self):
        net = init_network(Architecture(6, (4,), 10), Rng(5))
        xs = Rng(6).normal(size=(8, 6))
        ts = Rng(7).normal(size=(8, 10))
        losses = [backprop(net, xs[i], ts[i])[0] for i in range(8)]
        from surgenet.training import _batch_backprop
        batch_loss, _ = _batch_backprop(net, xs, ts)
        assert math.isclose(batch_loss, float(np.mean(losses)), rel_tol=1e-12)


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(arch=Architecture(6, (4,), 10), epochs=1, **kw)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        net = init_network(Architecture(6, (4,), 10), Rng(1))
        state = AdamState.zeros(net)
        zero = GradientSet([(np.zeros_like(w), np.zeros_like(b)) for w, b in net.layers])
        new_net, new_state = adam_step(net, zero, state, 0.01, self.cfg())
        assert max_layer_diff(net.layers, new_net.layers) == 0.0
        assert new_state.t == 1

    def test_first_step_bounded_by_learning_rate(self):
        net = init_network(Architecture(6, (4,), 10), Rng(2))
        state = AdamState.zeros(net)
        _, grads = backprop(net, Rng(3).normal(size=6), Rng(4).normal(size=10))
        lr = 0.01
        new_net, _ = adam_step(net, grads, state, lr, self.cfg())
        assert max_layer_diff(net.layers, new_net.layers) <= lr

    def test_inputs_not_mutated(self):
        net = init_network(Architecture(6, (4,), 10), Rng(5))
        before = [(w.copy(), b.copy()) for w, b in net.layers]
        state = AdamState.zeros(net)
        _, grads = backprop(net, Rng(6).normal(size=6), Rng(7).normal(size=10))
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
            grads = GradientSet([(2.0 * w, 2.0 * b) for w, b in net.layers])
            net, state = adam_step(net, grads, state, cfg.learning_rate, cfg)
        worst = max(max(np.abs(w).max(), np.abs(b).max()) for w, b in net.layers)
        assert worst < 1e-3


class TestBatchSampling:
    def test_full_batch_uses_every_track_once(self):
        tracks = make_tracks(5)
        x, t = sample_batch(Rng(10), stacked(tracks), 5)
        assert x.shape == (5 * 193, 6)
        assert t.shape == (5 * 193, 10)
        expected = {tr.inputs[0].tobytes() for tr in tracks}
        seen = {x[i * 193].tobytes() for i in range(5)}
        assert seen == expected

    def test_whole_track_row_count(self):
        tracks = make_tracks(4)
        x, _ = sample_batch(Rng(11), stacked(tracks), 3)
        assert x.shape[0] == 3 * 193

    def test_same_seed_same_batch(self):
        tracks = make_tracks(6)
        x1, t1 = sample_batch(Rng(12), stacked(tracks), 4)
        x2, t2 = sample_batch(Rng(12), stacked(tracks), 4)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(t1, t2)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="only 2 available"):
            sample_batch(Rng(13), stacked(make_tracks(2)), 3)

    def test_gathers_into_out(self):
        data = stacked(make_tracks(6))
        x, t = sample_batch(Rng(14), data, 4)
        out = (np.empty((4, 193, 6)), np.empty((4, 193, 10)))
        x_out, t_out = sample_batch(Rng(14), data, 4, out=out)
        np.testing.assert_array_equal(x_out, x)
        np.testing.assert_array_equal(t_out, t)
        assert np.shares_memory(x_out, out[0]) and np.shares_memory(t_out, out[1])


class TestSharding:
    def test_uneven_split(self):
        assert _shard_bounds(5, 2) == [(0, 3), (3, 5)]

    def test_remainder_goes_to_leading_shards(self):
        bounds = _shard_bounds(10, 4)
        assert [hi - lo for lo, hi in bounds] == [3, 3, 2, 2]

    def test_more_workers_than_rows(self):
        assert _shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_covers_range_exactly(self):
        for n, w in ((193, 4), (617, 8), (32, 32)):
            bounds = _shard_bounds(n, w)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


class TestParallelGradient:
    def test_matches_single_worker(self):
        net = init_network(Architecture(6, (8, 8), 10), Rng(20))
        x = Rng(21).normal(size=(193, 6))
        t = Rng(22).normal(size=(193, 10))
        ref = parallel_gradient(net, (x, t), 1)
        for workers in (2, 3, 4, 8):
            got = parallel_gradient(net, (x, t), workers)
            assert max_layer_diff(ref.layers, got.layers) <= 1e-12

    def test_empty_batch_rejected(self):
        net = init_network(Architecture(6, (4,), 10), Rng(23))
        with pytest.raises(ValueError, match="empty"):
            parallel_gradient(net, (np.empty((0, 6)), np.empty((0, 10))), 2)

    def test_worker_count_validated(self):
        net = init_network(Architecture(6, (4,), 10), Rng(24))
        with pytest.raises(ValueError, match=">= 1"):
            parallel_gradient(net, (np.ones((2, 6)), np.ones((2, 10))), 0)


class TestTrainConfig:
    def base(self, **kw):
        return TrainConfig(arch=Architecture(6, (4,), 10), epochs=10, **kw)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_tracks", 0), ("learning_rate", 0.0),
        ("learning_rate", -1.0), ("lr_decay", 0.0), ("lr_decay", 1.1),
        ("adam_beta1", 1.0), ("adam_beta2", -0.1), ("adam_eps", 0.0),
        ("workers", 0), ("validation_every", -1),
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
        from surgenet.training import _dataset_mse
        val_x = ck.normalizer.apply(np.concatenate([t.inputs for t in split.validation]))
        val_t = np.concatenate([t.surge for t in split.validation])
        assert math.isclose(_dataset_mse(ck.net, val_x, val_t), best_val, rel_tol=1e-12)

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
# output, activation, slope and delta.
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
    for w, b in net.layers[:-1]:
        h = act(h @ w.T + b)
        hidden.append(h)
    w, b = net.layers[-1]
    return h @ w.T + b, hidden


def _reference_step(net, x, t):
    outputs, hidden = _reference_forward(net, x)
    n, k = outputs.shape
    diff = outputs - t
    loss = float((diff * diff).sum() / (n * k))
    acts = [x, *hidden]
    delta = diff * (2.0 / (n * k))
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            w, _ = net.layers[i]
            h = hidden[i - 1]
            slope = 1.0 - h * h if net.arch.activation == "tanh" else h * (1.0 - h)
            delta = (delta @ w) * slope
    return loss, grads


def _reference_loss_grads(net, x, t, workers):
    """The reference step over shards, reduced in shard order by shard size."""
    if workers <= 1:
        return _reference_step(net, x, t)
    loss, acc = 0.0, None
    for lo, hi in _shard_bounds(len(x), workers):
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
        x, t = x[:-1], t[:-1]  # an odd row count, so shards differ in size
        ref_loss, ref_grads = _reference_step(net, x, t)
        if scale > 1.0 and activation == "tanh":
            assert np.any(np.abs(_reference_forward(net, x)[1][0]) == _ONE_BELOW)

        loss, grads = _batch_backprop(net, x, t)
        assert loss == ref_loss
        assert_same_grads(grads.layers, ref_grads)

        roomy = _StepBuffers(arch, len(x) + 5)  # buffers larger than the batch
        loss, grads = _batch_backprop(net, x, t, roomy)
        assert loss == ref_loss
        assert_same_grads(grads.layers, ref_grads)

        for workers in (1, 2):
            expected_loss, expected = _reference_loss_grads(net, x, t, workers)
            assert_same_grads(parallel_gradient(net, (x, t), workers).layers, expected)
            assert _parallel_loss_grads(net, x, t, workers)[0] == expected_loss

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_buffers_never_leak_into_results(self, workers):
        arch = Architecture(6, (32, 64), 10)
        net = init_network(arch, Rng(32))
        executor = _StepExecutor(arch, 3, 193, workers)
        try:
            first = random_batch(arch, 3, 33)
            second = random_batch(arch, 3, 35, scale=5.0)
            loss1, grads1 = _parallel_loss_grads(net, *first, workers, executor)
            kept = [(gw.copy(), gb.copy()) for gw, gb in grads1.layers]
            loss2, grads2 = _parallel_loss_grads(net, *second, workers, executor)
        finally:
            executor.shutdown()
        assert_same_grads(grads1.layers, kept)
        for (loss, grads), batch in (((loss1, grads1), first), ((loss2, grads2), second)):
            expected_loss, expected = _reference_loss_grads(net, *batch, workers)
            assert loss == expected_loss
            assert_same_grads(grads.layers, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_train_matches_reference_loop(self, split, workers):
        cfg = TrainConfig(arch=Architecture(6, (8, 8), 10, "sigmoid"), epochs=15,
                          batch_tracks=4, validation_every=0, seed=77, workers=workers)
        ck, history = train(cfg, split)

        tracks = split.training
        norm = fit_normalizer(np.concatenate([tr.inputs for tr in tracks]))
        root = Rng(cfg.seed)
        net = init_network(cfg.arch, root.child(0))
        batch_rng = root.child(1)
        state = AdamState.zeros(net)
        for row in history:
            idx = batch_rng.choice_without_replacement(len(tracks), cfg.batch_tracks)
            x = np.concatenate([norm.apply(tracks[i].inputs) for i in idx])
            t = np.concatenate([tracks[i].surge for i in idx])
            loss, grads = _reference_loss_grads(net, x, t, workers)
            assert row.train_mse == loss
            net, state = adam_step(net, GradientSet(grads), state, row.lr, cfg)
        assert max_layer_diff(ck.net.layers, net.layers) == 0.0


class TestStepAllocation:
    def test_warm_default_step_allocates_under_1mb(self):
        # The allocating step took about 15.7 MB of temporaries per call at
        # these shapes; the buffered one allocates only the returned
        # gradients and the optimizer's new parameters.
        arch = Architecture(6, (32, 64), 10)
        cfg = TrainConfig(arch=arch, epochs=1)
        data = (Rng(40).normal(size=(40, 193, 6)), Rng(41).normal(size=(40, 193, 10)))
        batch_rng = Rng(42)
        executor = _StepExecutor(arch, 32, 193, 1)

        def step(net, state):
            x, t = sample_batch(batch_rng, data, 32, out=executor.batch)
            _, grads = _parallel_loss_grads(net, x, t, 1, executor)
            return adam_step(net, grads, state, cfg.learning_rate, cfg)

        net = init_network(arch, Rng(43))
        net, state = step(net, AdamState.zeros(net))  # warm: makes the buffers
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(net, state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        executor.shutdown()
        assert peak < 1_000_000
