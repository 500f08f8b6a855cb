import json

import numpy as np
import pytest

from surgenet.errors import (
    CheckpointDimensionError,
    CheckpointFormatError,
    CheckpointVersionError,
    DimensionMismatchError,
)
from surgenet.network import (
    Architecture,
    CheckpointMeta,
    NetworkParams,
    forward,
    forward_batch,
    init_network,
    load_checkpoint,
    neuron_budget,
    param_count,
    save_checkpoint,
)
from surgenet.numerics import Rng
from surgenet.training import Normalizer


def small_net(hidden=(4,), activation="tanh", seed=42):
    return init_network(Architecture(6, hidden, 10, activation), Rng(seed))


class TestArchitecture:
    def test_layer_dims_chain(self):
        arch = Architecture(6, (32, 64), 10)
        assert arch.layer_dims() == [(32, 6), (64, 32), (10, 64)]

    def test_hidden_layer_count_enforced(self):
        with pytest.raises(ValueError, match="1 or 2 hidden layers"):
            Architecture(6, (), 10)
        with pytest.raises(ValueError, match="1 or 2 hidden layers"):
            Architecture(6, (4, 4, 4), 10)

    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError, match=">= 1"):
            Architecture(0, (4,), 10)
        with pytest.raises(ValueError, match=">= 1"):
            Architecture(6, (0,), 10)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="relu"):
            Architecture(6, (4,), 10, activation="relu")


class TestParamCount:
    def test_default_architecture(self):
        # 6*32+32 + 32*64+64 + 64*10+10 = 224 + 2112 + 650
        assert param_count(Architecture(6, (32, 64), 10)) == 2986

    def test_minimal(self):
        assert param_count(Architecture(1, (1,), 1)) == 4

    def test_matches_stored_scalars(self):
        net = small_net(hidden=(5, 3))
        scalars = sum(w.size + b.size for w, b in net.layers)
        assert scalars == param_count(net.arch)

    def test_neuron_budget(self):
        assert neuron_budget(62_532) == 125  # 324 tracks * 193 rows
        assert neuron_budget(4) == 1
        assert neuron_budget(0) == 0
        with pytest.raises(ValueError):
            neuron_budget(-1)


class TestInit:
    def test_biases_exactly_zero(self):
        net = small_net(hidden=(32, 64))
        for _, b in net.layers:
            assert np.all(b == 0.0)

    def test_same_seed_identical(self):
        a = small_net(seed=7)
        b = small_net(seed=7)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_weight_scale_tracks_fan_in(self):
        net = init_network(Architecture(100, (400,), 10), Rng(0))
        w1 = net.layers[0][0]
        assert abs(w1.std() - 0.1) < 0.01  # 1/sqrt(100)


class TestForward:
    def test_zero_network_tanh(self):
        net = small_net()
        zeroed = NetworkParams(net.arch, [(np.zeros_like(w), np.zeros_like(b))
                                          for w, b in net.layers])
        y, hidden = forward(zeroed, np.ones(6))
        assert np.all(y == 0.0)
        assert np.all(hidden[0] == 0.0)  # tanh(0)

    def test_zero_network_sigmoid(self):
        net = small_net(activation="sigmoid")
        zeroed = NetworkParams(net.arch, [(np.zeros_like(w), np.zeros_like(b))
                                          for w, b in net.layers])
        _, hidden = forward(zeroed, np.ones(6))
        assert np.all(hidden[0] == 0.5)  # sigmoid(0)

    def test_zero_preactivation_passes_output_bias(self):
        net = small_net()
        w_o = np.zeros_like(net.layers[-1][0])
        b_o = np.arange(10.0)
        rigged = NetworkParams(net.arch, [
            (np.zeros_like(net.layers[0][0]), np.zeros_like(net.layers[0][1])),
            (w_o, b_o),
        ])
        y, _ = forward(rigged, Rng(1).normal(size=6))
        np.testing.assert_array_equal(y, b_o)

    @pytest.mark.parametrize("hidden", [(4,), (4, 5)])
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_matches_straight_line_reimplementation(self, hidden, activation):
        net = small_net(hidden=hidden, activation=activation, seed=13)
        act = np.tanh if activation == "tanh" else lambda z: 1.0 / (1.0 + np.exp(-z))
        x = Rng(99).normal(size=6)
        h = x
        for w, b in net.layers[:-1]:
            h = act(w @ h + b)
        w_o, b_o = net.layers[-1]
        expected = w_o @ h + b_o
        y, _ = forward(net, x)
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-14)

    def test_output_layer_is_affine_in_its_parameters(self):
        net = small_net(seed=3)
        x = Rng(4).normal(size=6)
        w_o, b_o = net.layers[-1]
        y1, _ = forward(net, x)
        doubled = NetworkParams(net.arch, net.layers[:-1] + [(2.0 * w_o, 2.0 * b_o)])
        y2, _ = forward(doubled, x)
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="length 6"):
            forward(small_net(), np.ones(5))
        with pytest.raises(DimensionMismatchError):
            forward_batch(small_net(), np.ones((3, 5)))

    def test_batch_rows_match_single_forward(self):
        net = small_net(hidden=(4, 5))
        xs = Rng(8).normal(size=(7, 6))
        batch_y, _ = forward_batch(net, xs)
        for i in range(7):
            y, _ = forward(net, xs[i])
            np.testing.assert_allclose(batch_y[i], y, atol=1e-14)


    def test_out_buffers_reused(self):
        net = small_net(hidden=(4, 5))
        xs = Rng(9).normal(size=(7, 6))
        y, hidden = forward_batch(net, xs)
        out = [np.empty((7, rows)) for rows, _ in net.arch.layer_dims()]
        y_out, hidden_out = forward_batch(net, xs, out)
        assert y_out is out[-1] and all(h is o for h, o in zip(hidden_out, out))
        np.testing.assert_array_equal(y_out, y)
        for h, h_out in zip(hidden, hidden_out):
            np.testing.assert_array_equal(h_out, h)


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        net = small_net(hidden=(4, 5), seed=21)
        norm = Normalizer(
            means=Rng(1).normal(size=6),
            stds=np.abs(Rng(2).normal(size=6)) + 0.5,
            constant_flags=np.array([False] * 5 + [True]),
        )
        meta = CheckpointMeta(seed=21, epochs_trained=17, final_train_mse=0.1234)
        path = tmp_path / "ck.json"
        save_checkpoint(net, norm, meta, path)
        return net, norm, meta, path

    def test_round_trip_bitwise(self, saved):
        net, norm, meta, path = saved
        loaded = load_checkpoint(path)
        assert loaded.net.arch == net.arch
        for (w, b), (lw, lb) in zip(net.layers, loaded.net.layers):
            np.testing.assert_array_equal(w, lw)
            np.testing.assert_array_equal(b, lb)
        np.testing.assert_array_equal(loaded.normalizer.means, norm.means)
        np.testing.assert_array_equal(loaded.normalizer.stds, norm.stds)
        np.testing.assert_array_equal(loaded.normalizer.constant_flags, norm.constant_flags)
        assert loaded.meta == meta

    def test_loaded_normalizer_is_usable(self, saved):
        *_, path = saved
        loaded = load_checkpoint(path)
        z = loaded.normalizer.apply(np.ones((3, 6)))
        np.testing.assert_allclose(loaded.normalizer.invert(z), np.ones((3, 6)), atol=1e-12)

    def test_truncated_file_is_a_parse_error(self, saved):
        *_, path = saved
        path.write_text(path.read_text()[:100])
        with pytest.raises(CheckpointFormatError, match="unparsable"):
            load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["format_version"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointVersionError, match="2.*1"):
            load_checkpoint(path)

    def test_dimension_inconsistency_detected(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["layers"][0]["weights"] = payload["layers"][0]["weights"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointDimensionError):
            load_checkpoint(path)

    def test_declared_shape_must_match_arch(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["layers"][0]["rows"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointDimensionError, match="layer 0"):
            load_checkpoint(path)

    def test_missing_field_is_a_format_error(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        del payload["normalizer"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match="normalizer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("epochs_trained", 2.5), ("epochs_trained", None),
        ("final_train_mse", "0.1"), ("seed", True),
    ])
    def test_bad_meta_value_names_its_field(self, saved, key, value):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["meta"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=f"meta.{key}"):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["layers"][0]["weights"][0] = float("nan")
        path.write_text(json.dumps(payload).replace("NaN", "1e999"))
        with pytest.raises((CheckpointFormatError, CheckpointVersionError)):
            load_checkpoint(path)

    def test_saving_non_finite_parameters_refused(self, saved, tmp_path):
        net, norm, meta, _ = saved
        bad = NetworkParams(net.arch, [(w.copy(), b.copy()) for w, b in net.layers])
        bad.layers[0][0][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(bad, norm, meta, tmp_path / "bad.json")
