import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surgenet import cli
from surgenet.dataset import default_oracle, generate_track, save_track_csv
from surgenet.errors import (
    CheckpointDimensionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    DimensionMismatchError,
)
from surgenet.network import (
    ACTIVATIONS,
    Architecture,
    CheckpointMeta,
    NetworkParams,
    Normalizer,
    forward_batch,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from surgenet.numerics import Rng


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

    @pytest.mark.parametrize("hidden", [(32.7,), (True,), (32, 64.0), ("8",)])
    def test_non_integer_sizes_refused(self, hidden):
        with pytest.raises(ValueError, match="integers"):
            Architecture(6, hidden, 10)


def test_importing_network_leaves_training_unloaded():
    code = "import sys, surgenet.network; print('surgenet.training' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
        y, hidden = forward_batch(zeroed, np.ones((1, 6)))
        assert np.all(y == 0.0)
        assert np.all(hidden[0] == 0.0)  # tanh(0)

    def test_zero_network_sigmoid(self):
        net = small_net(activation="sigmoid")
        zeroed = NetworkParams(net.arch, [(np.zeros_like(w), np.zeros_like(b))
                                          for w, b in net.layers])
        _, hidden = forward_batch(zeroed, np.ones((1, 6)))
        assert np.all(hidden[0] == 0.5)  # sigmoid(0)

    def test_zero_preactivation_passes_output_bias(self):
        net = small_net()
        w_o = np.zeros_like(net.layers[-1][0])
        b_o = np.arange(10.0)
        rigged = NetworkParams(net.arch, [
            (np.zeros_like(net.layers[0][0]), np.zeros_like(net.layers[0][1])),
            (w_o, b_o),
        ])
        y, _ = forward_batch(rigged, Rng(1).normal(size=6)[None, :])
        np.testing.assert_array_equal(y[0], b_o)

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
        y, _ = forward_batch(net, x[None, :])
        np.testing.assert_allclose(y[0], expected, rtol=0, atol=1e-14)

    def test_output_layer_is_affine_in_its_parameters(self):
        net = small_net(seed=3)
        x = Rng(4).normal(size=6)
        w_o, b_o = net.layers[-1]
        y1, _ = forward_batch(net, x[None, :])
        doubled = NetworkParams(net.arch, net.layers[:-1] + [(2.0 * w_o, 2.0 * b_o)])
        y2, _ = forward_batch(doubled, x[None, :])
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-12)

    def test_dimension_mismatch(self):
        for wrong in (np.ones((1, 5)), np.ones((3, 5)), np.ones(6)):
            with pytest.raises(DimensionMismatchError, match=r"\(n, 6\)"):
                forward_batch(small_net(), wrong)

    def test_batch_rows_match_single_forward(self):
        net = small_net(hidden=(4, 5))
        xs = Rng(8).normal(size=(7, 6))
        batch_y, _ = forward_batch(net, xs)
        for i in range(7):
            y, _ = forward_batch(net, xs[i][None, :])
            np.testing.assert_allclose(batch_y[i], y[0], atol=1e-14)


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
        _, norm, _, path = saved
        x = Rng(3).normal(size=(3, 6)) * 10
        z = load_checkpoint(path).normalizer.apply(x)
        np.testing.assert_array_equal(z, (x - norm.means) / norm.stds)

    def test_truncated_file_is_a_parse_error(self, saved):
        *_, path = saved
        path.write_text(path.read_text()[:100])
        with pytest.raises(CheckpointFormatError, match="unparsable"):
            load_checkpoint(path)

    def test_deeply_nested_file_is_a_parse_error(self, saved):
        *_, path = saved
        path.write_text("[" * 100_000 + "]" * 100_000)  # deeper than Python's recursion limit
        with pytest.raises(CheckpointFormatError, match="^ck.json: unparsable checkpoint: "):
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
        with pytest.raises(CheckpointDimensionError, match=r"^ck\.json: layers\[0\]: "):
            load_checkpoint(path)

    def test_missing_field_is_a_format_error(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        del payload["normalizer"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match="normalizer"):
            load_checkpoint(path)

    def test_non_integer_hidden_size_is_a_format_error(self, saved):
        *_, path = saved
        payload = json.loads(path.read_text())
        payload["arch"]["hidden_sizes"] = [32.7]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match="32.7"):
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


def json_paths(node, path=()):
    """The path (keys and list indices) of every value inside node, node's own
    empty path first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, (*path, key))


INF = "<1e999>"  # stands for the JSON number 1e999, which json.loads reads as inf
REPLACEMENTS = ({"a": 1}, "x", True, None, [0.5], INF)


@st.composite
def damaged_payloads(draw, payload):
    """payload with one drawn edit: a key or list item deleted, a value
    replaced by one of REPLACEMENTS, or a list truncated or extended."""
    path = draw(st.sampled_from(list(json_paths(payload))))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else payload
    kinds = ["set"] + (["delete"] if path else []) + (
        ["truncate", "extend"] if isinstance(target, list) and target else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "set":
        value = draw(st.sampled_from(REPLACEMENTS))
        assume(not (isinstance(value, bool) and isinstance(target, bool)))  # still valid
        if not path:
            return value
        parent[path[-1]] = value
    elif kind == "delete":
        del parent[path[-1]]
    elif kind == "truncate":
        target.pop()
    else:
        target.append(target[-1])
    return payload


class TestCheckpointFuzz:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        net = small_net(hidden=(4, 5), seed=21)
        norm = Normalizer(Rng(1).normal(size=6), np.abs(Rng(2).normal(size=6)) + 0.5,
                          np.array([False] * 5 + [True]))
        save_checkpoint(net, norm, CheckpointMeta(21, 17, 0.1234), tmp / "good.json")
        save_track_csv(generate_track(Rng(3), default_oracle(), "track_0001"),
                       tmp / "track_0001.csv")
        return tmp

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_damage_is_a_named_checkpoint_error(self, files, tmp_path_factory, data):
        payload = data.draw(damaged_payloads(json.loads((files / "good.json").read_text())))
        tmp = tmp_path_factory.mktemp("damaged")
        ckpt, out = tmp / "ck.json", tmp / "p.csv"
        ckpt.write_text(json.dumps(payload).replace(f'"{INF}"', "1e999"))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(ckpt)
        assert str(err.value).startswith("ck.json: ")

        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["predict", "--checkpoint", str(ckpt),
                             "--track", str(files / "track_0001.csv"), "--out", str(out)])
        assert (code, stderr.getvalue()) == (1, f"error: {err.value}\n")
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           activation=st.sampled_from(sorted(ACTIVATIONS)), data=st.data())
    def test_round_trip_is_bitwise(self, tmp_path_factory, hidden, activation, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        arch = Architecture(6, hidden, 10, activation)
        layers = [(data.draw(hnp.arrays(np.float64, dims, elements=finite)),
                   data.draw(hnp.arrays(np.float64, dims[0], elements=finite)))
                  for dims in arch.layer_dims()]
        norm = Normalizer(
            data.draw(hnp.arrays(np.float64, 6, elements=finite)),
            data.draw(hnp.arrays(np.float64, 6, elements=st.floats(
                0, exclude_min=True, allow_infinity=False))),
            data.draw(hnp.arrays(bool, 6)))
        meta = CheckpointMeta(data.draw(st.integers(-2**63, 2**64)),
                              data.draw(st.integers(0, 10**9)), data.draw(finite))
        path = tmp_path_factory.mktemp("round") / "ck.json"
        save_checkpoint(NetworkParams(arch, layers), norm, meta, path)
        loaded = load_checkpoint(path)
        assert loaded.net.arch == arch
        saved = [a for pair in layers for a in pair] + [norm.means, norm.stds]
        back = [a for pair in loaded.net.layers for a in pair] + [
            loaded.normalizer.means, loaded.normalizer.stds]
        for a, b in zip(saved, back, strict=True):
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes())
        np.testing.assert_array_equal(loaded.normalizer.constant_flags, norm.constant_flags)
        assert loaded.meta.final_train_mse.hex() == meta.final_train_mse.hex()
        assert (loaded.meta.seed, loaded.meta.epochs_trained) == (meta.seed, meta.epochs_trained)
