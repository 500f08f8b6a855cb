import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import string
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from surgenet import cli, dataset
from surgenet.dataset import SPLIT_LABELS, read_manifest, tau_grid
from surgenet.errors import ConfigError, SurgenetError
from surgenet.network import (
    ACTIVATIONS,
    Architecture,
    CheckpointMeta,
    Normalizer,
    init_network,
    save_checkpoint,
)
from surgenet.numerics import Rng


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated corpus plus a trained checkpoint, shared read-only."""
    ws = tmp_path_factory.mktemp("ws")
    corpus = ws / "corpus"
    ckpt = ws / "model.json"
    assert cli.main(["generate", "--n-tracks", "12", "--seed", "404",
                     "--out", str(corpus)]) == 0
    assert cli.main(["train", "--corpus", str(corpus), "--seed", "404",
                     "--hidden", "8,8", "--epochs", "60", "--batch-tracks", "4",
                     "--validation-every", "20", "--out", str(ckpt)]) == 0
    return ws


def run_quietly(argv):
    """cli.main(argv) with stdout dropped; returns (exit status, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, stderr.getvalue()


def damaged_corpus(workspace, dest, label):
    """A copy of the workspace corpus whose first track filed under label has
    an unparsable cell; returns the copy and that track's file name."""
    shutil.copytree(workspace / "corpus", dest)
    name = next(file for _, file, split in read_manifest(dest / "manifest.csv")
                if split == label)
    lines = (dest / name).read_text().splitlines(keepends=True)
    lines[1] = "oops" + lines[1][lines[1].index(","):]
    (dest / name).write_text("".join(lines))
    return dest, name


class TestGenerate:
    def test_writes_tracks_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code, stdout, _ = run(capsys, "generate", "--n-tracks", "12",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 13
        assert "manifest.csv" in files
        assert "train/val/test = 10/1/1" in stdout
        assert "seed 7" in stdout

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "--n-tracks", "5", "--seed", "9", "--out", str(a))
        run(capsys, "generate", "--n-tracks", "5", "--seed", "9", "--out", str(b))
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_oracle_settings_change_the_data(self, tmp_path, capsys):
        (tmp_path / "cfg.yaml").write_text("oracle:\n  amplitude_m_per_hpa: 0.05\n")
        run(capsys, "generate", "--n-tracks", "3", "--seed", "9",
            "--out", str(tmp_path / "plain"))
        code, _, _ = run(capsys, "generate", "--config", str(tmp_path / "cfg.yaml"),
                         "--n-tracks", "3", "--seed", "9", "--out", str(tmp_path / "amped"))
        assert code == 0
        plain = (tmp_path / "plain" / "track_0001.csv").read_bytes()
        amped = (tmp_path / "amped" / "track_0001.csv").read_bytes()
        assert plain != amped

    def test_bad_track_count_fails(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--n-tracks", "0",
                              "--out", str(tmp_path / "c"))
        assert code == 1
        assert "error:" in stderr and "n_tracks" in stderr


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace):
        ckpt = workspace / "model.json"
        history = workspace / "model_history.csv"
        assert ckpt.is_file() and history.is_file()
        payload = json.loads(ckpt.read_text())
        assert payload["format_version"] == 1
        with open(history, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lr", "train_mse", "val_mse"]
        assert len(rows) == 61

    def test_progress_lines_at_validation_points(self, tmp_path, workspace, capsys):
        code, stdout, _ = run(capsys, "train", "--corpus", str(workspace / "corpus"),
                              "--seed", "1", "--hidden", "8", "--epochs", "40",
                              "--batch-tracks", "4", "--validation-every", "20",
                              "--out", str(tmp_path / "m.json"))
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.startswith("epoch")]
        assert len(lines) == 2  # epochs 20 and 40
        assert "val_mse" in lines[0]

    def test_same_seed_checkpoints_identical(self, tmp_path, workspace, capsys):
        args = ["train", "--corpus", str(workspace / "corpus"), "--seed", "33",
                "--hidden", "8", "--epochs", "30", "--batch-tracks", "4",
                "--validation-every", "0"]
        run(capsys, *args, "--out", str(tmp_path / "a.json"))
        run(capsys, *args, "--out", str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_single_hidden_layer_accepted(self, tmp_path, workspace, capsys):
        code, _, _ = run(capsys, "train", "--corpus", str(workspace / "corpus"),
                         "--hidden", "6", "--epochs", "5", "--batch-tracks", "4",
                         "--validation-every", "0", "--out", str(tmp_path / "m.json"))
        assert code == 0

    def test_three_hidden_layers_rejected(self, tmp_path, workspace, capsys):
        code, _, stderr = run(capsys, "train", "--corpus", str(workspace / "corpus"),
                              "--hidden", "1,2,3", "--epochs", "5",
                              "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "hidden" in stderr

    def test_test_split_files_are_not_read(self, tmp_path, workspace, capsys):
        corpus, _ = damaged_corpus(workspace, tmp_path / "corpus", "test")
        args = ["train", "--seed", "33", "--hidden", "8", "--epochs", "10",
                "--batch-tracks", "4", "--validation-every", "5"]
        assert run(capsys, *args, "--corpus", str(workspace / "corpus"),
                   "--out", str(tmp_path / "a.json"))[0] == 0
        assert run(capsys, *args, "--corpus", str(corpus),
                   "--out", str(tmp_path / "b.json"))[0] == 0
        for intact, damaged in (("a.json", "b.json"), ("a_history.csv", "b_history.csv")):
            assert (tmp_path / intact).read_bytes() == (tmp_path / damaged).read_bytes()

    def test_missing_corpus_fails_cleanly(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--corpus", str(tmp_path / "nowhere"),
                              "--epochs", "5", "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "error:" in stderr and "manifest" in stderr

    def test_flags_override_config_file(self, tmp_path, workspace, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"corpus_dir: {workspace / 'corpus'}\n"
            "epochs: 5\nhidden: [8]\nbatch_tracks: 4\nvalidation_every: 0\n")
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--epochs", "7",
                         "--out", str(tmp_path / "m.json"))
        assert code == 0
        with open(tmp_path / "m_history.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 8  # header + the 7 flag epochs


class TestEvaluate:
    def test_writes_reports(self, tmp_path, workspace, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--corpus", str(workspace / "corpus"),
                              "--checkpoint", str(workspace / "model.json"),
                              "--out", str(tmp_path / "reports"))
        assert code == 0
        with open(tmp_path / "reports" / "metrics_test.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 11
        assert (tmp_path / "reports" / "timeseries_test.csv").is_file()
        assert "mean mse" in stdout

    def test_split_all_scores_every_track(self, tmp_path, workspace, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--corpus", str(workspace / "corpus"),
                              "--checkpoint", str(workspace / "model.json"),
                              "--split", "all", "--out", str(tmp_path / "r"))
        assert code == 0
        assert "12 tracks" in stdout
        with open(tmp_path / "r" / "timeseries_all.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 12 * 193

    def test_only_the_chosen_split_is_read(self, tmp_path, workspace, capsys):
        corpus, _ = damaged_corpus(workspace, tmp_path / "corpus", "train")
        for name, source in (("intact", workspace / "corpus"), ("damaged", corpus)):
            code, _, _ = run(capsys, "evaluate", "--corpus", str(source),
                             "--checkpoint", str(workspace / "model.json"),
                             "--split", "test", "--out", str(tmp_path / name))
            assert code == 0
        for report in ("metrics_test.csv", "timeseries_test.csv"):
            intact = (tmp_path / "intact" / report).read_bytes()
            assert (tmp_path / "damaged" / report).read_bytes() == intact

    @pytest.mark.parametrize("command,args", [
        ("evaluate", ("--split", "all")),
        ("train", ("--hidden", "8", "--epochs", "5", "--batch-tracks", "4")),
    ])
    def test_damaged_file_in_a_used_split_is_named(self, tmp_path, workspace, capsys,
                                                   command, args):
        corpus, name = damaged_corpus(workspace, tmp_path / "corpus", "train")
        if command == "evaluate":
            args = ("--checkpoint", str(workspace / "model.json"), *args)
        code, _, stderr = run(capsys, command, "--corpus", str(corpus), *args,
                              "--out", str(tmp_path / "out"))
        assert code == 1
        assert stderr.startswith(f"error: {name}: unparsable value 'oops'")
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, workspace, capsys):
        code, _, stderr = run(capsys, "evaluate", "--corpus", str(workspace / "corpus"),
                              "--checkpoint", str(tmp_path / "missing.json"),
                              "--out", str(tmp_path / "r"))
        assert code == 1
        assert "error:" in stderr

    def test_window_validated(self, tmp_path, workspace, capsys):
        code, _, stderr = run(capsys, "evaluate", "--corpus", str(workspace / "corpus"),
                              "--checkpoint", str(workspace / "model.json"),
                              "--window", "0", "--out", str(tmp_path / "r"))
        assert code == 1
        assert "window_days" in stderr


class TestPredict:
    def test_full_track_file(self, tmp_path, workspace, capsys):
        track = workspace / "corpus" / "track_0001.csv"
        out = tmp_path / "pred.csv"
        code, stdout, _ = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(track), "--out", str(out))
        assert code == 0
        assert "193 rows" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tau_days"] + [f"surge_{i:02d}" for i in range(1, 11)]
        assert len(rows) == 194
        taus = np.array([float(r[0]) for r in rows[1:]])
        np.testing.assert_array_equal(taus, tau_grid())

    def test_sparse_series_is_interpolated(self, tmp_path, workspace, capsys):
        sparse = tmp_path / "sparse.csv"
        sparse.write_text(
            "tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms\n"
            "3.0,-74.0,33.0,50,30,5\n"
            "0.0,-76.5,34.8,50,30,5\n"
            "-1.0,-77.2,35.6,50,30,5\n")
        out = tmp_path / "pred.csv"
        code, _, _ = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                         "--track", str(sparse), "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 194

    def test_missing_input_column_fails(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tau_days,lon_deg\n0.0,-76.5\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(bad), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert "missing input columns" in stderr

    def test_non_utf8_track_named(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"tau_days,lon_deg\n\xff\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(bad), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert stderr.startswith("error: bad.csv: not UTF-8")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("column,value", [
        ("rmax_km", "-5"), ("vmax_ms", "-1"), ("fspeed_ms", "-0.5")])
    def test_impossible_inputs_refused(self, tmp_path, workspace, capsys, column, value):
        columns = ["tau_days", "lon_deg", "lat_deg", "rmax_km", "vmax_ms", "fspeed_ms"]
        rows = [["3.0", "-74.0", "33.0", "50", "30", "5"],
                ["0.0", "-76.5", "34.8", "50", "30", "5"]]
        rows[1][columns.index(column)] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in [columns, *rows]) + "\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(bad), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert stderr.startswith(f"error: bad.csv: {column} must be")
        assert f"got {float(value)!r} | row 1 | column '{column}'" in stderr
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("row,column,value,message", [
        (2, "tau_days", "0.0", "duplicate tau value 0.0 | row 2 | column 'tau_days'"),
        (1, "lon_deg", "inf", "non-finite value | row 1 | column 'lon_deg'"),
    ], ids=["duplicate tau", "non-finite cell"])
    def test_bad_cell_named(self, tmp_path, workspace, capsys, row, column, value, message):
        columns = ["tau_days", "lon_deg", "lat_deg", "rmax_km", "vmax_ms", "fspeed_ms"]
        rows = [["3.0", "-74.0", "33.0", "50", "30", "5"],
                ["0.0", "-76.5", "34.8", "50", "30", "5"],
                ["-1.0", "-77.2", "35.6", "50", "30", "5"]]
        rows[row][columns.index(column)] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in [columns, *rows]) + "\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(bad), "--out", str(tmp_path / "p.csv"))
        assert (code, stderr) == (1, f"error: bad.csv: {message}\n")
        assert not (tmp_path / "p.csv").exists()

    def test_non_utf8_checkpoint_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"a": "\xff"}')
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(bad),
                              "--track", str(tmp_path / "in.csv"),
                              "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert stderr.startswith("error: bad.json: not UTF-8")

    def test_track_argument_required(self, tmp_path, workspace, capsys):
        code, _, stderr = run(capsys, "predict",
                              "--checkpoint", str(workspace / "model.json"),
                              "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert "--track" in stderr


class TestCheckpointShape:
    """evaluate and predict refuse a network that does not map the six input
    columns to the ten stations."""

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("input_dim,output_dim", [(6, 3), (5, 10)])
    def test_refused_with_file_named(self, tmp_path, workspace, capsys, command,
                                     input_dim, output_dim):
        ckpt = tmp_path / "odd.json"
        net = init_network(Architecture(input_dim, (4,), output_dim), Rng(1))
        norm = Normalizer(np.zeros(input_dim), np.ones(input_dim), np.zeros(input_dim, bool))
        save_checkpoint(net, norm, CheckpointMeta(1, 1, 0.5), ckpt)
        source = (["--corpus", str(workspace / "corpus")] if command == "evaluate"
                  else ["--track", str(workspace / "corpus" / "track_0001.csv")])
        code, _, stderr = run(capsys, command, "--checkpoint", str(ckpt), *source,
                              "--out", str(tmp_path / "out"))
        assert (code, stderr) == (
            1, f"error: odd.json: network maps {input_dim} inputs to {output_dim} outputs, "
               "but tracks have 6 input columns and 10 stations\n")
        assert not (tmp_path / "out").exists()


class TestDamagedCheckpoint:
    """predict refuses a damaged checkpoint with one line that names the file
    and the field, and writes no prediction."""

    @pytest.mark.parametrize("path,value,message", [
        (("normalizer", "means", 0), {"a": 1},
         "normalizer.means holds {'a': 1}, not a finite number"),
        (("normalizer", "means", 0), "x", "normalizer.means holds 'x', not a finite number"),
        (("layers", 0, "weights"), {"a": 1}, "layers[0].weights holds {'a': 1}, not a list"),
        (("layers", 0, "weights"), [[0.5, 1.0], [2.0]],
         "layers[0].weights holds [0.5, 1.0], not a finite number"),
        (("layers", 0, "weights"), [0.5] * 47, "layers[0].weights must hold 48 values, got 47"),
        (("normalizer", "stds", 0), 0, "normalizer.stds holds 0.0, not a value > 0"),
        (("normalizer", "stds", 0), -1.0, "normalizer.stds holds -1.0, not a value > 0"),
        (("normalizer", "constant_flags", 0), "no",
         "normalizer.constant_flags holds 'no', not a boolean"),
        (("meta", "seed"), None, "meta.seed holds None, not an integer"),
    ], ids=["dict in means", "string in means", "dict as weights", "ragged weights",
            "short weights", "zero std", "negative std", "string flag", "null seed"])
    def test_refused_with_file_and_field_named(self, tmp_path, workspace, path, value, message):
        payload = json.loads((workspace / "model.json").read_text())
        assert payload["normalizer"]["constant_flags"][0] is False
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(json.dumps(payload))
        code, stderr = run_quietly(["predict", "--checkpoint", str(ckpt), "--track",
                                    str(workspace / "corpus" / "track_0001.csv"),
                                    "--out", str(tmp_path / "p.csv")])
        assert (code, stderr) == (1, f"error: ck.json: {message}\n")
        assert not (tmp_path / "p.csv").exists()


LONG_FIELD = "x" * 200_000  # over csv's default limit of 131,072 characters


class TestOverlongField:
    """A field csv refuses fails with the file's name, not a traceback."""

    @pytest.mark.parametrize("in_manifest,line,row", [
        (True, 1, " | row 0"),
        (False, 0, ""),
        (False, 1, " | row 0"),
    ], ids=["manifest track_id", "track header", "track row"])
    def test_evaluate(self, tmp_path, workspace, capsys, in_manifest, line, row):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        name = "manifest.csv" if in_manifest else next(
            file for _, file, split in read_manifest(corpus / "manifest.csv") if split == "test")
        lines = (corpus / name).read_text().splitlines(keepends=True)
        lines[line] = LONG_FIELD + lines[line][lines[line].index(","):]
        (corpus / name).write_text("".join(lines))
        code, _, stderr = run(capsys, "evaluate", "--corpus", str(corpus),
                              "--checkpoint", str(workspace / "model.json"),
                              "--out", str(tmp_path / "out"))
        assert code == 1
        assert stderr.startswith(f"error: {name}: {'' if line else 'header: '}field larger")
        assert stderr.endswith(f"{row}\n")
        assert not (tmp_path / "out").exists()

    def test_predict_header(self, tmp_path, workspace, capsys):
        bad = tmp_path / "in.csv"
        bad.write_text(f"tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms,{LONG_FIELD}\n"
                       "0.0,-76.5,34.8,50,30,5,0\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(workspace / "model.json"),
                              "--track", str(bad), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert stderr.startswith("error: in.csv: header: field larger than field limit")
        assert not (tmp_path / "p.csv").exists()


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("epoches: 5\n")
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "c"))
        assert code == 1
        assert "unknown config keys" in stderr and "epoches" in stderr

    def test_unknown_oracle_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("oracle:\n  amplitude: 0.05\n")
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "c"))
        assert code == 1
        assert "unknown oracle keys" in stderr

    def test_unparsable_yaml_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: [unclosed\n")
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "c"))
        assert code == 1
        assert "unparsable config" in stderr

    def test_deeply_nested_yaml_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("[" * 100_000 + "]" * 100_000)  # deeper than Python's recursion limit
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "c"))
        assert (code, stderr.count("\n")) == (1, 1)
        assert stderr.startswith(f"error: unparsable config {cfg}: ")

    def test_non_utf8_config_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(b"seed: 7\n\xff\n")
        code, _, stderr = run(capsys, "generate", "--config", str(cfg),
                              "--out", str(tmp_path / "c"))
        assert code == 1
        assert stderr.startswith(f"error: config {cfg}: not UTF-8")

    @pytest.mark.parametrize("line,key", [
        ('workers: "2"', "workers"), ("epochs: 2.5", "epochs"),
        ('learning_rate: "fast"', "learning_rate"), ("track: 7", "track"),
        ("hidden: {a: 1}", "hidden"), ("hidden: [32.7]", "hidden"),
        ("hidden: [true]", "hidden"), ("oracle: {stations: 5}", "oracle"),
        ("oracle: {stations: [true]}", "oracle"), ("1: 2\nepoches: 3", "epoches"),
        ("oracle: {1: 2, amp: 3}", "amp"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(line + "\n")
        code, _, stderr = run(capsys, "train", "--config", str(cfg),
                              "--corpus", str(tmp_path / "none"), "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert stderr.startswith("error: ") and key in stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text,value", [
        ("1e-3", 0.001), ("1E3", 1000.0), ("-2e-1", -0.2), (".5e1", 5.0),
    ])
    def test_exponent_floats_load(self, tmp_path, text, value):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"learning_rate: {text}\n")
        settings = cli.load_config_file(cfg)
        assert settings == {"learning_rate": value} and type(settings["learning_rate"]) is float
        assert cli.RunConfig(**settings).learning_rate == value

    def test_integers_and_strings_stay_what_they_were(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("epochs: 300\nseed: -7\ntrack: e5\nprediction: 1e-3x\n")
        assert cli.load_config_file(cfg) == {
            "epochs": 300, "seed": -7, "track": "e5", "prediction": "1e-3x"}

    def test_default_config_file_matches_builtin_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
        settings = cli.load_config_file(path)
        assert cli.RunConfig(**settings) == cli.RunConfig()

    def test_every_flag_names_a_config_field(self):
        # build_config copies each flag given onto the RunConfig field its
        # destination names, so a destination outside RunConfig would be lost.
        parser = cli.build_parser()
        subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {action.dest
                 for p in (parser, *(sp for a in subcommands for sp in a.choices.values()))
                 for action in p._actions}
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert dests - {"config", "out", "help", "command"} <= fields


LETTERS = st.text(string.ascii_letters, min_size=1, max_size=6)
NOT_A_NUMBER = st.one_of(LETTERS, st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
                         st.dictionaries(LETTERS, st.integers(), max_size=2))
NOT_AN_INT = st.one_of(NOT_A_NUMBER, st.floats().filter(lambda f: not f.is_integer()))
NOT_A_STRING = st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(LETTERS, max_size=2),
                         st.dictionaries(LETTERS, LETTERS, max_size=2))
NAN = st.just(math.nan)
STATION = st.tuples(st.floats(-80, -74), st.floats(33, 37)).map(list)


def outside(lo, hi, lo_open=True, hi_open=False):
    """Floats outside the interval from lo to hi, nan included; lo_open and
    hi_open say whether the interval leaves out its ends."""
    return st.one_of(st.floats(max_value=lo, exclude_max=not lo_open),
                     st.floats(min_value=hi, exclude_min=not hi_open), NAN)


UNKNOWN_KEY = st.one_of(LETTERS, st.integers(), st.none(), st.floats(allow_nan=False))
BAD_ORACLE = st.one_of(
    st.one_of(st.integers(), LETTERS, st.lists(st.integers(), max_size=2)),
    st.dictionaries(UNKNOWN_KEY, st.integers(), min_size=1, max_size=3),
    st.one_of(st.lists(STATION, max_size=12).filter(lambda s: len(s) != 10),
              NOT_A_NUMBER).map(lambda s: {"stations": s}),
    # A list of two integers is itself a (lon, lat) pair, so it is no bad station.
    st.tuples(st.lists(STATION, min_size=10, max_size=10), st.integers(0, 9),
              st.one_of(NOT_A_NUMBER.filter(lambda v: not (isinstance(v, list) and len(v) == 2)),
                        st.lists(st.floats(), min_size=3, max_size=3))).map(
        lambda t: {"stations": [*t[0][:t[1]], t[2], *t[0][t[1] + 1:]]}),
    st.tuples(st.sampled_from(["amplitude_m_per_hpa", "decay_km", "time_width_days"]),
              st.one_of(st.floats(max_value=0), NAN, NOT_A_NUMBER.filter(
                  lambda v: not isinstance(v, bool)))).map(lambda kv: {kv[0]: kv[1]}),
    outside(-1, 1, hi_open=True).map(lambda a: {"asymmetry": a}),
)

BAD_SETTINGS = {
    **{key: st.one_of(NOT_AN_INT, st.integers(max_value=0))
       for key in ("epochs", "batch_tracks", "workers", "n_tracks")},
    "seed": NOT_AN_INT,
    "validation_every": st.one_of(NOT_AN_INT, st.integers(max_value=-1)),
    "learning_rate": st.one_of(NOT_A_NUMBER, st.floats(max_value=0), NAN),
    "adam_eps": st.one_of(NOT_A_NUMBER, st.floats(max_value=0), NAN),
    "lr_decay": st.one_of(NOT_A_NUMBER, outside(0, 1)),
    "adam_beta1": st.one_of(NOT_A_NUMBER, outside(0, 1, lo_open=False, hi_open=True)),
    "adam_beta2": st.one_of(NOT_A_NUMBER, outside(0, 1, lo_open=False, hi_open=True)),
    "window_days": st.one_of(NOT_A_NUMBER, outside(0, 1)),
    "split": st.one_of(NOT_A_STRING, LETTERS.filter(lambda s: s not in cli.SPLIT_CHOICES)),
    "activation": st.one_of(NOT_A_STRING, LETTERS.filter(lambda s: s not in ACTIVATIONS)),
    "hidden": st.one_of(
        st.lists(st.integers(1, 8), min_size=3, max_size=4), st.just([]), LETTERS,
        st.lists(st.integers(max_value=0), min_size=1, max_size=2), st.integers(max_value=0),
        st.lists(NOT_AN_INT, min_size=1, max_size=2), st.booleans(), st.none(),
        st.dictionaries(LETTERS, st.integers(), max_size=1)),
    **{key: st.one_of(NOT_A_STRING, LETTERS.map(lambda s: s + "\0"))
       for key in ("corpus_dir", "checkpoint", "report_dir", "prediction", "track")},
    "oracle": BAD_ORACLE,
}
GOOD_SETTINGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(-10**6, 10**6), "epochs": st.integers(1, 3),
    "validation_every": st.integers(0, 2), "learning_rate": st.floats(1e-4, 1e-2),
    "hidden": st.just([4]), "activation": st.sampled_from(sorted(ACTIVATIONS)),
    "split": st.sampled_from(cli.SPLIT_CHOICES), "window_days": st.floats(0.1, 1.0)})


class TestConfigFuzz:
    """A config with a bad value or key fails through a package error, and
    main prints one line for it and writes nothing."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        # Three tracks, all for training: fewer than the default batch of 32,
        # so even a config that slipped through would fail before an epoch.
        corpus = tmp_path_factory.mktemp("corpus3")
        dataset.generate_corpus(3, 5, dataset.default_oracle(), corpus)
        return corpus

    @settings(max_examples=300, deadline=None)
    @given(good=GOOD_SETTINGS, data=st.data(),
           bad=st.lists(st.sampled_from(sorted(BAD_SETTINGS) + ["unknown key", "document"]),
                        min_size=1, max_size=3, unique=True))
    def test_bad_config_is_a_package_error(self, corpus, tmp_path_factory, good, data, bad):
        tmp = tmp_path_factory.mktemp("cfg")
        settings_ = {**good, "corpus_dir": str(corpus), "checkpoint": str(tmp / "m.json")}
        for key in bad:
            if key == "unknown key":
                settings_[data.draw(UNKNOWN_KEY.filter(lambda k: k not in cli._CONFIG_KEYS))] = 1
            elif key != "document":
                settings_[key] = data.draw(BAD_SETTINGS[key], label=key)
        document = settings_ if "document" not in bad else data.draw(
            st.one_of(st.lists(st.integers(), max_size=2), LETTERS, st.integers()))
        (tmp / "cfg.yaml").write_text(yaml.safe_dump(document))
        argv = ["train", "--config", str(tmp / "cfg.yaml")]

        args = cli.build_parser().parse_args(argv)
        with pytest.raises(SurgenetError):
            args.func(cli.build_config(args))
        code, stderr = run_quietly(argv)
        assert code == 1
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert list(tmp.iterdir()) == [tmp / "cfg.yaml"]


    @settings(max_examples=100, deadline=None)
    @given(oracle=BAD_ORACLE)
    def test_bad_oracle_is_a_config_error(self, tmp_path_factory, oracle):
        tmp = tmp_path_factory.mktemp("oracle")
        (tmp / "cfg.yaml").write_text(yaml.safe_dump({"oracle": oracle}))
        argv = ["generate", "--config", str(tmp / "cfg.yaml"), "--out", str(tmp / "c")]
        with pytest.raises(ConfigError, match="oracle"):
            cli.build_config(cli.build_parser().parse_args(argv))
        code, stderr = run_quietly(argv)
        assert code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1
        assert not (tmp / "c").exists()


TEXT = st.text(st.characters(blacklist_categories=["Cs"]), max_size=8)


@st.composite
def damaged_manifests(draw, rows):
    """(header, rows) of a manifest with one drawn defect that read_manifest
    refuses."""
    header, rows = ["track_id", "file", "split"], [list(row) for row in rows]
    r, other = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                             unique=True))
    track_id, file, _ = rows[r]
    kind = draw(st.sampled_from(["split", "id", "file", "nul", "same id", "same file",
                                 "short", "long", "header"]))
    if kind == "split":
        rows[r][2] = draw(TEXT.filter(lambda t: t not in SPLIT_LABELS))
    elif kind == "id":
        rows[r][0] = draw(TEXT.filter(lambda t: t != Path(file).stem))
    elif kind == "file":
        rows[r][1] = draw(TEXT.filter(lambda t: Path(t).stem != track_id))
    elif kind == "nul":  # the id is the file's stem, but no file can have the name
        name = draw(TEXT) + "\0"
        rows[r][:2] = [name, name + ".csv"]
    elif kind == "same id":
        rows[other][0] = track_id
    elif kind == "same file":
        rows[other][1] = file
    elif kind == "short":
        rows[r] = rows[r][:draw(st.integers(0, 2))]
    elif kind == "long":
        rows[r].append(draw(TEXT))
    else:
        header = draw(st.lists(TEXT, max_size=4).filter(lambda h: h != header))
    return header, rows


class TestManifestFuzz:
    """A manifest with a bad row or header fails through a package error that
    names it, and evaluate writes no report."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_manifest_is_a_package_error(self, workspace, tmp_path_factory, data):
        rows = read_manifest(workspace / "corpus" / "manifest.csv")
        header, rows = data.draw(damaged_manifests(rows))
        corpus = tmp_path_factory.mktemp("manifest")
        with open(corpus / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])

        with pytest.raises(SurgenetError):
            dataset.load_corpus(corpus, ("test",))
        code, stderr = run_quietly(["evaluate", "--corpus", str(corpus), "--checkpoint",
                                    str(workspace / "model.json"),
                                    "--out", str(corpus / "out")])
        assert code == 1
        assert stderr.startswith("error: manifest.csv: ") and stderr.count("\n") == 1
        assert not (corpus / "out").exists()


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        ckpt = tmp_path / "model.json"
        reports = tmp_path / "reports"
        pred = tmp_path / "pred.csv"
        assert cli.main(["generate", "--n-tracks", "8", "--seed", "5",
                         "--out", str(corpus)]) == 0
        assert cli.main(["train", "--corpus", str(corpus), "--seed", "5",
                         "--hidden", "8", "--epochs", "40", "--batch-tracks", "4",
                         "--validation-every", "10", "--out", str(ckpt)]) == 0
        assert cli.main(["evaluate", "--corpus", str(corpus),
                         "--checkpoint", str(ckpt), "--split", "val",
                         "--out", str(reports)]) == 0
        assert cli.main(["predict", "--checkpoint", str(ckpt),
                         "--track", str(corpus / "track_0002.csv"),
                         "--out", str(pred)]) == 0
        capsys.readouterr()
        assert (reports / "metrics_val.csv").is_file()
        assert (reports / "timeseries_val.csv").is_file()
        assert pred.is_file()
