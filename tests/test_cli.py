import csv
import json
from pathlib import Path

import numpy as np
import pytest

from surgenet import cli
from surgenet.dataset import tau_grid


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

    def test_track_argument_required(self, tmp_path, workspace, capsys):
        code, _, stderr = run(capsys, "predict",
                              "--checkpoint", str(workspace / "model.json"),
                              "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert "--track" in stderr


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

    @pytest.mark.parametrize("line,key", [
        ('workers: "2"', "workers"), ("epochs: 2.5", "epochs"),
        ("learning_rate: 1e-3", "learning_rate"), ("track: 7", "track"),
        ("hidden: {a: 1}", "hidden"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(line + "\n")
        code, _, stderr = run(capsys, "train", "--config", str(cfg),
                              "--corpus", str(tmp_path / "none"), "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert stderr.startswith("error: ") and key in stderr
        assert not (tmp_path / "m.json").exists()

    def test_default_config_file_matches_builtin_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
        settings = cli.load_config_file(path)
        assert cli.RunConfig(**settings) == cli.RunConfig()


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
