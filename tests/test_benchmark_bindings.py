"""The names the benchmark's tracer binds still exist with the call shapes it
expects.

benchmark/spans.py replaces module attributes such as
``training._parallel_loss_grads`` with timing wrappers, and tags each
``_parallel_loss_grads`` span from that call's arguments. A rename, a deleted
function or a reordered signature then breaks the benchmark at run time; this
test runs a short training, an evaluation and two predictions under the
tracer so it breaks here instead.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from surgenet import cli
from surgenet.dataset import DatasetSplit, default_oracle, generate_track, save_track_csv
from surgenet.evaluation import emit_report, evaluate_tracks
from surgenet.network import (
    Architecture,
    CheckpointMeta,
    fit_normalizer,
    init_network,
    save_checkpoint,
)
from surgenet.numerics import Rng
from surgenet.training import TrainConfig, train

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_and_evaluate_record_every_layer(tmp_path):
    spans = load_spans()
    root = Rng(12)
    tracks = [generate_track(root.child(i), default_oracle(), f"track_{i:04d}")
              for i in range(16)]
    split = DatasetSplit(training=tuple(tracks[:12]), validation=tuple(tracks[12:14]),
                         testing=tuple(tracks[14:]))
    # 12 tracks of 193 rows exceed one 512-row shard, so both workers run.
    cfg = TrainConfig(Architecture(6, (8,), 10), epochs=2, batch_tracks=12, workers=2,
                      validation_every=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ckpt, _ = train(cfg, split)
        result = evaluate_tracks(ckpt.net, ckpt.normalizer, split.testing, label="test")
        emit_report(result, tmp_path)
    finally:
        tracer.uninstall()
    recorded = {name for _, name in tracer.totals()}
    # The per-layer evidence of a training step: a step that bypassed the
    # reduction's binding or the ACTIVATIONS table would record no span here.
    for name in ("evaluation.prob_within", "evaluation.quantile_interval",
                 "evaluation.fit_kde", "training.loss_grads", "training.backprop",
                 "training.validation", "training.reduce", "numerics.tanh_act"):
        assert name in recorded, name
    assert all(isinstance(s.tag, int) for s in tracer.spans if s.name == "training.loss_grads")


def test_each_predict_records_one_checkpoint_load(tmp_path):
    # The benchmark's predict metrics divide the load_checkpoint spans by the
    # predict calls, so a repeated load must still go through cli's binding.
    spans = load_spans()
    track = generate_track(Rng(3), default_oracle(), "track_0001")
    save_track_csv(track, tmp_path / "track_0001.csv")
    save_checkpoint(init_network(Architecture(6, (8,), 10), Rng(4)),
                    fit_normalizer(track.inputs), CheckpointMeta(4, 1, 0.5), tmp_path / "m.json")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for call in range(2):
            tracer.stage = call
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["predict", "--checkpoint", str(tmp_path / "m.json"),
                                 "--track", str(tmp_path / "track_0001.csv"),
                                 "--out", str(tmp_path / "p.csv")]) == 0
    finally:
        tracer.uninstall()
    assert [s.stage for s in tracer.spans if s.name == "network.load_checkpoint"] == [0, 1]
