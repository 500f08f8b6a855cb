"""The CSV writers against the per-value loops they replaced, and the atomic
write every artifact goes through.

The reference writers below are the csv.writer + format() loops that wrote
track files, report time series, metrics tables, predictions and training
histories before each was formatted one row at a time. They are kept here as the
specification of those files' bytes.
"""

import contextlib
import csv
import io
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surgenet import cli, dataset, evaluation, training
from surgenet.dataset import (
    CSV_COLUMNS,
    N_ROWS,
    N_STATIONS,
    SURGE_COLUMNS,
    StormTrack,
    atomic_write,
    default_oracle,
    generate_track,
    load_track_csv,
    save_track_csv,
    tau_grid,
    write_manifest,
)
from surgenet.evaluation import (
    E_STAR_MASS,
    METRICS_HEADER,
    TIGHT_BOUND_M,
    WIDE_BOUND_M,
    LocationMetrics,
    emit_report,
    evaluate_tracks,
    prob_within,
    quantile_interval,
)
from surgenet.network import (
    Architecture,
    CheckpointMeta,
    fit_normalizer,
    init_network,
    save_checkpoint,
)
from surgenet.numerics import Rng

# -- reference writers --------------------------------------------------------


def reference_track_csv(track, path):
    data = np.hstack([track.inputs, track.surge])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in data:
            writer.writerow([format(v, ".17g") for v in row])


def _fmt(v):
    return format(v, ".10g")


def reference_metrics(result, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for m, full, win in zip(result.metrics, result.full_pdfs, result.window_pdfs):
            writer.writerow((
                m.location,
                _fmt(m.mse),
                _fmt(m.r),
                _fmt(prob_within(full, TIGHT_BOUND_M)),
                _fmt(quantile_interval(full, E_STAR_MASS)),
                _fmt(prob_within(win, TIGHT_BOUND_M)),
                _fmt(prob_within(win, WIDE_BOUND_M)),
            ))


def reference_timeseries(result, path):
    obs_cols = [f"obs_{i:02d}" for i in range(1, N_STATIONS + 1)]
    pred_cols = [f"pred_{i:02d}" for i in range(1, N_STATIONS + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "tau_days", *obs_cols, *pred_cols])
        for track, preds in result.series:
            for i in range(N_ROWS):
                writer.writerow((
                    track.track_id,
                    _fmt(track.inputs[i, 0]),
                    *(_fmt(v) for v in track.surge[i]),
                    *(_fmt(v) for v in preds[i]),
                ))


def reference_prediction(inputs, preds, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tau_days", *SURGE_COLUMNS))
        for tau, row in zip(inputs[:, 0], preds):
            writer.writerow((format(tau, ".17g"), *(format(v, ".17g") for v in row)))


def reference_history(history, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "lr", "train_mse", "val_mse"))
        for row in history:
            writer.writerow((
                row.epoch,
                format(row.lr, ".17g"),
                format(row.train_mse, ".17g"),
                "" if row.val_mse is None else format(row.val_mse, ".17g"),
            ))


# -- strategies ---------------------------------------------------------------

# Values whose text is easy to get wrong: signed zero, the smallest subnormal
# and normal, the 1e16 and 1e-5 switches between positional and exponent
# notation, and the largest float.
AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
           9999999999999998.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0, 123456789.0,
           1.7976931348623157e308)


def values(finite=False):
    return st.one_of(st.sampled_from(AWKWARD),
                     st.floats(allow_nan=not finite, allow_infinity=not finite))


def rows_of(width, finite=False):
    """A few drawn rows, repeated to fill a whole track's N_ROWS."""
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(width)),
                      elements=values(finite)).map(
        lambda block: np.resize(block, (N_ROWS, width)))


track_ids = st.text(st.one_of(st.sampled_from(',"%\n\r \t'), st.characters(codec="utf-8")),
                    max_size=10)

SETTINGS = settings(max_examples=60, deadline=None)

# -- byte identity ------------------------------------------------------------


class TestTrackCsvBytes:
    @SETTINGS
    @given(inputs=rows_of(6), surge=rows_of(N_STATIONS))
    def test_matches_reference(self, tmp_path_factory, inputs, surge):
        tmp = tmp_path_factory.mktemp("track")
        track = StormTrack("t", inputs, surge)
        save_track_csv(track, tmp / "new.csv")
        reference_track_csv(track, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @SETTINGS
    @given(lonlat=rows_of(2, finite=True), surge=rows_of(N_STATIONS, finite=True),
           rmax=st.one_of(st.just(5e-324), st.floats(min_value=0, exclude_min=True,
                                                     allow_infinity=False)),
           vmax=st.one_of(st.just(-0.0), st.floats(min_value=0, allow_infinity=False)),
           fspeed=st.one_of(st.just(-0.0), st.floats(min_value=0, allow_infinity=False)))
    def test_load_restores_every_bit(self, tmp_path_factory, lonlat, surge, rmax, vmax,
                                     fspeed):
        storm = np.full((N_ROWS, 3), (rmax, vmax, fspeed))
        inputs = np.column_stack([tau_grid(), lonlat, storm])
        track = StormTrack("track_0001", inputs, surge)
        path = tmp_path_factory.mktemp("round") / "track_0001.csv"
        save_track_csv(track, path)
        back = load_track_csv(path)
        assert back.inputs.tobytes() == track.inputs.tobytes()
        assert back.surge.tobytes() == track.surge.tobytes()


@pytest.fixture(scope="module")
def result():
    """A small real evaluation: its densities are reused with drawn series."""
    tracks = [generate_track(Rng(3).child(i), default_oracle(), f"track_{i:04d}")
              for i in range(3)]
    net = init_network(Architecture(6, (8,), N_STATIONS), Rng(4))
    normalizer = fit_normalizer(np.concatenate([t.inputs for t in tracks]))
    return evaluate_tracks(net, normalizer, tracks, label="test")


class TestReportBytes:
    def test_real_evaluation_matches_reference(self, result, tmp_path):
        metrics_path, series_path = emit_report(result, tmp_path / "new")
        reference_metrics(result, tmp_path / "ref_metrics.csv")
        reference_timeseries(result, tmp_path / "ref_series.csv")
        assert metrics_path.read_bytes() == (tmp_path / "ref_metrics.csv").read_bytes()
        assert series_path.read_bytes() == (tmp_path / "ref_series.csv").read_bytes()

    @SETTINGS
    @given(data=st.data())
    def test_drawn_series_and_metrics_match_reference(self, result, tmp_path_factory, data):
        n_tracks = data.draw(st.integers(1, 3))
        series = [(StormTrack(data.draw(track_ids), data.draw(rows_of(6)),
                              data.draw(rows_of(N_STATIONS))),
                   data.draw(rows_of(N_STATIONS)))
                  for _ in range(n_tracks)]
        metrics = [LocationMetrics(i + 1, data.draw(values()), data.draw(values()), 1)
                   for i in range(N_STATIONS)]
        drawn = evaluation.EvaluationResult(result.label, metrics, result.full_pdfs,
                                            result.window_pdfs, series, result.window_days)
        tmp = tmp_path_factory.mktemp("report")
        metrics_path, series_path = emit_report(drawn, tmp / "new")
        reference_metrics(drawn, tmp / "ref_metrics.csv")
        reference_timeseries(drawn, tmp / "ref_series.csv")
        assert metrics_path.read_bytes() == (tmp / "ref_metrics.csv").read_bytes()
        assert series_path.read_bytes() == (tmp / "ref_series.csv").read_bytes()

    @pytest.mark.parametrize("track_id", ["a\nb", "a\rb", 'say "hi"', "a,b", "100%", "%s%d", ""])
    def test_track_ids_quoted_as_csv_writer_does(self, track_id):
        buf = io.StringIO()
        csv.writer(buf).writerow((track_id, "1"))
        assert dataset.csv_lead(track_id) + "1\r\n" == buf.getvalue()


class TestHistoryBytes:
    @SETTINGS
    @given(rows=st.lists(st.tuples(st.integers(1, 10**9), values(), values(),
                                   st.one_of(st.none(), values())), max_size=12))
    def test_matches_reference(self, tmp_path_factory, rows):
        history = [training.HistoryRow(*row) for row in rows]
        tmp = tmp_path_factory.mktemp("history")
        training.write_history(history, tmp / "new.csv")
        reference_history(history, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def predict_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("predict")
    track = generate_track(Rng(5), default_oracle(), "track_0001")
    save_track_csv(track, tmp / "track_0001.csv")
    net = init_network(Architecture(6, (8,), N_STATIONS), Rng(6))
    save_checkpoint(net, fit_normalizer(track.inputs), CheckpointMeta(6, 1, 0.5),
                    tmp / "model.json")
    return tmp


class TestPredictionBytes:
    @SETTINGS
    @given(preds=rows_of(N_STATIONS))
    def test_matches_reference(self, predict_files, preds):
        out = predict_files / "pred.csv"
        with mock.patch.object(cli, "forward_batch", return_value=(preds, [])), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", "--checkpoint", str(predict_files / "model.json"),
                             "--track", str(predict_files / "track_0001.csv"),
                             "--out", str(out)]) == 0
        reference_prediction(np.column_stack([tau_grid()]), preds, predict_files / "ref.csv")
        assert out.read_bytes() == (predict_files / "ref.csv").read_bytes()


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrite:
    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_error_keeps_previous_bytes_and_no_temporary(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("old")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_unwritable_target_is_named(self, tmp_path):
        path = tmp_path / "missing" / "f.csv"
        with pytest.raises(FileNotFoundError) as err:
            with atomic_write(path):
                pass
        assert err.value.filename == str(path)

    def test_writer_failing_partway_leaves_previous_report(self, result, tmp_path):
        _, series_path = emit_report(result, tmp_path)
        before = series_path.read_bytes()
        (track, preds), *rest = result.series
        broken = [*rest, (track, preds[:-1])]  # the last block cannot be stacked
        with pytest.raises(ValueError):
            emit_report(evaluation.EvaluationResult(
                result.label, result.metrics, result.full_pdfs, result.window_pdfs,
                broken, result.window_days), tmp_path)
        assert series_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics_test.csv", "timeseries_test.csv"]

    @pytest.mark.parametrize("target", ["t.csv", "manifest.csv", "metrics_test.csv",
                                        "timeseries_test.csv", "pred.csv", "model.json",
                                        "h.csv"])
    def test_every_writer_goes_through_it(self, target, result, predict_files, tmp_path):
        # Only the replace onto the target fails. A writer that goes through
        # atomic_write then leaves the target's previous bytes in place.
        track = result.series[0][0]
        net = init_network(Architecture(6, (8,), N_STATIONS), Rng(7))
        writers = {
            "t.csv": lambda p: save_track_csv(track, p),
            "manifest.csv": lambda p: write_manifest([("a", "a.csv", "train")], p),
            "metrics_test.csv": lambda p: emit_report(result, p.parent),
            "timeseries_test.csv": lambda p: emit_report(result, p.parent),
            "pred.csv": lambda p: cli.cmd_predict(cli.RunConfig(
                checkpoint=str(predict_files / "model.json"),
                track=str(predict_files / "track_0001.csv"), prediction=str(p))),
            "model.json": lambda p: save_checkpoint(
                net, fit_normalizer(track.inputs), CheckpointMeta(1, 1, 0.5), p),
            "h.csv": lambda p: training.write_history(
                [training.HistoryRow(1, 0.001, 0.5, None)], p),
        }
        path = tmp_path / target
        path.write_text("old")
        replace = os.replace

        def failing(src, dst):
            if Path(dst) == path:
                raise OSError("disk full")
            replace(src, dst)

        with mock.patch.object(dataset.os, "replace", failing), \
                contextlib.redirect_stdout(io.StringIO()), pytest.raises(OSError, match="disk"):
            writers[target](path)
        assert path.read_text() == "old"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
