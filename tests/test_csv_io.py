"""The CSV writers and readers against the per-value loops they replaced, and
the atomic write every artifact goes through.

The reference writers below are the csv.writer + format() loops that wrote
track files, report time series, metrics tables, predictions and training
histories before each was formatted one row at a time. They are kept here as the
specification of those files' bytes. The reference readers are the
csv.reader + float() loops that parsed track and predict files before numpy's
reader took every file it reads the same way: they specify which files load,
to what bits, and every error message.
"""

import contextlib
import csv
import io
import os
import shutil
import warnings
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
    INPUT_COLUMNS,
    N_ROWS,
    N_STATIONS,
    SURGE_COLUMNS,
    StormTrack,
    atomic_write,
    default_oracle,
    format_rows,
    generate_track,
    interpolate_to_grid,
    load_track_csv,
    read_input_series,
    read_manifest,
    save_track_csv,
    tau_grid,
    validate_track,
    write_manifest,
)
from surgenet.errors import ColumnSchemaError, RowCountError, TrackValidationError, named
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


# -- reference readers --------------------------------------------------------


@contextlib.contextmanager
def reference_csv_reader(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise TrackValidationError(f"{path.name}: not UTF-8 text ({exc.reason})") from None


def reference_float_rows(path, reader, header, names):
    pick = None if tuple(header) == tuple(names) else [header.index(c) for c in names]
    values = []
    for r, fields in enumerate(reader):
        if len(fields) != len(header):
            raise ColumnSchemaError(
                f"{path.name}: expected {len(header)} fields, got {len(fields)}", row=r)
        if pick is not None:
            fields = [fields[i] for i in pick]
        try:
            values.append(list(map(float, fields)))
        except ValueError:
            for field, column in zip(fields, names):
                try:
                    float(field)
                except ValueError:
                    raise TrackValidationError(
                        f"{path.name}: unparsable value {field!r:.40}",
                        row=r, column=column) from None
    return np.array(values, dtype=np.float64).reshape(len(values), len(names))


def reference_load_track_csv(path):
    path = Path(path)
    with reference_csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise ColumnSchemaError(f"{path.name}: empty file")
        if tuple(header) != CSV_COLUMNS:
            raise ColumnSchemaError(
                f"{path.name}: header {tuple(header)!r:.40} does not match the track schema")
        data = reference_float_rows(path, reader, header, CSV_COLUMNS)
    track = StormTrack(path.stem, data[:, :len(INPUT_COLUMNS)], data[:, len(INPUT_COLUMNS):])
    with named(path.name):
        validate_track(track)
    return track


def reference_read_input_series(path):
    path = Path(path)
    with reference_csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise ColumnSchemaError(f"{path.name}: empty file")
        missing = [c for c in INPUT_COLUMNS if c not in header]
        if missing:
            raise ColumnSchemaError(f"{path.name}: missing input columns {missing}")
        rows = reference_float_rows(path, reader, header, INPUT_COLUMNS)
    if len(rows) == 0:
        raise RowCountError(f"{path.name}: no data rows")
    with named(path.name):
        dataset._check_input_ranges(rows)
        return interpolate_to_grid(rows)


def reference_rows(path, names):
    """The columns called names of a CSV file, through the reference loop."""
    with reference_csv_reader(path) as reader:
        return reference_float_rows(path, reader, next(reader), names)


def parsed_rows(path, names):
    """The columns called names of a CSV file, as the track and predict
    readers parse them."""
    with named(path.name):
        header, lines = dataset._read_csv(path)
        return dataset._float_rows(lines, header, names)


def outcome(load, path):
    """What load(path) gives: the bytes of what it returns, or the type and
    message of what it raises. Any warning fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = load(path)
    except Exception as exc:  # the reference may raise anything; so must the new
        return type(exc), str(exc)
    if isinstance(result, StormTrack):
        return result.track_id, result.inputs.tobytes(), result.surge.tobytes()
    return result.shape, result.tobytes()


# -- strategies ---------------------------------------------------------------

# Values whose text is easy to get wrong: signed zero, the smallest subnormal
# and normal, the 1e16 and 1e-5 switches between positional and exponent
# notation, and the largest float.
AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
           9999999999999998.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0, 123456789.0,
           1.7976931348623157e308)


# And the values a finite-only draw never gives, with the extremes' neighbours.
NON_FINITE = (float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-308,
              -1e-308, 2.2250738585072009e-308)


def values(finite=False):
    return st.one_of(st.sampled_from(AWKWARD if finite else AWKWARD + NON_FINITE),
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
    @given(table=rows_of(len(CSV_COLUMNS)),
           lonlat=rows_of(2, finite=True), surge=rows_of(N_STATIONS, finite=True),
           rmax=st.one_of(st.just(5e-324), st.floats(min_value=0, exclude_min=True,
                                                     allow_infinity=False)),
           vmax=st.one_of(st.just(-0.0), st.floats(min_value=0, allow_infinity=False)),
           fspeed=st.one_of(st.just(-0.0), st.floats(min_value=0, allow_infinity=False)))
    def test_load_restores_every_bit(self, tmp_path_factory, table, lonlat, surge, rmax,
                                     vmax, fspeed):
        tmp = tmp_path_factory.mktemp("round")
        # Any table, nan and inf included: all its columns, and a pick of six.
        save_track_csv(StormTrack("table", table[:, :6], table[:, 6:]), tmp / "table.csv")
        written = np.where(np.isnan(table), np.nan, table)  # every nan is written "nan"
        for names in (CSV_COLUMNS, INPUT_COLUMNS):
            want = written[:, [CSV_COLUMNS.index(c) for c in names]]
            got = parsed_rows(tmp / "table.csv", names)
            assert got.tobytes() == reference_rows(tmp / "table.csv", names).tobytes()
            assert got.tobytes() == want.tobytes()
        # A valid track, through the whole loader.
        storm = np.full((N_ROWS, 3), (rmax, vmax, fspeed))
        inputs = np.column_stack([tau_grid(), lonlat, storm])
        track = StormTrack("track_0001", inputs, surge)
        save_track_csv(track, tmp / "track_0001.csv")
        back = load_track_csv(tmp / "track_0001.csv")
        assert back.inputs.tobytes() == track.inputs.tobytes()
        assert back.surge.tobytes() == track.surge.tobytes()


# -- damaged files ------------------------------------------------------------

INTACT = generate_track(Rng(8), default_oracle(), "track_0001")
INTACT_ROWS = [line.split(",") for line in
               format_rows(np.hstack([INTACT.inputs, INTACT.surge]), 17).split("\r\n")[:-1]]

# Cell texts: spellings only float() accepts, quoting, comment marks, padding,
# and drawn text that may hold delimiters and line ends of its own.
CELL_TEXTS = st.one_of(
    st.sampled_from(["1_000", '"1.5"', "#5", "5#", "١٢", "", " ", "-nan",
                     "1e999", "0x1p3", "1e", "+-1", "1.5 x", " 2", '"x', 'y"']),
    st.tuples(st.sampled_from(["", " ", "  ", "\t"]), values(),
              st.sampled_from(["", " ", "\t "])).map(lambda t: f"{t[0]}{t[1]!r}{t[2]}"),
    st.text(st.sampled_from('0123456789.eE+-_ ,#"\t\r\n١x'), max_size=8),
)


def render(rows, end="\r\n"):
    """A track file's text: the header, then rows of field texts ([] for a
    blank line), each ended with end."""
    return "".join(",".join(row) + end for row in [list(CSV_COLUMNS), *rows])


@st.composite
def damaged_texts(draw):
    """The intact track's text with one or two damages and drawn line ends."""
    rows = [list(row) for row in INTACT_ROWS]
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "short", "long", "blank", "trailing blank"]))
        if kind == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELL_TEXTS)
        elif kind == "short":
            rows[r] = rows[r][:-1]
        elif kind == "long":
            rows[r] = [*rows[r], draw(CELL_TEXTS)]
        elif kind == "blank":
            rows.insert(r, [])
        elif kind == "trailing blank":
            rows.append([])
    return render(rows, draw(st.sampled_from(["\r\n", "\n", "\r"])))


def edited(r, c, text):
    """An edit of rows that puts text in row r, column c."""
    return lambda rows: [row if i != r else [*row[:c], text, *row[c + 1:]]
                         for i, row in enumerate(rows)]


# Each case: an edit of the intact rows, the line end, and whether evaluate
# and predict refuse the file. Track files must sit on the tau grid, predict
# files need only the six input columns, so some files load for one only.
CLI_CASES = {
    "unparsable cell": (edited(1, 4, "#5"), "\r\n", True, True),
    "comment mark after the last field": (edited(2, 15, "5#"), "\r\n", True, False),
    "comment mark after fspeed": (edited(2, 5, "5#"), "\r\n", True, True),
    "quote spanning two lines": (lambda rows: edited(3, 15, 'y"')(edited(2, 15, '"x')(rows)),
                                 "\r\n", True, False),
    "quoted number": (edited(3, 1, '"-76.5"'), "\r\n", False, False),
    "underscored number": (edited(3, 3, "1_000"), "\r\n", False, False),
    "arabic-indic digits": (edited(3, 4, "١٢"), "\r\n", False, False),
    "padded negative": (edited(4, 3, " -3.5 "), "\r\n", True, True),
    "short row": (lambda rows: [row[:-1] if i == 4 else row for i, row in enumerate(rows)],
                  "\r\n", True, True),
    "long row": (lambda rows: [[*row, "0"] if i == 5 else row for i, row in enumerate(rows)],
                 "\r\n", True, True),
    "inserted blank line": (lambda rows: [*rows[:6], [], *rows[6:]], "\r\n", True, True),
    "trailing blank line": (lambda rows: [*rows, []], "\r\n", True, True),
    "bare CR line ends": (lambda rows: rows, "\r", False, False),
}


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """A 12-track corpus and an untrained checkpoint fitted to it."""
    tmp = tmp_path_factory.mktemp("corpus")
    split = dataset.generate_corpus(12, 404, default_oracle(), tmp / "corpus")
    inputs = np.concatenate([t.inputs for t in split.training])
    save_checkpoint(init_network(Architecture(6, (8,), N_STATIONS), Rng(9)),
                    fit_normalizer(inputs), CheckpointMeta(404, 1, 0.5), tmp / "model.json")
    return tmp


class TestDamagedFiles:
    @settings(max_examples=200, deadline=None)
    @given(text=damaged_texts())
    def test_loaders_match_the_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("damaged") / "track_0001.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_track_csv, path) == outcome(reference_load_track_csv, path)
        assert outcome(read_input_series, path) == outcome(reference_read_input_series, path)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("case", list(CLI_CASES))
    def test_cli_reports_the_row_loops_error(self, corpus_files, tmp_path, capsys, case,
                                             command):
        edit, end, evaluate_fails, predict_fails = CLI_CASES[case]
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_files / "corpus", corpus)
        name = next(file for _, file, split in read_manifest(corpus / "manifest.csv")
                    if split == "test")
        (corpus / name).write_bytes(render(edit(INTACT_ROWS), end).encode("utf-8"))
        checkpoint = str(corpus_files / "model.json")
        if command == "evaluate":
            fails, load, reference = evaluate_fails, load_track_csv, reference_load_track_csv
            argv = ["evaluate", "--corpus", str(corpus), "--checkpoint", checkpoint,
                    "--split", "test", "--out", str(tmp_path / "reports")]
        else:
            fails, load, reference = predict_fails, read_input_series, reference_read_input_series
            argv = ["predict", "--checkpoint", checkpoint, "--track", str(corpus / name),
                    "--out", str(tmp_path / "pred.csv")]
        code = cli.main(argv)
        stderr = capsys.readouterr().err
        expected = outcome(reference, corpus / name)
        assert outcome(load, corpus / name) == expected
        if fails:
            assert code == 1
            assert isinstance(expected[0], type)  # the reference raised
            assert stderr == f"error: {expected[1]}\n"
            assert stderr.startswith(f"error: {name}: ")
        else:
            assert (code, stderr) == (0, "")
        assert "could not convert" not in stderr and "number of columns" not in stderr


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
                                            result.window_pdfs, series)
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
                broken), tmp_path)
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
