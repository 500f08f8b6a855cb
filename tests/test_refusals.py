"""Each loader refuses a long or garbage field with one short line.

The refusal is a SurgenetError whose message is one line of at most LINE
characters plus the length of the name it gives the file. A data reader
starts its message with "<file name>: " and names the file nowhere else:
errors.named adds the name, once, at the reader's boundary. A number flag's
text is refused the same way, in one line.
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surgenet import cli, dataset
from surgenet.dataset import (
    INPUT_COLUMNS,
    MANIFEST_NAME,
    N_STATIONS,
    default_oracle,
    load_track_csv,
    read_input_series,
    read_manifest,
)
from surgenet.errors import SurgenetError
from surgenet.network import (
    Architecture,
    CheckpointMeta,
    Normalizer,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from surgenet.numerics import Rng

LINE = 120  # the longest message, less the name of the file it refuses

SETTINGS = settings(max_examples=80, deadline=None)

# Runs of one digit: past float's range, and past int()'s 4300-digit limit.
DIGITS = st.builds(lambda d, n: d * n, st.sampled_from("123456789"), st.integers(41, 6000))
# The fields a user's file may hold: short garbage, long text, long numbers.
FIELDS = st.one_of(
    st.text(max_size=8),
    st.text(min_size=41, max_size=2000),
    DIGITS,
    DIGITS.map(lambda d: f"-{d}.5e-3"),
    st.sampled_from(["", "nan", "-inf", "1e999", "0x1p3", '"', "\0"]),
)
# A whole file of garbage, as text or as bytes.
GARBAGE = st.one_of(st.text(max_size=300).map(lambda t: t.encode("utf-8")),
                    st.binary(max_size=300))


def refusal(load, path, name) -> str:
    """The message of the SurgenetError load(path) raises, checked to be one
    line of at most LINE characters plus len(name). An input load accepts is
    not a case of this test."""
    try:
        load(path)
    except SurgenetError as exc:
        message = str(exc)
    else:
        assume(False)
    assert len(message.splitlines()) == 1 and len(message) <= LINE + len(name), message
    return message


def assert_named_once(message, name):
    assert message.startswith(f"{name}: "), message
    assert name not in message[len(name) + 2:], message


def csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


@st.composite
def damaged_csv(draw, rows):
    """The bytes of rows as CSV with one drawn defect: a field replaced, a
    row added, or the whole file replaced by garbage."""
    rows = [list(row) for row in rows]
    kind = draw(st.sampled_from(["field", "field", "field", "row", "file"]))
    if kind == "file":
        return draw(GARBAGE)
    if kind == "row":
        rows.insert(draw(st.integers(1, len(rows))), draw(st.lists(FIELDS, max_size=20)))
    else:
        r = draw(st.integers(0, len(rows) - 1))
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(FIELDS)
    return csv_bytes(rows)


@pytest.fixture(scope="module")
def track_rows():
    track = dataset.generate_track(Rng(3), default_oracle(), "fz")
    table = np.hstack([track.inputs, track.surge]).tolist()
    return [list(dataset.CSV_COLUMNS)] + [[repr(v) for v in row] for row in table]


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "good.json"
    save_checkpoint(init_network(Architecture(6, (4,), N_STATIONS), Rng(1)),
                    Normalizer(Rng(2).normal(size=6), Rng(3).uniform(0.5, 1.0, 6),
                               [False] * 6),
                    CheckpointMeta(1, 1, 0.5), path)
    return path.read_text()


class TestLoaders:
    @SETTINGS
    @given(data=st.data())
    def test_track_csv(self, track_rows, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("track") / "fz.csv"
        path.write_bytes(data.draw(damaged_csv(track_rows)))
        assert_named_once(refusal(load_track_csv, path, path.name), path.name)

    @SETTINGS
    @given(data=st.data())
    def test_input_series(self, tmp_path_factory, data):
        rows = [list(INPUT_COLUMNS), ["1.0", "-76.5", "33.0", "40", "30", "5"],
                ["0.0", "-76.6", "33.5", "40", "31", "5"]]
        path = tmp_path_factory.mktemp("inputs") / "fz_in.csv"
        path.write_bytes(data.draw(damaged_csv(rows)))
        assert_named_once(refusal(read_input_series, path, path.name), path.name)

    @SETTINGS
    @given(data=st.data())
    def test_manifest(self, tmp_path_factory, data):
        rows = [["track_id", "file", "split"], ["track_0001", "track_0001.csv", "train"],
                ["track_0002", "sub/track_0002.csv", "val"],
                ["track_0003", "track_0003.csv", "test"]]
        path = tmp_path_factory.mktemp("manifest") / MANIFEST_NAME
        path.write_bytes(data.draw(damaged_csv(rows)))
        assert_named_once(refusal(read_manifest, path, path.name), path.name)

    @SETTINGS
    @given(data=st.data())
    def test_checkpoint(self, checkpoint_text, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "fz.json"
        if data.draw(st.booleans()):
            path.write_bytes(data.draw(GARBAGE))
        else:
            # One value anywhere in the tree becomes a drawn JSON token, written
            # raw, as json.dumps cannot write an integer past 4300 digits.
            node = payload = json.loads(checkpoint_text)
            key = data.draw(st.sampled_from(sorted(payload)))
            while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                key = data.draw(st.sampled_from(
                    sorted(node) if isinstance(node, dict) else range(len(node))))
            node[key] = "@FUZZ@"
            token = data.draw(st.one_of(FIELDS.map(json.dumps), DIGITS, DIGITS.map("-".__add__),
                                        st.sampled_from(["1e999", "null", "true", "[]", "{}",
                                                         "[" * 5000, "0.5"])))
            path.write_text(json.dumps(payload).replace('"@FUZZ@"', token))
        assert_named_once(refusal(load_checkpoint, path, path.name), path.name)

    @SETTINGS
    @given(data=st.data())
    def test_config(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("config") / "fz.yaml"
        if data.draw(st.booleans()):
            path.write_bytes(data.draw(GARBAGE))
        else:
            key = data.draw(st.one_of(
                st.sampled_from(["epochs", "hidden", "activation", "split", "window_days",
                                 "learning_rate", "n_tracks", "oracle"]),
                st.text(min_size=1, max_size=60).map(json.dumps)))
            value = data.draw(FIELDS)
            quoted = data.draw(st.booleans())
            path.write_text(f"{key}: {json.dumps(value) if quoted else value}\n")

        def load(path):
            return cli.RunConfig(**cli.load_config_file(path))

        refusal(load, path, path.name)


def long_field_case(kind, tmp_path):
    """A command line whose loader meets a 5000-character field, and the
    output it must not write."""
    corpus, model = tmp_path / "corpus", tmp_path / "model.json"
    dataset.generate_corpus(12, 404, default_oracle(), corpus)
    save_checkpoint(init_network(Architecture(6, (4,), N_STATIONS), Rng(1)),
                    Normalizer([0.0] * 6, [1.0] * 6, [False] * 6),
                    CheckpointMeta(1, 1, 0.5), model)
    test_file = next(file for _, file, split in read_manifest(corpus / MANIFEST_NAME)
                     if split == "test")
    long = "9" * 4999 + "x"
    out = tmp_path / "out"
    evaluate = ["evaluate", "--corpus", str(corpus), "--checkpoint", str(model),
                "--out", str(out)]
    predict = ["predict", "--checkpoint", str(model), "--track", str(corpus / test_file),
               "--out", str(out)]
    if kind in ("track", "input", "manifest"):
        path = corpus / (MANIFEST_NAME if kind == "manifest" else test_file)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        rows[1][0] = long
        path.write_bytes(csv_bytes(rows))
        return (predict if kind == "input" else evaluate), out
    if kind == "checkpoint":
        model.write_text(model.read_text().replace('"input_dim": 6', f'"input_dim": {long[:400]}'))
        return predict, out
    (tmp_path / "cfg.yaml").write_text(f"oracle:\n  decay_km: {long[:-1]}\n")  # int() refuses it
    return ["generate", "--config", str(tmp_path / "cfg.yaml"), "--out", str(out)], out


@pytest.mark.parametrize("kind", ["track", "input", "manifest", "checkpoint", "config"])
def test_cli_refuses_a_long_field_in_one_line(kind, tmp_path, capsys):
    argv, out = long_field_case(kind, tmp_path)
    code = cli.main(argv)
    stderr = capsys.readouterr().err
    assert code == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert not out.exists()


@SETTINGS
@given(flag=st.sampled_from(["--epochs", "--lr", "--window"]),
       text=st.one_of(st.text(), FIELDS))
def test_any_number_flag_text_gives_one_short_line(tmp_path_factory, flag, text):
    # The text goes after "=", so one that starts with "-" is not read as an
    # option. Whatever it holds, the run ends at RunConfig's check or at the
    # missing corpus or checkpoint: no usage block and no traceback.
    missing = tmp_path_factory.mktemp("flag") / "none"
    argv = (["evaluate", "--checkpoint", str(missing / "m.json")] if flag == "--window"
            else ["train"])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, f"{flag}={text}", "--corpus", str(missing)])
    assert (code, stdout.getvalue()) == (1, "")
    message = stderr.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1, message
    assert len(message) <= LINE + 1, message  # the line and its newline
