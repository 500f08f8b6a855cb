"""Command-line pipeline: corpus generation, training, evaluation, and
single-track prediction.

Settings come from built-in defaults, then an optional YAML config file,
then flags, each layer overriding the previous one. A run's bytes are fixed
by its seed and the numerics it runs on: the same numpy SIMD targets and
OpenBLAS core and thread count, for any number of workers (see numerics).
"""

import argparse
import csv
import dataclasses
import functools
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import dataset, evaluation, training
from .dataset import OracleParams, default_oracle
from .errors import ConfigError, SurgenetError, check_fields, check_value, named
from .network import Architecture, forward_batch, load_checkpoint, save_checkpoint
from .training import TrainConfig

# The settings RunConfig takes from TrainConfig, with their types, defaults and ranges.
_TRAINING_FIELDS = [f for f in dataclasses.fields(TrainConfig) if f.name != "arch"]
_ACTIVATION = next(f for f in dataclasses.fields(Architecture) if f.name == "activation")

SPLIT_CHOICES = (*dataset.SPLIT_LABELS, "all")


@dataclass
class _RunSettings:
    """The settings of RunConfig that TrainConfig does not hold."""

    corpus_dir: str = "corpus"
    checkpoint: str = "out/checkpoint.json"
    report_dir: str = "reports"
    prediction: str = "prediction.csv"
    track: str | None = None
    n_tracks: int = field(default=324, metadata=dict(at_least=1))
    hidden: tuple | str | int = (32, 64)  # also "32,64" or 60; __post_init__ parses it
    activation: str = field(default=_ACTIVATION.default, metadata=_ACTIVATION.metadata)
    split: str = field(default="test", metadata=dict(choices=SPLIT_CHOICES))
    window_days: float = field(default=0.5, metadata=dict(above=0, at_most=1))
    oracle: OracleParams = field(default_factory=default_oracle)

    def __post_init__(self):
        check_fields(self)
        try:
            self.hidden = _architecture(self.hidden, self.activation).hidden_sizes
        except ValueError as exc:  # int() of a non-integer, or Architecture's ConfigError
            raise ConfigError(f"hidden: {exc!s:.80}") from None  # int() echoes 200 characters

    def train_config(self) -> TrainConfig:
        return TrainConfig(arch=_architecture(self.hidden, self.activation),
                           **{f.name: getattr(self, f.name) for f in _TRAINING_FIELDS})


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=15000 if f.name == "epochs" else f.default,
                            metadata=f.metadata)) for f in _TRAINING_FIELDS],
    bases=(_RunSettings,),
    namespace={"__module__": __name__, "__doc__": "One flat bag of settings shared by all "
               "subcommands; the training ones are TrainConfig's, but epochs defaults to 15000."})


def _architecture(hidden, activation) -> Architecture:
    """The network from the track schema's inputs to its stations, with hidden
    sizes given as "32,64", a single int, or a sequence of sizes that
    Architecture accepts (1-2 positive integers)."""
    if isinstance(hidden, str):
        parts = [p.strip() for p in hidden.split(",") if p.strip()]
        hidden = [int(p) for p in parts]
    elif isinstance(hidden, int):
        hidden = [hidden]
    return Architecture(len(dataset.INPUT_COLUMNS), hidden, dataset.N_STATIONS, activation)


_ORACLE_KEYS = {f.name for f in dataclasses.fields(OracleParams)}
_CONFIG_KEYS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _build_oracle(raw) -> OracleParams:
    if not isinstance(raw, dict):
        raise ConfigError(f"oracle must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _ORACLE_KEYS, key=str)
    if unknown:
        raise ConfigError(f"unknown oracle keys: {unknown!r:.40}")
    with named("oracle"):
        return dataclasses.replace(default_oracle(), **raw)


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that reads numbers as the YAML 1.2 core schema does: an
    exponent float without a dot, such as 1e-3, is a float, and an integer
    is decimal, so 010 is 10; YAML 1.1 would read 1e-3 as text, 010 as octal
    8 and 1:30 as 90. A value no constructor can read is a ConstructorError
    that names its line and column."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep=deep)
        except (ValueError, KeyError, AttributeError):
            # KeyError for !!bool x, AttributeError for !!timestamp x, ValueError for 5000 digits
            kind = node.tag.rpartition(":")[2]
            raise yaml.constructor.ConstructorError(
                None, None, f"invalid {kind} {node.value!r:.40}", node.start_mark) from None

    def construct_decimal_int(self, node):
        """A decimal integer, "_" allowed; any other integer form (0x10,
        0o17, 0b11, 1:30) stays text, for check_value to refuse."""
        text = self.construct_scalar(node)
        return int(text.replace("_", "")) if re.fullmatch(r"[-+]?[0-9][0-9_]*", text) else text


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))
_ConfigLoader.add_constructor("tag:yaml.org,2002:int", _ConfigLoader.construct_decimal_int)
# What yaml.load raises for text it cannot read; RecursionError for deep nesting.
_UNREADABLE = (yaml.YAMLError, RecursionError)


def load_config_file(path) -> dict:
    """Parse a YAML config file, rejecting unknown keys. A refusal of the
    file's text starts with the file's name."""
    with named(Path(path).name):
        try:
            raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_ConfigLoader)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc.reason})") from None
        except _UNREADABLE as exc:
            mark = getattr(exc, "problem_mark", None)
            detail = (f"{exc.problem:.60} at line {mark.line + 1}, column {mark.column + 1}"
                      if mark and getattr(exc, "problem", None)
                      else str(exc).partition("\n")[0][:80])
            raise ConfigError(f"unparsable config: {detail}") from None
        if not isinstance(raw, dict | None):
            raise ConfigError("config must be a mapping at top level")
    if raw is None:
        return {}
    unknown = sorted(set(raw) - _CONFIG_KEYS.keys(), key=str)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown!r:.40}")
    if "oracle" in raw:
        raw["oracle"] = _build_oracle(raw["oracle"])
    return raw


def _flag_number(text: str):
    """A number flag's text, read as the config file reads a value; the text
    itself where YAML cannot read it or reads null, for RunConfig to refuse."""
    try:
        value = yaml.load(text, Loader=_ConfigLoader)
    except _UNREADABLE:
        return text
    return text if value is None else value


def build_config(args: argparse.Namespace) -> RunConfig:
    check_value("config", args.config, str | None)
    settings = load_config_file(args.config) if args.config else {}
    # A flag overrides the RunConfig field its destination names.
    for dest, value in vars(args).items():
        if dest in _CONFIG_KEYS and value is not None:
            number = _CONFIG_KEYS[dest].type in (int, float)
            settings[dest] = _flag_number(value) if number else value
    return RunConfig(**settings)


def cmd_generate(cfg: RunConfig) -> int:
    """Write a synthetic corpus (one CSV per track plus a manifest)."""
    split = dataset.generate_corpus(cfg.n_tracks, cfg.seed, cfg.oracle, cfg.corpus_dir)
    print(f"generated {cfg.n_tracks} tracks in {cfg.corpus_dir} "
          f"(train/val/test = {len(split.training)}/{len(split.validation)}"
          f"/{len(split.testing)}, seed {cfg.seed})")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Train on the corpus' training split and save the best checkpoint."""
    split = dataset.load_corpus(cfg.corpus_dir, ("train", "val"))
    tc = cfg.train_config()

    def report(row):
        val = "" if row.val_mse is None else f"  val_mse {row.val_mse:.6f}"
        print(f"epoch {row.epoch:>6}  lr {row.lr:.3e}  train_mse {row.train_mse:.6f}{val}")

    ckpt, history = training.train(tc, split, progress=report)
    out = Path(cfg.checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt.net, ckpt.normalizer, ckpt.meta, out)
    history_path = out.with_name(out.stem + "_history.csv")
    training.write_history(history, history_path)
    print(f"saved {out} (epoch {ckpt.meta.epochs_trained}, "
          f"train_mse {ckpt.meta.final_train_mse:.6f}) and {history_path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Score a checkpoint on one split and write the report CSVs."""
    ckpt = load_checkpoint(cfg.checkpoint)
    labels = dataset.SPLIT_LABELS if cfg.split == "all" else (cfg.split,)
    tracks = dataset.load_corpus(cfg.corpus_dir, labels).all_tracks()
    result = evaluation.evaluate_tracks(
        ckpt.net, ckpt.normalizer, tracks, cfg.split, window_days=cfg.window_days)
    metrics_path, series_path = evaluation.emit_report(result, cfg.report_dir)
    mean_mse = sum(m.mse for m in result.metrics) / len(result.metrics)
    # nan if any station's r is nan; min() would skip one unless it came first
    min_r = np.min([m.r for m in result.metrics])
    print(f"split {cfg.split}: {len(tracks)} tracks, mean mse {mean_mse:.6f}, "
          f"min r {min_r:.4f}")
    print(f"wrote {metrics_path} and {series_path}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    """Predict station surge for one storm track CSV (inputs only needed)."""
    if not cfg.track:
        raise ConfigError("predict needs --track (or the 'track' config key)")
    ckpt = load_checkpoint(cfg.checkpoint)
    inputs = dataset.read_input_series(cfg.track)
    preds, _ = forward_batch(ckpt.net, ckpt.normalizer.apply(inputs))
    out = Path(cfg.prediction)
    out.parent.mkdir(parents=True, exist_ok=True)
    with dataset.atomic_write(out) as fh:
        csv.writer(fh).writerow(("tau_days", *dataset.SURGE_COLUMNS))
        fh.write(dataset.format_rows(np.hstack([inputs[:, :1], preds]), 17))
    print(f"wrote {out} ({len(preds)} rows)")
    return 0


# Each subcommand's function, help and the RunConfig fields it takes as flags,
# besides --config and --seed: --out sets the first, and the rest are spelled
# "--" plus the name with "-" for "_", or as _FLAG_NAMES says.
_SUBCOMMANDS = {
    "generate": (cmd_generate, "write a synthetic storm corpus", ("corpus_dir", "n_tracks")),
    "train": (cmd_train, "train a network on a corpus",
              ("checkpoint", "corpus_dir", "hidden", "activation",
               *(f.name for f in _TRAINING_FIELDS if f.name != "seed"))),
    "evaluate": (cmd_evaluate, "score a checkpoint and write reports",
                 ("report_dir", "corpus_dir", "checkpoint", "split", "window_days")),
    "predict": (cmd_predict, "predict surge for one track CSV",
                ("prediction", "checkpoint", "track")),
}
_FLAG_NAMES = {"corpus_dir": "--corpus", "learning_rate": "--lr", "window_days": "--window"}
# What a flag sets, where its name does not say enough.
_FLAG_HELP = {"hidden": 'hidden sizes, e.g. "32,64" or "60"',
              "window_days": "landfall half-width in days",
              "track": "input CSV with the six input columns"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Each flag is a
    RunConfig field, with that field's name and default; its text is left to
    build_config, which reads a number as the config file does."""
    parser = argparse.ArgumentParser(
        prog="surgenet",
        description="Storm-surge surrogate: generate data, train, evaluate, predict.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, (out, *names)) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="YAML config file; flags override it")
        p.add_argument("--out", dest=out,
                       help=f"primary output path (default {_CONFIG_KEYS[out].default})")
        for f in (_CONFIG_KEYS[name] for name in ("seed", *names)):
            p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                           help=f"{_FLAG_HELP.get(f.name, '')} (default {f.default})".lstrip())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _SUBCOMMANDS[args.command][0]
    try:
        return command(build_config(args))
    except (SurgenetError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # the end of each path it names
            paths = (repr(str(p)[-40:]) for p in (exc.filename, exc.filename2) if p is not None)
            message = f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(paths)}"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
