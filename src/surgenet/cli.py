"""Command-line pipeline: corpus generation, training, evaluation, and
single-track prediction.

Settings come from built-in defaults, then an optional YAML config file,
then flags, each layer overriding the previous one. Every run is
deterministic for a given seed.
"""

import argparse
import csv
import dataclasses
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import dataset, evaluation, training
from .dataset import OracleParams, default_oracle
from .errors import ConfigError, SurgenetError
from .network import ACTIVATIONS, Architecture, forward_batch, load_checkpoint, save_checkpoint
from .training import DEFAULT_SEED, TrainConfig

_TC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}

SPLIT_CHOICES = (*dataset.SPLIT_LABELS, "all")


@dataclass
class RunConfig:
    """One flat bag of settings shared by all subcommands."""

    seed: int = DEFAULT_SEED
    corpus_dir: str = "corpus"
    checkpoint: str = "out/checkpoint.json"
    report_dir: str = "reports"
    prediction: str = "prediction.csv"
    track: str | None = None
    n_tracks: int = 324
    hidden: tuple = (32, 64)
    activation: str = "tanh"
    epochs: int = 15000
    batch_tracks: int = _TC_DEFAULTS["batch_tracks"]
    learning_rate: float = _TC_DEFAULTS["learning_rate"]
    lr_decay: float = _TC_DEFAULTS["lr_decay"]
    adam_beta1: float = _TC_DEFAULTS["adam_beta1"]
    adam_beta2: float = _TC_DEFAULTS["adam_beta2"]
    adam_eps: float = _TC_DEFAULTS["adam_eps"]
    workers: int = _TC_DEFAULTS["workers"]
    validation_every: int = _TC_DEFAULTS["validation_every"]
    split: str = "test"
    window_days: float = 0.5
    oracle: OracleParams = field(default_factory=default_oracle)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        if self.split not in SPLIT_CHOICES:
            raise ConfigError(f"split must be one of {SPLIT_CHOICES}, got {self.split!r}")
        if not 0 < self.window_days <= 1:
            raise ConfigError(f"window_days must be in (0, 1], got {self.window_days}")
        if self.n_tracks < 1:
            raise ConfigError(f"n_tracks must be >= 1, got {self.n_tracks}")
        try:
            self.hidden = _parse_hidden(self.hidden)
        except ValueError as exc:  # int() of a non-integer, or Architecture's ConfigError
            raise ConfigError(f"hidden: {exc}") from None

    def train_config(self) -> TrainConfig:
        arch = Architecture(
            input_dim=len(dataset.INPUT_COLUMNS),
            hidden_sizes=self.hidden,
            output_dim=dataset.N_STATIONS,
            activation=self.activation,
        )
        settings = {f.name: getattr(self, f.name)
                    for f in dataclasses.fields(TrainConfig) if f.name != "arch"}
        return TrainConfig(arch=arch, **settings)


# What a setting may hold beyond its annotated type: any number where a float
# is expected, and a "32,64" string or a bare int for the hidden sizes.
_ALSO_ACCEPTED = {float: (int,), tuple: (str, int, list)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               str | None: "a string or null", tuple: "a list of layer sizes"}


def _check_type(name: str, value, kind) -> None:
    """Raise ConfigError unless value fits the field's annotation."""
    accepted = (kind, *_ALSO_ACCEPTED.get(kind, ()))
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = _TYPE_NAMES.get(kind, getattr(kind, "__name__", str(kind)))
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    if isinstance(value, str) and "\0" in value:  # no file path can hold one
        raise ConfigError(f"{name} must not hold a NUL character, got {value!r}")


def _parse_hidden(value) -> tuple:
    """Accept "32,64", a single int, or a sequence of sizes that Architecture
    accepts (1-2 positive integers)."""
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        value = [int(p) for p in parts]
    elif isinstance(value, int):
        value = [value]
    return Architecture(len(dataset.INPUT_COLUMNS), value, dataset.N_STATIONS).hidden_sizes


_ORACLE_KEYS = {f.name for f in dataclasses.fields(OracleParams)}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _build_oracle(raw) -> OracleParams:
    if not isinstance(raw, dict):
        raise ConfigError(f"oracle must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _ORACLE_KEYS, key=str)
    if unknown:
        raise ConfigError(f"unknown oracle keys: {unknown}")
    try:
        return dataclasses.replace(default_oracle(), **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid oracle settings: {exc}") from None


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads exponent floats without a dot, such as 1e-3,
    as floats (YAML 1.2 core schema); YAML 1.1 would read them as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_config_file(path) -> dict:
    """Parse a YAML config file, rejecting unknown keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 text ({exc.reason})") from None
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except (yaml.YAMLError, RecursionError) as exc:  # nesting deeper than the stack
        raise ConfigError(f"unparsable config {path}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    unknown = sorted(set(raw) - _CONFIG_KEYS, key=str)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "oracle" in raw:
        raw["oracle"] = _build_oracle(raw["oracle"])
    return raw


# --out means "this subcommand's primary output path".
_OUT_DEST = {
    "generate": "corpus_dir",
    "train": "checkpoint",
    "evaluate": "report_dir",
    "predict": "prediction",
}


def build_config(args: argparse.Namespace) -> RunConfig:
    _check_type("config", args.config, str | None)
    settings = load_config_file(args.config) if args.config else {}
    # A flag overrides the RunConfig field its destination names.
    for dest, value in vars(args).items():
        if dest in _CONFIG_KEYS and value is not None:
            settings[dest] = value
    if getattr(args, "out", None) is not None:
        settings[_OUT_DEST[args.command]] = args.out
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
    if out.parent != Path(""):
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
    min_r = min(m.r for m in result.metrics)
    print(f"split {cfg.split}: {len(tracks)} tracks, mean mse {mean_mse:.6f}, "
          f"min r {min_r:.4f}")
    print(f"wrote {metrics_path} and {series_path}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    """Predict station surge for one storm track CSV (inputs only needed)."""
    if not cfg.track:
        raise ConfigError("predict needs --track (or the 'track' config key)")
    ckpt = load_checkpoint(cfg.checkpoint)
    raw = dataset.read_input_series(cfg.track)
    inputs = dataset.interpolate_to_grid(raw, f"{Path(cfg.track).name}: ")
    preds, _ = forward_batch(ckpt.net, ckpt.normalizer.apply(inputs))
    out = Path(cfg.prediction)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with dataset.atomic_write(out) as fh:
        csv.writer(fh).writerow(("tau_days", *dataset.SURGE_COLUMNS))
        fh.write(dataset.format_rows(np.hstack([inputs[:, :1], preds]), 17))
    print(f"wrote {out} ({len(preds)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgenet",
        description="Storm-surge surrogate: generate data, train, evaluate, predict.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--config", help="YAML config file; flags override it")
        p.add_argument("--seed", type=int, help=f"base seed (default {DEFAULT_SEED})")
        p.add_argument("--out", help="primary output path of this subcommand")

    gen = sub.add_parser("generate", help="write a synthetic storm corpus")
    add_shared(gen)
    gen.add_argument("--n-tracks", dest="n_tracks", type=int,
                     help="number of storms (default 324)")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a network on a corpus")
    add_shared(tr)
    tr.add_argument("--corpus", dest="corpus_dir", help="corpus directory")
    tr.add_argument("--hidden", help='hidden sizes, e.g. "32,64" or "60"')
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-tracks", dest="batch_tracks", type=int)
    tr.add_argument("--lr", dest="learning_rate", type=float)
    tr.add_argument("--lr-decay", dest="lr_decay", type=float)
    tr.add_argument("--workers", type=int)
    tr.add_argument("--activation", choices=sorted(ACTIVATIONS))
    tr.add_argument("--validation-every", dest="validation_every", type=int)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a checkpoint and write reports")
    add_shared(ev)
    ev.add_argument("--corpus", dest="corpus_dir", help="corpus directory")
    ev.add_argument("--checkpoint", help="checkpoint to evaluate")
    ev.add_argument("--split", choices=SPLIT_CHOICES)
    ev.add_argument("--window", dest="window_days", type=float,
                    help="landfall half-width in days (default 0.5)")
    ev.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("predict", help="predict surge for one track CSV")
    add_shared(pr)
    pr.add_argument("--checkpoint", help="checkpoint to apply")
    pr.add_argument("--track", help="input CSV with the six input columns")
    pr.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(build_config(args))
    except (SurgenetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
