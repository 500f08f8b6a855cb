"""The package's error contract, checked on its source.

Every error the package raises is a SurgenetError, except OSError and its
subclasses, which name the path they failed on. cli.main turns exactly those
two into one "error: ..." line and exit status 1, so a raise of any other
builtin exception would surface as a traceback.
"""

import ast
import builtins
import dataclasses
import inspect
import math
import re
import textwrap
from pathlib import Path

import pytest

from surgenet import cli, dataset, errors, training
from surgenet.dataset import DatasetSplit, OracleParams, default_oracle, generate_track
from surgenet.errors import ConfigError, SurgenetError
from surgenet.network import Architecture, CheckpointMeta
from surgenet.numerics import Rng
from surgenet.training import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "surgenet"
SOURCES = sorted(SRC.glob("*.py"))


def raised_names(tree):
    """(line, name) of each raise statement that names the class it raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_exception_raised_but_oserror(path):
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and not issubclass(obj, OSError)}
    offending = [f"{path.name}:{line}: raise {name}"
                 for line, name in raised_names(ast.parse(path.read_text()))
                 if name in builtin]
    assert not offending


def test_every_error_class_derives_from_the_root():
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert "SurgenetError" in classes and len(classes) > 1
    assert [name for name in classes if not issubclass(getattr(errors, name), SurgenetError)] == []


def test_main_catches_the_root_and_oserror_only():
    tree = ast.parse(inspect.getsource(cli.main))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    assert ast.unparse(handlers[0].type) == "(SurgenetError, OSError)"


@pytest.mark.parametrize("name,base", [
    ("DimensionMismatchError", ValueError), ("TrackValidationError", ValueError),
    ("ConfigError", ValueError), ("DomainError", ValueError),
    ("TrainingDivergedError", RuntimeError),
])
def test_builtin_bases_kept(name, base):
    assert issubclass(getattr(errors, name), base)


def test_named_cuts_a_long_prefix_to_40_characters():
    # A file's name can be 255 characters; the refusal stays one short line.
    with pytest.raises(ConfigError) as err, errors.named("x" * 255):
        raise ConfigError("bad")
    assert str(err.value) == "x" * 40 + ": bad"


# Each settings object with the arguments it needs besides the field under test.
SETTINGS = {
    TrainConfig: {"arch": Architecture(6, (4,), 10), "epochs": 10},
    OracleParams: {"stations": default_oracle().stations},
    cli.RunConfig: {},
    Architecture: {"input_dim": 6, "hidden_sizes": (4,), "output_dim": 10},
    CheckpointMeta: {"seed": 1, "epochs_trained": 1, "final_train_mse": 0.5},
}


@pytest.mark.parametrize("cls,name", [
    (cls, f.name) for cls in SETTINGS for f in dataclasses.fields(cls) if f.type in (int, float)
], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [True, math.nan, math.inf])
def test_every_number_setting_refuses_booleans_and_non_finite_values(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{**SETTINGS[cls], name: value})


@pytest.mark.parametrize("value,kind", [("x" * 400, int), ("x" * 400 + "\0", str)],
                         ids=["wrong type", "NUL"])
def test_a_refused_value_is_cut_to_40_characters(value, kind):
    with pytest.raises(ConfigError) as err:
        errors.check_value("name", value, kind)
    assert str(err.value).endswith(f"got {repr(value)[:40]}")


# (class, field, bound keyword) of every bound a settings field declares.
BOUND_KEYS = ("above", "at_least", "below", "at_most")
BOUNDS = [(cls, f, key) for cls in SETTINGS for f in dataclasses.fields(cls)
          for key in f.metadata if key in BOUND_KEYS]
# (class, field) of every settings field that declares its choices.
CHOICES = [(cls, f) for cls in SETTINGS for f in dataclasses.fields(cls)
           if "choices" in f.metadata]
INCLUSIVE = [(cls, f, key) for cls, f, key in BOUNDS if key in ("at_least", "at_most")]


def bound_id(value):
    return getattr(value, "__name__", getattr(value, "name", value))


def nearest_outside(f, key):
    """The value of f's type nearest its bound key that the bound refuses."""
    bound = f.metadata[key]
    if key in ("above", "below"):
        return f.type(bound)
    step = -1 if key == "at_least" else 1
    return bound + step if f.type is int else math.nextafter(bound, step * math.inf)


def test_each_field_declares_at_most_one_bound_per_side():
    assert {f.name for _, f, _ in INCLUSIVE} >= {"lr_decay", "adam_beta1", "validation_every"}
    for _, f, _ in BOUNDS:
        assert set(f.metadata) <= set(BOUND_KEYS)
        assert not {"above", "at_least"} <= set(f.metadata)
        assert not {"below", "at_most"} <= set(f.metadata)


@pytest.mark.parametrize("cls,f,key", BOUNDS, ids=bound_id)
def test_the_nearest_value_outside_a_bound_is_refused(cls, f, key):
    value = nearest_outside(f, key)
    with pytest.raises(ConfigError, match=f"^{f.name} must be .*, got {re.escape(repr(value))}$"):
        cls(**{**SETTINGS[cls], f.name: value})


@pytest.mark.parametrize("cls,f,key", INCLUSIVE, ids=bound_id)
def test_a_value_on_an_inclusive_bound_is_accepted(cls, f, key):
    value = f.type(f.metadata[key])
    assert getattr(cls(**{**SETTINGS[cls], f.name: value}), f.name) == value


@pytest.mark.parametrize("cls,f,key", BOUNDS, ids=bound_id)
def test_a_400_digit_value_outside_a_bound_is_cut(cls, f, key):
    value = int("9" * 400) * (-1 if key in ("above", "at_least") else 1)
    with pytest.raises(ConfigError, match=f"^{f.name} must be ") as err:
        cls(**{**SETTINGS[cls], f.name: value})
    assert str(err.value).endswith(f"got {repr(value)[:40]}")


def test_choices_are_declared_on_split_and_activation():
    assert {(cls.__name__, f.name) for cls, f in CHOICES} == {
        ("Architecture", "activation"), ("RunConfig", "activation"), ("RunConfig", "split")}
    for _, f in CHOICES:
        assert set(f.metadata) == {"choices"} and f.default in f.metadata["choices"]


@pytest.mark.parametrize("cls,f", CHOICES, ids=bound_id)
@pytest.mark.parametrize("value", ["bogus", "x" * 400])
def test_a_value_outside_the_choices_is_refused(cls, f, value):
    with pytest.raises(ConfigError) as err:
        cls(**{**SETTINGS[cls], f.name: value})
    assert str(err.value) == (
        f"{f.name} must be one of {f.metadata['choices']}, got {repr(value)[:40]}")


@pytest.mark.parametrize("cls,f", CHOICES, ids=bound_id)
def test_each_choice_is_accepted(cls, f):
    for value in f.metadata["choices"]:
        assert getattr(cls(**{**SETTINGS[cls], f.name: value}), f.name) == value


@pytest.mark.parametrize("bounds,value,expected", [
    ({"above": 0}, 0, "> 0"), ({"at_least": 1}, 0, ">= 1"), ({"below": 1}, 1, "< 1"),
    ({"at_most": 1}, 2, "<= 1"), ({"above": 0, "at_most": 1}, 2, "in (0, 1]"),
    ({"at_least": 0, "below": 1}, -1, "in [0, 1)"), ({"above": -1, "below": 1}, 1, "in (-1, 1)"),
])
def test_range_message_form(bounds, value, expected):
    with pytest.raises(ConfigError) as err:
        errors.check_value("x", value, int, **bounds)
    assert str(err.value) == f"x must be {expected}, got {value}"


def post_init_statements(cls):
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
    return [ast.unparse(statement) for statement in tree.body[0].body]


@pytest.mark.parametrize("cls", SETTINGS, ids=bound_id)
def test_each_settings_class_checks_its_fields_first(cls):
    assert post_init_statements(cls)[0] == "check_fields(self)"


def test_train_config_declares_all_of_its_ranges():
    assert post_init_statements(TrainConfig) == ["check_fields(self)"]


def one_track_split():
    return DatasetSplit((generate_track(Rng(1), default_oracle(), "t"),), (), ())


@pytest.mark.parametrize("call", [
    lambda tmp: dataset.generate_corpus(-int("9" * 400), 1, default_oracle(), tmp),
    lambda tmp: dataset.load_corpus(tmp, ["x" * 400]),
    lambda tmp: training.train(TrainConfig(Architecture(6, (4,), 10), 1,
                                           batch_tracks=int("9" * 400)), one_track_split()),
], ids=["generate_corpus n_tracks", "load_corpus labels", "train batch_tracks"])
def test_a_long_argument_gives_one_short_line(tmp_path, call):
    with pytest.raises(ConfigError) as err:
        call(tmp_path)
    assert "\n" not in str(err.value) and len(str(err.value)) <= 120
