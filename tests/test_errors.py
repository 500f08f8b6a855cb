"""The package's error contract, checked on its source.

Every error the package raises is a SurgenetError, except OSError and its
subclasses, which name the path they failed on. cli.main turns exactly those
two into one "error: ..." line and exit status 1, so a raise of any other
builtin exception would surface as a traceback.
"""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

from surgenet import cli, errors
from surgenet.errors import SurgenetError

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
