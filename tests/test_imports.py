"""Rules checked on the package's source, so that no linter is needed:
every name a module imports is used in that module, and every message cuts
the values it echoes, a foreign exception's message included."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "surgenet").glob("*.py"))


def imported_names(tree):
    """The name each import statement binds: `import a.b` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def uncut_echoes(tree):
    """The source of each value an f-string formats with !r and no format
    spec, leaving out float(...) calls, whose repr is short."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                and node.format_spec is None
                and not (isinstance(node.value, ast.Call)
                         and isinstance(node.value.func, ast.Name)
                         and node.value.func.id == "float")):
            yield ast.unparse(node.value)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_echoed_value_is_cut(path):
    # A value from a file or a setting can be any length; a message shows at
    # most 40 characters of it, as errors.check_value does.
    assert list(uncut_echoes(ast.parse(path.read_text()))) == []


def test_the_echo_rule_sees_an_uncut_value():
    tree = ast.parse('f"{a!r} {b!r:.40} {float(c)!r} {d!s} {e}"')
    assert list(uncut_echoes(tree)) == ["a"]


OWN_ERRORS = {node.name
              for node in ast.walk(ast.parse((SOURCES[0].parent / "errors.py").read_text()))
              if isinstance(node, ast.ClassDef)}


def uncut_foreign_errors(tree):
    """The message of each raise in an except clause that catches a class
    errors.py does not define and formats the caught exception with no
    format spec: a message from numpy, csv or yaml can be any length."""
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if all(isinstance(c, ast.Name) and c.id in OWN_ERRORS for c in caught):
            continue
        for raise_ in ast.walk(handler):
            if isinstance(raise_, ast.Raise) and raise_.exc is not None and any(
                    isinstance(node, ast.FormattedValue) and node.format_spec is None
                    and isinstance(node.value, ast.Name) and node.value.id == handler.name
                    for node in ast.walk(raise_.exc)):
                yield ast.unparse(raise_.exc)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_foreign_error_message_is_cut(path):
    # As cli does with {exc!s:.80}; the package's own errors are cut where raised.
    assert list(uncut_foreign_errors(ast.parse(path.read_text()))) == []


def test_the_foreign_error_rule_sees_an_uncut_message():
    tree = ast.parse("""
try:
    pass
except ValueError as exc:
    raise E(f"a {exc}")
except (ConfigError, csv.Error) as exc:
    raise E(f"b {exc}")
except ConfigError as exc:
    raise E(f"c {exc}")
except OSError as exc:
    raise E(f"d {exc!s:.80} {exc.reason}")
""")
    assert list(uncut_foreign_errors(tree)) == ["E(f'a {exc}')", "E(f'b {exc}')"]
