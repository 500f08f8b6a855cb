"""Rules checked on the package's source, so that no linter is needed:
every name a module imports is used in that module, every name a module
binds is used somewhere, and every message cuts the values it echoes, a
foreign exception's message, a caller's argument and an array's shape
included, and one function builds every DatasetSplit."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "surgenet").glob("*.py"))


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


def uncut_argument_echoes(tree):
    """"function: source" of each value a raise's f-string formats with no
    conversion and no format spec, where the value is one of that function's
    parameters or an attribute of one: a caller's value can be any length."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
        for raise_ in ast.walk(func):
            if not isinstance(raise_, ast.Raise) or raise_.exc is None:
                continue
            for node in ast.walk(raise_.exc):
                if (isinstance(node, ast.FormattedValue) and node.conversion == -1
                        and node.format_spec is None):
                    root = node.value
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id in params:
                        yield f"{func.name}: {ast.unparse(node.value)}"


# The argument echoes left uncut, each with why it cannot be long.
BOUNDED_ECHOES = {
    "check_value: name": "a field name, or a name such as hidden_sizes[0], that the code chooses",
    "check_value: choices": "the tuple a field's metadata declares",
    "forward_batch: net.arch.input_dim": "Architecture holds it to at most 1024",
    "_dataclass: key": "arch or meta, the checkpoint block the reader names",
}


def test_every_echoed_argument_is_cut_or_bounded():
    found = {echo for path in SOURCES
             for echo in uncut_argument_echoes(ast.parse(path.read_text()))}
    assert found == set(BOUNDED_ECHOES)


def test_the_argument_echo_rule_sees_an_uncut_value():
    tree = ast.parse("""
def f(a, b, *c, d, **e):
    x = 1
    raise E(f"{a} {b.shape} {c!r} {d:.40} {e!s:.40} {x} {len(a)}")
""")
    assert list(uncut_argument_echoes(tree)) == ["f: a", "f: b.shape"]


def uncut_shapes(tree):
    """The source of each .shape a raise's f-string formats with no format
    spec: an array from a caller can have any number of dimensions."""
    for raise_ in ast.walk(tree):
        if isinstance(raise_, ast.Raise) and raise_.exc is not None:
            for node in ast.walk(raise_.exc):
                if (isinstance(node, ast.FormattedValue) and node.format_spec is None
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "shape"):
                    yield ast.unparse(node.value)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_echoed_shape_is_cut(path):
    # forward_batch(net, np.zeros((1,) * 64)) once echoed a 64-entry shape.
    assert list(uncut_shapes(ast.parse(path.read_text()))) == []


def test_the_shape_rule_sees_an_uncut_shape():
    tree = ast.parse("""
def f(a):
    x = a
    message = f"{x.shape}"
    raise E(f"{x.shape} {a.b.shape!r} {x.shape!s:.40} {x.shape[0]} {len(x.shape)}")
""")
    assert list(uncut_shapes(tree)) == ["x.shape", "a.b.shape"]


def bound_names(tree):
    """Each name a module binds at its top level, but not by an import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def referenced_names(tree):
    """Each name the module reads, as a name, an attribute, an imported name
    or a string (a benchmark wraps functions it names by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_bound_name_is_used():
    referenced = {name for folder in ("src", "tests", "benchmark")
                  for path in (ROOT / folder).rglob("*.py")
                  for name in referenced_names(ast.parse(path.read_text()))}
    unused = [f"{path.name}: {name}" for path in SOURCES
              for name in bound_names(ast.parse(path.read_text())) if name not in referenced]
    assert unused == []


def test_the_bound_name_rule_sees_an_unused_name():
    tree = ast.parse("A = 1\nB: int = A\nC, D = 2, 3\ndef f(): return 'D'\nclass K: pass")
    used = set(referenced_names(tree))
    assert [name for name in bound_names(tree) if name not in used] == ["B", "C", "f", "K"]


def defaults_every_call_passes(trees):
    """"function.parameter" of each default of a private function or method
    that every call of it in trees passes, by position or by keyword: a
    default that only callers outside the package use. A call that spreads
    *args or **kwargs is not counted as passing anything."""
    params, calls = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            for func in node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []:
                if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and func.name.startswith("_") and not func.name.endswith("__")):
                    a = func.args
                    # A method's calls do not pass self.
                    positional = [*a.posonlyargs, *a.args][isinstance(node, ast.ClassDef):]
                    defaulted = positional[len(positional) - len(a.defaults):]
                    kw_only = [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    params[func.name] = [(p.arg, positional.index(p) if p in positional else None)
                                         for p in (*defaulted, *kw_only)]
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    for name, defaults in params.items():
        for param, index in defaults:
            if calls.get(name) and all(
                    any(k.arg == param for k in call.keywords)
                    or (index is not None and index < len(call.args)
                        and not any(isinstance(arg, ast.Starred) for arg in call.args))
                    for call in calls[name]):
                yield f"{name}.{param}"


def test_every_default_is_left_out_by_some_call():
    # A default that every call in the package passes keeps a second path
    # that only tests reach; the parameter is then made required.
    assert list(defaults_every_call_passes(ast.parse(p.read_text()) for p in SOURCES)) == []


def test_the_default_rule_sees_a_default_every_call_passes():
    tree = ast.parse("""
def _f(a, b=1, *, c=2, d=3):
    pass
def _g(a, b=1):
    pass
def _h(a=1):
    pass
def k(a=1):
    pass
class C:
    def _m(self, a=1):
        pass
    def _n(self, a=1):
        pass
_f(0, 1, c=2)
_f(0, b=1, c=3)
_g(0)
_g(0, 1)
_g(*x)
k(1)
C()._m(1)
C()._n()
""")
    assert list(defaults_every_call_passes([tree])) == ["_f.b", "_f.c", "_m.a"]


def split_builders(tree):
    """The name of the function around each DatasetSplit(...) call, or ""
    for a call outside any function."""
    def visit(node, owner):
        if isinstance(node, ast.Call) and "DatasetSplit" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return list(visit(tree, ""))


def test_one_function_builds_a_split():
    # generate_corpus and load_corpus both return _partition's split, so the
    # library and the CLI see one corpus in one order.
    found = [f"{path.name}: {owner}" for path in SOURCES
             for owner in split_builders(ast.parse(path.read_text()))]
    assert found == ["dataset.py: _partition"]


def test_the_split_rule_sees_a_second_builder():
    tree = ast.parse("""
SPLIT = DatasetSplit((), (), ())
def _partition(parts):
    return DatasetSplit(*parts)
def f(tracks):
    def g():
        return dataset.DatasetSplit(tracks, (), ())
    return g, DatasetSplits(), split.DatasetSplit
""")
    assert split_builders(tree) == ["", "_partition", "g"]
