"""The runtime imports nothing outside the standard library, each module
of the library, its tests and its scripts uses every name it imports or
re-exports it in ``__all__``, every private top-level definition of the
library is named somewhere else in it, every default parameter of the
library is both passed and left out somewhere, and every ``_remember``
call of the library names its function as its own module's or as
``module.attr``."""

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nscycles").glob("*.py"))
ALL_MODULES = SOURCES + [path for folder in ("tests", "scripts")
                         for path in sorted((ROOT / folder).glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported_names(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used - _exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def _references(tree) -> list:
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_private_definition_has_a_caller():
    # a private top-level function or class that nothing else in the
    # library names is a layer that lost its last caller
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    named = Counter(name for tree in trees.values() for name in _references(tree))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = _references(node).count(node.name)  # recursion
                if named[node.name] == own:
                    orphans.append(f"{module}:{node.name}")
    assert not orphans, f"private definitions nothing else names: {orphans}"


CALLERS = sorted(path for folder in ("src", "tests", "scripts", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def _defaulted_parameters(tree):
    """(function, parameter, its index among a call's positional arguments,
    or None for a keyword-only one) for each parameter with a default."""
    bound = set()  # methods, whose first parameter a call does not pass
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bound.update(f for f in node.body if isinstance(f, ast.FunctionDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i - (node in bound)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def test_every_default_parameter_is_passed_and_left_out():
    # a default no call leaves out is a required parameter in disguise, and
    # one no call passes is a dead option; calls are matched by name
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    unused = []
    for path in SOURCES:
        for name, param, index in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8"))):
            ways = set()
            for call in calls[name]:
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    ways |= {True, False}  # *args or **kwargs may do either
                else:
                    ways.add(any(k.arg == param for k in call.keywords)
                             or (index is not None and len(call.args) > index))
            if ways != {True, False}:
                unused.append(f"{path.name}:{name}({param})")
    assert not unused, f"defaults never passed or never left out: {unused}"


def test_remember_names_no_imported_function():
    # _remember stores under fn.__wrapped__: a name imported from another
    # module may be rebound there to a tracer's wrapper, whose __wrapped__
    # is the memoizing wrapper, so the value would sit under a key the
    # memo never reads; a module's own function, or one read as
    # module.attr, is the memoized one
    checked = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", getattr(node.func, "attr", None)) == "_remember":
                fn = node.args[1]
                assert isinstance(fn, ast.Attribute) or isinstance(fn, ast.Name) and fn.id in own, \
                    f"{path.name}:{node.lineno} remembers {ast.unparse(fn)}"
                checked += 1
    assert checked > 5
