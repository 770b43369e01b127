"""Lint steps: every name a package module imports must be used in it, every
function parameter other than self or cls must be read in its body, every
exception class derives from one of the three roots in robophoto.errors, and
no module but errors.py decides by hand what counts as a number.

An import line marked ``# noqa: F401`` is a deliberate re-export and is
skipped, as flake8 and ruff would skip it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "robophoto"


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.end_lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = _imported_names(tree, source.splitlines())
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _unused_parameters(tree: ast.Module) -> list[str]:
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [
            f"{node.name}({p.arg}) (line {node.lineno})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    unused = _unused_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} has parameters its functions never read: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_exceptions_derive_from_a_root(path):
    from robophoto.errors import DatasetError, TrainingDivergedError, UsageError

    module = importlib.import_module(f"robophoto.{path.stem}")
    strays = [
        name
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException)
        and cls.__module__ == module.__name__
        and not issubclass(cls, (UsageError, DatasetError, TrainingDivergedError))
    ]
    assert not strays, f"{path.name} defines exceptions outside the three roots: {strays}"


def test_cli_has_no_value_error_catch_all():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    caught = [
        ast.unparse(node.type)
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    assert not [c for c in caught if "ValueError" in c], f"cli.py catches ValueError: {caught}"


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_no_hand_written_number_check(path):
    """A tuple naming both int and float, other than the parameters of a type
    such as tuple[int, float], marks a hand-written number check;
    errors.checked_number is the one rule for a number read from input."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    type_parameters = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    tuples = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and id(node) not in type_parameters
        and {"int", "float"} <= {e.id for e in node.elts if isinstance(e, ast.Name)}
    ]
    assert not tuples, f"{path.name} checks numbers by hand, use errors.checked_number: {', '.join(tuples)}"
