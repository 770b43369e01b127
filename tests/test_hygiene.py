"""Lint steps: every name a package module imports must be used in it, every
function parameter other than self or cls must be read in its body, every
exception class derives from one of the three roots in robophoto.errors, no
module but errors.py decides by hand what counts as a number or parses JSON,
cli.main alone writes run configs, prints summaries and returns EXIT_OK,
tinynet alone lays out network stacks,
every public top-level name in the package has a reader outside tests/,
every name the benchmark's tracer wraps still resolves in the package, and the
package imports nothing but itself, numpy and the standard library.

An import line marked ``# noqa: F401`` is a deliberate re-export and is
skipped, as flake8 and ruff would skip it.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "robophoto"


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


def test_cli_main_is_the_one_driver():
    """cli.main writes every run config, prints every summary and returns EXIT_OK; a
    cmd_* handler loads its inputs, calls library code, writes its artifacts and returns."""
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def calls(function, name):
        return [
            f"{function.name} (line {node.lineno})"
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        ]

    config_writes = [site for f in functions for site in calls(f, "_write_run_config")]
    assert len(config_writes) == 1 and config_writes[0].startswith("main "), (
        f"_write_run_config must have one call site, in main: {config_writes}"
    )
    handlers = [f for f in functions if f.name.startswith("cmd_")]
    assert handlers
    printing = [site for f in handlers for site in calls(f, "print")]
    assert not printing, f"handlers print, main prints their summary: {', '.join(printing)}"
    exit_ok = [
        f"{f.name} (line {node.lineno})"
        for f in handlers
        for node in ast.walk(f)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name) and node.value.id == "EXIT_OK"
    ]
    assert not exit_ok, f"handlers return EXIT_OK, main does: {', '.join(exit_ok)}"


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "tinynet.py"), ids=lambda p: p.name
)
def test_only_tinynet_lays_out_networks(path):
    """tinynet.build_network is the one network stack: no other module names build_model
    or conv_output_shape, so none chains layers or walks conv shapes by hand."""
    named = _names_read(ast.parse(path.read_text(encoding="utf-8"))) & {"build_model", "conv_output_shape"}
    assert not named, f"{path.name} builds a network stack by hand, use tinynet.build_network: {sorted(named)}"


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_no_hand_written_number_check(path):
    """A tuple naming both int and float, other than the parameters of a type
    such as tuple[int, float], an is / is not comparison with int or float, and
    an isinstance call naming int or float each mark a hand-written number check;
    errors.checked_number and its row form checked_numbers are the one rule for
    a number read from input."""
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

    def names_a_number_type(node) -> bool:
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(e, ast.Name) and e.id in ("int", "float") for e in elts)

    identity_tests = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(names_a_number_type(operand) for operand in (node.left, *node.comparators))
    ]
    assert not identity_tests, (
        f"{path.name} tests a number's type with is, use errors.checked_number: {', '.join(identity_tests)}"
    )
    isinstance_calls = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and names_a_number_type(node.args[1])
    ]
    assert not isinstance_calls, (
        f"{path.name} tests a number's type with isinstance, use errors.checked_number: {', '.join(isinstance_calls)}"
    )


# json.loads, json.load, json.JSONDecoder and its raw_decode each parse JSON by hand
_JSON_READERS = {"loads", "load", "JSONDecoder", "raw_decode"}


def _reads_json(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(alias.name in _JSON_READERS for alias in node.names)
    if isinstance(node, ast.Attribute):
        on_json = isinstance(node.value, ast.Name) and node.value.id == "json"
        return node.attr in _JSON_READERS and (on_json or node.attr == "raw_decode")
    return False


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_no_hand_written_json_reader(path):
    """errors.parsed_json is the one rule for JSON read from input."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"line {node.lineno}" for node in ast.walk(tree) if _reads_json(node)]
    assert not found, f"{path.name} reads JSON by hand, use errors.parsed_json: {', '.join(found)}"


RECORD_TYPES = ("BoundingBox", "FaceFeatures", "FaceObservation", "PictureRecord")


def test_record_types_check_nothing():
    """The record types in core.py are plain values: validate_dataset is the one check
    of every record rule, and Dataset(records=...) packs records through it."""
    tree = ast.parse((PACKAGE_DIR / "core.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    assert set(RECORD_TYPES) <= classes.keys()
    checks = [
        f"{name}.{node.name} (line {node.lineno})"
        for name in RECORD_TYPES
        for node in classes[name].body
        if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__post_init__")
    ]
    assert not checks, f"record types must not check or convert their fields: {', '.join(checks)}"


def _public_definitions(tree: ast.Module) -> list[str]:
    """Each public top-level def, class and assignment target in a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads: as a name, an attribute, an import or a
    string (perfbench names the functions it wraps as strings, some dotted)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_every_public_name_has_a_reader_outside_tests():
    """A public name that only tests read is a test oracle: it belongs in tests/oracles.py."""
    readers = [
        path
        for directory in ("src", "scripts", "perfbench")
        for path in sorted((REPO_DIR / directory).rglob("*.py"))
        if "tests" not in path.relative_to(REPO_DIR).parts
    ]
    read = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8"))) for path in readers))
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert not unread, f"public names no module outside tests/ reads: {', '.join(unread)}"


def _benchmark_constant(tree: ast.Module, name: str):
    """The literal value of one module-level constant of perfbench/spans.py."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {name}")


def test_benchmark_targets_resolve():
    """perfbench/spans.py, read with ast and not imported, wraps each TARGETS name with
    getattr (a method through its class's own __dict__) and each CLI_COMMANDS handler
    as cli.cmd_<command>; a name that is gone makes every traced run raise AttributeError."""
    tree = ast.parse((REPO_DIR / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    wrapped = [(module, name) for module, names in _benchmark_constant(tree, "TARGETS").items() for name in names]
    wrapped += [("cli", "cmd_" + command.replace("-", "_")) for command in _benchmark_constant(tree, "CLI_COMMANDS")]
    missing = []
    for module_name, name in wrapped:
        owner = importlib.import_module(f"robophoto.{module_name}")
        *classes, attr = name.split(".")
        for cls_name in classes:
            owner = vars(owner).get(cls_name)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module_name}.{name}")
    assert not missing, f"names the benchmark wraps that no longer resolve: {', '.join(missing)}"


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_package_depends_only_on_numpy_and_the_standard_library(path):
    """numpy is the package's one dependency (pyproject.toml): scipy, hypothesis and the
    rest of the test extras stay out of src/, however the import is written."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [
        (name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and not node.level)  # level: relative
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module])
    ]
    foreign = [
        f"{name} (line {line})"
        for name, line in modules
        if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}
    ]
    assert not foreign, f"{path.name} imports what is neither numpy nor the standard library: {', '.join(foreign)}"
