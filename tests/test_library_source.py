"""Checks on the library's source text."""

import ast
import importlib
from pathlib import Path

import pytest

import gorenstein

MODULES = sorted(Path(gorenstein.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "polytope.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; invariants must raise real exceptions
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    if lines:
        pytest.fail(f"{path.name}: assert on lines {lines}")


def _module_imports(tree):
    """Names bound by the module-level imports, `from __future__` aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = {
        name: line for name, line in _module_imports(tree).items() if name not in used
    }
    if unused:
        pytest.fail(f"{path.name}: unused imports {unused}")


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal_tables(path, names):
    """The module-level literals assigned to these names in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }


def _library_attribute(module, attr):
    if module == "Multigraph":
        return getattr(gorenstein.Multigraph, attr, None)
    return getattr(importlib.import_module(f"gorenstein.{module}"), attr, None)


def _importable(module, name):
    """Whether `from module import name` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_hooks_name_library_functions():
    # the benchmark wraps these by name, so a deletion would otherwise
    # show only when it runs
    tables = _literal_tables(PERFBENCH / "spans.py", {"SPANNED", "COUNTED", "CACHED"})
    hooks = {**tables["SPANNED"], **tables["COUNTED"]}
    missing = [name for name, hook in hooks.items() if _library_attribute(*hook) is None]
    uncached = [
        name for name in tables["CACHED"] if not hasattr(_library_attribute(*hooks[name]), "cache_info")
    ]
    assert (missing, uncached) == ([], [])


def test_benchmark_imports_from_library_exist():
    missing = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "gorenstein"
        for alias in node.names
        if not _importable(node.module, alias.name)
    ]
    assert missing == []
