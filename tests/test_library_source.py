"""Checks on the library's source text."""

import ast
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
