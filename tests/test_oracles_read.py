"""Checks that every reference in `tests/oracles.py` is read."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
ORACLES = TESTS / "oracles.py"


def _read_names(tree) -> set[str]:
    """Names a tree reads: bare names, attributes (`oracles.x`) and
    names imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _definitions(tree) -> dict[str, ast.AST]:
    """The top-level functions and classes of a module, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_every_oracle_is_read():
    # a reference that no test and no other reference reads checks nothing
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    defined = _definitions(tree)
    read = set()
    for path in TESTS.glob("*.py"):
        if path != ORACLES:
            read |= _read_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    for name, node in defined.items():
        read |= _read_names(node) - {name}
    unread = sorted(set(defined) - read)
    assert defined
    assert not unread, f"oracles.py defines names nothing reads: {unread}"
