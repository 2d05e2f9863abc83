"""Invariants in the package raise exceptions, so they survive ``python -O``."""

import ast
from pathlib import Path

import rayspace

SOURCES = sorted(Path(rayspace.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
