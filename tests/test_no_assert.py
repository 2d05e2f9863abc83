"""Static checks over the package source.

Invariants raise exceptions, so they survive ``python -O``; the per-element
distance envelope stays private to ``metric.py``; and the brute-force oracle
takes nothing from the metric it cross-checks beyond its value types.
"""

import ast
from pathlib import Path

import rayspace

SOURCES = sorted(Path(rayspace.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.name for a in node.names] + [a.asname for a in node.names if a.asname]
    return []


def test_distance_envelope_is_private_to_metric():
    found = [
        f"{name}:{node.lineno} {ident}"
        for name, tree in TREES.items()
        if name != "metric.py"
        for node in ast.walk(tree)
        for ident in _names(node)
        if ident in ("distance_profile", "DistanceProfile")
    ]
    assert found == []


def _metric_imports(tree: ast.AST) -> list[str]:
    """Every name a module takes from ``rayspace.metric``, or the module itself."""
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("rayspace.")
            if module == "metric":
                taken += [a.name for a in node.names]
            elif module in ("", "rayspace"):
                taken += [f"module {a.name}" for a in node.names if a.name == "metric"]
        elif isinstance(node, ast.Import):
            taken += [f"module {a.name}" for a in node.names if a.name == "rayspace.metric"]
    return taken


def test_oracle_takes_only_value_types_from_metric():
    for name in ("oracle.py", "_kernels.py"):
        extra = set(_metric_imports(TREES[name])) - {"INF", "ExtendedDistance"}
        assert not extra, f"{name} imports {sorted(extra)} from metric"
