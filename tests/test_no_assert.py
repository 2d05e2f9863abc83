"""Static checks over the package source.

Invariants raise exceptions, so they survive ``python -O``; the input gates
in ``graph.py`` are the one place that turns a single value into a
``Fraction`` or compares a set's or region's ``.graph``; only the
canonicalization in ``sets.py`` builds a ``ClosedSubset`` from raw fields,
and only its ``pieces`` view builds ``ElementPieces``, so a set's ints
become ``Fraction``s in one place;
the per-element distance envelope stays private to ``metric.py``, which never calls
``vertex_distance``, so it reads vertex rows as ints; the brute-force oracle
takes nothing from the metric it cross-checks beyond its value types, and
nothing from ``sets.py`` beyond ``ClosedSubset``, and never walks the full
product of its element layouts; neither the oracle nor its kernels name
``point_distance``, so the reference their tests compare against stays
outside them, and only the census's link table takes a point's costs to
every vertex, so the grid Hausdorff sweep stays seeded at end vertices; only
``graph.py`` reads an edge length's denominator, so the graph's scale is
worked out once; the Vietoris layer reads its regions' derived intervals,
never names ``point_distance`` and takes nothing from the metric beyond its
value types either, and it takes only ``HyperPath`` from ``paths.py`` and
never names its stages, their spans or pieces or a ``Motion``, so how stages
move and when they cross a given point stays in one module; stages are plain data,
with no callable field and no ``Callable`` in ``paths.py``, and a covering
walk is a plain tuple of legs; no module calls ``isinstance`` on ``Edge`` or
``Ray``, since ``graph.py``'s element table tells them apart; numpy stays
behind the oracle, which the package loads on the first use of one of its
names, as it does every module but the errors, the graph and the wedge
models, and the CLI only in the command that runs it, and the kernels build
only bool arrays but the label array, so no distance reaches numpy; no module imports ``dataclasses``, whose import and generated
methods would slow every CLI start;
``graph.count_classes`` is the package's one Python union-find; no function
carries a ``functools.cache`` or ``lru_cache`` decorator, so work is cached
only on the object it belongs to and goes away with it; and the wedge
models take nothing from the package but its errors, ``count_classes`` and
the ``record`` decorator, so checking them against ray-graphs compares
independent computations.
"""

import ast
from pathlib import Path

import numpy as np

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


def test_metric_never_calls_vertex_distance():
    # the metric reads vertex rows as ints and builds a Fraction only for its
    # answer; vertex_distance builds one on every call
    found = [
        f"metric.py:{node.lineno}"
        for node in ast.walk(TREES["metric.py"])
        if isinstance(node, ast.Call) and _names(node.func) == ["vertex_distance"]
    ]
    assert found == []


def test_only_canonicalization_builds_closed_subsets():
    canonicalize = next(
        node
        for node in ast.walk(TREES["sets.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_canonicalize"
    )
    allowed = {id(node) for node in ast.walk(canonicalize)}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ClosedSubset" in _names(node.func)
        and id(node) not in allowed
    ]
    assert found == []
    assert any(isinstance(node, ast.Call) and "ClosedSubset" in _names(node.func)
               for node in ast.walk(canonicalize))


def _owners(tree: ast.AST):
    """(name, node) of each function at module level and each method of a class there."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def test_only_the_pieces_view_builds_element_pieces():
    # a set keeps the canonical pass's ints; its Fraction pieces are built
    # when read, so the pass and the set operations never build them
    def builds(node):
        return isinstance(node, ast.Call) and "ElementPieces" in _names(node.func)

    found = [
        f"{name}:{owner}"
        for name, tree in TREES.items()
        for owner, fn in _owners(tree)
        for node in ast.walk(fn)
        if builds(node)
    ]
    assert set(found) == {"sets.py:ClosedSubset.pieces"}
    assert len(found) == sum(builds(node) for tree in TREES.values() for node in ast.walk(tree))


def _taken_from(tree: ast.AST, source: str) -> list[str]:
    """Every name a module takes from ``rayspace.<source>``, or the module itself."""
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("rayspace.")
            if module == source:
                taken += [a.name for a in node.names]
            elif module in ("", "rayspace"):
                taken += [f"module {a.name}" for a in node.names if a.name == source]
        elif isinstance(node, ast.Import):
            taken += [f"module {a.name}" for a in node.names if a.name == f"rayspace.{source}"]
    return taken


def _metric_imports(tree: ast.AST) -> list[str]:
    return _taken_from(tree, "metric")


def test_oracle_takes_only_value_types_from_metric():
    for name in ("oracle.py", "_kernels.py"):
        extra = set(_metric_imports(TREES[name])) - {"INF", "ExtendedDistance"}
        assert not extra, f"{name} imports {sorted(extra)} from metric"


def test_oracle_takes_only_closed_subset_from_sets():
    tree = TREES["oracle.py"]
    assert _taken_from(tree, "sets") == ["ClosedSubset"]
    names = {ident for node in ast.walk(tree) for ident in _names(node)}
    assert not names & {"in_cn", "component_count", "direction_set", "_grid_between"}
    # layouts are combined one element at a time, never as a full itertools.product
    assert "product" not in names


def test_oracle_and_kernels_never_name_point_distance():
    found = [
        f"{name}:{node.lineno}"
        for name in ("oracle.py", "_kernels.py")
        for node in ast.walk(TREES[name])
        if "point_distance" in _names(node)
    ]
    assert found == []


def test_only_the_link_table_takes_costs_per_point():
    # the grid Hausdorff reaches the vertices from seeds at its target's
    # element ends; a full row of costs per sample would undo that
    found = [
        f"{name}:{owner.name}"
        for name, tree in TREES.items()
        for owner in tree.body
        if isinstance(owner, ast.FunctionDef)
        for node in ast.walk(owner)
        if isinstance(node, ast.Call) and _names(node.func) == ["_vertex_costs"]
    ]
    assert found == ["_kernels.py:distance_matrix"]


def test_only_the_graph_reads_edge_length_denominators():
    # the graph's scale is the one lcm of its edge lengths' denominators, and
    # every vertex distance is an int over it
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "graph.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "denominator"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "length"
    ]
    assert found == []


def test_vietoris_takes_only_value_types_from_metric():
    tree = TREES["vietoris.py"]
    extra = set(_metric_imports(tree)) - {"INF", "ExtendedDistance"}
    assert not extra, f"vietoris.py imports {sorted(extra)} from metric"
    assert "dist_point_to_set" not in {ident for node in ast.walk(tree) for ident in _names(node)}


def test_vietoris_never_names_point_distance():
    found = [
        f"vietoris.py:{node.lineno}"
        for node in ast.walk(TREES["vietoris.py"])
        if "point_distance" in _names(node)
    ]
    assert found == []


def test_vietoris_takes_only_hyperpath_from_paths():
    tree = TREES["vietoris.py"]
    assert _taken_from(tree, "paths") == ["HyperPath"]
    helpers = {node.name for node in TREES["paths.py"].body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    named = {ident for node in ast.walk(tree) for ident in _names(node)}
    # it reads the path's critical times, never its stages or their spans
    assert not named & (helpers | {"motions", "Motion", "solve", "stage_spans", "stages"})
    # sets have pieces too: each ``.pieces`` it reads must be off a ClosedSubset argument
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "pieces"]
    off_sets = {
        id(n)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr == "pieces" and isinstance(n.value, ast.Name)
        and n.value.id in {a.arg for a in fn.args.args
                           if a.annotation and ast.unparse(a.annotation) == "ClosedSubset"}
    }
    assert reads and all(id(n) in off_sets for n in reads)


def test_stages_are_plain_data():
    tree = TREES["paths.py"]
    assert "Callable" not in {ident for node in ast.walk(tree) for ident in _names(node)}
    # a covering walk is its tuple of legs, with no class around it
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"Motion", "Stage", "HyperPath", "ClassifyResult"}
    stage = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Stage")
    fields = {node.target.id: ast.unparse(node.annotation)
              for node in stage.body if isinstance(node, ast.AnnAssign)}
    assert "pieces" in fields
    assert [name for name, kind in fields.items() if "Callable" in kind] == []


def test_no_module_asks_whether_an_element_is_an_edge_or_a_ray():
    # graph.py's element table is the one place that tells an edge from a ray
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _names(node.func) == ["isinstance"]
        and {"Edge", "Ray"} & {ident for arg in node.args[1:]
                               for sub in ast.walk(arg) for ident in _names(sub)}
    ]
    assert found == []


def _imported_modules(node: ast.AST) -> list[str]:
    """Absolute names of the modules an import statement may load."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "rayspace" + (f".{base}" if base else "")
        return [base] + [f"{base}.{a.name}" for a in node.names]
    return []


def test_wedge_takes_only_errors_and_count_classes():
    taken = []
    for node in ast.walk(TREES["wedge.py"]):
        if isinstance(node, ast.ImportFrom):
            base = _imported_modules(node)[0]
            taken += [(base, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            taken += [(a.name, None) for a in node.names]
    found = [
        (module, name)
        for module, name in taken
        if _is(module, "rayspace")
        and module != "rayspace.errors"
        and (module, name) not in {("rayspace.graph", "count_classes"),
                                   ("rayspace._record", "record")}
    ]
    assert found == []
    assert ("rayspace.graph", "count_classes") in taken


def _outside_functions(node: ast.AST):
    """Every node that runs at import time: nothing inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def _is(module: str, name: str) -> bool:
    return module == name or module.startswith(name + ".")


def test_only_the_oracle_imports_numpy():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name not in ("oracle.py", "_kernels.py")
        for node in ast.walk(tree)
        if any(_is(m, "numpy") for m in _imported_modules(node))
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # ``_record.record`` builds the package's value classes: ``dataclasses``
    # (and the ``inspect`` it loads) would cost every CLI process its import
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if any(_is(m, "dataclasses") for m in _imported_modules(node))
    ]
    assert found == []


_ARRAY_BUILDERS = {"arange", "array", "asarray", "astype", "empty", "empty_like", "frombuffer",
                   "fromiter", "full", "full_like", "ones", "ones_like", "zeros", "zeros_like"}


def test_kernels_build_only_bool_arrays():
    # distances stay Python ints: every array the kernels build, by a numpy
    # constructor or ``astype``, names dtype=bool, but the label array, and no
    # numpy scalar type is called
    found = []
    for owner in TREES["_kernels.py"].body:
        for node in ast.walk(owner):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            kind = getattr(np, attr, None)
            scalar = isinstance(kind, type) and issubclass(kind, np.generic)
            if attr in _ARRAY_BUILDERS or scalar:
                dtypes = (ast.unparse(k.value) for k in node.keywords if k.arg == "dtype")
                found.append((getattr(owner, "name", None), attr, next(dtypes, None)))
    assert ("distance_matrix", "array", "bool") in found
    assert [f for f in found if f[2] != "bool"] == [("component_labels", "arange", "np.int64")]


def test_package_and_cli_load_the_oracle_lazily():
    found = [
        f"{name}:{node.lineno}"
        for name in ("__init__.py", "cli.py")
        for node in _outside_functions(TREES[name])
        if any(_is(m, "rayspace.oracle") for m in _imported_modules(node))
    ]
    assert found == []


def _find_owners(node: ast.AST, owner: str | None = None) -> list[str | None]:
    """The outermost function around every ``def find`` below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name == "find":
                found.append(owner)
            found += _find_owners(child, owner or child.name)
        else:
            found += _find_owners(child, owner)
    return found


def test_no_function_caches_across_calls():
    # work is cached only on the graph, set, stage or region it belongs to,
    # through ``cached_property``, and goes away with that object
    found = [
        f"{name}:{node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for deco in node.decorator_list
        if {"cache", "lru_cache"} & set(_names(deco.func if isinstance(deco, ast.Call) else deco))
    ]
    assert found == []


def test_count_classes_is_the_only_union_find():
    found = [f"{name}:{owner}" for name, tree in TREES.items() for owner in _find_owners(tree)]
    assert found == ["graph.py:count_classes"]


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_only_the_graph_gates_coerce_rationals_and_compare_graphs():
    coerced = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "graph.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _names(node.func) == ["Fraction"]
        and len(node.args) == 1
        and not node.keywords
        and not _is_literal(node.args[0])
    ]
    assert coerced == []
    compared = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "graph.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(sub, ast.Attribute) and sub.attr == "graph" for sub in ast.walk(node))
    ]
    assert compared == []
    graph_tree = TREES["graph.py"]
    gates = {n.name for n in ast.walk(graph_tree) if isinstance(n, ast.FunctionDef)}
    assert {"as_fraction", "as_count", "as_direction_set", "check_graph"} <= gates
