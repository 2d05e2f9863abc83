"""Layer spans recorded from outside the program.

:class:`Recorder` wraps the public functions of each ``rayspace`` module.  A
module that imported a function by name holds its own reference, so every
module attribute bound to the original function gets the same wrapper; one
call therefore records one span whichever alias it went through.  Spans stay
in memory as ``(name, start_ns, end_ns, parent, op)`` and are written once at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import rayspace.graph
import rayspace.sets
import rayspace.vietoris

# (module, attribute, span name, counter hook)
_FUNCTIONS = [
    ("rayspace.graph", "parse_graph", "graph.parse", None),
    ("rayspace.sets", "in_cn", "sets.in_cn", None),
    ("rayspace.sets", "parse_set", "sets.parse", None),
    ("rayspace.metric", "hausdorff", "metric.hausdorff", None),
    ("rayspace.metric", "directed_hausdorff", "metric.directed", None),
    ("rayspace.metric", "distance_profile", "metric.envelope",
     lambda args, res: {"breakpoints": len(res.xs)}),
    ("rayspace.metric", "dist_point_to_set", "metric.point_to_set", None),
    ("rayspace.paths", "path_to_canonical", "paths.build", None),
    ("rayspace.paths", "vietoris_path", "paths.build", None),
    ("rayspace.paths", "gamma_path", "paths.build", None),
    ("rayspace.paths", "eval_path", "paths.eval", None),
    ("rayspace.vietoris", "member_basic", "vietoris.member_basic", None),
    ("rayspace.vietoris", "continuity_witness", "vietoris.witness", None),
    ("rayspace.wedge", "parse_wedge_expr", "wedge.report", None),
    ("rayspace.wedge", "model_report", "wedge.report", None),
    ("rayspace.oracle", "enumerate_sets", "oracle.enumerate",
     lambda args, res: {"sets_enumerated": len(res)}),
    ("rayspace.oracle", "oracle_components", "oracle.census", None),
    ("rayspace.oracle", "oracle_hausdorff", "oracle.grid_hausdorff", None),
    ("rayspace._kernels", "distance_matrix", "kernels.distance_matrix",
     lambda args, res: {"matrix_bytes": res.nbytes}),
    ("rayspace._kernels", "component_labels", "kernels.component_labels",
     lambda args, res: {"label_rows": args[0].shape[0]}),
    ("rayspace._kernels", "directed_maxmin", "kernels.directed_maxmin", None),
]
# (class, cached property, span name): timed on first access only
_PROPERTIES = [
    (rayspace.graph.RayGraph, "vertex_distances", "graph.vertex_table"),
    (rayspace.vietoris.OpenRegion, "derived", "vietoris.derived"),
]
# a name that may nest inside itself: vietoris_path builds on path_to_canonical
_REENTRANT = {"paths.build"}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))  # op -> name -> total
        self.op = None  # the id of the operation in progress; None records nothing
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.spans[idx] = (name, start, time.perf_counter_ns(), parent, rec.op)
                rec._stack.pop()
            if hook is not None:
                counts = rec.counters[rec.op]
                for key, k in hook(args, result).items():
                    counts[key] += k
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rayspace"]
        for mod_name, attr, name, hook in _FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(orig, name, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        cs = rayspace.sets.ClosedSubset
        self._undo.append((cs, "from_pieces", cs.__dict__["from_pieces"]))
        cs.from_pieces = staticmethod(self.wrap(cs.from_pieces, "sets.from_pieces", None))
        for cls, attr, name in _PROPERTIES:
            orig = cls.__dict__[attr]
            prop = functools.cached_property(self.wrap(orig.func, name, None))
            prop.__set_name__(cls, attr)
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, prop)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counters": {str(op): dict(c) for op, c in self.counters.items()},
        }))


class SpanError(AssertionError):
    pass


class SpanView:
    """Aggregates over the spans of a chosen set of operations."""

    def __init__(self, rec: Recorder, ops: set):
        self.rec = rec
        self.ops = ops
        self.idx = [i for i, s in enumerate(rec.spans) if s[4] in ops]
        self.child_ns: dict[int, int] = defaultdict(int)
        for i in self.idx:
            name, start, end, parent, _ = rec.spans[i]
            if parent >= 0:
                self.child_ns[parent] += end - start

    def check(self) -> None:
        """Self time is never negative, and no function was wrapped twice."""
        spans = self.rec.spans
        for i in self.idx:
            name, start, end, parent, _ = spans[i]
            if self.child_ns[i] > end - start:
                raise SpanError(f"children of {name} span {i} outlast it")
            if parent >= 0 and spans[parent][0] == name and name not in _REENTRANT:
                raise SpanError(f"{name} span {i} nests in itself: wrapped twice?")

    def _outermost(self, names: set[str]):
        spans = self.rec.spans
        for i in self.idx:
            if spans[i][0] not in names:
                continue
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                yield i

    def total_ms(self, *names: str) -> float:
        spans = self.rec.spans
        return sum(spans[i][2] - spans[i][1] for i in self._outermost(set(names))) / 1e6

    def calls(self, *names: str) -> int:
        return sum(1 for _ in self._outermost(set(names)))

    def self_ms(self, *names: str) -> float:
        spans = self.rec.spans
        return sum(
            spans[i][2] - spans[i][1] - self.child_ns[i] for i in self.idx if spans[i][0] in names
        ) / 1e6

    def count(self, key: str) -> int:
        return sum(self.rec.counters.get(op, {}).get(key, 0) for op in self.ops)

    def calls_under(self, name: str, parent_name: str) -> int:
        spans = self.rec.spans
        return sum(
            1 for i in self.idx
            if spans[i][0] == name and spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name
        )


def layer_metrics(v: SpanView) -> dict[str, float]:
    """Every layer metric that spans can give; a workload keeps the ones it uses."""
    envelopes = v.calls("metric.envelope")
    enumerated = v.count("sets_enumerated")
    attempts = v.calls_under("sets.from_pieces", "oracle.enumerate")
    return {
        "graph.parse_ms": v.total_ms("graph.parse"),
        "graph.vertex_table_ms": v.total_ms("graph.vertex_table"),
        "sets.from_pieces_ms": v.total_ms("sets.from_pieces"),
        "sets.from_pieces_calls": v.calls("sets.from_pieces"),
        "sets.in_cn_ms": v.total_ms("sets.in_cn"),
        "sets.in_cn_calls": v.calls("sets.in_cn"),
        "sets.parse_ms": v.total_ms("sets.parse"),
        "metric.hausdorff_ms": v.total_ms("metric.hausdorff", "metric.directed"),
        "metric.hausdorff_calls": v.calls("metric.hausdorff", "metric.directed"),
        "metric.envelope_ms": v.self_ms("metric.envelope"),
        "metric.envelope_calls": envelopes,
        "metric.breakpoints_per_envelope": v.count("breakpoints") / envelopes if envelopes else 0,
        "metric.sup_ms": v.self_ms("metric.hausdorff", "metric.directed"),
        "metric.point_to_set_ms": v.total_ms("metric.point_to_set"),
        "paths.build_ms": v.total_ms("paths.build"),
        "paths.eval_ms": v.total_ms("paths.eval"),
        "paths.eval_calls": v.calls("paths.eval"),
        "vietoris.derived_ms": v.total_ms("vietoris.derived"),
        "vietoris.member_basic_ms": v.total_ms("vietoris.member_basic"),
        "vietoris.member_basic_calls": v.calls("vietoris.member_basic"),
        "vietoris.witness_ms": v.total_ms("vietoris.witness"),
        "wedge.report_ms": v.total_ms("wedge.report"),
        "oracle.enumerate_ms": v.total_ms("oracle.enumerate"),
        "oracle.sets_enumerated": enumerated,
        "oracle.accept_ratio": enumerated / attempts if attempts else 0,
        "oracle.census_self_ms": v.self_ms("oracle.census"),
        "oracle.grid_hausdorff_ms": v.total_ms("oracle.grid_hausdorff"),
        "kernels.distance_matrix_ms": v.total_ms("kernels.distance_matrix"),
        "kernels.component_labels_ms": v.total_ms("kernels.component_labels"),
        "kernels.directed_maxmin_ms": v.total_ms("kernels.directed_maxmin"),
        "kernels.label_rows": v.count("label_rows"),
        "kernels.matrix_bytes": v.count("matrix_bytes"),
    }


# Counts that must repeat exactly when the same operations run again.
REPEATABLE = [
    "sets.from_pieces_calls", "sets.in_cn_calls", "metric.hausdorff_calls",
    "metric.envelope_calls", "metric.breakpoints_per_envelope", "paths.eval_calls",
    "vietoris.member_basic_calls", "oracle.sets_enumerated", "oracle.accept_ratio",
    "kernels.label_rows",
]
