"""What the benchmark measures: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 perfbench/run.py --write-config``; edit here, then regenerate.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20
DEFAULT_SEED = 1

# One line each: the load shape, what the workload does, and why it exists.
WORKLOADS = {
    "dist-envelope": (
        "closed loop, 1 client, in-process: hausdorff (a fifth directed) on seeded set pairs, "
        "12 of 14 with 4-32 pieces on a 2-vertex graph; metric.distance_profile does most work"
    ),
    "paths-witness": (
        "closed loop, 1 client, in-process: path evals, Lipschitz checks and Vietoris witnesses; "
        "thousands of tiny envelopes, so per-call overhead in sets and metric dominates"
    ),
    "census": (
        "closed loop, 1 client, in-process: oracle census menu plus grid Hausdorff pairs; "
        "oracle, _kernels and sets do all the work and metric does none"
    ),
    "cli-cold": (
        "closed loop, 1 client, one subprocess at a time: all seven CLI subcommands, two on "
        "seeded 64-vertex graphs; import and the per-process vertex table dominate"
    ),
}

# name -> (unit, better, bound).  Bounds are shares of the parent's median;
# set-up time, a median of nine or more set-ups, has the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.24),
    "op_p50_ms": ("ms", "lower", 0.2),
    "op_tail_ms": ("ms", "lower", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

# Workload-independent scaling curves and process costs, measured without the
# layer wrappers in every traced run.  name -> unit.
CURVES = {
    **{f"graph.vertex_table_ms.v{v}": "ms" for v in (25, 50, 100)},
    **{f"metric.hausdorff_ms.m{m}": "ms" for m in (4, 8, 16, 32)},
    **{f"oracle.census_ms.h{h}": "ms" for h in (2, 4)},
    "cli.python_startup_ms": "ms",
    "cli.import_ms": "ms",
    **{
        f"cli.process_ms.{cmd}": "ms"
        for cmd in ("dist", "classify", "path", "vietoris", "wedge", "oracle", "validate")
    },
}

# Per-layer metrics measured on a workload's traced operations.  name -> unit.
LAYER_UNITS = {
    "graph.parse_ms": "ms",
    "graph.vertex_table_ms": "ms",
    "sets.from_pieces_ms": "ms",
    "sets.from_pieces_calls": "count",
    "sets.in_cn_ms": "ms",
    "sets.in_cn_calls": "count",
    "sets.parse_ms": "ms",
    "metric.hausdorff_ms": "ms",
    "metric.hausdorff_calls": "count",
    "metric.envelope_ms": "ms",
    "metric.envelope_calls": "count",
    "metric.breakpoints_per_envelope": "count",
    "metric.sup_ms": "ms",
    "metric.point_to_set_ms": "ms",
    "paths.build_ms": "ms",
    "paths.eval_ms": "ms",
    "paths.eval_calls": "count",
    "vietoris.derived_ms": "ms",
    "vietoris.member_basic_ms": "ms",
    "vietoris.member_basic_calls": "count",
    "vietoris.witness_ms": "ms",
    "wedge.report_ms": "ms",
    "oracle.enumerate_ms": "ms",
    "oracle.sets_enumerated": "count",
    "oracle.accept_ratio": "ratio",
    "oracle.census_self_ms": "ms",
    "oracle.grid_hausdorff_ms": "ms",
    "kernels.distance_matrix_ms": "ms",
    "kernels.component_labels_ms": "ms",
    "kernels.directed_maxmin_ms": "ms",
    "kernels.label_rows": "count",
    "kernels.matrix_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Which layer metrics each workload's traced operations exercise.  A layer a
# workload never enters is left out rather than reported as zero.
_COMMON = ["graph.parse_ms", "graph.vertex_table_ms", "sets.from_pieces_ms",
           "sets.from_pieces_calls", "sets.parse_ms", "trace.overhead_ratio"]
_METRIC = ["metric.hausdorff_ms", "metric.hausdorff_calls", "metric.envelope_ms",
           "metric.envelope_calls", "metric.breakpoints_per_envelope", "metric.sup_ms"]
_IN_CN = ["sets.in_cn_ms", "sets.in_cn_calls"]
_PATHS = ["paths.build_ms", "paths.eval_ms", "paths.eval_calls"]
_VIETORIS = ["metric.point_to_set_ms", "vietoris.derived_ms", "vietoris.member_basic_ms",
             "vietoris.member_basic_calls", "vietoris.witness_ms"]
_ORACLE = ["oracle.enumerate_ms", "oracle.sets_enumerated", "oracle.accept_ratio",
           "oracle.census_self_ms", "kernels.distance_matrix_ms",
           "kernels.component_labels_ms", "kernels.label_rows", "kernels.matrix_bytes"]
WORKLOAD_LAYERS = {
    "dist-envelope": _COMMON + _METRIC,
    "paths-witness": _COMMON + _METRIC + _IN_CN + _PATHS + _VIETORIS,
    "census": _COMMON + _IN_CN + _ORACLE
    + ["oracle.grid_hausdorff_ms", "kernels.directed_maxmin_ms"],
    "cli-cold": _COMMON + _METRIC + _IN_CN + _PATHS + _VIETORIS + _ORACLE + ["wedge.report_ms"],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = dict(CURVES)
    for w, names in WORKLOAD_LAYERS.items():
        out.update({f"{w}.{n}": LAYER_UNITS[n] for n in names})
    return out


def config() -> dict:
    per_layer = per_layer_units()
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n.endswith("accept_ratio") else "lower"}
            for n, u in per_layer.items()
        ],
    }


def write_config(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(config(), indent=2) + "\n")
