"""rayspace: exact computation in hyperspaces of closed subsets of finite ray-graphs.

Core objects: :class:`RayGraph` (the base space), :class:`ClosedSubset`
(an element of CL(X) in canonical form), hyperspace paths, Vietoris open
regions, symbolic wedge-product models, and a brute-force oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module's public names.  Importing the package loads errors, graph and
# wedge; any other module loads on the first use of one of its names, which
# binds those of its names not bound yet (a name the caller set stays), so a
# CLI command loads only the modules it runs and numpy stays behind the oracle.
# ``wedge`` loads at once: its function shares the submodule's name, which the
# import binds first, so the function is bound over it after.
_PUBLIC = {
    "errors": ("CapExceededError", "InvalidGraphError", "ParseError", "PreconditionError",
               "RayspaceError"),
    "graph": ("Edge", "GraphPoint", "Ray", "RayGraph", "graph_from_parts", "parse_graph",
              "point_distance"),
    "wedge": ("HModel", "ModelStats", "base_model", "model_components", "model_report",
              "model_stats", "parse_wedge_expr", "wedge"),
    "sets": ("ClosedSubset", "canonical_element", "component_count", "contains_point",
             "direction_set", "in_cn", "is_subset", "parse_set", "union", "whole_space"),
    "metric": ("INF", "ExtendedDistance", "directed_hausdorff", "dist_point_to_set",
               "hausdorff", "is_infinite"),
    "paths": ("ClassifyResult", "HyperPath", "component_count_formula", "eval_path",
              "gamma_path", "lipschitz_bound", "path_to_canonical", "same_component_hausdorff",
              "vietoris_path"),
    "vietoris": ("OpenRegion", "WitnessResult", "ball", "continuity_witness", "member_basic",
                 "member_lower", "member_upper", "parse_region", "union_regions"),
    "oracle": ("OracleComponents", "enumerate_sets", "oracle_components", "oracle_hausdorff"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)


def _bind(module: str) -> None:
    mod = import_module(f".{module}", __name__)
    for name in _PUBLIC[module]:
        globals().setdefault(name, getattr(mod, name))


for _module in ("errors", "graph", "wedge"):
    _bind(_module)
del _module
wedge = wedge.wedge


def __getattr__(name: str):
    if name in _MODULE_OF:
        _bind(_MODULE_OF[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
