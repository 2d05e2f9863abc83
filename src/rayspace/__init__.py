"""rayspace: exact computation in hyperspaces of closed subsets of finite ray-graphs.

Core objects: :class:`RayGraph` (the base space), :class:`ClosedSubset`
(an element of CL(X) in canonical form), hyperspace paths, Vietoris open
regions, symbolic wedge-product models, and a brute-force oracle.
"""

from .errors import (
    CapExceededError,
    InvalidGraphError,
    ParseError,
    PreconditionError,
    RayspaceError,
)
from .graph import (
    Edge,
    GraphPoint,
    Ray,
    RayGraph,
    graph_from_parts,
    parse_graph,
    point_distance,
)
from .metric import (
    INF,
    ExtendedDistance,
    directed_hausdorff,
    dist_point_to_set,
    hausdorff,
    is_infinite,
)
from .paths import (
    ClassifyResult,
    HyperPath,
    component_count_formula,
    eval_path,
    gamma_path,
    lipschitz_bound,
    path_to_canonical,
    same_component_hausdorff,
    vietoris_path,
)
from .sets import (
    ClosedSubset,
    canonical_element,
    component_count,
    contains_point,
    direction_set,
    in_cn,
    is_subset,
    parse_set,
    union,
    whole_space,
)
from .vietoris import (
    OpenRegion,
    WitnessResult,
    ball,
    continuity_witness,
    member_basic,
    member_lower,
    member_upper,
    parse_region,
    union_regions,
)
from .wedge import (
    HModel,
    ModelStats,
    base_model,
    model_components,
    model_report,
    model_stats,
    parse_wedge_expr,
    wedge,
)

__version__ = "0.1.0"

# The oracle names load rayspace.oracle, and with it numpy, on first use, so
# that importing the package (and every CLI command but ``oracle``) stays
# numpy-free.
_ORACLE_NAMES = ("OracleComponents", "enumerate_sets", "oracle_components", "oracle_hausdorff")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
