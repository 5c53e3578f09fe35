"""Exact decision procedures for approximability by embeddings.

A simplicial map of a path, cycle, or degree-<=3 graph into a plane-embedded
graph is decided approximable or not by iterated derivatives, transversal
self-intersection detection, winding degrees, and the mod-2 obstruction of
the deleted product, cross-validated by a brute-force lift-search oracle.
"""

from .core import (
    DomainGraph,
    PlaneGraph,
    SimplicialMap,
    WalkArc,
    format_instance,
    normalize_nondegenerate,
    parse_instance,
    zero_components,
)
from .decide import Event, Verdict, decide_cycle, decide_deg3_to_circle, decide_map, decide_path, decide_path_via_vk
from .derivative import derive, iterate_derivative, winding_report
from .errors import (
    DanglingIdError,
    DerivePreconditionError,
    EmbapproxError,
    InvariantError,
    OracleBudgetExceeded,
    ParseError,
    PreconditionError,
)
from .oracle import oracle_result
from .transversal import find_crossing_pair
from .vankampen import (
    build_deleted_product,
    intersection_cochain,
    obstruction_vanishes,
)

__all__ = [
    "DomainGraph",
    "PlaneGraph",
    "SimplicialMap",
    "WalkArc",
    "format_instance",
    "normalize_nondegenerate",
    "parse_instance",
    "zero_components",
    "Event",
    "Verdict",
    "decide_cycle",
    "decide_deg3_to_circle",
    "decide_map",
    "decide_path",
    "decide_path_via_vk",
    "derive",
    "iterate_derivative",
    "winding_report",
    "DanglingIdError",
    "DerivePreconditionError",
    "EmbapproxError",
    "InvariantError",
    "OracleBudgetExceeded",
    "ParseError",
    "PreconditionError",
    "oracle_result",
    "find_crossing_pair",
    "build_deleted_product",
    "intersection_cochain",
    "obstruction_vanishes",
]

__version__ = "0.1.0"
