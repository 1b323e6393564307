"""Ring-sum cycle algebra for Hamiltonian tours and a symmetric TSP heuristic.

The package builds Hamiltonian cycles of complete graphs by GF(2)
ring-summing of triangular cycles and runs a polynomial tour heuristic on
top of that construction, next to exact desk-scale oracles for
verification.
"""

from .edgesets import (
    Classification,
    Cycle,
    CycleKind,
    EdgeSet,
    classify,
    cycle_weight,
    intersect,
    obod,
    ring_sum,
    union,
)
from .errors import (
    AsymmetricWeightsError,
    BadOrderError,
    DomainError,
    InvalidInstanceError,
    NegativeWeightError,
    ParseError,
    RingtourError,
)
from .graphs import (
    CompleteInstance,
    GeneralGraph,
    InstanceSource,
    edge_endpoints,
    edge_id,
    load_instance,
    parse_coords_text,
    parse_matrix_text,
    parse_upper_text,
    random_instance,
)
from .hamilton import build_hamiltonian, is_touching
from .heuristic import (
    Frontier,
    OpCounts,
    QuadCycleTriple,
    extend_frontier,
    op_count_estimate,
    quad_cycles,
    seed_frontier,
    solve,
)
from .isocycles import (
    IsometricCycleSet,
    PassVectors,
    deletion_trace,
    isometric_cycles,
    maclane_f1,
    maclane_f2,
    pass_vectors,
    triangle_count,
    triangle_index,
    triangles,
)
from .oracle import OracleResult, brute_force, held_karp
from .tours import (
    TourResult,
    TourTrace,
    TraceStep,
    cycle_vertex_sequence,
    to_vertex_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricWeightsError",
    "BadOrderError",
    "Classification",
    "CompleteInstance",
    "Cycle",
    "CycleKind",
    "DomainError",
    "EdgeSet",
    "Frontier",
    "GeneralGraph",
    "InstanceSource",
    "InvalidInstanceError",
    "IsometricCycleSet",
    "NegativeWeightError",
    "OpCounts",
    "OracleResult",
    "ParseError",
    "PassVectors",
    "QuadCycleTriple",
    "RingtourError",
    "TourResult",
    "TourTrace",
    "TraceStep",
    "brute_force",
    "build_hamiltonian",
    "classify",
    "cycle_vertex_sequence",
    "cycle_weight",
    "deletion_trace",
    "edge_endpoints",
    "edge_id",
    "extend_frontier",
    "held_karp",
    "intersect",
    "is_touching",
    "isometric_cycles",
    "load_instance",
    "maclane_f1",
    "maclane_f2",
    "obod",
    "op_count_estimate",
    "parse_coords_text",
    "parse_matrix_text",
    "parse_upper_text",
    "pass_vectors",
    "quad_cycles",
    "random_instance",
    "ring_sum",
    "seed_frontier",
    "solve",
    "to_vertex_sequence",
    "triangle_count",
    "triangle_index",
    "triangles",
    "union",
]
