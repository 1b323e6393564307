"""Tour results and canonical vertex sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .edgesets import EdgeSet
from .errors import DomainError

if TYPE_CHECKING:
    from .heuristic import Frontier


def cycle_vertex_sequence(
    edges: EdgeSet, endpoints: Callable[[int], tuple[int, int]]
) -> tuple[int, ...]:
    """Canonical closed-walk order of a simple cycle's vertices.

    Starts at the smallest incident vertex and walks toward its smaller
    neighbour, so a cycle and its reversal yield the same sequence.
    """
    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = endpoints(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj or any(len(nb) != 2 for nb in adj.values()):
        raise DomainError("edge set is not a simple cycle")

    start = min(adj)
    seq = [start]
    prev = start
    cur = min(adj[start])
    while cur != start:
        seq.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    if len(seq) != len(adj):
        raise DomainError("edge set is not connected, hence not a simple cycle")
    return tuple(seq)


def _canonical_tour(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/flip a tour to start at v1 heading to its smaller neighbour."""
    i = seq.index(1)
    seq = seq[i:] + seq[:i]
    if seq[1] > seq[-1]:
        seq = (seq[0],) + tuple(reversed(seq[1:]))
    return seq


@dataclass(frozen=True)
class TraceStep:
    """One ring-sum step: the triangle summed in and the running weight."""

    triangle: tuple[int, int, int]
    triangle_id: int
    shared_edge: int
    weight: float


@dataclass(frozen=True)
class TourTrace:
    """Which cycles were ring-summed, in order, to build the tour."""

    seed: EdgeSet
    seed_vertices: tuple[int, ...]
    seed_weight: float
    steps: tuple[TraceStep, ...] = ()
    frontier_history: tuple[Frontier, ...] | None = None


@dataclass(frozen=True)
class TourResult:
    """A Hamiltonian cycle with its construction trace."""

    sequence: tuple[int, ...]
    edges: EdgeSet
    weight: float
    trace: TourTrace
    n: int


def to_vertex_sequence(tour: TourResult) -> tuple[int, ...]:
    """Canonical vertex order of a tour (recomputed from its edge set)."""
    from .graphs import edge_endpoints

    return cycle_vertex_sequence(tour.edges, lambda e: edge_endpoints(e, tour.n))
