"""Tour results, canonical sequences, and the lineage replay deriving step weights.

The replay walks a lineage's growths once, inserting each apex and noting
the walk edge it split; one numpy pass over those splits then derives every
step's weight, triangle, triangle id and split edge id.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .edgesets import EdgeSet, _adjacency, _cycle_walk
from .errors import DomainError
from .graphs import CompleteInstance, edge_id_table
from .isocycles import _triangle_ids

if TYPE_CHECKING:
    from .heuristic import Frontier


def cycle_vertex_sequence(
    edges: EdgeSet, endpoints: Callable[[int], tuple[int, int]]
) -> tuple[int, ...]:
    """Canonical closed-walk order of a simple cycle's vertices.

    Starts at the smallest incident vertex and walks toward its smaller
    neighbour, so a cycle and its reversal yield the same sequence.
    """
    adj = _adjacency(edges, endpoints)
    if not adj or any(len(nb) != 2 for nb in adj.values()):
        raise DomainError("edge set is not a simple cycle")
    walk = _cycle_walk(adj)
    if len(walk) != len(adj):
        raise DomainError("edge set is not connected, hence not a simple cycle")
    return _canonical_tour(tuple(walk))


def _canonical_tour(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/flip a cycle to its smallest vertex, heading to the smaller neighbour."""
    i = seq.index(min(seq))
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


class Lineage(NamedTuple):
    """How one cycle grew: its root walk and weight, then one growth per step.

    Each growth is (i, apex): ``apex`` went in after walk position i,
    splitting walk edge (walk[i], walk[i+1]).
    """

    walk: tuple[int, ...]
    weight: float
    growths: tuple[tuple[int, int], ...]


def tour_result(
    inst: CompleteInstance,
    lineage: Lineage,
    history: list[Frontier] | None = None,
    start: TraceStep | None = None,
) -> TourResult:
    """The tour ``lineage`` grows, with its trace replayed from the growths.

    The trace's steps are ``start``, if given, then one step per growth: its
    triangle, split edge (u, v) and weight + ((w(u,apex) + w(v,apex)) - w(u,v)).
    One walk over the growths inserts each apex and notes its (u, v, apex);
    one numpy pass then derives every step.  The weights are ``np.cumsum``
    over the root weight and the growths' gains, which adds left to right
    as the extension rounds did, so each is its row's weight exactly.
    """
    walk = list(lineage.walk)
    splits = []
    for i, apex in lineage.growths:
        splits.append((walk[i], walk[(i + 1) % len(walk)], apex))
        walk.insert(i + 1, apex)
    steps = [] if start is None else [start]
    weight = lineage.weight
    if splits:
        uvx = np.array(splits)
        u, v, x = uvx.T - 1
        w = inst.weights
        # the insertion table's summation order
        gains = (w[u, x] + w[v, x]) - w[u, v]
        weights = np.cumsum(np.concatenate([[weight], gains]))[1:].tolist()
        tris = np.sort(uvx, axis=1)
        steps += map(
            TraceStep,
            map(tuple, tris.tolist()),
            _triangle_ids(inst.n, tris).tolist(),
            edge_id_table(inst.n)[u, v].tolist(),
            weights,
        )
        weight = weights[-1]
    trace = TourTrace(
        seed=_walk_edges(inst, lineage.walk),
        seed_vertices=lineage.walk,
        seed_weight=lineage.weight,
        steps=tuple(steps),
        frontier_history=tuple(history) if history is not None else None,
    )
    edges = _walk_edges(inst, walk)
    seq = _canonical_tour(tuple(walk))
    return TourResult(sequence=seq, edges=edges, weight=weight, trace=trace, n=inst.n)


def _walk_edges(inst: CompleteInstance, walk: Sequence[int]) -> EdgeSet:
    """The edge set of the closed walk ``walk``."""
    ends = np.asarray(walk) - 1
    return EdgeSet.of(edge_id_table(inst.n)[ends, np.roll(ends, -1)].tolist(), inst.m)
