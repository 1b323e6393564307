"""GF(2) algebra over edge sets of a fixed ambient graph.

An :class:`EdgeSet` is the characteristic vector of a spanning subgraph,
stored as a bitmask over canonical edge ids 1..m.  The ring sum (symmetric
difference) is plain XOR, which makes the cycle-space algebra cheap even
for large instances.  All values are immutable.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError


class EdgeSet:
    """Immutable set of edge ids 1..m with GF(2) addition.

    Operators: ``^`` ring sum, ``|`` union, ``&`` intersection.  Two sets
    are only comparable/combinable when they share the same ambient m.
    """

    __slots__ = ("mask", "m")

    def __init__(self, m: int, mask: int = 0):
        if m < 0:
            raise DomainError(f"ambient edge count must be non-negative, got {m}")
        if mask < 0 or mask >> (m + 1):
            raise DomainError("mask has bits outside 1..m")
        if mask & 1:
            raise DomainError("edge ids are 1-based; bit 0 must be clear")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("EdgeSet is immutable")

    @classmethod
    def of(cls, ids: Iterable[int], m: int) -> "EdgeSet":
        mask = 0
        for e in ids:
            if not (1 <= e <= m):
                raise DomainError(f"edge id {e} out of range 1..{m}")
            mask |= 1 << e
        return cls(m, mask)

    @classmethod
    def empty(cls, m: int) -> "EdgeSet":
        return cls(m, 0)

    def _check(self, other: "EdgeSet") -> None:
        if not isinstance(other, EdgeSet):
            raise TypeError(f"expected EdgeSet, got {type(other).__name__}")
        if self.m != other.m:
            raise DomainError(f"ambient mismatch: m={self.m} vs m={other.m}")

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.mask ^ other.mask)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.mask | other.mask)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.mask & other.mask)

    def __contains__(self, eid: int) -> bool:
        return 1 <= eid <= self.m and bool(self.mask >> eid & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet) and self.m == other.m and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.m, self.mask))

    def ids(self) -> tuple[int, ...]:
        """Sorted member edge ids; also the canonical comparison key."""
        return tuple(self)

    def render(self) -> str:
        """Text form used in traces and reports, e.g. ``{e2,e4,e5}``."""
        return "{" + ",".join(f"e{e}" for e in self) + "}"

    def __repr__(self) -> str:
        return f"EdgeSet({self.render()}, m={self.m})"


def ring_sum(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    """Symmetric difference: edges in exactly one of the two sets."""
    return a ^ b


def union(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    return a | b


def intersect(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    return a & b


def obod(cycles: Iterable[EdgeSet], m: int | None = None) -> EdgeSet:
    """Left fold of the ring sum over a cycle collection (the rim).

    The empty collection folds to the empty set; pass ``m`` to fix the
    ambient size in that case.
    """
    acc: EdgeSet | None = None
    for c in cycles:
        edges = c.edges if isinstance(c, Cycle) else c
        acc = edges if acc is None else acc ^ edges
    if acc is None:
        if m is None:
            raise DomainError("empty cycle list needs an explicit ambient m")
        return EdgeSet.empty(m)
    return acc


class CycleKind(Enum):
    EMPTY = "empty"
    SIMPLE_CYCLE = "simple_cycle"
    QUASICYCLE = "quasicycle"
    NOT_CYCLE = "not_cycle"


@dataclass(frozen=True)
class Cycle:
    """An edge set known to be a (quasi)cycle, with derived vertex data."""

    edges: EdgeSet
    vertices: frozenset[int]
    degree_profile: tuple[tuple[int, int], ...]  # (vertex, degree), sorted
    simple: bool

    @classmethod
    def simple_cycle(cls, ids: Iterable[int], vertices: Sequence[int], m: int) -> Cycle:
        """The simple cycle on edge ids ``ids`` through ``vertices``, all degree 2."""
        profile = tuple((v, 2) for v in sorted(vertices))
        return cls(EdgeSet.of(ids, m), frozenset(vertices), profile, True)

    def degree(self, v: int) -> int:
        for u, d in self.degree_profile:
            if u == v:
                return d
        return 0

    def __len__(self) -> int:
        return len(self.edges)


class CycleRows(Sequence):
    """Simple cycles kept as rows of flat arrays; item k builds cycle k alone.

    Row k is the slice ``offsets[k]:offsets[k+1]`` of ``edges`` (its edge
    ids) and ``vertices`` (its vertices, in the order its
    :class:`Cycle` keeps them), in the ``m`` edges of the ambient graph.
    ``len`` reads ``offsets``, and no built cycle is kept.
    """

    def __init__(self, edges, vertices, offsets, m: int):
        self.edges, self.vertices, self.offsets, self.m = edges, vertices, offsets, m

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> Cycle:
        k = range(len(self))[operator.index(k)]
        lo, hi = self.offsets[k], self.offsets[k + 1]
        ids, vertices = self.edges[lo:hi].tolist(), self.vertices[lo:hi].tolist()
        return Cycle.simple_cycle(ids, vertices, self.m)


@dataclass(frozen=True)
class Classification:
    kind: CycleKind
    cycle: Cycle | None


def classify(edges: EdgeSet, graph) -> Classification:
    """Classify an edge set against its host graph.

    Simple cycle: every incident vertex has degree exactly 2 and the edge
    set forms one connected component.  Quasicycle: every incident vertex
    has even degree >= 2 but the set is not a simple cycle.  Everything
    else is not a cycle.  Total on valid edge ids.
    """
    if graph.m != edges.m:
        raise DomainError(f"edge set ambient m={edges.m} does not match graph m={graph.m}")
    if not edges:
        return Classification(CycleKind.EMPTY, None)

    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = graph.endpoints(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    deg = {u: len(nb) for u, nb in adj.items()}

    if any(d % 2 for d in deg.values()):
        return Classification(CycleKind.NOT_CYCLE, None)

    # Connectivity over incident vertices only.
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    connected = len(seen) == len(adj)

    all_two = all(d == 2 for d in deg.values())
    simple = all_two and connected
    cycle = Cycle(
        edges=edges,
        vertices=frozenset(deg),
        degree_profile=tuple(sorted(deg.items())),
        simple=simple,
    )
    kind = CycleKind.SIMPLE_CYCLE if simple else CycleKind.QUASICYCLE
    return Classification(kind, cycle)


def cycle_weight(cycle: Cycle | EdgeSet, inst) -> float:
    """Additive weight of a cycle's edges on a weighted instance."""
    edges = cycle.edges if isinstance(cycle, Cycle) else cycle
    if inst.m != edges.m:
        raise DomainError(f"edge set ambient m={edges.m} does not match instance m={inst.m}")
    return float(sum(inst.edge_weight(e) for e in edges))
