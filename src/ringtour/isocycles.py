"""Isometric cycle enumeration, pass vectors and MacLane functionals.

On a complete graph the isometric cycles are exactly the triangles, listed
in lexicographic vertex-triple order so that c1 = (v1,v2,v3), c2 =
(v1,v2,v4), ...  For general simple graphs the enumeration checks the
defining property directly: every pair of cycle vertices must realise its
BFS distance along the cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .edgesets import Cycle, EdgeSet
from .errors import DomainError
from .graphs import CompleteInstance, GeneralGraph, edge_id


def triangle_count(n: int) -> int:
    """Number of triangles in K_n: n(n-1)(n-2)/6."""
    return n * (n - 1) * (n - 2) // 6


def triangle_index(n: int, a: int, b: int, c: int) -> int:
    """1-based rank of triangle (a<b<c) in lexicographic triple order."""
    before = (
        math.comb(n, 3)
        - math.comb(n - a + 1, 3)
        + math.comb(n - a, 2)
        - math.comb(n - b + 1, 2)
        + (c - b)
    )
    return before


def _triangle_cycle(inst, a: int, b: int, c: int) -> Cycle:
    edges = EdgeSet.of(
        (inst.edge_id(a, b), inst.edge_id(a, c), inst.edge_id(b, c)), inst.m
    )
    return Cycle(
        edges=edges,
        vertices=frozenset((a, b, c)),
        degree_profile=((a, 2), (b, 2), (c, 2)),
        simple=True,
    )


@dataclass(frozen=True)
class IsometricCycleSet:
    """Deterministically ordered tuple of isometric cycles of one graph."""

    cycles: tuple[Cycle, ...]
    graph: CompleteInstance | GeneralGraph

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def cycle(self, k: int) -> Cycle:
        """1-based accessor matching the c_k naming used in reports."""
        if not (1 <= k <= len(self.cycles)):
            raise DomainError(f"cycle index {k} out of range 1..{len(self.cycles)}")
        return self.cycles[k - 1]


def triangles(inst: CompleteInstance) -> IsometricCycleSet:
    """All C(n,3) triangles of a complete instance, lexicographic order."""
    cyc = tuple(
        _triangle_cycle(inst, a, b, c)
        for a, b, c in combinations(range(1, inst.n + 1), 3)
    )
    return IsometricCycleSet(cycles=cyc, graph=inst)


def isometric_cycles(g: GeneralGraph) -> IsometricCycleSet:
    """All isometric cycles of a connected simple graph.

    A simple cycle qualifies when, for every pair of its vertices, the
    graph distance equals the shorter arc along the cycle.  Enumeration is
    a DFS over paths rooted at each cycle's minimal vertex; prefixes that
    already violate the distance condition are pruned, which keeps the
    search tame at desk scale.
    """
    dist = g.distance_matrix()
    if any(dist[1][v] < 0 for v in range(2, g.n + 1)):
        raise DomainError("graph is disconnected")
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}

    found: dict[frozenset[int], tuple[int, ...]] = {}

    def isometric_closed(path: tuple[int, ...]) -> bool:
        k = len(path)
        for i in range(k):
            di = dist[path[i]]
            for j in range(i + 1, k):
                t = j - i
                if di[path[j]] != min(t, k - t):
                    return False
        return True

    def extend(path: list[int], on_path: set[int]) -> None:
        root = path[0]
        last = path[-1]
        for w in adj[last]:
            if w == root and len(path) >= 3:
                # Orientation guard: count each cycle once.
                if path[1] < path[-1] and isometric_closed(tuple(path)):
                    ids = [
                        g.edge_id(path[i], path[(i + 1) % len(path)])
                        for i in range(len(path))
                    ]
                    found[frozenset(ids)] = tuple(path)
                continue
            if w <= root or w in on_path or len(path) >= g.n:
                continue
            # An isometric cycle of any final length k >= len+1 has arc
            # distance at least min(t, len+1-t) between prefix positions.
            t_new = len(path)
            ok = True
            dw = dist[w]
            for i, u in enumerate(path):
                t = t_new - i
                if dw[u] < min(t, t_new + 1 - t):
                    ok = False
                    break
            if ok:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.remove(w)
                path.pop()

    for root in range(1, g.n + 1):
        extend([root], {root})

    cycles = []
    for ids in sorted(found, key=lambda s: tuple(sorted(s))):
        edges = EdgeSet.of(ids, g.m)
        verts = frozenset(found[ids])
        cycles.append(
            Cycle(
                edges=edges,
                vertices=verts,
                degree_profile=tuple((v, 2) for v in sorted(verts)),
                simple=True,
            )
        )
    return IsometricCycleSet(cycles=tuple(cycles), graph=g)


@dataclass(frozen=True)
class PassVectors:
    """Per-edge and per-vertex cycle membership counts (1-based ids)."""

    p_e: tuple[int, ...]
    p_v: tuple[int, ...]

    def edge_count(self, eid: int) -> int:
        return self.p_e[eid - 1]

    def vertex_count(self, v: int) -> int:
        return self.p_v[v - 1]

    @property
    def f1(self) -> int:
        """Quadratic MacLane functional over the live (p > 0) edges."""
        # Zero-pass edges are excluded from both sums and from the edge count.
        live = [p for p in self.p_e if p > 0]
        return sum(p * p for p in live) - 3 * sum(live) + 2 * len(live)

    @property
    def f2(self) -> int:
        """Cubic MacLane functional; zero for a planar-compatible cycle system."""
        p_e = self.p_e
        return sum(p**3 for p in p_e) - 3 * sum(p * p for p in p_e) + 2 * sum(p_e)


def _as_cycles_and_graph(s, graph=None) -> tuple[Sequence[Cycle], object]:
    if isinstance(s, IsometricCycleSet):
        return s.cycles, s.graph
    if graph is None:
        raise DomainError("a host graph is required for a bare cycle list")
    return list(s), graph


def pass_vectors(s: IsometricCycleSet | Iterable[Cycle], graph=None) -> PassVectors:
    """Count, per edge and per vertex, how many cycles pass through it."""
    cycles, g = _as_cycles_and_graph(s, graph)
    p_e = [0] * g.m
    p_v = [0] * g.n
    for c in cycles:
        for e in c.edges:
            p_e[e - 1] += 1
        for v in c.vertices:
            p_v[v - 1] += 1
    return PassVectors(p_e=tuple(p_e), p_v=tuple(p_v))


def maclane_f1(s: IsometricCycleSet | Iterable[Cycle], graph=None) -> int:
    """Quadratic MacLane functional over the live (p > 0) edges."""
    return pass_vectors(s, graph).f1


def maclane_f2(s: IsometricCycleSet | Iterable[Cycle], graph=None) -> int:
    """Cubic MacLane functional; zero for a planar-compatible cycle system."""
    return pass_vectors(s, graph).f2


def deletion_trace(
    s: IsometricCycleSet, order: Sequence[int]
) -> list[tuple[PassVectors, int]]:
    """States of (pass vectors, F2) as cycles are removed one by one.

    ``order`` holds distinct 1-based cycle indices.  The first entry is the
    full set's state; each subsequent entry follows one removal.
    """
    k = len(s.cycles)
    seen = set()
    for idx in order:
        if not (1 <= idx <= k):
            raise DomainError(f"cycle index {idx} out of range 1..{k}")
        if idx in seen:
            raise DomainError(f"cycle index {idx} repeated in deletion order")
        seen.add(idx)

    pv = pass_vectors(s)
    p_e = list(pv.p_e)
    p_v = list(pv.p_v)
    out = [(pv, pv.f2)]
    for idx in order:
        c = s.cycles[idx - 1]
        for e in c.edges:
            p_e[e - 1] -= 1
        for v in c.vertices:
            p_v[v - 1] -= 1
        pv = PassVectors(tuple(p_e), tuple(p_v))
        out.append((pv, pv.f2))
    return out
