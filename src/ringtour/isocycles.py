"""Isometric cycle enumeration, pass vectors and MacLane functionals.

On a complete graph the isometric cycles are exactly the triangles, listed
in lexicographic vertex-triple order so that c1 = (v1,v2,v3), c2 =
(v1,v2,v4), ...  For general simple graphs the enumeration grows paths
under the defining property itself: each vertex is checked once against
every earlier path vertex, for the BFS distance it must have on the
finished cycle, so a path that reaches the cycle's length is a cycle.

Either way the result is an :class:`IsometricCycleSet`: flat arrays of edge
ids and vertices cut into cycles by one offsets array.  Pass vectors and
deletion traces count over those arrays with numpy, so neither builds a
:class:`~ringtour.edgesets.Cycle`.  The set is a
:class:`~ringtour.edgesets.CycleRows` view, as a frontier's rows are:
reading cycle k builds that one cycle and keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .edgesets import Cycle, CycleRows
from .errors import DomainError
from .graphs import CompleteInstance, GeneralGraph, edge_id_table


def triangle_count(n: int) -> int:
    """Number of triangles in K_n: n(n-1)(n-2)/6."""
    return n * (n - 1) * (n - 2) // 6


def triangle_index(n: int, a: int, b: int, c: int) -> int:
    """1-based rank of triangle (a<b<c) in lexicographic triple order."""
    if not (1 <= a < b < c <= n):
        raise DomainError(f"triangle ({a}, {b}, {c}) is not 1 <= a < b < c <= {n}")
    return (
        math.comb(n, 3)
        - math.comb(n - a + 1, 3)
        + math.comb(n - a, 2)
        - math.comb(n - b + 1, 2)
        + (c - b)
    )


class IsometricCycleSet(CycleRows):
    """Deterministically ordered isometric cycles of one graph, as arrays.

    Cycle k (1-based) is the slice ``offsets[k-1]:offsets[k]`` of both
    ``edges`` (its edge ids, ascending) and ``vertices`` (its vertices,
    ascending): a simple cycle has as many vertices as edges.  The three
    arrays are read-only int64; ``offsets`` has one entry more than there
    are cycles and starts at 0.

    As a :class:`~ringtour.edgesets.CycleRows` view, item k - 1 and
    :meth:`cycle` k build cycle k alone; ``cycles`` builds them all.
    """

    def __init__(
        self, edges, vertices, offsets, graph: CompleteInstance | GeneralGraph
    ):
        arrays = [np.asarray(a, dtype=np.int64) for a in (edges, vertices, offsets)]
        for a in arrays:
            a.setflags(write=False)
        super().__init__(*arrays, graph.m)
        self.graph = graph

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        return tuple(self)

    def cycle(self, k: int) -> Cycle:
        """1-based accessor matching the c_k naming used in reports."""
        if not (1 <= k <= len(self)):
            raise DomainError(f"cycle index {k} out of range 1..{len(self)}")
        return self[k - 1]


def triangles(inst: CompleteInstance) -> IsometricCycleSet:
    """All C(n,3) triangles of a complete instance, lexicographic order."""
    v = np.arange(inst.n)
    # C order of the a < b < c mask is lexicographic (a, b, c) order.
    a, b, c = np.nonzero((v[:, None, None] < v[:, None]) & (v[:, None] < v))
    ids = edge_id_table(inst.n)
    return IsometricCycleSet(
        edges=np.stack([ids[a, b], ids[a, c], ids[b, c]], axis=1).ravel(),
        vertices=np.stack([a, b, c], axis=1).ravel() + 1,
        offsets=np.arange(0, 3 * len(a) + 1, 3),
        graph=inst,
    )


def isometric_cycles(g: GeneralGraph) -> IsometricCycleSet:
    """All isometric cycles of a connected simple graph.

    A simple cycle of length k qualifies when every pair of its vertices
    at arc distance t realises graph distance min(t, k - t).  Each cycle
    is grown as a path from its smallest vertex, the root; a vertex w
    joins at position t only if d(w, path[i]) == min(t - i, k - t + i)
    for every i < t, so each pair is checked once.  While d(w, root) == t,
    k is not known yet, but it is at least 2t, so the rule reads
    d == t - i whatever k turns out to be.  The first w with
    d(w, root) < t fixes k = t + d(w, root).  A path closes exactly when
    it has k vertices: its last vertex is then adjacent to the root.  The
    orientation guard path[1] < path[-1] keeps one of a cycle's two
    directions.
    """
    dist = g.distance_matrix()
    if any(dist[1][v] < 0 for v in range(2, g.n + 1)):
        raise DomainError("graph is disconnected")
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}

    rows = []
    # (path, k): k is the cycle length, math.inf until the path turns.
    stack = [((root,), math.inf) for root in range(1, g.n + 1)]
    while stack:
        path, k = stack.pop()
        t, root = len(path), path[0]
        if t == k:
            if path[1] < path[-1]:
                ids = [g.edge_id(u, v) for u, v in zip(path, path[1:] + path[:1])]
                rows.append((sorted(ids), sorted(path)))
            continue
        for w in adj[path[-1]]:
            if w <= root:
                continue
            dw = dist[w]
            kw = t + dw[root] if k == math.inf and dw[root] < t else k
            # A vertex already on the path is at distance 0, so it fails.
            if all(dw[u] == min(t - i, kw - t + i) for i, u in enumerate(path)):
                stack.append((path + (w,), kw))

    rows.sort()
    return IsometricCycleSet(
        edges=[e for ids, _ in rows for e in ids],
        vertices=[v for _, verts in rows for v in verts],
        offsets=np.cumsum([0] + [len(ids) for ids, _ in rows]),
        graph=g,
    )


@dataclass(frozen=True)
class PassVectors:
    """Per-edge and per-vertex cycle membership counts (1-based ids)."""

    p_e: tuple[int, ...]
    p_v: tuple[int, ...]

    def edge_count(self, eid: int) -> int:
        if not (1 <= eid <= len(self.p_e)):
            raise DomainError(f"edge id {eid} out of range 1..{len(self.p_e)}")
        return self.p_e[eid - 1]

    def vertex_count(self, v: int) -> int:
        if not (1 <= v <= len(self.p_v)):
            raise DomainError(f"vertex {v} out of range 1..{len(self.p_v)}")
        return self.p_v[v - 1]

    def _edge_histogram(self) -> Iterator[tuple[int, int]]:
        """(p, number of edges with pass count p) for each distinct p."""
        counts = np.bincount(np.array(self.p_e, dtype=np.int64))
        ps = np.flatnonzero(counts)
        return zip(ps.tolist(), counts[ps].tolist())

    @property
    def f1(self) -> int:
        """Quadratic MacLane functional over the live (p > 0) edges."""
        # Zero-pass edges are excluded from both sums and from the edge count.
        return sum(c * (p * p - 3 * p + 2) for p, c in self._edge_histogram() if p > 0)

    @property
    def f2(self) -> int:
        """Cubic MacLane functional; zero for a planar-compatible cycle system."""
        return sum(c * (p**3 - 3 * p * p + 2 * p) for p, c in self._edge_histogram())


def pass_vectors(s: IsometricCycleSet | Iterable[Cycle], graph=None) -> PassVectors:
    """Count, per edge and per vertex, how many cycles pass through it."""
    if isinstance(s, IsometricCycleSet):
        edges, vertices, g = s.edges, s.vertices, s.graph
    elif graph is None:
        raise DomainError("a host graph is required for a bare cycle list")
    else:
        cycles, g = list(s), graph
        edges = np.fromiter(chain.from_iterable(c.edges for c in cycles), np.int64)
        vertices = np.fromiter(
            chain.from_iterable(c.vertices for c in cycles), np.int64
        )
    p_e = np.bincount(edges, minlength=g.m + 1)
    p_v = np.bincount(vertices, minlength=g.n + 1)
    if len(p_e) > g.m + 1 or len(p_v) > g.n + 1:
        raise DomainError("a cycle has an edge or vertex outside the host graph")
    return PassVectors(p_e=tuple(p_e[1:].tolist()), p_v=tuple(p_v[1:].tolist()))


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
    k = len(s)
    seen = set()
    for idx in order:
        if not (1 <= idx <= k):
            raise DomainError(f"cycle index {idx} out of range 1..{k}")
        if idx in seen:
            raise DomainError(f"cycle index {idx} repeated in deletion order")
        seen.add(idx)

    pv = pass_vectors(s)
    p_e = np.array(pv.p_e, dtype=np.int64)
    p_v = np.array(pv.p_v, dtype=np.int64)
    out = [(pv, pv.f2)]
    for idx in order:
        # A simple cycle lists each edge and vertex once, so no index repeats.
        lo, hi = s.offsets[idx - 1], s.offsets[idx]
        p_e[s.edges[lo:hi] - 1] -= 1
        p_v[s.vertices[lo:hi] - 1] -= 1
        pv = PassVectors(tuple(p_e.tolist()), tuple(p_v.tolist()))
        out.append((pv, pv.f2))
    return out
