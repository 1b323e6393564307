"""Hamiltonian cycle construction by ring-summing touching triangles.

Starting from one triangle, each round ring-sums in a triangle that shares
exactly one edge with the current simple cycle and contributes exactly one
new vertex.  After n-2 triangles the cycle covers all of K_n.  The
"first found" choice is the touching triangle first in lexicographic
vertex-triple order.
"""

from __future__ import annotations

import math

from .edgesets import Cycle
from .errors import DomainError
from .graphs import CompleteInstance
from .heuristic import Lineage, tour_result
from .isocycles import triangle_count, triangle_index
from .tours import TourResult, TraceStep


def is_touching(z: Cycle, c: Cycle) -> bool:
    """True when the cycles share exactly one edge and ``c`` brings exactly
    one vertex that ``z`` does not have."""
    if z.edges.m != c.edges.m:
        raise DomainError("cycles live in different ambient graphs")
    inter = z.edges & c.edges
    if len(inter) != 1:
        return False
    return len(c.vertices - z.vertices) == 1


def _triangle_by_index(n: int, k: int) -> tuple[int, int, int]:
    """Invert :func:`~ringtour.isocycles.triangle_index` in O(n).

    Each leading vertex a heads C(n-a, 2) triangles and, given a, each
    second vertex b heads n-b of them.
    """
    kc = triangle_count(n)
    if not (1 <= k <= kc):
        raise DomainError(f"triangle id {k} out of range 1..{kc}")
    k -= 1
    a = 1
    while k >= math.comb(n - a, 2):
        k -= math.comb(n - a, 2)
        a += 1
    b = a + 1
    while k >= n - b:
        k -= n - b
        b += 1
    return a, b, b + 1 + k


def build_hamiltonian(
    inst: CompleteInstance, start_triangle: int | None = None
) -> TourResult:
    """Grow a Hamiltonian cycle of K_n from ``start_triangle``.

    Each round sums in the touching triangle first in canonical order.
    Any uncovered vertex can be its apex, and a smaller apex always gives
    a smaller sorted triple, so the apex is the smallest uncovered vertex
    and the cycle edge is the one whose triple with it sorts first.
    Exactly n-2 triangles are summed (the seed included).  Each sum is
    recorded as the walk position its apex went in after, the same lineage
    an extension round records, and :func:`~ringtour.heuristic.tour_result`
    replays it into the tour and a trace step per triangle.
    """
    n = inst.n
    a, b, c = _triangle_by_index(n, 1 if start_triangle is None else start_triangle)
    w = inst.weight(a, b) + inst.weight(a, c) + inst.weight(b, c)
    step = TraceStep((a, b, c), triangle_index(n, a, b, c), shared_edge=0, weight=w)
    walk, weight, growths = [a, b, c], w, []
    for apex in range(1, n + 1):
        if apex in (a, b, c):
            continue
        size = len(walk)
        i = min(
            range(size),
            key=lambda k: sorted((walk[k], walk[(k + 1) % size], apex)),
        )
        u, v = walk[i], walk[(i + 1) % size]
        weight = weight + (
            inst.weight(u, apex) + inst.weight(v, apex) - inst.weight(u, v)
        )
        walk.insert(i + 1, apex)
        growths.append((i, apex, weight))
    return tour_result(inst, Lineage((a, b, c), w, tuple(growths)), start=step)
