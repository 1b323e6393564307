"""Hamiltonian cycle construction by ring-summing touching triangles.

Starting from one triangle, each round ring-sums in a triangle that shares
exactly one edge with the current simple cycle and contributes exactly one
new vertex.  After n-2 triangles the cycle covers all of K_n.  The
"first found" choice, the touching triangle first in lexicographic
vertex-triple order, is a rule: the smallest uncovered vertex goes into
the walk edge from the smallest walk vertex to its smaller neighbour.
"""

from __future__ import annotations

import math

from .edgesets import Cycle
from .errors import DomainError
from .graphs import CompleteInstance
from .isocycles import triangle_count, triangle_index
from .tours import Lineage, TourResult, TraceStep, tour_result


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
    a smaller sorted triple, so the apex x is the smallest uncovered
    vertex.  Its split is the walk edge from the smallest walk vertex s to
    s's smaller neighbour: a sorted triple starts with min(u, v, x), so if
    s < x only s's two edges start with s, and if x < s every triple
    starts with x and goes on as its sorted edge; either way the edge from
    s to its smaller neighbour sorts first.
    Exactly n-2 triangles are summed (the seed included).  Each sum after
    the seed is a (position, apex) growth, as in an extension round, and
    :func:`~ringtour.tours.tour_result` replays them into the tour.
    """
    n = inst.n
    a, b, c = _triangle_by_index(n, 1 if start_triangle is None else start_triangle)
    w = inst.weight(a, b) + inst.weight(a, c) + inst.weight(b, c)
    step = TraceStep((a, b, c), triangle_index(n, a, b, c), shared_edge=0, weight=w)
    walk, growths = [a, b, c], []
    for apex in range(1, n + 1):
        if apex in (a, b, c):
            continue
        k = walk.index(min(walk))
        i = k if walk[(k + 1) % len(walk)] < walk[k - 1] else (k - 1) % len(walk)
        walk.insert(i + 1, apex)
        growths.append((i, apex))
    return tour_result(inst, Lineage((a, b, c), w, tuple(growths)), start=step)
