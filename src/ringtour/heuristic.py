"""Polynomial TSP heuristic: minimum 4-cycle seeding, touching-triangle growth.

The search keeps a frontier of minimum-weight simple cycles of the current
length.  Seeding picks, over every 4-vertex subset, the cheapest of its
three 4-cycles; each extension round ring-sums every touching triangle
into every candidate (one shared cycle edge plus one uncovered apex) and
keeps the cheapest results.  After n-4 rounds the frontier holds
Hamiltonian cycles.  A candidate is a closed vertex walk, and summing in a
touching triangle is :func:`grow`: insert the apex between the two ends
of one walk edge.  :func:`~ringtour.hamilton.build_hamiltonian` grows its
cycle with the same step.

Beam policy: the default "all-ties" keeps every candidate tied at the
round minimum, which is what reproduces the worked desk examples.  An
integer beam width B keeps the B best candidates, with ties at the cutoff
all kept.  Weight comparisons are exact; instances with integral weights
(all file formats round or carry integers) make every sum exactly
representable.

The quad scan and the extension scans are vectorised over numpy blocks so
that the O(n^4) seeding stays practical into the hundreds of vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .edgesets import Cycle, EdgeSet
from .errors import DomainError
from .graphs import CompleteInstance
from .isocycles import triangle_count, triangle_index
from .tours import (
    FrontierSnapshot,
    TourResult,
    TourTrace,
    TraceStep,
    cycle_vertex_sequence,
)

BeamSpec = int | str | None

# Vertex chunk for the blocked quad scan; caps block memory at a few MB.
_CHUNK_CELLS = 2_000_000


def parse_beam(beam: BeamSpec) -> int | None:
    """Normalise a beam spec: None means keep all minimum-weight ties."""
    if beam is None or beam == "all-ties":
        return None
    if isinstance(beam, str):
        if beam.isdigit() and int(beam) >= 1:
            return int(beam)
        raise DomainError(f"beam must be a positive integer or 'all-ties', got {beam!r}")
    if isinstance(beam, int) and beam >= 1:
        return beam
    raise DomainError(f"beam must be a positive integer or 'all-ties', got {beam!r}")


# The three 4-cycles on a sorted quad (a, b, c, d), as vertex walks.
_QUAD_WALKS = (
    (0, 1, 2, 3),  # a-b-c-d
    (0, 1, 3, 2),  # a-b-d-c
    (0, 2, 1, 3),  # a-c-b-d
)


def _shape_weight(w: np.ndarray, quad: tuple[int, int, int, int], shape: int) -> float:
    """Weight of one of the three 4-cycles on a sorted 1-based quad.

    The association order replicates the vectorised quad scan bit for bit,
    so recomputed weights compare exactly against scanned minima.
    """
    a, b, c, d = (v - 1 for v in quad)
    if shape == 0:  # a-b-c-d
        return float(((w[c, d] + w[b, c]) + w[a, d]) + w[a, b])
    if shape == 1:  # a-b-d-c
        return float(((w[d, c] + w[b, d]) + w[a, c]) + w[a, b])
    if shape == 2:  # a-c-b-d
        return float((w[a, c] + w[b, c]) + (w[a, d] + w[b, d]))
    raise AssertionError(f"bad shape {shape}")


@dataclass(frozen=True)
class QuadCycleTriple:
    """The three simple 4-cycles spanning one 4-vertex subset."""

    quad: tuple[int, int, int, int]
    cycles: tuple[EdgeSet, EdgeSet, EdgeSet]
    weights: tuple[float, float, float]
    walks: tuple[tuple[int, int, int, int], ...]


def quad_cycles(inst: CompleteInstance, quad: Iterable[int]) -> QuadCycleTriple:
    """Build the three 4-cycles on ``quad`` with their weights.

    For the sorted quad (a,b,c,d) the order is a-b-c-d, a-b-d-c, a-c-b-d.
    Together the three cycles cover each of the six quad edges exactly
    twice.
    """
    vs = tuple(sorted(quad))
    if len(vs) != 4 or len(set(vs)) != 4:
        raise DomainError(f"need 4 distinct vertices, got {tuple(quad)}")
    if not (1 <= vs[0] and vs[3] <= inst.n):
        raise DomainError(f"vertex out of range for n={inst.n}: {vs}")
    cycles = []
    weights = []
    walks = []
    for shape, walk in enumerate(_QUAD_WALKS):
        order = tuple(vs[i] for i in walk)
        ids = [
            inst.edge_id(order[i], order[(i + 1) % 4]) for i in range(4)
        ]
        cycles.append(EdgeSet.of(ids, inst.m))
        walks.append(order)
        weights.append(_shape_weight(inst.weights, vs, shape))
    return QuadCycleTriple(
        quad=vs,
        cycles=tuple(cycles),
        weights=tuple(weights),
        walks=tuple(walks),
    )


@dataclass(frozen=True)
class FrontierCandidate:
    """A simple cycle as a closed vertex walk, linked to the cycle it grew from.

    ``edges`` is the walk's edge set and the key that merges duplicates.
    ``step`` is the triangle summed into ``parent`` to make this cycle; a
    root has no parent, and its step, if any, is the triangle it starts as.
    """

    order: tuple[int, ...]
    edges: EdgeSet
    weight: float
    # Left out of == and repr, which would otherwise recurse down the chain.
    parent: FrontierCandidate | None = field(default=None, compare=False, repr=False)
    step: TraceStep | None = None

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.order)

    def sort_key(self) -> tuple:
        return (self.weight, self.edges.ids())

    def as_cycle(self) -> Cycle:
        return Cycle(
            edges=self.edges,
            vertices=self.vertices,
            degree_profile=tuple((v, 2) for v in sorted(self.order)),
            simple=True,
        )


def grow(
    inst: CompleteInstance,
    cand: FrontierCandidate,
    i: int,
    apex: int,
    weight: float,
) -> FrontierCandidate:
    """Ring-sum the triangle on walk edge (order[i], order[i+1]) and ``apex``.

    ``apex`` must lie off the cycle, so the triangle touches it and the sum
    is the simple cycle with ``apex`` inserted between the edge's two ends.
    ``weight`` is the new cycle's weight, as the caller computed it.
    """
    order = cand.order
    u, v = order[i], order[(i + 1) % len(order)]
    shared = inst.edge_id(u, v)
    mask = (
        cand.edges.mask
        ^ (1 << shared)
        ^ (1 << inst.edge_id(u, apex))
        ^ (1 << inst.edge_id(v, apex))
    )
    tri = tuple(sorted((u, v, apex)))
    return FrontierCandidate(
        order=order[: i + 1] + (apex,) + order[i + 1 :],
        edges=EdgeSet(inst.m, mask),
        weight=weight,
        parent=cand,
        step=TraceStep(
            triangle=tri,
            triangle_id=triangle_index(inst.n, *tri),
            shared_edge=shared,
            weight=weight,
        ),
    )


def tour_result(
    inst: CompleteInstance,
    cand: FrontierCandidate,
    history: list[FrontierSnapshot] | None = None,
) -> TourResult:
    """The tour ``cand`` spans, with its trace rebuilt from the parent chain."""
    chain = [cand]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    root = chain[-1]
    trace = TourTrace(
        seed=root.edges,
        seed_vertices=root.order,
        seed_weight=root.weight,
        steps=tuple(c.step for c in reversed(chain) if c.step is not None),
        frontier_history=tuple(history) if history is not None else None,
    )
    seq = cycle_vertex_sequence(cand.edges, inst.endpoints)
    return TourResult(
        sequence=seq, edges=cand.edges, weight=cand.weight, trace=trace, n=inst.n
    )


@dataclass(frozen=True)
class Frontier:
    """Equal-length candidate cycles, sorted by (weight, edge ids)."""

    candidates: tuple[FrontierCandidate, ...]
    length: int
    beam: int | None

    @property
    def weight(self) -> float:
        return self.candidates[0].weight

    def snapshot(self) -> FrontierSnapshot:
        return FrontierSnapshot(
            length=self.length,
            weight=self.weight,
            edge_sets=tuple(c.edges for c in self.candidates),
        )


def _seed_candidate(
    inst: CompleteInstance, quad0: tuple[int, int, int, int], shape: int
) -> FrontierCandidate:
    """Materialise one scanned seed (0-based quad, shape index)."""
    vs = tuple(v + 1 for v in quad0)
    order = tuple(vs[i] for i in _QUAD_WALKS[shape])
    ids = [inst.edge_id(order[i], order[(i + 1) % 4]) for i in range(4)]
    return FrontierCandidate(
        order=order,
        edges=EdgeSet.of(ids, inst.m),
        weight=_shape_weight(inst.weights, vs, shape),
    )


def _scan_quads(inst: CompleteInstance):
    """Yield per-block arrays for the quad scan.

    For each pivot b and chunk of vertices a < b the block matrix holds,
    at entry (x, y) over the region idx = (b+1 .. n-1):

        out[a, x, y] = w(idx_x, idx_y) + w(b, idx_x) + w(a, idx_y) + w(a, b)

    Read with x != y this is the weight of the 4-cycle a-b-idx_x-idx_y, so
    the upper triangle covers walk a-b-c-d and the lower covers a-b-d-c.
    The separable vector h[x] = w(a, idx_x) + w(b, idx_x) gives the third
    walk a-c-b-d as h[x] + h[y].
    """
    n = inst.n
    w = inst.weights
    for b in range(1, n - 2):
        idx = np.arange(b + 1, n)
        mp = idx.size
        sub = w[np.ix_(idx, idx)].copy()
        np.fill_diagonal(sub, np.inf)
        base = sub + w[b, idx][:, None]
        rows = w[:b][:, idx]
        wab = w[:b, b]
        chunk = max(1, _CHUNK_CELLS // (mp * mp))
        for lo in range(0, b, chunk):
            hi = min(b, lo + chunk)
            out = base[None, :, :] + rows[lo:hi][:, None, :]
            h = rows[lo:hi] + w[b, idx][None, :]
            yield b, lo, idx, out, h, wab[lo:hi]


def _seed_scan_all_ties(inst: CompleteInstance) -> list[tuple[tuple, int]]:
    """All (quad, shape) pairs achieving the global minimum 4-cycle weight."""
    best = np.inf
    hits: list[tuple[tuple, int]] = []
    for b, lo, idx, out, h, wab in _scan_quads(inst):
        mins = out.min(axis=(1, 2))
        cand = mins + wab
        p2 = np.partition(h, 1, axis=1)
        s3 = p2[:, 0] + p2[:, 1]
        block_best = min(cand.min(), s3.min())
        if block_best > best:
            continue
        if block_best < best:
            best = block_best
            hits = []
        for i in range(out.shape[0]):
            a = lo + i
            if cand[i] == best:
                for x, y in np.argwhere(out[i] == mins[i]):
                    c, d = int(idx[x]), int(idx[y])
                    if x < y:
                        hits.append(((a, b, c, d), 0))
                    else:
                        hits.append(((a, b, d, c), 1))
            if s3[i] == best:
                pair = np.add.outer(h[i], h[i])
                for x, y in np.argwhere(np.triu(pair == best, k=1)):
                    hits.append(((a, b, int(idx[x]), int(idx[y])), 2))
    return hits


def _seed_scan_beam(inst: CompleteInstance, beam: int) -> list[tuple[tuple, int]]:
    """(quad, shape) pairs for the beam rule over per-quad minima."""
    pool: list[tuple[float, tuple[int, int, int, int]]] = []
    threshold = np.inf

    def prune() -> None:
        nonlocal threshold, pool
        if len(pool) <= beam:
            return
        pool.sort(key=lambda t: t[0])
        cut = pool[beam - 1][0]
        pool = [p for p in pool if p[0] <= cut]
        threshold = cut

    for b, lo, idx, out, h, wab in _scan_quads(inst):
        qf = np.minimum(out, out.transpose(0, 2, 1))
        for i in range(out.shape[0]):
            a = lo + i
            q = qf[i] + wab[i]
            np.minimum(q, np.add.outer(h[i], h[i]), out=q)
            iu = np.triu_indices(q.shape[0], k=1)
            vals = q[iu]
            take = np.nonzero(vals <= threshold)[0]
            for t in take:
                x, y = int(iu[0][t]), int(iu[1][t])
                pool.append((float(vals[t]), (a, b, int(idx[x]), int(idx[y]))))
            if len(pool) > 8 * beam:
                prune()
    prune()

    hits: list[tuple[tuple, int]] = []
    w = inst.weights
    for qmin, quad0 in sorted(pool, key=lambda t: t[0]):
        vs = tuple(v + 1 for v in quad0)
        for s in range(3):
            if _shape_weight(w, vs, s) == qmin:
                hits.append((quad0, s))
    return hits


def seed_frontier(inst: CompleteInstance, beam: BeamSpec = None) -> Frontier:
    """Frontier of length 4: cheapest 4-cycle per quad, then the beam rule."""
    if inst.n < 4:
        raise DomainError(f"seeding needs n >= 4, got n={inst.n}")
    width = parse_beam(beam)
    if width is None:
        raw = _seed_scan_all_ties(inst)
    else:
        raw = _seed_scan_beam(inst, width)
    cands = sorted(
        {c.edges: c for c in (_seed_candidate(inst, q, s) for q, s in raw)}.values(),
        key=FrontierCandidate.sort_key,
    )
    return Frontier(candidates=_apply_beam(cands, width), length=4, beam=width)


def _apply_beam(
    cands: list[FrontierCandidate], width: int | None
) -> tuple[FrontierCandidate, ...]:
    """Trim a sorted candidate list to the beam (cutoff ties kept)."""
    if not cands:
        raise AssertionError("empty candidate pool")
    if width is None:
        best = cands[0].weight
        return tuple(c for c in cands if c.weight == best)
    if len(cands) <= width:
        return tuple(cands)
    cut = cands[width - 1].weight
    return tuple(c for c in cands if c.weight <= cut)


def extend_frontier(inst: CompleteInstance, frontier: Frontier) -> Frontier:
    """Grow every candidate by one vertex and keep the cheapest results.

    Each touching triangle is one walk edge (u, v) of a candidate paired
    with one uncovered apex; the new weight is
    candidate + (w(u,apex) + w(v,apex)) - w(u,v).  Weight classes are taken
    cheapest first: "all-ties" stops after the first, an integer beam B
    once at least B distinct cycles are in hand.  New cycles arising from
    several decompositions (dubl-cycles) collapse to a single candidate;
    the surviving lineage is the first in scan order (class, then
    candidate).
    """
    n = inst.n
    if frontier.length >= n:
        raise DomainError("frontier already spans all vertices")

    w = inst.weights
    blocks = []
    for cand in frontier.candidates:
        walk = np.array(cand.order + cand.order[:1]) - 1
        u0, v0 = walk[:-1], walk[1:]
        free = np.ones(n, dtype=bool)
        free[u0] = False
        outs = np.flatnonzero(free)
        vals = cand.weight + ((w[u0][:, outs] + w[v0][:, outs]) - w[u0, v0][:, None])
        blocks.append((cand, outs, vals))
    if frontier.beam is None:
        classes = [min(vals.min() for _, _, vals in blocks)]
    else:
        classes = np.unique(np.concatenate([vals.ravel() for _, _, vals in blocks]))

    merged: dict[EdgeSet, FrontierCandidate] = {}
    for cls in classes:
        weight = float(cls)
        for cand, outs, vals in blocks:
            for i, oi in np.argwhere(vals == cls):
                child = grow(inst, cand, int(i), int(outs[oi]) + 1, weight)
                merged.setdefault(child.edges, child)
        if frontier.beam is None or len(merged) >= frontier.beam:
            break

    cands = sorted(merged.values(), key=FrontierCandidate.sort_key)
    return Frontier(
        candidates=_apply_beam(cands, frontier.beam),
        length=frontier.length + 1,
        beam=frontier.beam,
    )


def solve(
    inst: CompleteInstance, beam: BeamSpec = None, trace: bool = False
) -> TourResult:
    """Run the full heuristic and return the best Hamiltonian cycle found.

    Ties for the final answer break to the lexicographically smallest edge
    set.  The result's trace records the seed quad and every triangle
    summed along the winning lineage; with ``trace=True`` it also keeps a
    snapshot of each round's frontier.
    """
    n = inst.n
    if n == 3:
        weight = inst.weight(1, 2) + inst.weight(1, 3) + inst.weight(2, 3)
        root = FrontierCandidate((1, 2, 3), EdgeSet.of((1, 2, 3), inst.m), weight)
        frontier = Frontier(candidates=(root,), length=3, beam=None)
    else:
        frontier = seed_frontier(inst, beam)
    history = [frontier.snapshot()] if trace else None
    while frontier.length < n:
        frontier = extend_frontier(inst, frontier)
        if history is not None:
            history.append(frontier.snapshot())
    return tour_result(inst, frontier.candidates[0], history)


class OpCounts(NamedTuple):
    """Closed-form operation counts behind the O(n^4) bound."""

    k_c: int
    k_4: int
    f_n: Fraction


def op_count_estimate(n: int) -> OpCounts:
    """Exact counts: triangles, 4-cycles, and total build effort.

    k_c = n(n-1)(n-2)/6, k_4 = 3*C(n,4), f_n = (7n^4 - 16n^3)/24; the last
    is kept as an exact fraction since it is not integral for every n.
    """
    if n < 4:
        raise DomainError(f"op counts need n >= 4, got {n}")
    k_c = triangle_count(n)
    k_4 = 3 * math.comb(n, 4)
    f_n = Fraction(7 * n**4 - 16 * n**3, 24)
    return OpCounts(k_c=k_c, k_4=k_4, f_n=f_n)
