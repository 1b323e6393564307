"""Polynomial TSP heuristic: minimum 4-cycle seeding, touching-triangle growth.

The search keeps a frontier of minimum-weight simple cycles of the current
length.  Seeding picks, over every 4-vertex subset, the cheapest of its
three 4-cycles; each extension round ring-sums every touching triangle
into every candidate (one shared cycle edge plus one uncovered apex) and
keeps the cheapest results.  After n-4 rounds the frontier holds
Hamiltonian cycles.  A candidate is a closed vertex walk plus its sorted
edge ids, and summing in a touching triangle is :func:`grow`: insert the
apex between the two ends of one walk edge.
:func:`~ringtour.hamilton.build_hamiltonian` grows its cycle with the
same step.

Beam policy: a beam width B keeps the B cheapest candidates of each round
plus every candidate tied at the cutoff.  The default "all-ties" is width
1, which keeps exactly the candidates tied at the round minimum and
reproduces the worked desk examples.  Weight comparisons are exact;
instances with integral weights (all file formats round or carry
integers) make every sum exactly representable.

Seeding is an O(n^3) wedge scan: a 4-cycle a-x-c-y is the two 2-paths
a-x-c and a-y-c across its diagonal (a, c), so the cheapest cycle on each
diagonal is the sum of its two cheapest wedges.

An extension round is one table of insertion costs over the whole
frontier, one row per (candidate, walk edge) and one column per free
apex, as in cheapest insertion, filled by one gather per block of
candidates.  The hits of each weight class taken are keyed by the child's
sorted edge ids straight from the table's indices, and duplicates merge
on those keys before :func:`grow` builds only the kept children.  Past
reading each candidate's walk and weight, a round's Python work is one
short step per kept child.  Trace steps are not stored on the
candidates: :func:`tour_result` reads them back off the winning lineage's
walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .edgesets import Cycle, EdgeSet
from .errors import DomainError
from .graphs import CompleteInstance
from .isocycles import triangle_count, triangle_index
from .tours import TourResult, TourTrace, TraceStep, cycle_vertex_sequence

BeamSpec = int | str | None


def parse_beam(beam: BeamSpec) -> int:
    """Normalise a beam spec to its width; None and "all-ties" are width 1."""
    if beam in (None, "all-ties"):
        return 1
    if isinstance(beam, str):
        if beam.isdigit() and int(beam) >= 1:
            return int(beam)
        raise DomainError(f"beam must be a positive integer or 'all-ties', got {beam!r}")
    if isinstance(beam, int) and beam >= 1:
        return beam
    raise DomainError(f"beam must be a positive integer or 'all-ties', got {beam!r}")


def _wedge_weight(w: np.ndarray, walk: tuple[int, int, int, int]) -> float:
    """Weight of the 4-cycle a-x-c-y (1-based walk) as wedge a-x-c plus a-y-c.

    This is the seed scan's summation order, so recomputed weights compare
    exactly against scanned ones.
    """
    a, x, c, y = (v - 1 for v in walk)
    return float((w[a, x] + w[x, c]) + (w[a, y] + w[y, c]))


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
    a, b, c, d = vs
    cands = [
        FrontierCandidate.root(inst, walk, _wedge_weight(inst.weights, walk))
        for walk in ((a, b, c, d), (a, b, d, c), (a, c, b, d))
    ]
    return QuadCycleTriple(
        quad=vs,
        cycles=tuple(cand.edges for cand in cands),
        weights=tuple(cand.weight for cand in cands),
        walks=tuple(cand.order for cand in cands),
    )


@dataclass(frozen=True)
class FrontierCandidate:
    """A simple cycle as a closed vertex walk, linked to the cycle it grew from.

    ``ids``, the walk's sorted edge ids, merges duplicates and breaks weight
    ties; ``edges`` rebuilds the edge set in the ``m`` edges of K_n.
    Only a root carries a ``step``, the triangle it starts as, if any; the
    step that made a grown cycle from its ``parent`` is read off the two
    walks by :func:`tour_result`.
    """

    order: tuple[int, ...]
    ids: tuple[int, ...]
    weight: float
    m: int
    # Left out of == and repr, which would otherwise recurse down the chain.
    parent: FrontierCandidate | None = field(default=None, compare=False, repr=False)
    step: TraceStep | None = None

    @classmethod
    def root(
        cls,
        inst: CompleteInstance,
        order: tuple[int, ...],
        weight: float,
        step: TraceStep | None = None,
    ) -> FrontierCandidate:
        """A candidate with no parent, its key read off the walk ``order``."""
        ids = sorted(inst.edge_id(u, v) for u, v in zip(order, order[1:] + order[:1]))
        return cls(order, tuple(ids), weight, inst.m, step=step)

    @property
    def edges(self) -> EdgeSet:
        return EdgeSet.of(self.ids, self.m)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.order)

    def sort_key(self) -> tuple:
        return (self.weight, self.ids)

    def as_cycle(self) -> Cycle:
        return Cycle(
            edges=self.edges,
            vertices=self.vertices,
            degree_profile=tuple((v, 2) for v in sorted(self.order)),
            simple=True,
        )


def grow(
    cand: FrontierCandidate,
    i: int,
    apex: int,
    weight: float,
    swap: Sequence[int],
) -> FrontierCandidate:
    """Ring-sum the triangle on walk edge (order[i], order[i+1]) and ``apex``.

    ``apex`` must lie off the cycle, so the triangle touches it and the sum
    is the simple cycle with ``apex`` inserted between the edge's two ends.
    ``weight`` is the new cycle's weight, and ``swap`` holds the ids of the
    split edge and of the two apex edges, as the caller computed them.
    Editing the parent's ids shares their int objects with the child.
    """
    split, *apex_edges = swap
    ids = list(cand.ids)
    ids.remove(split)
    ids += apex_edges
    ids.sort()
    order = cand.order
    return FrontierCandidate(
        order=order[: i + 1] + (apex,) + order[i + 1 :],
        ids=tuple(ids),
        weight=weight,
        m=cand.m,
        parent=cand,
    )


def _grown_step(
    inst: CompleteInstance, parent: FrontierCandidate, child: FrontierCandidate
) -> TraceStep:
    """The triangle :func:`grow` summed into ``parent`` to make ``child``.

    The child's walk is the parent's with the apex inserted after position
    i, so the apex sits at the first position where the walks differ (the
    end, if the apex closes the walk) and the walk edge it split is its two
    neighbours in the child.
    """
    size = len(parent.order)
    p = next((k for k in range(1, size) if parent.order[k] != child.order[k]), size)
    u, apex, v = child.order[p - 1], child.order[p], child.order[(p + 1) % (size + 1)]
    tri = tuple(sorted((u, v, apex)))
    return TraceStep(
        triangle=tri,
        triangle_id=triangle_index(inst.n, *tri),
        shared_edge=inst.edge_id(u, v),
        weight=child.weight,
    )


def tour_result(
    inst: CompleteInstance,
    cand: FrontierCandidate,
    history: list[Frontier] | None = None,
) -> TourResult:
    """The tour ``cand`` spans, with its trace rebuilt from the parent chain.

    The trace's steps are the root's own step, if it has one, then one
    step per :func:`grow` along the chain, each derived from the walks of
    its parent and child.
    """
    chain = [cand]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    chain.reverse()
    root = chain[0]
    steps = [root.step] if root.step is not None else []
    steps += (_grown_step(inst, a, b) for a, b in zip(chain, chain[1:]))
    trace = TourTrace(
        seed=root.edges,
        seed_vertices=root.order,
        seed_weight=root.weight,
        steps=tuple(steps),
        frontier_history=tuple(history) if history is not None else None,
    )
    edges = cand.edges
    seq = cycle_vertex_sequence(edges, inst.endpoints)
    return TourResult(
        sequence=seq, edges=edges, weight=cand.weight, trace=trace, n=inst.n
    )


@dataclass(frozen=True)
class Frontier:
    """Equal-length candidate cycles, sorted by (weight, edge ids)."""

    candidates: tuple[FrontierCandidate, ...]
    length: int
    beam: int

    @property
    def weight(self) -> float:
        return self.candidates[0].weight

    @property
    def edge_sets(self) -> tuple[EdgeSet, ...]:
        return tuple(c.edges for c in self.candidates)


def _wedge_rows(w: np.ndarray, a: int, cs: np.ndarray) -> np.ndarray:
    """Rows ``cs`` of the wedge matrix of smallest vertex ``a`` (0-based).

    Entry (c, x) over x = a+1 .. n-1 is w(a, x) + w(x, c), the 2-path
    a-x-c across the diagonal (a, c); it is inf where x == c.
    """
    xs = np.arange(a + 1, len(w))
    rows = w[a, xs] + w[np.ix_(cs, xs)]
    rows[np.arange(len(cs)), cs - (a + 1)] = np.inf
    return rows


def _seed_scan(inst: CompleteInstance, width: int) -> list[FrontierCandidate]:
    """Each quad's cheapest 4-cycles, as far as the beam rule can keep them.

    The cycle a-x-c-y whose smallest vertex is a and whose opposite vertex
    is c is the wedge sum W[c, x] + W[c, y] with x < y, so every 4-cycle is
    scanned once.  Pass 1 takes each diagonal's cheapest cycle from its
    two cheapest wedges and cuts at the k-th cheapest diagonal, k = 3B - 2
    for beam B (no cut if there are fewer than k diagonals).  A quad
    a < b < c < d has exactly three anchor diagonals (a, b), (a, c) and
    (a, d), one per cycle, so k cycles on distinct diagonals lie on at
    least ceil(k/3) = B quads, and the beam cuts no higher.  Beam 1 cuts at
    the global minimum.  Pass 2 lists every cycle at or below the cut and
    keeps each quad's minimum.
    """
    w = inst.weights
    n = inst.n
    diag = []
    for a in range(n - 3):
        part = np.partition(_wedge_rows(w, a, np.arange(a + 1, n)), 1, axis=1)
        diag.append(part[:, 0] + part[:, 1])
    mins = np.concatenate(diag)
    k = 3 * width - 2
    cut = np.partition(mins, k - 1)[k - 1] if k <= mins.size else np.inf

    hits = []
    for a, dmin in enumerate(diag):
        cs = a + 1 + np.flatnonzero(dmin <= cut)
        for c, row in zip(cs, _wedge_rows(w, a, cs)):
            pair = row[:, None] + row[None, :]
            keep = np.triu((pair <= cut) & np.isfinite(pair), k=1)
            for x, y in np.argwhere(keep):
                walk = (a + 1, a + 2 + int(x), int(c) + 1, a + 2 + int(y))
                hits.append((float(pair[x, y]), walk))
    best: dict[tuple[int, ...], float] = {}
    for weight, walk in hits:
        quad = tuple(sorted(walk))
        best[quad] = min(weight, best.get(quad, weight))
    return [
        FrontierCandidate.root(inst, walk, weight)
        for weight, walk in hits
        if weight == best[tuple(sorted(walk))]
    ]


def seed_frontier(inst: CompleteInstance, beam: BeamSpec = None) -> Frontier:
    """Frontier of length 4: cheapest 4-cycle per quad, then the beam rule."""
    if inst.n < 4:
        raise DomainError(f"seeding needs n >= 4, got n={inst.n}")
    width = parse_beam(beam)
    cands = sorted(_seed_scan(inst, width), key=FrontierCandidate.sort_key)
    return Frontier(candidates=_apply_beam(cands, width), length=4, beam=width)


def _apply_beam(
    cands: list[FrontierCandidate], width: int
) -> tuple[FrontierCandidate, ...]:
    """Trim a sorted candidate list to the beam (cutoff ties kept)."""
    if not cands:
        raise AssertionError("empty candidate pool")
    cut = cands[min(width, len(cands)) - 1].weight
    return tuple(c for c in cands if c.weight <= cut)


def _weight_classes(vals: np.ndarray) -> Iterator[np.float64]:
    """Distinct child weights, cheapest first; the minimum needs no sort."""
    yield vals.min()
    yield from np.unique(vals)[1:]


def _edge_ids(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """:func:`~ringtour.graphs.edge_id` over arrays of 0-based endpoints."""
    a = np.minimum(x, y).astype(np.int64)
    return a * (2 * n - 3 - a) // 2 + np.maximum(x, y)


# Cells of ``w`` one gather reads while filling a round's table.  A block
# spans hundreds of short walks, and its index and value copies (0.5 MB
# each) stay out of peak RSS; one gather over the whole frontier would copy
# as many cells as the table holds, hundreds of MB at n = 400.
_GATHER_CELLS = 2**16


def _insertion_table(
    inst: CompleteInstance, cands: tuple[FrontierCandidate, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A round's closed walks (F, L+1), free vertices (F, n-L) and table.

    Walk columns k and k+1 are walk edge k (0-based); free vertices are
    ascending.  Table entry (f, k, j) is cand.weight + ((w(u,o) + w(v,o)) -
    w(u,v)) for walk edge k = (u, v) and free vertex j = o, summed in that
    order so ties are exact.  Each block of candidates, at most
    ``_GATHER_CELLS`` endpoint cells (one candidate at least), is one gather.
    """
    n, size, length = inst.n, len(cands), len(cands[0].order)
    w = inst.weights
    walks = np.array([c.order + c.order[:1] for c in cands], dtype=np.int32) - 1
    free = np.ones((size, n), dtype=bool)
    free[np.arange(size)[:, None], walks] = False
    outs = np.nonzero(free)[1].reshape(size, n - length)

    vals = np.empty((size, length, n - length))
    flat, rows = w.ravel(), walks.astype(np.intp) * n
    step = max(1, _GATHER_CELLS // ((length + 1) * (n - length)))
    for lo in range(0, size, step):
        hi = lo + step
        ends = flat[rows[lo:hi, :, None] + outs[lo:hi, None, :]]
        np.add(ends[:, :-1], ends[:, 1:], out=vals[lo:hi])
    vals -= w[walks[:, :-1], walks[:, 1:]][:, :, None]
    vals += np.array([c.weight for c in cands])[:, None, None]
    return walks, outs, vals


def extend_frontier(inst: CompleteInstance, frontier: Frontier) -> Frontier:
    """Grow every candidate by one vertex and keep the cheapest results.

    Each touching triangle is one walk edge (u, v) of a candidate paired
    with one uncovered apex; the new weight is
    candidate + (w(u,apex) + w(v,apex)) - w(u,v).  A round is one table of
    these insertion costs over the whole frontier, indexed by (candidate,
    walk edge, apex), so its row-major order is the scan order.  Weight
    classes are taken cheapest first until at least B distinct cycles are
    in hand for beam B, so beam 1 ("all-ties") takes only the first.  The
    hits of a class are keyed by the child's sorted edge ids, computed
    from the table's indices: new cycles arising from several
    decompositions (dubl-cycles) collapse to the first in scan order
    (class, then candidate), and only those children are built with
    :func:`grow`, from the edge ids the keys were made of.

    No beam trim follows: before the last class taken fewer than B cycles
    were in hand, all cheaper than that class, so the B-th cheapest child
    has the last class's weight and the cutoff keeps every child.
    """
    n = inst.n
    length = frontier.length
    if length >= n:
        raise DomainError("frontier already spans all vertices")

    cands = frontier.candidates
    walks, outs, vals = _insertion_table(inst, cands)

    merged: dict[bytes, FrontierCandidate] = {}
    for cls in _weight_classes(vals):
        f, i, o = np.nonzero(vals == cls)
        hits = np.arange(len(f))
        parents = walks[f]
        apex = outs[f, o]
        # The child's edge ids: the parent's, with edge i replaced by one
        # apex edge and the other appended; sorted, each row is its key, in
        # the narrowest dtype that holds every id.
        keys = np.empty((len(f), length + 1), dtype=np.min_scalar_type(inst.m))
        keys[:, :-1] = _edge_ids(parents[:, :-1], parents[:, 1:], n)
        split = keys[hits, i]
        near = _edge_ids(parents[hits, i], apex, n)
        far = _edge_ids(parents[hits, i + 1], apex, n)
        keys[hits, i] = near
        keys[:, -1] = far
        keys.sort(axis=1)
        key_bytes = keys.view(np.dtype((np.void, keys.itemsize * (length + 1))))
        # Each distinct key's first hit, in C: filled in reverse, the first
        # hit is the last write.
        backwards = reversed(key_bytes.ravel().tolist())
        firsts = dict(zip(backwards, range(len(f) - 1, -1, -1)))
        rows = np.fromiter(firsts.values(), dtype=np.intp, count=len(firsts))
        # Per first hit: candidate, walk edge, apex, then the ids of the
        # split edge and of the two apex edges that replace it.
        cols = np.stack([a[rows] for a in (f, i, apex + 1, split, near, far)], axis=1)
        weight = float(cls)
        for key, (h, edge, vertex, *swap) in zip(firsts, cols.tolist()):
            if key not in merged:
                merged[key] = grow(cands[h], edge, vertex, weight, swap)
        if len(merged) >= frontier.beam:
            break

    children = sorted(merged.values(), key=FrontierCandidate.sort_key)
    return Frontier(candidates=tuple(children), length=length + 1, beam=frontier.beam)


def solve(
    inst: CompleteInstance, beam: BeamSpec = None, trace: bool = False
) -> TourResult:
    """Run the full heuristic and return the best Hamiltonian cycle found.

    Ties for the final answer break to the lexicographically smallest edge
    set.  The result's trace records the seed quad and every triangle
    summed along the winning lineage; with ``trace=True`` it also keeps
    each round's frontier.
    """
    n = inst.n
    if n == 3:
        weight = inst.weight(1, 2) + inst.weight(1, 3) + inst.weight(2, 3)
        root = FrontierCandidate.root(inst, (1, 2, 3), weight)
        frontier = Frontier(candidates=(root,), length=3, beam=parse_beam(beam))
    else:
        frontier = seed_frontier(inst, beam)
    history = [frontier] if trace else None
    while frontier.length < n:
        frontier = extend_frontier(inst, frontier)
        if history is not None:
            history.append(frontier)
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
