"""Polynomial TSP heuristic: minimum 4-cycle seeding, touching-triangle growth.

The search keeps a frontier of minimum-weight simple cycles of the current
length.  Seeding picks, over every 4-vertex subset, the cheapest of its
three 4-cycles; each extension round ring-sums every touching triangle
into every candidate (one shared cycle edge plus one uncovered apex) and
keeps the cheapest results.  After n-4 rounds the frontier holds
Hamiltonian cycles.  Summing in a touching triangle inserts the apex
between the two ends of one walk edge, as in cheapest insertion.

A :class:`Frontier` is three arrays, one row per cycle: its closed vertex
walk, its sorted edge ids (the key that merges duplicates and breaks
weight ties) and its weight.  Each round also records its lineage, per
row the parent row, the walk position the apex went in after, and the
apex, and :func:`tour_result` replays the winning row's lineage into the
tour and its trace steps.  :func:`~ringtour.hamilton.build_hamiltonian`
records the same lineage and goes through the same replay.  A cycle
enters a frontier only as array rows, and leaves it as the algebra's
:class:`~ringtour.edgesets.Cycle` only when the frontier's ``candidates``
are read.

Beam policy: a beam width B keeps the B cheapest candidates of each round
plus every candidate tied at the cutoff.  The default "all-ties" is width
1, which keeps exactly the candidates tied at the round minimum and
reproduces the worked desk examples.  Weight comparisons are exact;
instances with integral weights (all file formats round or carry
integers) make every sum exactly representable.

Seeding is an O(n^3) wedge scan: a 4-cycle a-x-c-y is the two 2-paths
a-x-c and a-y-c across its diagonal (a, c), so the cheapest cycle on each
diagonal is the sum of its two cheapest wedges.  Each smallest vertex a's
wedges are one row slice of the weights plus a broadcast add, and a row's
two cheapest come from an argmin, a mask and a min.

An extension round is one table of insertion costs over the whole
frontier, one row per (candidate, walk edge) and one column per free
apex, as in cheapest insertion, filled by one gather per block of
candidates.  The hits of each weight class taken are the table's flat
indices, split back into (candidate, walk edge, apex) in row-major scan
order, and are keyed by the child's sorted edge ids straight from those
indices; duplicates merge on the keys, and one gather builds the kept
children's walks.  A round builds no Python object per child.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .edgesets import Cycle, EdgeSet
from .errors import DomainError
from .graphs import CompleteInstance, edge_id_table
from .isocycles import triangle_count, triangle_index
from .tours import TourResult, TourTrace, TraceStep, cycle_vertex_sequence

BeamSpec = int | str | None


def parse_beam(beam: BeamSpec) -> int:
    """Normalise a beam spec to its width; None and "all-ties" are width 1."""
    if beam in (None, "all-ties"):
        return 1
    width = int(beam) if isinstance(beam, str) and beam.isdecimal() else beam
    # bool is Integral, but True is not a width; numpy's bool_ is not Integral.
    if isinstance(width, Integral) and not isinstance(width, bool) and width >= 1:
        return int(width)
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
    walks = ((a, b, c, d), (a, b, d, c), (a, c, b, d))
    return QuadCycleTriple(
        quad=vs,
        cycles=tuple(_walk_edges(inst, walk) for walk in walks),
        weights=tuple(_wedge_weight(inst.weights, walk) for walk in walks),
        walks=walks,
    )


class Lineage(NamedTuple):
    """How one cycle grew: its root walk and weight, then one growth per step.

    Each growth is (i, apex, weight): ``apex`` went in after walk position
    i, splitting walk edge (walk[i], walk[i+1]), and the cycle weighs
    ``weight`` after it.
    """

    walk: tuple[int, ...]
    weight: float
    growths: tuple[tuple[int, int, float], ...]


class Frontier:
    """Equal-length simple cycles, sorted by (weight, edge ids), as arrays.

    Row r is one cycle: ``walks[r]`` its vertex walk (1-based, int32),
    ``keys[r]`` its sorted edge ids (in the dtype of
    ``edge_id_table``) and ``weights[r]`` its weight; the rows come in
    frontier order.  A grown frontier also keeps its lineage: the ``root``
    frontier it grew from and, per extension round, four arrays over that
    round's rows (parent row, walk position the apex went in after, apex,
    weight), but no walks or keys.

    The arrays are the only way in, and a row's weight, walk and ids are
    read off them.  ``candidates`` builds every row's simple
    :class:`~ringtour.edgesets.Cycle` (in the ``m`` edges of K_n) when one
    is first indexed or iterated; its ``len`` builds none.
    """

    def __init__(self, walks, keys, weights, beam, m, root=None, rounds=()):
        self.walks, self.keys, self.weights = walks, keys, weights
        self.length = walks.shape[1]
        self.beam, self.m = beam, m
        self._root, self._rounds = root, rounds
        self._built: tuple[Cycle, ...] | None = None

    @property
    def candidates(self) -> Sequence[Cycle]:
        return _Candidates(self)

    @property
    def weight(self) -> float:
        return float(self.weights[0])

    def lineage(self, row: int = 0) -> Lineage:
        """Row ``row``'s growth from its root, read back round by round."""
        growths = []
        for rows, splits, apexes, weights in reversed(self._rounds):
            growths.append((int(splits[row]), int(apexes[row]), float(weights[row])))
            row = int(rows[row])
        root = self._root or self
        return Lineage(
            tuple(root.walks[row].tolist()),
            float(root.weights[row]),
            tuple(reversed(growths)),
        )


class _Candidates(Sequence):
    """A frontier's rows as cycles, all built on the first item read.

    The built tuple is kept on the frontier, which holds no reference back,
    so a frontier is freed as soon as the round after it is done with it.
    """

    def __init__(self, frontier: Frontier):
        self._frontier = frontier

    def __len__(self) -> int:
        return len(self._frontier.weights)

    def __getitem__(self, k):
        f = self._frontier
        if f._built is None:
            rows = zip(f.keys.tolist(), f.walks.tolist())
            f._built = tuple(Cycle.simple_cycle(ids, walk, f.m) for ids, walk in rows)
        return f._built[k]


def tour_result(
    inst: CompleteInstance,
    lineage: Lineage,
    history: list[Frontier] | None = None,
    start: TraceStep | None = None,
) -> TourResult:
    """The tour ``lineage`` grows, with its trace replayed growth by growth.

    The trace's steps are ``start``, if given, then one step per growth:
    the triangle of the apex and the walk edge it split.
    """
    walk = list(lineage.walk)
    steps = [] if start is None else [start]
    weight = lineage.weight
    for i, apex, weight in lineage.growths:
        u, v = walk[i], walk[(i + 1) % len(walk)]
        tri = tuple(sorted((u, v, apex)))
        split = inst.edge_id(u, v)
        steps.append(TraceStep(tri, triangle_index(inst.n, *tri), split, weight))
        walk.insert(i + 1, apex)
    trace = TourTrace(
        seed=_walk_edges(inst, lineage.walk),
        seed_vertices=lineage.walk,
        seed_weight=lineage.weight,
        steps=tuple(steps),
        frontier_history=tuple(history) if history is not None else None,
    )
    edges = _walk_edges(inst, walk)
    seq = cycle_vertex_sequence(edges, inst.endpoints)
    return TourResult(sequence=seq, edges=edges, weight=weight, trace=trace, n=inst.n)


def _walk_edges(inst: CompleteInstance, walk: Sequence[int]) -> EdgeSet:
    """The edge set of the closed walk ``walk``."""
    ends = zip(walk, [*walk[1:], walk[0]])
    return EdgeSet.of((inst.edge_id(u, v) for u, v in ends), inst.m)


def _wedge_rows(w: np.ndarray, a: int) -> np.ndarray:
    """The wedge matrix of smallest vertex ``a`` (0-based), a fresh array.

    Entry (c, x), both offset by a+1 over a+1 .. n-1, is w(a, x) + w(c, x),
    the 2-path a-x-c across the diagonal (a, c); it is inf where x == c.
    """
    rows = w[a, a + 1 :] + w[a + 1 :, a + 1 :]
    np.fill_diagonal(rows, np.inf)
    return rows


def _seed_scan(
    inst: CompleteInstance, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each quad's cheapest 4-cycles, as far as the beam rule can keep them.

    The cycle a-x-c-y whose smallest vertex is a and whose opposite vertex
    is c is the wedge sum W[c, x] + W[c, y] with x < y, so every 4-cycle is
    scanned once.  Pass 1 takes each diagonal's cheapest cycle from its
    two cheapest wedges: a's wedge rows are :func:`_wedge_rows`, the slice
    w[a, a+1:] added to w[a+1:, a+1:], and a row's cheapest wedge is its
    argmin, its second the min once that entry is masked.
    Pass 1 cuts at the k-th cheapest diagonal, k = 3B - 2
    for beam B (no cut if there are fewer than k diagonals).  A quad
    a < b < c < d has exactly three anchor diagonals (a, b), (a, c) and
    (a, d), one per cycle, so k cycles on distinct diagonals lie on at
    least ceil(k/3) = B quads, and the beam cuts no higher.  Beam 1 cuts at
    the global minimum.  Pass 2 lists every cycle at or below the cut,
    from the same wedge rows, and keeps each quad's minimum.  Returns the
    kept cycles' walks (1-based), sorted edge ids and weights, in scan
    order.
    """
    w = inst.weights
    n = inst.n
    diag = []
    for a in range(n - 3):
        rows = _wedge_rows(w, a)
        r = np.arange(len(rows))
        cheapest = rows.argmin(axis=1)
        m1 = rows[r, cheapest]
        rows[r, cheapest] = np.inf
        diag.append(m1 + rows.min(axis=1))
    mins = np.concatenate(diag)
    k = 3 * width - 2
    cut = np.partition(mins, k - 1)[k - 1] if k <= mins.size else np.inf

    walks, weights = [], []
    for a, dmin in enumerate(diag):
        cs = np.flatnonzero(dmin <= cut)
        if not cs.size:
            continue
        for c, row in zip(a + 1 + cs, _wedge_rows(w, a)[cs]):
            pair = row[:, None] + row[None, :]
            x, y = np.nonzero(np.triu((pair <= cut) & np.isfinite(pair), k=1))
            corners = (np.full_like(x, a), a + 1 + x, np.full_like(x, c), a + 1 + y)
            walks.append(np.column_stack(corners))
            weights.append(pair[x, y])
    walks = np.concatenate(walks)
    weights = np.concatenate(weights)
    # One integer per quad: its sorted vertices as base-n digits.
    quads = np.sort(walks, axis=1).astype(np.int64) @ n ** np.arange(3, -1, -1)
    _, quad = np.unique(quads, return_inverse=True)
    best = np.full(quad.max() + 1, np.inf)
    np.minimum.at(best, quad, weights)
    keep = weights == best[quad]
    walks = walks[keep]
    keys = edge_id_table(n)[walks, np.roll(walks, -1, axis=1)]
    keys.sort(axis=1)
    return (walks + 1).astype(np.int32), keys, weights[keep]


def seed_frontier(inst: CompleteInstance, beam: BeamSpec = None) -> Frontier:
    """Frontier of length 4: cheapest 4-cycle per quad, then the beam rule.

    The beam keeps the ``beam`` cheapest cycles in (weight, edge ids)
    order plus every cycle tied at the cutoff.
    """
    if inst.n < 4:
        raise DomainError(f"seeding needs n >= 4, got n={inst.n}")
    width = parse_beam(beam)
    walks, keys, weights = _seed_scan(inst, width)
    order = np.lexsort([*keys.T[::-1], weights])
    ranked = weights[order]
    cut = ranked[min(width, len(ranked)) - 1]
    order = order[: np.searchsorted(ranked, cut, side="right")]
    return Frontier(walks[order], keys[order], weights[order], width, inst.m)


def _weight_classes(vals: np.ndarray) -> Iterator[np.float64]:
    """Distinct child weights, cheapest first; the minimum needs no sort."""
    yield vals.min()
    yield from np.unique(vals)[1:]


# Cells of ``w`` one gather reads while filling a round's table.  A block
# spans hundreds of short walks, and its index and value copies (0.5 MB
# each) stay out of peak RSS; one gather over the whole frontier would copy
# as many cells as the table holds, hundreds of MB at n = 400.
_GATHER_CELLS = 2**16


def _insertion_table(
    inst: CompleteInstance, frontier: Frontier
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A round's closed walks (F, L+1), free vertices (F, n-L) and table.

    Walks are 0-based here, and columns k and k+1 are walk edge k; free
    vertices are ascending.  Table entry (f, k, j) is weights[f] + ((w(u,o)
    + w(v,o)) - w(u,v)) for walk edge k = (u, v) and free vertex j = o,
    summed in that order so ties are exact.  Each block of candidates, at
    most ``_GATHER_CELLS`` endpoint cells (one candidate at least), is one
    gather.
    """
    n, (size, length) = inst.n, frontier.walks.shape
    w = inst.weights
    walks = np.empty((size, length + 1), dtype=np.int32)
    walks[:, :-1] = frontier.walks
    walks[:, -1] = frontier.walks[:, 0]
    walks -= 1
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
    vals += frontier.weights[:, None, None]
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
    (class, then candidate), and a cycle an earlier class holds is not
    kept again.  The kept children are in class order, then key order; one
    gather builds their walks, each the parent's with its apex inserted,
    and the round's lineage records (parent row, split position, apex).

    No beam trim follows: before the last class taken fewer than B cycles
    were in hand, all cheaper than that class, so the B-th cheapest child
    has the last class's weight and the cutoff keeps every child.
    """
    n = inst.n
    length = frontier.length
    if length >= n:
        raise DomainError("frontier already spans all vertices")

    walks, outs, vals = _insertion_table(inst, frontier)
    ids = edge_id_table(n)
    dtype = ids.dtype
    walk_ids = ids[walks[:, :-1], walks[:, 1:]]
    # Big-endian bytes of a sorted id row compare as the ids do, so one
    # void item per row sorts and merges the rows as their keys.
    row_bytes = np.dtype((np.void, dtype.itemsize * (length + 1)))
    parts, held = [], None
    for cls in _weight_classes(vals):
        # The flat hit index (f * L + i) * (n - L) + o, split back; the
        # hits stay in row-major order, which is the scan order.
        f, o = np.divmod(np.flatnonzero(vals == cls), n - length)
        f, i = np.divmod(f, length)
        hits = np.arange(len(f))
        apex = outs[f, o]
        # The child's edge ids: the parent's, with walk edge i replaced by
        # one apex edge and the other appended; sorted, each row is its key.
        keys = np.empty((len(f), length + 1), dtype=dtype)
        keys[:, :-1] = walk_ids[f]
        keys[hits, i] = ids[walks[f, i], apex]
        keys[:, -1] = ids[walks[f, i + 1], apex]
        keys.sort(axis=1)
        # Each distinct key's first hit, in key order.
        row_keys = keys.astype(dtype.newbyteorder(">")).view(row_bytes).ravel()
        distinct, first = np.unique(row_keys, return_index=True)
        if held is not None:  # a cycle an earlier, cheaper class holds stays there
            fresh = ~np.isin(distinct, held)
            distinct, first = distinct[fresh], first[fresh]
            held = np.concatenate([held, distinct])
        else:
            held = distinct
        weights = np.full(len(first), cls)
        parts.append((f[first], i[first], apex[first] + 1, keys[first], weights))
        if len(held) >= frontier.beam:
            break

    rows, splits, apexes, keys, weights = (np.concatenate(col) for col in zip(*parts))
    pos = np.arange(length + 1)
    children = frontier.walks[rows[:, None], pos - (pos > splits[:, None])]
    children[np.arange(len(rows)), splits + 1] = apexes
    rounds = frontier._rounds + ((rows, splits, apexes, weights),)
    root = frontier._root or frontier
    return Frontier(children, keys, weights, frontier.beam, frontier.m, root, rounds)


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
        # one row: the triangle walk 1-2-3, whose edges are e1, e2 and e3
        tri = np.array([[1, 2, 3]], dtype=np.int32)
        weight = inst.weight(1, 2) + inst.weight(1, 3) + inst.weight(2, 3)
        width = parse_beam(beam)
        frontier = Frontier(tri, tri.astype(np.uint8), np.array([weight]), width, 3)
    else:
        frontier = seed_frontier(inst, beam)
    history = [frontier] if trace else None
    while frontier.length < n:
        frontier = extend_frontier(inst, frontier)
        if history is not None:
            history.append(frontier)
    return tour_result(inst, frontier.lineage(), history)


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
