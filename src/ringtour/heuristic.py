"""Polynomial TSP heuristic: minimum 4-cycle seeding, touching-triangle growth.

The search keeps a frontier of minimum-weight simple cycles of the current
length.  Seeding picks, over every 4-vertex subset, the cheapest of its
three 4-cycles; each extension round ring-sums every touching triangle
into every candidate (one shared cycle edge plus one uncovered apex) and
keeps the cheapest results.  After n-4 rounds the frontier holds
Hamiltonian cycles.  Summing in a touching triangle inserts the apex
between the two ends of one walk edge, as in cheapest insertion.

A :class:`Frontier` is two arrays, one row per cycle: its closed vertex
walk and its weight.  A row's key, its sorted edge ids, merges duplicates
and breaks weight ties; the frontier derives it from the walk
(``Frontier.keys``) only when it is read.  Each round also
records its lineage, per row the parent row, the walk position the apex
went in after and the apex; :func:`~ringtour.tours.tour_result` replays
it into the tour and its trace steps and derives each step's weight, as
it does the same lineage from
:func:`~ringtour.hamilton.build_hamiltonian`.  A cycle enters a frontier
only as array rows, and leaves it as the algebra's
:class:`~ringtour.edgesets.Cycle` only as an item of the frontier's
``candidates``, a row view that builds the cycles it is asked for.

Beam policy: a beam width B keeps the B cheapest candidates of each round
plus every candidate tied at the cutoff.  The default "all-ties" is width
1, which keeps exactly the candidates tied at the round minimum and
reproduces the worked desk examples.  Ties can number in the millions
(uniform weights, lattices), so after the beam rule every frontier, the
seed frontier too, keeps at most :data:`K` rows: its first K in (weight,
edge ids) order, the cheapest and, among equal weights, the smallest
sorted edge ids.
Weight comparisons are exact; integral weights make every sum exactly
representable.  Only ``--coords`` (rounded) and ``--random`` guarantee
them: ``--matrix`` and ``--upper`` also take decimals (ROADMAP item 3).

Seeding is a wedge scan bounded by its own running cut: a 4-cycle a-x-c-y
is the two 2-paths a-x-c and a-y-c across its diagonal (a, c), so the
cheapest cycle on each diagonal is the sum of its two cheapest wedges.
Each smallest vertex a's wedges are one gather of the weight columns that
can still reach the cut plus a broadcast add, and a row's two cheapest
come from an argmin, a mask and a min.  Every cycle through wedge a-x-c
weighs at least (w(a, x) + lo) + (lo + lo), lo the lightest edge, so on
random weights the cut soon keeps a few light columns per row; the
diagonals it lists are exactly the full scan's.  Uniform weights prune
nothing, and pass 1 stays O(n^3).  Pass 2 reads everything else off the
walks it lists: a quad's minimum by comparing each cycle with its two
siblings, and the seeds' (weight, edge ids) order from the walk columns.
It stops once the seeds' first K are certain, so uniform weights at
n >= 32 list the cycles of one smallest vertex, not all 3·C(n, 4); that
vertex's block is still O(n^3) (ROADMAP item 1).

An extension round is one table of insertion costs over the whole
frontier, one row per (candidate, walk edge) and one column per free
apex, as in cheapest insertion, filled by one gather per block of
candidates.  The round builds its walk-edge cells u * n + v once, and
reads both w(u, v) and the walks' edge ids from them.  The hits of each
weight class taken are the table's flat indices, split by divmod into
(candidate, walk edge, apex) in row-major scan order, and are keyed by
the child's sorted edge ids straight from those indices; duplicates merge
on the keys, and one gather builds the kept children's walks.  A round
whose first class is one hit at beam 1 has nothing to merge and builds
no keys.  Each lookup is one gather or scatter on a raveled array, and a
round builds no Python object per child.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .edgesets import CycleRows, EdgeSet
from .errors import DomainError
from .graphs import CompleteInstance, edge_id_table
from .isocycles import triangle_count
from .tours import Lineage, TourResult, _walk_edges, tour_result
from .tours import cycle_vertex_sequence  # noqa: F401 (perfbench/tracer.py wraps it)

BeamSpec = int | str | None

# Most rows a frontier keeps: the first K in (weight, edge ids) order, after
# the beam rule.  All-ties rounds on uniform weights or lattices otherwise
# grow without bound (201,600 rows at n = 10 with uniform weights); random
# 1..100 weights stay below K (the n = 400 bench seeds peak at 2,858 rows).
K = 4096

# Most float64 cells (2 GiB) a round's insertion table may ask for, F rows
# by L walk edges by n - L free apexes.  K bounds rows, not cells: a K-row
# round asks for at most K * (n/2)^2 cells, within the budget up to
# n = 512, but 4.9 GiB at n = 800, L = 400.  Past the budget a round is
# refused before it allocates, since an allocation the kernel grants and
# cannot back ends the process without a message.  Beside its table a round
# holds intp walk-edge cells and free vertices, one gather block (0.5 MB),
# and per class a table-shaped bool mask, its hits and their keys.
TABLE_BUDGET = 2**28


def parse_beam(beam: BeamSpec) -> int:
    """Normalise a beam spec to its width; None and "all-ties" are width 1."""
    if beam in (None, "all-ties"):
        return 1
    width = int(beam) if isinstance(beam, str) and beam.isdecimal() else beam
    # bool is Integral, but True is not a width; numpy's bool_ is not Integral.
    if isinstance(width, Integral) and not isinstance(width, bool) and width >= 1:
        return int(width)
    raise DomainError(f"beam must be a positive integer or 'all-ties', got {beam!r}")


def _wedge_weight(w: np.ndarray, a, x, c, y):
    """Weight of the 4-cycle a-x-c-y as wedge a-x-c plus wedge a-y-c.

    The vertices are 0-based, scalars or arrays alike.  This is the seed
    scan's summation order, so recomputed weights compare exactly against
    scanned ones.
    """
    return (w[a, x] + w[x, c]) + (w[a, y] + w[y, c])


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
        weights=tuple(_wedge_weight(inst.weights, *(np.array(walks) - 1).T).tolist()),
        walks=walks,
    )


class Frontier:
    """Equal-length simple cycles of K_n, sorted by (weight, edge ids).

    Row r is one cycle: ``walks[r]`` its vertex walk (1-based, int32) and
    ``weights[r]`` its weight; the rows come in frontier order, at most
    :data:`K` of them.
    ``keys[r]``, its sorted edge ids in the dtype of ``edge_id_table(n)``,
    is derived from the walks when first read.  A grown frontier also
    keeps its lineage: the ``root`` frontier it grew from and, per
    extension round, three arrays over that round's rows (parent row, walk
    position the apex went in after, apex), but no walks or weights.

    The arrays are the only way in, and a row's weight, walk and ids are
    read off them.  ``candidates`` is a
    :class:`~ringtour.edgesets.CycleRows` view of ``keys`` and ``walks``:
    item r builds row r's simple :class:`~ringtour.edgesets.Cycle`, its
    vertices in walk order.
    """

    def __init__(self, walks, weights, beam, n, *, root=None, rounds=()):
        self.walks, self.weights = walks, weights
        self.length = walks.shape[1]
        self.beam, self.n = beam, n
        self._root, self._rounds = root, rounds

    @functools.cached_property
    def keys(self) -> np.ndarray:
        walks = self.walks - 1
        succ = np.concatenate([walks[:, 1:], walks[:, :1]], axis=1)
        keys = edge_id_table(self.n)[walks, succ]
        keys.sort(axis=1)
        return keys

    @property
    def candidates(self) -> CycleRows:
        offsets = np.arange(0, self.keys.size + 1, self.length)
        m = self.n * (self.n - 1) // 2
        return CycleRows(self.keys.ravel(), self.walks.ravel(), offsets, m)

    @property
    def weight(self) -> float:
        return float(self.weights[0])

    def lineage(self) -> Lineage:
        """Row 0's growth from its root, read back round by round."""
        row, growths = 0, []
        for rows, splits, apexes in reversed(self._rounds):
            growths.append((int(splits[row]), int(apexes[row])))
            row = int(rows[row])
        root = self._root or self
        return Lineage(
            tuple(root.walks[row].tolist()),
            float(root.weights[row]),
            tuple(reversed(growths)),
        )


def _wedge_rows(w: np.ndarray, a: int, xs: np.ndarray) -> np.ndarray:
    """The wedge rows of smallest vertex ``a`` (0-based) over columns ``xs``.

    ``xs`` holds ascending vertices (0-based) above a.  Row c, offset by
    a+1 over a+1 .. n-1, has entry j = w(a, x) + w(c, x) for x = xs[j],
    the 2-path a-x-c across the diagonal (a, c); it is inf where x == c.
    The rows are a fresh array.
    """
    rows = w[a, xs] + w[a + 1 :, xs]
    rows[xs - (a + 1), np.arange(len(xs))] = np.inf
    return rows


def _seed_scan(inst: CompleteInstance, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each quad's cheapest 4-cycles, as far as the beam rule can keep them.

    The cycle a-x-c-y whose smallest vertex is a and whose opposite vertex
    is c is the wedge sum W[c, x] + W[c, y] with x < y, so every 4-cycle is
    scanned once.  Pass 1 takes each diagonal's cheapest cycle from its
    two cheapest wedges, a row's argmin and its min once that entry is
    masked, over a's wedge rows (:func:`_wedge_rows`).  It cuts at the
    k-th cheapest diagonal, k = 3B - 2 for beam B (no cut if there are
    fewer than k diagonals).  A quad a < b < c < d has exactly three anchor
    diagonals (a, b), (a, c) and (a, d), one per cycle, so k cycles on
    distinct diagonals lie on at least ceil(k/3) = B quads, and the beam
    cuts no higher.  Beam 1 cuts at the global minimum.

    Pass 1 is bounded by its own running cut, the k-th cheapest diagonal
    minimum read so far.  Weights are at least ``lo``, the lightest edge,
    and float addition rounds monotonically, so a cycle through wedge
    a-x-c scans to at least (w(a, x) + lo) + (lo + lo); a's rows keep only
    the columns x where that bound is at or below the cut, and a vertex
    with fewer than two has no diagonal at or below it.  The running cut
    never falls below the final one, so a diagonal whose minimum is at or
    below the final cut keeps both its cheapest wedges and reads exactly;
    any other reads at least its minimum, or is not read.  The cut and the
    diagonals at or below it are those of the full scan.  Uniform weights
    prune nothing, and this pass stays O(n^3).

    Pass 2 lists the cycles at or below the cut, smallest vertex a by
    smallest vertex.  Each vertex a lists its cycles from one block of
    wedge-pair sums over its listed diagonals and the columns the final
    cut keeps; the block's (diagonal, x, y) row-major order goes diagonal
    by diagonal and the columns ascend, so the pairs come in the full
    rows' order.  A listed cycle a-x-c-y is kept iff it weighs at most its
    quad's other two cycles, a-c-x-y and a-c-y-x.  :func:`_wedge_weight`
    sums those as the scan would, up to commuting two additions, so the
    comparison is exact, and a sibling that was not listed weighs more
    than the cut.

    Pass 2 stops after vertex a once at least 3K listed rows weigh at most
    ``floor``, the least listed diagonal minimum of every later vertex
    (K is :data:`K`).  The kept rows still hold the first K of the full
    scan's in (weight, edge ids) order, all that :func:`seed_frontier`
    keeps.  A later vertex's rows weigh at least ``floor``, and at equal
    weight they rank after a's, because a is the first sort column after
    weight.  A quad's three cycles share one smallest vertex, and at least
    one listed row of each quad survives the filter, so 3K rows at or
    below ``floor`` hold the frontier's first K.  The beam cut on the
    shorter listing keeps the same first K rows: for B <= K the B-th row
    lies among them, and for B > K both listings keep K.  With uniform
    weights at n >= 32 the scan stops after the first vertex, whose block
    alone is O(n^3) (ROADMAP item 1).
    Returns the kept cycles' walks (1-based) and weights, in scan order.
    """
    w = inst.weights
    n = inst.n
    lo = w[~np.eye(n, dtype=bool)].min()
    bound = (w + lo) + (lo + lo)
    # Row a holds the minima of diagonals (a, a+1 .. n-1).  Unread entries
    # stay NaN, which no cut lists; a cut is inf only if nothing was pruned.
    mins = np.full((n - 3, n - 1), np.nan)
    k = 3 * width - 2
    # The k cheapest minima read so far, the k-th of them the running cut.
    cut, low = np.inf, mins[0, :0]
    for a in range(n - 3):
        xs = a + 1 + np.flatnonzero(bound[a, a + 1 :] <= cut)
        if len(xs) < 2:
            continue
        rows = _wedge_rows(w, a, xs)
        r = np.arange(len(rows))
        cheapest = rows.argmin(axis=1)
        m1 = rows[r, cheapest]
        rows[r, cheapest] = np.inf
        dmin = m1 + rows.min(axis=1)
        mins[a, : len(dmin)] = dmin
        low = np.concatenate([low, dmin])
        if len(low) >= k:
            low = np.partition(low, k - 1)[:k]
            cut = low[k - 1]

    walks, weights = [], []
    listed = mins <= cut
    for a in np.flatnonzero(listed.any(axis=1)).tolist():
        offsets = np.flatnonzero(listed[a])
        xs = a + 1 + np.flatnonzero(bound[a, a + 1 :] <= cut)
        rows = _wedge_rows(w, a, xs)[offsets]
        pairs = rows[:, :, None] + rows[:, None, :]
        d, x, y = np.nonzero(np.triu((pairs <= cut) & np.isfinite(pairs), k=1))
        corners = (np.full_like(x, a), xs[x], a + 1 + offsets[d], xs[y])
        walks.append(np.column_stack(corners))
        weights.append(pairs[d, x, y])
        if sum(map(len, weights)) >= 3 * K:
            floor = mins[a + 1 :][listed[a + 1 :]].min(initial=np.inf)
            if sum(np.count_nonzero(v <= floor) for v in weights) >= 3 * K:
                break
    walks = np.concatenate(walks)
    weights = np.concatenate(weights)
    a, x, c, y = walks.T
    sibling = np.minimum(_wedge_weight(w, a, c, x, y), _wedge_weight(w, a, c, y, x))
    keep = weights <= sibling
    return (walks[keep] + 1).astype(np.int32), weights[keep]


def seed_frontier(inst: CompleteInstance, beam: BeamSpec = None) -> Frontier:
    """Frontier of length 4: cheapest 4-cycle per quad, then the beam rule.

    The beam keeps the ``beam`` cheapest cycles in (weight, edge ids)
    order plus every cycle tied at the cutoff; of those, the first
    :data:`K` stay.  The scan lists no further than those K need
    (:func:`_seed_scan`), and the order is read off the walk columns.
    """
    if inst.n < 4:
        raise DomainError(f"seeding needs n >= 4, got n={inst.n}")
    width = parse_beam(beam)
    walks, weights = _seed_scan(inst, width)
    # Walk a-x-c-y (a smallest, x < y) has sorted edge ids (a, x), (a, y),
    # then (min(x, c), max(x, c)), rising with c: they rank as (a, x, y, c).
    order = np.lexsort([*walks.T[[2, 3, 1, 0]], weights])
    ranked = weights[order]
    cut = ranked[min(width, len(ranked)) - 1]
    order = order[: min(K, np.searchsorted(ranked, cut, side="right"))]
    return Frontier(walks[order], weights[order], width, inst.n)


def _weight_classes(vals: np.ndarray) -> Iterator[tuple[np.float64, np.ndarray]]:
    """Distinct child weights, cheapest first, each with its hits' flat indices.

    A class taken is set to inf in the table (whose entries are finite), so
    the next class is the table's minimum and no sorted copy is made.
    """
    flat = vals.ravel()
    while (cls := flat.min()) < np.inf:
        hits = np.flatnonzero(flat == cls)
        yield cls, hits
        flat[hits] = np.inf


# Cells of ``w`` one gather reads while filling a round's table.  A block
# spans hundreds of short walks, and its index and value copies (0.5 MB
# each) stay out of peak RSS; one gather over the whole frontier would copy
# as many cells as the table holds, hundreds of MB at n = 400.
_GATHER_CELLS = 2**16


def _insertion_table(
    inst: CompleteInstance, frontier: Frontier
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A round's walk-edge cells (F, L), free vertices (F, n-L) and table.

    Walk edge k of a candidate is (u, v), its walk vertices k and k+1
    (0-based, the walk closed), and its cell is u * n + v, the edge's flat
    index in the weight matrix and in ``edge_id_table``; free vertices are
    ascending.  Table entry (f, k, j) is weights[f] + ((w(u,o) + w(v,o)) -
    w(u,v)) for walk edge k = (u, v) and free vertex j = o, summed in that
    order so ties are exact.  Each block of candidates, at most
    ``_GATHER_CELLS`` endpoint cells (one candidate at least), is one
    gather, whose intp index lives only through it; beside the table, the
    cells are the one intp array the size of the walks.  A table of more
    than :data:`TABLE_BUDGET` cells raises :class:`DomainError` before
    anything is allocated.
    """
    n, (size, length) = inst.n, frontier.walks.shape
    cells = size * length * (n - length)
    if cells > TABLE_BUDGET:
        raise DomainError(
            f"extension round at cycle length {length} asks for {cells} table "
            f"cells ({size} x {length} x {n - length}), over the budget of "
            f"{TABLE_BUDGET}"
        )
    # The table first: a round too large to hold it fails before it has
    # written anything else.
    vals = np.empty((size, length, n - length))
    walks = np.concatenate([frontier.walks, frontier.walks[:, :1]], axis=1) - 1
    offsets = np.arange(0, size * n, n)
    free = np.ones(size * n, dtype=bool)
    free[walks + offsets[:, None]] = False
    outs = np.flatnonzero(free).reshape(size, n - length)
    outs -= offsets[:, None]

    cells = np.multiply(walks[:, :-1], n, dtype=np.intp)
    cells += walks[:, 1:]
    flat = inst.weights.ravel()
    step = max(1, _GATHER_CELLS // ((length + 1) * (n - length)))
    for lo in range(0, size, step):
        hi = lo + step
        # Cell u * n + o for each walk vertex u and free vertex o; no name
        # keeps the product u * n, so the gather meets only this index.
        ends = np.multiply(walks[lo:hi, :, None], n, dtype=np.intp) + outs[lo:hi, None, :]
        ends = flat[ends]
        np.add(ends[:, :-1], ends[:, 1:], out=vals[lo:hi])
        vals[lo:hi] -= flat[cells[lo:hi]][:, :, None]
    vals += frontier.weights[:, None, None]
    return cells, outs, vals


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
    from the table's indices and the walk-edge cells: new cycles arising
    from several decompositions (dubl-cycles) collapse to the first in
    scan order (class, then candidate), and a cycle an earlier class holds
    is not kept again.  A first class of one hit at beam 1 ends the round
    with nothing to merge, so it builds no keys.  The kept children
    are in class order, then key order; one gather builds their walks,
    each the parent's with its apex inserted, and the round's lineage
    records (parent row, split position, apex).

    No beam trim follows: before the last class taken fewer than B cycles
    were in hand, all cheaper than that class, so the B-th cheapest child
    has the last class's weight and the cutoff keeps every child.  The
    cap then keeps the first :data:`K` children: a class is cut to the
    room left, and the loop stops once K are held.  A round whose table
    would pass :data:`TABLE_BUDGET` cells raises :class:`DomainError`.
    """
    n = inst.n
    length = frontier.length
    if length >= n:
        raise DomainError("frontier already spans all vertices")

    cells, outs, vals = _insertion_table(inst, frontier)
    ids = edge_id_table(n).ravel()
    dtype = ids.dtype
    # Big-endian bytes of a sorted id row compare as the ids do, so one
    # void item per row sorts and merges the rows as their keys.
    row_bytes = np.dtype((np.void, dtype.itemsize * (length + 1)))
    parts, held, walk_ids = [], None, None
    for cls, hits in _weight_classes(vals):
        # Hit (f, i, o) is flat cell (f * L + i) * (n - L) + o of the table.
        fi, o = np.divmod(hits, n - length)
        f, i = np.divmod(fi, length)
        apex = outs.ravel()[f * (n - length) + o]
        if held is None and len(f) == 1 and frontier.beam == 1:
            # one cycle ends the round: nothing to merge, so no key
            parts.append((f, i, apex + 1, np.full(1, cls)))
            break
        if walk_ids is None:
            walk_ids = ids[cells]
        # The child's edge ids: the parent's, with walk edge i = (u, v)
        # replaced by one apex edge and the other appended; sorted, each
        # row is its key.
        u, v = np.divmod(cells.ravel()[fi], n)
        head, tail = ids[u * n + apex], ids[v * n + apex]
        keys = np.concatenate([walk_ids[f], tail[:, None]], axis=1)
        keys.ravel()[np.arange(0, keys.size, length + 1) + i] = head
        keys.sort(axis=1)
        # Each distinct key's first hit, in key order.
        row_keys = keys.astype(dtype.newbyteorder(">")).view(row_bytes).ravel()
        distinct, first = np.unique(row_keys, return_index=True)
        # A cycle an earlier, cheaper class holds stays there.  The first
        # class has nothing cheaper to merge against, and an np.isin against
        # an empty set made a random n = 200 solve about 7% slower.
        if held is not None:
            fresh = ~np.isin(distinct, held)
            distinct, first = distinct[fresh], first[fresh]
        # The cap, before the gather: the children come in (weight, edge
        # ids) order, so the first K are the K kept.
        room = K - (0 if held is None else len(held))
        distinct, first = distinct[:room], first[:room]
        held = distinct if held is None else np.concatenate([held, distinct])
        weights = np.full(len(first), cls)
        parts.append((f[first], i[first], apex[first] + 1, weights))
        if len(held) >= min(frontier.beam, K):
            break

    # One class, the usual case off ties, needs no concatenation.
    cols = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    rows, splits, apexes, weights = cols
    pos = np.arange(length + 1)
    source = rows[:, None] * length + (pos - (pos > splits[:, None]))
    children = frontier.walks.ravel()[source]
    children.ravel()[np.arange(0, children.size, length + 1) + splits + 1] = apexes
    rounds = frontier._rounds + ((rows, splits, apexes),)
    root = frontier._root or frontier
    return Frontier(children, weights, frontier.beam, n, root=root, rounds=rounds)


def solve(
    inst: CompleteInstance, beam: BeamSpec = None, trace: bool = False
) -> TourResult:
    """Run the full heuristic and return the best Hamiltonian cycle found.

    Ties for the final answer break to the lexicographically smallest edge
    set.  Every frontier holds at most :data:`K` cycles, its first in
    (weight, edge ids) order.  The result's trace records the seed quad and
    every triangle summed along the winning lineage; with ``trace=True`` it
    also keeps each round's frontier.
    """
    n = inst.n
    if n == 3:
        # one row: the triangle walk 1-2-3
        tri = np.array([[1, 2, 3]], dtype=np.int32)
        weight = inst.weight(1, 2) + inst.weight(1, 3) + inst.weight(2, 3)
        frontier = Frontier(tri, np.array([weight]), parse_beam(beam), n)
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
