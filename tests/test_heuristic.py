"""Quad seeding, frontier extension and the full tour heuristic."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ringtour import (
    CompleteInstance,
    Cycle,
    CycleKind,
    DomainError,
    EdgeSet,
    brute_force,
    build_hamiltonian,
    classify,
    extend_frontier,
    is_touching,
    op_count_estimate,
    parse_coords_text,
    quad_cycles,
    random_instance,
    ring_sum,
    seed_frontier,
    solve,
    triangle_index,
    triangles,
)
from ringtour import heuristic
from ringtour.graphs import edge_id_table
from ringtour.heuristic import Frontier, parse_beam


def reference_extend(inst, frontier, triangle_set):
    """Next frontier as (weight, edge ids), straight from the definitions.

    Every candidate is ring-summed with every triangle that touches it;
    duplicate cycles keep their cheapest weight, then the beam rule of
    the frontier applies (cutoff ties kept).
    """
    entries = []
    for zc, base in zip(frontier.candidates, frontier.weights.tolist()):
        for tri in triangle_set:
            if not is_touching(zc, tri):
                continue
            (apex,) = tri.vertices - zc.vertices
            u, v = sorted(tri.vertices - {apex})
            weight = base + (
                (inst.weight(u, apex) + inst.weight(v, apex)) - inst.weight(u, v)
            )
            entries.append((weight, zc.edges ^ tri.edges))
    merged = {}
    for weight, edges in sorted(entries, key=lambda e: e[0]):
        merged.setdefault(edges, weight)
    ranked = sorted((weight, edges.ids()) for edges, weight in merged.items())
    width = frontier.beam
    if width is None:
        cut = ranked[0][0]
    else:
        cut = ranked[min(width, len(ranked)) - 1][0]
    return [entry for entry in ranked if entry[0] <= cut]


def reference_seeds(inst, beam):
    """Seed frontier as (weight, edge ids, walk), straight from quad_cycles.

    Every quad keeps its cheapest cycles; then either the global-minimum
    ties or the beam cut with cutoff ties kept.
    """
    entries = []
    for quad in combinations(range(1, inst.n + 1), 4):
        qt = quad_cycles(inst, quad)
        best = min(qt.weights)
        entries.extend(
            (weight, cyc.ids(), walk)
            for weight, cyc, walk in zip(qt.weights, qt.cycles, qt.walks)
            if weight == best
        )
    entries.sort()
    if beam == "all-ties":
        cut = entries[0][0]
    else:
        cut = entries[min(beam, len(entries)) - 1][0]
    return [entry for entry in entries if entry[0] <= cut]


def reference_wedge_rows(w, a, cs):
    """Rows ``cs`` of the wedge matrix of smallest vertex ``a`` (0-based).

    Entry (c, x) over x = a+1 .. n-1 is w(a, x) + w(x, c), gathered by
    ``np.ix_``; it is inf where x == c.
    """
    xs = np.arange(a + 1, len(w))
    rows = w[a, xs] + w[np.ix_(cs, xs)]
    rows[np.arange(len(cs)), cs - (a + 1)] = np.inf
    return rows


def reference_seed_scan(inst, width):
    """``_seed_scan`` with its wedge rows gathered and pass 1 partitioned.

    Pass 1 reads each diagonal's two cheapest wedges off ``np.partition``
    of its ``reference_wedge_rows``; pass 2 is the library's, on gathered
    rows.
    """
    w, n = inst.weights, inst.n
    diag = []
    for a in range(n - 3):
        rows = reference_wedge_rows(w, a, np.arange(a + 1, n))
        part = np.partition(rows, 1, axis=1)
        diag.append(part[:, 0] + part[:, 1])
    mins = np.concatenate(diag)
    k = 3 * width - 2
    cut = np.partition(mins, k - 1)[k - 1] if k <= mins.size else np.inf

    walks, weights = [], []
    for a, dmin in enumerate(diag):
        cs = a + 1 + np.flatnonzero(dmin <= cut)
        if not cs.size:
            continue
        for c, row in zip(cs, reference_wedge_rows(w, a, cs)):
            pair = row[:, None] + row[None, :]
            x, y = np.nonzero(np.triu((pair <= cut) & np.isfinite(pair), k=1))
            corners = (np.full_like(x, a), a + 1 + x, np.full_like(x, c), a + 1 + y)
            walks.append(np.column_stack(corners))
            weights.append(pair[x, y])
    walks = np.concatenate(walks)
    weights = np.concatenate(weights)
    quads = np.sort(walks, axis=1).astype(np.int64) @ n ** np.arange(3, -1, -1)
    _, quad = np.unique(quads, return_inverse=True)
    best = np.full(quad.max() + 1, np.inf)
    np.minimum.at(best, quad, weights)
    keep = weights == best[quad]
    walks = walks[keep]
    keys = edge_id_table(n)[walks, np.roll(walks, -1, axis=1)]
    keys.sort(axis=1)
    return (walks + 1).astype(np.int32), keys, weights[keep]


def decimal_instance(n, seed):
    rng = random.Random(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.randint(1, 100) / 10
    return CompleteInstance(w)


def count_candidates(monkeypatch):
    """A list that grows by one per Cycle built from now on."""
    built = []
    init = Cycle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cycle, "__init__", counting_init)
    return built


def frontier_rows(frontier):
    """Each row as (weight, edge ids, walk); the ids are its Cycle's."""
    rows = zip(frontier.weights.tolist(), frontier.candidates, frontier.walks.tolist())
    return [(weight, c.edges.ids(), tuple(walk)) for weight, c, walk in rows]


def weighted_ids(frontier):
    """Each row as (weight, edge ids)."""
    return [row[:2] for row in frontier_rows(frontier)]


class TestQuadCycles:
    def test_k4(self, k4):
        qt = quad_cycles(k4, (1, 2, 3, 4))
        assert qt.weights == (28, 27, 29)
        assert qt.cycles[1].ids() == (1, 2, 5, 6)

    def test_k6_quads(self, k6):
        assert quad_cycles(k6, (1, 2, 3, 5)).weights == (23, 20, 25)
        assert quad_cycles(k6, (2, 3, 4, 5)).weights == (23, 26, 25)
        # quad (1,2,3,4): 1-2-3-4 and 1-2-4-3 tie at 25
        assert quad_cycles(k6, (1, 2, 3, 4)).weights == (25, 25, 30)

    def test_k5_quad(self, k5):
        qt = quad_cycles(k5, (4, 5, 1, 2))
        assert qt.quad == (1, 2, 4, 5)
        assert qt.weights == (37, 29, 32)
        assert qt.cycles[1].ids() == (1, 3, 7, 10)

    def test_all_equal_weights(self):
        inst = random_instance(6, 3, (4, 4))
        qt = quad_cycles(inst, (2, 3, 5, 6))
        assert qt.weights == (16, 16, 16)

    def test_double_cover(self, k6):
        # the three cycles cover each of the six quad edges exactly twice
        for quad in combinations(range(1, 7), 4):
            qt = quad_cycles(k6, quad)
            counts = {}
            for cyc in qt.cycles:
                assert len(cyc) == 4
                for e in cyc:
                    counts[e] = counts.get(e, 0) + 1
            assert sorted(counts.values()) == [2] * 6
            assert len({c.ids() for c in qt.cycles}) == 3

    def test_duplicate_vertices(self, k5):
        with pytest.raises(DomainError):
            quad_cycles(k5, (1, 2, 2, 3))
        with pytest.raises(DomainError):
            quad_cycles(k5, (1, 2, 3, 6))


class TestSeedFrontier:
    def test_k5_unique_minimum(self, k5):
        f = seed_frontier(k5)
        assert f.length == 4
        assert [c.edges.ids() for c in f.candidates] == [(1, 3, 7, 10)]
        assert f.weights[0] == 29

    def test_k6_three_way_tie(self, k6):
        f = seed_frontier(k6)
        got = {c.edges.ids() for c in f.candidates}
        assert got == {(1, 2, 8, 11), (2, 4, 10, 13), (2, 3, 11, 13)}
        assert all(weight == 20 for weight in f.weights.tolist())

    def test_k4(self, k4):
        f = seed_frontier(k4)
        assert [c.edges.ids() for c in f.candidates] == [(1, 2, 5, 6)]
        assert f.weights[0] == 27

    def test_beam_keeps_cutoff_ties(self, k6):
        f = seed_frontier(k6, beam=1)
        assert len(f.candidates) == 3  # all tied at the cutoff weight 20

    def test_beam_two(self, k5):
        f = seed_frontier(k5, beam=2)
        assert f.weights.tolist() == [29, 30]

    def test_beam_matches_per_quad_minima(self, k6):
        # beam wide enough returns every per-quad minimum
        f = seed_frontier(k6, beam=40)
        per_quad = []
        for quad in combinations(range(1, 7), 4):
            qt = quad_cycles(k6, quad)
            best = min(qt.weights)
            per_quad.extend(
                qt.cycles[i].ids() for i in range(3) if qt.weights[i] == best
            )
        assert {c.edges.ids() for c in f.candidates} == set(per_quad)

    # 200 is wider than three times the 52 diagonals (a, c) at n = 11
    @pytest.mark.parametrize("beam", ["all-ties", 1, 2, 3, 5, 50, 200])
    @pytest.mark.parametrize("weights", [(1, 100), (1, 3), (4, 4)])
    @pytest.mark.parametrize("n", range(4, 12))
    def test_matches_quad_oracle(self, n, weights, beam):
        inst = random_instance(n, 100 * n + weights[1], weights)
        got = frontier_rows(seed_frontier(inst, beam))
        assert got == reference_seeds(inst, beam)

    @staticmethod
    def assert_beam_reaches_past(quads, beam):
        # each quad 4q+1..4q+4 holds cycles 6, 8 and 10 on its three anchor
        # diagonals; every other cycle has two edges of weight >= 40
        n = 4 * quads + 1
        rng = random.Random(beam)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w[i, j] = w[j, i] = rng.randint(40, 60)
        for a in range(1, n - 1, 4):
            pattern = {(0, 1): 1, (2, 3): 1, (1, 2): 2, (0, 3): 2, (0, 2): 3, (1, 3): 3}
            for (u, v), weight in pattern.items():
                w[a + u - 1, a + v - 1] = w[a + v - 1, a + u - 1] = weight
        inst = CompleteInstance(w)
        assert quad_cycles(inst, (n - 4, n - 3, n - 2, n - 1)).weights == (6, 8, 10)
        seeds = seed_frontier(inst, beam)
        assert frontier_rows(seeds) == reference_seeds(inst, beam)
        assert len({c.vertices for c in seeds.candidates}) >= beam

    @pytest.mark.parametrize("beam", [1, 2, 3, 4])
    def test_beam_reaches_past_cheap_quads(self, beam):
        # quads 1234 and 5678 hold the six cheapest cycles on six diagonals,
        # so the beam's third seed lies on another quad
        self.assert_beam_reaches_past(2, beam)

    def test_beam_reaches_past_three_cheap_quads(self):
        # three quads hold the nine cheapest diagonal minima, so a cut at the
        # ninth diagonal, not the tenth, would miss beam 4's fourth quad
        self.assert_beam_reaches_past(3, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_decimal_weights_match_quad_cycles(self, seed):
        # the scan and quad_cycles sum each cycle in the same order
        inst = decimal_instance(7 + seed, seed)
        for beam in ("all-ties", 1, 5, 50):
            for weight, _, walk in frontier_rows(seed_frontier(inst, beam)):
                assert weight == min(quad_cycles(inst, walk).weights)

    def test_builds_no_candidate_per_listed_seed(self, monkeypatch):
        # beam 400 has no diagonal cut at n = 40, so every quad minimum is
        # listed; only the kept seeds become candidates, and only when read
        built = count_candidates(monkeypatch)
        frontier = seed_frontier(decimal_instance(40, 40), beam=400)
        size = len(frontier.candidates)
        assert size >= 400 and built == []
        assert [c.edges.ids() for c in frontier.candidates] == [
            tuple(ids) for ids in frontier.keys.tolist()
        ]
        assert len(built) == size

    @pytest.mark.parametrize("width", [1, 2, 7])
    @pytest.mark.parametrize(
        "label",
        ["tenths", "negative-zero-block", "uniform", "lattice-3x4", *range(4, 9)],
    )
    def test_scan_matches_partition_pass(self, label, width):
        # pass 1's slices and argmin cut where the gather and partition did
        if label == "tenths":
            inst = decimal_instance(12, 12)
        elif label == "negative-zero-block":
            w = random_instance(9, 9, (1, 9)).weights.copy()
            w[:5, :5] = -0.0
            inst = CompleteInstance(w)
        elif label == "uniform":
            inst = random_instance(9, 9, (4, 4))
        elif label == "lattice-3x4":
            inst = lattice_instance(3, 4)
        else:
            inst = random_instance(label, label, (1, 20))
        got = heuristic._seed_scan(inst, width)
        want = reference_seed_scan(inst, width)
        for g, r in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (r.dtype, r.shape, r.tobytes())

    def test_too_small(self):
        inst = random_instance(3, 1, (1, 9))
        with pytest.raises(DomainError):
            seed_frontier(inst)

    def test_bad_beam(self, k5):
        with pytest.raises(DomainError):
            seed_frontier(k5, beam=0)
        with pytest.raises(DomainError):
            seed_frontier(k5, beam="few")
        with pytest.raises(DomainError):  # a digit that int() does not parse
            parse_beam("²")
        for flag in (True, False, np.True_):  # bool is an int, but not a width
            with pytest.raises(DomainError):
                seed_frontier(k5, beam=flag)
        for width in (np.int64(2), np.int32(1)):  # numpy integers are widths
            assert type(parse_beam(width)) is int and parse_beam(width) == width
            history = solve(k5, beam=width, trace=True).trace.frontier_history
            assert history[0].beam == width


def lattice_instance(rows, cols):
    coords = "".join(f"{x} {y}\n" for y in range(rows) for x in range(cols))
    return parse_coords_text(f"{rows * cols}\n{coords}")


def tie_heavy_cases():
    # beam 10**6 keeps every cycle, so it runs only where the rescan stays small
    narrow, wide = (1, 2, 3), (1, 2, 3, 10**6)
    cases = [("lattice-3x4", lattice_instance(3, 4), narrow)]
    for n in (8, 9, 10):
        beams = wide if n == 8 else narrow
        cases.append((f"1..3-n{n}", random_instance(n, n, (1, 3)), beams))
    for n in (5, 6, 7):
        cases.append((f"uniform-n{n}", random_instance(n, n, (4, 4)), wide))
    cases.append(("tenths-n7", decimal_instance(7, 7), wide))
    return [
        pytest.param(inst, beam, id=f"{label}-{beam}")
        for label, inst, beams in cases
        for beam in beams
    ]


def walk_edge_ids(inst, order):
    size = len(order)
    return tuple(
        sorted(inst.edge_id(order[k], order[(k + 1) % size]) for k in range(size))
    )


class TestCandidateKey:
    @pytest.mark.parametrize("beam", ["all-ties", 1, 4])
    @pytest.mark.parametrize(
        "inst",
        [
            random_instance(10, 3, (1, 100)),
            random_instance(10, 4, (1, 3)),
            decimal_instance(10, 5),
        ],
        ids=["integer", "1..3", "tenths"],
    )
    def test_ids_are_the_walks_sorted_edge_ids(self, inst, beam):
        frontier = seed_frontier(inst, beam)
        while True:
            rows = zip(frontier.keys.tolist(), frontier.walks.tolist())
            for (ids, walk), c in zip(rows, frontier.candidates):
                assert tuple(ids) == walk_edge_ids(inst, walk) == c.edges.ids()
            if frontier.length == inst.n:
                break
            frontier = extend_frontier(inst, frontier)

    def test_two_byte_keys_keep_frontier_order(self):
        # past 255 edges a key row is uint16, and its rows must still sort
        # as id tuples, not as little-endian bytes
        inst = lattice_instance(4, 6)
        frontier = seed_frontier(inst)
        assert frontier.keys.dtype == np.uint16
        for _ in range(3):
            frontier = extend_frontier(inst, frontier)
            got = weighted_ids(frontier)
            assert len(got) > 1 and got == sorted(got)

    def test_hot_loop_builds_no_edge_sets(self, monkeypatch):
        built = []
        init = EdgeSet.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EdgeSet, "__init__", counting_init)
        solve(random_instance(60, 1))
        # only tour_result's: the trace's seed and the tour itself
        assert len(built) == 2


class TestExtendFrontier:
    def test_k5_single_round(self, k5):
        f = extend_frontier(k5, seed_frontier(k5))
        assert f.length == 5
        assert [c.edges.ids() for c in f.candidates] == [(1, 3, 7, 8, 9)]
        assert f.weights[0] == 35

    def test_k6_dubl_cycle_collapse(self, k6):
        tri = triangles(k6)
        f = extend_frontier(k6, seed_frontier(k6))
        assert [c.edges.ids() for c in f.candidates] == [(1, 2, 8, 10, 13)]
        assert f.weights[0] == 26
        # the same 5-cycle arises from two different decompositions
        z19 = EdgeSet.of((2, 4, 10, 13), 15)
        z5 = EdgeSet.of((1, 2, 8, 11), 15)
        c3 = tri.cycle(3).edges
        c17 = tri.cycle(17).edges
        assert ring_sum(z19, c3) == ring_sum(z5, c17) == f.candidates[0].edges

    def test_growth_by_one_vertex(self, k6):
        f = seed_frontier(k6)
        g = extend_frontier(k6, f)
        assert g.length == f.length + 1
        for c in g.candidates:
            assert len(c.vertices) == 5
            assert classify(c.edges, k6).kind is CycleKind.SIMPLE_CYCLE

    def test_already_spanning(self, k4):
        with pytest.raises(DomainError):
            extend_frontier(k4, seed_frontier(k4))

    @pytest.mark.parametrize("seed", [2, 9, 23, 57])
    def test_fast_path_matches_reference(self, seed):
        # vectorised scan == touching-triangle rescan, round by round
        inst = random_instance(8, seed, (1, 40))
        tri = triangles(inst)
        fast = seed_frontier(inst)
        while fast.length < inst.n:
            ref = reference_extend(inst, fast, tri)
            fast = extend_frontier(inst, fast)
            assert weighted_ids(fast) == ref

    @pytest.mark.parametrize("seed", [13, 77])
    def test_fast_path_matches_reference_decimal_weights(self, seed):
        # decimal weights exercise the exact-comparison plumbing: scan
        # minima and rematerialised candidate weights must stay bit-equal
        rng = random.Random(seed)
        n = 7
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w[i, j] = w[j, i] = rng.randint(1, 40) / 10
        inst = CompleteInstance(w)
        tri = triangles(inst)
        fast = seed_frontier(inst)
        while fast.length < n:
            ref = reference_extend(inst, fast, tri)
            fast = extend_frontier(inst, fast)
            assert [c.edges.ids() for c in fast.candidates] == [ids for _, ids in ref]

    @pytest.mark.parametrize("seed", [4, 31])
    def test_fast_path_matches_reference_beam(self, seed):
        inst = random_instance(7, seed, (1, 25))
        tri = triangles(inst)
        fast = seed_frontier(inst, beam=3)
        while fast.length < inst.n:
            ref = reference_extend(inst, fast, tri)
            fast = extend_frontier(inst, fast)
            assert weighted_ids(fast) == ref

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_beam_wider_than_every_pool(self, n):
        # every weight class is taken, so the class generator runs dry
        inst = random_instance(n, n, (1, 20))
        tri = triangles(inst)
        fast = seed_frontier(inst, beam=10**6)
        while fast.length < inst.n:
            ref = reference_extend(inst, fast, tri)
            fast = extend_frontier(inst, fast)
            assert weighted_ids(fast) == ref

    def test_last_class_overshoots_the_beam(self):
        # cycle 1-2-3-4 in K6, every edge 10 but w(1,5) = w(2,5) = 1: apex 5
        # on edge 1-2 costs -8 (one child), on 2-3 or 4-1 costs +1 (two)
        w = np.full((6, 6), 10.0)
        w[0, 4] = w[4, 0] = w[1, 4] = w[4, 1] = 1.0
        np.fill_diagonal(w, 0.0)
        inst = CompleteInstance(w)
        # walk 1-2-3-4 has edges e1, e3, e6 and e10 in K6
        walk = np.array([[1, 2, 3, 4]], dtype=np.int32)
        keys = np.array([[1, 3, 6, 10]], dtype=np.uint8)
        frontier = Frontier(walk, keys, np.array([40.0]), beam=2, m=inst.m)
        nxt = extend_frontier(inst, frontier)
        got = weighted_ids(nxt)
        assert [weight for weight, _ in got] == [32.0, 41.0, 41.0]
        assert got == reference_extend(inst, frontier, triangles(inst))

    @pytest.mark.parametrize("inst, beam", tie_heavy_cases())
    def test_tie_heavy_rounds_match_reference(self, inst, beam):
        # one table per round: every class, key and merge against the rescan
        tri = triangles(inst)
        fast = seed_frontier(inst, beam)
        while fast.length < inst.n:
            ref = reference_extend(inst, fast, tri)
            fast = extend_frontier(inst, fast)
            assert weighted_ids(fast) == ref

    def test_builds_candidates_only_when_read(self, monkeypatch):
        # a round keeps its children as arrays; solve builds no candidate
        built = count_candidates(monkeypatch)
        inst = lattice_instance(3, 4)
        solve(inst, 1)
        assert len(built) <= inst.n
        built.clear()
        frontier = seed_frontier(inst)
        while frontier.length < inst.n:
            frontier = extend_frontier(inst, frontier)
            assert len(frontier.candidates) > 0
        assert built == []

    def test_reported_minimum_is_true_minimum(self, k6):
        # re-scan every (candidate x touching triangle) pair by brute force
        frontier = seed_frontier(k6)
        tri = triangles(k6)
        while frontier.length < 6:
            best = None
            for zc in frontier.candidates:
                for t in tri:
                    if is_touching(zc, t):
                        w = sum(k6.edge_weight(e) for e in zc.edges ^ t.edges)
                        best = w if best is None else min(best, w)
            frontier = extend_frontier(k6, frontier)
            assert frontier.weight == best


def reference_table(inst, frontier):
    """Each candidate's insertion-cost block, one cell at a time."""
    w = inst.weights
    blocks = []
    for weight, _, order in frontier_rows(frontier):
        walk = [v - 1 for v in order + order[:1]]
        outs = [o for o in range(inst.n) if o + 1 not in order]
        blocks.append(
            [
                [weight + ((w[u, o] + w[v, o]) - w[u, v]) for o in outs]
                for u, v in zip(walk, walk[1:])
            ]
        )
    return np.array(blocks)


class TestInsertionTable:
    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_table_spans_gather_blocks(self, rounds):
        # tenths make the sums order-sensitive; the wide beam keeps the
        # frontier past one gather block of the table
        inst = decimal_instance(80, 80)
        frontier = seed_frontier(inst, beam=200)
        for _ in range(rounds):
            frontier = extend_frontier(inst, frontier)
        cands, length = frontier.candidates, frontier.length
        cells = len(cands) * (length + 1) * (inst.n - length)
        assert cells > heuristic._GATHER_CELLS
        walks, outs, vals = heuristic._insertion_table(inst, frontier)
        orders = [walk for _, _, walk in frontier_rows(frontier)]
        assert np.array_equal(walks[:, :-1] + 1, orders)
        assert vals.tobytes() == reference_table(inst, frontier).tobytes()


def reference_round(inst, frontier):
    """``extend_frontier`` with each class's hits taken by 3-D ``np.nonzero``.

    Returns the children's (walks, keys, weights) and the round's lineage
    arrays (parent row, split position, apex, weight).
    """
    n, length = inst.n, frontier.length
    walks, outs, vals = heuristic._insertion_table(inst, frontier)
    ids = edge_id_table(n)
    walk_ids = ids[walks[:, :-1], walks[:, 1:]]
    row_bytes = np.dtype((np.void, ids.dtype.itemsize * (length + 1)))
    parts, held = [], np.empty(0, row_bytes)
    for cls in np.unique(vals):
        f, i, o = np.nonzero(vals == cls)
        apex = outs[f, o]
        keys = np.empty((len(f), length + 1), dtype=ids.dtype)
        keys[:, :-1] = walk_ids[f]
        keys[np.arange(len(f)), i] = ids[walks[f, i], apex]
        keys[:, -1] = ids[walks[f, i + 1], apex]
        keys.sort(axis=1)
        row_keys = keys.astype(ids.dtype.newbyteorder(">")).view(row_bytes).ravel()
        distinct, first = np.unique(row_keys, return_index=True)
        fresh = ~np.isin(distinct, held)
        distinct, first = distinct[fresh], first[fresh]
        held = np.concatenate([held, distinct])
        weights = np.full(len(first), cls)
        parts.append((f[first], i[first], apex[first] + 1, keys[first], weights))
        if len(held) >= frontier.beam:
            break
    rows, splits, apexes, keys, weights = (np.concatenate(col) for col in zip(*parts))
    children = frontier.walks[rows].tolist()
    for walk, split, apex in zip(children, splits, apexes):
        walk.insert(split + 1, apex)
    children = np.array(children, dtype=frontier.walks.dtype)
    return (children, keys, weights), (rows, splits, apexes, weights)


class TestHitOrder:
    @pytest.mark.parametrize(
        "inst, beam, rounds",
        [(decimal_instance(80, 80), 200, 3), (lattice_instance(4, 4), 1, 12)],
        ids=["tenths-80", "lattice-4x4"],
    )
    def test_flat_hits_match_nonzero(self, inst, beam, rounds):
        # tables past one gather block with L != n - L, where the flat
        # index's two divisors differ; tenths take several classes a round
        frontier, spans = seed_frontier(inst, beam), []
        for _ in range(rounds):
            size, length = frontier.walks.shape
            cells = size * (length + 1) * (inst.n - length)
            spans.append(cells > heuristic._GATHER_CELLS and 2 * length != inst.n)
            want, want_lineage = reference_round(inst, frontier)
            frontier = extend_frontier(inst, frontier)
            got = (frontier.walks, frontier.keys, frontier.weights)
            for g, r in zip((*got, *frontier._rounds[-1]), (*want, *want_lineage)):
                assert g.dtype == r.dtype and np.array_equal(g, r)
        assert any(spans)


def triangle_edges(inst, triangle):
    a, b, c = triangle
    ids = (inst.edge_id(a, b), inst.edge_id(a, c), inst.edge_id(b, c))
    return EdgeSet.of(ids, inst.m)


def assert_trace_replays(inst, res):
    """The trace's steps, ring-summed into its seed, rebuild the tour."""
    steps = res.trace.steps
    acc = res.trace.seed
    if steps and steps[0].shared_edge == 0:
        # build_hamiltonian's start triangle is its seed, not a sum into it
        assert triangle_edges(inst, steps[0].triangle) == acc
        steps = steps[1:]
    for step in steps:
        tri = triangle_edges(inst, step.triangle)
        assert step.triangle_id == triangle_index(inst.n, *step.triangle)
        assert step.shared_edge in tri and step.shared_edge in acc
        acc = acc ^ tri
    assert acc == res.edges
    assert res.trace.steps[-1].weight == res.weight


class TestTraceReplay:
    @pytest.mark.parametrize("beam", ["all-ties", 2, 3])
    @pytest.mark.parametrize(
        "inst",
        [lattice_instance(3, 4), lattice_instance(2, 5)]
        + [random_instance(n, n, (1, 3)) for n in (9, 11)]
        + [random_instance(8, 8, (4, 4)), decimal_instance(9, 9)]
        + [random_instance(n, n, (1, 100)) for n in (5, 12, 20)],
        ids=["lattice-3x4", "lattice-2x5", "1..3-n9", "1..3-n11", "uniform-n8"]
        + ["tenths-n9", "random-n5", "random-n12", "random-n20"],
    )
    def test_solve(self, inst, beam):
        assert_trace_replays(inst, solve(inst, beam))

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_build_hamiltonian(self, n):
        inst = random_instance(n, n, (1, 50))
        kc = n * (n - 1) * (n - 2) // 6
        for start in sorted({1, (kc + 1) // 2, kc}):
            res = build_hamiltonian(inst, start)
            assert len(res.trace.steps) == n - 2
            assert_trace_replays(inst, res)


class TestSolve:
    def test_k4(self, k4):
        res = solve(k4)
        assert res.weight == 27
        assert res.edges.ids() == (1, 2, 5, 6)

    def test_k5(self, k5):
        res = solve(k5, trace=True)
        assert res.weight == 35
        assert res.edges.ids() == (1, 3, 7, 8, 9)
        seeds = res.trace.frontier_history[0]
        assert seeds.weight == 29
        assert seeds.candidates[0].edges.ids() == (1, 3, 7, 10)

    def test_k5_heavier_outside_edge(self, k5_e10_40):
        res = solve(k5_e10_40)
        assert res.weight == 35
        assert res.edges.ids() == (1, 3, 7, 8, 9)

    def test_k5_two_heavier_outside_edges(self, k5_e10_40_e5_50):
        res = solve(k5_e10_40_e5_50)
        assert res.weight == 35
        assert res.edges.ids() == (1, 3, 7, 8, 9)

    def test_k6(self, k6):
        res = solve(k6, beam="all-ties", trace=True)
        assert res.weight == 36
        assert res.edges.ids() == (1, 2, 9, 10, 13, 15)
        assert res.sequence == (1, 2, 6, 5, 4, 3)
        hist = res.trace.frontier_history
        assert [snap.weight for snap in hist] == [20, 26, 36]
        assert len(hist[0].candidates) == 3

    def test_k3(self):
        inst = random_instance(3, 8, (2, 9))
        res = solve(inst, trace=True)
        assert res.sequence == (1, 2, 3)
        assert res.weight == sum(inst.edge_weight(e) for e in range(1, 4))
        # one root row: walk 1-2-3 on edges e1, e2, e3
        (frontier,) = res.trace.frontier_history
        assert frontier_rows(frontier) == [(res.weight, (1, 2, 3), (1, 2, 3))]

    def test_k3_bad_beam(self):
        inst = random_instance(3, 8, (2, 9))
        with pytest.raises(DomainError):
            solve(inst, beam=0)
        assert solve(inst, beam="4", trace=True).trace.frontier_history[0].beam == 4

    def test_trace_lineage_folds_to_answer(self, k6):
        res = solve(k6)
        acc = res.trace.seed
        assert len(res.trace.steps) == k6.n - 4
        for step in res.trace.steps:
            a, b, c = step.triangle
            acc = acc ^ EdgeSet.of(
                (k6.edge_id(a, b), k6.edge_id(a, c), k6.edge_id(b, c)), k6.m
            )
        assert acc == res.edges
        assert res.trace.steps[-1].weight == res.weight

    @pytest.mark.parametrize("seed", range(12))
    def test_valid_hamiltonian_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 10)
        inst = random_instance(n, seed * 7 + 1, (1, 100))
        res = solve(inst)
        cls = classify(res.edges, inst)
        assert cls.kind is CycleKind.SIMPLE_CYCLE
        assert cls.cycle.vertices == frozenset(range(1, n + 1))
        assert len(res.edges) == n
        assert res.weight == sum(inst.edge_weight(e) for e in res.edges)
        assert res.weight >= brute_force(inst).optimum

    def test_determinism(self, k6):
        a = solve(k6)
        b = solve(k6)
        assert a.edges == b.edges and a.sequence == b.sequence
        assert a.trace.steps == b.trace.steps

    @pytest.mark.parametrize("factor", [2, 3, 0.5])
    def test_scaling_invariance(self, factor):
        # ties must survive rescaling at every round, not just at the end
        for seed in (5, 19, 44):
            inst = random_instance(8, seed, (1, 60))
            scaled = CompleteInstance(inst.weights * factor)
            a = solve(inst, trace=True)
            b = solve(scaled, trace=True)
            assert a.edges.ids() == b.edges.ids()
            assert b.weight == a.weight * factor
            for snap_a, snap_b in zip(
                a.trace.frontier_history, b.trace.frontier_history
            ):
                assert [c.edges.ids() for c in snap_a.candidates] == [
                    c.edges.ids() for c in snap_b.candidates
                ]

    def test_beam_solutions_are_valid(self, k6):
        for beam in (1, 2, "5", "all-ties"):
            res = solve(k6, beam=beam)
            cls = classify(res.edges, k6)
            assert cls.kind is CycleKind.SIMPLE_CYCLE
            assert cls.cycle.vertices == frozenset(range(1, 7))


class TestAllTiesIsBeamOne:
    def test_parse_beam(self):
        assert parse_beam(None) == parse_beam("all-ties") == 1

    @staticmethod
    def assert_same_solve(inst):
        a = solve(inst, "all-ties", trace=True)
        b = solve(inst, 1, trace=True)
        assert a.sequence == b.sequence
        assert a.edges.ids() == b.edges.ids()
        assert a.weight == b.weight
        assert a.trace.steps == b.trace.steps
        history = zip(a.trace.frontier_history, b.trace.frontier_history, strict=True)
        for fa, fb in history:
            assert fa.beam == fb.beam == 1
            assert frontier_rows(fa) == frontier_rows(fb)

    def test_k6(self, k6):
        self.assert_same_solve(k6)

    @pytest.mark.parametrize(
        "inst",
        [random_instance(n, n, (1, 3)) for n in range(8, 13)]
        + [random_instance(n, n, (4, 4)) for n in range(5, 9)]
        + [lattice_instance(3, 4)],
        ids=[f"1..3-n{n}" for n in range(8, 13)]
        + [f"uniform-n{n}" for n in range(5, 9)]
        + ["lattice-3x4"],
    )
    def test_tie_heavy(self, inst):
        self.assert_same_solve(inst)


class TestOpCounts:
    def test_examples(self):
        assert op_count_estimate(6).k_c == 20
        assert op_count_estimate(5).k_4 == 15
        assert op_count_estimate(4).k_4 == 3

    def test_f_n_exact(self):
        assert op_count_estimate(4).f_n == Fraction(32)
        assert op_count_estimate(5).f_n == Fraction(7 * 625 - 16 * 125, 24)

    def test_domain(self):
        with pytest.raises(DomainError):
            op_count_estimate(3)
