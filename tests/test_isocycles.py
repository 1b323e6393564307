"""Triangle/isometric-cycle enumeration, pass vectors, MacLane functionals."""

from __future__ import annotations

import inspect
import json
import random
import sys
from itertools import combinations, islice

import pytest

from ringtour import (
    CycleKind,
    DomainError,
    GeneralGraph,
    build_hamiltonian,
    classify,
    cycle_vertex_sequence,
    deletion_trace,
    isometric_cycles,
    maclane_f1,
    maclane_f2,
    pass_vectors,
    random_instance,
    solve,
    triangle_count,
    triangle_index,
    triangles,
)
from ringtour import cli, hamilton, isocycles, tours
from ringtour.graphs import edge_id
from conftest import (
    G1_EDGES,
    G1_ISOMETRIC,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    petersen_graph,
)


def reference_pass_vectors(cycles, graph):
    """Per-cycle counting loop, as pass vectors were counted before arrays."""
    p_e = [0] * graph.m
    p_v = [0] * graph.n
    for c in cycles:
        for e in c.edges:
            p_e[e - 1] += 1
        for v in c.vertices:
            p_v[v - 1] += 1
    return tuple(p_e), tuple(p_v)


def reference_functionals(p_e):
    """F1 and F2 as per-edge sums; F1 counts only the live (p > 0) edges."""
    live = [p for p in p_e if p > 0]
    f1 = sum(p * p for p in live) - 3 * sum(live) + 2 * len(live)
    f2 = sum(p**3 for p in p_e) - 3 * sum(p * p for p in p_e) + 2 * sum(p_e)
    return f1, f2


def reference_isometric_cycles(g):
    """(edges, vertices, offsets) lists from a recursive path DFS.

    The enumerator as it stood before the one-rule search: prefixes are
    pruned by a lower bound on the arc distance, and each closed path is
    re-checked pair by pair.
    """
    dist = g.distance_matrix()
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}
    found = {}

    def isometric_closed(path):
        k = len(path)
        for i in range(k):
            di = dist[path[i]]
            for j in range(i + 1, k):
                t = j - i
                if di[path[j]] != min(t, k - t):
                    return False
        return True

    def extend(path, on_path):
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
    rows = sorted((sorted(ids), sorted(path)) for ids, path in found.items())
    offsets = [0]
    for ids, _ in rows:
        offsets.append(offsets[-1] + len(ids))
    return (
        [e for ids, _ in rows for e in ids],
        [v for _, verts in rows for v in verts],
        offsets,
    )


def assert_isometric(g, dist, cyc):
    """Every pair of the cycle's vertices realises its shorter arc."""
    seq = cycle_vertex_sequence(cyc.edges, g.endpoints)
    k = len(seq)
    for i in range(k):
        for j in range(i + 1, k):
            t = j - i
            assert dist[seq[i]][seq[j]] == min(t, k - t)


def is_connected(g):
    return all(d >= 0 for d in g.distance_matrix()[1][1:])


def random_graph(n, seed, p=0.45):
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return GeneralGraph(n, edges)


class TestTriangles:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_count(self, n):
        inst = random_instance(n, seed=n, weight_range=(1, 9))
        tri = triangles(inst)
        assert len(tri) == triangle_count(n) == n * (n - 1) * (n - 2) // 6

    def test_k5_first_triangle(self, k5):
        tri = triangles(k5)
        assert len(tri) == 10
        c1 = tri.cycle(1)
        assert c1.edges.ids() == (1, 2, 5)
        assert c1.vertices == frozenset({1, 2, 3})

    def test_k6_last_triangle(self, k6):
        tri = triangles(k6)
        assert len(tri) == 20
        assert tri.cycle(20).edges.ids() == (13, 14, 15)
        assert tri.cycle(20).vertices == frozenset({4, 5, 6})

    def test_k3_single(self):
        inst = random_instance(3, 1, (1, 5))
        tri = triangles(inst)
        assert len(tri) == 1
        assert tri.cycle(1).edges.ids() == (1, 2, 3)

    @pytest.mark.parametrize("n", [6, 8])
    def test_lexicographic_order_and_index(self, n):
        inst = random_instance(n, seed=1, weight_range=(1, 9))
        tri = triangles(inst)
        expected = list(combinations(range(1, n + 1), 3))
        for k, cyc in enumerate(tri, start=1):
            a, b, c = sorted(cyc.vertices)
            assert (a, b, c) == expected[k - 1]
            assert triangle_index(n, a, b, c) == k

    @pytest.mark.parametrize(
        "triple", [(3, 2, 1), (1, 3, 2), (1, 1, 2), (2, 2, 2), (0, 1, 2), (1, 2, 9)]
    )
    def test_index_refuses_bad_triples(self, triple):
        with pytest.raises(DomainError):
            triangle_index(5, *triple)

    def test_tour_builders_pass_sorted_triples(self, monkeypatch, k6):
        seen = []
        real, real_ids = triangle_index, tours._triangle_ids

        def recording(n, a, b, c):
            seen.append((n, a, b, c))
            return real(n, a, b, c)

        def recording_ids(n, tris):
            seen.extend((n, *tri) for tri in tris.tolist())
            return real_ids(n, tris)

        monkeypatch.setattr(tours, "_triangle_ids", recording_ids)
        monkeypatch.setattr(hamilton, "triangle_index", recording)
        for inst in (k6, random_instance(9, 4, (1, 3))):
            solve(inst, trace=True)
            for k in range(1, triangle_count(inst.n) + 1):
                build_hamiltonian(inst, k)
        assert seen and all(1 <= a < b < c <= n for n, a, b, c in seen)

    @pytest.mark.parametrize("n", [*range(3, 13), 40, 45])
    def test_arrays_match_combinations(self, n):
        tri = triangles(random_instance(n, seed=n, weight_range=(1, 9)))
        triples = list(combinations(range(1, n + 1), 3))
        ids = [
            (edge_id(a, b, n), edge_id(a, c, n), edge_id(b, c, n))
            for a, b, c in triples
        ]
        assert tri.edges.tolist() == [e for row in ids for e in row]
        assert tri.vertices.tolist() == [v for row in triples for v in row]
        assert tri.offsets.tolist() == list(range(0, 3 * len(triples) + 1, 3))

    def test_builds_no_cycle_until_read(self, built_cycles):
        tri = triangles(random_instance(12, 1, (1, 9)))
        assert len(tri) == 220 and built_cycles == []
        last = tri.cycle(220)
        assert len(built_cycles) == 1
        assert last == tri.cycles[-1] and len(built_cycles) == 1 + 220

    @pytest.mark.parametrize("delete", [None, "1,6,8,100"])
    def test_maclane_builds_no_cycle(self, built_cycles, capsys, delete):
        argv = ["maclane", "--random", "n=12", "seed=2", "--format", "json"]
        if delete:
            argv += ["--delete", delete]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert built_cycles == []

    @pytest.mark.parametrize("delete", [None, "1,6,8,100"])
    def test_maclane_histograms_each_state_once(self, monkeypatch, capsys, delete):
        calls = []
        real = isocycles._histogram

        def counting(p_e):
            calls.append(p_e.tolist())
            return real(p_e)

        monkeypatch.setattr(isocycles, "_histogram", counting)
        argv = ["maclane", "--random", "n=12", "seed=2", "--format", "json"]
        if delete:
            argv += ["--delete", delete]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        # the full set's state, whose f1 and f2 share one histogram, then
        # one per removal
        states = report["trace"] or [{"p_e": report["results"]["p_e"]}]
        assert calls == [state["p_e"] for state in states]


class TestIsometricCycles:
    def test_g1_matches_listing(self, g1):
        iso = isometric_cycles(g1)
        assert len(iso) == 16
        got = {frozenset(c.edges.ids()) for c in iso}
        assert got == {frozenset(s) for s in G1_ISOMETRIC}
        # includes the 5-cycle {e2,e3,e9,e12,e20}
        assert frozenset({2, 3, 9, 12, 20}) in got

    def test_k4_only_triangles(self):
        g = GeneralGraph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        iso = isometric_cycles(g)
        assert len(iso) == 4
        assert all(len(c.edges) == 3 for c in iso)

    def test_plain_cycle_graph(self):
        g = GeneralGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        iso = isometric_cycles(g)
        assert len(iso) == 1
        assert iso.cycle(1).vertices == frozenset(range(1, 6))

    def test_disconnected_rejected(self):
        g = GeneralGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        with pytest.raises(DomainError):
            isometric_cycles(g)

    @pytest.mark.parametrize("graph_seed", [3, 11, 28])
    def test_definition_check(self, graph_seed):
        # every returned cycle realises BFS distances along its arcs
        n = 9
        g = random_graph(n, graph_seed)
        dist = g.distance_matrix()
        if any(dist[1][v] < 0 for v in range(2, n + 1)):
            pytest.skip("random graph came out disconnected")
        for cyc in isometric_cycles(g):
            assert_isometric(g, dist, cyc)

    @staticmethod
    def assert_matches_reference(g):
        iso = isometric_cycles(g)
        got = (iso.edges.tolist(), iso.vertices.tolist(), iso.offsets.tolist())
        assert got == reference_isometric_cycles(g)

    @pytest.mark.parametrize("p", [0.15, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", range(4, 17))
    def test_random_graphs_match_reference(self, n, p):
        # the first six connected draws; p = 0.15 at n = 5 needs 220 seeds
        graphs = (random_graph(n, seed, p) for seed in range(1000))
        connected = list(islice(filter(is_connected, graphs), 6))
        assert len(connected) == 6
        for g in connected:
            self.assert_matches_reference(g)

    @pytest.mark.parametrize(
        "make",
        [lambda n=n: cycle_graph(n) for n in range(3, 12)]
        + [
            petersen_graph,
            lambda: grid_graph(5, 5),
            lambda: hypercube_graph(4),
            lambda: hypercube_graph(5),
            lambda: GeneralGraph(10, G1_EDGES),
        ],
        ids=[f"C{n}" for n in range(3, 12)] + ["petersen", "grid5x5", "Q4", "Q5", "G1"],
    )
    def test_named_graphs_match_reference(self, make):
        self.assert_matches_reference(make())

    def test_q6_count_and_definition(self):
        # 6,544 and 36 were counted by the reference, which takes ~12 s on Q6
        g = hypercube_graph(6)
        iso = isometric_cycles(g)
        assert len(iso) == 6544
        dist = g.distance_matrix()
        for cyc in iso:
            assert_isometric(g, dist, cyc)
        assert len(isometric_cycles(grid_graph(7, 7))) == 36

    def test_long_cycle_needs_no_recursion(self):
        # a search that recursed once per path vertex would need 200 frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            iso = isometric_cycles(cycle_graph(200))
        finally:
            sys.setrecursionlimit(limit)
        assert len(iso) == 1
        assert iso.vertices.tolist() == list(range(1, 201))


class TestSimpleCycleBuilder:
    """Every simple Cycle the library builds is the one classify finds."""

    @staticmethod
    def assert_classified(cycles, graph):
        for cycle in cycles:
            found = classify(cycle.edges, graph)
            assert found.kind is CycleKind.SIMPLE_CYCLE and cycle == found.cycle

    @pytest.mark.parametrize("n", range(3, 13))
    def test_triangles(self, n):
        inst = random_instance(n, n)
        self.assert_classified(triangles(inst), inst)

    @pytest.mark.parametrize("graph_seed", [None, 3, 11, 28, 40])
    def test_isometric_cycles(self, g1, graph_seed):
        g = g1 if graph_seed is None else random_graph(9, graph_seed)
        self.assert_classified(isometric_cycles(g), g)

    @pytest.mark.parametrize("beam", ["all-ties", 2])
    @pytest.mark.parametrize(
        "inst",
        [random_instance(n, n, (1, 100)) for n in (3, 7, 10)]
        + [random_instance(9, 9, (1, 3)), random_instance(6, 6, (4, 4))],
        ids=["random-n3", "random-n7", "random-n10", "1..3-n9", "uniform-n6"],
    )
    def test_frontier_rows(self, inst, beam):
        for frontier in solve(inst, beam, trace=True).trace.frontier_history:
            self.assert_classified(frontier.candidates, inst)
            rows = zip(frontier.candidates, frontier.walks.tolist(), strict=True)
            for cycle, walk in rows:
                assert cycle.vertices == frozenset(walk)


class TestPassVectors:
    def test_k5_full_set(self, k5):
        pv = pass_vectors(triangles(k5))
        assert pv.p_e == (3,) * 10
        assert pv.p_v == (6,) * 5

    def test_g1_vector(self, g1):
        # counts derived from the 16-cycle listing itself
        pv = pass_vectors(isometric_cycles(g1))
        assert pv.p_e == (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 4, 4, 2, 2, 3, 3, 3, 2, 3)
        assert sum(pv.p_e) == sum(len(s) for s in G1_ISOMETRIC)

    def test_empty(self, k5):
        pv = pass_vectors([], graph=k5)
        assert pv.p_e == (0,) * 10
        assert pv.p_v == (0,) * 5

    def test_counts_refuse_ids_out_of_range(self, k5):
        # after deleting c1 and c2, e1 passes once and e10 three times, so
        # reading index 0 as the last entry would show
        state, _ = deletion_trace(triangles(k5), [1, 2])[-1]
        assert (state.edge_count(1), state.edge_count(10)) == (1, 3)
        assert (state.vertex_count(1), state.vertex_count(5)) == (4, 6)
        for eid in (0, -1, 11):
            with pytest.raises(DomainError):
                state.edge_count(eid)
        for v in (0, -1, 6):
            with pytest.raises(DomainError):
                state.vertex_count(v)

    def test_sum_matches_cycle_lengths(self, k6):
        tri = triangles(k6)
        pv = pass_vectors(tri)
        assert sum(pv.p_e) == sum(len(c.edges) for c in tri)
        for v in range(1, 7):
            assert pv.vertex_count(v) == sum(1 for c in tri if v in c.vertices)

    @pytest.mark.parametrize("n", [5, 9, 14])
    def test_bare_subsets_match_reference(self, n):
        inst = random_instance(n, seed=n, weight_range=(1, 9))
        cycles = triangles(inst).cycles
        rng = random.Random(n)
        for size in (0, 1, 7, len(cycles) // 2, len(cycles)):
            chosen = rng.sample(cycles, min(size, len(cycles)))
            pv = pass_vectors(chosen, graph=inst)
            assert (pv.p_e, pv.p_v) == reference_pass_vectors(chosen, inst)

    @pytest.mark.parametrize("graph_seed", [None, 3, 11, 28, 40])
    def test_isometric_sets_match_reference(self, g1, graph_seed):
        g = g1 if graph_seed is None else random_graph(9, graph_seed)
        try:
            iso = isometric_cycles(g)
        except DomainError:
            pytest.skip("random graph came out disconnected")
        pv = pass_vectors(iso)
        assert (pv.p_e, pv.p_v) == reference_pass_vectors(iso.cycles, g)
        assert pass_vectors(list(iso), graph=g) == pv

    def test_foreign_cycle_refused(self, k5, k6):
        with pytest.raises(DomainError):
            pass_vectors(triangles(k6).cycles[-1:], graph=k5)


class TestMacLane:
    def test_g1_functionals(self, g1):
        # values implied by the 16-cycle listing (all pass counts positive)
        iso = isometric_cycles(g1)
        assert maclane_f1(iso) == 40
        assert maclane_f2(iso) == 132

    def test_k5_cubic(self, k5):
        assert maclane_f2(triangles(k5)) == 60

    def test_single_triangle_zero(self, k5):
        tri = triangles(k5)
        assert maclane_f2([tri.cycle(1)], graph=k5) == 0

    def test_f1_ignores_zero_edges(self, k5):
        # single triangle: three live edges with p=1 give 3*(1-3)+2*3 = 0
        tri = triangles(k5)
        assert maclane_f1([tri.cycle(1)], graph=k5) == 0

    def test_spanning_triple_flattens(self, k5):
        # the three-triangle system whose rim spans K5: zero cubic value,
        # and the rim edges are exactly the five pass-count-1 entries
        tri = triangles(k5)
        sets = {frozenset({1, 3, 5}), frozenset({2, 3, 4}), frozenset({3, 4, 5})}
        chosen = [c for c in tri if c.vertices in sets]
        assert maclane_f2(chosen, graph=k5) == 0
        pv = pass_vectors(chosen, graph=k5)
        assert sum(1 for p in pv.p_e if p == 1) == 5


    @pytest.mark.parametrize("n", range(3, 41))
    def test_triangles_match_per_edge_sums(self, n):
        pv = pass_vectors(triangles(random_instance(n, n, (1, 9))))
        assert (pv.f1, pv.f2) == reference_functionals(pv.p_e)

    @pytest.mark.parametrize("graph_seed", [None, 3, 11, 28, 40])
    def test_isometric_sets_match_per_edge_sums(self, g1, graph_seed):
        g = g1 if graph_seed is None else random_graph(9, graph_seed)
        try:
            pv = pass_vectors(isometric_cycles(g))
        except DomainError:
            pytest.skip("random graph came out disconnected")
        assert (pv.f1, pv.f2) == reference_functionals(pv.p_e)
        if graph_seed is None:  # G1's edges pass 2, 3 or 4 times
            assert set(pv.p_e) == {2, 3, 4}

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_deletion_states_match_per_edge_sums(self, n):
        # deleting most triangles leaves zero-pass edges next to live ones
        tri = triangles(random_instance(n, n, (1, 9)))
        order = random.Random(n).sample(range(1, len(tri) + 1), len(tri) - 2)
        for pv, f2 in deletion_trace(tri, order):
            assert (pv.f1, f2) == reference_functionals(pv.p_e)


class TestDeletionTrace:
    def test_k5_known_sequence(self, k5):
        tri = triangles(k5)
        states = deletion_trace(tri, [1, 6, 8, 2])
        assert states[0][1] == 60
        assert [f2 for _, f2 in states[1:]] == [42, 24, 12, 6]
        more = deletion_trace(tri, [1, 6, 8, 2, 4])
        assert more[-1][1] == 0

    def test_remove_nothing(self, k5):
        tri = triangles(k5)
        states = deletion_trace(tri, [])
        assert len(states) == 1
        assert states[0][1] == maclane_f2(tri)

    def test_additivity(self, k6):
        # each removal decrements exactly its own edges and vertices
        tri = triangles(k6)
        order = [5, 17, 2]
        states = deletion_trace(tri, order)
        for step, idx in enumerate(order, start=1):
            cyc = tri.cycle(idx)
            prev, cur = states[step - 1][0], states[step][0]
            for e in range(1, 16):
                drop = 1 if e in cyc.edges else 0
                assert prev.p_e[e - 1] - cur.p_e[e - 1] == drop
            for v in range(1, 7):
                drop = 1 if v in cyc.vertices else 0
                assert prev.p_v[v - 1] - cur.p_v[v - 1] == drop

    def test_bad_indices(self, k5):
        tri = triangles(k5)
        with pytest.raises(DomainError):
            deletion_trace(tri, [0])
        with pytest.raises(DomainError):
            deletion_trace(tri, [1, 1])
        with pytest.raises(DomainError):
            deletion_trace(tri, [11])

    def test_mixed_lengths_match_reference(self, g1):
        # G1's listing mixes triangles, 4-cycles and 5-cycles, so each
        # removal reads a slice of its own length.
        iso = isometric_cycles(g1)
        lengths = {hi - lo for lo, hi in zip(iso.offsets, iso.offsets[1:])}
        assert sorted(lengths) == [3, 4, 5]
        order = [16, 1, 9, 4, 13, 2, 15]
        states = deletion_trace(iso, order)
        left = list(range(1, 17))
        for step, idx in enumerate([None, *order]):
            if idx is not None:
                left.remove(idx)
            p_e, p_v = reference_pass_vectors([iso.cycle(k) for k in left], g1)
            pv, f2 = states[step]
            assert (pv.p_e, pv.p_v) == (p_e, p_v)
            assert (pv.f1, f2) == reference_functionals(p_e)
