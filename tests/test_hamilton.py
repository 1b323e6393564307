"""Touching-triangle Hamiltonian construction."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from ringtour import (
    CompleteInstance,
    CycleKind,
    DomainError,
    EdgeSet,
    build_hamiltonian,
    classify,
    cycle_vertex_sequence,
    cycle_weight,
    is_touching,
    obod,
    random_instance,
    triangle_index,
    triangles,
)
from ringtour.hamilton import _triangle_by_index


def tri_on(tri_set, verts):
    (cyc,) = [c for c in tri_set if c.vertices == frozenset(verts)]
    return cyc


def reference_build(inst, start_triangle):
    """(triangle, shared edge, weight) per step, straight from the definitions.

    Each round sums in the first triangle of ``triangles(inst)``, in order,
    that touches the current cycle.
    """
    tri_set = triangles(inst)
    first = tri_set.cycle(start_triangle)
    current = first.edges
    steps = [(tuple(sorted(first.vertices)), 0, cycle_weight(current, inst))]
    while len(current) < inst.n:
        z = classify(current, inst).cycle
        tri = next(t for t in tri_set if is_touching(z, t))
        (shared,) = current & tri.edges
        current = current ^ tri.edges
        steps.append((tuple(sorted(tri.vertices)), shared, cycle_weight(current, inst)))
    return steps


def reference_search_build(inst, start_triangle):
    """(triangle, shared edge, repr(weight)) per step, by a split search.

    Each apex, the smallest uncovered vertex, goes into the walk edge whose
    sorted triple with it sorts first, found by scanning every walk edge.
    """
    a, b, c = _triangle_by_index(inst.n, start_triangle)
    weight = inst.weight(a, b) + inst.weight(a, c) + inst.weight(b, c)
    walk, steps = [a, b, c], [((a, b, c), 0, repr(weight))]
    for apex in sorted(set(range(1, inst.n + 1)) - {a, b, c}):
        size = len(walk)
        i = min(
            range(size),
            key=lambda k: sorted((walk[k], walk[(k + 1) % size], apex)),
        )
        u, v = walk[i], walk[(i + 1) % size]
        weight = weight + (
            (inst.weight(u, apex) + inst.weight(v, apex)) - inst.weight(u, v)
        )
        walk.insert(i + 1, apex)
        steps.append((tuple(sorted((u, v, apex))), inst.edge_id(u, v), repr(weight)))
    return steps


class TestIsTouching:
    def test_share_edge_one_new_vertex(self, k5):
        tri = triangles(k5)
        assert is_touching(tri_on(tri, (1, 3, 5)), tri_on(tri, (3, 4, 5)))
        assert is_touching(tri_on(tri, (3, 4, 5)), tri_on(tri, (1, 3, 5)))

    def test_identical_false(self, k5):
        tri = triangles(k5)
        c = tri_on(tri, (1, 2, 3))
        assert not is_touching(c, c)

    def test_disjoint_false(self, k6):
        tri = triangles(k6)
        assert not is_touching(tri_on(tri, (1, 2, 3)), tri_on(tri, (4, 5, 6)))

    def test_shared_vertex_only_false(self, k5):
        tri = triangles(k5)
        assert not is_touching(tri_on(tri, (1, 2, 3)), tri_on(tri, (3, 4, 5)))

    def test_grown_cycle_touching(self, k5):
        tri = triangles(k5)
        fold = tri_on(tri, (1, 3, 5)).edges ^ tri_on(tri, (3, 4, 5)).edges
        z = classify(fold, k5).cycle
        assert is_touching(z, tri_on(tri, (2, 3, 4)))


class TestRingSumWalkthroughs:
    def test_k5_three_triangle_chain(self, k5):
        tri = triangles(k5)
        step1 = tri_on(tri, (1, 3, 5)).edges ^ tri_on(tri, (3, 4, 5)).edges
        assert classify(step1, k5).cycle.vertices == frozenset({1, 3, 4, 5})
        chain = step1 ^ tri_on(tri, (2, 3, 4)).edges
        assert chain.ids() == (2, 4, 5, 6, 10)
        assert classify(chain, k5).cycle.vertices == frozenset(range(1, 6))

    def test_k6_four_triangle_chain(self, k6):
        tri = triangles(k6)
        z1 = tri.cycle(1).edges ^ tri.cycle(2).edges
        assert z1.ids() == (2, 3, 6, 7)
        z2 = z1 ^ tri.cycle(8).edges
        assert z2.ids() == (2, 4, 6, 7, 13)
        z3 = z2 ^ tri.cycle(13).edges
        assert z3.ids() == (2, 4, 7, 9, 12, 13)
        assert classify(z3, k6).cycle.vertices == frozenset(range(1, 7))


class TestBuildHamiltonian:
    def test_k3_trivial(self):
        inst = random_instance(3, 5, (1, 9))
        res = build_hamiltonian(inst)
        assert res.sequence == (1, 2, 3)
        assert len(res.trace.steps) == 1

    def test_k6_deterministic_scan(self, k6):
        res = build_hamiltonian(k6)
        assert res.edges.ids() == (4, 5, 6, 7, 11, 14)
        assert [s.triangle for s in res.trace.steps] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6),
        ]
        again = build_hamiltonian(k6)
        assert again.edges == res.edges and again.sequence == res.sequence

    def test_intermediate_states_stay_simple(self, k6):
        res = build_hamiltonian(k6)
        acc = None
        covered = set()
        for step in res.trace.steps:
            a, b, c = step.triangle
            t = EdgeSet.of(
                (k6.edge_id(a, b), k6.edge_id(a, c), k6.edge_id(b, c)), k6.m
            )
            acc = t if acc is None else acc ^ t
            new_covered = covered | {a, b, c}
            assert len(new_covered) == len(covered) + (3 if not covered else 1)
            covered = new_covered
            cls = classify(acc, k6)
            assert cls.kind is CycleKind.SIMPLE_CYCLE
            assert cls.cycle.vertices == frozenset(covered)

    def test_start_triangle(self, k5):
        res = build_hamiltonian(k5, start_triangle=5)  # triangle (1,3,5)
        assert res.trace.steps[0].triangle == (1, 3, 5)
        cls = classify(res.edges, k5)
        assert cls.cycle.vertices == frozenset(range(1, 6))

    def test_bad_start(self, k5):
        with pytest.raises(DomainError):
            build_hamiltonian(k5, start_triangle=11)
        with pytest.raises(DomainError):
            build_hamiltonian(k5, start_triangle=0)

    def test_random_runs(self):
        # 1000 seeded runs: n-2 triangles, full cover, ring-sum identity
        rng = random.Random(167)
        for _ in range(1000):
            n = rng.randint(3, 10)
            inst = random_instance(n, rng.randint(0, 10**6), (1, 50))
            start = rng.randint(1, n * (n - 1) * (n - 2) // 6)
            res = build_hamiltonian(inst, start_triangle=start)
            assert len(res.trace.steps) == n - 2
            assert len(res.edges) == n
            cls = classify(res.edges, inst)
            assert cls.kind is CycleKind.SIMPLE_CYCLE
            assert cls.cycle.vertices == frozenset(range(1, n + 1))
            folded = obod(
                [
                    EdgeSet.of(
                        (
                            inst.edge_id(a, b),
                            inst.edge_id(a, c),
                            inst.edge_id(b, c),
                        ),
                        inst.m,
                    )
                    for a, b, c in (s.triangle for s in res.trace.steps)
                ]
            )
            assert folded == res.edges
            recomputed = sum(inst.edge_weight(e) for e in res.edges)
            assert recomputed == res.weight


    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_reference_every_start(self, n):
        inst = random_instance(n, n, (1, 30))
        for start in range(1, n * (n - 1) * (n - 2) // 6 + 1):
            res = build_hamiltonian(inst, start_triangle=start)
            got = [(s.triangle, s.shared_edge, s.weight) for s in res.trace.steps]
            assert got == reference_build(inst, start)

    def test_matches_reference_seeded_starts(self):
        rng = random.Random(4)
        for n in range(9, 13):
            inst = random_instance(n, rng.randint(0, 10**6), (1, 50))
            for _ in range(5):
                start = rng.randint(1, n * (n - 1) * (n - 2) // 6)
                res = build_hamiltonian(inst, start_triangle=start)
                got = [(s.triangle, s.shared_edge, s.weight) for s in res.trace.steps]
                assert got == reference_build(inst, start)

    @pytest.mark.parametrize("n", [13, 30, 60, 120])
    def test_split_rule_matches_search(self, n):
        # tenths make every running weight depend on its summation order
        inst = CompleteInstance(random_instance(n, n, (1, 100)).weights / 10)
        kc = n * (n - 1) * (n - 2) // 6
        rng = random.Random(n)
        starts = [1, (kc + 1) // 2, kc] + [rng.randint(1, kc) for _ in range(5)]
        for start in starts:
            res = build_hamiltonian(inst, start_triangle=start)
            got = [
                (s.triangle, s.shared_edge, repr(s.weight)) for s in res.trace.steps
            ]
            assert got == reference_search_build(inst, start)


class TestTriangleByIndex:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_round_trip_every_id(self, n):
        for k, tri in enumerate(combinations(range(1, n + 1), 3), start=1):
            assert _triangle_by_index(n, k) == tri
            assert triangle_index(n, *tri) == k

    def test_last_id_large_n(self):
        last = math.comb(300, 3)
        assert _triangle_by_index(300, last) == (298, 299, 300)
        assert triangle_index(300, 298, 299, 300) == last

    @pytest.mark.parametrize("k", [0, 21])
    def test_out_of_range(self, k):
        with pytest.raises(DomainError):
            _triangle_by_index(6, k)


class TestVertexSequence:
    def test_k6_tour(self, k6):
        res = build_hamiltonian(k6)
        # known spanning cycle: edges {e1,e2,e9,e10,e13,e15}
        target = EdgeSet.of((1, 2, 9, 10, 13, 15), 15)
        assert cycle_vertex_sequence(target, k6.endpoints) == (1, 2, 6, 5, 4, 3)
        assert cycle_vertex_sequence(res.edges, k6.endpoints) == res.sequence

    def test_triangle(self, k5):
        tri = EdgeSet.of((1, 2, 5), 10)
        assert cycle_vertex_sequence(tri, k5.endpoints) == (1, 2, 3)

    def test_orientation_invariance(self, k6):
        # both walk directions describe one edge set, one canonical order
        walk = (1, 3, 4, 5, 6, 2)
        forward = EdgeSet.of(
            [k6.edge_id(walk[i], walk[(i + 1) % 6]) for i in range(6)], 15
        )
        backward = EdgeSet.of(
            [k6.edge_id(walk[i], walk[i - 1]) for i in range(6)], 15
        )
        assert forward == backward
        assert cycle_vertex_sequence(forward, k6.endpoints) == (1, 2, 6, 5, 4, 3)

    def test_not_a_cycle(self, k5):
        with pytest.raises(DomainError):
            cycle_vertex_sequence(EdgeSet.of((1, 2), 10), k5.endpoints)
        # triangle plus a dangling edge leaves odd-degree vertices
        with pytest.raises(DomainError):
            cycle_vertex_sequence(EdgeSet.of((1, 2, 5, 10), 10), k5.endpoints)

    def test_disjoint_triangles_not_connected(self, k6):
        # every vertex has degree 2, but the walk from one meets only three
        pairs = ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))
        ids = [k6.edge_id(u, v) for u, v in pairs]
        with pytest.raises(DomainError, match="not connected"):
            cycle_vertex_sequence(EdgeSet.of(ids, 15), k6.endpoints)

    def test_cycle_avoiding_vertex_one(self, k6):
        # starts at its smallest vertex, heading to the smaller neighbour
        tri = EdgeSet.of([k6.edge_id(6, 4), k6.edge_id(6, 5), k6.edge_id(4, 5)], 15)
        assert cycle_vertex_sequence(tri, k6.endpoints) == (4, 5, 6)
