"""Ring-sum algebra, classification and cycle weights."""

from __future__ import annotations

import random

import pytest

from ringtour import (
    CycleKind,
    CycleRows,
    DomainError,
    EdgeSet,
    IsometricCycleSet,
    classify,
    cycle_weight,
    intersect,
    isometric_cycles,
    obod,
    random_instance,
    ring_sum,
    seed_frontier,
    solve,
    triangles,
    union,
)


def es(ids, m):
    return EdgeSet.of(ids, m)


class TestSetOperations:
    # Worked six-edge example: {e1,e2,e3} vs {e1,e3,e4,e5}
    def test_ring_sum_example(self):
        a = es([1, 2, 3], 6)
        b = es([1, 3, 4, 5], 6)
        assert (a ^ b).ids() == (2, 4, 5)
        assert ring_sum(a, b) == es([2, 4, 5], 6)

    def test_union_intersect_example(self):
        a = es([1, 2, 3], 6)
        b = es([1, 3, 4, 5], 6)
        assert union(a, b).ids() == (1, 2, 3, 4, 5)
        assert intersect(a, b).ids() == (1, 3)
        assert intersect(a, EdgeSet.empty(6)) == EdgeSet.empty(6)

    def test_identity_and_self_inverse(self):
        x = es([2, 5, 7], 10)
        assert x ^ EdgeSet.empty(10) == x
        assert x ^ x == EdgeSet.empty(10)

    def test_mismatched_ambient(self):
        with pytest.raises(DomainError):
            es([1], 5) ^ es([1], 6)
        with pytest.raises(DomainError):
            union(es([1], 5), es([1], 6))
        with pytest.raises(DomainError):
            intersect(es([1], 5), es([1], 6))

    def test_membership_iteration(self):
        x = es([3, 1, 9], 10)
        assert list(x) == [1, 3, 9]
        assert 3 in x and 2 not in x and 11 not in x
        assert len(x) == 3
        assert x.render() == "{e1,e3,e9}"

    def test_of_range_checks(self):
        with pytest.raises(DomainError):
            es([0], 5)
        with pytest.raises(DomainError):
            es([6], 5)

    def test_value_semantics(self):
        x = EdgeSet(10, 0b10110)
        assert hash(x) == hash((10, 0b10110))
        assert x == EdgeSet(10, 0b10110)
        assert x != EdgeSet(11, 0b10110)
        assert x != (10, 0b10110) and x != 0b10110
        with pytest.raises(AttributeError):
            x.mask = 0
        with pytest.raises(AttributeError):
            x.m = 11

    def test_constructor_range_checks(self):
        with pytest.raises(DomainError):
            EdgeSet(-1)
        with pytest.raises(DomainError):
            EdgeSet(3, 1 << 4)
        with pytest.raises(DomainError):
            EdgeSet(3, 0b11)
        assert EdgeSet(3) == EdgeSet.empty(3)

    def test_group_laws_random(self):
        # commutativity / associativity / identity / self-inverse, 1000 trials
        rng = random.Random(20240711)
        for _ in range(1000):
            m = rng.randint(1, 64)
            draw = lambda: EdgeSet(m, rng.getrandbits(m) << 1)
            a, b, c = draw(), draw(), draw()
            assert a ^ b == b ^ a
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert a ^ EdgeSet.empty(m) == a
            assert a ^ a == EdgeSet.empty(m)


class TestClassify:
    def test_simple_cycle_k5(self, k5):
        res = classify(es([1, 3, 7, 8, 9], 10), k5)
        assert res.kind is CycleKind.SIMPLE_CYCLE
        assert res.cycle.vertices == frozenset({1, 2, 3, 4, 5})
        assert all(d == 2 for _, d in res.cycle.degree_profile)

    def test_empty(self, k5):
        assert classify(EdgeSet.empty(10), k5).kind is CycleKind.EMPTY

    def test_disjoint_triangles_quasicycle(self, k6):
        t1 = es([k6.edge_id(1, 2), k6.edge_id(1, 3), k6.edge_id(2, 3)], 15)
        t2 = es([k6.edge_id(4, 5), k6.edge_id(4, 6), k6.edge_id(5, 6)], 15)
        res = classify(t1 ^ t2, k6)
        assert res.kind is CycleKind.QUASICYCLE
        assert not res.cycle.simple
        assert res.cycle.vertices == frozenset(range(1, 7))

    def test_figure_eight_quasicycle(self, k5):
        # two triangles sharing exactly one vertex: even degrees, degree 4 hub
        t1 = es([k5.edge_id(1, 2), k5.edge_id(1, 3), k5.edge_id(2, 3)], 10)
        t2 = es([k5.edge_id(3, 4), k5.edge_id(3, 5), k5.edge_id(4, 5)], 10)
        res = classify(t1 ^ t2, k5)
        assert res.kind is CycleKind.QUASICYCLE
        assert res.cycle.degree(3) == 4
        assert res.cycle.degree(6) == 0  # K5 has no vertex 6
        assert len(res.cycle) == 6  # its edges, not its five vertices

    def test_path_not_cycle(self, k5):
        res = classify(es([1, 5], 10), k5)  # (1,2)+(2,3): open path
        assert res.kind is CycleKind.NOT_CYCLE
        assert res.cycle is None

    def test_ambient_mismatch(self, k5):
        with pytest.raises(DomainError):
            classify(es([1], 15), k5)


class TestCycleWeight:
    def test_k4_triangle(self, k4):
        assert cycle_weight(es([2, 3, 6], 6), k4) == 17

    def test_empty(self, k4):
        assert cycle_weight(EdgeSet.empty(6), k4) == 0

    def test_k5_quad(self, k5):
        assert cycle_weight(es([1, 3, 7, 10], 10), k5) == 29

    def test_cycle_object(self, k5):
        res = classify(es([1, 3, 7, 8, 9], 10), k5)
        assert cycle_weight(res.cycle, k5) == 35


class TestObod:
    def test_single(self):
        x = es([1, 2, 5], 10)
        assert obod([x]) == x

    def test_empty_list_needs_m(self):
        assert obod([], m=6) == EdgeSet.empty(6)
        with pytest.raises(DomainError):
            obod([])

    def test_g1_rim(self, g1):
        cyc = {
            3: [1, 4, 7],
            7: [5, 7, 8],
            8: [5, 6, 9, 13, 16],
            10: [8, 9, 18],
            11: [10, 11, 14],
            12: [10, 12, 13, 17],
            13: [11, 12, 19],
            16: [16, 17, 20],
        }
        rim = obod([es(ids, 20) for ids in cyc.values()])
        assert rim == es([1, 4, 6, 14, 18, 19, 20], 20)
        res = classify(rim, g1)
        assert res.kind is CycleKind.SIMPLE_CYCLE
        assert res.cycle.vertices == frozenset({1, 2, 5, 7, 8, 9, 10})

    def test_k5_independent_triple(self, k5):
        # triangles on (1,3,5), (2,3,4), (3,4,5) fold to a spanning 5-cycle
        tri = triangles(k5)
        sets = {frozenset({1, 3, 5}), frozenset({2, 3, 4}), frozenset({3, 4, 5})}
        chosen = [c.edges for c in tri if c.vertices in sets]
        assert len(chosen) == 3
        fold = obod(chosen)
        res = classify(fold, k5)
        assert res.kind is CycleKind.SIMPLE_CYCLE
        assert res.cycle.vertices == frozenset({1, 2, 3, 4, 5})
        # summing the rim back in annihilates the system
        assert obod(chosen + [fold]) == EdgeSet.empty(10)

    def test_touching_sum_is_simple(self, k6):
        # ring sum of two touching simple cycles joins their vertex sets
        tri = triangles(k6)
        count = 0
        for a in tri:
            for b in tri:
                inter = a.edges & b.edges
                if len(inter) == 1 and len(b.vertices - a.vertices) == 1:
                    res = classify(a.edges ^ b.edges, k6)
                    assert res.kind is CycleKind.SIMPLE_CYCLE
                    assert res.cycle.vertices == a.vertices | b.vertices
                    count += 1
        assert count > 0


# Each maker takes request.getfixturevalue, so a view may start from a fixture.
CYCLE_ROW_VIEWS = {
    "seed-frontier": lambda get: seed_frontier(random_instance(8, 2), 4).candidates,
    "grown-frontier": lambda get: solve(random_instance(9, 3, (1, 3)), 3, trace=True)
    .trace.frontier_history[2]
    .candidates,
    "k6-triangles": lambda get: triangles(get("k6")),
    "g1-isometric": lambda get: isometric_cycles(get("g1")),
}


class TestCycleRows:
    @pytest.fixture(params=sorted(CYCLE_ROW_VIEWS))
    def view(self, request, built_cycles):
        view = CYCLE_ROW_VIEWS[request.param](request.getfixturevalue)
        built_cycles.clear()  # solve builds its tour's cycles
        return view

    def test_len_builds_nothing(self, view, built_cycles):
        assert isinstance(view, CycleRows)
        assert len(view) > 2 and built_cycles == []

    def test_item_builds_that_cycle_alone(self, view, built_cycles):
        rows = tuple(view)
        assert len(built_cycles) == len(rows) == len(view)
        for k in (0, len(view) // 2, len(view) - 1, -1, -len(view)):
            built_cycles.clear()
            assert view[k] == rows[k]
            assert len(built_cycles) == 1

    def test_first_of_iter_builds_one(self, view, built_cycles):
        assert next(iter(view)) == view[0]
        assert len(built_cycles) == 2

    def test_index_past_either_end(self, view, built_cycles):
        for k in (len(view), -len(view) - 1):
            with pytest.raises(IndexError):
                view[k]
        assert built_cycles == []

    def test_slice_refused(self, view, built_cycles):
        with pytest.raises(TypeError, match="'slice' object cannot be interpreted"):
            view[1:3]
        assert built_cycles == []

    @pytest.mark.parametrize("view", ["g1-isometric", "k6-triangles"], indirect=True)
    def test_one_based_accessor_keeps_domain_error(self, view, built_cycles):
        assert isinstance(view, IsometricCycleSet)
        assert view.cycle(len(view)) == view[-1]
        for k in (0, len(view) + 1):
            with pytest.raises(DomainError):
                view.cycle(k)
        assert len(built_cycles) == 2
