"""The lineage replay: tour_result against a per-step reference loop."""

from __future__ import annotations

import numpy as np
import pytest

from ringtour import CompleteInstance, EdgeSet, random_instance, solve, triangle_index
from ringtour import hamilton, heuristic
from ringtour.hamilton import build_hamiltonian
from ringtour.isocycles import triangle_count
from ringtour.tours import (
    TourResult,
    TourTrace,
    TraceStep,
    _canonical_tour,
    tour_result,
)


def reference_tour_result(inst, lineage, history=None, start=None):
    """tour_result, one growth at a time: insert, add the gain, rank the triple."""
    walk = list(lineage.walk)
    steps = [] if start is None else [start]
    weight = lineage.weight
    for i, apex in lineage.growths:
        u, v = walk[i], walk[(i + 1) % len(walk)]
        weight += (inst.weight(u, apex) + inst.weight(v, apex)) - inst.weight(u, v)
        tri = tuple(sorted((u, v, apex)))
        split = inst.edge_id(u, v)
        steps.append(TraceStep(tri, triangle_index(inst.n, *tri), split, weight))
        walk.insert(i + 1, apex)

    def walk_edges(walk):
        ends = zip(walk, [*walk[1:], walk[0]])
        return EdgeSet.of((inst.edge_id(u, v) for u, v in ends), inst.m)

    trace = TourTrace(
        seed=walk_edges(lineage.walk),
        seed_vertices=lineage.walk,
        seed_weight=lineage.weight,
        steps=tuple(steps),
        frontier_history=tuple(history) if history is not None else None,
    )
    seq = _canonical_tour(tuple(walk))
    edges = walk_edges(walk)
    return TourResult(sequence=seq, edges=edges, weight=weight, trace=trace, n=inst.n)


def assert_same_result(got, want):
    assert got.trace.steps == want.trace.steps
    # == holds for 0.0 and -0.0; repr tells them apart
    assert [repr(s.weight) for s in got.trace.steps] == [
        repr(s.weight) for s in want.trace.steps
    ]
    assert repr(got.weight) == repr(want.weight)
    assert got.sequence == want.sequence
    assert got.edges == want.edges
    assert got.trace.seed == want.trace.seed
    assert got.trace.seed_vertices == want.trace.seed_vertices


@pytest.fixture()
def replays(monkeypatch):
    """(inst, args, result) for every tour_result call that solve or build makes."""
    calls = []

    def recording(inst, *args, **kwargs):
        res = tour_result(inst, *args, **kwargs)
        calls.append((inst, args, kwargs, res))
        return res

    monkeypatch.setattr(heuristic, "tour_result", recording)
    monkeypatch.setattr(hamilton, "tour_result", recording)
    return calls


def decimal_instance(n):
    return CompleteInstance(random_instance(n, n).weights / 7)


def negative_zero_instance(n):
    """Weights 0..3 with every zero written as -0.0, the diagonal included."""
    w = random_instance(n, n, (0, 3)).weights.copy()
    w[w == 0] = -0.0
    return CompleteInstance(w)


# kind: (instance of order n, frontier cap); a cap of 64 keeps the tie-heavy
# kinds to about a second, and their lineages are solve's all the same
INSTANCES = {
    "1..100": (lambda n: random_instance(n, n), heuristic.K),
    "1..3": (lambda n: random_instance(n, n, (1, 3)), 64),
    "sevenths": (decimal_instance, heuristic.K),
    "negative-zero": (negative_zero_instance, 64),
}


class TestReplayMatchesReference:
    @pytest.mark.parametrize("kind", INSTANCES)
    def test_solve_lineages(self, monkeypatch, replays, kind):
        make, cap = INSTANCES[kind]
        monkeypatch.setattr(heuristic, "K", cap)
        for n in range(3, 61):
            solve(make(n))
        assert len(replays) == 58
        for inst, args, kwargs, res in replays:
            assert_same_result(res, reference_tour_result(inst, *args, **kwargs))

    @pytest.mark.parametrize("n", range(5, 9))
    def test_build_every_start(self, replays, n):
        inst = random_instance(n, n)
        for k in range(1, triangle_count(n) + 1):
            build_hamiltonian(inst, k)
        assert len(replays) == triangle_count(n)
        for inst, args, kwargs, res in replays:
            assert kwargs["start"].shared_edge == 0
            assert_same_result(res, reference_tour_result(inst, *args, **kwargs))

    def test_negative_zero_weights_keep_their_sign(self, replays):
        # every edge -0.0: each gain is (-0.0 + -0.0) - -0.0 = 0.0
        inst = CompleteInstance(np.full((6, 6), -0.0))
        res = solve(inst)
        assert repr(res.trace.seed_weight) == "-0.0"
        assert [repr(s.weight) for s in res.trace.steps] == ["0.0", "0.0"]
        (call,) = replays
        assert_same_result(res, reference_tour_result(call[0], *call[1], **call[2]))
