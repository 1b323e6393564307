"""The package's public export list."""

from __future__ import annotations

import pytest

import ringtour


def test_every_export_resolves():
    for name in ringtour.__all__:
        assert hasattr(ringtour, name), name


def test_exports_sorted_and_unique():
    assert list(ringtour.__all__) == sorted(set(ringtour.__all__))


def test_construction_state_is_gone():
    assert "ConstructionState" not in ringtour.__all__
    assert not hasattr(ringtour, "ConstructionState")


def test_frontier_snapshot_is_gone():
    assert "FrontierSnapshot" not in ringtour.__all__
    assert not hasattr(ringtour, "FrontierSnapshot")
    assert not hasattr(ringtour.tours, "FrontierSnapshot")
    assert not hasattr(ringtour.Frontier, "snapshot")


def test_candidate_constructors_are_gone():
    # a frontier is built only from its arrays
    assert "FrontierCandidate" not in ringtour.__all__
    assert not hasattr(ringtour.heuristic, "FrontierCandidate")
    assert not hasattr(ringtour.Frontier, "edge_sets")
    assert not hasattr(ringtour.Frontier, "_of_rows")
    assert not hasattr(ringtour.Frontier, "_set")
    with pytest.raises(TypeError):
        ringtour.Frontier(candidates=(), length=3, beam=1)


def test_cycle_row_caches_are_gone(k6):
    # frontier rows and cycle sets are CycleRows views that keep no cycle
    assert not hasattr(ringtour.heuristic, "_Candidates")
    assert not hasattr(ringtour.seed_frontier(k6), "_built")
    assert not hasattr(ringtour.triangles(k6), "_built")


def test_frontier_history_holds_frontiers(k6):
    hist = ringtour.solve(k6, trace=True).trace.frontier_history
    assert all(isinstance(f, ringtour.Frontier) for f in hist)
    assert [f.length for f in hist] == [4, 5, 6]
