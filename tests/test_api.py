"""The package's public export list."""

from __future__ import annotations

import ringtour


def test_every_export_resolves():
    for name in ringtour.__all__:
        assert hasattr(ringtour, name), name


def test_exports_sorted_and_unique():
    assert list(ringtour.__all__) == sorted(set(ringtour.__all__))


def test_construction_state_is_gone():
    assert "ConstructionState" not in ringtour.__all__
    assert not hasattr(ringtour, "ConstructionState")
