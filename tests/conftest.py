"""Shared desk-scale instances used across the test modules."""

from __future__ import annotations

import pytest

from ringtour import CompleteInstance, Cycle, GeneralGraph

# K4: w(1,2)=10 w(1,3)=5 w(1,4)=9 w(2,3)=6 w(2,4)=9 w(3,4)=3
K4_MATRIX = [
    [0, 10, 5, 9],
    [10, 0, 6, 9],
    [5, 6, 0, 3],
    [9, 9, 3, 0],
]

def _k5_weights():
    w = [[0.0] * 5 for _ in range(5)]
    pairs = {
        (1, 2): 6, (1, 3): 10, (1, 4): 5, (1, 5): 11, (2, 3): 10,
        (2, 4): 9, (2, 5): 7, (3, 4): 9, (3, 5): 8, (4, 5): 11,
    }
    for (i, j), val in pairs.items():
        w[i - 1][j - 1] = w[j - 1][i - 1] = val
    return w


def _k6_weights():
    w = [[0.0] * 6 for _ in range(6)]
    pairs = {
        (1, 2): 6, (1, 3): 4, (1, 4): 8, (1, 5): 7, (1, 6): 14,
        (2, 3): 7, (2, 4): 11, (2, 5): 7, (2, 6): 10,
        (3, 4): 4, (3, 5): 3, (3, 6): 10,
        (4, 5): 5, (4, 6): 11, (5, 6): 7,
    }
    for (i, j), val in pairs.items():
        w[i - 1][j - 1] = w[j - 1][i - 1] = val
    return w


# 10-vertex 4-regular test graph with 16 isometric cycles.
G1_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 7), (2, 3), (2, 5), (2, 7), (3, 7), (3, 9),
    (4, 5), (4, 8), (4, 10), (5, 6), (5, 8), (6, 8), (6, 9), (6, 10), (7, 9),
    (8, 10), (9, 10),
]

G1_ISOMETRIC = [
    {1, 2, 5},
    {1, 3, 6, 10},
    {1, 4, 7},
    {2, 4, 8},
    {2, 3, 9, 12, 20},
    {3, 4, 12, 18, 20},
    {5, 7, 8},
    {5, 6, 9, 13, 16},
    {6, 7, 13, 16, 18},
    {8, 9, 18},
    {10, 11, 14},
    {10, 12, 13, 17},
    {11, 12, 19},
    {13, 14, 15},
    {15, 17, 19},
    {16, 17, 20},
]


def cycle_graph(n):
    """C_n on vertices 1..n."""
    return GeneralGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def grid_graph(rows, cols):
    """The rows x cols grid; vertex r*cols + c + 1 sits at (r, c)."""
    at = lambda r, c: r * cols + c + 1
    across = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    down = [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return GeneralGraph(rows * cols, across + down)


def hypercube_graph(d):
    """Q_d: vertex v + 1 for each d-bit v, joined where one bit differs."""
    bits = [1 << i for i in range(d)]
    edges = [(v + 1, (v | b) + 1) for v in range(2**d) for b in bits if not v & b]
    return GeneralGraph(2**d, edges)


def petersen_graph():
    """Outer 5-cycle 1..5, spokes to 6..10, inner pentagram."""
    outer = [(v, v % 5 + 1) for v in range(1, 6)]
    spokes = [(v, v + 5) for v in range(1, 6)]
    inner = [(v + 6, (v + 2) % 5 + 6) for v in range(5)]
    return GeneralGraph(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def k4():
    return CompleteInstance(K4_MATRIX)


@pytest.fixture(scope="session")
def k5():
    return CompleteInstance(_k5_weights())


@pytest.fixture(scope="session")
def k5_e10_40():
    w = _k5_weights()
    w[3][4] = w[4][3] = 40  # edge (4,5)
    return CompleteInstance(w)


@pytest.fixture(scope="session")
def k5_e10_40_e5_50():
    w = _k5_weights()
    w[3][4] = w[4][3] = 40  # edge (4,5)
    w[1][2] = w[2][1] = 50  # edge (2,3)
    return CompleteInstance(w)


@pytest.fixture(scope="session")
def k6():
    return CompleteInstance(_k6_weights())


@pytest.fixture(scope="session")
def g1():
    return GeneralGraph(10, G1_EDGES)


@pytest.fixture
def built_cycles(monkeypatch):
    """A list that grows by one per Cycle built from now on."""
    built = []
    init = Cycle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cycle, "__init__", counting_init)
    return built
