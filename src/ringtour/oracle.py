"""Exact symmetric-TSP solvers for desk-scale verification.

Two routes: full enumeration of the (n-1)!/2 undirected tours (n <= 10)
and the bitmask subset dynamic program (n <= 20).  Both return the exact
optimum; enumeration also counts how many distinct undirected tours attain
it.  Sizes above the caps fail fast rather than attempt infeasible runs.

The subset dynamic program keeps one mask-ordered end-by-subset table per
popcount layer and fills it one end at a time with a gather, add and min.
It keeps no parent pointers: the path is recomputed from the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .graphs import CompleteInstance
from .tours import _canonical_tour

BRUTE_FORCE_MAX_N = 10
HELD_KARP_MAX_N = 20


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with one canonical optimal tour."""

    optimum: float
    tour: tuple[int, ...]
    optimal_count: int | None
    method: str


def _perm_rows(k: int) -> np.ndarray:
    """All permutations of 0..k-1 with first entry < last entry.

    Prepending vertex 0 turns each row into one undirected tour of K_{k+1},
    each counted exactly once, already in canonical orientation.
    """
    rows = np.zeros((1, 0), dtype=np.int16)  # the one permutation of nothing
    for m in range(1, k + 1):
        # block f: f first, then each permutation of the other m - 1 values
        out = np.empty((m * rows.shape[0], m), dtype=np.int16)
        for f, block in enumerate(np.split(out, m)):
            block[:, 0] = f
            np.add(rows, rows >= f, out=block[:, 1:])
        rows = out
    if k >= 2:
        rows = rows[rows[:, 0] < rows[:, -1]]
    return rows


@lru_cache(maxsize=8)
def _tour_cells(n: int) -> np.ndarray:
    """Flat cells ``i*n + j`` of the path edges of each tour of K_n.

    A uint8 (n-2, (n-1)!/2) array, one column per :func:`_perm_rows` tour
    of vertices 1..n-1 (0-based, v0 fixed first): row k holds the edge
    (r_k, r_k+1), so ``cells[0] // n`` is the first vertex and
    ``cells[-1] % n`` the last.
    """
    rows = _perm_rows(n - 1)
    rows += 1
    cells = np.empty((n - 2, rows.shape[0]), dtype=np.uint8)
    # The unsafe casts lose nothing: cells i * n + j stay below n * n <= 100.
    np.multiply(rows[:, :-1].T, n, out=cells, casting="unsafe")
    np.add(cells, rows[:, 1:].T, out=cells, casting="unsafe")
    cells.setflags(write=False)
    return cells


def brute_force(inst: CompleteInstance) -> OracleResult:
    """Enumerate every undirected tour; exact minimum and tie count."""
    n = inst.n
    if not (3 <= n <= BRUTE_FORCE_MAX_N):
        raise DomainError(
            f"brute force handles 3 <= n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    w = inst.weights
    flat = w.ravel()
    cells = _tour_cells(n)
    total = w[0, cells[0] // n] + w[cells[-1] % n, 0]
    for row in cells:
        total += flat[row]
    optimum = float(total.min())
    ties = np.nonzero(total == optimum)[0]
    best = cells[:, ties[0]]  # columns are in lexicographic order
    return OracleResult(
        optimum=optimum,
        tour=(1, *(int(c) // n + 1 for c in best), int(best[-1]) % n + 1),
        optimal_count=int(ties.size),
        method="permutation",
    )


def held_karp(inst: CompleteInstance) -> OracleResult:
    """Subset DP over {v2..vn} with v1 fixed; O(n^2 2^n) time.

    The cheapest path from v1 through a subset S ending at j in S is the
    minimum over i of its cost through ``S - {j}`` ending at i, plus
    ``w(i, j)``.  Layer s holds these costs for the size-s subsets as one
    (n-1, C(n-1, s)) table: a row per end (inf for an end outside the
    subset), a column per subset in ascending mask order, from one stable
    sort by popcount.  Dropping j maps the size-s subsets holding j, in
    order, onto the size-(s-1) subsets lacking j, so step (s, j) is one
    masked gather of the columns lacking j, one add and one min stored
    through the mask of the columns holding j; the tables take
    2^(n-1)·(n-1)·8 bytes in all.

    The path is walked back from the full set, taking as predecessor the
    first i whose sum reproduces the table entry (the first minimiser),
    and the optimum is its weight summed in DP order, so a 0.0 / -0.0 tie
    cannot flip its sign.  The optimal-tour count is taken from
    :func:`brute_force` when n <= 10 and reported as unknown otherwise.
    """
    n = inst.n
    if not (3 <= n <= HELD_KARP_MAX_N):
        raise DomainError(
            f"Held-Karp handles 3 <= n <= {HELD_KARP_MAX_N}, got n={n}"
        )
    w = inst.weights
    k = n - 1  # vertices 1..n-1 (0-based), relative to fixed vertex 0
    wsub = w[1:, 1:]
    sizes = np.bitwise_count(np.arange(1 << k))  # popcount of each mask
    order = np.argsort(sizes, kind="stable")  # masks by size, ascending within
    subsets = np.split(order, np.searchsorted(sizes, range(1, k + 1), sorter=order))
    bits = 1 << np.arange(k)[:, None]
    has = np.eye(k, dtype=bool)  # has[j, t]: subset t of the layer holds j
    layers = [np.full((k, k), np.inf)]  # layers[s - 1] holds the size-s subsets
    np.fill_diagonal(layers[0], w[0, 1:])
    for size in range(2, k + 1):
        lacks, has = ~has, (subsets[size] & bits) != 0
        nxt = np.full((k, has.shape[1]), np.inf)
        for j in range(k):
            # dropping j maps the t-th subset holding j to the t-th lacking j
            cost = np.compress(lacks[j], layers[-1], axis=1)
            cost += wsub[:, j, None]
            nxt[j][has[j]] = cost.min(axis=0)
            del cost  # so the next gather does not coexist with this block
        layers.append(nxt)

    mask = (1 << k) - 1
    path = [int(np.argmin(layers[-1][:, 0] + w[1:, 0]))]
    for size in range(k, 1, -1):
        j = path[-1]
        entry = layers[size - 1][j, np.searchsorted(subsets[size], mask)]
        mask ^= 1 << j
        reach = layers[size - 2][:, np.searchsorted(subsets[size - 1], mask)]
        path.append(int(np.argmax(reach + wsub[:, j] == entry)))
    ids = [0, *(v + 1 for v in reversed(path)), 0]
    optimum = float(np.add.accumulate(w[ids[:-1], ids[1:]])[-1])  # in DP order
    seq = _canonical_tour(tuple(v + 1 for v in ids[:-1]))

    count = brute_force(inst).optimal_count if n <= BRUTE_FORCE_MAX_N else None
    return OracleResult(optimum=optimum, tour=seq, optimal_count=count, method="dp")
