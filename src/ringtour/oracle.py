"""Exact symmetric-TSP solvers for desk-scale verification.

Two routes: full enumeration of the (n-1)!/2 undirected tours (n <= 10)
and the bitmask subset dynamic program (n <= 20).  Both return the exact
optimum; enumeration also counts how many distinct undirected tours attain
it.  Sizes above the caps fail fast rather than attempt infeasible runs.

The subset dynamic program reads only subsets one element smaller, so it
runs one popcount layer at a time: for each subset size and end vertex, one
gather, add and argmin over every subset of that size holding the vertex.
Its table takes 2^(n-1)·(n-1)·8 bytes, 80 MB at the n = 20 cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from math import factorial

import numpy as np

from .errors import DomainError
from .graphs import CompleteInstance

BRUTE_FORCE_MAX_N = 10
HELD_KARP_MAX_N = 20


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with one canonical optimal tour."""

    optimum: float
    tour: tuple[int, ...]
    optimal_count: int | None
    method: str


@lru_cache(maxsize=8)
def _perm_rows(k: int) -> np.ndarray:
    """All permutations of 0..k-1 with first entry < last entry.

    Prepending vertex 0 turns each row into one undirected tour of K_{k+1},
    each counted exactly once, already in canonical orientation.
    """
    rows = np.fromiter(
        chain.from_iterable(permutations(range(k))),
        dtype=np.int16,
        count=k * factorial(k),
    ).reshape(factorial(k), k)
    if k >= 2:
        rows = rows[rows[:, 0] < rows[:, -1]]
    return rows


def brute_force(inst: CompleteInstance) -> OracleResult:
    """Enumerate every undirected tour; exact minimum and tie count."""
    n = inst.n
    if not (3 <= n <= BRUTE_FORCE_MAX_N):
        raise DomainError(
            f"brute force handles 3 <= n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    w = inst.weights
    rows = _perm_rows(n - 1) + 1  # vertices 1..n-1 (0-based), v0 fixed first
    total = w[0, rows[:, 0]] + w[rows[:, -1], 0]
    for k in range(rows.shape[1] - 1):
        total = total + w[rows[:, k], rows[:, k + 1]]
    optimum = float(total.min())
    ties = np.nonzero(total == optimum)[0]
    best = tuple(int(v) + 1 for v in rows[ties[0]])  # rows are in lexicographic order
    return OracleResult(
        optimum=optimum,
        tour=(1,) + best,
        optimal_count=int(ties.size),
        method="permutation",
    )


def held_karp(inst: CompleteInstance) -> OracleResult:
    """Subset DP over {v2..vn} with v1 fixed; O(n^2 2^n) time.

    ``dp[S, j]`` is the cheapest path from v1 through the subset S ending
    at j in S: the minimum over i of ``dp[S - {j}, i] + w(i, j)``, with the
    first minimising i kept as ``parent[S, j]``.  Subsets are taken one
    popcount layer at a time and, within a layer, one end vertex j at a
    time, so each step is one gather, add and argmin over every subset of
    that size holding j.  ``dp`` takes 2^(n-1)·(n-1)·8 bytes (80 MB at
    n = 20).

    The optimal-tour count is taken from :func:`brute_force` when n <= 10
    and reported as unknown otherwise.
    """
    n = inst.n
    if not (3 <= n <= HELD_KARP_MAX_N):
        raise DomainError(
            f"Held-Karp handles 3 <= n <= {HELD_KARP_MAX_N}, got n={n}"
        )
    w = inst.weights
    k = n - 1  # vertices 1..n-1 (0-based), relative to fixed vertex 0
    wsub = w[1:, 1:]
    full = 1 << k
    dp = np.full((full, k), np.inf)
    parent = np.full((full, k), -1, dtype=np.int8)
    for j in range(k):
        dp[1 << j, j] = w[0, j + 1]

    masks = np.arange(full, dtype=np.int32)
    sizes = np.zeros(full, dtype=np.int8)  # popcounts; np.bitwise_count needs numpy 2
    for j in range(k):
        sizes += (masks >> j) & 1
    for size in range(2, k + 1):
        layer = masks[sizes == size]
        for j in range(k):
            ms = layer[(layer >> j) & 1 == 1]
            cost = dp[ms ^ (1 << j)]  # row t: costs ending anywhere in ms[t]\{j}
            cost += wsub[:, j]
            best = np.argmin(cost, axis=1)
            dp[ms, j] = cost[np.arange(ms.size), best]
            parent[ms, j] = best
            del cost  # so the next gather does not coexist with this block

    closing = dp[full - 1] + w[1:, 0]
    j = int(np.argmin(closing))
    optimum = float(closing[j])

    path = []
    mask = full - 1
    while j >= 0:
        path.append(j + 2)  # back to 1-based vertex ids
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj if mask else -1
    path.reverse()
    seq = _canonical_tour((1, *path))

    count = brute_force(inst).optimal_count if n <= BRUTE_FORCE_MAX_N else None
    return OracleResult(optimum=optimum, tour=seq, optimal_count=count, method="dp")


def _canonical_tour(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/flip a tour to start at v1 heading to its smaller neighbour."""
    i = seq.index(1)
    seq = seq[i:] + seq[:i]
    if seq[1] > seq[-1]:
        seq = (seq[0],) + tuple(reversed(seq[1:]))
    return seq
