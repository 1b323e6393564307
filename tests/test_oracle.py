"""Exact oracles: enumeration and the subset dynamic program."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import ringtour
from ringtour import (
    CompleteInstance,
    DomainError,
    OracleResult,
    brute_force,
    held_karp,
    random_instance,
    solve,
)
from ringtour.oracle import BRUTE_FORCE_MAX_N, _canonical_tour, _perm_rows, _tour_cells


def enumerate_tours(inst):
    """Test-local oracle: all undirected tour weights, fixing v1 first."""
    n = inst.n
    out = []
    for perm in permutations(range(2, n + 1)):
        if perm[0] > perm[-1]:
            continue
        seq = (1,) + perm
        w = sum(
            inst.weight(seq[i], seq[(i + 1) % n]) for i in range(n)
        )
        out.append((w, seq))
    return out


def reference_held_karp(inst):
    """Test-local oracle: the subset DP one mask at a time, in mask order."""
    n = inst.n
    w = inst.weights
    k = n - 1
    wsub = w[1:, 1:]
    full = 1 << k
    dp = np.full((full, k), np.inf)
    parent = np.full((full, k), -1, dtype=np.int8)
    for j in range(k):
        dp[1 << j, j] = w[0, j + 1]

    for mask in range(1, full):
        if mask.bit_count() < 2:
            continue
        members = [j for j in range(k) if mask >> j & 1]
        prev_masks = [mask ^ (1 << j) for j in members]
        gathered = dp[prev_masks]  # row t: costs ending anywhere in mask\{j_t}
        cost = gathered + wsub[:, members].T
        best_i = np.argmin(cost, axis=1)
        dp[mask, members] = cost[np.arange(len(members)), best_i]
        parent[mask, members] = best_i

    closing = dp[full - 1] + w[1:, 0]
    j = int(np.argmin(closing))
    optimum = float(closing[j])

    path = []
    mask = full - 1
    while j >= 0:
        path.append(j + 2)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj if mask else -1
    path.reverse()
    count = brute_force(inst).optimal_count if n <= BRUTE_FORCE_MAX_N else None
    return OracleResult(
        optimum=optimum,
        tour=_canonical_tour((1, *path)),
        optimal_count=count,
        method="dp",
    )


def _sweep_instance(n, weights, seed):
    if weights == "tenths":
        return CompleteInstance(random_instance(n, seed, (1, 100)).weights / 10)
    if weights == "-0":
        return CompleteInstance(np.full((n, n), -0.0))
    if weights == "+-0":  # each edge's zero gets a seeded sign
        signs = random_instance(n, seed, (0, 1)).weights
        return CompleteInstance(np.where(signs == 1, -0.0, 0.0))
    lo, hi = map(int, weights.split(".."))
    return random_instance(n, seed, (lo, hi))


# Narrow and uniform weights tie often, so the first-index argmin decides
# the parent pointers; tenths sum inexactly, so the float sums must match;
# signed zeros tie 0.0 with -0.0, so the optimum's sign must match too.
HK_REFERENCE_CASES = (
    [
        (n, weights, seed)
        for n in range(3, 15)
        for weights in ("1..100", "1..3", "1..2")
        for seed in (1, 2)
    ]
    + [(n, "4..4", 1) for n in range(3, 15)]
    + [(n, "tenths", seed) for n in (5, 8, 11, 14) for seed in (1, 2)]
    + [(n, "-0", 1) for n in range(4, 9)]
    + [(n, "+-0", seed) for n in range(4, 9) for seed in range(1, 21)]
    + [(15, "1..3", 1), (16, "1..100", 1), (17, "1..100", 1)]
    + [(18, "1..3", 1), (20, "1..2", 1)]  # ties above n = 17, at the cap
)


class TestBruteForce:
    def test_k4_full_multiset(self, k4):
        tours = enumerate_tours(k4)
        assert sorted(w for w, _ in tours) == [27, 28, 29]
        res = brute_force(k4)
        assert res.optimum == 27
        assert res.optimal_count == 1
        assert res.method == "permutation"

    def test_k5_twelve_tours(self, k5):
        tours = enumerate_tours(k5)
        assert len(tours) == 12
        res = brute_force(k5)
        assert res.optimum == min(w for w, _ in tours) == 35
        assert res.tour == (1, 2, 5, 3, 4)

    def test_all_equal_weights(self):
        for n in (4, 5, 6):
            inst = random_instance(n, 1, (3, 3))
            res = brute_force(inst)
            assert res.optimum == 3 * n
            assert res.optimal_count == math.factorial(n - 1) // 2

    def test_uniform_weights_at_the_cap(self):
        # every tour ties; the canonical one is the lexicographically smallest
        n = BRUTE_FORCE_MAX_N
        res = brute_force(random_instance(n, 1, (4, 4)))
        assert res.tour == tuple(range(1, n + 1))
        assert res.optimal_count == math.factorial(n - 1) // 2

    def test_tour_weight_matches_optimum(self):
        for seed in range(6):
            inst = random_instance(7, seed, (1, 99))
            res = brute_force(inst)
            w = sum(
                inst.weight(res.tour[i], res.tour[(i + 1) % 7]) for i in range(7)
            )
            assert w == res.optimum

    def test_canonical_tour_form(self):
        inst = random_instance(8, 123, (1, 50))
        res = brute_force(inst)
        assert res.tour[0] == 1
        assert res.tour[1] < res.tour[-1]

    def test_size_caps(self):
        with pytest.raises(DomainError):
            brute_force(random_instance(11, 1, (1, 9)))

    @pytest.mark.parametrize("k", range(10))
    def test_perm_rows_in_permutation_order(self, k):
        rows = [p for p in permutations(range(k)) if k < 2 or p[0] < p[-1]]
        got = _perm_rows(k)
        assert got.dtype == np.int16
        assert got.shape == ((math.factorial(k) // 2, k) if k >= 2 else (1, k))
        assert got.tolist() == [list(p) for p in rows]

    @pytest.mark.parametrize("n", range(3, 10))
    def test_tour_cells_are_path_edges(self, n):
        # the path edges in order, one column per tour
        tours = [p for p in permutations(range(1, n)) if p[0] < p[-1]]
        want = [[a * n + b for a, b in zip(p, p[1:])] for p in tours]
        got = _tour_cells(n)
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert got.max() < n * n
        assert got.T.tolist() == want


class TestHeldKarp:
    def test_k6_matches_enumeration(self, k6):
        dp = held_karp(k6)
        bf = brute_force(k6)
        assert dp.optimum == bf.optimum == 36
        assert dp.tour == bf.tour
        assert dp.optimal_count == bf.optimal_count == 1
        assert dp.method == "dp"

    def test_k5_variants(self, k5_e10_40, k5_e10_40_e5_50):
        assert held_karp(k5_e10_40).optimum == 35
        assert held_karp(k5_e10_40_e5_50).optimum == 35

    def test_n3(self):
        inst = random_instance(3, 4, (1, 20))
        res = held_karp(inst)
        assert res.optimum == sum(inst.edge_weight(e) for e in range(1, 4))
        assert res.tour == (1, 2, 3)

    def test_count_unknown_beyond_enumeration(self):
        inst = random_instance(11, 2, (1, 30))
        res = held_karp(inst)
        assert res.optimal_count is None
        w = sum(
            inst.weight(res.tour[i], res.tour[(i + 1) % 11]) for i in range(11)
        )
        assert w == res.optimum

    def test_matches_brute_force_random(self):
        rng = random.Random(31415)
        for _ in range(40):
            n = rng.randint(4, 9)
            inst = random_instance(n, rng.randint(0, 10**6), (1, 100))
            assert held_karp(inst).optimum == brute_force(inst).optimum

    def test_relabel_invariance(self):
        rng = random.Random(7)
        base = random_instance(8, 99, (1, 80))
        opt = held_karp(base).optimum
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            p = np.array(perm)
            shuffled = CompleteInstance(base.weights[np.ix_(p, p)])
            assert held_karp(shuffled).optimum == opt

    def test_size_caps(self):
        with pytest.raises(DomainError):
            held_karp(random_instance(21, 1, (1, 9)))

    @pytest.mark.parametrize("n,weights,seed", HK_REFERENCE_CASES)
    def test_matches_reference(self, n, weights, seed):
        inst = _sweep_instance(n, weights, seed)
        got, want = held_karp(inst), reference_held_karp(inst)
        assert got == want
        assert repr(got.optimum) == repr(want.optimum)  # 0.0 == -0.0

    def test_memory_is_the_tables(self):
        # The layer tables hold (n-1)·2^(n-1) floats; a cache kept beside
        # them, such as every step's gather index, pushes the peak past 1.25.
        # A fresh interpreter runs the call, so no earlier test can have
        # built such a cache before tracing starts.
        n = 16
        script = (
            "import tracemalloc\n"
            "from ringtour import held_karp, random_instance\n"
            f"inst = random_instance({n}, 1, (1, 100))\n"
            "tracemalloc.start()\n"
            "held_karp(inst)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = str(Path(ringtour.__file__).parents[1])  # the package under test
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        peak = int(out.stdout)
        assert peak <= 1.25 * (n - 1) * 2 ** (n - 1) * 8

    def test_at_the_cap(self):
        inst = random_instance(20, 5, (1, 100))
        res = held_karp(inst)
        assert sorted(res.tour) == list(range(1, 21))
        w = sum(
            inst.weight(res.tour[i], res.tour[(i + 1) % 20]) for i in range(20)
        )
        assert w == res.optimum
        assert res.optimal_count is None


class TestHeuristicMeetsOptimum:
    def test_all_worked_instances(
        self, k4, k5, k5_e10_40, k5_e10_40_e5_50, k6
    ):
        # the oracle first establishes each optimum independently; the
        # heuristic happens to reach it on all five desk instances
        for inst in (k4, k5, k5_e10_40, k5_e10_40_e5_50, k6):
            optimum = brute_force(inst).optimum
            res = solve(inst)
            assert res.weight >= optimum
            assert res.weight == optimum
