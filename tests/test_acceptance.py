"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
property and benchmark criteria (7 and 9) dominate the runtime; the whole
module stays inside the ten-minute budget of criterion 9.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from itertools import combinations, permutations

from ringtour import (
    CompleteInstance,
    CycleKind,
    EdgeSet,
    brute_force,
    classify,
    deletion_trace,
    extend_frontier,
    held_karp,
    isometric_cycles,
    maclane_f1,
    maclane_f2,
    pass_vectors,
    quad_cycles,
    random_instance,
    ring_sum,
    seed_frontier,
    solve,
    triangle_count,
    triangles,
)
from ringtour.cli import main


def _criterion(label: str, checks: dict[str, bool], detail: str = "") -> None:
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert not failed, f"{label}: failed checks: {failed}"


def _enumerate_tour_weights(inst) -> list[float]:
    n = inst.n
    out = []
    for perm in permutations(range(2, n + 1)):
        if perm[0] > perm[-1]:
            continue
        seq = (1,) + perm
        out.append(sum(inst.weight(seq[i], seq[(i + 1) % n]) for i in range(n)))
    return out


def test_criterion_1_k4_worked_example(k4):
    t0 = time.perf_counter()
    res = solve(k4)
    elapsed = time.perf_counter() - t0
    oracle = brute_force(k4)
    weights = sorted(_enumerate_tour_weights(k4))
    _criterion(
        "1 (K4 worked example)",
        {
            "weight 27": res.weight == 27,
            "edge set {e1,e2,e5,e6}": res.edges.ids() == (1, 2, 5, 6),
            "oracle optimum 27": oracle.optimum == 27,
            "tour weight multiset {27,28,29}": weights == [27, 28, 29],
            "runtime < 1 s": elapsed < 1.0,
        },
        detail=f"{elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_k5_base_example(k5):
    res = solve(k5, trace=True)
    seed = res.trace.frontier_history[0]
    optimum = brute_force(k5).optimum
    assert len(_enumerate_tour_weights(k5)) == 12
    ratio = res.weight / optimum
    _criterion(
        "2 (K5 base example)",
        {
            "weight 35": res.weight == 35,
            "edge set {e1,e3,e7,e8,e9}": res.edges.ids() == (1, 3, 7, 8, 9),
            "seed weight 29": seed.weight == 29,
            "seed edge set {e1,e3,e7,e10}": seed.candidates[0].edges.ids()
            == (1, 3, 7, 10),
            "heuristic equals desk value": res.weight == 35,
        },
        detail=f"optimum={optimum:g}, ratio={ratio:.4f}",
    )


def test_criterion_3_k5_perturbations(k5_e10_40, k5_e10_40_e5_50):
    res_a = solve(k5_e10_40)
    res_b = solve(k5_e10_40_e5_50)
    _criterion(
        "3 (K5 perturbation experiments)",
        {
            "e10=40: weight 35": res_a.weight == 35,
            "e10=40: same edge set": res_a.edges.ids() == (1, 3, 7, 8, 9),
            "e10=40,e5=50: weight 35": res_b.weight == 35,
            "e10=40,e5=50: same edge set": res_b.edges.ids() == (1, 3, 7, 8, 9),
        },
    )


def test_criterion_4_k6_worked_example(k6):
    t0 = time.perf_counter()
    res = solve(k6, beam="all-ties", trace=True)
    elapsed = time.perf_counter() - t0
    hist = res.trace.frontier_history
    seed_sets = {c.edges.ids() for c in hist[0].candidates}
    tri = triangles(k6)
    z19 = EdgeSet.of((2, 4, 10, 13), 15)
    z5 = EdgeSet.of((1, 2, 8, 11), 15)
    five = ring_sum(z19, tri.cycle(3).edges)
    _criterion(
        "4 (K6 worked example)",
        {
            "weight 36": res.weight == 36,
            "edge set {e1,e2,e9,e10,e13,e15}": res.edges.ids() == (1, 2, 9, 10, 13, 15),
            "4-cycle frontier is the three 20s": seed_sets
            == {(1, 2, 8, 11), (2, 4, 10, 13), (2, 3, 11, 13)},
            "frontier weight 20": hist[0].weight == 20,
            "5-cycle minimum 26": hist[1].weight == 26,
            "single 5-cycle candidate": len(hist[1].candidates) == 1,
            "reached by two decompositions": five
            == ring_sum(z5, tri.cycle(17).edges)
            == hist[1].candidates[0].edges,
            "runtime < 1 s": elapsed < 1.0,
        },
        detail=f"{elapsed * 1e3:.1f} ms",
    )


def test_criterion_5_functional_regressions(g1, k5):
    iso = isometric_cycles(g1)
    pv = pass_vectors(iso)
    expected_pe = (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 4, 4, 2, 2, 3, 3, 3, 2, 3)
    tri = triangles(k5)
    states = deletion_trace(tri, [1, 6, 8, 2, 4])
    # Erratum: the source quotes P_e = (5, 5, 6, 3, ...), F1 = 78 and
    # F2 = 354 for G1.  Its own 16-cycle listing (ten triangles, two
    # 4-cycles, four 5-cycles) has total length 58, but that vector sums
    # to 65; e1, e2 and e3 each lie in exactly three listed cycles, and the
    # quoted vector agrees with the listing everywhere else.  78 and 354
    # are the functionals of the misprinted vector, so only the three
    # counts are wrong; the listing's counts give F1 = 40 and F2 = 132.
    _criterion(
        "5 (functional regressions)",
        {
            "G1 cycle count 16": len(iso) == 16,
            "G1 P_e vector": pv.p_e == expected_pe,
            "G1 F1 = 40": maclane_f1(iso) == 40,
            "G1 F2 = 132": maclane_f2(iso) == 132,
            "K5 triangle F2 = 60": maclane_f2(tri) == 60,
            "K5 deletion trace 42,24,12,6,0": [f2 for _, f2 in states[1:]]
            == [42, 24, 12, 6, 0],
        },
        detail=f"computed G1: P_e[:3]={pv.p_e[:3]}, "
        f"F1={maclane_f1(iso)}, F2={maclane_f2(iso)}",
    )


def test_criterion_6_obod_identity(k5):
    tri = triangles(k5)
    sets = {frozenset({1, 3, 5}), frozenset({2, 3, 4}), frozenset({3, 4, 5})}
    chosen = [c.edges for c in tri if c.vertices in sets]
    rim = chosen[0] ^ chosen[1] ^ chosen[2]
    cls = classify(rim, k5)
    annihilated = rim ^ chosen[0] ^ chosen[1] ^ chosen[2]
    _criterion(
        "6 (obod identity)",
        {
            "three cycles found": len(chosen) == 3,
            "rim is a simple cycle": cls.kind is CycleKind.SIMPLE_CYCLE,
            "rim spans all five vertices": cls.cycle is not None
            and cls.cycle.vertices == frozenset(range(1, 6)),
            "ring-summing back yields empty": not annihilated,
        },
    )


def test_criterion_7_property_suite():
    rng = random.Random(777)
    count = 210
    ratios = []
    checks = {
        "valid hamiltonian": True,
        "heuristic >= optimum": True,
        "held_karp == brute_force": True,
        "rescaling leaves edge set": True,
    }
    for k in range(count):
        n = rng.randint(5, 10)
        inst = random_instance(n, rng.randint(0, 10**9), (1, 100))
        res = solve(inst)
        cls = classify(res.edges, inst)
        if not (
            cls.kind is CycleKind.SIMPLE_CYCLE
            and cls.cycle.vertices == frozenset(range(1, n + 1))
            and len(res.edges) == n
        ):
            checks["valid hamiltonian"] = False
        dp = held_karp(inst)
        bf = brute_force(inst)
        if dp.optimum != bf.optimum:
            checks["held_karp == brute_force"] = False
        if res.weight < dp.optimum:
            checks["heuristic >= optimum"] = False
        ratios.append(res.weight / dp.optimum)
        scaled = solve(CompleteInstance(inst.weights * 3))
        if scaled.edges.ids() != res.edges.ids():
            checks["rescaling leaves edge set"] = False
    med = statistics.median(ratios)
    _criterion(
        "7 (property suite)",
        checks,
        detail=f"{count} instances, median ratio={med:.4f}, "
        f"max ratio={max(ratios):.4f}, exact={sum(r == 1.0 for r in ratios)}",
    )


def test_criterion_8_combinatorial_counts():
    checks = {}
    for n in range(4, 11):
        inst = random_instance(n, n, (1, 9))
        tri = triangles(inst)
        checks[f"n={n} triangles"] = (
            len(tri) == triangle_count(n) == n * (n - 1) * (n - 2) // 6
        )
        distinct = set()
        for quad in combinations(range(1, n + 1), 4):
            qt = quad_cycles(inst, quad)
            distinct.update(c.ids() for c in qt.cycles)
        checks[f"n={n} four-cycles"] = len(distinct) == 3 * math.comb(n, 4)
    _criterion("8 (combinatorial counts)", checks)


def test_criterion_9_complexity_smoke(tmp_path):
    out = tmp_path / "bench.json"
    t0 = time.perf_counter()
    code = main(
        [
            "bench",
            "--sizes", "50,100,200,400",
            "--seeds", "3",
            "--format", "json",
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.read_text())
    slope = payload["results"]["slope"]
    medians = payload["results"]["median_ms"]
    _criterion(
        "9 (complexity smoke test)",
        {
            "bench completed": code == 0 and len(payload["results"]["rows"]) == 12,
            "slope in (2.5, 5.0)": slope is not None and 2.5 < slope < 5.0,
            "total under 10 min": elapsed < 600.0,
        },
        detail=f"slope={slope:.3f}, medians(ms)="
        + ", ".join(f"{n}:{ms:.0f}" for n, ms in medians.items())
        + f", total={elapsed:.0f}s",
    )
