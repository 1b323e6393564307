"""Tests of the benchmark itself: checks, tracing and the no-source refusal.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import ringtour  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, check_tour  # noqa: E402


def _small_ops(tmp_path: Path, seed: int) -> list[workloads.Op]:
    """One op of each kind on desk-sized inputs drawn from ``seed``."""
    from ringtour.oracle import brute_force

    rng = np.random.default_rng(seed)
    w8 = workloads.random_matrix(rng, 8, 1, 100)
    pts = workloads.lattice(3, 3, 2)
    w9 = workloads.random_matrix(rng, 9, 1, 100)
    w_ham = workloads.random_matrix(rng, 12, 1, 100)
    w_mac = workloads.random_matrix(rng, 7, 1, 100)
    return [
        workloads.solve_lib_op("lib", w8),
        workloads.solve_cli_op("grid", "--coords",
                               workloads.write_coords(tmp_path / "grid.txt", pts),
                               workloads.euc2d(pts)),
        workloads.compare_op("cmp", workloads.write_matrix(tmp_path / "cmp.txt", w9), w9,
                             brute_force),
        workloads.unweighted_op("unw", workloads.write_matrix(tmp_path / "ham.txt", w_ham),
                                w_ham, workloads.write_matrix(tmp_path / "mac.txt", w_mac),
                                7, [3, 1, 20]),
    ]


def _traced_metrics(tmp_path: Path, seed: int) -> dict[str, float]:
    tracer = tracing.Tracer()
    with tracer:
        for i, op in enumerate(_small_ops(tmp_path, seed)):
            with tracer.op(i):
                raw = op.run()
            op.check(raw)
    return tracing.layer_metrics(tracer.spans)


def _originals() -> list:
    return [getattr(tracing._resolve(t.owner), t.attr) for t in tracing.TARGETS]


# ---------------------------------------------------------------- checks


def test_checks_accept_every_small_op(tmp_path):
    for op in _small_ops(tmp_path, 3):
        tour = op.check(op.run())
        assert tour.weight >= tour.reference > 0


def test_checker_rejects_swapped_vertices():
    rng = np.random.default_rng(5)
    w = workloads.random_matrix(rng, 9, 1, 100)
    res = ringtour.solve(ringtour.CompleteInstance(w))
    edges = sorted(res.edges)
    check_tour(w, res.sequence, res.weight, edges)
    swapped = list(res.sequence)
    swapped[1], swapped[4] = swapped[4], swapped[1]
    with pytest.raises(CheckError):
        check_tour(w, swapped, res.weight, edges)


def test_checker_rejects_wrong_weight():
    rng = np.random.default_rng(6)
    w = workloads.random_matrix(rng, 9, 1, 100)
    res = ringtour.solve(ringtour.CompleteInstance(w))
    with pytest.raises(CheckError):
        check_tour(w, res.sequence, res.weight + 1)


def test_maclane_check_rejects_wrong_deletion_trace(tmp_path):
    op = _small_ops(tmp_path, 4)[3]
    raw = op.run()
    ham, (code, text) = raw
    report = json.loads(text)
    report["trace"][-1]["p_e"][0] += 1
    with pytest.raises(CheckError):
        op.check([ham, (code, json.dumps(report))])


def test_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    a = workloads.random_matrix(np.random.default_rng(1), 10, 1, 100)
    b = workloads.random_matrix(np.random.default_rng(1), 10, 1, 100)
    c = workloads.random_matrix(np.random.default_rng(2), 10, 1, 100)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.array_equal(a, a.T) and not a.diagonal().any()


# ---------------------------------------------------------------- tracing


def test_two_traced_runs_on_one_seed_give_identical_counts(tmp_path):
    first = _traced_metrics(tmp_path, 7)
    second = _traced_metrics(tmp_path, 7)
    counts = [k for k, (unit, _, _) in tracing.LAYER_METRICS.items()
              if unit in ("count", "bytes") or k.endswith(("kept_per_scanned", "rounds_frac"))]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["hamilton.build_hamiltonian.steps"] == 10  # n - 2 triangles
    assert first["oracle.held_karp.states"] == 8 * 2**8


def test_wrapper_never_called_yields_zero(tmp_path):
    op = _small_ops(tmp_path, 8)[0]  # library solve: no CLI, no oracle
    tracer = tracing.Tracer()
    with tracer:
        with tracer.op(0):
            op.run()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["heuristic.solve.busy_s"] > 0
    for name in ("oracle.held_karp.busy_s", "oracle.held_karp.states", "cli.main.busy_s",
                 "isocycles.pass_vectors.calls", "hamilton.build_hamiltonian.steps"):
        assert metrics[name] == 0


def test_missing_target_is_skipped_and_restored():
    targets = tracing.TARGETS + (
        tracing.Target("ringtour.heuristic", "no_such_function", "gone"),
        tracing.Target("ringtour.no_such_module", "f", "gone"),
    )
    before = _originals()
    seed_frontier = ringtour.heuristic.seed_frontier
    tracer = tracing.Tracer(targets)
    with tracer:
        assert ringtour.heuristic.seed_frontier is not seed_frontier
    assert tracer.missing == ["ringtour.heuristic.no_such_function",
                              "ringtour.no_such_module.f"]
    assert _originals() == before


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "op", "id": 0, "parent": None, "op": 1, "start": 0.0, "end": 10.0,
         "counts": {}},
        {"name": "cli.main", "id": 1, "parent": 0, "op": 1, "start": 0.0, "end": 9.0,
         "counts": {}},
        {"name": "graphs.load_instance", "id": 2, "parent": 1, "op": 1, "start": 1.0,
         "end": 2.0, "counts": {}},
        {"name": "heuristic.solve", "id": 3, "parent": 1, "op": 1, "start": 3.0,
         "end": 8.0, "counts": {}},
        {"name": "heuristic.seed_frontier", "id": 4, "parent": 3, "op": 1, "start": 3.0,
         "end": 4.0, "counts": {"seeds": 2, "frontier": 2}},
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.main.busy_s"] == 9.0
    assert m["cli.self_s"] == 3.0
    assert m["heuristic.solve.self_s"] == 4.0
    assert m["heuristic.frontier.peak"] == 2


def _probe_op(seen: list) -> workloads.Op:
    rng = np.random.default_rng(9)
    w = workloads.random_matrix(rng, 6, 1, 100)
    op = workloads.solve_lib_op("probe", w)
    run = op.run

    def probing_run():
        seen.append(_originals())
        return run()

    op.run = probing_run
    return op


@pytest.mark.parametrize("trace", [0, 1])
def test_tracing_off_installs_no_wrapper(tmp_path, monkeypatch, capsys, trace):
    before = _originals()
    seen: list = []
    monkeypatch.setattr(workloads, "build", lambda *a: [_probe_op(seen)])
    argv = ["--workload", "solve-random", "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--spawned", repr(time.monotonic()),
            "--workdir", str(tmp_path / "w"), "--spans", str(tmp_path / "spans.jsonl")]
    assert child.main(argv) == 0
    records = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert all(r["ok"] for r in records if r["kind"] == "op")
    wrapped = [s != before for s in seen]
    # warm-up, then one untraced pass, then (with tracing) one traced pass
    assert wrapped == ([False, False, True] if trace else [False, False])
    assert _originals() == before


# ---------------------------------------------------------------- refusal


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------- metadata


def test_benchmark_json_matches_the_code_and_the_layer_map():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(layers["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expected = {k: (u, b) for k, (u, b, _) in tracing.LAYER_METRICS.items()}
    expected["trace.overhead_frac"] = ("ratio", "lower")
    assert per_layer == expected
    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    for layer in layers["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in run.E2E_UNITS
            assert set(move["workloads"]) <= set(workloads.WORKLOADS)
        assert set(layer.get("no_change", [])) <= set(workloads.WORKLOADS)


def test_times_are_scaled_by_the_host_kernel():
    import run

    def op(label, seconds, kernel_s):
        return {"kind": "op", "label": label, "timed": True, "traced": False, "pass": 0,
                "seconds": seconds, "ok": True, "weight": 10.0, "reference": 5.0,
                "kernel_s": kernel_s}

    ref = run.KERNEL_REF_S
    ops = [op("a", 1.0, 2 * ref), op("b", 3.0, 2 * ref)]
    setups = [{"setup_s": 4.0, "kernel_s": 2 * ref}]
    m = run._e2e(setups, ops, {"peak_rss_mb": 50.0})
    assert m["op_s_p50"] == 1.0  # median of 0.5 and 1.5
    assert m["ops_per_s"] == 1.0
    assert m["setup_s"] == 2.0
    assert (m["tour_weight_sum"], m["tour_ratio_mean"], m["ok_frac"]) == (20.0, 2.0, 1.0)
