"""ringtour benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload solve-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all, both modes

Run from the root of a source checkout (``src/ringtour`` must be there; it
is imported from source, nothing is installed).  Each invocation starts the
workload in child processes (``child.py``): two that only set up, to time
set-up three times, then one that sets up and measures.  No worker threads
or pools; numpy is held to one thread.

With ``--trace 0`` the result carries the end-to-end metrics, measured with
no wrapper installed.  With ``--trace 1`` the measuring child runs one
untraced pass and then the same pass traced, and the result carries the
per-layer metrics of ``tracer.py``.  Every output is checked; a failed op
(raised, wrong output, or past its deadline) is counted, never fatal.  The
last line of standard output is the JSON result; lines before it give each
metric with its unit and the sample counts.

End-to-end metrics (``--trace 0``).  Times are wall times scaled to a
reference host speed: each op's time is multiplied by KERNEL_REF_S over the
time of ``child.host_kernel_s``, a fixed kernel run just before it, and
each set-up time by KERNEL_REF_S over the median of five kernel runs just
after it.  On a shared 2-vCPU host the same code ran up to 1.5x slower for
15-30 min at a time; over eight 20 s runs of one seed set, the scaling cut
the IQR/median of op_s_p50 and ops_per_s from 0.19 and 0.16 to 0.07 and
0.06 on solve-grid-ties, and from 0.22 and 0.23 to 0.12 and 0.05 on
compare-oracle.  The line before the metrics gives the kernel times, from
which the wall times follow.  An input's op time is the median of its
scaled op times in the run.
  op_s_p50         median over inputs of the op time, in s
  ops_per_s        inputs / summed op time, in 1/s
  setup_s          median over three children of spawn-to-first-timed-op, in s
  peak_rss_mb      ru_maxrss of the measuring child, in MiB
  tour_weight_sum  sum of the tour weights of one pass (exact per seed)
  tour_ratio_mean  mean over one pass of tour weight / reference: the exact
                   optimum on compare-oracle, elsewhere half the sum over
                   vertices of the two cheapest edges (a lower bound)
  ok_frac          ops that passed their check / ops attempted
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = HERE / "_work"
SETUP_RUNS = 3
# child.host_kernel_s() on a quiet 2-vCPU Xeon host; the time scale of the
# end-to-end metrics.
KERNEL_REF_S = 0.015
# Wall-clock budget of one invocation, below the 180 s the result must
# arrive within.
RUN_BUDGET_S = 170.0
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

E2E_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "tour_weight_sum": "weight",
    "tour_ratio_mean": "ratio",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _spawn(args, workdir: Path, deadline: float, setup_only: bool,
           spans: Path | None = None) -> list[dict]:
    """Run one child to completion; return its JSON records."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **SINGLE_THREAD}
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise BenchError(f"child ran past the run budget\n{err}")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}\n{err}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _per_input(ops: list[dict], traced: bool) -> dict[str, float]:
    """Median time of each input's timed ops, so that inputs the loop
    reached once more than others do not tilt the mix."""
    times: dict[str, list[float]] = {}
    for r in ops:
        if r["timed"] and r["traced"] == traced and r["seconds"] is not None:
            times.setdefault(r["label"], []).append(r["seconds"])
    return {label: median(v) for label, v in times.items()}


def _e2e(setups: list[dict], ops: list[dict], end: dict) -> dict[str, float]:
    scaled = [{**r, "seconds": r["seconds"] * KERNEL_REF_S / r["kernel_s"]}
              for r in ops if "kernel_s" in r and r["seconds"] is not None]
    seconds = list(_per_input(scaled, traced=False).values())
    if not seconds:
        raise BenchError("no timed op completed")
    first = [r for r in ops if r["timed"] and r.get("pass") == 0]
    tours = [r for r in first if r["ok"]]
    failed = sum(1 for r in ops if not r["ok"])
    return {
        "op_s_p50": median(seconds),
        "ops_per_s": len(seconds) / sum(seconds),
        "setup_s": median(r["setup_s"] * KERNEL_REF_S / r["kernel_s"] for r in setups),
        "peak_rss_mb": end["peak_rss_mb"],
        "tour_weight_sum": sum(r["weight"] for r in tours),
        "tour_ratio_mean": (sum(r["weight"] / r["reference"] for r in tours)
                            / max(len(tours), 1)),
        "ok_frac": (len(ops) - failed) / len(ops),
    }


def _inconsistent(ops: list[dict]) -> list[str]:
    """Same input, same weight: every pass must repeat the first one."""
    first: dict[str, float] = {}
    bad = []
    for r in ops:
        if not r["ok"]:
            continue
        w = first.setdefault(r["label"], r["weight"])
        if w != r["weight"]:
            bad.append(f"{r['label']}: weight {r['weight']} after {w}")
    return bad


def run(args) -> dict:
    if not (ROOT / "src" / "ringtour" / "__init__.py").is_file():
        raise BenchError(f"no ringtour sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    # Fixed names, so that input paths echoed in the reports keep one length.
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        records = []
        # A traced run reports no setup_s, so it sets up once.
        for k in range(0 if args.trace else SETUP_RUNS - 1):
            records += _spawn(args, workdir / f"setup{k}", deadline, setup_only=True)
        records += _spawn(args, workdir / "main", deadline, setup_only=False,
                          spans=spans if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [r for r in records if r["kind"] == "setup"]
    ops = [r for r in records if r["kind"] == "op"]
    end = next(r for r in records if r["kind"] == "end")
    wrong = [r for r in ops if r["error"] and not r["deadline"]]
    inconsistent = _inconsistent(ops)
    for r in ops:
        if r["error"]:
            print(f"# failed op {r['label']}: {r['error']}", file=sys.stderr)
    for msg in inconsistent:
        print(f"# inconsistent: {msg}", file=sys.stderr)

    timed = [r for r in ops if r["timed"]]
    print(f"# workload {args.workload} seed {args.seed}: {len(timed)} timed ops "
          f"({sum(r['traced'] for r in timed)} traced) on "
          f"{len({r['label'] for r in timed})} inputs in {end['measured_s']:.1f} s; "
          f"{len(ops)} attempted incl. {len(ops) - len(timed)} warm-up; "
          f"{len(ops) - sum(r['ok'] for r in ops)} failed")
    if args.trace:
        if end["missing_targets"]:
            print(f"# wrapped names not found: {', '.join(end['missing_targets'])}")
        metrics = layer_metrics(read_spans(spans))
        untraced = _per_input(ops, traced=False)
        traced = _per_input(ops, traced=True)
        both = untraced.keys() & traced.keys()
        metrics["trace.overhead_frac"] = (
            sum(traced[k] for k in both) / sum(untraced[k] for k in both) - 1)
        units = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
        units["trace.overhead_frac"] = "ratio"
    else:
        metrics = _e2e(setups, ops, end)
        units = E2E_UNITS
        kernel = median(r["kernel_s"] for r in ops if "kernel_s" in r)
        after_setup = ", ".join(f"{r['kernel_s']:.4f}" for r in setups)
        print(f"# host kernel: median {kernel:.4f} s before the ops, {after_setup} s after "
              f"the set-ups; each time below is its wall time x {KERNEL_REF_S} s / its kernel")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    return {
        "correct": not wrong and not inconsistent,
        "attempted": len(ops),
        "failed": len(ops) - sum(r["ok"] for r in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all': every workload untraced and then "
                         "traced (--trace is ignored); the last line then maps "
                         "'<workload>/trace<0|1>' to each result")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    try:
        for workload, trace in runs:
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            results[f"{workload}/trace{trace}"] = run(one)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if len(runs) > 1 else results.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
