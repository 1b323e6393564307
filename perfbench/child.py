"""One workload run in its own process: set-up, then a closed loop of ops.

Started by ``run.py``; prints one JSON object per line on standard output:
a ``setup`` record, one ``op`` record per attempted op, and an ``end``
record.  One client, no threads or pools: each op starts only after the
previous one has returned and been checked.  Set-up ends before the first
timed op; the host-speed kernel timed after it is not part of it.

The loop runs one whole pass over the workload's op list, each op on a
distinct input, then goes on op by op, round the list again, until
``--seconds`` have passed.  With ``--trace 1`` it runs one untraced pass and
then the same pass traced, and writes the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OP_DEADLINE_S = 30.0
# The child stops starting ops this long after it was spawned.
CHILD_BUDGET_S = 140.0


class OpDeadline(BaseException):
    """Raised in the op when its deadline passes; not an ``Exception`` so
    that no handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def host_kernel_s() -> float:
    """Wall time of a fixed pure-Python kernel: an integer loop and a
    big-integer shift/xor loop, the kind of work the program does.

    On a shared 2-vCPU host the same code runs up to 1.5x slower for
    minutes at a time while other tenants are busy; timing this kernel next
    to the ops measures that host speed (see ``run.py``).
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    mask = (1 << 4000) - 1
    x = 0
    for i in range(20_000):
        x = (x ^ (mask >> (i % 3000))) & mask
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = sys.stdout

    def emit(record: dict) -> None:
        out.write(json.dumps(record) + "\n")
        out.flush()

    signal.signal(signal.SIGALRM, _on_alarm)
    stop_at = args.spawned + CHILD_BUDGET_S
    op_id = 0

    def attempt(op: workloads.Op, timed: bool, tracer: tracing.Tracer | None) -> dict:
        nonlocal op_id
        op_id += 1
        rec = {"kind": "op", "op": op_id, "label": op.label, "timed": timed,
               "traced": tracer is not None, "seconds": None, "ok": False,
               "deadline": False, "error": None, "weight": None, "reference": None}
        deadline = min(OP_DEADLINE_S, stop_at - time.monotonic())
        if deadline <= 0:
            rec.update(deadline=True, error="run budget spent")
            return rec
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                t0 = time.perf_counter()
                if tracer is None:
                    raw = op.run()
                else:
                    with tracer.op(op_id):
                        raw = op.run()
                        size = op.output_bytes(raw)
                        if size:
                            tracer.count("cli.output_bytes", size)
                seconds = time.perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            rec.update(deadline=True, error=f"missed the {deadline:.0f} s deadline")
            return rec
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
            return rec
        rec["seconds"] = seconds
        try:
            tour = op.check(raw)
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
            return rec
        rec.update(ok=True, weight=tour.weight, reference=tour.reference)
        return rec

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.workdir)
    warm = attempt(ops[0], timed=False, tracer=None)
    setup_s = time.monotonic() - args.spawned
    kernel_s = sorted(host_kernel_s() for _ in range(5))[2]
    emit({"kind": "setup", "setup_s": setup_s, "kernel_s": kernel_s})
    emit(warm)
    if args.setup_only:
        return 0

    begin = time.monotonic()
    tracer = None
    if args.trace:
        # One untraced pass, then the same ops traced.
        for p in range(2):
            tracer = tracing.Tracer() if p else None
            with tracer or contextlib.nullcontext():
                for op in ops:
                    emit({**attempt(op, timed=True, tracer=tracer), "pass": p})
        tracer.write(args.spans)
    else:
        # One whole pass, then op by op until --seconds have passed.  The
        # host kernel runs before each op, outside its timing.
        k = 0
        while k < len(ops) or time.monotonic() - begin < args.seconds:
            if time.monotonic() > stop_at:
                break
            kernel_s = host_kernel_s()
            emit({**attempt(ops[k % len(ops)], timed=True, tracer=None),
                  "pass": k // len(ops), "kernel_s": kernel_s})
            k += 1

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"kind": "end", "measured_s": time.monotonic() - begin,
          "peak_rss_mb": rss_kib / 1024, "missing_targets": tracer.missing if tracer else []})
    return 0


if __name__ == "__main__":
    sys.exit(main())
