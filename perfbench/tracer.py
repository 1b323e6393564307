"""Per-layer spans and counts, taken from outside the program.

A :class:`Tracer` replaces the module and class attributes that the
program calls through with wrappers.  Each wrapped call records one span:
name, start, end, its own id, the id of the span that caused it, and the
op it belongs to.  Spans stay in memory until the run ends and are then
written as JSON lines; :func:`layer_metrics` turns them into per-op
medians.

The wrappers are meant to survive refactors of the program: a target that
no longer exists is skipped, a target that is never called reports zero,
and work that moves out of the wrapped children shows up in the self time
of the parent span.  :meth:`Tracer.remove` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

# Extracts counts from (args, kwargs, result) of a wrapped call.
CountFn = Callable[[tuple, dict, object], dict]


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _seed_counts(args, kwargs, res) -> dict:
    size = len(res.candidates)
    return {"seeds": size, "frontier": size}


def _extend_counts(args, kwargs, res) -> dict:
    inst = _arg(args, kwargs, 0, "inst")
    frontier = _arg(args, kwargs, 1, "frontier")
    size_in = len(frontier.candidates)
    length = frontier.length
    kept = len(res.candidates)
    return {
        "candidates_in": size_in,
        # Every candidate edge (L of them) pairs with every uncovered apex.
        "pairs_scanned": size_in * length * (inst.n - length),
        "kept": kept,
        "frontier": kept,
    }


def _held_karp_counts(args, kwargs, res) -> dict:
    n = _arg(args, kwargs, 0, "inst").n
    return {"states": (n - 1) * 2 ** (n - 1)}


def _brute_force_counts(args, kwargs, res) -> dict:
    n = _arg(args, kwargs, 0, "inst").n
    return {"tours": math.factorial(n - 1) // 2}


def _hamilton_counts(args, kwargs, res) -> dict:
    return {"steps": len(res.trace.steps)}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is "module" or "module:Class"."""

    owner: str
    attr: str
    name: str
    counts: CountFn | None = None
    span: bool = True  # False: count calls only, no span


# The names the program calls through today.  Library ops call
# ``ringtour.solve`` and ``ringtour.CompleteInstance``; CLI ops call
# ``ringtour.cli.main``, which reaches the rest through ``ringtour.cli``.
TARGETS: tuple[Target, ...] = (
    Target("ringtour.cli", "main", "cli.main"),
    Target("ringtour.graphs:CompleteInstance", "__init__", "graphs.CompleteInstance"),
    Target("ringtour.cli", "load_instance", "graphs.load_instance"),
    Target("ringtour", "solve", "heuristic.solve"),
    Target("ringtour.cli", "solve", "heuristic.solve"),
    Target("ringtour.heuristic", "seed_frontier", "heuristic.seed_frontier", _seed_counts),
    Target("ringtour.heuristic", "extend_frontier", "heuristic.extend_frontier",
           _extend_counts),
    Target("ringtour.heuristic", "cycle_vertex_sequence", "tours.cycle_vertex_sequence"),
    Target("ringtour.cli", "held_karp", "oracle.held_karp", _held_karp_counts),
    Target("ringtour.oracle", "brute_force", "oracle.brute_force", _brute_force_counts),
    Target("ringtour.cli", "build_hamiltonian", "hamilton.build_hamiltonian",
           _hamilton_counts),
    Target("ringtour.cli", "triangles", "isocycles.triangles"),
    # maclane_f1, maclane_f2 and deletion_trace reach pass_vectors through
    # their own module; the CLI calls it once more directly.
    Target("ringtour.cli", "pass_vectors", "isocycles.pass_vectors"),
    Target("ringtour.isocycles", "pass_vectors", "isocycles.pass_vectors"),
    Target("ringtour.cli", "deletion_trace", "isocycles.deletion_trace"),
    Target("ringtour.edgesets:EdgeSet", "__init__", "edgesets.EdgeSet.new", span=False),
    Target("ringtour.edgesets:EdgeSet", "__iter__", "edgesets.EdgeSet.iter_calls",
           span=False),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs wrappers, records spans in memory, restores on removal."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._counts: Counter = Counter()
        self._undo: list[tuple[object, str, object, bool]] = []

    def install(self) -> None:
        self.missing = []
        for t in self.targets:
            try:
                owner = _resolve(t.owner)
                orig = getattr(owner, t.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{t.owner}.{t.attr}")
                continue
            own = t.attr in vars(owner)
            wrapper = self._span_wrapper(orig, t) if t.span else self._count_wrapper(orig, t)
            setattr(owner, t.attr, wrapper)
            self._undo.append((owner, t.attr, orig, own))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, orig, target: Target):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(target.name)
            try:
                res = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.counts is not None:
                try:
                    span["counts"] = target.counts(args, kwargs, res)
                except (AttributeError, KeyError, TypeError):
                    pass  # the returned object changed shape: no counts
            return res

        return wrapper

    def _count_wrapper(self, orig, target: Target):
        counts = self._counts
        name = target.name

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def count(self, name: str, k: int = 1) -> None:
        """Add to a per-op count of the op now running."""
        self._counts[name] += k

    def op(self, op_id: int) -> "_OpSpan":
        """Context manager for one op: the root span of its tree."""
        return _OpSpan(self, op_id)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id
        self.span: dict | None = None

    def __enter__(self) -> dict:
        t = self.tracer
        t._op = self.op_id
        t._counts.clear()
        self.span = t._open("op")
        return self.span

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t._close(self.span)
        self.span["counts"].update(t._counts)
        t._counts.clear()
        t._op = None


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class _OpView:
    """Busy time, self time, calls and counts of one op's spans, by name."""

    def __init__(self, root: dict, spans: list[dict]):
        self.root = root
        self.by_name: dict[str, list[dict]] = {}
        child_time: Counter = Counter()
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self._child_time = child_time

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float | None:
        spans = self.by_name.get(name)
        if not spans:
            return None
        return sum(s["end"] - s["start"] for s in spans)

    def self_time(self, name: str) -> float | None:
        spans = self.by_name.get(name)
        if not spans:
            return None
        return sum(s["end"] - s["start"] - self._child_time[s["id"]] for s in spans)

    def total(self, name: str, key: str) -> int | None:
        spans = self.by_name.get(name)
        if not spans:
            return None
        return sum(s["counts"].get(key, 0) for s in spans)

    def frontier_sizes(self) -> list[int]:
        spans = self.by_name.get("heuristic.seed_frontier", []) + self.by_name.get(
            "heuristic.extend_frontier", []
        )
        return [s["counts"]["frontier"] for s in spans if "frontier" in s["counts"]]

    def op_count(self, key: str) -> int | None:
        return self.root["counts"].get(key)


def _ratio(num, den):
    if num is None or not den:
        return None
    return num / den


def _frontier(view: _OpView, how: str):
    sizes = view.frontier_sizes()
    if not sizes:
        return None
    if how == "peak":
        return max(sizes)
    if how == "total":
        return sum(sizes)
    return sum(1 for s in sizes if s > 1) / len(sizes)


# name -> (unit, better, per-op value or None when the layer did not run).
LAYER_METRICS: dict[str, tuple[str, str, Callable[[_OpView], float | None]]] = {
    "graphs.CompleteInstance.busy_s": ("s", "lower", lambda v: v.busy("graphs.CompleteInstance")),
    "graphs.load_instance.busy_s": ("s", "lower", lambda v: v.busy("graphs.load_instance")),
    "heuristic.seed_frontier.busy_s": ("s", "lower", lambda v: v.busy("heuristic.seed_frontier")),
    "heuristic.seed_frontier.seeds": (
        "count", "lower", lambda v: v.total("heuristic.seed_frontier", "seeds")),
    "heuristic.extend_frontier.busy_s": (
        "s", "lower", lambda v: v.busy("heuristic.extend_frontier")),
    "heuristic.extend_frontier.calls": (
        "count", "lower", lambda v: v.calls("heuristic.extend_frontier") or None),
    "heuristic.extend_frontier.s_per_candidate": ("s/candidate", "lower", lambda v: _ratio(
        v.busy("heuristic.extend_frontier"),
        v.total("heuristic.extend_frontier", "candidates_in"))),
    "heuristic.extend_frontier.pairs_scanned": (
        "count", "lower", lambda v: v.total("heuristic.extend_frontier", "pairs_scanned")),
    "heuristic.extend_frontier.kept_per_scanned": ("ratio", "higher", lambda v: _ratio(
        v.total("heuristic.extend_frontier", "kept"),
        v.total("heuristic.extend_frontier", "pairs_scanned"))),
    "heuristic.frontier.peak": ("count", "lower", lambda v: _frontier(v, "peak")),
    "heuristic.frontier.total": ("count", "lower", lambda v: _frontier(v, "total")),
    "heuristic.frontier.tied_rounds_frac": ("ratio", "lower", lambda v: _frontier(v, "tied")),
    "heuristic.solve.busy_s": ("s", "lower", lambda v: v.busy("heuristic.solve")),
    "heuristic.solve.self_s": ("s", "lower", lambda v: v.self_time("heuristic.solve")),
    "tours.cycle_vertex_sequence.busy_s": (
        "s", "lower", lambda v: v.busy("tours.cycle_vertex_sequence")),
    "edgesets.EdgeSet.new": ("count", "lower", lambda v: v.op_count("edgesets.EdgeSet.new")),
    "edgesets.EdgeSet.iter_calls": (
        "count", "lower", lambda v: v.op_count("edgesets.EdgeSet.iter_calls")),
    "oracle.held_karp.busy_s": ("s", "lower", lambda v: v.busy("oracle.held_karp")),
    "oracle.held_karp.self_s": ("s", "lower", lambda v: v.self_time("oracle.held_karp")),
    "oracle.held_karp.states": ("count", "lower", lambda v: v.total("oracle.held_karp", "states")),
    "oracle.held_karp.s_per_state": ("s/state", "lower", lambda v: _ratio(
        v.busy("oracle.held_karp"), v.total("oracle.held_karp", "states"))),
    "oracle.brute_force.busy_s": ("s", "lower", lambda v: v.busy("oracle.brute_force")),
    "oracle.brute_force.tours": ("count", "lower", lambda v: v.total("oracle.brute_force", "tours")),
    "hamilton.build_hamiltonian.busy_s": (
        "s", "lower", lambda v: v.busy("hamilton.build_hamiltonian")),
    "hamilton.build_hamiltonian.steps": (
        "count", "lower", lambda v: v.total("hamilton.build_hamiltonian", "steps")),
    "isocycles.triangles.busy_s": ("s", "lower", lambda v: v.busy("isocycles.triangles")),
    "isocycles.pass_vectors.busy_s": ("s", "lower", lambda v: v.busy("isocycles.pass_vectors")),
    "isocycles.pass_vectors.calls": (
        "count", "lower", lambda v: v.calls("isocycles.pass_vectors") or None),
    "isocycles.deletion_trace.busy_s": ("s", "lower", lambda v: v.busy("isocycles.deletion_trace")),
    "cli.main.busy_s": ("s", "lower", lambda v: v.busy("cli.main")),
    "cli.self_s": ("s", "lower", lambda v: v.self_time("cli.main")),
    "cli.output_bytes": ("bytes", "lower", lambda v: v.op_count("cli.output_bytes")),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over ops of each layer metric; 0 where no op ran the layer."""
    roots = [s for s in spans if s["name"] == "op"]
    by_op: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"] != "op" and s["op"] is not None:
            by_op.setdefault(s["op"], []).append(s)
    views = [_OpView(r, by_op.get(r["op"], [])) for r in roots]
    out: dict[str, float] = {}
    for name, (_, _, fn) in LAYER_METRICS.items():
        values = [x for x in (fn(v) for v in views) if x is not None]
        out[name] = float(median(values)) if values else 0.0
    return out
