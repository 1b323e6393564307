"""Command-line front end.

Subcommands: solve, compare, gen, cycles, maclane, hamiltonian, bench.
Every run is summarised in a :class:`RunReport`; ``--format json`` emits it
verbatim, the default text format mirrors the desk notation (edge sets as
``{e1,e3,...}``, tours as ``(v1,v2,...)``).

Exit codes: 0 success, 1 usage error, 2 parse/solve error or out of memory.

Each subcommand is declared once, in ``_COMMANDS``: its handler, its text
renderer and its arguments.  :func:`build_parser` is cached, so one
process builds the parser once however often it calls :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii
from pathlib import Path
from statistics import linear_regression, median

from .errors import DomainError, RingtourError
from .graphs import (
    RANDOM_MAX_N,
    CompleteInstance,
    InstanceSource,
    edge_id,
    load_instance,
    random_instance,
)
from .hamilton import build_hamiltonian
from .heuristic import K, op_count_estimate, parse_beam, solve
from .isocycles import deletion_trace, pass_vectors, triangles
from .oracle import HELD_KARP_MAX_N, held_karp
from .tours import TourResult


_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
_SCALARS = {int, float, bool, type(None)}


def _render_json(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it at
    indent ``pad``; every dict key must be a ``str``."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return repr(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            encode_basestring_ascii(key) + ": " + _render_json(obj[key], inner)
            for key in sorted(obj)
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {int}:
            body = (",\n" + inner).join(map(repr, obj))
        elif types <= _SCALARS:
            body = _COMPACT(obj)[1:-1].replace(",", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_render_json(item, inner) for item in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return _COMPACT(obj)


@dataclass
class RunReport:
    """Reproducible record of one CLI invocation.

    :meth:`to_json` writes the bytes of ``json.dumps(sort_keys=True,
    indent=2)`` without that call's pure-Python encoder: a list of plain
    ints is joined from their ``repr``s; any other list of plain ints,
    floats, bools and Nones is encoded compactly in C, and each comma
    becomes a comma, newline and indent.  Each comma is an item separator,
    because the JSON text of a number, ``true``, ``false`` or ``null``
    never holds one.  Dict keys must be strings.
    """

    command: str
    instance: dict
    params: dict
    results: dict
    timing_ms: float | None = None
    trace: list | None = None

    def to_json(self) -> str:
        return _render_json(vars(self), "")


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else f"{x:g}"


def _fmt_tour(seq) -> str:
    return "(" + ",".join(f"v{v}" for v in seq) + ")"


def _fmt_edges(ids) -> str:
    return "{" + ",".join(f"e{e}" for e in ids) + "}"


def _parse_random_spec(parser: argparse.ArgumentParser, tokens) -> dict:
    fields: dict[str, int] = {}
    for token in tokens:
        for part in token.split(","):
            if not part:
                continue
            if "=" not in part:
                parser.error(f"bad --random token {part!r}, expected key=value")
            key, _, val = part.partition("=")
            if key not in ("n", "seed", "lo", "hi"):
                parser.error(f"unknown --random key {key!r}")
            if key in fields:
                parser.error(f"--random repeats key {key!r}")
            try:
                fields[key] = int(val)
            except ValueError:
                parser.error(f"--random {key} must be an integer, got {val!r}")
    if "n" not in fields or "seed" not in fields:
        parser.error("--random needs at least n=<n> seed=<s>")
    return fields


def _source_from_args(parser: argparse.ArgumentParser, args) -> InstanceSource:
    picked = [
        kind
        for kind in ("matrix", "upper", "coords", "random")
        if getattr(args, kind, None) is not None
    ]
    if len(picked) != 1:
        parser.error("exactly one instance source is required "
                     "(--matrix | --upper | --coords | --random)")
    kind = picked[0]
    if kind == "random":
        # the spec's keys are InstanceSource fields, which default lo and hi
        return InstanceSource(kind="random", **_parse_random_spec(parser, args.random))
    return InstanceSource(kind=kind, path=Path(getattr(args, kind)))


def _load(parser: argparse.ArgumentParser, args) -> tuple[CompleteInstance, dict]:
    """The instance the arguments name, and its description for the report."""
    source = _source_from_args(parser, args)
    inst = load_instance(source)
    return inst, {"n": inst.n, **source.describe()}


def _tour_payload(res: TourResult) -> dict:
    return {
        "tour": list(res.sequence),
        "edges": sorted(res.edges),
        "weight": res.weight,
    }


def _trace_payload(res: TourResult) -> list:
    entries: list = [
        {
            "seed_walk": list(res.trace.seed_vertices),
            "seed_edges": sorted(res.trace.seed),
            "seed_weight": res.trace.seed_weight,
        }
    ]
    for step in res.trace.steps:
        entries.append(
            {
                "triangle": list(step.triangle),
                "triangle_id": step.triangle_id,
                "shared_edge": step.shared_edge,
                "weight": step.weight,
            }
        )
    if res.trace.frontier_history:
        entries.append(
            {
                "frontiers": [
                    {
                        "length": snap.length,
                        "weight": snap.weight,
                        "edge_sets": snap.keys.tolist(),
                    }
                    for snap in res.trace.frontier_history
                ]
            }
        )
    return entries


def _tour_lines(r: dict) -> list[str]:
    return [
        f"tour   {_fmt_tour(r['tour'])}",
        f"edges  {_fmt_edges(r['edges'])}",
        f"weight {_fmt_num(r['weight'])}",
    ]


def _render_solve_text(report: RunReport) -> str:
    lines = _tour_lines(report.results)
    if report.trace:
        # solve's trace: the seed, one entry per step, then every round's frontier
        seed, *steps, history = report.trace
        lines.append("")
        lines.append(
            f"seed  {_fmt_edges(seed['seed_edges'])} <-> "
            f"{_fmt_tour(seed['seed_walk'])} = {_fmt_num(seed['seed_weight'])}"
        )
        for step in steps:
            lines.append(
                f"  (+) c{step['triangle_id']} on {_fmt_tour(step['triangle'])} "
                f"over e{step['shared_edge']} -> {_fmt_num(step['weight'])}"
            )
        lines.append("frontiers:")
        for snap in history["frontiers"]:
            sets = " ".join(_fmt_edges(es) for es in snap["edge_sets"])
            lines.append(f"  L={snap['length']} w={_fmt_num(snap['weight'])}: {sets}")
    return "\n".join(lines)


def cmd_solve(parser, args) -> RunReport:
    inst, instance = _load(parser, args)
    t0 = time.perf_counter()
    res = solve(inst, beam=args.beam, trace=args.trace)
    ms = (time.perf_counter() - t0) * 1e3
    return RunReport(
        command="solve",
        instance=instance,
        params={"beam": args.beam, "format": args.format},
        results=_tour_payload(res),
        timing_ms=ms,
        trace=_trace_payload(res) if args.trace else None,
    )


def cmd_compare(parser, args) -> RunReport:
    inst, instance = _load(parser, args)
    if inst.n > HELD_KARP_MAX_N:
        raise RingtourError(
            f"compare needs the exact oracle, which caps at n={HELD_KARP_MAX_N}"
        )
    t0 = time.perf_counter()
    res = solve(inst, beam=args.beam)
    exact = held_karp(inst)
    ms = (time.perf_counter() - t0) * 1e3
    if exact.optimum > 0:
        ratio = res.weight / exact.optimum
    else:
        ratio = 1.0 if res.weight == 0 else None  # infinite, which JSON cannot say
    return RunReport(
        command="compare",
        instance=instance,
        params={"beam": args.beam, "format": args.format},
        results={
            "optimum": exact.optimum,
            "heuristic": res.weight,
            "ratio": ratio,
            "match": bool(res.weight == exact.optimum),
            "optimal_tour": list(exact.tour),
            "heuristic_tour": list(res.sequence),
            "optimal_count": exact.optimal_count,
        },
        timing_ms=ms,
    )


def _render_compare_text(report: RunReport) -> str:
    r = report.results
    return "\n".join(
        [
            f"optimum   {_fmt_num(r['optimum'])}  {_fmt_tour(r['optimal_tour'])}",
            f"heuristic {_fmt_num(r['heuristic'])}  {_fmt_tour(r['heuristic_tour'])}",
            f"ratio     {math.inf if r['ratio'] is None else r['ratio']:.6f}",
            f"match     {str(r['match']).lower()}",
        ]
    )


def _instance_to_text(inst: CompleteInstance, encoding: str) -> str:
    w = inst.weights.tolist()
    rows = w if encoding == "matrix" else [row[i + 1:] for i, row in enumerate(w[:-1])]
    lines = [str(inst.n), *(" ".join(map(_fmt_num, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a failure names the path and its reason."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RingtourError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_gen(parser, args) -> RunReport:
    # usage errors first, so that a bad gen loads and writes nothing
    if _source_from_args(parser, args).kind != "random":
        parser.error("gen expects a --random source")
    if not args.out:
        parser.error("gen needs --out")
    inst, instance = _load(parser, args)
    text = _instance_to_text(inst, args.encoding)
    _write_out(args.out, text)
    return RunReport(
        command="gen",
        instance=instance,
        params={"encoding": args.encoding, "format": args.format},
        results={"written": str(args.out), "m": inst.m},
    )


def cmd_cycles(parser, args) -> RunReport:
    inst, instance = _load(parser, args)
    tri = triangles(inst)
    edges, verts = tri.edges.reshape(-1, 3), tri.vertices.reshape(-1, 3)
    a, b, c = (verts - 1).T
    w = inst.weights
    # Summed in edge-id order; + 0.0 turns an all -0.0 triangle into 0.0.
    weights = ((w[a, b] + w[a, c]) + w[b, c]) + 0.0
    rows = [
        {"id": k, "edges": ids, "vertices": vs, "weight": wt}
        for k, (ids, vs, wt) in enumerate(
            zip(edges.tolist(), verts.tolist(), weights.tolist()), start=1
        )
    ]
    return RunReport(
        command="cycles",
        instance=instance,
        params={"format": args.format},
        results={"count": len(rows), "cycles": rows},
    )


def _render_cycles_text(report: RunReport) -> str:
    lines = []
    for row in report.results["cycles"]:
        lines.append(
            f"c{row['id']} = {_fmt_edges(row['edges'])} <-> "
            f"{_fmt_tour(row['vertices'])} = {_fmt_num(row['weight'])}"
        )
    return "\n".join(lines)


def cmd_maclane(parser, args) -> RunReport:
    inst, instance = _load(parser, args)
    tri = triangles(inst)
    trace = None
    if args.delete:
        try:
            order = [int(tok) for tok in args.delete.split(",") if tok]
        except ValueError:
            parser.error(f"--delete expects comma-separated integers, got {args.delete!r}")
        states = deletion_trace(tri, order)
        trace = [
            {
                "removed": (order[i - 1] if i else None),
                "p_e": list(st.p_e),
                "p_v": list(st.p_v),
                "f2": f2,
            }
            for i, (st, f2) in enumerate(states)
        ]
        pv = states[0][0]
    else:
        pv = pass_vectors(tri)
    results = {
        "cycle_count": len(tri),
        "p_e": list(pv.p_e),
        "p_v": list(pv.p_v),
        "f1": pv.f1,
        "f2": pv.f2,
    }
    return RunReport(
        command="maclane",
        instance=instance,
        params={"delete": args.delete, "format": args.format},
        results=results,
        trace=trace,
    )


def _render_maclane_text(report: RunReport) -> str:
    r = report.results
    lines = [
        f"cycles {r['cycle_count']}",
        f"P_e <{','.join(map(str, r['p_e']))}>",
        f"P_v <{','.join(map(str, r['p_v']))}>",
        f"F1 {r['f1']}",
        f"F2 {r['f2']}",
    ]
    if report.trace:
        for entry in report.trace:
            if entry["removed"] is None:
                continue
            lines.append(
                f"- c{entry['removed']}: F2 = {entry['f2']}  "
                f"P_e <{','.join(map(str, entry['p_e']))}>"
            )
    return "\n".join(lines)


def cmd_hamiltonian(parser, args) -> RunReport:
    inst, instance = _load(parser, args)
    res = build_hamiltonian(inst, start_triangle=args.start)
    return RunReport(
        command="hamiltonian",
        instance=instance,
        params={"start": args.start, "format": args.format},
        results=_tour_payload(res),
        trace=_trace_payload(res),
    )


def _render_hamiltonian_text(report: RunReport) -> str:
    n = report.instance["n"]
    # the build's trace: the seed, the seed triangle's own step, then one per sum
    seed, start, *steps = report.trace
    running, covered = set(seed["seed_edges"]), set(seed["seed_walk"])
    lines = [
        f"z1 = c{start['triangle_id']} = {_fmt_edges(seed['seed_edges'])} <-> "
        f"{_fmt_tour(seed['seed_walk'])}"
    ]
    for k, step in enumerate(steps, start=2):
        running ^= {edge_id(a, b, n) for a, b in combinations(step["triangle"], 2)}
        covered |= set(step["triangle"])
        lines.append(
            f"z{k} = z{k - 1} (+) c{step['triangle_id']} = "
            f"{_fmt_edges(sorted(running))} <-> {_fmt_tour(sorted(covered))}"
        )
    return "\n".join(lines + _tour_lines(report.results))


def _bench_one(n: int, seed: int, args) -> dict:
    inst = random_instance(n, seed, (args.lo, args.hi))
    t0 = time.perf_counter()
    res = solve(inst, beam=args.beam)
    ms = (time.perf_counter() - t0) * 1e3
    return {"n": n, "seed": seed, "millis": ms, "weight": res.weight}


def cmd_bench(parser, args) -> RunReport:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        parser.error(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error("--sizes needs at least one size")
    if len(set(sizes)) < len(sizes):
        parser.error(f"--sizes repeats a size, got {args.sizes!r}")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    seeds = range(1, args.seeds + 1)
    rows = [_bench_one(n, seed, args) for n in sorted(sizes) for seed in seeds]
    medians = {
        n: median(r["millis"] for r in rows if r["n"] == n) for n in sorted(sizes)
    }
    slope = (
        linear_regression(
            [math.log(n) for n in medians],
            [math.log(max(t, 1e-9)) for t in medians.values()],
        ).slope
        if len(medians) >= 2
        else None
    )
    # The closed-form op count is defined from n = 4, where seeding starts.
    predicted = {
        n: float(op_count_estimate(n).f_n) for n in sorted(sizes) if n >= 4
    }
    return RunReport(
        command="bench",
        instance={"sizes": sizes, "seeds": args.seeds, "lo": args.lo, "hi": args.hi},
        params={"beam": args.beam, "format": args.format},
        results={
            "rows": rows,
            "median_ms": {str(n): medians[n] for n in medians},
            "slope": slope,
            "predicted_ops": {str(n): predicted[n] for n in predicted},
        },
    )


def _render_bench_text(report: RunReport) -> str:
    lines = ["n,seed,millis,weight"]
    for row in report.results["rows"]:
        lines.append(
            f"{row['n']},{row['seed']},{row['millis']:.3f},{_fmt_num(row['weight'])}"
        )
    for n, ms in report.results["median_ms"].items():
        lines.append(f"# median n={n} millis={ms:.3f}")
    slope = report.results["slope"]
    if slope is not None:
        lines.append(f"# slope {slope:.3f}")
    return "\n".join(lines)


def _render_gen_text(report: RunReport) -> str:
    r = report.results
    return f"wrote {r['written']} (n={report.instance['n']}, m={r['m']})"


_BEAM = ("--beam", dict(
    default="all-ties",
    help="frontier width B: keep the B cheapest cycles per round "
    "plus cutoff ties; 'all-ties' (the default) is B = 1; a frontier "
    f"keeps at most {K} cycles, the cheapest, smallest edge ids first",
))

# Each subcommand once: name, help, handler, text renderer, whether it reads
# an instance source, and the arguments it adds after --format and --out.
_COMMANDS = (
    ("solve", "run the ring-sum TSP heuristic", cmd_solve, _render_solve_text, True, (
        _BEAM,
        ("--trace", dict(action="store_true",
                         help="record per-round frontiers in the report")),
    )),
    ("compare", "heuristic vs exact oracle", cmd_compare, _render_compare_text, True,
     (_BEAM,)),
    ("gen", "write a random instance to a file", cmd_gen, _render_gen_text, True, (
        ("--encoding", dict(choices=("matrix", "upper"), default="matrix")),
    )),
    ("cycles", "list the triangular cycles", cmd_cycles, _render_cycles_text, True, ()),
    ("maclane", "pass vectors and MacLane functionals", cmd_maclane,
     _render_maclane_text, True, (
        ("--delete", dict(metavar="IDS",
                          help="comma-separated cycle ids to remove, tracing F2")),
    )),
    ("hamiltonian", "unweighted touching-triangle build", cmd_hamiltonian,
     _render_hamiltonian_text, True, (
        ("--start", dict(type=int, default=None, metavar="K",
                         help="1-based id of the starting triangle")),
    )),
    ("bench", "timing table over random instances", cmd_bench, _render_bench_text,
     False, (
        ("--sizes", dict(required=True,
                         help=f"comma-separated sizes, each <= {RANDOM_MAX_N}")),
        ("--seeds", dict(type=int, default=3, help="seeds per size")),
        ("--lo", dict(type=int, default=1)),
        ("--hi", dict(type=int, default=100)),
        _BEAM,
    )),
)


@functools.cache
def build_parser() -> _Parser:
    # The last docstring paragraph is for readers of this module, not --help;
    # under python -OO there is no docstring.
    description = __doc__ and __doc__.rpartition("\n\n")[0]
    parser = _Parser(prog="ringtour", description=description)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, summary, handler, render, source, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if source:
            p.add_argument("--matrix", metavar="PATH", help="full-matrix instance file")
            p.add_argument("--upper", metavar="PATH", help="upper-row instance file")
            p.add_argument("--coords", metavar="PATH", help="coordinate instance file")
            p.add_argument(
                "--random",
                nargs="+",
                metavar="K=V",
                help="random instance, e.g. --random n=8 seed=7 lo=1 hi=100 "
                f"(n <= {RANDOM_MAX_N})",
            )
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, render=render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "beam" in args:
            try:
                parse_beam(args.beam)
            except DomainError as exc:
                parser.error(str(exc))
        report = args.handler(parser, args)
        text = report.to_json() if args.format == "json" else args.render(report)
        if args.out and args.cmd != "gen":
            _write_out(args.out, text + "\n")
        else:
            print(text)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RingtourError, OSError) as exc:
        print(f"ringtour: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"ringtour: error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
