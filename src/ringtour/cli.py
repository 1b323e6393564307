"""Command-line front end.

Subcommands: solve, compare, gen, cycles, maclane, hamiltonian, bench.
Every run is summarised in a :class:`RunReport`; ``--format json`` emits it
verbatim, the default text format mirrors the desk notation (edge sets as
``{e1,e3,...}``, tours as ``(v1,v2,...)``).

Exit codes: 0 success, 1 usage error, 2 parse/solve error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from statistics import median

from .errors import DomainError, RingtourError
from .graphs import (
    RANDOM_MAX_N,
    CompleteInstance,
    InstanceSource,
    edge_id,
    load_instance,
)
from .hamilton import build_hamiltonian
from .heuristic import op_count_estimate, parse_beam, solve
from .isocycles import deletion_trace, pass_vectors, triangles
from .oracle import HELD_KARP_MAX_N, held_karp
from .tours import TourResult


@dataclass
class RunReport:
    """Reproducible record of one CLI invocation."""

    command: str
    instance: dict
    params: dict
    results: dict
    timing_ms: float | None = None
    trace: list | None = None

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


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


def _source_args(p: argparse.ArgumentParser) -> None:
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


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _beam_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", default="all-ties",
                   help="frontier width B: keep the B cheapest cycles per round "
                   "plus cutoff ties; 'all-ties' (the default) is B = 1")


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
        spec = _parse_random_spec(parser, args.random)
        return InstanceSource(
            kind="random",
            n=spec["n"],
            seed=spec["seed"],
            lo=spec.get("lo", 1),
            hi=spec.get("hi", 100),
        )
    return InstanceSource(kind=kind, path=Path(getattr(args, kind)))


def _check_beam(parser: argparse.ArgumentParser, beam: str) -> None:
    try:
        parse_beam(beam)
    except DomainError as exc:
        parser.error(str(exc))


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


def _render_solve_text(report: RunReport) -> str:
    r = report.results
    lines = [
        f"tour   {_fmt_tour(r['tour'])}",
        f"edges  {_fmt_edges(r['edges'])}",
        f"weight {_fmt_num(r['weight'])}",
    ]
    if report.trace:
        lines.append("")
        for entry in report.trace:
            if "seed_walk" in entry:
                lines.append(
                    f"seed  {_fmt_edges(entry['seed_edges'])} <-> "
                    f"{_fmt_tour(entry['seed_walk'])} = {_fmt_num(entry['seed_weight'])}"
                )
            elif "triangle" in entry:
                tri = entry["triangle"]
                lines.append(
                    f"  (+) c{entry['triangle_id']} on {_fmt_tour(tri)} "
                    f"over e{entry['shared_edge']} -> {_fmt_num(entry['weight'])}"
                )
            elif "frontiers" in entry:
                lines.append("frontiers:")
                for snap in entry["frontiers"]:
                    sets = " ".join(_fmt_edges(es) for es in snap["edge_sets"])
                    lines.append(
                        f"  L={snap['length']} w={_fmt_num(snap['weight'])}: {sets}"
                    )
    return "\n".join(lines)


def cmd_solve(parser, args) -> RunReport:
    _check_beam(parser, args.beam)
    source = _source_from_args(parser, args)
    inst = load_instance(source)
    t0 = time.perf_counter()
    res = solve(inst, beam=args.beam, trace=args.trace)
    ms = (time.perf_counter() - t0) * 1e3
    return RunReport(
        command="solve",
        instance={"n": inst.n, **source.describe()},
        params={"beam": args.beam, "format": args.format},
        results=_tour_payload(res),
        timing_ms=ms,
        trace=_trace_payload(res) if args.trace else None,
    )


def cmd_compare(parser, args) -> RunReport:
    _check_beam(parser, args.beam)
    source = _source_from_args(parser, args)
    inst = load_instance(source)
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
        ratio = 1.0 if res.weight == 0 else math.inf
    return RunReport(
        command="compare",
        instance={"n": inst.n, **source.describe()},
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
            f"ratio     {r['ratio']:.6f}",
            f"match     {str(r['match']).lower()}",
        ]
    )


def _instance_to_text(inst: CompleteInstance, encoding: str) -> str:
    lines = [str(inst.n)]
    if encoding == "matrix":
        for i in range(1, inst.n + 1):
            lines.append(
                " ".join(_fmt_num(inst.weight(i, j)) for j in range(1, inst.n + 1))
            )
    elif encoding == "upper":
        for i in range(1, inst.n):
            lines.append(
                " ".join(_fmt_num(inst.weight(i, j)) for j in range(i + 1, inst.n + 1))
            )
    else:
        raise RingtourError(f"unknown encoding {encoding!r}")
    return "\n".join(lines) + "\n"


def cmd_gen(parser, args) -> RunReport:
    source = _source_from_args(parser, args)
    if source.kind != "random":
        parser.error("gen expects a --random source")
    if not args.out:
        parser.error("gen needs --out")
    inst = load_instance(source)
    text = _instance_to_text(inst, args.encoding)
    Path(args.out).write_text(text)
    return RunReport(
        command="gen",
        instance={"n": inst.n, **source.describe()},
        params={"encoding": args.encoding, "format": args.format},
        results={"written": str(args.out), "m": inst.m},
    )


def cmd_cycles(parser, args) -> RunReport:
    source = _source_from_args(parser, args)
    inst = load_instance(source)
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
        instance={"n": inst.n, **source.describe()},
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
    source = _source_from_args(parser, args)
    inst = load_instance(source)
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
        instance={"n": inst.n, **source.describe()},
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
    source = _source_from_args(parser, args)
    inst = load_instance(source)
    res = build_hamiltonian(inst, start_triangle=args.start)
    return RunReport(
        command="hamiltonian",
        instance={"n": inst.n, **source.describe()},
        params={"start": args.start, "format": args.format},
        results=_tour_payload(res),
        trace=_trace_payload(res),
    )


def _render_hamiltonian_text(report: RunReport) -> str:
    n = report.instance["n"]
    lines = []
    k = 0
    running: set[int] = set()
    covered: set[int] = set()
    for entry in report.trace or ():
        if "seed_walk" in entry:
            k = 1
            running = set(entry["seed_edges"])
            covered = set(entry["seed_walk"])
            lines.append(
                f"z1 = c{report.trace[1]['triangle_id']} = "
                f"{_fmt_edges(entry['seed_edges'])} <-> "
                f"{_fmt_tour(entry['seed_walk'])}"
            )
        elif "triangle" in entry and entry.get("shared_edge"):
            k += 1
            running ^= {
                edge_id(a, b, n) for a, b in combinations(entry["triangle"], 2)
            }
            covered |= set(entry["triangle"])
            lines.append(
                f"z{k} = z{k - 1} (+) c{entry['triangle_id']} = "
                f"{_fmt_edges(sorted(running))} <-> {_fmt_tour(sorted(covered))}"
            )
    r = report.results
    lines.append(f"tour   {_fmt_tour(r['tour'])}")
    lines.append(f"edges  {_fmt_edges(r['edges'])}")
    lines.append(f"weight {_fmt_num(r['weight'])}")
    return "\n".join(lines)


def _bench_one(n: int, seed: int, args) -> dict:
    inst = load_instance(
        InstanceSource(kind="random", n=n, seed=seed, lo=args.lo, hi=args.hi)
    )
    t0 = time.perf_counter()
    res = solve(inst, beam=args.beam)
    ms = (time.perf_counter() - t0) * 1e3
    return {"n": n, "seed": seed, "millis": ms, "weight": res.weight}


def _loglog_slope(sizes: list[int], medians: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in medians]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def cmd_bench(parser, args) -> RunReport:
    _check_beam(parser, args.beam)
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
    rows = [_bench_one(n, seed, args) for n in sizes for seed in seeds]
    rows.sort(key=lambda r: (r["n"], r["seed"]))
    medians = {
        n: median(r["millis"] for r in rows if r["n"] == n) for n in sorted(sizes)
    }
    slope = (
        _loglog_slope(sorted(medians), [medians[n] for n in sorted(medians)])
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


_TEXT_RENDERERS = {
    "solve": _render_solve_text,
    "compare": _render_compare_text,
    "gen": _render_gen_text,
    "cycles": _render_cycles_text,
    "maclane": _render_maclane_text,
    "hamiltonian": _render_hamiltonian_text,
    "bench": _render_bench_text,
}


def _render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    return _TEXT_RENDERERS[report.command](report)


def build_parser() -> _Parser:
    parser = _Parser(prog="ringtour", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run the ring-sum TSP heuristic")
    _source_args(p)
    _common_args(p)
    _beam_arg(p)
    p.add_argument("--trace", action="store_true",
                   help="record per-round frontiers in the report")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("compare", help="heuristic vs exact oracle")
    _source_args(p)
    _common_args(p)
    _beam_arg(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("gen", help="write a random instance to a file")
    _source_args(p)
    _common_args(p)
    p.add_argument("--encoding", choices=("matrix", "upper"), default="matrix")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("cycles", help="list the triangular cycles")
    _source_args(p)
    _common_args(p)
    p.set_defaults(handler=cmd_cycles)

    p = sub.add_parser("maclane", help="pass vectors and MacLane functionals")
    _source_args(p)
    _common_args(p)
    p.add_argument("--delete", metavar="IDS",
                   help="comma-separated cycle ids to remove, tracing F2")
    p.set_defaults(handler=cmd_maclane)

    p = sub.add_parser("hamiltonian", help="unweighted touching-triangle build")
    _source_args(p)
    _common_args(p)
    p.add_argument("--start", type=int, default=None, metavar="K",
                   help="1-based id of the starting triangle")
    p.set_defaults(handler=cmd_hamiltonian)

    p = sub.add_parser("bench", help="timing table over random instances")
    _common_args(p)
    p.add_argument("--sizes", required=True,
                   help=f"comma-separated sizes, each <= {RANDOM_MAX_N}")
    p.add_argument("--seeds", type=int, default=3, help="seeds per size")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    _beam_arg(p)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(parser, args)
        text = _render(report, args.format)
        if args.out and report.command != "gen":
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RingtourError, OSError) as exc:
        print(f"ringtour: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
