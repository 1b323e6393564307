"""Workload inputs, the ops that run them, and the checks on every output.

The benchmark owns its inputs: matrices come from its own seeded
``numpy.random.Generator`` and lattices are built here, then written as
``--matrix`` / ``--coords`` files during set-up.  Nothing goes through the
program's own random instances, so a change to the program's random
stream cannot swap a workload.

Each op returns a :class:`Tour` (the tour it was judged by and the
reference weight that tour is compared with) or raises :class:`CheckError`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("solve-random", "solve-grid-ties", "compare-oracle", "unweighted-build")


class CheckError(Exception):
    """An op returned an output that fails its check."""


@dataclass(frozen=True)
class Tour:
    weight: float
    reference: float  # exact optimum, or a lower bound where none is known


@dataclass
class Op:
    label: str
    n: int
    run: Callable[[], object]  # the timed call into the program
    check: Callable[[object], Tour]  # untimed
    output_bytes: Callable[[object], int] = lambda raw: 0


# ---------------------------------------------------------------- inputs


def random_matrix(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """Symmetric integer matrix, zero diagonal, off-diagonal uniform in lo..hi."""
    w = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    w[iu] = rng.integers(lo, hi + 1, size=iu[0].size)
    return w + w.T


def lattice(rows: int, cols: int, step: int) -> list[tuple[int, int]]:
    return [(i * step, j * step) for i in range(rows) for j in range(cols)]


def euc2d(points: list[tuple[int, int]]) -> np.ndarray:
    """TSPLIB EUC_2D: Euclidean distance rounded half-up to an integer."""
    n = len(points)
    w = np.zeros((n, n), dtype=np.int64)
    for i, j in combinations(range(n), 2):
        d = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
        w[i, j] = w[j, i] = math.floor(d + 0.5)
    return w


def circulant(n: int, weight_of: Callable[[int], int]) -> np.ndarray:
    """w(i, j) = weight_of(circular distance between i and j)."""
    w = np.zeros((n, n), dtype=np.int64)
    for i, j in combinations(range(n), 2):
        w[i, j] = w[j, i] = weight_of(min(j - i, n - (j - i)))
    return w


def relabel(w: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return w[np.ix_(perm, perm)]


def lower_bound(w: np.ndarray) -> float:
    """Half the sum, over vertices, of each vertex's two cheapest edges."""
    off = w.astype(np.float64) + np.diag(np.full(w.shape[0], np.inf))
    two = np.sort(off, axis=1)[:, :2]
    return float(two.sum()) / 2


def write_matrix(path: Path, w: np.ndarray) -> Path:
    rows = "\n".join(" ".join(str(int(x)) for x in row) for row in w)
    path.write_text(f"{w.shape[0]}\n{rows}\n")
    return path


def write_coords(path: Path, points: list[tuple[int, int]]) -> Path:
    rows = "\n".join(f"{x} {y}" for x, y in points)
    path.write_text(f"{len(points)}\n{rows}\n")
    return path


# ---------------------------------------------------------------- checks


def check_tour(w: np.ndarray, tour, weight, edges=None) -> float:
    """A Hamiltonian cycle on 1..n whose recomputed weight equals ``weight``.

    ``edges``, when given, must be the cycle's canonical edge ids.
    """
    n = w.shape[0]
    seq = [int(v) for v in tour]
    if sorted(seq) != list(range(1, n + 1)):
        raise CheckError(f"tour is not a permutation of 1..{n}: {seq}")
    pairs = [(seq[i], seq[(i + 1) % n]) for i in range(n)]
    total = sum(int(w[a - 1, b - 1]) for a, b in pairs)
    if total != weight:
        raise CheckError(f"reported weight {weight} != recomputed {total}")
    if edges is not None:
        ids = sorted(_edge_id(a, b, n) for a, b in pairs)
        if ids != sorted(int(e) for e in edges):
            raise CheckError("edge ids do not match the tour")
    return float(total)


def _edge_id(i: int, j: int, n: int) -> int:
    a, b = min(i, j), max(i, j)
    return (a - 1) * n - a * (a + 1) // 2 + b


def check_maclane(results: dict, trace: list, n: int, order: list[int]) -> None:
    m = n * (n - 1) // 2
    if results["p_e"] != [n - 2] * m:
        raise CheckError("p_e is not n-2 on every edge")
    if results["f2"] != m * (n - 2) * (n - 3) * (n - 4):
        raise CheckError(f"F2 {results['f2']} != m(n-2)(n-3)(n-4)")
    # Deleting triangle k lowers p_e on its three edges by one.
    p_e = [n - 2] * m
    tri = list(combinations(range(1, n + 1), 3))
    for k in order:
        a, b, c = tri[k - 1]
        for u, v in ((a, b), (a, c), (b, c)):
            p_e[_edge_id(u, v, n) - 1] -= 1
    last = trace[-1]
    if len(trace) != len(order) + 1 or last["p_e"] != p_e:
        raise CheckError("deletion trace does not end at the expected p_e")
    f2 = sum(p**3 - 3 * p * p + 2 * p for p in p_e)
    if last["f2"] != f2:
        raise CheckError(f"final F2 {last['f2']} != {f2}")


def check_hamiltonian(results: dict, trace: list, w: np.ndarray) -> float:
    n = w.shape[0]
    weight = check_tour(w, results["tour"], results["weight"], results["edges"])
    steps = [e["triangle"] for e in trace if "triangle" in e]
    if len(steps) != n - 2:
        raise CheckError(f"{len(steps)} trace triangles, expected n-2 = {n - 2}")
    if set().union(*map(set, steps)) != set(range(1, n + 1)):
        raise CheckError("trace triangles do not span all vertices")
    ring = set()
    for a, b, c in steps:
        ring ^= {_edge_id(a, b, n), _edge_id(a, c, n), _edge_id(b, c, n)}
    if ring != set(results["edges"]):
        raise CheckError("ring sum of the trace triangles is not the tour")
    return weight


# ---------------------------------------------------------------- ops


def _cli(argv: list[str]) -> tuple[int, str]:
    import ringtour.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ringtour.cli.main(argv)
    return code, buf.getvalue()


def _report(code: int, text: str) -> dict:
    if code != 0:
        raise CheckError(f"exit code {code}")
    return json.loads(text)


def _text_bytes(raw: list[tuple[int, str]]) -> int:
    return sum(len(text.encode()) for _, text in raw)


def solve_lib_op(label: str, w: np.ndarray) -> Op:
    import ringtour

    def run():
        return ringtour.solve(ringtour.CompleteInstance(w))

    def check(res) -> Tour:
        weight = check_tour(w, res.sequence, res.weight, sorted(res.edges))
        return Tour(weight, lower_bound(w))

    return Op(label, w.shape[0], run, check)


def solve_cli_op(label: str, flag: str, path: Path, w: np.ndarray) -> Op:
    argv = ["solve", flag, str(path), "--format", "json"]

    def check(raw) -> Tour:
        r = _report(*raw[0])["results"]
        return Tour(check_tour(w, r["tour"], r["weight"], r["edges"]), lower_bound(w))

    return Op(label, w.shape[0], lambda: [_cli(argv)], check, _text_bytes)


def compare_op(label: str, path: Path, w: np.ndarray, brute_force) -> Op:
    argv = ["compare", "--matrix", str(path), "--format", "json"]
    n = w.shape[0]

    def check(raw) -> Tour:
        r = _report(*raw[0])["results"]
        heur = check_tour(w, r["heuristic_tour"], r["heuristic"])
        opt = check_tour(w, r["optimal_tour"], r["optimum"])
        if opt > heur:
            raise CheckError(f"optimum {opt} exceeds heuristic {heur}")
        if n <= 10:
            import ringtour

            exact = brute_force(ringtour.CompleteInstance(w)).optimum
            if exact != opt:
                raise CheckError(f"optimum {opt} != brute force {exact}")
        return Tour(heur, opt)

    return Op(label, n, lambda: [_cli(argv)], check, _text_bytes)


def unweighted_op(label: str, ham_path: Path, w_ham: np.ndarray, mac_path: Path,
                  n_mac: int, order: list[int]) -> Op:
    ham = ["hamiltonian", "--matrix", str(ham_path), "--format", "json"]
    mac = ["maclane", "--matrix", str(mac_path), "--format", "json",
           "--delete", ",".join(map(str, order))]

    def check(raw) -> Tour:
        h = _report(*raw[0])
        weight = check_hamiltonian(h["results"], h["trace"], w_ham)
        m = _report(*raw[1])
        check_maclane(m["results"], m["trace"], n_mac, order)
        return Tour(weight, lower_bound(w_ham))

    return Op(label, w_ham.shape[0], lambda: [_cli(ham), _cli(mac)], check, _text_bytes)


# ---------------------------------------------------------------- workloads

# One pass over each op list takes about 15 s on a 2-core x86 box, so a
# 20 s run holds one whole pass of distinct inputs (fewer than 20 ops) and
# the start of the next.

SOLVE_RANDOM = dict(count=16, n=200, lo=1, hi=100)

# (rows, cols, step) EUC_2D lattices: frontier peaks 800, 996 and 6,496.
GRID_LATTICES = ((3, 4, 1), (4, 5, 2), (5, 5, 3))

# Narrow-range circulant matrices, weight by circular distance d: frontier
# peaks 1,738, 960 and 4,992.  Fresh random narrow-range matrices swing
# extension time 100-fold between seeds (0.1 s to 9.5 s at n = 12, weights
# 1..2), which no run length steadies; circulants keep the tie structure
# fixed and the seed only relabels the vertices.
GRID_CIRCULANTS = (
    (11, lambda d: 1 if d in (1, 3) else 2),
    (12, lambda d: 1 + d % 3),
    (13, lambda d: 1 if d in (1, 3) else 2),
)
GRID_COPIES = 3  # each shape three times, each copy relabelled afresh

COMPARE_SIZES = (17,) * 9 + (10,) * 5

UNWEIGHTED = dict(count=16, n_ham=100, n_mac=40, deletions=10)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one pass of ``name``, inputs drawn from ``seed``.

    Input files are written into ``workdir``.  The first op is on the
    smallest input and is the one to warm up with.
    """
    rng = np.random.default_rng(seed)
    if name == "solve-random":
        p = SOLVE_RANDOM
        return [
            solve_lib_op(f"random-n{p['n']}-{k}", random_matrix(rng, p["n"], p["lo"], p["hi"]))
            for k in range(p["count"])
        ]
    if name == "solve-grid-ties":
        ops = []
        for copy in range(GRID_COPIES):
            for rows, cols, step in GRID_LATTICES:
                shift = rng.integers(0, 1000, size=2)
                pts = [(int(x + shift[0]), int(y + shift[1]))
                       for x, y in lattice(rows, cols, step)]
                pts = [pts[i] for i in rng.permutation(len(pts))]
                label = f"lattice-{rows}x{cols}-step{step}-{copy}"
                path = write_coords(workdir / f"{label}.txt", pts)
                ops.append(solve_cli_op(label, "--coords", path, euc2d(pts)))
            for n, weight_of in GRID_CIRCULANTS:
                w = relabel(circulant(n, weight_of), rng.permutation(n))
                label = f"circulant-n{n}-{copy}"
                path = write_matrix(workdir / f"{label}.txt", w)
                ops.append(solve_cli_op(label, "--matrix", path, w))
        return sorted(ops, key=lambda op: op.n)
    if name == "compare-oracle":
        from ringtour.oracle import brute_force  # the original, never a wrapper

        ops = []
        for k, n in enumerate(COMPARE_SIZES):
            w = random_matrix(rng, n, 1, 100)
            label = f"compare-n{n}-{k}"
            ops.append(compare_op(label, write_matrix(workdir / f"{label}.txt", w), w,
                                  brute_force))
        return sorted(ops, key=lambda op: op.n)
    if name == "unweighted-build":
        p = UNWEIGHTED
        n_tri = p["n_mac"] * (p["n_mac"] - 1) * (p["n_mac"] - 2) // 6
        ops = []
        for k in range(p["count"]):
            w_ham = random_matrix(rng, p["n_ham"], 1, 100)
            w_mac = random_matrix(rng, p["n_mac"], 1, 100)
            order = [int(x) + 1 for x in rng.choice(n_tri, size=p["deletions"], replace=False)]
            ops.append(unweighted_op(
                f"unweighted-{k}",
                write_matrix(workdir / f"ham-{k}.txt", w_ham), w_ham,
                write_matrix(workdir / f"mac-{k}.txt", w_mac), p["n_mac"], order,
            ))
        return ops
    raise ValueError(f"unknown workload {name!r}")
