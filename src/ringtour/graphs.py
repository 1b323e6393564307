"""Graph representations and instance I/O.

Two graph types are used throughout the package:

* :class:`CompleteInstance` -- a symmetric weighted complete graph K_n with
  the canonical lexicographic edge numbering (all edges incident to v1
  first, then v2's remaining edges, and so on).
* :class:`GeneralGraph` -- an arbitrary simple graph whose edge ids are the
  1-based positions in its edge list.

Vertices and edge ids are 1-based everywhere in the public API.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AsymmetricWeightsError,
    BadOrderError,
    DomainError,
    InvalidInstanceError,
    NegativeWeightError,
    ParseError,
)

# Largest order `random_instance` draws: a 32 MB weight matrix and a few
# seconds of draws.  File sources need no cap, because their parsers count
# the rows before they allocate.
RANDOM_MAX_N = 2000


def edge_id(i: int, j: int, n: int) -> int:
    """Canonical id of edge {i, j} in K_n (symmetric in i and j).

    With a = min(i, j) and b = max(i, j) the id is
    (a-1)*n - a*(a+1)//2 + b, i.e. edge (1,2) is e1 and edge (n-1,n)
    is e_{n(n-1)/2}.
    """
    if n < 2:
        raise DomainError(f"order must be at least 2, got {n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"vertex out of range for n={n}: ({i}, {j})")
    if i == j:
        raise DomainError(f"loop edge ({i}, {i}) is not allowed")
    a, b = (i, j) if i < j else (j, i)
    return (a - 1) * n - a * (a + 1) // 2 + b


def edge_endpoints(eid: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`edge_id`: returns (min, max) endpoints."""
    m = n * (n - 1) // 2
    if not (1 <= eid <= m):
        raise DomainError(f"edge id {eid} out of range 1..{m} for n={n}")
    # Rows after row a hold C(n-a, 2) ids, so the m - eid ids after eid
    # satisfy C(n-a, 2) <= m - eid < C(n-a+1, 2).
    a = n - (1 + math.isqrt(1 + 8 * (m - eid))) // 2
    b = eid - ((a - 1) * n - a * (a + 1) // 2)
    return a, b


def _symmetric(n: int, values, dtype) -> np.ndarray:
    """n x n matrix with ``values[e - 1]`` in both cells of edge e.

    ``values`` runs in edge-id order (the strict upper triangle row by row).
    Both triangles are stored, not summed as ``w + w.T``, so -0.0 keeps its sign.
    """
    upper = ~np.tri(n, dtype=bool)
    w = np.zeros((n, n), dtype=dtype)
    w[upper] = w.T[upper] = np.asarray(values, dtype=dtype)
    return w


@functools.lru_cache(maxsize=8)
def edge_id_table(n: int) -> np.ndarray:
    """:func:`edge_id` of K_n over 0-based endpoints.

    A read-only n x n matrix, 0 on the diagonal, in the narrowest unsigned
    dtype that holds every id; a frontier's keys take the same dtype.
    """
    m = n * (n - 1) // 2
    ids = _symmetric(n, np.arange(1, m + 1), np.min_scalar_type(m))
    ids.setflags(write=False)
    return ids


class CompleteInstance:
    """Immutable symmetric weighted complete graph.

    The weight matrix is stored as a read-only float64 array; vertex
    arguments are 1-based at every public method.
    """

    __slots__ = ("n", "_w")

    def __init__(self, weights: np.ndarray | Sequence[Sequence[float]]):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInstanceError(
                f"weight matrix must be square, got shape {w.shape}"
            )
        n = int(w.shape[0])
        if n < 3:
            raise BadOrderError(f"instance needs at least 3 vertices, got {n}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise NegativeWeightError("weights must be finite and non-negative")
        # Cycle weights and the extension's intermediate sums stay below (n+2)*max.
        if not math.isfinite(float(w.max()) * (n + 2)):
            raise InvalidInstanceError("weights too large: cycle sums would overflow")
        if np.any(np.diagonal(w) != 0):
            bad = [i + 1 for i in range(n) if w[i, i] != 0]
            raise NegativeWeightError(f"non-zero diagonal at vertices {bad}")
        if not np.array_equal(w, w.T):
            raise AsymmetricWeightsError("weight matrix is not symmetric")
        w.setflags(write=False)
        self.n = n
        self._w = w

    @property
    def m(self) -> int:
        """Number of edges, n*(n-1)/2."""
        return self.n * (self.n - 1) // 2

    @property
    def weights(self) -> np.ndarray:
        """Read-only n x n weight matrix (0-based rows/columns)."""
        return self._w

    def weight(self, i: int, j: int) -> float:
        """Weight of edge {i, j} (1-based vertices)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError(f"vertex out of range for n={self.n}: ({i}, {j})")
        return float(self._w[i - 1, j - 1])

    def edge_id(self, i: int, j: int) -> int:
        return edge_id(i, j, self.n)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return edge_endpoints(eid, self.n)

    def edge_weight(self, eid: int) -> float:
        a, b = self.endpoints(eid)
        return float(self._w[a - 1, b - 1])

    def __repr__(self) -> str:
        return f"CompleteInstance(n={self.n})"


@dataclass(frozen=True)
class GeneralGraph:
    """Simple undirected graph; edge ids are 1-based list positions."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        norm = []
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"vertex out of range for n={n}: ({u}, {v})")
            if u == v:
                raise DomainError(f"loop edge ({u}, {u}) is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (1 <= eid <= self.m):
            raise DomainError(f"edge id {eid} out of range 1..{self.m}")
        return self.edges[eid - 1]

    def edge_id(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        try:
            return self.edges.index(key) + 1
        except ValueError:
            raise DomainError(f"no edge {key} in graph") from None

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def distance_matrix(self) -> list[list[int]]:
        """All-pairs BFS distances; unreachable pairs get -1."""
        adj = self.adjacency()
        dist = [[-1] * (self.n + 1) for _ in range(self.n + 1)]
        for s in range(1, self.n + 1):
            dist[s][s] = 0
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if dist[s][w] < 0:
                            dist[s][w] = d
                            nxt.append(w)
                frontier = nxt
        return dist


@dataclass(frozen=True)
class InstanceSource:
    """Description of where an instance comes from.

    kind is one of "matrix", "upper", "coords" (file-backed) or "random".
    """

    kind: str
    path: Path | None = None
    n: int | None = None
    seed: int | None = None
    lo: int = 1
    hi: int = 100

    def describe(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.path is not None:
            d["path"] = str(self.path)
        if self.kind == "random":
            d.update(n=self.n, seed=self.seed, lo=self.lo, hi=self.hi)
        return d


def _parse_numbers(line: str, path: str, lineno: int) -> list[float]:
    try:
        return list(map(float, line.split()))
    except ValueError:
        # walk the row again only to name its first bad token
        for tok in line.split():
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {tok!r}") from None
        raise


def _read_rows(lines: list[tuple[int, str]], width: int) -> np.ndarray | None:
    """The rows as a (len(lines), width) float64 array, parsed in C.

    None when ``np.loadtxt`` refuses a row or the shape comes out wrong.
    The caller then walks the rows with ``float()``, which also takes the
    literals ``loadtxt`` refuses (``1_000``, Unicode digits) and names the
    first bad line; every value ``loadtxt`` does take is the one ``float()``
    gives, since both parse with the same C routine.
    """
    try:
        rows = np.loadtxt(
            [line for _, line in lines], dtype=np.float64, comments=None, ndmin=2
        )
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), width) else None


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(file line number, line) for every line that is not blank or a comment."""
    return [
        (k, ln)
        for k, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]


def _parse_order(lines: list[tuple[int, str]], path: str) -> int:
    if not lines:
        raise ParseError(f"{path}: empty file")
    k, line = lines[0]
    head = line.split()
    if len(head) != 1:
        raise ParseError(f"{path}:{k}: expected a single vertex count, got {line!r}")
    try:
        n = int(head[0])
    except ValueError:
        raise ParseError(f"{path}:{k}: vertex count is not an integer: {head[0]!r}") from None
    if n < 3:
        raise BadOrderError(f"{path}:{k}: instance needs at least 3 vertices, got {n}")
    return n


def parse_matrix_text(text: str, path: str = "<matrix>") -> CompleteInstance:
    """Full-matrix format: line 1 is n, then n rows of n numbers."""
    lines = _content_lines(text)
    n = _parse_order(lines, path)
    if len(lines) != n + 1:
        raise ParseError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")
    rows = _read_rows(lines[1:], n)
    if rows is None:
        rows = []
        for k, line in lines[1:]:
            row = _parse_numbers(line, path, k)
            if len(row) != n:
                raise ParseError(f"{path}:{k}: expected {n} entries, found {len(row)}")
            rows.append(row)
    return CompleteInstance(rows)


def parse_upper_text(text: str, path: str = "<upper>") -> CompleteInstance:
    """Upper-row format: line 1 is n, then n-1 rows of w(i,j) for j>i."""
    lines = _content_lines(text)
    n = _parse_order(lines, path)
    if len(lines) != n:
        raise ParseError(f"{path}: expected {n - 1} upper rows, found {len(lines) - 1}")
    values: list[float] = []
    for i, (k, line) in enumerate(lines[1:], start=1):
        row = _parse_numbers(line, path, k)
        if len(row) != n - i:
            raise ParseError(
                f"{path}:{k}: expected {n - i} entries for row {i}, found {len(row)}"
            )
        values += row
    return CompleteInstance(_symmetric(n, values, np.float64))


def parse_coords_text(text: str, path: str = "<coords>") -> CompleteInstance:
    """Coordinate format: line 1 is n, then n rows of `x y`.

    Distances follow the TSPLIB EUC_2D convention: the Euclidean distance
    rounded half-up to an integer.
    """
    lines = _content_lines(text)
    n = _parse_order(lines, path)
    if len(lines) != n + 1:
        raise ParseError(f"{path}: expected {n} coordinate rows, found {len(lines) - 1}")
    pts = []
    for k, line in lines[1:]:
        row = _parse_numbers(line, path, k)
        if len(row) != 2:
            raise ParseError(f"{path}:{k}: expected `x y`, found {len(row)} values")
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{k}: coordinates must be finite")
        pts.append((row[0], row[1]))
    # math.hypot per pair, in edge-id order; np.hypot can differ in the last bit.
    d = np.array([math.hypot(x - u, y - v) for (x, y), (u, v) in combinations(pts, 2)])
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        a, b = edge_endpoints(int(bad[0]) + 1, n)
        raise ParseError(
            f"{path}:{lines[b][0]}: distance to the point on line {lines[a][0]} overflows"
        )
    return CompleteInstance(_symmetric(n, np.floor(d + 0.5), np.float64))


def random_instance(
    n: int, seed: int, weight_range: tuple[int, int] = (1, 100)
) -> CompleteInstance:
    """Deterministic random instance: integer weights uniform in the range.

    Orders above :data:`RANDOM_MAX_N` are refused before anything is
    allocated.
    """
    lo, hi = weight_range
    if lo > hi:
        raise DomainError(f"invalid weight range [{lo}, {hi}]")
    if lo < 0:
        raise DomainError("weights must be non-negative")
    if hi > sys.float_info.max:
        raise DomainError(f"weights must be at most {sys.float_info.max:g} (float64)")
    if n < 3:
        raise BadOrderError(f"instance needs at least 3 vertices, got {n}")
    if n > RANDOM_MAX_N:
        raise DomainError(
            f"random instances are capped at n={RANDOM_MAX_N}, got n={n}"
        )
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    draws = (rng.randint(lo, hi) for _ in range(m))
    return CompleteInstance(_symmetric(n, np.fromiter(draws, np.float64, m), np.float64))


def load_instance(source: InstanceSource) -> CompleteInstance:
    """Build a validated instance from any source kind."""
    if source.kind == "random":
        if source.n is None or source.seed is None:
            raise DomainError("random source needs n and seed")
        return random_instance(source.n, source.seed, (source.lo, source.hi))
    if source.path is None:
        raise DomainError(f"{source.kind} source needs a path")
    try:
        text = Path(source.path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source.path}: {exc}") from None
    if source.kind == "matrix":
        return parse_matrix_text(text, str(source.path))
    if source.kind == "upper":
        return parse_upper_text(text, str(source.path))
    if source.kind == "coords":
        return parse_coords_text(text, str(source.path))
    raise DomainError(f"unknown source kind {source.kind!r}")
