"""Edge numbering, instance parsing and random generation."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringtour import (
    AsymmetricWeightsError,
    BadOrderError,
    CompleteInstance,
    DomainError,
    GeneralGraph,
    InstanceSource,
    InvalidInstanceError,
    NegativeWeightError,
    ParseError,
    RingtourError,
    edge_endpoints,
    edge_id,
    load_instance,
    parse_coords_text,
    parse_matrix_text,
    parse_upper_text,
    random_instance,
)
import ringtour
from ringtour import graphs
from ringtour.cli import main
from ringtour.graphs import RANDOM_MAX_N


class TestEdgeNumbering:
    @pytest.mark.parametrize(
        "i,j,n,expected",
        [
            (1, 2, 5, 1),
            (4, 5, 5, 10),
            (3, 6, 6, 12),
            (2, 1, 5, 1),  # symmetric in the arguments
            (5, 6, 6, 15),
        ],
    )
    def test_edge_id_examples(self, i, j, n, expected):
        assert edge_id(i, j, n) == expected

    @pytest.mark.parametrize(
        "eid,n,expected",
        [(10, 5, (4, 5)), (1, 2, (1, 2)), (1, 9, (1, 2)), (15, 6, (5, 6))],
    )
    def test_endpoints_examples(self, eid, n, expected):
        assert edge_endpoints(eid, n) == expected

    @pytest.mark.parametrize("n", range(3, 13))
    def test_bijection(self, n):
        seen = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                eid = edge_id(i, j, n)
                assert edge_endpoints(eid, n) == (i, j)
                assert edge_id(j, i, n) == eid
                seen.add(eid)
        assert seen == set(range(1, n * (n - 1) // 2 + 1))

    def test_round_trip_large_n(self):
        # ids 1 and m, the first and last id of every row, and a sample
        n = 2000
        m = n * (n - 1) // 2
        ids = {1, m}
        for a in range(1, n):
            ids.update((edge_id(a, a + 1, n), edge_id(a, n, n)))
        ids.update(np.random.default_rng(0).integers(1, m + 1, 2000).tolist())
        inst = CompleteInstance(np.zeros((n, n)))
        for eid in sorted(ids):
            a, b = edge_endpoints(eid, n)
            assert 1 <= a < b <= n and edge_id(a, b, n) == eid
            assert inst.endpoints(eid) == (a, b)
        with pytest.raises(DomainError):
            inst.endpoints(m + 1)

    # n = 23/24 and 362/363 straddle the uint8 -> uint16 -> uint32 steps
    @pytest.mark.parametrize("n", [*range(3, 31), 362, 363])
    def test_edge_id_table(self, n):
        ids = graphs.edge_id_table(n)
        assert ids.dtype == (np.uint8 if n <= 23 else np.uint16 if n <= 362 else np.uint32)
        assert not ids.flags.writeable
        vertices = range(1, n + 1)
        expected = [[edge_id(i, j, n) if i != j else 0 for j in vertices] for i in vertices]
        assert np.array_equal(ids, expected)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            edge_id(0, 2, 5)
        with pytest.raises(DomainError):
            edge_id(1, 6, 5)
        with pytest.raises(DomainError):
            edge_id(3, 3, 5)
        with pytest.raises(DomainError):
            edge_endpoints(11, 5)
        with pytest.raises(DomainError):
            edge_endpoints(0, 5)


K4_MATRIX_TEXT = """4
0 10 5 9
10 0 6 9
5 6 0 3
9 9 3 0
"""

K4_UPPER_TEXT = """4
10 5 9
6 9
3
"""


class TestParsing:
    def test_matrix_k6(self, k6):
        assert k6.weight(1, 2) == 6
        assert k6.weight(3, 5) == 3
        assert k6.m == 15

    def test_upper_equals_matrix(self):
        a = parse_matrix_text(K4_MATRIX_TEXT)
        b = parse_upper_text(K4_UPPER_TEXT)
        assert a.n == b.n
        assert np.array_equal(a.weights, b.weights)

    def test_trivial_k3(self):
        inst = parse_matrix_text("3\n0 1 1\n1 0 1\n1 1 0\n")
        assert inst.n == 3
        assert inst.weight(1, 3) == 1

    def test_caller_array_is_copied(self):
        w = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
        inst = CompleteInstance(w)
        w[0, 1] = w[1, 0] = 9.0
        assert inst.weight(1, 2) == 1
        assert not np.shares_memory(inst.weights, w)
        # loaders hand their own fresh matrix over; it is read-only all the same
        for loaded in (parse_matrix_text(K4_MATRIX_TEXT), parse_upper_text(K4_UPPER_TEXT),
                       parse_coords_text("3\n0 0\n1.5 2.0\n6 0\n"), random_instance(4, 1)):
            assert not loaded.weights.flags.writeable

    def test_coords_round_half_up(self):
        # distance 2.5 between (0,0) and (1.5,2.0) rounds to 3
        inst = parse_coords_text("3\n0 0\n1.5 2.0\n6 0\n")
        assert inst.weight(1, 2) == 3
        assert inst.weight(1, 3) == 6

    @pytest.mark.parametrize(
        "text, where",
        [
            ("3\n0 0\nnan 1\n6 0\n", "<coords>:3: coordinates"),
            ("3\n0 0\n1 inf\n6 0\n", "<coords>:3: coordinates"),
            ("3\n0 0\n1 1\n-inf 0\n", "<coords>:4: coordinates"),
            ("3\n0 0\n1 1e309\n6 0\n", "<coords>:3: coordinates"),
            ("3\n1e308 0\n0 0\n-1e308 0\n", "<coords>:4: distance"),
            ("3\n0 -1e308\n0 1e308\n6 0\n", "<coords>:3: distance"),
        ],
    )
    def test_coords_not_finite(self, text, where):
        with pytest.raises(ParseError, match=where):
            parse_coords_text(text)

    def test_overflowing_weights_rejected(self):
        # finite distances whose cycle sums overflow
        with pytest.raises(InvalidInstanceError, match="overflow"):
            parse_coords_text("3\n0 0\n1e308 0\n1e308 5\n")

    def test_parse_failures(self):
        with pytest.raises(ParseError):
            parse_matrix_text("")
        with pytest.raises(ParseError):
            parse_matrix_text("2 3\n0 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_matrix_text("3\n0 1\n1 0\n")  # wrong row count
        with pytest.raises(ParseError):
            parse_matrix_text("3\n0 1 2\n1 0 x\n2 3 0\n")
        with pytest.raises(ParseError):
            parse_upper_text("4\n1 2 3\n4 5\n")  # missing a row

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricWeightsError):
            parse_matrix_text("3\n0 1 2\n1 0 3\n2 4 0\n")

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeightError):
            parse_matrix_text("3\n0 -1 2\n-1 0 3\n2 3 0\n")

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NegativeWeightError):
            parse_matrix_text("3\n1 1 2\n1 0 3\n2 3 0\n")

    def test_too_small_rejected(self):
        with pytest.raises(BadOrderError):
            parse_matrix_text("2\n0 1\n1 0\n")

    @pytest.mark.parametrize("n", [-3, 0, 1, 2])
    @pytest.mark.parametrize(
        "parse", [parse_matrix_text, parse_upper_text, parse_coords_text]
    )
    def test_order_below_three_refused_at_header(self, parse, n):
        # refused at the header line, before any row count is checked
        where = f":2: instance needs at least 3 vertices, got {n}"
        with pytest.raises(BadOrderError, match=re.escape(where)):
            parse(f"# order\n{n}\n")

    def test_load_instance_dispatch(self, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text(K4_MATRIX_TEXT)
        inst = load_instance(InstanceSource(kind="matrix", path=path))
        assert inst.weight(1, 2) == 10
        upper = tmp_path / "k4_upper.txt"
        upper.write_text(K4_UPPER_TEXT)
        inst2 = load_instance(InstanceSource(kind="upper", path=upper))
        assert np.array_equal(inst.weights, inst2.weights)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_instance(InstanceSource(kind="matrix", path=tmp_path / "nope.txt"))

    def test_load_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe3\n")
        with pytest.raises(ParseError, match="cannot read"):
            load_instance(InstanceSource(kind="matrix", path=path))

    # Comment and blank lines still count: messages name the file's own line.
    @pytest.mark.parametrize(
        "parse, text, where",
        [
            (parse_matrix_text, "# c\n\n3\n0 1 2\n1 0 x\n2 3 0\n", ":5: not a number: 'x'"),
            (parse_matrix_text, "# c\n\n3\n0 1 2\n1 x 0 y\n2 z 0\n", ":5: not a number: 'x'"),
            (parse_matrix_text, "# c\n\n3\n0 1 2\n\n1 0\n2 3 0\n", ":6: expected 3 entries"),
            (parse_matrix_text, "# c\n\n3 3\n0 1 2\n", ":3: expected a single vertex"),
            (parse_matrix_text, "\n# c\nx\n0 1 2\n", ":3: vertex count is not an integer"),
            (parse_upper_text, "# c\n\n3\n1 2\n# row 2\n\nx\n", ":7: not a number: 'x'"),
            (parse_upper_text, "# c\n\n3\n1 2\n\n4 5\n", ":6: expected 1 entries for row 2"),
            (parse_coords_text, "# c\n\n3\n0 0\n# p\n1 1 1\n6 0\n", ":6: expected `x y`"),
            (parse_coords_text, "# c\n\n3\n0 0\n\n1 inf\n6 0\n", ":6: coordinates must be"),
            (
                parse_coords_text,
                "# c\n\n3\n1e308 0\n\n0 0\n# p\n-1e308 0\n",
                ":8: distance to the point on line 4 overflows",
            ),
            (
                # pairs (1, 4) and (2, 3) overflow; (1, 4) comes first in edge order
                parse_coords_text,
                "# c\n4\n1e308 0\n\n0 1e308\n0 -1e308\n# p\n-1e308 0\n",
                ":8: distance to the point on line 3 overflows",
            ),
        ],
        ids=[
            "matrix-number",
            "matrix-number-mid-row",
            "matrix-entries",
            "matrix-header",
            "matrix-order",
            "upper-number",
            "upper-entries",
            "coords-entries",
            "coords-finite",
            "coords-overflow",
            "coords-overflow-edge-order",
        ],
    )
    def test_error_lines_count_comments_and_blanks(self, parse, text, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            parse(text)

    def test_load_instance_error_names_file_line(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("# c\n\n3\n0 1 2\n1 0 x\n2 3 0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: not a number: 'x'")):
            load_instance(InstanceSource(kind="matrix", path=path))


def _matrix(a="1", sep=" ", eol="\n"):
    rows = [["3"], ["0", a, "2"], [a, "0", "3"], ["2", "3", "0"]]
    return eol.join(sep.join(row) for row in rows) + eol


def _coords(a="1", sep=" ", eol="\n"):
    rows = [["3"], ["0", "0"], [a, "1"], ["6", "0"]]
    return eol.join(sep.join(row) for row in rows) + eol


SEPARATORS = {"tab": "\t", "nbsp": "\xa0", "thin": "\u2009", "ideographic": "\u3000"}

# (matrix file text, whether np.loadtxt reads the rows)
FALLBACK_CASES = {
    **{
        name: (_matrix(a), fast)
        for name, a, fast in [
            ("underscore", "1_000", False),
            ("arabic-indic", "\u0661", False),
            ("fullwidth", "\uff11", False),
            ("minus-zero", "-0", True),
            ("overflow", "1e500", True),
            ("nan", "nan", True),
        ]
    },
    **{f"sep-{name}": (_matrix(sep=sep), True) for name, sep in SEPARATORS.items()},
    "inline-comment": ("3\n0 1 2 # note\n1 0 3\n2 3 0\n", False),
    "ragged": ("3\n0 1 2\n1 0\n2 3 0\n", False),
    "too-wide": ("3\n0 1 2 9\n1 0 3 9\n2 3 0 9\n", False),
    "crlf": (_matrix(eol="\r\n"), True),
    "trailing": (_matrix() + "\n# end\n  \n", True),
}


class TestParseFallback:
    """np.loadtxt and the per-row float() walk give the same matrix or error."""

    @staticmethod
    def outcome(capsys, path):
        """weights.tobytes(), or the CLI's (exit code, stderr) on a bad file."""
        try:
            return load_instance(InstanceSource(kind="matrix", path=path)).weights.tobytes()
        except RingtourError:
            code = main(["solve", "--matrix", str(path)])
            return code, capsys.readouterr().err

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_walk_matches_loadtxt(self, capsys, monkeypatch, tmp_path, case):
        text, fast = FALLBACK_CASES[case]
        path = tmp_path / "matrix.txt"
        path.write_bytes(text.encode())
        read_rows = graphs._read_rows
        taken = []

        def spy(lines, width):
            taken.append(read_rows(lines, width))
            return taken[-1]

        monkeypatch.setattr(graphs, "_read_rows", spy)
        got = self.outcome(capsys, path)
        assert (taken[0] is not None) == fast  # a bad file is loaded twice
        monkeypatch.setattr(graphs, "_read_rows", lambda lines, width: None)
        assert self.outcome(capsys, path) == got

    def test_values_follow_float(self):
        # -0 keeps its sign in both triangles, so neither parser adds w + w.T
        for w in (
            parse_matrix_text("3\n0 1_000 \u0662.5\n1_000 0 -0\n\u0662.5 -0 0\n").weights,
            parse_upper_text("3\n1_000 \u0662.5\n-0\n").weights,
        ):
            assert w.tolist() == [[0, 1000, 2.5], [1000, 0, 0], [2.5, 0, 0]]
            assert np.signbit(w[1, 2]) and np.signbit(w[2, 1])

    @pytest.mark.parametrize(
        "text, same_as",
        [
            (_coords("1_000"), _coords("1000")),
            (_coords("\u0661"), _coords("1")),
            (_coords("\uff11"), _coords("1")),
            (_coords("-0"), _coords("0")),
            *((_coords(sep=sep), _coords()) for sep in SEPARATORS.values()),
            (_coords(eol="\r\n"), _coords()),
            (_coords() + "\n# end\n  \n", _coords()),
        ],
    )
    def test_coords_follow_float(self, text, same_as):
        got = parse_coords_text(text).weights
        assert got.tobytes() == parse_coords_text(same_as).weights.tobytes()


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(5, 42, (1, 100))
        b = random_instance(5, 42, (1, 100))
        assert np.array_equal(a.weights, b.weights)

    def test_degenerate_range(self):
        inst = random_instance(3, 7, (7, 7))
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert inst.weight(i, j) == 7

    def test_structure(self):
        inst = random_instance(6, 1, (1, 10))
        w = inst.weights
        assert np.array_equal(w, w.T)
        assert np.all(np.diagonal(w) == 0)
        off = w[~np.eye(6, dtype=bool)]
        assert off.min() >= 1 and off.max() <= 10

    def test_bad_range(self):
        with pytest.raises(DomainError):
            random_instance(5, 1, (10, 2))

    def test_seed_matters(self):
        a = random_instance(6, 1, (1, 100))
        b = random_instance(6, 2, (1, 100))
        assert not np.array_equal(a.weights, b.weights)

    def test_weight_range_fits_float64(self):
        with pytest.raises(DomainError, match="float64"):
            random_instance(5, 1, (1, 10**400))
        with pytest.raises(DomainError, match="float64"):
            load_instance(InstanceSource(kind="random", n=5, seed=1, hi=2**1024))
        # huge but finite weights still draw
        assert random_instance(3, 1, (10**307, 10**307)).weight(1, 2) == 1e307

    def test_holds_one_matrix(self):
        # The draws go straight into the matrix, and the instance takes it
        # without a copy: a copy or an array of all the draws beside it
        # would push the peak past 1.25 matrices.  A fresh interpreter runs
        # the call, so nothing an earlier test allocated counts.
        n = 1000
        script = (
            "import tracemalloc\n"
            "from ringtour import random_instance\n"
            "tracemalloc.start()\n"
            f"random_instance({n}, 1)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = str(Path(ringtour.__file__).parents[1])  # the package under test
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert int(out.stdout) <= 1.25 * n * n * 8

    def test_size_cap(self):
        with pytest.raises(DomainError, match=f"capped at n={RANDOM_MAX_N}"):
            random_instance(RANDOM_MAX_N + 1, 1, (1, 100))
        source = InstanceSource(kind="random", n=RANDOM_MAX_N + 1, seed=1)
        with pytest.raises(DomainError, match=f"capped at n={RANDOM_MAX_N}"):
            load_instance(source)


class TestGeneralGraph:
    def test_simple_invariants(self):
        with pytest.raises(DomainError):
            GeneralGraph(3, [(1, 1)])
        with pytest.raises(DomainError):
            GeneralGraph(3, [(1, 2), (2, 1)])
        with pytest.raises(DomainError):
            GeneralGraph(3, [(1, 4)])

    def test_edge_ids_are_positions(self, g1):
        assert g1.m == 20
        assert g1.endpoints(1) == (1, 2)
        assert g1.endpoints(20) == (9, 10)
        assert g1.edge_id(10, 9) == 20

    def test_distance_matrix(self, g1):
        dist = g1.distance_matrix()
        assert dist[1][2] == 1
        assert dist[1][10] == 2
        assert dist[2][2] == 0
