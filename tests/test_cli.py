"""Command-line interface behaviour: outputs, determinism, exit codes."""

from __future__ import annotations

import json
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest

from ringtour import cli, heuristic, isocycles
from ringtour.cli import RunReport, main
from ringtour.graphs import RANDOM_MAX_N, InstanceSource, edge_id, load_instance

K6_MATRIX_TEXT = """6
0 6 4 8 7 14
6 0 7 11 7 10
4 7 0 4 3 10
8 11 4 0 5 11
7 7 3 5 0 7
14 10 10 11 7 0
"""

K4_MATRIX_TEXT = """4
0 10 5 9
10 0 6 9
5 6 0 3
9 9 3 0
"""


K5_MATRIX_TEXT = """5
0 6 10 5 11
6 0 10 9 7
10 10 0 9 8
5 9 9 0 11
11 7 8 11 0
"""


@pytest.fixture()
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(K5_MATRIX_TEXT)
    return path


@pytest.fixture()
def k6_file(tmp_path):
    path = tmp_path / "k6.txt"
    path.write_text(K6_MATRIX_TEXT)
    return path


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_MATRIX_TEXT)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_k6_json(self, capsys, k6_file):
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(k6_file),
            "--beam", "all-ties", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["weight"] == 36
        assert report["results"]["edges"] == [1, 2, 9, 10, 13, 15]
        assert report["results"]["tour"] == [1, 2, 6, 5, 4, 3]

    def test_text_mirrors_desk_notation(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "solve", "--matrix", str(k4_file))
        assert code == 0
        assert "(v1,v2,v4,v3)" in out
        assert "{e1,e2,e5,e6}" in out
        assert "weight 27" in out

    def test_trace_lists_frontiers(self, capsys, k6_file):
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(k6_file), "--trace"
        )
        assert code == 0
        assert "L=4 w=20" in out
        assert "L=5 w=26" in out

    def test_random_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--random", "n=7", "seed=3", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["seed"] == 3
        assert len(report["results"]["tour"]) == 7

    def test_deterministic_json(self, capsys, k6_file, tmp_path):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "solve", "--matrix", str(k6_file), "--format", "json"
            )
            assert code == 0
            payload = json.loads(out)
            payload.pop("timing_ms")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_out_file(self, capsys, k4_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(k4_file),
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["results"]["weight"] == 27

    def test_coords_source(self, capsys, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("4\n0 0\n0 3\n4 3\n4 0\n")
        code, out, _ = run_cli(
            capsys, "solve", "--coords", str(pts), "--format", "json"
        )
        assert code == 0
        # rectangle perimeter 3+4+3+4
        assert json.loads(out)["results"]["weight"] == 14


class TestCompareCommand:
    def test_k6(self, capsys, k6_file):
        code, out, _ = run_cli(
            capsys, "compare", "--matrix", str(k6_file), "--format", "json"
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert r["optimum"] == 36
        assert r["heuristic"] == 36
        assert r["ratio"] == 1.0
        assert r["match"] is True

    def test_k6_text(self, capsys, k6_file):
        code, out, _ = run_cli(capsys, "compare", "--matrix", str(k6_file))
        assert code == 0
        assert out.splitlines() == [
            "optimum   36  (v1,v2,v6,v5,v4,v3)",
            "heuristic 36  (v1,v2,v6,v5,v4,v3)",
            "ratio     1.000000",
            "match     true",
        ]

    def test_zero_optimum_missed_ratio(self, capsys, tmp_path):
        # the optimum is 0 and the heuristic finds 1: an infinite ratio,
        # which JSON reports as null and the text as inf
        path = tmp_path / "zero.txt"
        path.write_text(
            "6\n0 0 1 0 0 1\n0 0 0 0 1 1\n1 0 0 0 1 0\n"
            "0 0 0 0 1 1\n0 1 1 1 0 0\n1 1 0 1 0 0\n"
        )

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        code, out, _ = run_cli(
            capsys, "compare", "--matrix", str(path), "--format", "json"
        )
        assert code == 0
        r = json.loads(out, parse_constant=refuse)["results"]
        assert (r["optimum"], r["heuristic"], r["ratio"]) == (0, 1, None)
        code, out, _ = run_cli(capsys, "compare", "--matrix", str(path))
        assert code == 0 and "ratio     inf" in out.splitlines()

    def test_random_ratio_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--random", "n=8", "seed=7", "--format", "json"
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert r["ratio"] >= 1.0

    def test_oracle_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--random", "n=25", "seed=1"
        )
        assert code == 2
        assert "caps" in err


class TestGenCommand:
    def test_roundtrip_through_solve(self, capsys, tmp_path):
        target = tmp_path / "inst.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--random", "n=6", "seed=11", "--out", str(target)
        )
        assert code == 0
        code, out_a, _ = run_cli(
            capsys, "solve", "--matrix", str(target), "--format", "json"
        )
        code2, out_b, _ = run_cli(
            capsys, "solve", "--random", "n=6", "seed=11", "--format", "json"
        )
        assert code == code2 == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["results"] == b["results"]

    def test_text_names_the_file(self, capsys, tmp_path):
        target = tmp_path / "inst.txt"
        code, out, _ = run_cli(
            capsys, "gen", "--random", "n=6", "seed=11", "--out", str(target)
        )
        assert code == 0
        assert out == f"wrote {target} (n=6, m=15)\n"

    def test_upper_encoding(self, capsys, tmp_path):
        target = tmp_path / "inst_upper.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--random", "n=5", "seed=2",
            "--out", str(target), "--encoding", "upper",
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "5"
        code, out, _ = run_cli(
            capsys, "solve", "--upper", str(target), "--format", "json"
        )
        assert code == 0

    @pytest.mark.parametrize("encoding, expected", [
        ("matrix", "5\n0 8 12 11 47\n8 0 22 95 86\n12 22 0 40 33\n11 95 40 0 78\n"
                   "47 86 33 78 0\n"),
        ("upper", "5\n8 12 11 47\n22 95 86\n40 33\n78\n"),
    ])
    def test_file_bytes(self, capsys, tmp_path, encoding, expected):
        target = tmp_path / "inst.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--random", "n=5", "seed=2",
            "--encoding", encoding, "--out", str(target),
        )
        assert code == 0
        assert target.read_bytes() == expected.encode()

    def test_gen_needs_random(self, capsys, k4_file):
        code, _, err = run_cli(capsys, "gen", "--matrix", str(k4_file))
        assert code == 1

    def test_gen_needs_out(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--random", "n=5", "seed=1")
        assert code == 1


class TestCyclesAndMacLane:
    def test_cycles_listing(self, capsys, k6_file):
        code, out, _ = run_cli(capsys, "cycles", "--matrix", str(k6_file))
        assert code == 0
        assert "c1 = {e1,e2,e6} <-> (v1,v2,v3) = 17" in out
        assert "c20 = {e13,e14,e15}" in out

    @pytest.mark.parametrize("matrix", ["k6", "tenths"])
    def test_cycles_json(self, capsys, k6_file, tmp_path, matrix):
        path = k6_file
        if matrix == "tenths":
            # Tenths make the summation order show; triangle (5, 6, 7) is
            # all -0, which sums to 0.0.
            rng = random.Random(7)
            w = [[0.0] * 7 for _ in range(7)]
            for i, j in combinations(range(7), 2):
                w[i][j] = w[j][i] = -0.0 if i >= 4 else rng.randint(1, 30) / 10
            path = tmp_path / "tenths.txt"
            path.write_text("7\n" + "".join(" ".join(map(str, r)) + "\n" for r in w))
        code, out, _ = run_cli(capsys, "cycles", "--matrix", str(path), "--format", "json")
        assert code == 0
        inst = load_instance(InstanceSource("matrix", path=path))
        n = inst.n
        expected = []  # per triangle: weight summed from 0 in edge-id order
        for k, (a, b, c) in enumerate(combinations(range(1, n + 1), 3), start=1):
            ids = [edge_id(a, b, n), edge_id(a, c, n), edge_id(b, c, n)]
            weight = 0
            for e in ids:
                weight += inst.edge_weight(e)
            expected.append(
                {"id": k, "edges": ids, "vertices": [a, b, c], "weight": weight}
            )
        results = json.loads(out)["results"]
        assert results["count"] == len(expected)
        # Dumped, so that 0.0 and -0.0 differ.
        assert json.dumps(results["cycles"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_maclane_report(self, capsys, k6_file):
        code, out, _ = run_cli(
            capsys, "maclane", "--matrix", str(k6_file), "--format", "json"
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert r["cycle_count"] == 20
        assert r["p_e"] == [4] * 15

    def test_maclane_deletion_trace(self, capsys, k5_file):
        code, out, _ = run_cli(
            capsys, "maclane", "--matrix", str(k5_file),
            "--delete", "1,6,8,2,4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["f2"] == 60
        assert [e["f2"] for e in payload["trace"][1:]] == [42, 24, 12, 6, 0]

    def test_maclane_deletion_text(self, capsys, k5_file):
        code, out, _ = run_cli(
            capsys, "maclane", "--matrix", str(k5_file), "--delete", "1,6,8,2,4"
        )
        assert code == 0
        assert out.splitlines()[4:] == [
            "F2 60",
            "- c1: F2 = 42  P_e <2,2,3,3,2,3,3,3,3,3>",
            "- c6: F2 = 24  P_e <2,2,2,2,2,3,3,3,3,2>",
            "- c8: F2 = 12  P_e <2,2,2,2,1,3,2,3,2,2>",
            "- c2: F2 = 6  P_e <1,2,1,2,1,2,2,3,2,2>",
            "- c4: F2 = 0  P_e <1,1,0,2,1,2,2,2,2,2>",
        ]

    @pytest.mark.parametrize("delete", [None, "1,6,8"])
    def test_maclane_counts_pass_vectors_once(
        self, capsys, monkeypatch, k6_file, delete
    ):
        calls = []
        real = isocycles.pass_vectors

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(isocycles, "pass_vectors", counting)
        monkeypatch.setattr(cli, "pass_vectors", counting)
        argv = ["maclane", "--matrix", str(k6_file), "--format", "json"]
        if delete:
            argv += ["--delete", delete]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1
        r = json.loads(out)["results"]
        assert (r["f1"], r["f2"]) == (15 * 6, 15 * 24)  # p = 4 on all 15 edges


class TestHamiltonianCommand:
    def test_trace_output(self, capsys, k6_file):
        code, out, _ = run_cli(capsys, "hamiltonian", "--matrix", str(k6_file))
        assert code == 0
        assert "z1 = c1 = {e1,e2,e6} <-> (v1,v2,v3)" in out
        assert "z2 = z1 (+) c2 = {e2,e3,e6,e7} <-> (v1,v2,v3,v4)" in out
        assert "edges  {e4,e5,e6,e7,e11,e14}" in out

    def test_start_flag(self, capsys, k6_file):
        code, out, _ = run_cli(
            capsys, "hamiltonian", "--matrix", str(k6_file),
            "--start", "20", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["trace"][0]["seed_walk"] == [4, 5, 6]


# Full stdout of the trace-bearing text renderers, layouts without a growth
# step included.  "k4" and "k6" stand for the desk-example files.
GOLDEN_TEXT = {
    "solve-trace-k6": (("solve", "--matrix", "k6", "--trace"), """\
tour   (v1,v2,v6,v5,v4,v3)
edges  {e1,e2,e9,e10,e13,e15}
weight 36

seed  {e1,e2,e8,e11} <-> (v1,v2,v5,v3) = 20
  (+) c17 on (v3,v4,v5) over e11 -> 26
  (+) c16 on (v2,v5,v6) over e8 -> 36
frontiers:
  L=4 w=20: {e1,e2,e8,e11} {e2,e3,e11,e13} {e2,e4,e10,e13}
  L=5 w=26: {e1,e2,e8,e10,e13}
  L=6 w=36: {e1,e2,e9,e10,e13,e15}
"""),
    "hamiltonian-k6": (("hamiltonian", "--matrix", "k6"), """\
z1 = c1 = {e1,e2,e6} <-> (v1,v2,v3)
z2 = z1 (+) c2 = {e2,e3,e6,e7} <-> (v1,v2,v3,v4)
z3 = z2 (+) c6 = {e3,e4,e6,e7,e11} <-> (v1,v2,v3,v4,v5)
z4 = z3 (+) c9 = {e4,e5,e6,e7,e11,e14} <-> (v1,v2,v3,v4,v5,v6)
tour   (v1,v5,v3,v2,v4,v6)
edges  {e4,e5,e6,e7,e11,e14}
weight 53
"""),
    "hamiltonian-k6-start20": (("hamiltonian", "--matrix", "k6", "--start", "20"), """\
z1 = c20 = {e13,e14,e15} <-> (v4,v5,v6)
z2 = z1 (+) c8 = {e3,e4,e14,e15} <-> (v1,v4,v5,v6)
z3 = z2 (+) c2 = {e1,e4,e7,e14,e15} <-> (v1,v2,v4,v5,v6)
z4 = z3 (+) c1 = {e2,e4,e6,e7,e14,e15} <-> (v1,v2,v3,v4,v5,v6)
tour   (v1,v3,v2,v4,v6,v5)
edges  {e2,e4,e6,e7,e14,e15}
weight 47
"""),
    "solve-trace-n3": (("solve", "--random", "n=3", "seed=1", "--trace"), """\
tour   (v1,v2,v3)
edges  {e1,e2,e3}
weight 189

seed  {e1,e2,e3} <-> (v1,v2,v3) = 189
frontiers:
  L=3 w=189: {e1,e2,e3}
"""),
    "hamiltonian-n3": (("hamiltonian", "--random", "n=3", "seed=1"), """\
z1 = c1 = {e1,e2,e3} <-> (v1,v2,v3)
tour   (v1,v2,v3)
edges  {e1,e2,e3}
weight 189
"""),
    "solve-trace-k4": (("solve", "--matrix", "k4", "--trace"), """\
tour   (v1,v2,v4,v3)
edges  {e1,e2,e5,e6}
weight 27

seed  {e1,e2,e5,e6} <-> (v1,v2,v4,v3) = 27
frontiers:
  L=4 w=27: {e1,e2,e5,e6}
"""),
}


@pytest.mark.parametrize("name", GOLDEN_TEXT)
def test_golden_text(capsys, k4_file, k6_file, name):
    argv, expected = GOLDEN_TEXT[name]
    files = {"k4": str(k4_file), "k6": str(k6_file)}
    assert run_cli(capsys, *(files.get(a, a) for a in argv)) == (0, expected, "")


class TestUsageAndErrors:
    def test_no_source(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1
        assert "instance source" in err

    def test_two_sources(self, capsys, k4_file, k6_file):
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", str(k4_file), "--upper", str(k6_file)
        )
        assert code == 1

    def test_unknown_flag(self, capsys, k4_file):
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", str(k4_file), "--frobnicate"
        )
        assert code == 1

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1\n")
        code, _, err = run_cli(capsys, "solve", "--matrix", str(bad))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "absent.txt")
        )
        assert code == 2

    def test_undecodable_file(self, capsys, tmp_path):
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff\xfe3\n")
        code, _, err = run_cli(capsys, "solve", "--matrix", str(bad))
        assert code == 2
        assert err.startswith("ringtour: error: cannot read")

    def test_out_of_memory(self, capsys, monkeypatch, k4_file):
        # numpy's allocation failure is a MemoryError; none is made for real
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.00 GiB for an array")

        monkeypatch.setattr(cli, "solve", exhausted)
        code, out, err = run_cli(capsys, "solve", "--matrix", str(k4_file))
        assert (code, out) == (2, "")
        assert err == (
            "ringtour: error: out of memory: Unable to allocate 3.00 GiB for an array\n"
        )

    def test_table_budget(self, capsys, monkeypatch):
        # a round whose table passes the budget stops before it allocates
        monkeypatch.setattr(heuristic, "TABLE_BUDGET", 1)
        code, out, err = run_cli(capsys, "solve", "--random", "n=8", "seed=1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("over the budget of 1\n")
        assert err.startswith(
            "ringtour: error: extension round at cycle length 4 asks for "
        )

    def test_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for sub in ("solve", "compare", "gen", "cycles", "maclane",
                    "hamiltonian", "bench"):
            assert sub in out

    def test_subcommand_help_lists_flags(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--help")
        assert code == 0
        for flag in ("--matrix", "--upper", "--coords", "--random",
                     "--beam", "--trace", "--format", "--out"):
            assert flag in out

    @pytest.mark.parametrize("sub", ["solve", "compare", "bench"])
    def test_beam_help(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "'all-ties' (the default) is B = 1" in text
        assert "plus cutoff ties" in text
        assert f"keeps at most {heuristic.K} cycles" in text

    def test_bad_random_spec(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--random", "n=5")
        assert code == 1
        code, _, _ = run_cli(capsys, "solve", "--random", "n=5", "seed=x")
        assert code == 1

    @pytest.mark.parametrize(
        "spec, key",
        [(("n=4", "seed=1", "seed=2"), "seed"), (("n=4,n=5", "seed=1"), "n")],
        ids=["seed=1 seed=2", "n=4,n=5"],
    )
    def test_repeated_random_key(self, capsys, spec, key):
        # the later value would win without a word
        code, out, err = run_cli(capsys, "solve", "--random", *spec)
        assert (code, out) == (1, "")
        assert err.splitlines()[0].startswith("usage: ringtour")
        assert err.splitlines()[1:] == [f"ringtour: error: --random repeats key {key!r}"]

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--random", "x"), "bad --random token 'x', expected key=value"),
        (("solve", "--random", "q=1"), "unknown --random key 'q'"),
        (("bench", "--sizes", ","), "--sizes needs at least one size"),
    ])
    def test_usage_error_is_the_last_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"ringtour: error: {message}"

    def test_random_skips_empty_parts(self, capsys):
        spaced = run_cli(capsys, "solve", "--random", "n=5", "seed=1")
        assert run_cli(capsys, "solve", "--random", "n=5,seed=1,,") == spaced
        assert spaced[0] == 0 and spaced[2] == ""

    def test_coords_row_count(self, capsys, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("3\n0 0\n1 1\n")
        code, out, err = run_cli(capsys, "solve", "--coords", str(pts))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"ringtour: error: {pts}: expected 3 coordinate rows, found 2"
        )

    def test_bad_beam_is_usage_error(self, capsys):
        # "²".isdigit() holds, but int() does not parse it
        for beam in ("zero", "0", "²"):
            code, out, err = run_cli(
                capsys, "solve", "--random", "n=5", "seed=1", "--beam", beam
            )
            assert code == 1
            assert out == ""
            # the usage line, then one error line
            assert err.splitlines()[1:] == [
                "ringtour: error: beam must be a positive integer or 'all-ties', "
                f"got {beam!r}"
            ]
        for argv in (("compare", "--random", "n=5", "seed=1"), ("bench", "--sizes", "5")):
            code, _, err = run_cli(capsys, *argv, "--beam", "²")
            assert code == 1
            assert len(err.splitlines()) == 2 and "Traceback" not in err

    def test_bad_delete_list(self, capsys, k4_file):
        code, _, _ = run_cli(
            capsys, "maclane", "--matrix", str(k4_file), "--delete", "1,x"
        )
        assert code == 1

    def test_bad_sizes(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "8,big")
        assert code == 1

    @pytest.mark.parametrize("sizes", ["5,5", "5,6,5"])
    def test_repeated_size_is_usage_error(self, capsys, sizes):
        # a repeated size would solve its (n, seed) pairs twice and take the
        # median over the copies
        code, out, err = run_cli(capsys, "bench", "--sizes", sizes, "--seeds", "1")
        assert code == 1
        assert out == ""
        assert err.splitlines()[0].startswith("usage:")
        assert err.splitlines()[1:] == [
            f"ringtour: error: --sizes repeats a size, got {sizes!r}"
        ]

    @pytest.mark.parametrize("flag", ["--seeds"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bench_counts_must_be_positive(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "bench", "--sizes", "5", flag, value)
        assert code == 1
        assert f"{flag} must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "row", ["nan 1", "1 inf", "-inf 0", "1e308 0", "-1e308 0"]
    )
    def test_coords_not_finite(self, capsys, tmp_path, row):
        pts = tmp_path / "pts.txt"
        pts.write_text(f"3\n0 0\n{row}\n1e308 5\n")
        code, out, err = run_cli(capsys, "solve", "--coords", str(pts))
        assert code == 2
        assert out == ""
        assert err.startswith("ringtour: error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["solve", "compare", "gen", "bench"])
    def test_random_size_cap(self, capsys, tmp_path, command):
        too_big = RANDOM_MAX_N + 1
        target = tmp_path / "inst.txt"
        argv = {
            "solve": ("solve", "--random", f"n={too_big}", "seed=1"),
            "compare": ("compare", "--random", f"n={too_big}", "seed=1"),
            "gen": ("gen", "--random", f"n={too_big}", "seed=1",
                    "--out", str(target)),
            "bench": ("bench", "--sizes", f"5,{too_big}", "--seeds", "1"),
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("ringtour: error:")
        assert f"capped at n={RANDOM_MAX_N}" in err
        assert len(err.strip().splitlines()) == 1
        assert not target.exists()

    @pytest.mark.parametrize("command", ["solve", "gen", "bench"])
    def test_random_weight_overflow(self, capsys, tmp_path, command):
        hi = str(10**400)
        target = tmp_path / "inst.txt"
        argv = {
            "solve": ("solve", "--random", "n=5", "seed=1", f"hi={hi}"),
            "gen": ("gen", "--random", "n=5", "seed=1", f"hi={hi}",
                    "--out", str(target)),
            "bench": ("bench", "--sizes", "5", "--seeds", "1", "--hi", hi),
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("ringtour: error:")
        assert "float64" in err
        assert len(err.strip().splitlines()) == 1
        assert not target.exists()

    def test_random_help_names_cap(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--help")
        assert code == 0
        assert f"n <= {RANDOM_MAX_N}" in out

    def test_out_is_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "solve", "--random", "n=6", "seed=1", "--out", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ringtour: error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_unwritable_out_names_path(self, capsys, tmp_path, command, where):
        target, reason = {
            "missing-directory": (tmp_path / "absent" / "x", "No such file or directory"),
            "directory": (tmp_path, "Is a directory"),
        }[where]
        code, out, err = run_cli(
            capsys, command, "--random", "n=4", "seed=1", "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err == f"ringtour: error: cannot write {target}: {reason}\n"

    def test_out_file_holds_stdout_bytes(self, capsys, tmp_path):
        target = tmp_path / "cycles.txt"
        argv = ("cycles", "--random", "n=5", "seed=3")
        code, out, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, code2, out2) == (0, 0, "")
        assert target.read_bytes() == out.encode()


class TestBenchCommand:
    def test_small_bench_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "8,12", "--seeds", "2",
            "--format", "json",
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert len(r["rows"]) == 4
        assert set(r["median_ms"]) == {"8", "12"}
        assert r["slope"] is not None
        assert r["predicted_ops"]["12"] == (7 * 12**4 - 16 * 12**3) / 24

    def test_bench_includes_n3(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "3,4", "--seeds", "1", "--format", "json"
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert [row["n"] for row in r["rows"]] == [3, 4]
        assert set(r["median_ms"]) == {"3", "4"}
        # op counts start at n = 4
        assert r["predicted_ops"] == {"4": (7 * 4**4 - 16 * 4**3) / 24}

    def test_bench_text_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "6", "--seeds", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,seed,millis,weight"
        assert "# median n=6" in out


    def test_text_slope_line(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "6,8", "--seeds", "1")
        assert code == 0
        assert re.fullmatch(r"# slope -?\d+\.\d{3}", out.splitlines()[-1])

    def test_slope_is_the_loglog_least_squares_fit(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "8,6,10", "--seeds", "1", "--format", "json"
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert [row["n"] for row in r["rows"]] == [6, 8, 10]
        sizes = sorted(map(int, r["median_ms"]))
        expected = loglog_slope(sizes, [r["median_ms"][str(n)] for n in sizes])
        assert r["slope"] == pytest.approx(expected, rel=0, abs=1e-12)


def loglog_slope(sizes, medians):
    """Least-squares slope of log(median) against log(n), in closed form."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in medians]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


class TestParserCache:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, capsys, k6_file):
        source = ("--matrix", str(k6_file), "--format", "json")
        runs = [
            run_cli(capsys, "solve", *source, "--trace"),
            run_cli(capsys, "solve", *source),
            run_cli(capsys, "hamiltonian", *source, "--start", "20"),
            run_cli(capsys, "hamiltonian", *source),
        ]
        assert [code for code, _, _ in runs] == [0] * 4
        reports = [json.loads(out) for _, out, _ in runs]
        assert reports[0]["trace"] is not None
        assert reports[1]["trace"] is None
        assert reports[2]["trace"][0]["seed_walk"] == [4, 5, 6]
        assert reports[3]["trace"][0]["seed_walk"] == [1, 2, 3]


def indent_dumps(report):
    return json.dumps(vars(report), sort_keys=True, indent=2)


@pytest.fixture()
def spied_reports(monkeypatch):
    """(report, text) for every RunReport that main renders as JSON, in order."""
    rendered = []
    to_json = RunReport.to_json

    def spy(report):
        rendered.append((report, to_json(report)))
        return rendered[-1][1]

    monkeypatch.setattr(RunReport, "to_json", spy)
    return rendered


FLOATS = [math.inf, -math.inf, math.nan, -0.0, 1e16, 5e-324]
STRINGS = [
    'say "hi"',
    "back\\slash",
    "bell\x07 and tab\t",
    "na\u00efve \u2603",
    "/tmp/a dir, with commas/k 5, copy.txt",
]


class TestRunReport:
    def test_to_json_bytes(self):
        report = RunReport(
            command="solve",
            instance={"n": 6, "kind": "matrix", "path": "k6.txt"},
            params={"beam": "all-ties", "format": "json"},
            results={"weight": 36.0, "tour": [1, 2, 6, 5, 4, 3]},
            timing_ms=1.25,
            trace=None,
        )
        text = report.to_json()
        assert json.loads(text) == vars(report)
        # keys sorted, two-space indent
        assert text == """{
  "command": "solve",
  "instance": {
    "kind": "matrix",
    "n": 6,
    "path": "k6.txt"
  },
  "params": {
    "beam": "all-ties",
    "format": "json"
  },
  "results": {
    "tour": [
      1,
      2,
      6,
      5,
      4,
      3
    ],
    "weight": 36.0
  },
  "timing_ms": 1.25,
  "trace": null
}"""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--random", "n=12", "seed=5"),
            ("solve", "--random", "n=12", "seed=5", "--trace"),
            ("compare", "--random", "n=9", "seed=2"),
            ("gen", "--random", "n=6", "seed=1", "--out", "OUT"),
            ("cycles", "--matrix", "K5"),
            ("maclane", "--matrix", "K5", "--delete", "1,6,8"),
            ("hamiltonian", "--matrix", "K5"),
            ("bench", "--sizes", "6,8", "--seeds", "1"),
        ],
        ids=["solve", "solve-trace", "compare", "gen", "cycles", "maclane-delete",
             "hamiltonian", "bench"],
    )
    def test_every_command(self, capsys, spied_reports, tmp_path, argv):
        # a path with spaces and commas lands in the report's strings
        folder = tmp_path / "a dir, with commas"
        folder.mkdir()
        k5 = folder / "k 5, copy.txt"
        k5.write_text(K5_MATRIX_TEXT)
        paths = {"K5": str(k5), "OUT": str(folder / "gen, out.txt")}
        argv = [paths.get(arg, arg) for arg in argv]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        [(report, text)] = spied_reports
        assert out == text + "\n"
        assert text == indent_dumps(report)

    @pytest.mark.parametrize(
        "argv",
        [
            ("hamiltonian", "--random", "n=5", "seed=1"),
            ("hamiltonian", "--random", "n=40", "seed=2"),
            ("hamiltonian", "--random", "n=100", "seed=3"),
            ("maclane", "--random", "n=5", "seed=4", "--delete", "3,1,10"),
            ("maclane", "--random", "n=40", "seed=5", "--delete",
             "9880,1,4000,17,2500,38,741,6000,9000,123"),
        ],
        ids=["hamiltonian-5", "hamiltonian-40", "hamiltonian-100", "maclane-5",
             "maclane-40"],
    )
    def test_workload_sized_reports(self, capsys, spied_reports, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        [(report, text)] = spied_reports
        assert out == text + "\n"
        assert text == indent_dumps(report)

    @pytest.mark.parametrize(
        "results",
        [
            {"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}, "g": ()},
            {"t": (1, (2.5, None), ()), "u": [(), [[]], [{}]]},
            {"mixed": [1, 2.5, True, False, None, -3], "one": [0], "flag": True},
            {"list": FLOATS, "each": {str(k): x for k, x in enumerate(FLOATS)}},
            {"np": np.float64(0.1), "nps": [np.float64(x) for x in (1.5, -0.0, 1e16)]},
            {"strings": STRINGS, "mixed": ["a,b", 1, None], "keys": dict.fromkeys(STRINGS, 0)},
        ],
        ids=["empty", "tuples", "scalars", "floats", "numpy-floats", "strings"],
    )
    def test_edge_payloads(self, results):
        report = RunReport("x", {"path": STRINGS[-1]}, {}, results, trace=[results])
        assert report.to_json() == indent_dumps(report)

    @pytest.mark.parametrize(
        "results",
        [
            {"ints": [0, -7, 2**70, 12], "one": [5]},
            {"bools": [True, False, True], "int-bool": [1, True, 0, False]},
            {"int-float": [1, 2.0, -3, 0.5], "float-int": [2.5, 1]},
            {"nested": [[1, 2], [3, [4, 5]], [], [[6]]], "rows": ([1], (2, 3))},
        ],
        ids=["ints", "bools", "int-float", "nested"],
    )
    def test_int_lists(self, results):
        # a list of plain ints is joined in Python, every other scalar list in C
        report = RunReport("x", {}, {}, results, trace=[results])
        assert report.to_json() == indent_dumps(report)

    @pytest.mark.parametrize(
        "results",
        [{"v": np.int64(3)}, {"v": [1, np.int64(3)]}, {(1, 2): 0}, {1: "a"}],
        ids=["numpy-int", "numpy-int-in-list", "tuple-key", "int-key"],
    )
    def test_unencodable_raises_type_error(self, results):
        # json.dumps writes an int key as a string; no report has one
        with pytest.raises(TypeError):
            RunReport("x", {}, {}, results).to_json()

    def test_stdout_and_out_file_carry_the_same_bytes(self, capsys, spied_reports, tmp_path):
        target = tmp_path / "report.json"
        argv = ("solve", "--random", "n=8", "seed=3", "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, to_file, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and to_file == ""
        (_, printed), (_, written) = spied_reports
        assert out == printed + "\n"
        assert target.read_text() == written + "\n"
