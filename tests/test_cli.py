import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import cli
from gorenstein.census import CensusBounds, census_record, enumerate_census
from gorenstein.criteria import is_gorenstein, weight_function
from gorenstein.multigraph import Multigraph, complete_graph, cycle_graph
from glued import glued_chain

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH3_TEXT = "3 2\n0 1\n1 2\n"
C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4_TEXT)
    return str(p)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_k4(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "check", k4_file)
        assert code == 0
        data = json.loads(out)
        assert data["gorenstein"] is True
        assert data["delta"] == 2
        assert set(data["weights"].values()) == {1}
        assert len(data["good_flats"]) == 10

    def test_path_not_two_connected(self, capsys, tmp_path):
        p = tmp_path / "path3.txt"
        p.write_text(PATH3_TEXT)
        code, out, _ = run_cli(capsys, "check", str(p))
        assert code == 0
        assert json.loads(out) == {"gorenstein": False, "reason": "not 2-connected"}

    def test_huge_edgeless_not_two_connected(self, capsys, tmp_path):
        p = tmp_path / "edgeless.txt"
        p.write_text("100000000 0\n")
        code, out, _ = run_cli(capsys, "check", str(p))
        assert code == 0
        assert json.loads(out) == {"gorenstein": False, "reason": "not 2-connected"}

    def test_oracle_flag(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "check", k4_file, "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == 2
        assert data["point"] == [1] * 6

    def test_parse_error_exit_two(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1\n0 x\n")
        code, _, err = run_cli(capsys, "check", str(p))
        assert code == 2
        assert "line 2" in err

    def test_trailing_text_exit_two(self, capsys, tmp_path):
        p = tmp_path / "trailing.txt"
        p.write_text(K4_TEXT + "garbage here\n")
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 2
        assert out == ""
        assert "line 8, column 1" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_matches_library(self, capsys, k4_file):
        _, out, _ = run_cli(capsys, "check", k4_file)
        data = json.loads(out)
        delta, w = is_gorenstein(Multigraph.parse(K4_TEXT))
        assert data["delta"] == delta
        assert data["weights"] == {str(k): v for k, v in dict(w.weights).items()}

    def test_byte_deterministic(self, capsys, k4_file):
        _, out1, _ = run_cli(capsys, "check", k4_file)
        _, out2, _ = run_cli(capsys, "check", k4_file)
        assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["check", "--oracle"],
        ["weights", "--delta", "2"],
        ["facets"],
        ["glue"],
        ["decompose", "--delta", "2"],
    ],
)
def test_not_utf8_input_exit_two(capsys, tmp_path, argv):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"4 6\n0 1 \xe9\n")
    code, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {p}: not UTF-8 text\n"


_vertex_tokens = st.one_of(
    st.integers(-2, 9),
    st.integers(-(10**30), 10**30),
    st.sampled_from([2**63, -(2**63), 10**400]),
).map(str)
_bad_tokens = st.sampled_from(
    ["x", "1.5", "0x10", "-", "+", "1e3", "NaN", "3,4", "\u0663", "9" * 5000, "--delta"]
)
_tokens = _vertex_tokens | _bad_tokens


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, well formed but for up to three faults: a line of
    bad tokens, huge or negative integers, a loop, an out-of-range vertex
    or the wrong token count, put anywhere; blank lines anywhere; a
    vertex count that is not positive or huge; an edge count that is
    off, negative or huge; trailing text."""
    n = draw(st.sampled_from([2, 3, 3, 4, 4, 4, 5, 5, 6, 7, 8, -1, 0, 1, 10**40]))
    k = min(max(n, 2), 8)
    pairs = st.tuples(st.integers(0, k - 1), st.integers(1, k - 1))
    lines = [f"{u} {(u + d) % k}" for u, d in draw(st.lists(pairs, max_size=10))]
    fault = st.one_of(
        st.tuples(_tokens, _tokens).map(" ".join),
        st.integers(0, k - 1).map(lambda v: f"{v} {v}"),
        st.integers(k, k + 2).map(lambda v: f"0 {v}"),
        st.lists(_tokens, max_size=3).map(" ".join),
    )
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(fault))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "\t"])))
    edges = sum(1 for ln in lines if ln.strip())
    m = draw(st.sampled_from([edges] * 8 + [edges - 1, edges + 1, -1, 10**20]))
    header = draw(st.sampled_from([f"{n} {m}"] * 8 + [f"{n}", f"{n} {m} 0", None]))
    if header is None:
        header = f"{draw(_tokens)} {m}"
    tail = draw(st.sampled_from(["\n"] * 4 + ["", "\n\n", "\nx\n"]))
    return "\n".join([header, *lines]) + tail


@settings(max_examples=150, deadline=None)
@given(edge_list_texts(), st.integers(-3, 6) | st.sampled_from([10**30, -(10**30)]))
def test_random_edge_list_texts_never_crash(text, delta):
    """Every command that reads an edge-list file exits 0 or 2 on any text:
    a parse error, a bad delta or a graph outside a command's domain is
    an input error, never a traceback (exit 3)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (
            ["check", path],
            ["check", "--oracle", path],
            ["weights", path, "--delta", str(delta)],
            ["decompose", path, "--delta", str(delta)],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.run(argv)
            assert code in (0, 2), argv


class TestWeights:
    def test_c5_at_five(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text(C5_TEXT)
        code, out, _ = run_cli(capsys, "weights", str(p), "--delta", "5")
        assert code == 0
        data = json.loads(out)
        assert set(data["weights"].values()) == {4}

    def test_none_when_absent(self, capsys, tmp_path):
        p = tmp_path / "k2.txt"
        p.write_text("2 1\n0 1\n")
        code, out, _ = run_cli(capsys, "weights", str(p), "--delta", "2")
        assert code == 0
        assert out.strip() == "none"


class TestFacets:
    def test_k4_representation(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "facets", k4_file)
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 3
        assert len(data["vertices"]) == 16
        assert len(data["facets"]) == 16
        kinds = {f["kind"] for f in data["facets"]}
        assert kinds == {"nonnegativity", "good_flat"}

    def test_not_two_connected_exit_two(self, capsys, tmp_path):
        p = tmp_path / "path3.txt"
        p.write_text(PATH3_TEXT)
        code, _, _ = run_cli(capsys, "facets", str(p))
        assert code == 2

    def test_too_many_spanning_trees_exit_two(self, capsys, tmp_path):
        # 2,221,367,550 spanning trees: refused by their count, not listed
        p = tmp_path / "glued28.txt"
        p.write_text(glued_chain(3, 28).format())
        code, out, err = run_cli(capsys, "facets", str(p))
        assert (code, out) == (2, "")
        assert err == (
            f"error: 2221367550 spanning trees; facets lists at most {cli.FACETS_MAX_TREES}\n"
        )


class TestGlue:
    def spec_file(self, tmp_path, delta, **overrides):
        spec = {
            "delta": delta,
            "left": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "left_class": [0],
            "right": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "right_class": [0],
            **overrides,
        }
        p = tmp_path / "glue.json"
        p.write_text(json.dumps(spec))
        return str(p)

    def test_triangles_at_three(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "glue", self.spec_file(tmp_path, 3))
        assert code == 0
        diamond = Multigraph.from_edge_list(
            4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        )
        assert Multigraph.parse(out).is_isomorphic(diamond)

    def test_dot_output(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "glue", self.spec_file(tmp_path, 3), "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph G {")
        assert "--" in out

    def test_infeasible_precondition_exit_two(self, capsys, tmp_path):
        spec = {
            "delta": 5,
            "left": {"vertices": 2, "edges": [[0, 1], [0, 1]]},
            "left_class": [0],
            "right": {"vertices": 2, "edges": [[0, 1], [0, 1]]},
            "right_class": [0],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "glue", str(p))
        assert code == 2
        assert "negative" in err

    def test_flip_false_and_true(self, capsys, tmp_path):
        for flip in (False, True):
            code, out, _ = run_cli(capsys, "glue", self.spec_file(tmp_path, 3, flip=flip))
            assert code == 0
            assert Multigraph.parse(out).m == 5

    def test_huge_delta_refused_before_gluing(self, capsys, tmp_path):
        # two weight-(delta - 1) edges: delta - 2 replacement edges
        code, out, err = run_cli(capsys, "glue", self.spec_file(tmp_path, 30_000_000))
        assert (code, out) == (2, "")
        assert err == (
            "error: delta 30000000 allows 29999998 replacement edges; "
            f"glue builds at most {cli.GLUE_MAX_EDGES}\n"
        )

    def test_replacement_edge_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "GLUE_MAX_EDGES", 2)
        code, out, _ = run_cli(capsys, "glue", self.spec_file(tmp_path, 4))
        assert code == 0 and Multigraph.parse(out).m == 6
        code, _, err = run_cli(capsys, "glue", self.spec_file(tmp_path, 5))
        assert code == 2 and "allows 3 replacement edges" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, _ = run_cli(capsys, "glue", str(p))
        assert code == 2

    @pytest.mark.parametrize(
        "delta, overrides, message",
        [
            ("3", {}, "delta must be an integer"),
            (3, {"right_class": [7]}, "unknown edge id 7"),
            (3, {"left_class": [9]}, "unknown edge id 9"),
            (
                3,
                {"left": {"vertices": 3.0, "edges": [[0, 1], [1, 2], [0, 2]]}},
                "left vertices must be an integer, not 3.0",
            ),
            (
                3,
                {"right": {"vertices": 3, "edges": [[0.0, 1], [1, 2], [0, 2]]}},
                "right edge endpoint must be an integer, not 0.0",
            ),
            (3, {"flip": "no"}, "flip must be a boolean, not 'no'"),
            (3, {"left_class": [True]}, "left_class edge id must be an integer, not True"),
            (
                3,
                {"left": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "edge_ids": [0]}},
                "1 edge ids for 3 edges",
            ),
        ],
    )
    def test_bad_spec_value_exit_two(self, capsys, tmp_path, delta, overrides, message):
        path = self.spec_file(tmp_path, delta, **overrides)
        code, _, err = run_cli(capsys, "glue", path)
        assert code == 2
        assert message in err


class TestDecompose:
    def test_k4_at_two(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "decompose", k4_file, "--delta", "2")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == "k4"
        assert data["steps"] == []

    def test_none_when_absent(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "decompose", k4_file, "--delta", "3")
        assert code == 0
        assert out.strip() == "none"


class TestInternalError:
    @pytest.fixture
    def crashing_decompose(self, monkeypatch, k4_file):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_decompose", crash)
        return ["decompose", k4_file, "--delta", "2"]

    def test_main_exits_three_with_traceback(self, capsys, monkeypatch, crashing_decompose):
        monkeypatch.setattr("sys.argv", ["gorenstein", *crashing_decompose])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_run_still_raises(self, crashing_decompose):
        with pytest.raises(RuntimeError, match="boom"):
            cli.run(crashing_decompose)

    def test_main_keeps_input_error_code(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.argv", ["gorenstein", "check", str(tmp_path / "missing.txt")])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == cli.EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err


class TestCensusCommand:
    def test_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-v", "3", "--max-e", "3", "--max-mult", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 2

    @pytest.mark.parametrize("bounds", [(2, 1, 1), (4, 6, 3), (5, 8, 4)])
    def test_same_bytes_as_stdlib_json(self, capsys, bounds):
        # the streamed output against the stdlib encoder on the whole object
        b = CensusBounds(*bounds)
        records = []
        for g in enumerate_census(b):
            r = census_record(g)
            records.append(
                {
                    "canonical": [list(row) for row in g.multiplicity_matrix],
                    "vertices": g.n,
                    "edges": g.m,
                    "delta": r.delta,
                    "good_flats": r.good_flat_count,
                    "facets": r.facet_count,
                }
            )
        whole = {"bounds": dataclasses.asdict(b), "total": len(records), "graphs": records}
        argv = ["--max-v", str(b.max_vertices), "--max-e", str(b.max_edges)]
        code, out, _ = run_cli(capsys, "census", *argv, "--max-mult", str(b.max_multiplicity))
        assert code == 0
        assert out == json.dumps(whole, sort_keys=True, indent=2) + "\n"

    def test_each_record_written_before_the_next_is_made(self, monkeypatch):
        out = io.StringIO()
        written = []  # records on stdout at each census_record call

        def recording(graph):
            written.append(out.getvalue().count('"canonical"'))
            return census_record(graph)

        monkeypatch.setattr(cli, "census_record", recording)
        with contextlib.redirect_stdout(out):
            assert cli.run(["census", "--max-v", "4", "--max-e", "6", "--max-mult", "3"]) == 0
        assert written == list(range(18))
        assert json.loads(out.getvalue())["total"] == 18

    def test_closed_pipe_exits_141_without_traceback(self):
        # 610 kB of JSON, far more than a pipe holds, so the census still
        # has output to write when its reader leaves after 50 bytes
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gorenstein.cli", "census"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        assert head.startswith(b'{\n  "bounds": {')
        assert "Traceback" not in err and "Error" not in err


class TestVerifyCommand:
    def test_equivalence_clean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "equivalence",
            "--max-v", "3", "--max-e", "4", "--max-mult", "3",
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_classification_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "classification", "--delta", "3",
            "--max-v", "4", "--max-e", "6", "--max-mult", "3",
            "--table",
        )
        assert code == 0
        assert "mismatches: 0" in out


@pytest.mark.parametrize(
    "command", [["census"], ["verify", "equivalence"], ["verify", "classification", "--delta", "3"]]
)
def test_vertex_bound_past_the_edge_bound(capsys, command):
    # no 2-connected graph with at most 6 edges has more than 6 vertices,
    # so a vertex bound of 10**30 lists the graphs of a vertex bound of 6
    outputs = []
    for max_v in (6, 10**30):
        argv = ["--max-v", str(max_v), "--max-e", "6", "--max-mult", "3"]
        code, out, _ = run_cli(capsys, *command, *argv)
        assert code == 0
        data = json.loads(out)
        assert data.pop("bounds")["max_vertices"] == max_v
        outputs.append(data)
    assert outputs[0] == outputs[1] and outputs[0]["total"] > 0


@pytest.mark.parametrize(
    "command", [["census"], ["verify", "equivalence"], ["verify", "classification", "--delta", "3"]]
)
def test_vertex_cap_past_the_index_range(capsys, command):
    # N = min(max_v, max(max_e, 2)) = 10**30, and no list indexes N * N
    # cells: an input error before any output, not an OverflowError
    argv = ["--max-v", str(10**30), "--max-e", str(10**30), "--max-mult", "1"]
    code, out, err = run_cli(capsys, *command, *argv)
    assert (code, out) == (2, "") and err.startswith(f"error: vertex cap {10**30} too large")


census_bounds = st.integers(-2, 4) | st.just(10**30)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(census_bounds, census_bounds, census_bounds).filter(
        # edge and multiplicity bounds of 10**30 under a small vertex bound
        # leave a census too large to list, and no work limit refuses it
        # yet; beside a vertex bound of 10**30 the vertex cap refuses it
        lambda b: b[0] == 10**30 or min(b[1], b[2]) < 10**30
    ),
    st.integers(-3, 6) | st.sampled_from([10**30, -(10**30)]),
)
def test_census_and_verify_bounds_never_crash(bounds, delta):
    """census, verify equivalence and verify classification exit 0 or 2 at
    any bounds and dilation: a bound below the census's minimum or a
    dilation below 2 is an input error, never a traceback (exit 3), and
    no harness finds a mismatch (exit 1)."""
    argv = ["--max-v", str(bounds[0]), "--max-e", str(bounds[1]), "--max-mult", str(bounds[2])]
    for command in (
        ["census"],
        ["verify", "equivalence"],
        ["verify", "classification", "--delta", str(delta)],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(command + argv)
        assert code in (0, 2), command


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2)


# str with non-ASCII, quote, backslash and control characters mixed in
json_text = st.text() | st.lists(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", "\u2028", "\U0001f600", "a"])
).map("".join)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(json_text, children),
    max_leaves=20,
)


class TestDumps:
    @settings(deadline=None)
    @given(json_values)
    def test_same_bytes_as_json(self, obj):
        assert cli._dumps(obj) == json_dumps(obj)

    @pytest.mark.parametrize(
        "obj", [[], {}, (), [[]], {"a": {}}, [{}, [], ()], -1, True, None, "x"]
    )
    def test_empty_and_scalar(self, obj):
        assert cli._dumps(obj) == json_dumps(obj)

    @pytest.mark.parametrize("obj", [1.5, {1: 2}, {"a": {(1, 2): 3}}, [set()], b"x"])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            cli._dumps(obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{k4}"],
            ["check", "{path}"],
            ["check", "--oracle", "{k4}"],
            ["check", "--oracle", "{c5}"],
            ["decompose", "{k4}", "--delta", "2"],
            ["facets", "{k4}"],
            ["verify", "equivalence", "--max-v", "3", "--max-e", "4", "--max-mult", "3"],
            ["verify", "classification", "--delta", "3", "--max-v", "4", "--max-e", "6", "--max-mult", "3"],
        ],
    )
    def test_real_outputs(self, capsys, monkeypatch, tmp_path, argv):
        files = {}
        for name, text in (("k4", K4_TEXT), ("path", PATH3_TEXT), ("c5", C5_TEXT)):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        printed = []
        monkeypatch.setattr(cli, "_print_json", printed.append)
        assert cli.run([a.format(**files) for a in argv]) == 0
        (obj,) = printed
        assert cli._dumps(obj) == json_dumps(obj)
