import json

import pytest

from gorenstein import cli
from gorenstein.criteria import is_gorenstein, weight_function
from gorenstein.multigraph import Multigraph, complete_graph, cycle_graph

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
