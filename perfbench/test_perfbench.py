"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import spans
import streams
from run import CAL_REF_NS, SPEED_WINDOW_NS, _beta_cdf, _op_speeds, quantile
from gorenstein import Multigraph, is_gorenstein

HERE = Path(__file__).resolve().parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("g*.txt"))}


class TestStreams:
    @pytest.mark.parametrize("workload", ["decide", "oracle", "decompose"])
    def test_same_seed_same_bytes(self, tmp_path, workload):
        a = streams.build_stream(workload, 3, 1, tmp_path / "a")
        b = streams.build_stream(workload, 3, 1, tmp_path / "b")
        assert _files(tmp_path / "a") == _files(tmp_path / "b")
        assert [op["argv"][:1] for op in a] == [op["argv"][:1] for op in b]
        assert len(a) == len(streams.WORKLOADS[workload].slots) * (
            2 if streams.WORKLOADS[workload].perturbed else 1
        )

    def test_other_seed_relabels_the_same_classes(self, tmp_path):
        streams.build_stream("decide", 3, 1, tmp_path / "a")
        streams.build_stream("decide", 4, 1, tmp_path / "b")
        a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
        assert a != b
        for name in a:
            ga = Multigraph.parse(a[name].decode())
            gb = Multigraph.parse(b[name].decode())
            assert ga.is_isomorphic(gb)

    def test_manifest_matches_ops(self, tmp_path):
        ops = streams.build_stream("decompose", 5, 1, tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text()) == ops

    @pytest.mark.parametrize("delta,n", [(2, 6), (2, 8), (3, 5), (3, 8), (4, 6), (4, 8)])
    def test_glued_graph_is_gorenstein_at_its_delta(self, delta, n):
        g = streams.glued_graph(random.Random(f"{delta}:{n}"), delta, n)
        assert g.n == n
        assert is_gorenstein(g)[0] == delta

    def test_unreachable_size_rejected(self):
        with pytest.raises(ValueError):
            streams.glued_graph(random.Random(0), 2, 7)

    def test_parallel_edge_perturbation(self):
        g = streams.glued_graph(random.Random(1), 3, 7)
        p = streams.with_parallel_edge(random.Random(2), g)
        assert (p.n, p.m) == (g.n, g.m + 1)
        assert p.has_parallel_edges() or not g.has_parallel_edges()

    def test_oracle_stream_edge_range(self, tmp_path):
        for op in streams.build_stream("oracle", 1, 1, tmp_path):
            m = Multigraph.parse(Path(op["file"]).read_text()).m
            assert 12 <= m <= 20


def _columns(rows):
    """Span columns from (start, end, parent, name) rows in start order."""
    return {
        "start": array("q", [r[0] for r in rows]),
        "end": array("q", [r[1] for r in rows]),
        "parent": array("q", [r[2] for r in rows]),
        "name": array("q", [r[3] for r in rows]),
        "graph": array("q", [0] * len(rows)),
    }


class TestSelfTime:
    TREE = [
        (0, 100, -1, 0),  # root
        (10, 30, 0, 1),
        (15, 20, 1, 2),
        (40, 90, 0, 1),
        (50, 60, 3, 2),
        (70, 95, 3, 2),  # runs past its parent's end: clipped at 90
    ]

    def test_duration_minus_children(self):
        c = _columns(self.TREE)
        assert spans.self_times(c["start"], c["end"], c["parent"]) == [30, 15, 5, 20, 10, 25]

    def test_overlapping_children_count_once(self):
        c = _columns([(0, 100, -1, 0), (10, 30, 0, 1), (20, 40, 0, 1), (35, 38, 0, 1)])
        assert spans.self_times(c["start"], c["end"], c["parent"])[0] == 70

    def test_per_name_sums(self):
        c = _columns(self.TREE)
        got = spans.per_name(["root", "a", "b"], c)
        assert got == {
            "root": (1, pytest.approx(30e-9)),
            "a": (2, pytest.approx(35e-9)),
            "b": (3, pytest.approx(40e-9)),
        }

    def test_self_times_add_up_to_root_duration(self):
        c = _columns(self.TREE[:5])
        assert sum(spans.self_times(c["start"], c["end"], c["parent"])) == 100


class TestQuantile:
    def test_single_value(self):
        assert quantile([3.0], 0.9) == 3.0

    def test_symmetric_median(self):
        assert quantile([5.0, 1.0, 4.0, 2.0, 3.0], 0.5) == pytest.approx(3.0)

    def test_weights_sum_to_one(self):
        assert quantile([7.0] * 40, 0.9) == pytest.approx(7.0)

    def test_beta_cdf_known_values(self):
        assert _beta_cdf(0.5, 3.0, 3.0) == pytest.approx(0.5)
        assert _beta_cdf(0.3, 1.0, 1.0) == pytest.approx(0.3)
        assert _beta_cdf(0.3, 2.0, 1.0) == pytest.approx(0.09)  # x^2
        assert _beta_cdf(0.8, 1.0, 3.0) == pytest.approx(1 - 0.2**3)

    def test_tracks_the_quantile_of_uniform_ranks(self):
        values = [float(i) for i in range(1, 101)]
        assert quantile(values, 0.9) == pytest.approx(90.9, abs=0.5)


class TestOpSpeeds:
    def test_each_op_uses_the_samples_around_it(self):
        s = SPEED_WINDOW_NS
        run = {
            "samples": [[0, CAL_REF_NS], [s, CAL_REF_NS], [10 * s, CAL_REF_NS // 2]],
            "ops": [
                {"start_ns": 0, "end_ns": s},
                {"start_ns": 10 * s, "end_ns": 11 * s},
                {"start_ns": 5 * s, "end_ns": 6 * s},
            ],
        }
        whole = (1 + 1 + 2) / 3
        assert _op_speeds(run) == pytest.approx([1.0, 2.0, whole])

    def test_mean_of_speeds_not_of_times(self):
        run = {
            "samples": [[0, CAL_REF_NS], [1, 100 * CAL_REF_NS]],
            "ops": [{"start_ns": 0, "end_ns": 2}],
        }
        assert _op_speeds(run) == pytest.approx([0.505])


TRACED_SCRIPT = """
import sys
from pathlib import Path
from gorenstein import cli, cycle_graph
import spans
tracer = spans.Tracer()
tracer.install()
tracer.graph_id = 7
g = cycle_graph(5)
assert cli.is_gorenstein(g)[0] == 5
cli.matroid.good_flats(g)
tracer.dump(Path(sys.argv[1]))
"""


def test_tracer_wraps_imported_names_and_counts_cache_hits(tmp_path):
    prefix = tmp_path / "spans"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run(
        [sys.executable, "-c", TRACED_SCRIPT, str(prefix)], cwd=HERE, env=env, check=True
    )
    header, columns = spans.load(prefix)
    names = header["names"]
    by_name = spans.per_name(names, columns)
    assert by_name["criteria.is_gorenstein"][0] == 1
    assert by_name["criteria.check_spade"][0] == 1
    assert by_name["criteria.check_heart"][0] == 1
    assert by_name["matroid.good_flats"][0] == 2
    assert header["counts"]["matroid.good_flats.hits"] == 1
    assert set(columns["graph"]) == {7}
    span_names = [names[i] for i in columns["name"]]
    top = span_names.index("criteria.is_gorenstein")
    spade = span_names.index("criteria.check_spade")
    assert columns["parent"][top] == -1
    assert columns["parent"][spade] == top
    metrics = spans.layer_metrics(header, columns, 0)
    assert metrics["matroid.good_flats.cache_hit_ratio"] == 0.5
