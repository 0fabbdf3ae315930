import pytest

from gorenstein.census import (
    CensusBounds,
    census_record,
    enumerate_census,
    format_report,
    verify_classification,
    verify_equivalence,
)
from gorenstein.criteria import check_spade, weight_function
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from oracles import enumerate_by_canonicalizing, enumerate_naive

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


class TestBounds:
    def test_defaults(self):
        b = CensusBounds()
        assert (b.max_vertices, b.max_edges, b.max_multiplicity) == (6, 10, 5)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            CensusBounds(1, 1, 1)


class TestEnumerate:
    def test_two_vertex_family(self):
        # K_2 counts as 2-connected, so bananas with 1..5 edges: 5 graphs
        graphs = enumerate_census(CensusBounds(2, 5, 5))
        assert len(graphs) == 5
        assert sorted(g.m for g in graphs) == [1, 2, 3, 4, 5]

    def test_three_vertices_simple(self):
        graphs = enumerate_census(CensusBounds(3, 3, 1))
        assert [g.n for g in graphs] == [2, 3]
        assert graphs[1].is_isomorphic(cycle_graph(3))

    def test_four_vertices_simple(self):
        graphs = enumerate_census(CensusBounds(4, 6, 1))
        four = [g for g in graphs if g.n == 4]
        assert len(four) == 3
        assert any(g.is_isomorphic(cycle_graph(4)) for g in four)
        assert any(g.is_isomorphic(DIAMOND) for g in four)
        assert any(g.is_isomorphic(complete_graph(4)) for g in four)

    def test_duplicate_free(self, census_full):
        forms = [g.canonical_form for g in census_full]
        assert len(forms) == len(set(forms))

    def test_all_two_connected_within_bounds(self, census_full):
        for g in census_full:
            assert g.is_two_connected()
            assert g.n <= 5 and g.m <= 8
            assert max(max(row) for row in g.multiplicity_matrix) <= 4

    def test_known_totals(self, census_small, census_full):
        assert len(census_small) == 18
        assert len(census_full) == 106

    def test_deterministic(self):
        a = enumerate_census(CensusBounds(4, 6, 3))
        b = enumerate_census(CensusBounds(4, 6, 3))
        assert [g.canonical_form for g in a] == [g.canonical_form for g in b]

    @pytest.mark.parametrize("bounds", [(4, 6, 3), (5, 8, 4)])
    def test_equals_canonicalizing_reference(self, bounds):
        # same Multigraphs (canonical edges and ids), same order
        b = CensusBounds(*bounds)
        assert enumerate_census(b) == enumerate_by_canonicalizing(b)

    def test_representatives_are_canonical(self, census_full):
        for g in census_full:
            assert g == g.canonicalize()[0]

    def test_known_total_at_default_bounds(self):
        assert len(enumerate_census(CensusBounds())) == 983

    def test_naive_cross_check(self, census_small):
        naive = enumerate_naive(CensusBounds(4, 6, 3))
        assert len(naive) == len(census_small)
        # same multigraphs: compare isomorphism-invariant signatures
        def signature(mat):
            n = len(mat)
            degrees = sorted(sum(row) for row in mat)
            mults = sorted(x for row in mat for x in row)
            return (n, sum(degrees) // 2, tuple(degrees), tuple(mults))

        assert sorted(signature(g.multiplicity_matrix) for g in census_small) == sorted(
            signature(m) for m in naive
        )


class TestCensusRecord:
    def test_k4(self):
        rec = census_record(complete_graph(4))
        assert rec.delta == 2
        assert rec.good_flat_count == 10
        assert rec.facet_count == 16

    def test_non_gorenstein(self):
        rec = census_record(cycle_graph(2).canonicalize()[0])
        assert rec.delta == 2
        rec2 = census_record(
            Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        )
        assert rec2.delta == 2  # that is K_4 again, sanity
        g = Multigraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        assert census_record(g).delta is None


class TestVerifyEquivalence:
    def test_small_census_clean(self):
        report = verify_equivalence(CensusBounds(4, 6, 3))
        assert report["total"] == 18
        assert report["mismatches"] == []
        assert len(report["gorenstein"]) == 11

    def test_banana_and_cycle_families_present(self):
        report = verify_equivalence(CensusBounds(3, 4, 4))
        assert report["mismatches"] == []
        entries = {
            (len(e["canonical"]), sum(map(sum, e["canonical"])) // 2): e["delta"]
            for e in report["gorenstein"]
        }
        assert entries[(2, 2)] == 2  # C_2
        assert entries[(2, 3)] == 3  # two vertices, three edges
        assert entries[(2, 4)] == 4
        assert entries[(3, 3)] == 3  # C_3

    def test_traces_replayable(self):
        from gorenstein.constructions import replay, trace_from_json

        report = verify_equivalence(CensusBounds(3, 4, 4))
        for entry in report["gorenstein"]:
            assert entry["trace"] is not None
            rebuilt = replay(trace_from_json(entry["trace"]))
            assert [list(r) for r in rebuilt.canonical_form] == entry["canonical"]


class TestVerifyClassification:
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_small_census_clean(self, delta):
        report = verify_classification(delta, CensusBounds(4, 6, 3))
        assert report["mismatches"] == []

    def test_delta2_gorenstein_are_c2_plus_simple(self):
        # mainThm2 consequence: at delta = 2, everything except C_2 is simple
        report = verify_classification(2, CensusBounds(5, 8, 4))
        assert report["mismatches"] == []
        c2 = cycle_graph(2).canonical_form
        for entry in report["gorenstein"]:
            mat = tuple(tuple(r) for r in entry["canonical"])
            if mat != c2:
                assert max(max(row) for row in mat) == 1

    def test_delta2_parallel_implies_c2(self, census_full):
        for g in census_full:
            w = weight_function(g, 2)
            if w is not None and check_spade(g, w) and g.has_parallel_edges():
                assert g.is_isomorphic(cycle_graph(2))

    def test_diamond_appears_at_three(self):
        report = verify_classification(3, CensusBounds(4, 6, 1))
        mats = [tuple(tuple(r) for r in e["canonical"]) for e in report["gorenstein"]]
        assert DIAMOND.canonical_form in mats
        entry = next(
            e
            for e in report["gorenstein"]
            if tuple(tuple(r) for r in e["canonical"]) == DIAMOND.canonical_form
        )
        assert len(entry["trace"]["steps"]) >= 1

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            verify_classification(1, CensusBounds(3, 3, 1))


class TestFormatReport:
    def test_mentions_counts(self):
        report = verify_equivalence(CensusBounds(3, 3, 1))
        text = format_report(report)
        assert "mismatches: 0" in text
        assert "census: 2 graphs" in text
