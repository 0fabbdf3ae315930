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
    is_canonical_order,
)
import oracles
from gorenstein import census
from oracles import (
    enumerate_by_canonicalizing,
    enumerate_naive,
    enumerate_orderly_unpruned,
    is_two_connected_by_edge_dfs,
)

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def count_canonicity_tests(monkeypatch, module) -> list[int]:
    """Count the calls module makes to `is_canonical_order` from now on."""
    calls = [0]
    test = module.is_canonical_order

    def counting(*args):
        calls[0] += 1
        return test(*args)

    monkeypatch.setattr(module, "is_canonical_order", counting)
    return calls


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
        graphs = list(enumerate_census(CensusBounds(2, 5, 5)))
        assert len(graphs) == 5
        assert sorted(g.m for g in graphs) == [1, 2, 3, 4, 5]

    def test_three_vertices_simple(self):
        graphs = list(enumerate_census(CensusBounds(3, 3, 1)))
        assert [g.n for g in graphs] == [2, 3]
        assert graphs[1].is_isomorphic(cycle_graph(3))

    def test_four_vertices_simple(self):
        graphs = list(enumerate_census(CensusBounds(4, 6, 1)))
        four = [g for g in graphs if g.n == 4]
        assert len(four) == 3
        assert any(g.is_isomorphic(cycle_graph(4)) for g in four)
        assert any(g.is_isomorphic(DIAMOND) for g in four)
        assert any(g.is_isomorphic(complete_graph(4)) for g in four)

    def test_iterator_builds_each_graph_when_reached(self, monkeypatch):
        built = []
        make = census._graph
        monkeypatch.setattr(census, "_graph", lambda n, packed: built.append(n) or make(n, packed))
        graphs = enumerate_census(CensusBounds(4, 6, 3))
        assert iter(graphs) is graphs and len(graphs) == 18 and built == []
        first = next(graphs)
        assert (first.n, first.m, built) == (2, 1, [2])
        assert len(list(graphs)) == 17 and len(built) == 18

    def test_packed_as_tuples_past_a_byte(self):
        # an edge bound of 256 packs each matrix in a tuple, not in bytes;
        # at (4, _, 2) no graph has more than 12 edges, so the lists agree
        wide = list(enumerate_census(CensusBounds(4, 256, 2)))
        assert wide == list(enumerate_census(CensusBounds(4, 255, 2)))
        assert isinstance(census._matrices_on(3, CensusBounds(3, 256, 2))[0], tuple)

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
        a = list(enumerate_census(CensusBounds(4, 6, 3)))
        b = list(enumerate_census(CensusBounds(4, 6, 3)))
        assert [g.canonical_form for g in a] == [g.canonical_form for g in b]

    @pytest.mark.parametrize("bounds", [(4, 6, 3), (5, 8, 4)])
    def test_equals_canonicalizing_reference(self, bounds):
        # same Multigraphs (lex-max matrices, edges and ids), same order
        b = CensusBounds(*bounds)
        assert list(enumerate_census(b)) == enumerate_by_canonicalizing(b)

    # at each bound the transposition bound alone and the edge reserve
    # alone both save canonicity tests
    @pytest.mark.parametrize("bounds", [(6, 8, 4), (5, 10, 5), (6, 6, 2), (7, 8, 3)])
    def test_equals_unpruned_orderly_reference(self, bounds, monkeypatch):
        # same Multigraphs, same order, with fewer canonicity tests
        pruned = count_canonicity_tests(monkeypatch, census)
        unpruned = count_canonicity_tests(monkeypatch, oracles)
        b = CensusBounds(*bounds)
        assert list(enumerate_census(b)) == enumerate_orderly_unpruned(b)
        assert 0 < pruned[0] < unpruned[0]

    def test_canonicity_tests_at_benchmark_bounds(self, monkeypatch):
        # 6,445 tests without the transposition bound and the edge reserve,
        # 1,842 with them but with the leaf conditions tested after the
        # canonicity test; 654 now
        calls = count_canonicity_tests(monkeypatch, census)
        assert len(enumerate_census(CensusBounds(6, 8, 4))) == 134
        assert calls[0] <= 700

    def test_last_column_tested_only_after_leaf_conditions(self, monkeypatch):
        # a canonicity test on a complete matrix runs only when the matrix
        # has n edges, minimum degree 2 and is 2-connected
        test = census.is_canonical_order
        last = [0]

        def checking(mat, k):
            if k == len(mat):
                last[0] += 1
                degrees = [sum(row) for row in mat]
                assert sum(degrees) >= 2 * k and min(degrees) >= 2
                pairs = [
                    (i, j) for i in range(k) for j in range(i + 1, k) for _ in range(mat[i][j])
                ]
                assert is_two_connected_by_edge_dfs(Multigraph.from_edge_list(k, pairs))
            return test(mat, k)

        monkeypatch.setattr(census, "is_canonical_order", checking)
        assert len(enumerate_census(CensusBounds(6, 8, 4))) == 134
        assert last[0] > 0

    def test_representatives_are_canonical(self, census_full):
        # each representative is its class's lex-max matrix, and no two
        # representatives share a canonical form
        for g in census_full:
            assert is_canonical_order(g.multiplicity_matrix, g.n)
        assert len({g.canonical_form for g in census_full}) == len(census_full)

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
