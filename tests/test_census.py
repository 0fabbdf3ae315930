import itertools

import pytest
from hypothesis import given, settings

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
from glued import connected_multigraphs
from gorenstein import census
from oracles import (
    enumerate_by_canonicalizing,
    enumerate_naive,
    enumerate_orderly_unpruned,
    is_two_connected_by_edge_dfs,
    lex_max_graph,
)

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def graph_of(mat) -> Multigraph:
    """The multigraph with multiplicity matrix mat."""
    n = len(mat)
    return Multigraph.from_edge_list(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) for _ in range(mat[i][j])]
    )


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count the calls module makes to its global `name` from now on."""
    calls = [0]
    function = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_canonicity_tests(monkeypatch, module) -> list[int]:
    """Count the calls module makes to `is_canonical_order` from now on."""
    return count_calls(monkeypatch, module, "is_canonical_order")


def lex_max_prefixes(max_k: int, max_mult: int):
    """Every lex-max matrix on 2..max_k vertices with entries at most
    max_mult and every column nonzero: the canonical prefixes the census
    can reach, up to its edge bounds.  Built column by column, since
    every prefix of a lex-max matrix is lex-max."""
    mats = [[[0]]]
    for k in range(2, max_k + 1):
        grown = []
        for mat in mats:
            for column in itertools.product(range(max_mult + 1), repeat=k - 1):
                if any(column):
                    new = [row + [c] for row, c in zip(mat, column)] + [[*column, 0]]
                    if is_canonical_order(new, k):
                        grown.append(new)
        yield from grown
        mats = grown


def leaf_rule_checked(mat, k: int) -> None:
    """The leaf-block rule of `census._lex_max_matrices` against the edge-DFS
    2-connectivity of G' + z, for every nonzero set N of z's neighbours,
    G' the connected graph on vertices 0..k-1 of mat."""
    interiors = census._leaf_interiors(mat, k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) for _ in range(mat[i][j])]
    for rows in range(1, 1 << k):
        z = [(i, k) for i in range(k) if rows >> i & 1]
        expected = is_two_connected_by_edge_dfs(Multigraph.from_edge_list(k + 1, pairs + z))
        rule = rows.bit_count() >= 2 and all(rows & inner for inner in interiors)
        assert rule == expected, (mat, k, bin(rows))


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
        monkeypatch.setattr(
            census, "_graph", lambda n, cells, packed: built.append(n) or make(n, cells, packed)
        )
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
        matrices = census._lex_max_matrices(CensusBounds(3, 256, 2))
        assert [n for n, _ in matrices] == [2, 3]
        assert all(isinstance(p, tuple) for _, packed in matrices for p in packed)

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

    # at the first five bounds the transposition bound alone and the
    # two-edge reserve for one more vertex alone both save canonicity
    # tests; (7, 9, 4), 400 classes, holds the leaf-block prune on 7
    # vertices in about a second; at (8, 8, 2), 100 classes, the edge
    # bound binds before the vertex bound: on 8 vertices only the 8-cycle
    # fits;
    # (2, 3, 5) is bananas alone, and at (3, 2, 1) the edge bound leaves
    # no room for a third vertex
    @pytest.mark.parametrize(
        "bounds", [(6, 8, 4), (5, 10, 5), (6, 6, 2), (7, 9, 4), (8, 8, 2), (2, 3, 5), (3, 2, 1)]
    )
    def test_equals_unpruned_orderly_reference(self, bounds, monkeypatch):
        # same Multigraphs, same order, with fewer canonicity tests
        # wherever the vertex bound allows a third vertex (the reference
        # builds bananas without a test)
        pruned = count_canonicity_tests(monkeypatch, census)
        unpruned = count_canonicity_tests(monkeypatch, oracles)
        b = CensusBounds(*bounds)
        assert list(enumerate_census(b)) == enumerate_orderly_unpruned(b)
        if b.max_vertices > 2:
            assert 0 < pruned[0] < unpruned[0]

    def test_canonicity_tests_at_benchmark_bounds(self, monkeypatch):
        # 6,445 tests without the transposition bound and the edge reserve,
        # 1,842 with them but with the leaf conditions tested after the
        # canonicity test, 654 with one search per vertex count, each
        # testing again the prefixes the smaller ones tested; one search
        # tests each of the 527 distinct (k, prefix) pairs once
        calls = count_canonicity_tests(monkeypatch, census)
        assert len(enumerate_census(CensusBounds(6, 8, 4))) == 134
        assert calls[0] <= 527

    def test_each_prefix_tested_once(self, monkeypatch):
        test = census.is_canonical_order
        seen = []

        def recording(mat, k):
            seen.append((k, tuple(tuple(row[:k]) for row in mat[:k])))
            return test(mat, k)

        monkeypatch.setattr(census, "is_canonical_order", recording)
        assert len(enumerate_census(CensusBounds(6, 8, 4))) == 134
        assert seen and len(set(seen)) == len(seen)

    def test_block_searches_at_benchmark_bounds(self, monkeypatch):
        # 681 searches while every complete matrix ran its own, 107 with
        # one per canonical prefix that grows
        calls = count_calls(monkeypatch, census, "_blocks")
        assert len(enumerate_census(CensusBounds(6, 8, 4))) == 134
        assert calls[0] <= 107

    def test_leaf_rule_on_lex_max_prefixes(self):
        count = 0
        for mat in lex_max_prefixes(5, 2):
            leaf_rule_checked(mat, len(mat))
            count += 1
        assert count == 774

    @settings(max_examples=150, deadline=None)
    @given(connected_multigraphs(max_n=7).filter(lambda g: g.n >= 2))
    def test_leaf_rule_on_connected_multigraphs(self, g):
        leaf_rule_checked(g.multiplicity_matrix, g.n)

    def test_last_column_tested_only_after_leaf_conditions(self, monkeypatch):
        # a canonicity test on a matrix that cannot grow (it has the
        # search's last vertex, or fewer than two edges are left) runs only
        # when the matrix is 2-connected, hence has k edges and minimum
        # degree 2; the rows past k are still zero
        bounds = CensusBounds(6, 8, 4)
        test = census.is_canonical_order
        last = [0]

        def checking(mat, k):
            degrees = [sum(row) for row in mat[:k]]
            if k == len(mat) or sum(degrees) // 2 + 2 > bounds.max_edges:
                last[0] += 1
                assert k == 2 or sum(degrees) >= 2 * k and min(degrees) >= 2
                pairs = [
                    (i, j) for i in range(k) for j in range(i + 1, k) for _ in range(mat[i][j])
                ]
                assert is_two_connected_by_edge_dfs(Multigraph.from_edge_list(k, pairs))
            return test(mat, k)

        monkeypatch.setattr(census, "is_canonical_order", checking)
        assert len(enumerate_census(bounds)) == 134
        assert last[0] > 0

    def test_representatives_are_canonical(self, census_full):
        # each representative is its class's lex-max matrix, and no two
        # representatives share a canonical form
        for g in census_full:
            assert is_canonical_order(g.multiplicity_matrix, g.n)
        assert len({g.canonical_form for g in census_full}) == len(census_full)

    def test_known_total_at_default_bounds(self):
        assert len(enumerate_census(CensusBounds())) == 983

    def test_naive_cross_check(self):
        # the naive classes, each relabelled lex-max, are the census's
        # matrices: one for one, with none missing and none twice
        for bounds in (CensusBounds(4, 6, 3), CensusBounds(5, 6, 3)):
            naive = [
                lex_max_graph(graph_of(mat)).multiplicity_matrix
                for mat in enumerate_naive(bounds)
            ]
            census_matrices = [g.multiplicity_matrix for g in enumerate_census(bounds)]
            assert sorted(naive) == sorted(census_matrices)


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
