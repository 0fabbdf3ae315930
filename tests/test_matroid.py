import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import matroid
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from glued import glued_chain
from oracles import (
    contract_subset,
    edge_kinds_by_minors,
    edges_within,
    is_matroid_connected,
    rank,
    subset_pass_by_combinations,
)


@st.composite
def multigraphs(draw):
    """Loop-free multigraphs on 1..9 vertices, disconnected ones included."""
    n = draw(st.integers(1, 9))
    offsets = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)))
    pairs = draw(st.lists(offsets, max_size=16 if n > 1 else 0))
    return Multigraph.from_edge_list(n, [(u, (u + d) % n) for u, d in pairs])


class TestRank:
    def test_spanning_set(self):
        g = complete_graph(4)
        assert rank(g, {e.eid for e in g.edges}) == 3

    def test_circuit(self):
        g = cycle_graph(4)
        assert rank(g, {0, 1, 2, 3}) == 3

    def test_parallel_pair(self):
        assert rank(banana_graph(3), {0, 1}) == 1

    def test_empty(self):
        assert rank(cycle_graph(3), frozenset()) == 0


class TestMatroidConnected:
    def test_single_edge(self):
        assert is_matroid_connected(complete_graph(2))

    def test_cycle(self):
        assert is_matroid_connected(cycle_graph(4))

    def test_two_blocks_disconnected(self):
        g = Multigraph.from_edge_list(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        assert not is_matroid_connected(g)

    def test_agrees_with_two_connectivity_on_census(self, census_small):
        # for loop-free graphs with >= 2 edges the two notions coincide
        for g in census_small:
            if g.m >= 2:
                assert is_matroid_connected(g) == g.is_two_connected()


class TestDeletableEdges:
    def test_k4_all_deletable(self):
        assert matroid.deletable_edges(complete_graph(4)) == frozenset(range(6))

    def test_cycle_none_deletable(self):
        assert matroid.deletable_edges(cycle_graph(4)) == frozenset()

    def test_banana_all_deletable(self):
        assert matroid.deletable_edges(banana_graph(3)) == frozenset(range(3))

    def test_requires_two_connected(self):
        with pytest.raises(ValueError):
            matroid.deletable_edges(Multigraph.from_edge_list(3, [(0, 1), (1, 2)]))


class TestEdgeKinds:
    def test_cycle_edges_are_contraction_only(self):
        kinds = matroid.edge_kinds(cycle_graph(4))
        assert set(kinds.values()) == {"con"}

    def test_tie_goes_to_deletion(self):
        # triangle with every edge doubled: deletion keeps 2-connectivity
        g = Multigraph.from_edge_list(3, [(0, 1)] * 2 + [(1, 2)] * 2 + [(0, 2)] * 2)
        assert set(matroid.edge_kinds(g).values()) == {"del"}

    def test_c2_edges_deletable_via_k2_convention(self):
        assert set(matroid.edge_kinds(cycle_graph(2)).values()) == {"del"}

    def test_k2_edge_has_no_kind(self):
        assert matroid.edge_kinds(complete_graph(2)) == {0: None}

    def test_equals_minor_reference_on_census(self, census_full):
        for g in census_full:
            assert matroid.edge_kinds(g) == edge_kinds_by_minors(g)

    @settings(deadline=None)
    @given(multigraphs())
    def test_equals_minor_reference_on_random_multigraphs(self, g):
        # not only 2-connected graphs: path_gluing reads kinds before any check
        assert matroid.edge_kinds(g) == edge_kinds_by_minors(g)

    @pytest.mark.parametrize("delta, n", [(2, 12), (3, 13), (4, 14)])
    def test_equals_minor_reference_on_glued_graphs(self, delta, n):
        g = glued_chain(delta, n)
        assert matroid.edge_kinds(g) == edge_kinds_by_minors(g)

    def test_cached_map_is_read_only(self):
        kinds = matroid.edge_kinds(cycle_graph(4))
        with pytest.raises(TypeError):
            kinds[0] = "del"
        assert matroid.edge_kinds(cycle_graph(4))[0] == "con"


class TestGoodFlats:
    def test_k4_count(self):
        # 6 adjacent pairs + 4 triangles (geometry check: all are facets)
        flats = matroid.good_flats(complete_graph(4))
        assert len(flats) == 10
        sizes = sorted(len(f.subset) for f in flats)
        assert sizes == [2] * 6 + [3] * 4

    def test_cycle_flats_are_arcs(self):
        flats = matroid.good_flats(cycle_graph(4))
        subsets = {frozenset(f.subset) for f in flats}
        # 3-vertex arcs induce paths (not 2-connected), so only the
        # adjacent pairs qualify
        arcs = {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
        }
        assert subsets == arcs

    def test_banana_has_none(self):
        assert matroid.good_flats(banana_graph(4)) == ()

    def test_induced_edges_recorded(self):
        for flat in matroid.good_flats(complete_graph(4)):
            g = complete_graph(4)
            assert flat.induced_edge_ids == edges_within(g, flat.subset)


class TestTwoConnectedSubsets:
    def test_k4_has_eleven(self):
        assert len(matroid.two_connected_subsets(complete_graph(4))) == 11

    def test_includes_full_vertex_set(self):
        assert frozenset(range(4)) in matroid.two_connected_subsets(cycle_graph(4))

    def test_c2(self):
        assert matroid.two_connected_subsets(cycle_graph(2)) == (frozenset({0, 1}),)


class TestSubsetPass:
    def test_matches_direct_definitions_on_census(self, census_full):
        for g in census_full:
            subsets = [
                frozenset(c)
                for size in range(2, g.n + 1)
                for c in itertools.combinations(range(g.n), size)
            ]
            two_connected = [s for s in subsets if g.induced_subgraph(s).is_two_connected()]
            flats = [
                s
                for s in two_connected
                if len(s) < g.n and contract_subset(g, s).is_two_connected()
            ]
            records = matroid.subset_pass(g)
            assert [f.subset for f in matroid.good_flats(g)] == flats
            assert matroid.two_connected_subsets(g) == tuple(s for s, _, _ in records)
            assert list(records) == [
                (s, edges_within(g, s), len(contract_subset(g, s).blocks()))
                for s in two_connected
            ]

    def test_equals_combinations_reference_on_census(self, census_full):
        for g in census_full:
            assert matroid.subset_pass(g) == subset_pass_by_combinations(g)

    @settings(deadline=None)
    @given(multigraphs())
    def test_equals_combinations_reference_on_random_multigraphs(self, g):
        assert matroid.subset_pass(g) == subset_pass_by_combinations(g)

    @pytest.mark.parametrize("delta, n", [(2, 12), (3, 13), (4, 14)])
    def test_equals_combinations_reference_on_glued_graphs(self, delta, n):
        g = glued_chain(delta, n)
        assert g.n == n and g.is_two_connected()
        assert matroid.subset_pass(g) == subset_pass_by_combinations(g)

    def test_equals_combinations_reference_on_c16(self):
        records = matroid.subset_pass(cycle_graph(16))
        assert len(records) == 17  # the 16 edges and V
        assert records == subset_pass_by_combinations(cycle_graph(16))
