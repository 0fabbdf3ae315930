import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import matroid
from gorenstein.multigraph import (
    Edge,
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
    records_as_sets,
    subset_pass_by_combinations,
    subset_pass_by_reverse_search,
    two_connected_mask,
)


@st.composite
def multigraphs(draw, max_n=9):
    """Loop-free multigraphs on 1..max_n vertices, disconnected ones included."""
    n = draw(st.integers(1, max_n))
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
        g = complete_graph(4)
        for flat in matroid.good_flats(g):
            ids = {e.eid for i, e in enumerate(g.edges) if flat.edge_mask >> i & 1}
            assert ids == edges_within(g, flat.subset)

    def test_edge_masks_and_mask_pairs_match_the_flats(self, census_full):
        for g in census_full:
            flats = matroid.good_flats(g)
            for flat in flats:
                ids = {e.eid for i, e in enumerate(g.edges) if flat.edge_mask >> i & 1}
                assert ids == edges_within(g, flat.subset)
            pairs = matroid.good_flat_masks(g)
            assert len(pairs) == len(flats)
            assert {
                (frozenset(v for v in range(g.n) if s >> v & 1), edges) for s, edges in pairs
            } == {(f.subset, f.edge_mask) for f in flats}


class TestTwoConnectedSubsets:
    def test_k4_has_eleven(self):
        assert len(matroid.two_connected_subsets(complete_graph(4))) == 11

    def test_includes_full_vertex_set(self):
        assert frozenset(range(4)) in matroid.two_connected_subsets(cycle_graph(4))

    def test_c2(self):
        assert matroid.two_connected_subsets(cycle_graph(2)) == (frozenset({0, 1}),)


def assert_two_connected_agrees_on_every_subset(g: Multigraph) -> int:
    """Compare the reference mask test `two_connected_mask`, which the
    reverse-search subset pass relies on, with `is_two_connected` on every
    nonempty subset.

    Returns how many disconnected subsets of three or more vertices were
    compared.  A pair must be adjacent on entry, so other pairs are skipped.
    """
    nbr = g.neighbour_masks
    disconnected = 0
    for mask in range(1, 1 << g.n):
        subset = frozenset(v for v in range(g.n) if mask >> v & 1)
        induced = g.induced_subgraph(subset)
        if len(subset) == 2 and not induced.m:
            continue
        if len(subset) >= 3 and not induced.is_connected():
            disconnected += 1
        assert two_connected_mask(mask, nbr) == induced.is_two_connected(), sorted(subset)
    return disconnected


class TestTwoConnectedMask:
    @settings(deadline=None)
    @given(multigraphs(max_n=8))
    def test_equals_induced_subgraph_on_random_multigraphs(self, g):
        assert_two_connected_agrees_on_every_subset(g)

    @pytest.mark.parametrize(
        "g",
        [
            # two triangles joined at vertex 2; two disjoint 4-cycles; a
            # 2-cycle beside a triangle
            Multigraph.from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            Multigraph.from_edge_list(
                8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
            ),
            Multigraph.from_edge_list(5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)]),
            glued_chain(3, 8),
        ],
    )
    def test_equals_induced_subgraph_with_disconnected_subsets(self, g):
        assert assert_two_connected_agrees_on_every_subset(g) > 0


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
            records = records_as_sets(g)
            assert [f.subset for f in matroid.good_flats(g)] == flats
            assert matroid.two_connected_subsets(g) == tuple(s for s, _, _ in records)
            assert list(records) == [
                (s, edges_within(g, s), len(contract_subset(g, s).blocks()))
                for s in two_connected
            ]

    def test_equals_combinations_reference_on_census(self, census_full):
        for g in census_full:
            assert records_as_sets(g) == subset_pass_by_combinations(g)

    @settings(deadline=None)
    @given(multigraphs())
    def test_equals_combinations_reference_on_random_multigraphs(self, g):
        assert records_as_sets(g) == subset_pass_by_combinations(g)

    @pytest.mark.parametrize("delta, n", [(2, 12), (3, 13), (4, 14)])
    def test_equals_combinations_reference_on_glued_graphs(self, delta, n):
        g = glued_chain(delta, n)
        assert g.n == n and g.is_two_connected()
        assert records_as_sets(g) == subset_pass_by_combinations(g)

    @settings(deadline=None)
    @given(multigraphs())
    def test_equals_reverse_search_reference_on_random_multigraphs(self, g):
        assert records_as_sets(g) == subset_pass_by_reverse_search(g)

    @pytest.mark.parametrize("delta, n", [(2, 18), (3, 20), (4, 20)])
    def test_equals_reverse_search_reference_on_glued_graphs(self, delta, n):
        # sizes where the 2^n combinations reference is too slow
        g = glued_chain(delta, n)
        assert g.n == n and g.is_two_connected()
        assert records_as_sets(g) == subset_pass_by_reverse_search(g)

    def test_equals_combinations_reference_on_c16(self):
        records = records_as_sets(cycle_graph(16))
        assert len(records) == 17  # the 16 edges and V
        assert records == subset_pass_by_combinations(cycle_graph(16))

    @settings(deadline=None)
    @given(multigraphs())
    def test_records_are_masks_without_repeats(self, g):
        records = matroid.subset_pass(g)
        assert all(type(x) is int for record in records for x in record)
        assert len({s for s, _, _ in records}) == len(records)

    @pytest.mark.parametrize("delta, n", [(2, 18), (3, 20), (4, 20)])
    def test_no_mask_repeats_on_glued_graphs(self, delta, n):
        records = matroid.subset_pass(glued_chain(delta, n))
        assert len({s for s, _, _ in records}) == len(records)

    def test_edge_mask_bits_are_edge_positions(self):
        # edge ids in reverse of their positions: bit i is graph.edges[i]
        pairs = [(0, 1), (1, 2), (0, 2), (0, 1)]
        g = Multigraph(3, tuple(Edge(9 - i, u, v) for i, (u, v) in enumerate(pairs)))
        by_vertices = {s: edges for s, edges, _ in matroid.subset_pass(g)}
        assert by_vertices == {0b011: 0b1001, 0b110: 0b0010, 0b101: 0b0100, 0b111: 0b1111}
        assert records_as_sets(g)[0] == (frozenset({0, 1}), frozenset({9, 6}), 1)
