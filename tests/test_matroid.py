import itertools
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import matroid
from gorenstein.census import CensusBounds, enumerate_census
from gorenstein.criteria import delta_candidates, weight_function
from gorenstein.multigraph import (
    Edge,
    Multigraph,
    _bits,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from gorenstein.polytope import build_polytope, gorenstein_oracle
from glued import glued_chain, grid, two_connected_multigraphs
from oracles import (
    blocks_by_edge_dfs,
    contract_subset,
    edge_kinds_by_edge_search,
    edge_kinds_by_minors,
    edges_within,
    good_flat_masks_by_subset_pass,
    is_matroid_connected,
    rank,
    records_as_sets,
    subset_pass,
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


def kinds_checked(g) -> dict:
    """`edge_kinds` of a 2-connected graph against the per-edge block
    search it replaced and the minor reference; returns the kinds.  The
    reference gives None only on K_2, as Tutte's theorem says."""
    kinds = matroid.edge_kinds(g)
    minors = edge_kinds_by_minors(g)
    assert kinds == edge_kinds_by_edge_search(g) == minors
    assert None not in minors.values() or (g.n, g.m) == (2, 1)
    return kinds


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

    def test_equals_minor_reference_on_census(self):
        graphs = list(enumerate_census(CensusBounds(7, 10, 4)))
        assert len(graphs) == 1232
        for g in graphs:
            kinds_checked(g)

    @settings(deadline=None)
    @given(st.one_of(multigraphs(), two_connected_multigraphs()))
    def test_equals_minor_reference_on_random_multigraphs(self, g):
        if g.is_two_connected():
            kinds_checked(g)
        else:
            with pytest.raises(ValueError, match="not 2-connected"):
                matroid.edge_kinds(g)

    @pytest.mark.parametrize("delta, n", [(2, 12), (3, 13), (4, 14)])
    def test_equals_minor_reference_on_glued_graphs(self, delta, n):
        g = glued_chain(delta, n)
        assert matroid.edge_kinds(g) == edge_kinds_by_minors(g)

    def test_cached_map_is_read_only(self):
        kinds = matroid.edge_kinds(cycle_graph(4))
        with pytest.raises(TypeError):
            kinds[0] = "del"
        assert matroid.edge_kinds(cycle_graph(4))[0] == "con"


class TestEdgeKindsEqualPerEdgeSearch:
    """One block search per vertex against one per edge."""

    def test_default_census(self, census_default):
        seen = Counter()
        for g in census_default:
            seen.update(kinds_checked(g).values())
        assert seen["del"] and seen["con"]

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_shuffled_glued_chains(self, delta):
        rng = random.Random(delta)
        for n in range(4, 21):
            chain = glued_chain(delta, n)
            if chain.n != n:  # no gluing reaches n vertices at this delta
                continue
            for g in (chain, chain.shuffled(rng)):
                kinds_checked(g)


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
            assert_mask_pairs_match_the_pass(g)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_mask_pairs_match_the_pass_on_glued_graphs(self, delta):
        rng = random.Random(delta)
        for n in range(4, 21):
            g = glued_chain(delta, n)
            assert_mask_pairs_match_the_pass(g)
            assert_mask_pairs_match_the_pass(g.shuffled(rng))

    @settings(deadline=None)
    @given(two_connected_multigraphs())
    def test_mask_pairs_match_the_pass_on_random_multigraphs(self, g):
        assert_mask_pairs_match_the_pass(g)

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph.from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            Multigraph.from_edge_list(3, [(0, 1), (1, 2)]),
            Multigraph.from_edge_list(4, [(0, 1), (0, 1), (2, 3)]),
            Multigraph(1, ()),
        ],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            matroid.good_flat_masks,
            matroid.edge_kinds,
            matroid.deletable_edges,
            delta_candidates,
            partial(weight_function, delta=3),
            build_polytope,
            gorenstein_oracle,
        ],
        ids=lambda f: getattr(f, "__name__", None) or f.func.__name__,
    )
    def test_mask_pairs_need_two_connected_graph(self, g, entry):
        with pytest.raises(ValueError, match="not 2-connected"):
            entry(g)


def wheel(k: int) -> Multigraph:
    """The wheel W_k: a hub, vertex k, joined to every vertex of C_k."""
    rim = [(i, (i + 1) % k) for i in range(k)]
    return Multigraph.from_edge_list(k + 1, rim + [(i, k) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Multigraph:
    return Multigraph.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def doubled(g: Multigraph) -> Multigraph:
    """g with a parallel copy of its first edge."""
    return Multigraph.from_edge_list(g.n, [(e.u, e.v) for e in g.edges + g.edges[:1]])


DENSE = (
    [complete_graph(n) for n in range(2, 9)]
    + [wheel(k) for k in range(4, 9)]
    + [complete_bipartite(3, 3), complete_bipartite(3, 4), grid(3, 3)]
)


class TestGoodFlatsEqualCombinations:
    """The good-flat search against the code-disjoint subset pass, on dense
    graphs: a good flat is a record with k(S) = 1."""

    @pytest.mark.parametrize("g", DENSE, ids=lambda g: f"n{g.n}m{g.m}")
    def test_built_shuffled_and_with_a_doubled_edge(self, g):
        rng = random.Random(g.m)
        for h in (g, g.shuffled(rng), doubled(g), doubled(g).shuffled(rng)):
            pairs = matroid.good_flat_masks(h)
            flats = {
                (frozenset(_bits(s)), frozenset(h.edges[i].eid for i in _bits(edges)))
                for s, edges in pairs
            }
            reference = {(s, edges) for s, edges, k in subset_pass_by_combinations(h) if k == 1}
            assert len(pairs) == len(flats)
            assert flats == reference

    @pytest.mark.parametrize("n", range(2, 14))
    def test_complete_graph_has_every_proper_subset_of_two_or_more(self, n):
        assert len(matroid.good_flat_masks(complete_graph(n))) == 2**n - n - 2

    @pytest.mark.parametrize("n", range(3, 41))
    def test_cycle_has_its_edges(self, n):
        flats = matroid.good_flat_masks(cycle_graph(n))
        arcs = [(1 << i) | (1 << (i + 1) % n) for i in range(n)]
        assert sorted(s for s, _ in flats) == sorted(arcs)

    def test_four_by_eight_grid(self):
        # the count the component-pruned search found before
        assert len(matroid.good_flat_masks(grid(4, 8))) == 2266


def assert_vertex_deleted_blocks_match(g: Multigraph) -> None:
    """Each G - v's blocks are those of the edge-list DFS on
    `induced_subgraph(V - v)`, with its vertices mapped back."""
    assert len(g.vertex_deleted_blocks) == g.n
    for v, blocks in enumerate(g.vertex_deleted_blocks):
        rest = [x for x in range(g.n) if x != v]
        found = blocks_by_edge_dfs(g.induced_subgraph(set(rest))) if rest else []
        assert len(blocks) == len(found)
        mapped_back = {frozenset(rest[x] for x in b) for b in found}
        assert {frozenset(_bits(b)) for b in blocks} == mapped_back


class TestVertexDeletedBlocks:
    def test_default_census(self, census_default):
        for g in census_default:
            assert_vertex_deleted_blocks_match(g)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_chains(self, delta):
        rng = random.Random(delta)
        for n in (8, 14, 20):
            g = glued_chain(delta, n)
            assert_vertex_deleted_blocks_match(g)
            assert_vertex_deleted_blocks_match(g.shuffled(rng))

    @settings(deadline=None)
    @given(multigraphs())
    def test_random_multigraphs(self, g):
        # disconnected graphs and isolated vertices included
        assert_vertex_deleted_blocks_match(g)


def assert_mask_pairs_match_the_pass(g: Multigraph) -> None:
    """`good_flat_masks` lists the k(S) = 1 records of the reference pass,
    each once, and sorts into the same `_by_size` order."""
    pairs = matroid.good_flat_masks(g)
    reference = good_flat_masks_by_subset_pass(g)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(reference)
    assert matroid._by_size(pairs) == matroid._by_size(reference)


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
                (s, edges_within(g, s), len(contract_subset(g, s).block_masks))
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
        records = subset_pass(g)
        assert all(type(x) is int for record in records for x in record)
        assert len({s for s, _, _ in records}) == len(records)

    @pytest.mark.parametrize("delta, n", [(2, 18), (3, 20), (4, 20)])
    def test_no_mask_repeats_on_glued_graphs(self, delta, n):
        records = subset_pass(glued_chain(delta, n))
        assert len({s for s, _, _ in records}) == len(records)

    def test_edge_mask_bits_are_edge_positions(self):
        # edge ids in reverse of their positions: bit i is graph.edges[i]
        pairs = [(0, 1), (1, 2), (0, 2), (0, 1)]
        g = Multigraph(3, tuple(Edge(9 - i, u, v) for i, (u, v) in enumerate(pairs)))
        by_vertices = {s: edges for s, edges, _ in subset_pass(g)}
        assert by_vertices == {0b011: 0b1001, 0b110: 0b0010, 0b101: 0b0100, 0b111: 0b1111}
        assert records_as_sets(g)[0] == (frozenset({0, 1}), frozenset({9, 6}), 1)
