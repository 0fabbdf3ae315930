import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein.multigraph import (
    Edge,
    GraphParseError,
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
    is_canonical_order,
)
from oracles import (
    contract_edge,
    contract_edge_with_map,
    contract_subset,
    delete_edge,
    edges_within,
    spanning_tree_count,
)


def small_multigraphs():
    """Random connected-ish multigraphs on 2..6 vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 6))
        m = draw(st.integers(1, 9))
        pairs = [
            draw(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] != t[1]
                )
            )
            for _ in range(m)
        ]
        return Multigraph.from_edge_list(n, pairs)

    return build()


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            Multigraph(2, (Edge(0, 1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Multigraph.from_edge_list(2, [(0, 2)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Multigraph(2, (Edge(0, 0, 1), Edge(0, 0, 1)))

    def test_parallel_edges_distinct(self):
        g = banana_graph(3)
        assert g.m == 3
        assert g.parallel_class(0) == (0, 1, 2)
        assert g.has_parallel_edges()

    def test_cycle_graph_length_two_is_parallel_pair(self):
        c2 = cycle_graph(2)
        assert (c2.n, c2.m) == (2, 2)
        assert c2.has_parallel_edges()


class TestParse:
    def test_round_trip(self):
        text = "4 5\n0 1\n1 2\n2 3\n0 3\n0 2\n"
        g = Multigraph.parse(text)
        assert Multigraph.parse(g.format()).is_isomorphic(g)

    def test_parallel_edges_round_trip(self):
        g = Multigraph.parse("2 3\n0 1\n0 1\n0 1\n")
        assert g.m == 3

    def test_error_position_bad_token(self):
        with pytest.raises(GraphParseError) as exc:
            Multigraph.parse("2 1\n0 x\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_error_position_repeated_sign(self):
        # the bad '-' is the second token; its first occurrence is in "-1"
        with pytest.raises(GraphParseError, match="not an integer: '-'") as exc:
            Multigraph.parse("3 1\n-1 -\n")
        assert (exc.value.line, exc.value.column) == (2, 4)

    def test_error_missing_edges(self):
        with pytest.raises(GraphParseError):
            Multigraph.parse("3 2\n0 1\n")

    def test_error_loop(self):
        with pytest.raises(GraphParseError, match="loop"):
            Multigraph.parse("2 1\n1 1\n")

    def test_error_trailing_text(self):
        with pytest.raises(GraphParseError, match="after 1 edge lines") as exc:
            Multigraph.parse("2 1\n0 1\n\n  garbage here\n")
        assert (exc.value.line, exc.value.column) == (4, 3)

    def test_trailing_blank_lines_allowed(self):
        assert Multigraph.parse("2 1\n0 1\n\n   \n").m == 1

    def test_error_empty(self):
        with pytest.raises(GraphParseError):
            Multigraph.parse("")

    @given(small_multigraphs())
    @settings(max_examples=50, deadline=None)
    def test_format_parse_round_trip(self, g):
        assert Multigraph.parse(g.format()).multiplicity_matrix == g.multiplicity_matrix


class TestMinors:
    def test_delete_edge(self):
        g = delete_edge(complete_graph(4), 0)
        assert g.m == 5
        assert g.n == 4

    def test_contract_edge_drops_parallel_loops(self):
        g = contract_edge(banana_graph(3), 0)
        assert (g.n, g.m) == (1, 0)

    def test_contract_edge_renumbers_densely(self):
        g = cycle_graph(4)
        h, renum = contract_edge_with_map(g, 0)
        assert h.n == 3
        assert sorted(set(renum.values())) == [0, 1, 2]

    def test_contract_subset_equals_iterated_contraction(self):
        g = complete_graph(4)
        by_subset = contract_subset(g, {0, 1, 2})
        h = g
        for _ in range(2):
            eid = next(
                e.eid for e in h.edges if e.u <= 1 and e.v <= 2 and e.v - e.u >= 1
            )
            h = contract_edge(h, eid)
        assert by_subset.multiplicity_matrix == h.multiplicity_matrix

    def test_induced_subgraph_keeps_edge_ids(self):
        g = complete_graph(4)
        sub = g.induced_subgraph({1, 2, 3})
        assert set(e.eid for e in sub.edges) == edges_within(g, {1, 2, 3})
        assert sub.n == 3

    def test_edges_within(self):
        g = cycle_graph(4)
        assert edges_within(g, {0, 1, 2}) == {0, 1}


class TestConnectivity:
    def test_k2_is_two_connected(self):
        assert complete_graph(2).is_two_connected()

    def test_c2_is_two_connected(self):
        assert cycle_graph(2).is_two_connected()

    def test_single_vertex_is_not(self):
        assert not Multigraph(1, ()).is_two_connected()

    def test_path_is_not(self):
        g = Multigraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert not g.is_two_connected()

    def test_blocks_of_path(self):
        g = Multigraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert set(g.blocks()) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_blocks_parallel_edges_single_block(self):
        assert banana_graph(4).blocks() == [frozenset({0, 1})]

    def test_two_triangles_at_cut_vertex(self):
        g = Multigraph.from_edge_list(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        assert len(g.blocks()) == 2
        assert not g.is_two_connected()

    def test_disconnected(self):
        g = Multigraph.from_edge_list(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        assert not g.is_two_connected()


class TestSpanningTrees:
    def test_k4_has_sixteen(self):
        assert len(complete_graph(4).spanning_trees()) == 16
        assert spanning_tree_count(complete_graph(4)) == 16

    def test_parallel_edges_count_separately(self):
        assert len(banana_graph(3).spanning_trees()) == 3

    def test_cycle(self):
        assert spanning_tree_count(cycle_graph(5)) == 5

    @given(small_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_matrix_tree_agrees_with_enumeration(self, g):
        if not g.is_connected():
            return
        assert len(g.spanning_trees()) == spanning_tree_count(g)


class TestCanonicalForm:
    def test_isomorphic_relabelings_agree(self):
        g = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        rng = random.Random(7)
        for _ in range(20):
            assert g.shuffled(rng).canonical_form == g.canonical_form

    def test_distinguishes_multiplicity(self):
        a = Multigraph.from_edge_list(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
        b = Multigraph.from_edge_list(3, [(0, 1), (1, 2), (1, 2), (0, 2)])
        assert a.canonical_form == b.canonical_form
        c = Multigraph.from_edge_list(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
        assert a.canonical_form != c.canonical_form

    def test_canonicalize_maps_are_consistent(self):
        g = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        canon, vperm, emap = g.canonicalize()
        assert g.permuted(vperm).multiplicity_matrix == canon.multiplicity_matrix
        for e in g.edges:
            ce = canon.edge(emap[e.eid])
            assert {ce.u, ce.v} == {vperm[e.u], vperm[e.v]}

    @given(small_multigraphs(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_permutation(self, g, seed):
        assert g.shuffled(random.Random(seed)).canonical_form == g.canonical_form

    @given(small_multigraphs(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_canonicity_test(self, g, seed):
        canon = g.canonicalize()[0].multiplicity_matrix
        # every prefix of a canonical matrix is canonical: orderly generation
        assert all(is_canonical_order(canon, k) for k in range(1, g.n + 1))
        mat = g.shuffled(random.Random(seed)).multiplicity_matrix
        assert is_canonical_order(mat, g.n) == (mat == canon)

        def sequence(p):
            return tuple(mat[p[i]][p[j]] for j in range(g.n) for i in range(j))

        identity = sequence(range(g.n))
        brute = all(identity >= sequence(p) for p in itertools.permutations(range(g.n)))
        assert is_canonical_order(mat, g.n) == brute

    def test_non_isomorphic_same_degree_sequence(self):
        # two simple graphs on 6 vertices, both 2-regular: C_6 vs 2 x C_3
        c6 = cycle_graph(6)
        two_c3 = Multigraph.from_edge_list(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert c6.canonical_form != two_c3.canonical_form
