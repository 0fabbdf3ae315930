import itertools
import random
import tracemalloc

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
    _bits,
    is_canonical_order,
)
from glued import connected_multigraphs, glued_chain, theta_graph
from oracles import (
    blocks_by_edge_dfs,
    canonical_ordering_by_columns,
    contract_edge,
    contract_edge_with_map,
    contract_subset,
    delete_edge,
    edges_within,
    is_connected_by_edge_search,
    is_two_connected_by_edge_dfs,
    lex_max_graph,
    parallel_class,
    spanning_tree_count,
    spanning_trees_by_subsets,
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


def complete_bipartite_2(n: int) -> Multigraph:
    """K_{2,n}: vertices 0 and 1 each joined to 2..n+1."""
    return Multigraph.from_edge_list(n + 2, [(p, q) for p in (0, 1) for q in range(2, n + 2)])


SYMMETRIC_FAMILIES = (
    [complete_graph(n) for n in range(1, 8)]
    + [cycle_graph(n) for n in range(2, 10)]
    + [banana_graph(k) for k in range(1, 6)]
    + [complete_bipartite_2(n) for n in range(1, 7)]
    + [
        theta_graph(*lengths)
        for lengths in [(1, 2, 2), (2, 2, 2), (1, 3, 3), (2, 2, 3), (3, 3, 3), (2, 2, 2, 2)]
    ]
    + [glued_chain(delta, n) for delta, n in [(2, 8), (3, 7), (3, 9), (4, 10)]]
)


def assert_search_equals_column_reference(mat) -> None:
    """The census's canonicity test agrees with the reference on every
    identity prefix: canonical iff no ordering beats the identity."""
    n = len(mat)
    for k in range(1, n + 1):
        identity = tuple(mat[i][j] for j in range(k) for i in range(j))
        assert is_canonical_order(mat, k) == (
            canonical_ordering_by_columns(mat, k, identity) is None
        )


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
        assert parallel_class(g, 0) == (0, 1, 2)
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


@st.composite
def multigraphs_in_parts(draw, max_n=9):
    """Multigraphs on 0..max_n vertices whose edges stay inside up to three
    vertex ranges, relabelled at random: isolated vertices, several
    components and 2-connected parts all occur."""
    n = draw(st.integers(0, max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    pairs = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if hi - lo >= 2:
            ends = st.lists(st.integers(lo, hi - 1), min_size=2, max_size=2, unique=True)
            pairs += draw(st.lists(ends, max_size=8))
    return Multigraph.from_edge_list(n, pairs).permuted(draw(st.permutations(range(n))))


def block_sets(g):
    return [frozenset(_bits(b)) for b in g.block_masks]


def assert_connectivity(g, blocks, connected, two_connected):
    """The mask kernel and the edge-list references both give these answers."""
    for found in (block_sets(g), blocks_by_edge_dfs(g)):
        assert sorted(found, key=sorted) == sorted(blocks, key=sorted)
    assert g.is_connected() == is_connected_by_edge_search(g) == connected
    assert g.is_two_connected() == is_two_connected_by_edge_dfs(g) == two_connected


# two triangles joined by the bridge 2-3
BRIDGED = Multigraph.from_edge_list(
    6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
)


class TestConnectivity:
    def test_k2_is_two_connected(self):
        assert_connectivity(complete_graph(2), [{0, 1}], True, True)

    def test_c2_is_two_connected(self):
        assert_connectivity(cycle_graph(2), [{0, 1}], True, True)

    def test_single_vertex_is_not(self):
        assert_connectivity(Multigraph(1, ()), [], True, False)

    def test_path_is_not(self):
        g = Multigraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert_connectivity(g, [{0, 1}, {1, 2}], True, False)

    def test_blocks_of_path(self):
        g = Multigraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert set(g.block_masks) == {0b011, 0b110}

    def test_blocks_parallel_edges_single_block(self):
        assert banana_graph(4).block_masks == (0b11,)
        assert_connectivity(banana_graph(4), [{0, 1}], True, True)

    def test_two_triangles_at_cut_vertex(self):
        g = Multigraph.from_edge_list(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        assert_connectivity(g, [{0, 1, 2}, {2, 3, 4}], True, False)

    def test_bridge_is_its_own_block(self):
        assert_connectivity(BRIDGED, [{0, 1, 2}, {2, 3}, {3, 4, 5}], True, False)

    def test_disconnected(self):
        g = Multigraph.from_edge_list(4, [(0, 1), (2, 3)])
        assert_connectivity(g, [{0, 1}, {2, 3}], False, False)

    def test_edgeless(self):
        assert_connectivity(Multigraph(3, ()), [], False, False)

    def test_no_vertices(self):
        assert_connectivity(Multigraph(0, ()), [], False, False)

    def test_block_masks_follow_components(self):
        # an isolated vertex, then the blocks of each component in turn
        g = Multigraph.from_edge_list(7, [(1, 2), (2, 3), (1, 3), (3, 4), (5, 6), (5, 6)])
        assert g.neighbour_masks == (0, 0b1100, 0b1010, 0b10110, 0b1000, 0b1000000, 0b100000)
        assert g.block_masks == (0b11000, 0b1110, 0b1100000)

    @settings(max_examples=200, deadline=None)
    @given(multigraphs_in_parts())
    def test_kernel_equals_edge_dfs_reference(self, g):
        blocks = blocks_by_edge_dfs(g)
        assert len(g.block_masks) == len(blocks)
        assert set(block_sets(g)) == set(blocks)
        assert g.is_connected() == is_connected_by_edge_search(g)
        assert g.is_two_connected() == is_two_connected_by_edge_dfs(g)


class TestTooFewEdges:
    """A 2-connected graph on n >= 3 vertices has minimum degree 2, hence
    at least n edges; `is_two_connected` answers fewer before any mask."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_multigraph_with_at_most_n_edges(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(n + 1):
            for chosen in itertools.combinations_with_replacement(pairs, m):
                g = Multigraph.from_edge_list(n, chosen)
                assert g.is_two_connected() == is_two_connected_by_edge_dfs(g), chosen

    def test_long_path_builds_no_masks(self):
        path = Multigraph.from_edge_list(20_000, [(i, i + 1) for i in range(19_999)])
        tracemalloc.start()
        try:
            assert not path.is_two_connected()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "neighbour_masks" not in path.__dict__


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
        assert g.spanning_tree_count() == (spanning_tree_count(g) if g.is_connected() else 0)
        if not g.is_connected():
            return
        assert len(g.spanning_trees()) == spanning_tree_count(g)

    def test_equals_subset_walk_on_default_census(self, census_default):
        # the same trees in the same order as the walk over edge subsets
        for g in census_default:
            assert g.spanning_trees() == spanning_trees_by_subsets(g)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_equals_subset_walk_on_glued_chains(self, delta):
        rng = random.Random(delta)
        for n in range(4, 11):
            chain = glued_chain(delta, n)
            for g in (chain, chain.shuffled(rng)):
                assert g.spanning_trees() == spanning_trees_by_subsets(g)

    def test_single_vertex_has_the_empty_tree(self):
        assert Multigraph(1, ()).spanning_trees() == [frozenset()]


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
        # the canonical graph carries its form; computing it afresh agrees
        canon = g.canonicalize()[0]
        assert canon.canonical_form == Multigraph(canon.n, canon.edges).canonical_form
        assert canon.canonical_form == g.canonical_form

    @given(small_multigraphs(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_canonicity_test(self, g, seed):
        canon = lex_max_graph(g).multiplicity_matrix
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


class TestCanonicalSearchEqualsColumnReference:
    """The census's canonicity test must answer as the reference does:
    no prefix beats the identity; on a lex-max matrix it runs the search
    to the end.  The shuffled glued chains are large enough for many
    prefixes to tie."""

    @given(st.one_of(small_multigraphs(), connected_multigraphs()), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_random_multigraphs(self, g, seed):
        for h in (g, g.shuffled(random.Random(seed)), lex_max_graph(g)):
            assert_search_equals_column_reference(h.multiplicity_matrix)

    @pytest.mark.parametrize("g", SYMMETRIC_FAMILIES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_symmetric_families(self, g):
        rng = random.Random(g.n * 1000 + g.m)
        for h in (g, g.shuffled(rng), g.shuffled(rng), lex_max_graph(g)):
            assert_search_equals_column_reference(h.multiplicity_matrix)

    @pytest.mark.parametrize("delta,n", [(2, 28), (3, 40), (4, 20)])
    def test_shuffled_glued_chains(self, delta, n):
        g = glued_chain(delta, n).shuffled(random.Random(delta * 100 + n))
        for h in (g, lex_max_graph(g)):
            assert_search_equals_column_reference(h.multiplicity_matrix)

    def test_no_vertices(self):
        assert is_canonical_order((), 0)
        assert canonical_ordering_by_columns((), 0, ()) is None
        assert Multigraph(0, ()).canonicalize() == (Multigraph(0, ()), (), {})


def matched(g: Multigraph, h: Multigraph) -> bool:
    """Whether g and h have one canonical form, which the lex-max
    reference must confirm: equal lex-max matrices."""
    found = g.canonical_form == h.canonical_form
    assert found == (lex_max_graph(g).multiplicity_matrix == lex_max_graph(h).multiplicity_matrix)
    return found


def moved_edge(g: Multigraph, index: int, a: int, b: int) -> Multigraph:
    """g with its index-th edge moved to the vertex pair {a, b}."""
    edges = list(g.edges)
    edges[index] = Edge(edges[index].eid, min(a, b), max(a, b))
    return Multigraph(g.n, tuple(edges))


class TestCanonicalMatch:
    """The replay check of decompose, `canonical_form` equality: it holds
    exactly when the lex-max reference forms are equal."""

    @pytest.mark.parametrize("delta,n", [(2, 12), (2, 28), (3, 13), (3, 40), (4, 20)])
    def test_shuffled_glued_chains(self, delta, n):
        g = glued_chain(delta, n)
        rng = random.Random(delta * 100 + n)
        for h in (g, g.shuffled(rng), g.shuffled(rng)):
            assert matched(h, g)

    @pytest.mark.parametrize("delta,n", [(2, 12), (3, 13), (4, 14)])
    def test_near_misses(self, delta, n):
        # one edge moved to another vertex pair: same n and m
        rng = random.Random(delta * 100 + n)
        g = glued_chain(delta, n).shuffled(rng)
        misses = 0
        for index in range(g.m):
            e = g.edges[index]
            a, b = rng.sample(range(g.n), 2)
            if {a, b} != {e.u, e.v}:
                misses += not matched(moved_edge(g, index, a, b), g)
        assert misses > g.m // 2

    def test_state_in_non_canonical_labelling(self):
        # the state's canonical form, not its own matrix, is compared
        rng = random.Random(7)
        state = glued_chain(3, 13).shuffled(rng)
        assert state.multiplicity_matrix != state.canonical_form
        assert matched(state, state.canonicalize()[0])
        assert matched(state.shuffled(rng), state)
        assert not matched(moved_edge(state, 0, *rng.sample(range(13), 2)), state)

    def test_vertex_and_edge_counts_first(self):
        square = cycle_graph(4)
        assert not matched(square, cycle_graph(5))
        doubled = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1)])
        assert not matched(square, doubled)
        assert not matched(doubled, square)

    def test_no_vertices(self):
        assert matched(Multigraph(0, ()), Multigraph(0, ()))

    @settings(max_examples=200, deadline=None)
    @given(small_multigraphs(), small_multigraphs(), st.integers(0, 2**31))
    def test_random_pairs(self, g, h, seed):
        rng = random.Random(seed)
        assert matched(g.shuffled(rng), g)
        matched(h, g)


def prism(k: int) -> Multigraph:
    """C_k x K_2: two k-cycles joined vertex by vertex."""
    ring = [(i, (i + 1) % k) for i in range(k)]
    return Multigraph.from_edge_list(
        2 * k, ring + [(k + u, k + v) for u, v in ring] + [(i, k + i) for i in range(k)]
    )


def doubled(g: Multigraph) -> Multigraph:
    """g with every edge doubled."""
    return Multigraph.from_edge_list(g.n, [(e.u, e.v) for e in g.edges for _ in range(2)])


# vertex-transitive graphs, each next to another graph with its n and m
SYMMETRIC_GRAPHS = (
    [complete_graph(n) for n in range(1, 10)]
    + [cycle_graph(n) for n in range(2, 13)]
    + [banana_graph(k) for k in range(1, 7)]
    + [
        doubled(Multigraph.from_edge_list(6, [(a, b) for a in range(3) for b in range(3, 6)])),
        doubled(prism(3)),
        # Q3 and the Wagner graph, both cubic on 8 vertices
        Multigraph.from_edge_list(8, [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1]),
        Multigraph.from_edge_list(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
        # Petersen and the pentagonal prism, both cubic on 10 vertices
        Multigraph.from_edge_list(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        ),
        prism(5),
        cycle_graph(6).shuffled(random.Random(1)),  # C6 again, relabelled
    ]
)


def assert_canonical_under_relabellings(g: Multigraph, rng: random.Random) -> None:
    """Three relabellings of g have g's canonical form, and each one's
    canonicalize maps agree with its canonical graph."""
    for h in (g.shuffled(rng), g.shuffled(rng), g.shuffled(rng)):
        canon, vperm, emap = h.canonicalize()
        assert canon.multiplicity_matrix == g.canonical_form
        assert sorted(vperm) == list(range(g.n))
        assert h.permuted(vperm).multiplicity_matrix == canon.multiplicity_matrix
        assert sorted(emap.values()) == list(range(g.m))


class TestIndividualizationRefinement:
    """The canonical form by individualization-refinement separates the
    same isomorphism classes as the lex-max form of the ordering search
    it replaced (`lex_max_graph`): two graphs have equal canonical forms
    exactly when they have equal lex-max matrices."""

    def test_census_and_shuffled_copies(self, census_frontier):
        assert len({g.canonical_form for g in census_frontier}) == len(census_frontier)
        rng = random.Random(74)
        for g in census_frontier:
            h = g.shuffled(rng)
            assert h.canonical_form == g.canonical_form
            assert lex_max_graph(h).multiplicity_matrix == g.multiplicity_matrix

    @pytest.mark.parametrize(
        "delta,n", [(2, 48), (2, 100), (3, 80), (3, 100), (4, 48), (4, 100)]
    )
    def test_glued_chains(self, delta, n):
        g = glued_chain(delta, n)
        assert_canonical_under_relabellings(g, random.Random(delta * 1000 + n))

    def test_symmetric_graphs(self):
        rng = random.Random(9)
        for g in SYMMETRIC_GRAPHS:
            assert_canonical_under_relabellings(g, rng)
        assert complete_graph(9).canonical_form == complete_graph(9).multiplicity_matrix
        for g, h in itertools.combinations(SYMMETRIC_GRAPHS, 2):
            if (g.n, g.m) == (h.n, h.m):
                matched(g, h)
