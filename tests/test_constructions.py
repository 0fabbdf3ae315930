import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import constructions, matroid
from gorenstein.constructions import (
    ConstructionTrace,
    GluingError,
    GluingSpec,
    contract_path,
    decompose,
    delta_edge_gluing,
    delta_gluing,
    graph_from_json,
    graph_to_json,
    multi_gluing,
    path_gluing,
    replay,
    simplify,
    subdivide_edge,
    trace_from_json,
    trace_to_json,
)
from gorenstein.criteria import (
    check_spade,
    delta_candidates,
    is_gorenstein,
    weight_function,
)
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)

from glued import glued_chain, two_connected_multigraphs
from oracles import (
    check_spade_by_sets,
    decompose_eagerly,
    multi_gluing_by_vertex_map,
    parallel_class,
    pieces_by_union_find,
    split_predecessors_by_side_graphs,
    subdivide_edge_by_hand,
    subdivision_predecessors_by_round_trip,
    total_of,
)

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def spade_at(graph, delta):
    w = weight_function(graph, delta)
    return w is not None and check_spade(graph, w)


def singleton_spec(g1, e1, g2, e2, delta, flip=False):
    return GluingSpec(g1, frozenset([e1]), g2, frozenset([e2]), delta, flip)


class TestDeltaGluing:
    def test_two_triangles_at_three_gives_diamond(self):
        glued = delta_gluing(singleton_spec(cycle_graph(3), 0, cycle_graph(3), 0, 3))
        assert glued.is_isomorphic(DIAMOND)

    def test_two_triangles_at_two_gives_c4(self):
        glued = delta_gluing(singleton_spec(cycle_graph(3), 0, cycle_graph(3), 0, 2))
        assert glued.is_isomorphic(cycle_graph(4))

    def test_weight_one_plus_complement_gives_zero_replacements(self):
        # diamond chord (weight 1) glued with a C_3 edge (weight 2) at 3
        glued = delta_gluing(singleton_spec(DIAMOND, 4, cycle_graph(3), 0, 3))
        assert glued.m == DIAMOND.m - 1 + cycle_graph(3).m - 1

    def test_flip_gives_isomorphic_result_for_symmetric_inputs(self):
        a = delta_gluing(singleton_spec(cycle_graph(4), 0, cycle_graph(4), 0, 4))
        b = delta_gluing(singleton_spec(cycle_graph(4), 0, cycle_graph(4), 0, 4, True))
        assert a.is_isomorphic(b)

    def test_negative_replacement_count_rejected(self):
        # two C_2 edges (weight 1 each) at delta = 3: 1 + 1 - 3 < 0
        with pytest.raises(GluingError, match="negative"):
            delta_gluing(singleton_spec(cycle_graph(2), 0, cycle_graph(2), 0, 3))

    def test_missing_weight_rejected(self):
        with pytest.raises(GluingError):
            delta_gluing(singleton_spec(complete_graph(2), 0, cycle_graph(3), 0, 3))

    def test_non_parallel_class_rejected(self):
        with pytest.raises(GluingError):
            delta_gluing(
                GluingSpec(cycle_graph(3), frozenset([0, 1]), cycle_graph(3), frozenset([0]), 3)
            )

    def test_left_edge_ids_preserved(self):
        glued = delta_gluing(singleton_spec(DIAMOND, 4, cycle_graph(3), 0, 3))
        kept = {e.eid for e in DIAMOND.edges} - {4}
        assert kept <= {e.eid for e in glued.edges}


class TestPathGluing:
    def test_requires_weight_one_on_left(self):
        with pytest.raises(GluingError, match="weight 1"):
            path_gluing(cycle_graph(3), 0, cycle_graph(3), 0, 3)

    @pytest.mark.parametrize("glue", [path_gluing, delta_edge_gluing])
    @pytest.mark.parametrize("delta", [1, 3.0, "3"])
    def test_delta_checked_before_the_weights(self, glue, delta):
        with pytest.raises(GluingError, match="delta must be"):
            glue(cycle_graph(3), 0, cycle_graph(3), 0, delta)

    @pytest.mark.parametrize("left, e1, e2", [(3, 7, 0), (2, 0, 7)])
    def test_unknown_edge_id_raises_gluing_error(self, left, e1, e2):
        # a C_2 edge has weight 1, so the right-hand id is looked up too
        with pytest.raises(GluingError, match="unknown edge id 7"):
            path_gluing(cycle_graph(left), e1, cycle_graph(3), e2, 3)

    def test_edge_of_no_kind_raises_its_own_error(self):
        # two triangles sharing vertex 2 have no edge kinds at all
        bowtie = Multigraph.from_edge_list(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        for glue in (path_gluing, delta_edge_gluing):
            with pytest.raises(GluingError, match="both graphs must be 2-connected"):
                glue(bowtie, 3, cycle_graph(3), 0, 3)
        with pytest.raises(GluingError, match="both graphs must be 2-connected"):
            multi_gluing([cycle_graph(3), bowtie], [0, 3], 3)
        # the edge of K_2 is the only one that neither deleting nor
        # contracting leaves 2-connected
        with pytest.raises(GluingError, match="edge 0: neither deletion nor contraction"):
            path_gluing(complete_graph(2), 0, cycle_graph(3), 0, 3)

    def test_c2_is_neutral_at_two(self):
        glued = path_gluing(cycle_graph(2), 0, cycle_graph(2), 0, 2)
        assert glued.is_isomorphic(cycle_graph(2))

    def test_k4_with_c2_at_two_is_k4(self):
        glued = path_gluing(complete_graph(4), 0, cycle_graph(2), 0, 2)
        assert glued.is_isomorphic(complete_graph(4))
        assert spade_at(glued, 2)

    def test_with_cycle_is_subdivision(self):
        glued = path_gluing(DIAMOND, 4, cycle_graph(3), 0, 3)
        direct, _ = subdivide_edge(DIAMOND, 4, 3)
        assert glued.is_isomorphic(direct)


def weights_checked(graph, delta=3) -> None:
    """`_edge_weight` of every edge against the weight of its
    `matroid.edge_kinds` reading at delta; the edge of no kind raises."""
    weights = {"del": 1, "con": delta - 1}
    for eid, kind in matroid.edge_kinds(graph).items():
        if kind is None:
            with pytest.raises(GluingError, match="neither deletion nor contraction"):
                constructions._edge_weight(graph, eid, delta)
        else:
            assert constructions._edge_weight(graph, eid, delta) == weights[kind], eid


class TestEdgeWeightEqualsEdgeKinds:
    def test_default_census(self, census_default):
        for graph in census_default:
            weights_checked(graph)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_shuffled_glued_chains(self, delta):
        rng = random.Random(delta)
        for n in range(4, 21):
            chain = glued_chain(delta, n)
            for graph in (chain, chain.shuffled(rng), chain.shuffled(rng)):
                weights_checked(graph, delta + 1)


@pytest.fixture
def side_kind_searches(monkeypatch):
    """Arguments of every `_side_kind` block search, one entry per call."""
    searches = []
    original = constructions._side_kind

    def counting(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(constructions, "_side_kind", counting)
    return searches


class TestGluingWeighsEachEdgeOnce:
    """The specialized gluings weigh each glued edge once and hand the
    weights to the builder, which weighs nothing again."""

    def test_path_gluing_runs_two_block_searches(self, side_kind_searches):
        # neither the diamond's chord nor a triangle edge has a parallel copy
        path_gluing(DIAMOND, 4, cycle_graph(3), 0, 3)
        assert len(side_kind_searches) == 2

    def test_delta_edge_gluing_runs_two_block_searches(self, side_kind_searches):
        delta_edge_gluing(cycle_graph(3), 0, cycle_graph(3), 0, 3)
        assert len(side_kind_searches) == 2

    @pytest.mark.parametrize("delta", [4, 5])
    def test_multi_gluing_runs_one_block_search_per_graph(self, side_kind_searches, delta):
        # a cycle edge has no parallel copy; delta - 1 cycles are glued
        multi_gluing([cycle_graph(delta)] * (delta - 1), [0] * (delta - 1), delta)
        assert len(side_kind_searches) == delta - 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_raises_exactly_off_the_weights(self, delta, data):
        # each gluing raises GluingError exactly when the weight function
        # does not give its edge pair the weights the gluing needs
        rng = random.Random(data.draw(st.integers(0, 2**31)))
        g1 = glued_chain(delta, data.draw(st.integers(2, 14))).shuffled(rng)
        g2 = glued_chain(delta, data.draw(st.integers(2, 14))).shuffled(rng)
        flip = data.draw(st.booleans())
        w1 = dict(weight_function(g1, delta).weights)
        w2 = dict(weight_function(g2, delta).weights)
        for glue, needed in (
            (path_gluing, (1, delta - 1)),
            (delta_edge_gluing, (delta - 1, delta - 1)),
        ):
            for e1, e2 in itertools.product(w1, w2):
                try:
                    glue(g1, e1, g2, e2, delta, flip)
                except GluingError:
                    assert (w1[e1], w2[e2]) != needed, (glue, e1, e2)
                else:
                    assert (w1[e1], w2[e2]) == needed, (glue, e1, e2)


class TestDeltaEdgeGluing:
    def test_two_triangles(self):
        glued = delta_edge_gluing(cycle_graph(3), 0, cycle_graph(3), 0, 3)
        assert glued.is_isomorphic(DIAMOND)

    def test_delta_two_yields_no_replacement(self):
        glued = delta_edge_gluing(cycle_graph(3), 0, cycle_graph(3), 0, 2)
        assert glued.is_isomorphic(cycle_graph(4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_two_cycles_then_paths_give_banana(self, n):
        glued = delta_edge_gluing(cycle_graph(n), 0, cycle_graph(n), 0, n)
        # contract both leftover paths of n-1 edges into single edges
        for _ in range(2):
            interior = [v for v in range(glued.n) if glued.degree(v) == 2]
            path = _path_through(glued, interior[0])
            glued = contract_path(glued, path, n)
        assert glued.is_isomorphic(banana_graph(n))

    def test_requires_heavy_weights(self):
        with pytest.raises(GluingError):
            delta_edge_gluing(DIAMOND, 4, cycle_graph(3), 0, 3)


def _path_through(graph, start):
    """Maximal degree-2 path containing the given interior vertex."""
    chain = [start]
    for _ in range(2):
        while True:
            tip = chain[0] if len(chain) == 1 else chain[-1]
            nbrs = [
                w
                for e in graph.edges
                if tip in (e.u, e.v)
                for w in (e.u, e.v)
                if w != tip and w not in chain
            ]
            ext = [w for w in nbrs if graph.degree(w) == 2]
            nxt = ext[0] if ext else (nbrs[0] if nbrs else None)
            if nxt is None:
                break
            chain.append(nxt)
            if graph.degree(nxt) != 2:
                break
        chain.reverse()
    return tuple(chain)


class TestSubdivideContract:
    def test_round_trip(self):
        for delta in (3, 4, 5):
            divided, path = subdivide_edge(DIAMOND, 4, delta)
            back = contract_path(divided, path, delta)
            assert back.is_isomorphic(DIAMOND)

    def test_cycle_contracts_to_c2(self):
        path = tuple(range(3))
        assert contract_path(cycle_graph(3), path, 3).is_isomorphic(cycle_graph(2))

    def test_k4_has_no_contractible_path_at_three(self):
        g = complete_graph(4)
        for path in itertools.permutations(range(4), 3):
            with pytest.raises(GluingError):
                contract_path(g, path, 3)

    def test_interior_degree_enforced(self):
        with pytest.raises(GluingError, match="degree"):
            contract_path(DIAMOND, (1, 2, 3), 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(GluingError, match="path"):
            contract_path(cycle_graph(4), (0, 1), 4)

    def test_subdivision_preserves_spade(self, census_small):
        # Prop: subdividing a weight-1 edge keeps the spade equalities
        for g in census_small:
            for delta in range(3, g.m + 2):
                if not spade_at(g, delta):
                    continue
                w = weight_function(g, delta)
                for eid, weight in w.weights:
                    if weight == 1:
                        divided, _ = subdivide_edge(g, eid, delta)
                        assert spade_at(divided, delta)


def subdivisions_checked(graph, delta) -> int:
    """The lemma in `constructions._verify_subdivision`, for the first edge
    of each parallel class.  The library generator yields, in order, the
    shapes and verify results of the round-trip reference, whose verify
    returns None unless `contract_path` on the canonical subdivision,
    along the mapped path, gives the graph's canonical form; none is
    None, and each returned step replays to that form through `_applied`.
    Returns the edges checked."""
    bound = graph.n + delta - 2
    found = [
        (shape, verify())
        for shape, verify in constructions._subdivision_predecessors(graph, delta, bound)
    ]
    reference = subdivision_predecessors_by_round_trip(graph, delta, bound)
    assert found == [(shape, verify()) for shape, verify in reference]
    mult = graph.multiplicity_matrix
    assert len(found) == len({(e.u, e.v) for e in graph.edges if mult[e.u][e.v] > 1})
    for _, (pred, step) in found:
        replayed = constructions._applied(pred, step, delta)
        assert replayed.canonical_form == graph.canonical_form
    return len(found)


class TestSubdivisionLemma:
    @pytest.mark.parametrize("delta", [3, 4])
    def test_default_census(self, census_default, delta):
        doubled = [g for g in census_default if g.has_parallel_edges()]
        assert sum(subdivisions_checked(g, delta) for g in doubled) >= len(doubled) > 0

    @pytest.mark.parametrize("delta", [3, 4])
    def test_glued_chains_twins_and_shuffles(self, delta):
        # a chain glued at 3 has no parallel class; its twin, one edge
        # doubled as in the benchmark streams, has one
        rng = random.Random(delta)
        checked = 0
        for n in range(4, 15):
            chain = glued_chain(delta, n)
            pairs = [(e.u, e.v) for e in chain.edges]
            twin = Multigraph.from_edge_list(chain.n, pairs + [pairs[n % len(pairs)]])
            for graph in (chain, twin, chain.shuffled(rng), twin.shuffled(rng)):
                checked += subdivisions_checked(graph, delta)
        assert checked > 0

    def test_iterating_builds_nothing(self, monkeypatch):
        built = []
        make = constructions.subdivide_edge
        monkeypatch.setattr(
            constructions,
            "subdivide_edge",
            lambda graph, eid, delta: built.append(eid) or make(graph, eid, delta),
        )
        graph = Multigraph.from_edge_list(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
        candidates = list(constructions._subdivision_predecessors(graph, 3, 4))
        assert len(candidates) == 2 and built == []
        candidates[1][1]()
        assert built == [2]


class TestSimplify:
    def test_banana_three(self):
        s = simplify(banana_graph(3), 3)
        assert not s.has_parallel_edges()
        assert (s.n, s.m) == (5, 6)  # theta graph: 3 paths of 2 edges
        assert spade_at(s, 3)

    def test_already_simple_unchanged(self):
        assert simplify(DIAMOND, 3) is DIAMOND or simplify(DIAMOND, 3).is_isomorphic(
            DIAMOND
        )

    def test_c2_at_two(self):
        s = simplify(cycle_graph(2), 2)
        assert spade_at(s, 2)
        assert s.is_isomorphic(cycle_graph(2))

    def test_requires_spade(self):
        with pytest.raises(GluingError):
            simplify(banana_graph(3), 4)
        # a graph that is not 2-connected fails spade, with no edge kinds
        bowtie = Multigraph.from_edge_list(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        with pytest.raises(GluingError, match="spade"):
            simplify(bowtie, 3)

    def test_broken_result_spade_raises(self, monkeypatch):
        real = constructions.weight_function
        calls = []

        def first_call_only(graph, delta):
            calls.append(graph)
            return real(graph, delta) if len(calls) == 1 else None

        monkeypatch.setattr(constructions, "weight_function", first_call_only)
        with pytest.raises(RuntimeError, match="spade"):
            simplify(banana_graph(3), 3)

    def test_parallel_edges_left_raise(self, monkeypatch):
        monkeypatch.setattr(
            constructions, "subdivide_edge", lambda graph, eid, delta: (graph, ())
        )
        with pytest.raises(RuntimeError, match="parallel"):
            simplify(banana_graph(3), 3)


class TestMultiGluing:
    def test_two_triangles_gives_diamond(self):
        glued = multi_gluing([cycle_graph(3)] * 2, [0, 0], 3)
        assert glued.is_isomorphic(DIAMOND)

    def test_delta_two_returns_input(self):
        assert multi_gluing([DIAMOND], [0], 2) is DIAMOND

    def test_three_c4s(self):
        glued = multi_gluing([cycle_graph(4)] * 3, [0, 0, 0], 4)
        assert (glued.n, glued.m) == (8, 10)
        assert spade_at(glued, 4)

    def test_wrong_count_rejected(self):
        with pytest.raises(GluingError):
            multi_gluing([cycle_graph(3)] * 3, [0, 0, 0], 3)

    def test_equals_delta_glue_plus_path_glues(self):
        # delta = 4: deltaCon gives 2 parallels; one path gluing consumes
        # one of them, leaving one unused
        parts = [cycle_graph(4)] * 3
        direct = multi_gluing(parts, [0, 0, 0], 4)
        step = delta_edge_gluing(parts[0], 0, parts[1], 0, 4)
        spare = [e.eid for e in step.edges if len(parallel_class(step, e.eid)) == 2]
        composed = path_gluing(step, spare[0], parts[2], 0, 4)
        assert composed.is_isomorphic(direct)


def weight_edges(graph, delta, weight):
    """Ids of the graph's edges of this weight under its weight function."""
    return [eid for eid, w in weight_function(graph, delta).weights if w == weight]


class TestSubdivideEqualsReference:
    """`subdivide_edge` path-glues the delta-cycle onto the edge; it must
    return the very graph and path of the builder it replaced."""

    @staticmethod
    def same_on_light_edges(graph, delta) -> int:
        eids = weight_edges(graph, delta, 1)
        for eid in eids:
            assert subdivide_edge(graph, eid, delta) == subdivide_edge_by_hand(
                graph, eid, delta
            )
        return len(eids)

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_glued_chains_and_shuffles(self, delta):
        rng = random.Random(delta)
        for n in (6, 9, 12):
            chain = glued_chain(delta, n)
            for graph in (chain, chain.shuffled(rng)):
                assert self.same_on_light_edges(graph, delta) > 0

    def test_spade_positive_default_census(self, census_default):
        checked = 0
        for graph in census_default:
            for delta in delta_candidates(graph):
                if spade_at(graph, delta):
                    checked += self.same_on_light_edges(graph, delta)
        assert checked > 0

    def test_contraction_edge_rejected(self):
        with pytest.raises(GluingError, match="must have weight 1"):
            subdivide_edge(cycle_graph(3), 0, 3)

    def test_delta_one_rejected(self):
        with pytest.raises(GluingError, match="delta must be >= 2"):
            subdivide_edge(DIAMOND, 4, 1)

    @pytest.mark.parametrize("delta", [3.0, "3"])
    def test_delta_not_an_integer_rejected(self, delta):
        with pytest.raises(GluingError, match="delta must be an integer"):
            subdivide_edge(DIAMOND, 4, delta)


class TestMultiGluingEqualsReference:
    """`multi_gluing` folds universal gluings; it must give the graph of the
    vertex-map builder it replaced, up to isomorphism."""

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_cycles_and_glued_chains(self, delta):
        rng = random.Random(delta)
        pieces = [
            cycle_graph(delta),
            glued_chain(delta, 7),
            glued_chain(delta, 10).shuffled(rng),
        ]
        heavy = [weight_edges(g, delta, delta - 1) for g in pieces]
        for start in range(len(pieces)):
            picks = [(start + i) % len(pieces) for i in range(delta - 1)]
            for choice in range(3):
                graphs = [pieces[k] for k in picks]
                edges = [heavy[k][choice * (k + 1) % len(heavy[k])] for k in picks]
                expected = multi_gluing_by_vertex_map(graphs, edges)
                glued = multi_gluing(graphs, edges, delta)
                assert glued.canonical_form == expected.canonical_form
                assert spade_at(glued, delta)


class TestCounterexample:
    def test_gluing_can_create_spade_from_non_spade(self):
        g1 = Multigraph.from_edge_list(4, [(0, 1)] * 4 + [(1, 2), (2, 3), (0, 3)])
        g2 = Multigraph.from_edge_list(
            6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (3, 5)]
        )
        assert not spade_at(g1, 4)
        assert not spade_at(g2, 4)
        f1 = frozenset(e.eid for e in g1.edges if (e.u, e.v) == (0, 1))
        glued = delta_gluing(GluingSpec(g1, f1, g2, frozenset([3]), 4))
        assert (glued.n, glued.m) == (8, 10)
        assert spade_at(glued, 4)

    def test_preservation_when_both_sides_spade(self, census_small):
        # Prop: gluing two spade graphs along compatible classes is spade
        gor = [(g, d) for g in census_small for d in [3] if spade_at(g, d)]
        for (a, da), (b, db) in itertools.product(gor, repeat=2):
            wa, wb = weight_function(a, 3), weight_function(b, 3)
            for ea in a.edges:
                if parallel_class(a, ea.eid)[0] != ea.eid:
                    continue
                fa = frozenset(parallel_class(a, ea.eid))
                for eb in b.edges:
                    if parallel_class(b, eb.eid)[0] != eb.eid:
                        continue
                    fb = frozenset(parallel_class(b, eb.eid))
                    if total_of(wa, fa) + total_of(wb, fb) < 3:
                        continue
                    try:
                        glued = delta_gluing(GluingSpec(a, fa, b, fb, 3))
                    except GluingError:
                        continue
                    assert spade_at(glued, 3)


class TestSpadePaths:
    """The search's `_spade_holds` runs `check_spade` with the forced
    weights, and False off 2-connected graphs."""

    def test_equals_spade_by_sets_on_default_census(self, census_default):
        for g in census_default:
            for delta in range(2, g.m + 2):
                w = weight_function(g, delta)
                expected = w is not None and check_spade_by_sets(g, w)
                assert constructions._spade_holds(g, delta) == expected, (g, delta)
            # a pendant vertex hangs from a cut vertex
            pairs = [(e.u, e.v) for e in g.edges] + [(0, g.n)]
            pendant = Multigraph.from_edge_list(g.n + 1, pairs)
            assert not any(constructions._spade_holds(pendant, d) for d in range(2, g.m + 3))

    @settings(max_examples=60, deadline=None)
    @given(two_connected_multigraphs())
    def test_equals_check_spade_on_random_multigraphs(self, g):
        for delta in range(2, 6):
            assert constructions._spade_holds(g, delta) == spade_at(g, delta), delta

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_gluing_glued_chains_keeps_spade(self, delta, data):
        # past its piece, a chain has weight-1 edges for the path gluing
        g1 = glued_chain(delta, data.draw(st.integers(delta + 1, 8)))
        g2 = glued_chain(delta, data.draw(st.integers(delta, 8)))
        w1, w2 = dict(weight_function(g1, delta).weights), dict(weight_function(g2, delta).weights)
        heavy2 = [eid for eid, w in w2.items() if w == delta - 1]
        e2 = data.draw(st.sampled_from(heavy2))
        flip = data.draw(st.booleans())
        for op, weight in ((path_gluing, 1), (delta_edge_gluing, delta - 1)):
            e1 = data.draw(st.sampled_from([eid for eid, w in w1.items() if w == weight]))
            glued = op(g1, e1, g2, e2, delta, flip)
            assert is_gorenstein(glued)[0] == delta
            assert constructions._spade_holds(glued, delta)


class TestDecompose:
    @pytest.mark.parametrize("delta", range(2, 6))
    def test_cycle_seed(self, delta):
        trace = decompose(cycle_graph(delta), delta)
        assert trace == ConstructionTrace("cycle", delta, ())

    def test_k4_seed(self):
        assert decompose(complete_graph(4), 2) == ConstructionTrace("k4", 2, ())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_banana(self, n):
        g = banana_graph(n)
        trace = decompose(g, n)
        assert trace is not None
        assert replay(trace).canonical_form == g.canonical_form

    def test_diamond_two_steps_at_three(self):
        trace = decompose(DIAMOND, 3)
        assert trace is not None
        assert replay(trace).canonical_form == DIAMOND.canonical_form

    def test_k4_is_no_seed_past_two(self):
        with pytest.raises(ValueError, match="no seed 'k4' at delta 3"):
            replay(ConstructionTrace("k4", 3, ()))

    def test_seeds_built_once_and_read_only(self):
        seeds = constructions._seeds(2)
        assert seeds is constructions._seeds(2)
        assert sorted(seeds.values()) == ["cycle", "k4"]
        with pytest.raises(TypeError):
            seeds[cycle_graph(3)] = "cycle"

    def test_non_spade_has_no_trace(self):
        assert decompose(complete_graph(4), 3) is None
        assert decompose(cycle_graph(2), 3) is None

    def test_not_two_connected(self):
        assert decompose(Multigraph.from_edge_list(3, [(0, 1), (1, 2)]), 2) is None

    def test_trace_depends_on_input_alone(self):
        # a search ends at the first predecessor its memo knows, so a memo
        # kept from the call before would change the trace
        chain = glued_chain(3, 7)
        decompose(banana_graph(3), 3)
        assert decompose(chain, 3) == decompose(chain, 3, memo={})


def same_as_eager(graph, delta, memo, eager_memo):
    """Decompose lazily and eagerly; both traces and memos must agree."""
    trace = decompose(graph, delta, memo=memo)
    assert trace == decompose_eagerly(graph, delta, eager_memo)
    assert list(memo.items()) == list(eager_memo.items())
    return trace


@pytest.fixture
def expansions(monkeypatch):
    """States the search expands, one entry per `_split_predecessors` call."""
    states = []
    original = constructions._split_predecessors

    def counting(state, delta, kinds):
        states.append(state)
        return original(state, delta, kinds)

    monkeypatch.setattr(constructions, "_split_predecessors", counting)
    return states


def split_pairs_checked(graph) -> int:
    """Compare `_pieces` with the union-find reference at every vertex
    pair, and each piece's mask with its edges' endpoints other than u
    and v; returns how many pairs split the graph into two or more pieces."""
    split = 0
    for u, v in itertools.combinations(range(graph.n), 2):
        groups, direct = constructions._pieces(graph, u, v)
        assert (list(groups.values()), direct) == pieces_by_union_find(graph, u, v), (u, v)
        for mask, eids in groups.items():
            ends = {w for eid in eids for w in graph.edge(eid)[1:]} - {u, v}
            assert mask == sum(1 << w for w in ends), (u, v)
        split += len(groups) >= 2
    return split


class TestPiecesEqualUnionFind:
    """The order of the pieces and direct edges fixes which split the
    search tries first, so it must be the reference's, not only the sets."""

    @settings(max_examples=150, deadline=None)
    @given(two_connected_multigraphs(), st.integers(0, 2**31))
    def test_random_two_connected_multigraphs(self, g, seed):
        for h in (g, g.shuffled(random.Random(seed))):
            split_pairs_checked(h)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_chains_and_shuffles(self, delta):
        rng = random.Random(delta)
        chain = glued_chain(delta, 12)
        for graph in (chain, chain.shuffled(rng), chain.shuffled(rng)):
            assert split_pairs_checked(graph) > 0


def fresh_kinds_checked(graph) -> Counter:
    """Compare `_side_kind` with `matroid.edge_kinds` of the built side
    graph at every vertex pair, piece subset and direct-edge share, both
    sides of the split and every number of withheld direct edges; a side
    that keeps a direct edge must read "del".  Counts the two-vertex
    sides and the sides of splits that withhold edges.  Asserts the lemma
    `_side_kind` rests on: every side graph of a 2-connected graph is
    2-connected."""
    assert graph.is_two_connected()
    seen = Counter()
    nbr = graph.neighbour_masks
    for u, v in itertools.combinations(range(graph.n), 2):
        groups, direct = constructions._pieces(graph, u, v)
        ends = (1 << u) | (1 << v)
        apart = list(nbr)
        apart[u] &= ~(1 << v)
        apart[v] &= ~(1 << u)
        for chosen in itertools.product((True, False), repeat=len(groups)):
            sides = []
            for pick in (True, False):
                held = [m for m, c in zip(groups, chosen) if c == pick]
                side = ends | sum(held)
                kind = constructions._side_kind(side, ends, apart)
                sides.append((kind, [eid for m in held for eid in groups[m]]))
            (a_kind, a_edges), (b_kind, b_edges) = sides
            for withheld in range(len(direct) + 1):
                usable = len(direct) - withheld
                for d_a in range(usable + 1):
                    for kind, eids, kept in (
                        (a_kind, a_edges + direct[:d_a], d_a),
                        (b_kind, b_edges + direct[d_a:usable], usable - d_a),
                    ):
                        side = constructions._side_graph(graph, eids, u, v)
                        fresh = max(eids, default=-1) + 1
                        assert side.is_two_connected(), (u, v, chosen, withheld, d_a)
                        expected = matroid.edge_kinds(side)[fresh]
                        read = "del" if kept else kind
                        assert read == expected, (u, v, chosen, withheld, d_a)
                        seen["two-vertex"] += side.n == 2
                        seen["withheld"] += withheld > 0
    return seen


class TestFreshEdgeKinds:
    """The mask reading of a side's fresh edge against `edge_kinds`."""

    @settings(max_examples=150, deadline=None)
    @given(two_connected_multigraphs())
    def test_random_two_connected_multigraphs(self, g):
        fresh_kinds_checked(g)

    @pytest.mark.parametrize("delta", [3, 4])
    def test_glued_chains_cover_two_vertex_sides_and_withheld_edges(self, delta):
        # delta-edge gluings leave delta - 2 parallel edges: the direct
        # edges a "delta" split withholds
        seen = fresh_kinds_checked(glued_chain(delta, 9))
        assert seen["two-vertex"] > 0 and seen["withheld"] > 0


def same_splits(graph, delta) -> int:
    """`_split_predecessors` against the side-graph generator it replaced:
    in order, the shapes of the raw predecessors it builds, and on a
    graph that satisfies spade at delta, the library's precondition, the
    same verify results.  Returns how many verify results it compared."""
    kinds = matroid.edge_kinds(graph)
    new = list(constructions._split_predecessors(graph, delta, kinds))
    old = list(split_predecessors_by_side_graphs(graph, delta))
    assert [shape for shape, _ in new] == [shape for shape, _ in old]
    if not constructions._spade_holds(graph, delta):
        return 0
    for (_, verify), (_, reference) in zip(new, old):
        assert verify() == reference()
    return len(new)


class TestSplitsEqualSideGraphs:
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_chains_and_shuffles(self, delta):
        rng = random.Random(delta)
        for n in range(4, 12):
            chain = glued_chain(delta, n)
            for graph in (chain, chain.shuffled(rng), chain.shuffled(rng)):
                assert same_splits(graph, delta) > 0

    @settings(max_examples=100, deadline=None)
    @given(two_connected_multigraphs(), st.integers(2, 4))
    def test_random_two_connected_multigraphs(self, g, delta):
        same_splits(g, delta)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_census(self, census_full, delta):
        assert sum(same_splits(g, delta) for g in census_full) > 0

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_census_frontier_spade_states(self, census_frontier, delta):
        states = [g for g in census_frontier if constructions._spade_holds(g, delta)]
        assert sum(same_splits(g, delta) for g in states) > 0


class TestLazySearchEqualsEager:
    """The two-pass search against the eager loop it replaced (`oracles`)."""

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_chains_and_shuffles(self, delta):
        rng = random.Random(delta)
        for n in range(4, 12):
            chain = glued_chain(delta, n)
            for graph in (chain, chain.shuffled(rng), chain.shuffled(rng)):
                trace = same_as_eager(graph, delta, {}, {})
                assert replay(trace).canonical_form == graph.canonical_form

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_census_fresh_memo(self, census_full, delta, expansions):
        deep = 0
        for graph in census_full:
            before = len(expansions)
            same_as_eager(graph, delta, {}, {})
            deep += len(expansions) - before > 1
        # a search past its first expansion has run pass 2
        assert deep > 0 or delta == 2

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_census_shared_memo(self, census_full, delta):
        memo, eager_memo, steered = {}, {}, 0
        for graph in census_full:
            trace = same_as_eager(graph, delta, memo, eager_memo)
            steered += trace != decompose(graph, delta)
        # memo hits ended some searches before they reached the seed
        assert steered > 0 or delta == 2

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_census_frontier_spade_states(self, census_frontier, delta):
        states = [g for g in census_frontier if constructions._spade_holds(g, delta)]
        memo, eager_memo = {}, {}
        for graph in states:
            same_as_eager(graph, delta, {}, {})
            same_as_eager(graph, delta, memo, eager_memo)
        assert states

    @pytest.mark.parametrize("delta", [3, 4])
    def test_dead_end_memo_entries(self, census_full, delta):
        # every search on the census succeeds, so mark the states of each
        # fresh trace as dead ends to make the search route around them
        rerouted = 0
        for graph in census_full:
            trace = decompose(graph, delta)
            if trace is None or len(trace.steps) < 2:
                continue
            dead = {
                (delta, replay(ConstructionTrace(trace.seed, delta, trace.steps[:k]))): None
                for k in range(1, len(trace.steps))
            }
            other = same_as_eager(graph, delta, dict(dead), dict(dead))
            rerouted += other is not None
        assert rerouted > 0

    @pytest.mark.parametrize("delta, n", [(3, 13), (4, 10)])
    def test_verifies_only_the_step_it_returns(self, monkeypatch, delta, n):
        # one step, an uncrossed split: the side totals and the
        # orientation lemma accept it with no gluing, no spade search on
        # either side and one canonicalization per side (the eager search
        # glued, canonicalized the replay and searched both sides' flats)
        graph = glued_chain(delta, n)
        constructions._seeds(delta)
        calls = {"glue": 0, "canonicalize": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("path_gluing", "delta_edge_gluing"):
            monkeypatch.setattr(
                constructions, name, counted("glue", getattr(constructions, name))
            )
        monkeypatch.setattr(
            Multigraph, "canonicalize", counted("canonicalize", Multigraph.canonicalize)
        )
        searches = (matroid.good_flat_masks, matroid.edge_kinds)
        # spade reads the flats through their cached view
        caches = (*searches, matroid.good_flats)

        def misses():
            return [search.cache_info().misses for search in searches]

        for cache in caches:
            cache.cache_clear()
        eager = decompose_eagerly(graph, delta)
        eager_calls, eager_misses = dict(calls), misses()
        calls.update(glue=0, canonicalize=0)
        for cache in caches:
            cache.cache_clear()
        assert decompose(graph, delta) == eager
        assert len(eager.steps) == 1
        assert calls["glue"] == 0 < eager_calls["glue"]
        # the input, then each side of the split
        assert calls["canonicalize"] <= 3 < eager_calls["canonicalize"]
        # the input's flats and kinds, for its own spade check
        assert misses() == [1, 1]
        assert eager_misses[0] > 1 and eager_misses[1] > 1


class TestTraceSerialization:
    def test_graph_round_trip(self):
        data = graph_to_json(DIAMOND)
        assert graph_from_json(data).multiplicity_matrix == DIAMOND.multiplicity_matrix

    def test_trace_round_trip(self):
        trace = decompose(banana_graph(4), 4)
        assert trace is not None and trace.steps
        back = trace_from_json(trace_to_json(trace))
        assert back == trace
        assert replay(back).canonical_form == banana_graph(4).canonical_form

    def test_edge_id_count_must_match(self):
        data = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "edge_ids": [0]}
        with pytest.raises(ValueError, match="1 edge ids for 3 edges"):
            graph_from_json(data)

    def test_trace_partner_edge_id_count_must_match(self):
        trace = trace_to_json(decompose(banana_graph(4), 4))
        glued = [s for s in trace["steps"] if s["op"] != "path_contract"]
        glued[0]["partner"]["edge_ids"].pop()
        with pytest.raises(ValueError, match="edge ids for"):
            trace_from_json(trace)
