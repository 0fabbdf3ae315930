import itertools

import pytest

from gorenstein import constructions
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
from gorenstein.criteria import check_spade, weight_function
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)

from glued import glued_chain

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

    @pytest.mark.parametrize("left, e1, e2", [(3, 7, 0), (2, 0, 7)])
    def test_unknown_edge_id_raises_gluing_error(self, left, e1, e2):
        # a C_2 edge has weight 1, so the right-hand id is looked up too
        with pytest.raises(GluingError, match="unknown edge id 7"):
            path_gluing(cycle_graph(left), e1, cycle_graph(3), e2, 3)

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
        spare = [e.eid for e in step.edges if len(step.parallel_class(e.eid)) == 2]
        composed = path_gluing(step, spare[0], parts[2], 0, 4)
        assert composed.is_isomorphic(direct)


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
                if a.parallel_class(ea.eid)[0] != ea.eid:
                    continue
                fa = frozenset(a.parallel_class(ea.eid))
                for eb in b.edges:
                    if b.parallel_class(eb.eid)[0] != eb.eid:
                        continue
                    fb = frozenset(b.parallel_class(eb.eid))
                    if wa.total(fa) + wb.total(fb) < 3:
                        continue
                    try:
                        glued = delta_gluing(GluingSpec(a, fa, b, fb, 3))
                    except GluingError:
                        continue
                    assert spade_at(glued, 3)


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
