import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorenstein import criteria, matroid
from gorenstein.criteria import (
    WeightAssignment,
    check_heart,
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
from gorenstein.polytope import gorenstein_oracle
from glued import glued_chain, two_connected_multigraphs
from oracles import (
    check_heart_by_sets,
    check_spade_by_sets,
    contract_subset,
    records_as_sets,
    total_of,
)

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
DOUBLED_TRIANGLE = Multigraph.from_edge_list(3, [(0, 1), (0, 1), (1, 2), (0, 2)])


class TestWeightFunction:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_banana_all_ones(self, n):
        w = weight_function(banana_graph(n), n)
        assert w is not None
        assert set(dict(w.weights).values()) == {1}

    @pytest.mark.parametrize("delta", range(3, 7))
    def test_cycle_all_delta_minus_one(self, delta):
        w = weight_function(cycle_graph(delta), delta)
        assert w is not None
        assert set(dict(w.weights).values()) == {delta - 1}

    def test_k4_all_ones_at_two(self):
        w = weight_function(complete_graph(4), 2)
        assert w is not None
        assert set(dict(w.weights).values()) == {1}

    def test_k2_has_none(self):
        assert weight_function(complete_graph(2), 2) is None

    def test_delta_below_two_rejected(self):
        with pytest.raises(ValueError):
            weight_function(cycle_graph(3), 1)

    def test_assignment_rejects_foreign_weight(self):
        with pytest.raises(ValueError, match="weight 5"):
            WeightAssignment(3, ((0, 5),))

    def test_totals(self):
        w = weight_function(DIAMOND, 3)
        assert w is not None
        assert w.total() == 3 * 3
        assert total_of(w, [4]) == 1  # the chord is the only weight-1 edge
        assert total_of(w, [4, 4, 0]) == 1 + 2  # an id counts once
        assert total_of(w, [0, 99]) == 2  # an unknown id counts 0
        assert total_of(w, []) == 0


class TestCheckSpade:
    def test_c2_at_two(self):
        w = weight_function(cycle_graph(2), 2)
        assert check_spade(cycle_graph(2), w)

    def test_diamond_at_three(self):
        w = weight_function(DIAMOND, 3)
        assert check_spade(DIAMOND, w)

    def test_k4_fails_at_three(self):
        w = weight_function(complete_graph(4), 3)
        assert w is not None
        assert not check_spade(complete_graph(4), w)

    def test_k4_passes_at_two(self):
        assert check_spade(complete_graph(4), weight_function(complete_graph(4), 2))


class TestCriteriaEqualSetReferences:
    """The popcount sums over mask records against the edge-id sums over
    set records, on forced and on arbitrary, also partial, assignments."""

    def test_census_at_every_delta(self, census_full):
        verdicts = set()
        for g in census_full:
            for delta in range(2, 6):
                w = weight_function(g, delta)
                if w is None:
                    continue
                verdicts.add(check_spade(g, w))
                assert check_spade(g, w) == check_spade_by_sets(g, w)
                assert check_heart(g, w) == check_heart_by_sets(g, w)
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(two_connected_multigraphs(), st.integers(2, 6), st.data())
    def test_random_assignments(self, g, delta, data):
        # each edge: weight 1, weight delta - 1, or left out of the assignment
        choice = st.sampled_from([1, delta - 1, None])
        picks = [data.draw(choice) for _ in g.edges]
        weights = tuple(sorted((e.eid, w) for e, w in zip(g.edges, picks) if w is not None))
        w = WeightAssignment(delta, weights)
        assert check_spade(g, w) == check_spade_by_sets(g, w)
        assert check_heart(g, w) == check_heart_by_sets(g, w) == check_spade(g, w)
        assert_heart_identity(g, w)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_graphs_with_random_weights(self, delta):
        rng = random.Random(delta)
        for n in range(4, 21):
            chain = glued_chain(delta, n)
            if chain.n != n:  # no gluing reaches n vertices at this delta
                continue
            for g in (chain, chain.shuffled(rng)):
                for w in random_assignments(g, delta, rng):
                    assert check_heart(g, w) == check_heart_by_sets(g, w)

    def test_spade_rejects_graph_that_is_not_two_connected(self):
        # two triangles at a cut vertex, every weight delta - 1 = 2: the
        # global equation 12 = 3 (5 - 1) holds, so only 2-connectivity
        # fails; heart reads the same good flats
        g = Multigraph.from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        w = WeightAssignment(3, tuple((eid, 2) for eid in range(6)))
        for check in (check_spade, check_spade_by_sets, check_heart):
            with pytest.raises(ValueError, match="not 2-connected"):
                check(g, w)


def random_assignments(g: Multigraph, delta: int, rng: random.Random):
    """The forced weights, three shuffles of them over the edges (w(E)
    stays delta (|V| - 1), so the good flats decide heart), and three
    partial assignments with weights from {1, delta - 1}."""
    forced = weight_function(g, delta)
    out = [forced]
    ids = [e.eid for e in g.edges]
    values = [w for _, w in forced.weights]
    for _ in range(3):
        rng.shuffle(values)
        out.append(WeightAssignment(delta, tuple(sorted(zip(ids, values)))))
    for _ in range(3):
        picks = [(eid, rng.choice([1, delta - 1])) for eid in ids if rng.random() < 0.8]
        out.append(WeightAssignment(delta, tuple(picks)))
    return out


def components_of(g: Multigraph, rest: frozenset[int]) -> list[frozenset[int]]:
    """The vertex sets of the components of G[rest], by a search over the
    edge list."""
    adjacent = {v: set() for v in rest}
    for e in g.edges:
        if e.u in rest and e.v in rest:
            adjacent[e.u].add(e.v)
            adjacent[e.v].add(e.u)
    out, seen = [], set()
    for v in sorted(rest):
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            for x in adjacent[todo.pop()] - comp:
                comp.add(x)
                todo.append(x)
        seen |= comp
        out.append(frozenset(comp))
    return out


def assert_heart_identity(g: Multigraph, w: WeightAssignment) -> None:
    """The lemma of `criteria` on every 2-connected S != V of the
    reference pass: each T_i = V - C_i over the components C_i of G - S is
    a good flat, and D(S) = (1 - c) D(V) + sum D(T_i) with c = k(S)."""
    records = {s: (edges, k) for s, edges, k in records_as_sets(g)}
    flats = {f.subset for f in matroid.good_flats(g)}
    whole = frozenset(range(g.n))

    def defect(s):
        edges, k = records[s]
        return total_of(w, edges) + k - w.delta * (len(s) - 1)

    for s, (_, k) in records.items():
        if s == whole:
            continue
        sides = [whole - c for c in components_of(g, whole - s)]
        assert len(sides) == k
        assert all(t in flats for t in sides)
        assert defect(s) == (1 - k) * defect(whole) + sum(defect(t) for t in sides)


class TestHeartReduction:
    """Heart on V and the good flats decides heart on every 2-connected
    subset (the lemma in the `criteria` docstring)."""

    def test_identity_on_census(self, census_full):
        rng = random.Random(5)
        for g in census_full:
            for delta in range(2, 6):
                if weight_function(g, delta) is not None:
                    for w in random_assignments(g, delta, rng):
                        assert_heart_identity(g, w)

    @pytest.mark.parametrize("delta, n", [(2, 14), (3, 14), (4, 14)])
    def test_identity_on_glued_graphs(self, delta, n):
        rng = random.Random(n * delta)
        g = glued_chain(delta, n).shuffled(rng)
        for w in random_assignments(g, delta, rng):
            assert_heart_identity(g, w)


class TestCheckHeart:
    def test_k4_at_two(self):
        assert check_heart(complete_graph(4), weight_function(complete_graph(4), 2))

    def test_c2_at_two(self):
        assert check_heart(cycle_graph(2), weight_function(cycle_graph(2), 2))

    def test_full_set_reduces_to_global_equation(self):
        # V itself is a 2-connected subset with k(V) = 0
        g = cycle_graph(4)
        assert frozenset(range(4)) in matroid.two_connected_subsets(g)
        assert contract_subset(g, frozenset(range(4))).block_masks == ()

    def test_agrees_with_spade_on_census(self, census_small):
        for g in census_small:
            for delta in range(2, g.m + 2):
                w = weight_function(g, delta)
                if w is None:
                    continue
                assert check_spade(g, w) == check_heart(g, w)


class TestDeltaCandidates:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_banana(self, n):
        assert delta_candidates(banana_graph(n)) == [n]

    def test_k4(self):
        assert delta_candidates(complete_graph(4)) == [2]

    @pytest.mark.parametrize("delta", range(3, 7))
    def test_cycle(self, delta):
        assert delta_candidates(cycle_graph(delta)) == [delta]

    def test_k2_no_candidates(self):
        assert delta_candidates(complete_graph(2)) == []

    def test_requires_two_connected(self):
        with pytest.raises(ValueError):
            delta_candidates(Multigraph.from_edge_list(3, [(0, 1), (1, 2)]))

    def test_degenerate_total_solved_from_a_flat(self):
        # a = b = 2: the total holds at every delta, as do the flats of the
        # two "con" edges (delta - 1 + 1 = delta); the flat {0, 1} of the
        # doubled edge fixes it (1 + 1 + 1 = delta)
        assert delta_candidates(DOUBLED_TRIANGLE) == [3]
        assert gorenstein_oracle(DOUBLED_TRIANGLE).coordinates == (1, 1, 2, 2)

    def test_no_fixing_equation_raises(self, monkeypatch):
        # without the doubled edge's flat every equation holds at every delta
        flats = [(s, e) for s, e in matroid.good_flat_masks(DOUBLED_TRIANGLE) if e.bit_count() == 1]
        assert len(flats) == 2
        monkeypatch.setattr(matroid, "good_flat_masks", lambda graph: flats)
        with pytest.raises(RuntimeError, match="fixes delta"):
            delta_candidates(DOUBLED_TRIANGLE)

    def test_degenerate_total_on_default_census(self, census_default):
        # every graph whose total leaves delta free (a = b = |V| - 1)
        degenerate = gorenstein = 0
        for g in census_default:
            kinds = list(matroid.edge_kinds(g).values())
            if not kinds.count("del") == kinds.count("con") == g.n - 1:
                continue
            degenerate += 1
            assert len(delta_candidates(g)) <= 1
            verdict, point = is_gorenstein(g), gorenstein_oracle(g)
            assert (verdict and verdict[0]) == (point and point.delta)
            gorenstein += verdict is not None
        assert (degenerate, gorenstein) == (104, 33)

    def test_candidates_cover_spade_range(self, census_small):
        # any delta passing spade must appear among the candidates
        for g in census_small:
            cands = set(delta_candidates(g))
            for delta in range(2, g.m + 2):
                w = weight_function(g, delta)
                if w is not None and check_spade(g, w):
                    assert delta in cands


class TestIsGorenstein:
    def test_c2(self):
        delta, w = is_gorenstein(cycle_graph(2))
        assert delta == 2
        assert set(dict(w.weights).values()) == {1}

    def test_diamond(self):
        assert is_gorenstein(DIAMOND)[0] == 3

    def test_path_absent(self):
        assert is_gorenstein(Multigraph.from_edge_list(3, [(0, 1), (1, 2)])) is None

    def test_k2_absent(self):
        assert is_gorenstein(complete_graph(2)) is None

    def test_heart_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(criteria, "check_heart", lambda graph, assignment: False)
        with pytest.raises(RuntimeError, match="disagree"):
            is_gorenstein(DIAMOND)

    @pytest.mark.parametrize("delta, n", [(3, 24), (2, 20), (4, 22)])
    def test_glued_graph_at_its_construction_delta(self, delta, n):
        # sizes the flashlight subset pass makes affordable
        verdict = is_gorenstein(glued_chain(delta, n))
        assert verdict is not None and verdict[0] == delta

    def test_unique_delta_on_census(self, census_small):
        for g in census_small:
            hits = []
            for delta in delta_candidates(g):
                w = weight_function(g, delta)
                if w is not None and check_spade(g, w):
                    hits.append(delta)
            assert len(hits) <= 1

    def test_tie_rule_matches_oracle_point(self, census_small):
        # whenever deletion and contraction both work, the Gorenstein
        # point's coordinate is 1 (the nonnegativity facet forces it)
        for g in census_small:
            verdict = is_gorenstein(g)
            if verdict is None:
                continue
            delta, w = verdict
            point = gorenstein_oracle(g)
            assert point is not None and point.delta == delta
            index = {eid: i for i, eid in enumerate(e.eid for e in g.edges)}
            for eid, weight in w.weights:
                assert point.coordinates[index[eid]] == weight
