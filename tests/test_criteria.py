import pytest

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
from oracles import contract_subset

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


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
        assert w.total([4]) == 1  # the chord is the only weight-1 edge


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


class TestCheckHeart:
    def test_k4_at_two(self):
        assert check_heart(complete_graph(4), weight_function(complete_graph(4), 2))

    def test_c2_at_two(self):
        assert check_heart(cycle_graph(2), weight_function(cycle_graph(2), 2))

    def test_full_set_reduces_to_global_equation(self):
        # V itself is a 2-connected subset with k(V) = 0
        g = cycle_graph(4)
        assert frozenset(range(4)) in matroid.two_connected_subsets(g)
        assert len(contract_subset(g, frozenset(range(4))).blocks()) == 0

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
