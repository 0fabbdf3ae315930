import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from gorenstein import cli, matroid
from gorenstein.census import CensusBounds, census_record, verify_equivalence
from gorenstein.lattice import dot, kernel_basis_with_dual
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from gorenstein.polytope import (
    KIND_GOOD_FLAT,
    KIND_NONNEGATIVITY,
    FacetInequality,
    build_polytope,
    default_delta_max,
    gorenstein_oracle,
    gorenstein_point_at,
    polytope_to_json,
)
import oracles
from glued import glued_chain, two_connected_multigraphs
from oracles import (
    build_polytope_by_enumeration,
    hull_facets_oracle,
    lattice_points,
    never_delta_one,
)

DIAMOND = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def polytope_dim(poly):
    return poly.ambient_dim - 1  # full-dimensional in the sum slice


def tight_vertices(poly, facet):
    return [v for v in poly.vertices if facet.distance(v, 1) == 0]


def assert_equals_enumeration(graph):
    poly = build_polytope(graph)
    ref = build_polytope_by_enumeration(graph)
    assert poly.ambient_dim == ref.ambient_dim
    assert poly.rank == ref.rank
    assert poly.edge_ids == ref.edge_ids
    # FacetInequality equality covers kind, edge, subset, normal, offset
    # and the reduced form; tuple equality covers the order
    assert poly.facets == ref.facets
    assert poly.vertices == ref.vertices


def greedy_over_every_edge(graph) -> set[int]:
    """Positions of the spanning tree that matroid greedy grows from all
    edges in order: an edge is taken when it joins two components."""
    comp = list(range(graph.n))
    tree = set()
    for i, e in enumerate(graph.edges):
        a, b = comp[e.u], comp[e.v]
        if a != b:
            comp = [a if c == b else c for c in comp]
            tree.add(i)
    return tree


class TestBuildPolytope:
    def test_banana_is_standard_simplex(self):
        poly = build_polytope(banana_graph(4))
        assert poly.rank == 1
        assert sorted(poly.vertices) == sorted(
            tuple(1 if i == j else 0 for i in range(4)) for j in range(4)
        )
        assert len(poly.facets) == 4
        assert all(f.kind == "nonnegativity" for f in poly.facets)

    def test_triangle(self):
        poly = build_polytope(cycle_graph(3))
        assert poly.vertices == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        # facets are x_e <= 1 via the 2-element good flats
        assert len(poly.facets) == 3
        assert all(f.kind == "good_flat" for f in poly.facets)
        assert all(f.offset == 1 for f in poly.facets)

    def test_k4_vertex_and_facet_counts(self):
        poly = build_polytope(complete_graph(4))
        assert len(poly.vertices) == 16
        # 6 nonnegativity + 10 good flats; all verified full-dimensional
        assert len(poly.facets) == 16

    def test_vertex_sums_equal_rank(self):
        for g in (complete_graph(4), DIAMOND, banana_graph(3)):
            poly = build_polytope(g)
            assert all(sum(v) == poly.rank for v in poly.vertices)
            assert len(set(poly.vertices)) == len(poly.vertices)

    def test_rejects_non_two_connected(self):
        with pytest.raises(ValueError):
            build_polytope(Multigraph.from_edge_list(3, [(0, 1), (1, 2)]))

    def test_facets_hold_on_all_vertices(self, census_small):
        for g in census_small:
            poly = build_polytope(g)
            for f in poly.facets:
                for v in poly.vertices:
                    assert f.holds(v, 1)
                    assert f.distance(v, 1) >= 0

    def test_facet_tight_sets_span(self, census_small):
        for g in census_small:
            poly = build_polytope(g)
            if len(poly.vertices) < 2:
                continue
            for f in poly.facets:
                assert len(tight_vertices(poly, f)) >= polytope_dim(poly)

    def test_equals_enumeration_on_census(self, census_full):
        for g in census_full:
            assert_equals_enumeration(g)

    @pytest.mark.parametrize("delta, n", [(2, 8), (3, 9), (4, 10)])
    def test_equals_enumeration_on_glued_graphs(self, delta, n):
        g = glued_chain(delta, n)
        assert g.is_two_connected() and 12 <= g.m <= 14
        assert_equals_enumeration(g)

    @settings(deadline=None)
    @given(two_connected_multigraphs())
    def test_equals_enumeration_on_random_multigraphs(self, g):
        assert g.is_two_connected()
        assert_equals_enumeration(g)

    def test_shared_and_own_witnesses_equal_enumeration(self):
        # the greedy tree over every edge lies on some facets of each kind
        # (it is their witness) and off others (each takes its own run)
        seen = Counter()
        for delta, n in [(2, 7), (2, 8), (3, 9), (4, 10)]:
            chain = glued_chain(delta, n)
            for g in (chain, chain.shuffled(random.Random(n))):
                assert_equals_enumeration(g)
                tree = greedy_over_every_edge(g)
                index = {e.eid: i for i, e in enumerate(g.edges)}
                for f in build_polytope(g).facets:
                    if f.kind == KIND_NONNEGATIVITY:
                        on = index[f.edge] not in tree
                    else:
                        on = sum(f.normal[i] for i in tree) == f.offset
                    seen[f.kind, on] += 1
        for kind in (KIND_NONNEGATIVITY, KIND_GOOD_FLAT):
            assert seen[kind, True] > 0 and seen[kind, False] > 0, seen

    def test_witness_off_flat_raises(self, monkeypatch):
        # {0, 2} induces no edge of C4, so no tree has one edge inside it
        fake = (matroid.GoodFlat(frozenset({0, 2}), 0),)
        monkeypatch.setattr(matroid, "good_flats", lambda graph: fake)
        with pytest.raises(RuntimeError, match="off the flat"):
            build_polytope(cycle_graph(4))

    def test_reduced_functionals_primitive(self, census_small):
        from math import gcd

        for g in census_small:
            poly = build_polytope(g)
            m = poly.ambient_dim
            basis, _ = kernel_basis_with_dual([[1] * m], m)
            for f in poly.facets:
                values = [dot(f.reduced_normal, b) for b in basis]
                acc = 0
                for v in values:
                    acc = gcd(acc, abs(v))
                assert acc == 1


class TestHullOracle:
    def test_standard_two_simplex(self):
        facets = hull_facets_oracle([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(facets) == 3

    def test_c4_facets(self):
        poly = build_polytope(cycle_graph(4))
        facets = hull_facets_oracle(poly.vertices)
        assert len(facets) == 4

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            hull_facets_oracle([(1, 1), (1, 1)])

    @pytest.mark.parametrize("graph", [complete_graph(4), DIAMOND, banana_graph(3)])
    def test_matches_facet_families(self, graph):
        poly = build_polytope(graph)
        hull = hull_facets_oracle(poly.vertices)

        def key(f):
            return frozenset(
                i for i, v in enumerate(poly.vertices) if f.distance(v, 1) == 0
            )

        assert {key(f) for f in poly.facets} == {key(f) for f in hull}

    def test_unsaturated_basis_raises(self, monkeypatch):
        def doubled(rows, n):
            basis, duals = kernel_basis_with_dual(rows, n)
            return [[2 * x for x in row] for row in basis], duals

        monkeypatch.setattr(oracles, "kernel_basis_with_dual", doubled)
        with pytest.raises(RuntimeError, match="does not recover"):
            hull_facets_oracle([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_non_primitive_ray_raises(self, monkeypatch):
        def even_ray(rows, dim):
            return [(1,) + (2,) * (dim - 1)], [frozenset()]

        monkeypatch.setattr(oracles, "_dual_cone_rays", even_ray)
        with pytest.raises(RuntimeError, match="no integer primitive form"):
            hull_facets_oracle([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_reduced_distances_agree(self):
        # matched facets must induce identical lattice distance functions
        poly = build_polytope(DIAMOND)
        hull = hull_facets_oracle(poly.vertices)

        def profile(f):
            return tuple(f.distance(v, 1) for v in poly.vertices)

        assert {profile(f) for f in poly.facets} == {profile(f) for f in hull}


class TestLatticePoints:
    def test_segment_dilation_two(self):
        poly = build_polytope(cycle_graph(2))
        assert sorted(lattice_points(poly, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_triangle_dilation_one(self):
        poly = build_polytope(cycle_graph(3))
        assert sorted(lattice_points(poly, 1)) == sorted(poly.vertices)

    def test_triangle_dilation_three_vs_grid(self):
        poly = build_polytope(cycle_graph(3))
        grid = [
            p
            for p in itertools.product(range(4), repeat=3)
            if sum(p) == 6 and all(f.holds(p, 3) for f in poly.facets)
        ]
        assert sorted(lattice_points(poly, 3)) == sorted(grid)

    def test_k4_dilation_two_vs_grid(self):
        poly = build_polytope(complete_graph(4))
        grid = [
            p
            for p in itertools.product(range(3), repeat=6)
            if sum(p) == 6 and all(f.holds(p, 2) for f in poly.facets)
        ]
        assert sorted(lattice_points(poly, 2)) == sorted(grid)

    def test_normality_smoke(self):
        for g in (cycle_graph(3), DIAMOND):
            poly = build_polytope(g)
            pts1 = lattice_points(poly, 1)
            pts2 = set(lattice_points(poly, 2))
            for a in pts1:
                for b in pts1:
                    assert tuple(x + y for x, y in zip(a, b)) in pts2


class TestGorensteinOracle:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_banana_family(self, n):
        point = gorenstein_oracle(banana_graph(n))
        assert point is not None
        assert point.delta == n
        assert point.coordinates == (1,) * n

    @pytest.mark.parametrize("delta", range(2, 7))
    def test_cycle_family(self, delta):
        point = gorenstein_oracle(cycle_graph(delta))
        assert point is not None
        assert point.delta == delta
        assert point.coordinates == (delta - 1,) * delta

    def test_k4(self):
        point = gorenstein_oracle(complete_graph(4))
        assert point is not None
        assert (point.delta, point.coordinates) == (2, (1,) * 6)

    def test_diamond_at_three(self):
        point = gorenstein_oracle(DIAMOND)
        assert point is not None
        assert point.delta == 3

    def test_rejects_non_two_connected(self):
        with pytest.raises(ValueError):
            gorenstein_oracle(Multigraph.from_edge_list(3, [(0, 1), (1, 2)]))

    def test_point_off_distance_one_raises(self, monkeypatch):
        poly = build_polytope(complete_graph(4))
        monkeypatch.setattr(FacetInequality, "distance", lambda self, point, dilation=1: 2)
        with pytest.raises(RuntimeError, match="distance 1"):
            gorenstein_point_at(poly, 2)

    def test_facet_free_polytope_has_no_index_in_scan(self):
        poly = build_polytope(complete_graph(2))
        assert poly.facets == ()
        assert gorenstein_point_at(poly, 2) is None

    def test_delta_unique_on_census(self, census_small):
        for g in census_small:
            poly = build_polytope(g)
            hits = [
                d
                for d in range(2, default_delta_max(g) + 1)
                if poly.facets and gorenstein_point_at(poly, d) is not None
            ]
            assert len(hits) <= 1
            # the Gorenstein index is the codegree, at most dim + 1 = m
            assert all(d <= g.m for d in hits)


class TestDistanceOneSystem:
    """The cached dilation-free system leaks no state between dilations."""

    @staticmethod
    def scan_matches_fresh(graph) -> int:
        """Every dilation 2..m+1 on one polytope, descending then ascending,
        against a fresh polytope per call; returns the number of hits."""
        poly = build_polytope(graph)
        deltas = list(range(2, graph.m + 2))
        hits = 0
        for d in deltas[::-1] + deltas:
            point = gorenstein_point_at(poly, d)
            assert point == gorenstein_point_at(build_polytope(graph), d), d
            hits += point is not None
        return hits

    def test_census(self, census_full):
        assert sum(self.scan_matches_fresh(g) for g in census_full) > 0

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_glued_chains(self, delta):
        for n in (6, 8, 10):
            # Gorenstein at delta: one hit per direction
            assert self.scan_matches_fresh(glued_chain(delta, n)) == 2


class TestNeverDeltaOne:
    @pytest.mark.parametrize(
        "graph", [cycle_graph(3), complete_graph(4), banana_graph(2), DIAMOND]
    )
    def test_examples(self, graph):
        assert never_delta_one(graph)

    def test_requires_two_edges(self):
        with pytest.raises(ValueError):
            never_delta_one(complete_graph(2))


class TestNoTreeEnumeration:
    """The oracle path reads the facets only; the vertices are listed on request."""

    @pytest.fixture
    def no_trees(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("spanning trees enumerated")

        monkeypatch.setattr(Multigraph, "spanning_trees", refuse)

    def test_oracle(self, no_trees):
        assert gorenstein_oracle(complete_graph(4)).delta == 2
        assert gorenstein_oracle(DIAMOND).delta == 3
        assert gorenstein_oracle(glued_chain(3, 9)).delta == 3

    def test_census_record(self, no_trees, census_full):
        for g in census_full:
            assert census_record(g).facet_count == len(build_polytope(g).facets)

    def test_never_delta_one(self, no_trees):
        assert never_delta_one(DIAMOND)
        assert never_delta_one(complete_graph(4))

    def test_verify_equivalence(self, no_trees):
        report = verify_equivalence(CensusBounds(4, 6, 3))
        assert report["mismatches"] == []

    def test_check_oracle_command(self, no_trees, capsys, tmp_path):
        p = tmp_path / "diamond.txt"
        p.write_text(DIAMOND.format())
        assert cli.run(["check", str(p), "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == 3

    @pytest.mark.parametrize("graph", [DIAMOND, complete_graph(4), glued_chain(3, 7)])
    def test_facets_command_prints_enumerated_vertices(self, graph, capsys, tmp_path):
        p = tmp_path / "graph.txt"
        p.write_text(graph.format())
        assert cli.run(["facets", str(p)]) == 0
        parsed = Multigraph.parse(graph.format())  # edge ids as the file numbers them
        reference = polytope_to_json(build_polytope_by_enumeration(parsed))
        assert capsys.readouterr().out == cli._dumps(reference) + "\n"
