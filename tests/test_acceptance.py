"""Acceptance suite: one test and one printed pass/fail line per criterion.

The census fixtures (bounds: 5 vertices, 8 edges, multiplicity 4) are
shared session-wide; every verdict is exact, no tolerances anywhere.
"""

import pytest

from gorenstein.census import CensusBounds, verify_classification
from gorenstein.constructions import GluingSpec, delta_gluing, replay
from gorenstein.criteria import check_heart, check_spade, weight_function
from gorenstein.multigraph import (
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from gorenstein.polytope import build_polytope, gorenstein_oracle, gorenstein_point_at
from oracles import hull_facets_oracle, never_delta_one, spanning_tree_count

BOUNDS = CensusBounds(max_vertices=5, max_edges=8, max_multiplicity=4)


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def spade_at(graph, delta):
    w = weight_function(graph, delta)
    return w is not None and check_spade(graph, w)


@pytest.fixture(scope="module")
def polytopes(census_full):
    return [(g, build_polytope(g)) for g in census_full]


def test_criterion_1_simplex_family():
    ok = True
    for n in range(2, 9):
        g = banana_graph(n)
        point = gorenstein_oracle(g)
        ok = ok and point is not None and point.delta == n
        ok = ok and point.coordinates == (1,) * n
        ok = ok and spade_at(g, n)
        ok = ok and all(not spade_at(g, d) for d in range(2, n + 2) if d != n)
    report("criterion 1: two-vertex n-edge family Gorenstein at delta = n", ok)


def test_criterion_2_seeds():
    ok = all(spade_at(cycle_graph(d), d) for d in range(2, 9))
    ok = ok and spade_at(complete_graph(4), 2)
    ok = ok and spade_at(cycle_graph(2), 2)
    report("criterion 2: cycle seeds, K_4 and C_2 satisfy the spade equalities", ok)


def test_criterion_3_gluing_example():
    c3 = cycle_graph(3)
    chord = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    glued3 = delta_gluing(GluingSpec(c3, frozenset([0]), c3, frozenset([0]), 3))
    glued2 = delta_gluing(GluingSpec(c3, frozenset([0]), c3, frozenset([0]), 2))
    ok = glued3.canonical_form == chord.canonical_form
    ok = ok and spade_at(glued3, 3)
    ok = ok and glued2.canonical_form == cycle_graph(4).canonical_form
    report("criterion 3: 3-gluing of triangles is C_4 with a chord (2-gluing: C_4)", ok)


def test_criterion_4_counterexample():
    g1 = Multigraph.from_edge_list(4, [(0, 1)] * 4 + [(1, 2), (2, 3), (0, 3)])
    g2 = Multigraph.from_edge_list(
        6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (3, 5)]
    )
    f1 = frozenset(e.eid for e in g1.edges if (e.u, e.v) == (0, 1))
    glued = delta_gluing(GluingSpec(g1, f1, g2, frozenset([3]), 4))
    point = gorenstein_oracle(glued)
    ok = not spade_at(g1, 4)
    ok = ok and not spade_at(g2, 4)
    ok = ok and spade_at(glued, 4)
    ok = ok and point is not None and point.delta == 4
    report("criterion 4: non-spade parts can 4-glue to a spade graph", ok)


def test_criterion_5_criterion_equivalence(polytopes):
    mismatches = 0
    for g, poly in polytopes:
        for delta in range(2, g.m + 2):
            w = weight_function(g, delta)
            spade = w is not None and check_spade(g, w)
            heart = w is not None and check_heart(g, w)
            oracle = gorenstein_point_at(poly, delta) is not None
            if not (spade == heart == oracle):
                mismatches += 1
    report(
        "criterion 5: spade = heart = polyhedral oracle over the full census",
        mismatches == 0,
    )


def test_criterion_6_facet_duality(polytopes):
    mismatches = 0
    for _, poly in polytopes:
        if len(poly.vertices) < 2:
            continue  # point polytope: no facets on either side
        hull = hull_facets_oracle(poly.vertices)

        def profile(f):
            return tuple(f.distance(v, 1) for v in poly.vertices)

        if {profile(f) for f in poly.facets} != {profile(f) for f in hull}:
            mismatches += 1
    report("criterion 6: facet families equal the hull oracle's facets", mismatches == 0)


def test_criterion_7_classification(census_full):
    mismatches = 0
    for delta in (2, 3, 4):
        rep = verify_classification(delta, BOUNDS)
        mismatches += len(rep["mismatches"])
        for entry in rep["gorenstein"]:
            from gorenstein.constructions import trace_from_json

            rebuilt = replay(trace_from_json(entry["trace"]))
            if [list(r) for r in rebuilt.canonical_form] != entry["canonical"]:
                mismatches += 1
    report(
        "criterion 7: spade <=> replayable decomposition trace at delta = 2, 3, 4",
        mismatches == 0,
    )


def test_criterion_8_spanning_tree_oracle(census_full):
    ok = spanning_tree_count(complete_graph(4)) == 16
    for g in census_full:
        if len(g.spanning_trees()) != spanning_tree_count(g):
            ok = False
    report("criterion 8: spanning-tree enumeration matches Matrix-Tree counts", ok)


def test_criterion_9_delta_never_one(census_full):
    ok = True
    for g in census_full:
        if g.m < 2:
            continue  # the oracle's precondition excludes the single edge
        if not never_delta_one(g):
            ok = False
    report("criterion 9: no dilation-1 interior lattice points in the census", ok)
