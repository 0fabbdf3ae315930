"""Combinatorial Gorenstein criteria on 2-connected multigraphs.

An edge gets weight 1 when its deletion keeps the graph 2-connected and
weight delta - 1 when only its contraction does (ties go to 1: the
nonnegativity facet forces coordinate 1 at the Gorenstein point).  The
spade check tests the two weight equalities over good flats; the heart
check tests the block-count equality over all 2-connected vertex
subsets.  Both decide the same property as the polyhedral oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matroid
from .multigraph import Multigraph


@dataclass(frozen=True)
class WeightAssignment:
    delta: int
    weights: tuple[tuple[int, int], ...]  # sorted (edge_id, weight) pairs

    def __post_init__(self):
        for eid, w in self.weights:
            if w not in (1, self.delta - 1):
                raise ValueError(
                    f"edge {eid}: weight {w} is neither 1 nor delta - 1 = {self.delta - 1}"
                )

    def total(self, edge_ids=None) -> int:
        if edge_ids is None:
            return sum(w for _, w in self.weights)
        wanted = set(edge_ids)
        return sum(w for eid, w in self.weights if eid in wanted)


def weight_function(graph: Multigraph, delta: int) -> WeightAssignment | None:
    """The forced weight function at the given dilation, if it exists.

    Absent when some edge survives neither deletion nor contraction as a
    2-connected graph.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    kinds = matroid.edge_kinds(graph)
    weights = []
    for eid in sorted(kinds):
        kind = kinds[eid]
        if kind == "del":
            weights.append((eid, 1))
        elif kind == "con":
            weights.append((eid, delta - 1))
        else:
            return None
    return WeightAssignment(delta, tuple(weights))


def check_spade(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """w(E) = delta (|V|-1) and w(E(S)) + 1 = delta (|S|-1) per good flat."""
    delta = assignment.delta
    if assignment.total() != delta * (graph.n - 1):
        return False
    for flat in matroid.good_flats(graph):
        if assignment.total(flat.induced_edge_ids) + 1 != delta * (len(flat.subset) - 1):
            return False
    return True


def check_heart(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """w(E(S)) + k(S) = delta (|S|-1) for every 2-connected S, V included.

    k(S) is the block count of the contraction of E(S); k(V) = 0.
    """
    delta = assignment.delta
    for subset, edges, k in matroid.subset_pass(graph):
        if assignment.total(edges) + k != delta * (len(subset) - 1):
            return False
    return True


def delta_candidates(graph: Multigraph) -> list[int]:
    """Dilations compatible with the global weight equality.

    With a deletable edges (weight 1) and b others (weight delta - 1),
    a + (delta - 1) b = delta (|V| - 1) pins delta unless b = |V| - 1;
    the degenerate branch (a = b = |V| - 1) admits every delta and is
    left to the spade check over the standard scan range.
    """
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    kinds = matroid.edge_kinds(graph)
    if any(k is None for k in kinds.values()):
        return []
    a = sum(1 for k in kinds.values() if k == "del")
    b = len(kinds) - a
    r = graph.n - 1
    if b != r:
        num, den = a - b, r - b
        if num % den == 0:
            delta = num // den
            if delta >= 2:
                return [delta]
        return []
    if a == b:
        return list(range(2, max(graph.m, 3) + 1))
    return []


def is_gorenstein(graph: Multigraph) -> tuple[int, WeightAssignment] | None:
    """Decide the Gorenstein property via the weight criterion.

    Returns the dilation and weight function of the first candidate
    passing the spade check, or None (also for non-2-connected input).
    The heart check must agree whenever the spade check fires; a
    disagreement raises RuntimeError.
    """
    if not graph.is_two_connected():
        return None
    for delta in delta_candidates(graph):
        assignment = weight_function(graph, delta)
        if assignment is None:
            return None
        if check_spade(graph, assignment):
            if not check_heart(graph, assignment):
                raise RuntimeError("spade/heart criteria disagree")
            return delta, assignment
    return None
