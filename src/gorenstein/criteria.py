"""Combinatorial Gorenstein criteria on 2-connected multigraphs.

An edge gets weight 1 when its deletion keeps the graph 2-connected and
weight delta - 1 when only its contraction does (ties go to 1: the
nonnegativity facet forces coordinate 1 at the Gorenstein point).  The
spade check tests the two weight equalities over good flats; the heart
check tests the block-count equality over all 2-connected vertex
subsets.  Both decide the same property as the polyhedral oracle.

Spade is linear in delta.  With a_X deletable and b_X other edges in
E(X), its equation for X reads a_X - b_X + c_X = delta (|X| - 1 - b_X),
with c = 0 for X = V and c = 1 for a good flat.  One whose coefficient
|X| - 1 - b_X is nonzero allows at most one delta; one whose coefficient
is zero holds at every delta or at none.  So `delta_candidates` solves
the first equation that does not hold at every delta, V first, and
`is_gorenstein` checks the one dilation it gives.

Lemma.  On a 2-connected G other than K_2, some equation has a nonzero
coefficient.

Proof.  Let y be the indicator of the non-deletable edges, so
y(E(X)) = b_X.  Were every coefficient zero, y would vanish on the
deletable edges and have y(E(S)) = |S| - 1 on every good flat and
y(E) = |V| - 1: it would be the point that fact 2 of the `polytope`
docstring rules out for a base polytope with a facet.  This one has a
facet: each edge of G is deletable, a facet of its own, or "con", and
then its ends form a good flat (fact 1 there); only the edge of K_2 is
neither.

Both read the good flats of `matroid.good_flat_masks`, one cached search
per graph.  `check_spade` reads them through the sorted view
`matroid.good_flats`, and so does the decomposition search, which runs
spade through `check_spade`; `check_heart` and `delta_candidates` read
the masks directly.  Every flat carries E(S) as an edge-position mask,
so with one mask of the weight-1 edges and one of the weight-(delta - 1)
edges, w(E(S)) is two popcounts, and |S| is the popcount of S.

Heart needs only V and the good flats.  For a 2-connected G, any edge
weights w (an assignment that leaves edges out included: they weigh 0)
and any integer delta, let D(S) = w(E(S)) + k(S) - delta (|S| - 1),
where k(S) is the block count of G/E(S): k(V) = 0, and for a proper S
it is the number of components of G - S (see `matroid`).  Heart says
D(S) = 0 for every 2-connected S.

Lemma.  Let S != V be 2-connected with |S| >= 2, and let C_1, ..., C_c
be the components of G - S, so c = k(S) >= 1.  Then each T_i = V - C_i
is a good flat, and D(S) = (1 - c) D(V) + D(T_1) + ... + D(T_c).

Proof.  Every neighbour of C_j outside C_j lies in S.  Each C_j has at
least two neighbours in S: it has one, as G is connected, and were it
the only one it would be a cut vertex of G, with S minus it nonempty.
Take T_i = S with every C_j, j != i.  It is proper and holds S, and
G - T_i = C_i is connected.  G[T_i] is connected, as each C_j meets the
connected G[S].  Take a vertex x of T_i.  If x lies in S, G[S - x] is
connected (S is 2-connected) and each C_j with j != i keeps a
neighbour in S - x.  If x lies in C_j, each component of C_j - x has a
neighbour in S, or x would be a cut vertex of G.  Either way
G[T_i] - x is connected, so G[T_i] is 2-connected (if |T_i| = 2,
T_i = S), and T_i is a good flat with k(T_i) = 1.  For the identity,
no edge joins two components, so E is the disjoint union of E(S) and
the sets F_i of edges with an end in C_i, and E(T_i) = E - F_i.  With
n = |V|, the sum over i of D(T_i) is
  c w(E) - (w(E) - w(E(S))) + c - delta (c (n - 1) - (n - |S|)),
and adding (1 - c) D(V) = (1 - c) (w(E) - delta (n - 1)) leaves
w(E(S)) + c - delta (|S| - 1) = D(S).

So D vanishes on every 2-connected subset exactly when it vanishes on
V and on every good flat, and `check_heart` tests just those, counting
each flat's k(S) as the components of G - S rather than assuming 1.
`tests/oracles.py` keeps the pass over every 2-connected subset, with
k(S) from the blocks, as the full-definition reference.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import matroid
from .multigraph import Multigraph, _components


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

    def total(self) -> int:
        """w(E): the sum of every weight."""
        return sum(w for _, w in self.weights)


def weight_function(graph: Multigraph, delta: int) -> WeightAssignment | None:
    """The forced weight function at the given dilation, if it exists.

    Absent only for K_2, whose edge survives neither deletion nor
    contraction as a 2-connected graph; the graph must be 2-connected.
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


def _weigher(graph: Multigraph, assignment: WeightAssignment) -> Callable[[int], int]:
    """w of an edge-position mask, as popcounts against the weight-1 and
    the weight-(delta - 1) edges; an edge the assignment lacks is in
    neither and counts 0."""
    weight_of = dict(assignment.weights)
    light = heavy = 0
    for i, e in enumerate(graph.edges):
        w = weight_of.get(e.eid)
        if w == 1:
            light |= 1 << i
        elif w is not None:
            heavy |= 1 << i
    heavy_weight = assignment.delta - 1

    def weigh(edges: int) -> int:
        return (edges & light).bit_count() + heavy_weight * (edges & heavy).bit_count()

    return weigh


def check_spade(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """w(E) = delta (|V|-1) and w(E(S)) + 1 = delta (|S|-1) per good flat,
    the flats read from `matroid.good_flats` only once the first holds."""
    delta = assignment.delta
    if assignment.total() != delta * (graph.n - 1):
        return False
    weigh = _weigher(graph, assignment)
    return all(
        weigh(flat.edge_mask) + 1 == delta * (flat.mask.bit_count() - 1)
        for flat in matroid.good_flats(graph)
    )


def check_heart(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """w(E(S)) + k(S) = delta (|S|-1) for every 2-connected S, V included.

    k(S) is the block count of the contraction of E(S); k(V) = 0.  By
    the lemma in the module docstring, V and the good flats decide it.
    """
    delta = assignment.delta
    weigh = _weigher(graph, assignment)
    if weigh((1 << graph.m) - 1) != delta * (graph.n - 1):
        return False
    nbr = graph.neighbour_masks
    full = (1 << graph.n) - 1
    return all(
        weigh(edges) + _components(full ^ s, nbr) == delta * (s.bit_count() - 1)
        for s, edges in matroid.good_flat_masks(graph)
    )


def delta_candidates(graph: Multigraph) -> list[int]:
    """The one dilation the spade equations allow, as a list: [delta],
    or [] when none is an integer >= 2 or the graph is K_2.

    The equations are read as linear in delta, the total over E first,
    then the good flats of `matroid.good_flat_masks` in search order,
    which are searched only when the total leaves delta free; the first
    one that does not hold at every delta decides.  By the lemma in the
    module docstring (fact 2 of `polytope`, with y the indicator of the
    non-deletable edges) one always does: running out raises
    RuntimeError.
    """
    kinds = matroid.edge_kinds(graph)
    if None in kinds.values():
        return []
    heavy = sum(1 << i for i, e in enumerate(graph.edges) if kinds[e.eid] == "con")
    for size, edges, c in _spade_equations(graph):
        b = (edges & heavy).bit_count()
        coefficient, const = size - 1 - b, edges.bit_count() - 2 * b + c
        if coefficient:
            delta, rest = divmod(const, coefficient)
            return [delta] if rest == 0 and delta >= 2 else []
        if const:
            return []
    raise RuntimeError("no spade equation fixes delta")


def _spade_equations(graph: Multigraph) -> Iterator[tuple[int, int, int]]:
    """(|X|, E(X), c) for X = V, then each good flat, the flats searched
    only if read."""
    yield graph.n, (1 << graph.m) - 1, 0
    for s, edges in matroid.good_flat_masks(graph):
        yield s.bit_count(), edges, 1


def is_gorenstein(graph: Multigraph) -> tuple[int, WeightAssignment] | None:
    """Decide the Gorenstein property via the weight criterion.

    Returns the dilation and weight function of the one candidate when
    it passes the spade check, or None (also for non-2-connected input).
    The heart check must agree whenever the spade check fires; a
    disagreement raises RuntimeError.
    """
    if not graph.is_two_connected():
        return None
    for delta in delta_candidates(graph):  # at most one
        assignment = weight_function(graph, delta)
        if check_spade(graph, assignment):
            if not check_heart(graph, assignment):
                raise RuntimeError("spade/heart criteria disagree")
            return delta, assignment
    return None
