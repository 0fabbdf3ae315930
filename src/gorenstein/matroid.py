"""Matroid-level queries on a multigraph.

Deletable edges index the type-1 facets of the base polytope; good flats
index the type-2 facets.  One cached pass over vertex subsets
(`subset_pass`) records every S with |S| >= 2 whose induced subgraph is
2-connected, with its induced edges E(S) and the block count k(S) of the
contraction G/E(S).  The good flats are the proper records with k(S) = 1
(for proper S, G/E(S) is connected, so one block means 2-connected); the
heart check reads all of them, V included with k(V) = 0.

The pass works on bitmasks: a vertex subset is an int, each vertex has a
neighbour mask and each edge an endpoint mask.  A 2-connected subset is
connected, so the pass visits only the connected subsets, each grown once
from its minimum vertex by reverse search (Avis and Fukuda 1996;
Komusiewicz and Sorge 2015): C16 visits 241 subsets instead of 65,535.
A visited S with |S| >= 3 is 2-connected when S minus any one vertex is
still connected, tested by BFS over the masks; two adjacent vertices
count as 2-connected.  Only the 2-connected records pay for E(S) and for
k(S), which stays the block count of `contract_subset`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .multigraph import Multigraph


@dataclass(frozen=True)
class GoodFlat:
    subset: frozenset[int]
    induced_edge_ids: frozenset[int]


@lru_cache(maxsize=16384)
def edge_kinds(graph: Multigraph) -> Mapping[int, str | None]:
    """Per-edge weight dichotomy, independent of the dilation.

    'del' if deleting the edge keeps 2-connectivity (weight 1; ties go
    here), else 'con' if contracting keeps 2-connectivity (weight
    delta - 1), else None.  Read-only: every caller shares the cached map.
    """
    kinds: dict[int, str | None] = {}
    for e in graph.edges:
        if graph.delete_edge(e.eid).is_two_connected():
            kinds[e.eid] = "del"
        elif graph.contract_edge(e.eid).is_two_connected():
            kinds[e.eid] = "con"
        else:
            kinds[e.eid] = None
    return MappingProxyType(kinds)


def deletable_edges(graph: Multigraph) -> frozenset[int]:
    """Edges whose deletion keeps the graph 2-connected (type-1 facets)."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    return frozenset(e for e, k in edge_kinds(graph).items() if k == "del")


@lru_cache(maxsize=16384)
def subset_pass(
    graph: Multigraph,
) -> tuple[tuple[frozenset[int], frozenset[int], int], ...]:
    """(S, E(S), k(S)) for every 2-connected vertex subset S, V included.

    Ordered by size, then in combinations order within a size.
    """
    nbr = [0] * graph.n
    for e in graph.edges:
        nbr[e.u] |= 1 << e.v
        nbr[e.v] |= 1 << e.u
    edge_masks = [(e.eid, (1 << e.u) | (1 << e.v)) for e in graph.edges]
    out = []
    for s in _connected_subsets(nbr):
        if _two_connected(s, nbr):
            verts = _bits(s)
            fs = frozenset(verts)
            k = len(graph.contract_subset(fs).blocks())
            edges = frozenset(eid for eid, em in edge_masks if em & s == em)
            out.append(((len(verts), verts), (fs, edges, k)))
    out.sort(key=lambda rec: rec[0])
    return tuple(rec for _, rec in out)


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _connected_subsets(nbr: list[int]):
    """Every nonempty vertex mask inducing a connected subgraph, once each.

    Reverse search from the minimum vertex: a frame (S, N(S), F) grows S
    by each vertex of N(S) outside F in turn, and adds that vertex to F
    for the later siblings, so the branches partition the connected
    supersets of S that avoid F.
    """
    stack = [(1 << v, nbr[v], (2 << v) - 1) for v in range(len(nbr))]
    while stack:
        s, near, banned = stack.pop()
        yield s
        ext = near & ~banned
        while ext:
            w = ext & -ext
            ext ^= w
            banned |= w
            stack.append((s | w, near | nbr[w.bit_length() - 1], banned))


def _connected(mask: int, nbr: list[int]) -> bool:
    """BFS within the mask from its lowest vertex."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            reach |= nbr[w.bit_length() - 1]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def _two_connected(s: int, nbr: list[int]) -> bool:
    """Whether the connected subset S induces a 2-connected subgraph.

    As in `Multigraph.is_two_connected`, one vertex is not 2-connected
    and two adjacent vertices are; larger S must have no cut vertex.
    """
    size = s.bit_count()
    if size <= 2:
        return size == 2
    verts = _bits(s)
    # a vertex with one neighbour in S makes that neighbour a cut vertex
    if any((nbr[v] & s).bit_count() < 2 for v in verts):
        return False
    return all(_connected(s & ~(1 << v), nbr) for v in verts)


@lru_cache(maxsize=16384)
def good_flats(graph: Multigraph) -> tuple[GoodFlat, ...]:
    """All good flats, in a deterministic order (type-2 facets)."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    return tuple(GoodFlat(s, edges) for s, edges, k in subset_pass(graph) if k == 1)


def two_connected_subsets(graph: Multigraph) -> tuple[frozenset[int], ...]:
    """All vertex subsets (including V) inducing a 2-connected subgraph."""
    return tuple(s for s, _, _ in subset_pass(graph))
