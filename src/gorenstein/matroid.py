"""Matroid-level queries on a multigraph.

Deletable edges index the type-1 facets of the base polytope; good flats
index the type-2 facets.  One cached pass over vertex subsets
(`subset_pass`) records every S with |S| >= 2 whose induced subgraph is
2-connected, with its induced edges E(S) and the block count k(S) of the
contraction G/E(S).  The good flats are the proper records with k(S) = 1
(for proper S, G/E(S) is connected, so one block means 2-connected); the
heart check reads all of them, V included with k(V) = 0.
"""

from __future__ import annotations

import itertools
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
    out = []
    for size in range(2, graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            s = frozenset(combo)
            if graph.induced_subgraph(s).is_two_connected():
                k = len(graph.contract_subset(s).blocks())
                out.append((s, graph.edges_within(s), k))
    return tuple(out)


@lru_cache(maxsize=16384)
def good_flats(graph: Multigraph) -> tuple[GoodFlat, ...]:
    """All good flats, in a deterministic order (type-2 facets)."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    return tuple(GoodFlat(s, edges) for s, edges, k in subset_pass(graph) if k == 1)


def two_connected_subsets(graph: Multigraph) -> tuple[frozenset[int], ...]:
    """All vertex subsets (including V) inducing a 2-connected subgraph."""
    return tuple(s for s, _, _ in subset_pass(graph))
