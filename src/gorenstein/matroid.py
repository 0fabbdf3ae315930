"""Matroid-level queries on a multigraph.

Deletable edges index the type-1 facets of the base polytope; good flats
index the type-2 facets.  One cached pass over vertex subsets
(`subset_pass`) records every S with |S| >= 2 whose induced subgraph is
2-connected, with its induced edges E(S) and the block count k(S) of the
contraction G/E(S).  The good flats are the proper records with k(S) = 1
(for proper S, G/E(S) is connected, so one block means 2-connected); the
heart check reads all of them, V included with k(V) = 0.

A record is three ints: S as a vertex mask, E(S) as an edge-position
mask (bit i stands for `graph.edges[i]`) and k(S), in the order the
search finds them.  The criteria sum weights over E(S) by popcount.
`good_flat_masks` keeps the records with k(S) = 1 as (S, E(S)) pairs;
`good_flats` and `two_connected_subsets` are the frozenset views that the
criteria, the polytope and the CLI output read, sorted by size, then in
combinations order within a size, and built only when called.  A
`GoodFlat` keeps its E(S) mask beside the edge ids.

Every connectivity question here is a search over bitmasks: a vertex
subset is an int, each vertex has a neighbour mask and a mask of its
incident edge positions, and each edge an endpoint mask.  The masks,
the blocks of G and the searches over them come from the connectivity
kernel of `multigraph`; no minor is ever built.

The pass is a flashlight search over blocks, the binary-partition
backtrack of Read and Tarjan ("Bounds on backtrack algorithms for listing
cycles, paths, and spanning trees", 1975).  A node is a pair (I, U) in
which U induces a 2-connected subgraph and contains I; it stands for the
2-connected S with I <= S <= U, and U is one of them.  The node branches
on a vertex w of U - I: either w joins I, or w leaves U and the search
descends into each block of G[U - w] that contains I.  That covers every
S without w, since a 2-connected S inside U - w lies in one block of
G[U - w], and each such block is a 2-connected subset itself (a block
holds every edge G[U - w] has between its vertices).  A node emits I
once U = I.  The search starts from each vertex v, in the blocks of
G[{v, ..., n-1}] that contain v, so each S is found once, from its
lowest vertex.  Each branch shrinks U - I, so a root-to-leaf path has at
most n nodes; and every node lies on such a path to an output, the one
that keeps adding w until I = U.  So there are at most n nodes per
record, each paying at most one block computation: a single mask-native
block DFS rooted at a vertex of I (`multigraph._blocks`).  An exclusion
often needs none.  In the 2-connected G[U] every vertex has two
neighbours, so only a vertex x of I adjacent to w can keep fewer in
U - w: with none left, no block of G[U - w] holds x and the branch
ends; with one, y, the edge xy is a bridge and {x, y} is the one block
that holds x, so the node (I, {x, y}) follows when I <= {x, y}.  On
the glued delta = 3 graph with 28 vertices of the tests
(`glued_chain(3, 28)`) that is 87,943 nodes for 39,386 records, where
testing each connected subset visited 16.7 M of them.  Two adjacent
vertices count as 2-connected, and parallel edges do not change the
vertex sets of blocks.

Each record then gets E(S) and k(S).  An S lies in one block B of G.
In B/E(S), a vertex w other than the contracted one is no cut vertex,
because B - w stays connected and (B/E(S)) - w = (B - w)/E(S); so the
blocks of B/E(S) are the components of B - S, each joined to the
contracted vertex, and the other blocks of G are untouched: k(S) =
(blocks of G) - 1 + (components of B - S).  The blocks of G are the
cached `Multigraph.block_masks`.

The edge kinds follow from the blocks of G and the same fact about
contractions.  A cut vertex of G is a vertex that lies in two blocks.

- "del": G - e is 2-connected.  That needs G 2-connected, i.e. its
  blocks are the single full mask; then a parallel copy of e keeps it
  so, and otherwise (n >= 3) the blocks of G - e must be the full mask
  again.
- "con": G/e is 2-connected, which needs n >= 3 and G connected.  For a
  vertex w outside e, (G/e) - w = (G - w)/e, so w is a cut vertex of G/e
  exactly when it is one of G; and the merged vertex is a cut vertex of
  G/e exactly when G - {u, v} is disconnected.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .multigraph import Edge, Multigraph, _bits, _blocks, _components, _reach


@dataclass(frozen=True)
class GoodFlat:
    subset: frozenset[int]
    edge_mask: int  # E(S) by position: bit i stands for graph.edges[i]


@lru_cache(maxsize=16384)
def edge_kinds(graph: Multigraph) -> Mapping[int, str | None]:
    """Per-edge weight dichotomy, independent of the dilation.

    'del' if deleting the edge keeps 2-connectivity (weight 1; ties go
    here), else 'con' if contracting keeps 2-connectivity (weight
    delta - 1), else None.  Read-only: every caller shares the cached map.
    """
    n = graph.n
    nbr = graph.neighbour_masks
    full = (1 << n) - 1
    blocks = graph.block_masks
    connected = graph.is_connected()
    seen = cut = 0
    for b in blocks:  # a vertex in two blocks is a cut vertex
        cut |= seen & b
        seen |= b
    two_connected = blocks == (full,)
    copies = Counter((e.u, e.v) for e in graph.edges)
    kinds: dict[int, str | None] = {}
    for e in graph.edges:
        rest = full & ~((1 << e.u) | (1 << e.v))
        if two_connected and (
            copies[e.u, e.v] > 1 or n >= 3 and _blocks(1, full, _without(nbr, e)) == [full]
        ):
            kinds[e.eid] = "del"
        elif n >= 3 and connected and not cut & rest and _reach(rest, nbr) == rest:
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
def subset_pass(graph: Multigraph) -> tuple[tuple[int, int, int], ...]:
    """(S, E(S), k(S)) for every 2-connected vertex subset S, V included.

    S is a vertex mask and E(S) an edge-position mask, bit i standing for
    `graph.edges[i]`: all edges but those at a vertex outside S.  The
    records come in the order the flashlight search emits them.
    """
    nbr = graph.neighbour_masks
    incident = [0] * graph.n
    for i, e in enumerate(graph.edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
    full = (1 << graph.n) - 1
    every_edge = (1 << graph.m) - 1
    blocks = graph.block_masks
    others = len(blocks) - 1
    out = []
    for s in _two_connected_masks(nbr):
        for home in blocks:
            if s & home == s:
                break
        cut = 0
        rest = full ^ s
        while rest:
            w = rest & -rest
            rest ^= w
            cut |= incident[w.bit_length() - 1]
        out.append((s, every_edge & ~cut, others + _components(home & ~s, nbr)))
    return tuple(out)


def _two_connected_masks(nbr: Sequence[int]) -> list[int]:
    """Every vertex mask inducing a 2-connected subgraph, by flashlight search.

    A frame (inner, outer) is a node (I, U) of the search in the module
    docstring; the branch vertex w is the lowest of U - I.
    """
    out = []
    above = (1 << len(nbr)) - 1
    for v in range(len(nbr)):
        low = 1 << v
        stack = [(low, b) for b in _blocks(low, above, nbr) if b & low]
        above ^= low
        while stack:
            inner, outer = stack.pop()
            if inner == outer:
                out.append(inner)
                continue
            w = outer & ~inner
            w &= -w
            stack.append((inner | w, outer))
            rest = outer ^ w
            if not rest & (rest - 1):  # no block has two vertices
                continue
            near = nbr[w.bit_length() - 1] & inner
            while near:  # only a neighbour of w can keep < 2 neighbours
                x = near & -near
                near ^= x
                y = nbr[x.bit_length() - 1] & rest
                if not y & (y - 1):  # {x, y} is the one block that holds x
                    if y and not inner & ~(x | y):
                        stack.append((inner, x | y))
                    break
            else:
                for b in _blocks(inner & -inner, rest, nbr):
                    if b & inner == inner:
                        stack.append((inner, b))
    return out


def _without(nbr: Sequence[int], e: Edge) -> list[int]:
    """The neighbour masks of G - e, for an edge without parallel copies."""
    out = list(nbr)
    out[e.u] &= ~(1 << e.v)
    out[e.v] &= ~(1 << e.u)
    return out


@lru_cache(maxsize=16384)
def good_flats(graph: Multigraph) -> tuple[GoodFlat, ...]:
    """All good flats (type-2 facets), by size, then in combinations order."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    return tuple(
        GoodFlat(frozenset(verts), edges)
        for verts, edges in _by_size(good_flat_masks(graph))
    )


def good_flat_masks(graph: Multigraph) -> list[tuple[int, int]]:
    """(S, E(S)) of every good flat as masks: the records with k(S) = 1,
    in search order."""
    return [(s, edges) for s, edges, k in subset_pass(graph) if k == 1]


def two_connected_subsets(graph: Multigraph) -> tuple[frozenset[int], ...]:
    """All vertex subsets (including V) inducing a 2-connected subgraph,
    by size, then in combinations order."""
    records = ((s, edges) for s, edges, _ in subset_pass(graph))
    return tuple(frozenset(verts) for verts, _ in _by_size(records))


def _by_size(masks) -> list[tuple[tuple[int, ...], int]]:
    """(vertices of S, E(S)) per (S, E(S)) mask pair, by size, then in
    combinations order within a size."""
    found = sorted((s.bit_count(), _bits(s), edges) for s, edges in masks)
    return [(verts, edges) for _, verts, edges in found]
