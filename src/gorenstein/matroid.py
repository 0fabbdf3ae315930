"""Matroid-level queries on a multigraph.

Deletable edges index the type-1 facets of the base polytope; good flats
index the type-2 facets.  A good flat is a proper vertex subset S with
|S| >= 2 whose induced subgraph is 2-connected and whose contraction
G/E(S) is 2-connected too.  In a 2-connected G the blocks of G/E(S) are
the components of G - S, each joined to the contracted vertex: a vertex
w other than the contracted one is no cut vertex, because G - w stays
connected and (G/E(S)) - w = (G - w)/E(S).  So S is a good flat exactly
when it is proper, |S| >= 2, G[S] is 2-connected and G - S is connected.

`good_flat_masks` lists the good flats once per graph (it is cached),
as (S, E(S)) pairs of ints in the order its search finds them: S is a
vertex mask and E(S) an edge-position mask (bit i stands for
`graph.edges[i]`).  Heart, `delta_candidates`, the polytope and the
census read them; the criteria sum weights over E(S) by popcount.
`good_flats` is the cached view that `check_spade` (for the
decomposition search too) and the `check` output read: the same pairs
as `GoodFlat`s, sorted by size, then in combinations order within a
size (`_by_size`).  A `GoodFlat` is a named pair of the two masks, two
ints per flat; its `subset` is the vertex set, built as a frozenset on
each read.  `two_connected_subsets` lists every S with |S| >= 2 whose
induced subgraph is 2-connected, V included, in the same order.

The three caches, `edge_kinds`, `good_flats` and `good_flat_masks`, keep
the 256 graphs read last.  A command reads them again mostly for its
current graph or a handful of recent ones (a `decompose` search, for
the state it expands and its predecessors); an evicted entry costs one
search of a small graph when it is read again, as when a `verify`
harness's search memo reaches back to an early census graph.  A larger
cache keeps census graphs alive, each with its block tables, long after
their records are written: at 16,384 entries the streamed census at
(10, 13, 4) peaked near 300 MB, at 256 near 33 MB.

Every connectivity question here is a search over bitmasks: a vertex
subset is an int, each vertex has a neighbour mask and a mask of its
incident edge positions, and each edge an endpoint mask.  The masks,
the blocks of G and the searches over them come from the connectivity
kernel of `multigraph`; no minor is ever built.

The 2-connected subsets come from a flashlight search over blocks, the
binary-partition backtrack of Read and Tarjan ("Bounds on backtrack
algorithms for listing cycles, paths, and spanning trees", 1975).  A node is a pair (I, U) in
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
subset, each paying at most one block computation: a single mask-native
block DFS of the connected G[U - w] (`multigraph._blocks`).  An exclusion
often needs none.  In the 2-connected G[U] every vertex has two
neighbours, so only a vertex x of I adjacent to w can keep fewer in
U - w: with none left, no block of G[U - w] holds x and the branch
ends; with one, y, the edge xy is a bridge and {x, y} is the one block
that holds x, so the node (I, {x, y}) follows when I <= {x, y}.  On
the glued delta = 3 graph with 28 vertices of the tests
(`glued_chain(3, 28)`) that is 87,943 nodes for 39,386 subsets, where
testing each connected subset visited 16.7 M of them.  Two adjacent
vertices count as 2-connected, and parallel edges do not change the
vertex sets of blocks.

The 2-connected subsets of a glued chain grow about 4x per 4 vertices,
its good flats linearly, so `good_flat_masks` runs the flashlight search
above on the nodes (I, U) whose V - U is connected and nonempty, so
that U is a flat under each node.  It branches on the lowest w of U - I
with a neighbour in V - U, and both children keep V - U connected: an
inclusion leaves U as it is, and an exclusion into a block b of
G[U - w] leaves V - b as V - U, w and the parts of G[U - w] outside b,
each of which meets b in at most one vertex, so the 2-connected G[U]
joins it to w.  A node with no vertex of U - I next to V - U is a leaf
with the one flat U, since any smaller S cuts the rest of U - I off from
V - U.  A flat S is found from c, its lowest outside vertex: the roots
for c are I = {0, ..., c - 1} and U = each block of G - c that holds I,
read from the table `Multigraph.vertex_deleted_blocks`, and V - U is
connected as above.  So no node needs a component search, every leaf is
a flat, and each node's inclusion path ends in one: at most n nodes per
flat.  On `glued_chain(delta, n)` for n = 16 to 40 the search visits
2.0 nodes per flat at delta = 2 and 3 and 2.25 at delta = 4 (at n = 40:
380 nodes for 190 flats, 228 for 114, 171 for 76); on the 4 x 8 grid,
3.6 (8,079 for 2,266).

The edge kinds of a 2-connected G follow from the blocks of each G - x.

- "del": G - e is 2-connected.  A parallel copy of e keeps it so, and
  otherwise (n >= 3) the blocks of G - e must be the full mask again.
  `edge_kinds` reads the blocks of each G - x, from the table it shares
  with the good-flat search, instead of searching each G - e: G - uv is
  connected, so it is 2-connected exactly when no x is a cut vertex of
  it.  Neither u nor v can be one, as (G - uv) - u = G - u is connected;
  and for any other x, (G - uv) - x = (G - x) - uv with G - x connected,
  so x is a cut vertex of G - uv exactly when uv is a bridge of G - x,
  i.e. when {u, v} is a two-vertex block of G - x.  A simple edge uv is
  "del" exactly when {u, v} is a block of no G - x.
- "con": G/e is 2-connected, for every other edge when n >= 3.  This
  is Tutte's theorem that each element of a connected matroid can be
  deleted or contracted with the matroid staying connected (Tutte 1966,
  "Connectivity in matroids"; Oxley, Matroid Theory, 4.3), shown here
  for graphs.  A vertex w outside e is a cut vertex of G/e exactly when
  it is one of G, since (G/e) - w = (G - w)/e; and the merged vertex is
  one exactly when G - {u, v} is disconnected.  Take e = uv with no
  parallel copy and G - e not 2-connected.  G - e is connected; let x
  be a cut vertex of it.  x is neither u nor v, because (G - e) - u =
  G - u is connected, so e is a bridge of G - x.  Were G - {u, v}
  disconnected, its component without x would have a neighbour at u
  and one at v, or v or u would be a cut vertex of G; that gives a u-v
  path avoiding x and e, so e would be no bridge of G - x.  So G - {u, v}
  is connected, G has no cut vertex, and G/e is 2-connected.
- None: only the single edge of K_2, whose contraction has one vertex.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .multigraph import Multigraph, _bits, _blocks


class GoodFlat(NamedTuple):
    mask: int  # S: bit v stands for vertex v
    edge_mask: int  # E(S) by position: bit i stands for graph.edges[i]

    @property
    def subset(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))


@lru_cache(maxsize=256)
def edge_kinds(graph: Multigraph) -> Mapping[int, str | None]:
    """Per-edge weight dichotomy of a 2-connected graph, independent of
    the dilation.

    'del' if deleting the edge keeps 2-connectivity (weight 1; ties go
    here), else 'con' (weight delta - 1): by Tutte's theorem in the
    module docstring contracting it then does, on three or more
    vertices.  Only the edge of K_2 gets None.  Read-only: every caller
    shares the cached map.  The deletion test reads the table
    `graph.vertex_deleted_blocks`.
    """
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    n = graph.n
    bridged = set()  # the two-vertex blocks of every G - x
    if n >= 3:
        for blocks in graph.vertex_deleted_blocks:
            bridged.update(b for b in blocks if b.bit_count() == 2)
    copies = Counter((e.u, e.v) for e in graph.edges)
    kinds: dict[int, str | None] = {}
    for e in graph.edges:
        if copies[e.u, e.v] > 1 or n >= 3 and (1 << e.u) | (1 << e.v) not in bridged:
            kinds[e.eid] = "del"
        else:
            kinds[e.eid] = "con" if n >= 3 else None
    return MappingProxyType(kinds)


def deletable_edges(graph: Multigraph) -> frozenset[int]:
    """Edges whose deletion keeps the graph 2-connected (type-1 facets)."""
    return frozenset(e for e, k in edge_kinds(graph).items() if k == "del")


def _induced_edge_masks(graph: Multigraph, masks: Sequence[int]) -> list[int]:
    """E(S) of each vertex mask S as an edge-position mask: all edges but
    those at a vertex outside S."""
    incident = [0] * graph.n
    for i, e in enumerate(graph.edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
    full = (1 << graph.n) - 1
    every_edge = (1 << graph.m) - 1
    out = []
    for s in masks:
        cut = 0
        rest = full ^ s
        while rest:
            w = rest & -rest
            rest ^= w
            cut |= incident[w.bit_length() - 1]
        out.append(every_edge & ~cut)
    return out


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
            stack.extend((inner, b) for b in _exclusions(inner, outer ^ w, w, nbr))
    return out


def _exclusions(inner: int, rest: int, w: int, nbr: Sequence[int]) -> Sequence[int]:
    """The blocks of G[rest] that hold inner, where rest = U - w for a node
    (I, U) of the flashlight search: the children in which w leaves U."""
    if not rest & (rest - 1):  # no block has two vertices
        return ()
    near = nbr[w.bit_length() - 1] & inner
    while near:  # only a neighbour of w can keep < 2 neighbours
        x = near & -near
        near ^= x
        y = nbr[x.bit_length() - 1] & rest
        if not y & (y - 1):  # {x, y} is the one block that holds x
            return (x | y,) if y and not inner & ~(x | y) else ()
    return [b for b in _blocks(rest & -rest, rest, nbr) if b & inner == inner]


@lru_cache(maxsize=256)
def good_flats(graph: Multigraph) -> tuple[GoodFlat, ...]:
    """All good flats (type-2 facets), by size, then in combinations order:
    the view of `good_flat_masks` that `check_spade` and the `check`
    output read."""
    return tuple(map(GoodFlat._make, _by_size(good_flat_masks(graph))))


@lru_cache(maxsize=256)
def good_flat_masks(graph: Multigraph) -> tuple[tuple[int, int], ...]:
    """(S, E(S)) of every good flat as masks, in search order."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    masks = _good_flat_vertex_masks(graph)
    return tuple(zip(masks, _induced_edge_masks(graph, masks)))


def _good_flat_vertex_masks(graph: Multigraph) -> list[int]:
    """Every good flat of a 2-connected G as a vertex mask.

    A frame (inner, outer, rim) is a node (I, U) of the search in the
    module docstring, whose V - U is connected, and rim the neighbours of
    V - U.
    """
    nbr = graph.neighbour_masks
    full = (1 << graph.n) - 1
    stack = []
    inner = 0
    for c, blocks in enumerate(graph.vertex_deleted_blocks):
        stack.extend((inner, b, _rim(full ^ b, nbr)) for b in blocks if b & inner == inner)
        inner |= 1 << c
    out = []
    while stack:
        inner, outer, rim = stack.pop()
        free = outer & rim & ~inner
        if not free:  # U is the only flat under the node
            out.append(outer)
            continue
        w = free & -free
        stack.append((inner | w, outer, rim))
        for b in _exclusions(inner, outer ^ w, w, nbr):
            stack.append((inner, b, rim | _rim(outer ^ b, nbr)))
    return out


def _rim(mask: int, nbr: Sequence[int]) -> int:
    """The neighbours of the vertices of the mask."""
    out = 0
    for v in _bits(mask):
        out |= nbr[v]
    return out


def two_connected_subsets(graph: Multigraph) -> tuple[frozenset[int], ...]:
    """All vertex subsets (including V) inducing a 2-connected subgraph,
    by size, then in combinations order."""
    masks = _two_connected_masks(graph.neighbour_masks)
    return tuple(frozenset(_bits(s)) for s, _ in _by_size((s, 0) for s in masks))


def _by_size(masks) -> list[tuple[int, int]]:
    """The (S, E(S)) mask pairs sorted by the size of S, then in
    combinations order within a size."""
    return sorted(masks, key=lambda pair: (pair[0].bit_count(), _bits(pair[0])))
