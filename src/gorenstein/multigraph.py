"""Loop-free undirected multigraphs with stable edge identities.

Vertices are integers 0..n-1.  Edges carry an opaque integer id that
survives relabelling and taking induced subgraphs.  All graphs are
immutable values; every operation returns a new graph.

This module is the only one that knows how connectivity is computed.
A vertex subset is an int mask; each graph caches one neighbour mask
per vertex (`neighbour_masks`) and the vertex masks of its blocks
(`block_masks`), found by one mask-native block DFS (`_blocks`) per
component.  `blocks`, `is_connected` and `is_two_connected` read those,
and `matroid` and `constructions` import the mask helpers (`_bits`,
`_reach`, `_components`, `_blocks`) instead of searching on their own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


class Edge(NamedTuple):
    eid: int
    u: int
    v: int


class GraphParseError(ValueError):
    """Malformed edge-list text; carries a 1-based line/column position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Multigraph:
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if e.u == e.v:
                raise ValueError(f"loop at vertex {e.u}")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e} out of vertex range [0, {self.n})")
            if e.u > e.v:
                raise ValueError(f"edge {e} endpoints not normalized")
            if e.eid in seen:
                raise ValueError(f"duplicate edge id {e.eid}")
            seen.add(e.eid)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        edges = tuple(
            Edge(i, min(u, v), max(u, v)) for i, (u, v) in enumerate(pairs)
        )
        return cls(n, edges)

    @classmethod
    def parse(cls, text: str) -> "Multigraph":
        """Parse the text edge-list format: "n m" then m lines "u v".

        Blank lines may appear anywhere; any other text after the m-th
        edge line is an error.
        """
        lines = text.splitlines()
        if not lines:
            raise GraphParseError(1, 1, "empty input")

        def split_ints(lineno: int, expected: int) -> list[int]:
            raw = lines[lineno - 1]
            parts = raw.split()
            if len(parts) != expected:
                raise GraphParseError(
                    lineno, 1, f"expected {expected} integers, got {len(parts)}"
                )
            out = []
            pos = 0  # tokens are found left to right, so a repeat gets its own column
            for p in parts:
                pos = raw.index(p, pos)
                try:
                    out.append(int(p))
                except ValueError:
                    raise GraphParseError(lineno, pos + 1, f"not an integer: {p!r}") from None
                pos += len(p)
            return out

        n, m = split_ints(1, 2)
        if n < 1:
            raise GraphParseError(1, 1, "vertex count must be positive")
        if m < 0:
            raise GraphParseError(1, 1, "edge count must be nonnegative")
        if len([ln for ln in lines[1:] if ln.strip()]) < m:
            raise GraphParseError(len(lines) + 1, 1, f"expected {m} edge lines")
        pairs = []
        lineno = 1
        while len(pairs) < m:
            lineno += 1
            if not lines[lineno - 1].strip():
                continue
            u, v = split_ints(lineno, 2)
            if u == v:
                raise GraphParseError(lineno, 1, f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(lineno, 1, f"vertex out of range [0, {n})")
            pairs.append((u, v))
        for extra, raw in enumerate(lines[lineno:], start=lineno + 1):
            if raw.strip():
                col = len(raw) - len(raw.lstrip()) + 1
                raise GraphParseError(extra, col, f"unexpected text after {m} edge lines")
        return cls.from_edge_list(n, pairs)

    def format(self) -> str:
        """Inverse of parse, up to edge ordering."""
        out = [f"{self.n} {len(self.edges)}"]
        out.extend(f"{e.u} {e.v}" for e in self.edges)
        return "\n".join(out) + "\n"

    # -- basic queries -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_by_id(self) -> dict[int, Edge]:
        return {e.eid: e for e in self.edges}

    def edge(self, eid: int) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise KeyError(f"unknown edge id {eid}") from None

    @cached_property
    def multiplicity_matrix(self) -> tuple[tuple[int, ...], ...]:
        mat = [[0] * self.n for _ in range(self.n)]
        for e in self.edges:
            mat[e.u][e.v] += 1
            mat[e.v][e.u] += 1
        return tuple(tuple(row) for row in mat)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in (e.u, e.v))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """One mask per vertex: the bits of its neighbours."""
        nbr = [0] * self.n
        for e in self.edges:
            nbr[e.u] |= 1 << e.v
            nbr[e.v] |= 1 << e.u
        return tuple(nbr)

    def parallel_class(self, eid: int) -> tuple[int, ...]:
        """Ids of all edges sharing this edge's endpoint pair (incl. itself)."""
        e = self.edge(eid)
        return tuple(f.eid for f in self.edges if (f.u, f.v) == (e.u, e.v))

    def has_parallel_edges(self) -> bool:
        seen = set()
        for e in self.edges:
            if (e.u, e.v) in seen:
                return True
            seen.add((e.u, e.v))
        return False

    # -- subgraphs ---------------------------------------------------------

    def induced_subgraph(self, subset: frozenset[int] | set[int]) -> "Multigraph":
        """Restriction to the subset; edge ids are preserved."""
        if not subset:
            raise ValueError("empty subset")
        if not all(0 <= v < self.n for v in subset):
            raise ValueError("subset outside vertex range")
        verts = sorted(subset)
        renum = {v: i for i, v in enumerate(verts)}
        edges = tuple(
            Edge(e.eid, renum[e.u], renum[e.v])
            for e in self.edges
            if e.u in subset and e.v in subset
        )
        return Multigraph(len(verts), edges)

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        # fewer than n - 1 edges cannot connect n vertices; answering
        # before building the masks keeps huge edgeless inputs cheap
        if self.n == 0 or self.m < self.n - 1:
            return False
        full = (1 << self.n) - 1
        return _reach(full, self.neighbour_masks) == full

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """The blocks of every component as vertex masks, component by
        component from the lowest vertex not yet reached."""
        nbr = self.neighbour_masks
        out: list[int] = []
        rest = (1 << self.n) - 1
        while rest:
            comp = _reach(rest, nbr)
            out += _blocks(rest & -rest, comp, nbr)
            rest ^= comp
        return tuple(out)

    def blocks(self) -> list[frozenset[int]]:
        """The 2-connected components (blocks), as vertex sets.

        A single vertex yields no block; a bridge is its own block.
        Parallel edges keep their endpoints in one block.
        """
        return [frozenset(_bits(b)) for b in self.block_masks]

    def is_two_connected(self) -> bool:
        """Connected, at least two vertices, and no cut vertex.

        K_2 and C_2 both count as 2-connected under this convention.
        """
        # answered before any mask, as in is_connected: connecting n
        # vertices takes n - 1 edges, and on n >= 3 vertices minimum
        # degree 2 takes n
        if self.n < 2 or self.m < (self.n if self.n >= 3 else 1):
            return False
        return self.block_masks == ((1 << self.n) - 1,)

    # -- spanning trees ----------------------------------------------------

    def spanning_trees(self) -> list[frozenset[int]]:
        """All spanning trees as edge-id sets (parallel edges give distinct trees)."""
        if not self.is_connected():
            raise ValueError("graph is not connected")
        k = self.n - 1
        out = []
        for combo in itertools.combinations(self.edges, k):
            parent = list(range(self.n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for e in combo:
                ru, rv = find(e.u), find(e.v)
                if ru == rv:
                    ok = False
                    break
                parent[rv] = ru
            if ok:
                out.append(frozenset(e.eid for e in combo))
        return out

    # -- canonical form ----------------------------------------------------

    def canonicalize(self) -> tuple["Multigraph", tuple[int, ...], dict[int, int]]:
        """Canonical relabeling.

        Returns (canonical graph, vertex permutation old->new, edge id map
        old->new).  Canonical edge ids run 0..m-1 sorted by endpoint pair;
        within a parallel class, old ids are mapped in increasing order.
        The canonical graph is its own canonical form, so it comes with
        `canonical_form` already set.
        """
        order = _canonical_ordering(self.multiplicity_matrix, self.n)
        vperm = [0] * self.n
        for pos, v in enumerate(order):
            vperm[v] = pos
        relabeled = sorted(
            (
                (min(vperm[e.u], vperm[e.v]), max(vperm[e.u], vperm[e.v]), e.eid)
                for e in self.edges
            )
        )
        emap: dict[int, int] = {}
        edges = []
        for new_id, (u, v, old_id) in enumerate(relabeled):
            emap[old_id] = new_id
            edges.append(Edge(new_id, u, v))
        canon = Multigraph(self.n, tuple(edges))
        # cached_property stores into the instance dict, frozen or not
        canon.__dict__["canonical_form"] = canon.multiplicity_matrix
        return canon, tuple(vperm), emap

    @cached_property
    def canonical_form(self) -> tuple[tuple[int, ...], ...]:
        """Isomorphism-invariant multiplicity matrix.

        Two multigraphs have equal canonical_form iff they are isomorphic.
        """
        return self.canonicalize()[0].multiplicity_matrix

    def is_isomorphic(self, other: "Multigraph") -> bool:
        return self.canonical_form == other.canonical_form

    def permuted(self, vperm: Iterable[int]) -> "Multigraph":
        """Relabel vertices by old->new permutation (edge ids kept)."""
        p = list(vperm)
        edges = tuple(
            Edge(e.eid, min(p[e.u], p[e.v]), max(p[e.u], p[e.v])) for e in self.edges
        )
        return Multigraph(self.n, edges)

    def shuffled(self, rng: random.Random) -> "Multigraph":
        p = list(range(self.n))
        rng.shuffle(p)
        return self.permuted(p)


# -- connectivity kernel ---------------------------------------------------

def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _reach(mask: int, nbr: Sequence[int]) -> int:
    """BFS within the mask from its lowest vertex: the vertices reached."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            reach |= nbr[w.bit_length() - 1]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def _components(mask: int, nbr: Sequence[int]) -> int:
    """The number of connected components of the subgraph the mask induces."""
    count = 0
    while mask:
        mask &= ~_reach(mask, nbr)
        count += 1
    return count


def _blocks(root: int, mask: int, nbr: Sequence[int]) -> list[int]:
    """The blocks of the component of G[mask] that holds the vertex bit root.

    One DFS over the neighbour masks (Hopcroft and Tarjan, "Efficient
    algorithms for graph manipulation", 1973).  Every non-tree edge of an
    undirected DFS joins a vertex to one of its ancestors, so a finished
    vertex closes a block with its parent p exactly when no vertex of its
    subtree has a neighbour above p; the block is p and the part of the
    subtree that no deeper block has closed off.
    """
    out = []
    seen = root
    near = nbr[root.bit_length() - 1] & mask
    # per vertex on the tree path: its bit, its proper ancestors, its
    # neighbours, its subtree's neighbours, its subtree's open part
    path = [[root, 0, near, near, root]]
    while path:
        top = path[-1]
        w = top[2] & ~seen
        if w:
            w &= -w
            seen |= w
            near = nbr[w.bit_length() - 1] & mask
            if near & ~seen:
                path.append([w, top[1] | top[0], near, near, w])
            elif near & top[1]:  # a leaf, finished at once
                top[3] |= near
                top[4] |= w
            else:
                out.append(top[0] | w)
            continue
        path.pop()
        if path:
            parent = path[-1]
            if top[3] & parent[1]:
                parent[3] |= top[3]
                parent[4] |= top[4]
            else:
                out.append(parent[0] | top[4])
    return out


def is_canonical_order(mult: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the identity ordering of vertices 0..n-1 is maximal.

    That is, the upper triangle of `mult` restricted to its first n
    vertices is already the canonical sequence of the graph it induces.
    Every prefix of a canonical matrix passes this test, which is what
    makes orderly census generation exact.
    """
    identity = tuple(mult[i][j] for j in range(n) for i in range(j))
    return _canonical_ordering(mult, n, identity) is None


def _canonical_ordering(
    mult: Sequence[Sequence[int]], n: int, incumbent: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """Vertex ordering maximizing the column-wise upper-triangle sequence.

    Cells (i, j) with i < j are compared in order (j, i), so placing the
    k-th vertex appends exactly k known entries; this makes prefix pruning
    sound.  Any fixed total order on cells gives a valid canonical form;
    the maximizing one keeps adjacent vertices early, which prunes well on
    the sparse, path-heavy graphs produced by subdivision.

    The unplaced vertices travel as an ordered partition (McKay and
    Piperno 2014, without their automorphism pruning) into vertex cells
    (column, vertices): column holds the multiplicities to the placed
    vertices in placement order, columns strictly decrease from one
    vertex cell to the next, and vertices increase within one.  Placing
    v splits every vertex cell by the multiplicity to v, highest first.
    Columns of equal length compare lexicographically, so the split keeps
    the vertex cells in the order of their full columns: children are
    tried in the same order as when every node rebuilt and sorted the
    column of each unplaced vertex, and the first maximal leaf, hence
    the ordering returned, is the same.  Automorphism pruning was
    measured and left out: it saved about a tenth of the nodes on
    decomposition and census inputs and slowed census enumeration.

    Given an incumbent sequence instead, the branch-and-bound stops at the
    first ordering prefix whose sequence beats the incumbent's prefix of
    the same length and returns it, or returns None when none does.
    """
    stop_on_gain = incumbent is not None
    best_seq = incumbent
    best_ord: tuple[int, ...] | None = None
    order: list[int] = []

    def rec(seq: tuple[int, ...], cells: list[tuple[tuple[int, ...], list[int]]]) -> bool:
        """Search below the current prefix; True once a gain ends the search."""
        nonlocal best_seq, best_ord
        if not cells:
            if best_seq is None or seq > best_seq:
                best_seq, best_ord = seq, tuple(order)
            return False
        for col, verts in cells:
            ns = seq + col
            if best_seq is not None:
                prefix = best_seq[: len(ns)]
                if ns < prefix:
                    break  # every remaining column is smaller still
                if stop_on_gain and ns > prefix:
                    best_ord = tuple(order) + (verts[0],)
                    return True
            for v in verts:
                row = mult[v]  # mult is symmetric: row v is column v
                refined = []
                for c, ws in cells:
                    if len(ws) == 1:  # nothing to split
                        if ws[0] != v:
                            refined.append((c + (row[ws[0]],), ws))
                        continue
                    split: dict[int, list[int]] = {}
                    for w in ws:
                        if w != v:
                            split.setdefault(row[w], []).append(w)
                    for x in sorted(split, reverse=True):
                        refined.append((c + (x,), split[x]))
                order.append(v)
                if rec(ns, refined):
                    return True
                order.pop()
        return False

    rec((), [((), list(range(n)))] if n else [])
    return best_ord


# -- common small graphs ---------------------------------------------------

def cycle_graph(length: int) -> Multigraph:
    """C_length; length 2 gives the 2-cycle (two parallel edges)."""
    if length < 2:
        raise ValueError("cycle length must be >= 2")
    if length == 2:
        return Multigraph.from_edge_list(2, [(0, 1), (0, 1)])
    return Multigraph.from_edge_list(
        length, [(i, (i + 1) % length) for i in range(length)]
    )


def complete_graph(n: int) -> Multigraph:
    return Multigraph.from_edge_list(n, list(itertools.combinations(range(n), 2)))


def banana_graph(num_edges: int) -> Multigraph:
    """Two vertices joined by num_edges parallel edges."""
    if num_edges < 1:
        raise ValueError("need at least one edge")
    return Multigraph.from_edge_list(2, [(0, 1)] * num_edges)
