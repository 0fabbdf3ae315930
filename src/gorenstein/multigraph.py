"""Loop-free undirected multigraphs with stable edge identities.

Vertices are integers 0..n-1.  Edges carry an opaque integer id that
survives relabelling and taking induced subgraphs.  All graphs are
immutable values; every operation returns a new graph.

This module is the only one that knows how connectivity is computed.
A vertex subset is an int mask; each graph caches one neighbour mask
per vertex (`neighbour_masks`), the vertex masks of its blocks
(`block_masks`), found by one mask-native block DFS (`_blocks`) per
component, and those of each G - v (`vertex_deleted_blocks`), which
`matroid`'s edge kinds and good-flat search share.  `is_connected` and
`is_two_connected` read the blocks, and `matroid`, `constructions` and
`census` import the mask helpers (`_bits`, `_reach`, `_components`,
`_blocks`) instead of searching on their own.

Canonical forms come from canonical labelling by
individualization-refinement (`_canonical_labelling`; McKay 1981, McKay
and Piperno 2014), which prunes its search tree by the automorphisms it
finds.  The lexicographically maximal vertex ordering, which is NP-hard
to find in general (Lubiw 1981), is left to the census's orderly
generation, which only asks whether the identity ordering of a partial
matrix is maximal (`is_canonical_order`).
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
        return _all_blocks((1 << self.n) - 1, self.neighbour_masks)

    @cached_property
    def vertex_deleted_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the `block_masks` of G - v."""
        full = (1 << self.n) - 1
        return tuple(_all_blocks(full ^ (1 << v), self.neighbour_masks) for v in range(self.n))

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
        """All spanning trees as edge-id sets (parallel edges give distinct
        trees), in combinations order of their edge positions.

        A backtrack over the edge positions that tries each edge in, then
        out.  An edge goes in only when it joins two components of the
        edges chosen so far, and stays out only when those edges and the
        later ones still connect the graph.  So every branch ends in a
        tree, and the search visits at most m nodes per tree.
        """
        if not self.is_connected():
            raise ValueError("graph is not connected")
        n, edges = self.n, self.edges
        full = (1 << n) - 1
        # later[i][v]: the neighbours of v over the edges at positions >= i
        later = [(0,) * n]
        for e in reversed(edges):
            nbr = list(later[-1])
            nbr[e.u] |= 1 << e.v
            nbr[e.v] |= 1 << e.u
            later.append(tuple(nbr))
        later.reverse()
        out = []
        # (next position, each vertex's component of the chosen edges as a
        # mask, the chosen edge ids); the in-branch is pushed last, so it
        # is searched first
        stack = [(0, tuple(1 << v for v in range(n)), ())]
        while stack:
            i, comp, chosen = stack.pop()
            if len(chosen) == n - 1:
                out.append(frozenset(chosen))
                continue
            e = edges[i]
            a, b = comp[e.u], comp[e.v]
            if a == b or _reach(full, [x | c for x, c in zip(later[i + 1], comp)]) == full:
                stack.append((i + 1, comp, chosen))
            if a != b:
                joined = a | b
                comp = tuple(joined if c & joined else c for c in comp)
                stack.append((i + 1, comp, chosen + (e.eid,)))
        return out

    def spanning_tree_count(self) -> int:
        """The number of spanning trees, parallel edges counted apart.

        Kirchhoff's Matrix-Tree theorem: the determinant of the Laplacian
        with row and column 0 removed, by fraction-free Bareiss
        elimination, so the count is exact and costs O(n^3) whatever it
        is; 0 for a graph that is not connected.
        """
        if self.n == 0:
            return 0
        lap = [[0] * self.n for _ in range(self.n)]
        for e in self.edges:
            lap[e.u][e.u] += 1
            lap[e.v][e.v] += 1
            lap[e.u][e.v] -= 1
            lap[e.v][e.u] -= 1
        return _determinant([row[1:] for row in lap[1:]])

    # -- canonical form ----------------------------------------------------

    def canonicalize(self) -> tuple["Multigraph", tuple[int, ...], dict[int, int]]:
        """Canonical relabeling.

        Returns (canonical graph, vertex permutation old->new, edge id map
        old->new).  The vertex order is the canonical labelling
        `_canonical_labelling` finds.  Canonical edge ids run 0..m-1
        sorted by endpoint pair; within a parallel class, old ids are
        mapped in increasing order.  The canonical graph is its own
        canonical form, so it comes with `canonical_form` already set.

        Limits (one run each, 2 vCPUs, Python 3.11.7): the search takes
        one recursion frame per individualized vertex, and on K_{2,k}
        (k paths of length 2) individualizing a middle vertex splits no
        other cell, so each leaf lies about k frames deep.  It takes 1.0 s
        at k = 25, 6.6 s at k = 35 and 53 s at k = 50, and at k = 1,200
        it passes Python's default limit of 1,000 frames and raises
        RecursionError.
        """
        order = _canonical_labelling(self.multiplicity_matrix, self.n)
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


def _determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination (1968),
    which divides exactly at every step; a is overwritten."""
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def _all_blocks(mask: int, nbr: Sequence[int]) -> tuple[int, ...]:
    """`Multigraph.block_masks` of G[mask]."""
    out: list[int] = []
    while mask:
        root = mask & -mask
        mask ^= root
        # the blocks of root's component cover it, unless root is isolated
        for b in _blocks(root, mask | root, nbr):
            out.append(b)
            mask &= ~b
    return tuple(out)


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


def _canonical_labelling(mult: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """A canonical vertex order, by individualization-refinement.

    McKay, "Practical graph isomorphism" (1981); McKay and Piperno,
    "Practical graph isomorphism, II" (2014).  The nodes of the search
    tree are ordered partitions of the vertices.  The root is the unit
    partition refined to the coarsest equitable one (`_refine`).  A node
    whose partition is not discrete has one child per vertex v of its
    first non-singleton cell: v is individualized (made a singleton cell
    in front of the rest of its cell) and the partition refined again.
    Every step reads only the multiplicities, so relabelling the graph
    relabels the tree.  A leaf is a discrete partition, read as a vertex
    order; its certificate is the column-wise upper-triangle sequence of
    the multiplicity matrix in that order, cells (i, j) with i < j in
    order (j, i).  The order returned is the first leaf with the maximal
    certificate: corresponding leaves of isomorphic graphs have equal
    certificates, so the maximum, the matrix in the returned order, is
    the same for every graph of the class.

    A leaf whose certificate equals the best one maps the best leaf's
    order onto its own, vertex by vertex: an automorphism.  One that
    fixes a node's individualized vertices pointwise maps the node's
    partition onto itself, and the subtree of each child onto that of
    the child it maps the vertex to, with the same certificates.  So a
    child in one orbit with an explored child, under the automorphisms
    found so far that fix the node's individualized vertices, is skipped.
    """
    if n == 0:
        return ()
    adj = [[(w, c) for w, c in enumerate(row) if c] for row in mult]
    best_cert: tuple[int, ...] | None = None
    best_order: list[int] = []
    autos: list[list[int]] = []  # each maps vertex -> vertex

    def search(lab: list[int], cell: list[int], size: list[int], fixed: list[int], p: int) -> None:
        """Search below the node with partition (lab, cell, size) and the
        individualized vertices fixed; cells before p are singletons."""
        nonlocal best_cert, best_order
        while p < n and size[p] == 1:
            p += 1
        if p == n:
            rows = [mult[v] for v in lab]
            cert = tuple(rows[i][lab[j]] for j in range(1, n) for i in range(j))
            if best_cert is None or cert > best_cert:
                best_cert, best_order = cert, lab
            elif cert == best_cert:
                gamma = [0] * n
                for a, b in zip(best_order, lab):
                    gamma[a] = b
                autos.append(gamma)
            return
        k = size[p]
        targets = sorted(lab[p : p + k])
        orbit = {v: v for v in targets}  # union-find over the cell

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = v = orbit[orbit[v]]
            return v

        explored: list[int] = []
        merged = 0  # autos[:merged] are merged into the orbits
        for v in targets:
            if explored:
                for gamma in autos[merged:]:
                    if all(gamma[x] == x for x in fixed):
                        for w in targets:
                            a, b = find(w), find(gamma[w])
                            if a != b:
                                orbit[b] = a
                merged = len(autos)
                r = find(v)
                if any(find(x) == r for x in explored):
                    continue
            child, where, sizes = lab[:], cell[:], size[:]
            i = child.index(v, p)
            child[p], child[i] = v, child[p]
            for w in child[p + 1 : p + k]:
                where[w] = p + 1
            sizes[p], sizes[p + 1] = 1, k - 1
            _refine(child, where, sizes, adj, [p])
            search(child, where, sizes, fixed + [v], p + 1)
            explored.append(v)

    lab, cell, size = list(range(n)), [0] * n, [n] + [0] * (n - 1)
    _refine(lab, cell, size, adj, [0])
    search(lab, cell, size, [], 0)
    return tuple(best_order)


def _refine(
    lab: list[int], cell: list[int], size: list[int],
    adj: Sequence[Sequence[tuple[int, int]]], queue: list[int],
) -> None:
    """Refine an ordered partition in place to the coarsest equitable one
    below it, splitting first by the cells that start at the positions
    in queue.

    lab lists the vertices cell by cell, cell[v] is the start of v's cell
    in lab, and size[p] the length of the cell that starts at p; adj[v]
    lists (neighbour, multiplicity) pairs.  A partition is equitable when
    the vertices of each cell have equal multiplicity sums into every
    cell.  Each waiting splitter S in turn splits every cell whose
    vertices have unequal sums into S into one cell per sum, in place,
    highest sum first.  Cells are split in the order of their starts and
    parts ordered by sum, so the result reads only the multiplicities.
    A split cell that is still waiting keeps its start, which now names
    its first part, and all other parts wait too; any other split cell
    sends all parts but its first largest, whose sums are those into the
    old cell minus those into the other parts (Hopcroft 1971).  The
    caller queues cells whose removal left the rest equitable: the whole
    unit partition, or an individualized vertex.  A discrete partition
    ends the refinement.
    """
    cells = len(set(cell))
    waiting = set(queue)
    for s in queue:  # the loop reaches the cells appended while it runs
        if cells == len(lab):
            return
        waiting.discard(s)
        sums: dict[int, int] = {}
        for x in lab[s : s + size[s]]:
            for w, c in adj[x]:
                sums[w] = sums.get(w, 0) + c
        hit = {cell[w] for w in sums if size[cell[w]] > 1}
        for p in sorted(hit):
            parts: dict[int, list[int]] = {}
            for w in lab[p : p + size[p]]:
                parts.setdefault(sums.get(w, 0), []).append(w)
            if len(parts) == 1:
                continue
            keys = sorted(parts, reverse=True)
            skip = None if p in waiting else max(keys, key=lambda x: len(parts[x]))
            cells += len(keys) - 1
            pos = p
            for x in keys:
                part = parts[x]
                lab[pos : pos + len(part)] = part
                for w in part:
                    cell[w] = pos
                size[pos] = len(part)
                if x != skip and pos not in waiting:
                    waiting.add(pos)
                    queue.append(pos)
                pos += len(part)


def is_canonical_order(mult: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the identity ordering of vertices 0..n-1 is lexicographically
    maximal.

    That is, the column-wise upper-triangle sequence of `mult` restricted
    to its first n vertices is the largest over all orderings of them.
    Every prefix of such a maximal matrix passes this test, which is what
    makes orderly census generation exact.  This is the census's own
    test; the canonical form of `Multigraph` is `_canonical_labelling`'s.

    An ordering's sequence lists cells (i, j) with i < j in order (j, i),
    so placing the k-th vertex appends exactly k known entries, which
    makes prefix pruning sound.  The branch-and-bound answers False at
    the first ordering prefix whose sequence beats the identity's prefix
    of the same length.

    The unplaced vertices travel as an ordered partition into vertex
    cells (column, vertices): column holds the multiplicities to the
    placed vertices in placement order, columns strictly decrease from
    one vertex cell to the next, and vertices increase within one.
    Placing v splits every vertex cell by the multiplicity to v, highest
    first.  Columns of equal length compare lexicographically, so the
    split keeps the vertex cells in the order of their full columns.  A
    node compares only the k entries a child appends, its column, with
    the identity's entries at the same positions; a smaller column ends
    the node, since every later one is smaller still.
    """
    identity = tuple(mult[i][j] for j in range(n) for i in range(j))

    def beaten(p: int, k: int, cells: list[tuple[tuple[int, ...], list[int]]]) -> bool:
        """Whether an ordering below the current prefix of k vertices, whose
        sequence equals the identity's first p entries, beats the identity."""
        ref = identity[p : p + k]
        for col, verts in cells:
            if col < ref:
                break  # every remaining column is smaller still
            if col > ref:
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
                if beaten(p + k, k + 1, refined):
                    return True
        return False

    return not beaten(0, 0, [((), list(range(n)))] if n else [])


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
