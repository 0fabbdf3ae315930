"""Loop-free undirected multigraphs with stable edge identities.

Vertices are integers 0..n-1.  Edges carry an opaque integer id that
survives relabelling and taking induced subgraphs.  All graphs are
immutable values; every operation returns a new graph.
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
            if lineno > len(lines):
                raise GraphParseError(lineno, 1, f"expected {m} edge lines")
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
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append((e.v, e.eid))
            adj[e.v].append((e.u, e.eid))
        return tuple(tuple(a) for a in adj)

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
        # before building the adjacency keeps huge edgeless inputs cheap
        if self.n == 0 or self.m < self.n - 1:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _ in self._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def blocks(self) -> list[frozenset[int]]:
        """The 2-connected components (blocks), as vertex sets.

        A single vertex yields no block; a bridge is its own block.
        Parallel edges keep their endpoints in one block.
        """
        disc = [-1] * self.n
        low = [0] * self.n
        stack: list[tuple[int, int, int]] = []
        out: list[frozenset[int]] = []
        counter = itertools.count()

        def dfs(root: int) -> None:
            # iterative DFS to keep deep paths safe
            work: list[tuple[int, int, iter]] = [(root, -1, iter(self._adjacency[root]))]
            disc[root] = low[root] = next(counter)
            while work:
                u, peid, it = work[-1]
                advanced = False
                for w, eid in it:
                    if eid == peid:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = next(counter)
                        stack.append((u, w, eid))
                        work.append((w, eid, iter(self._adjacency[w])))
                        advanced = True
                        break
                    elif disc[w] < disc[u]:
                        stack.append((u, w, eid))
                        low[u] = min(low[u], disc[w])
                if not advanced:
                    work.pop()
                    if work:
                        pu = work[-1][0]
                        low[pu] = min(low[pu], low[u])
                        if low[u] >= disc[pu]:
                            comp: set[int] = set()
                            while True:
                                a, b, eid = stack.pop()
                                comp.add(a)
                                comp.add(b)
                                if (a, b) == (pu, u):
                                    break
                            out.append(frozenset(comp))

        for r in range(self.n):
            if disc[r] == -1 and self._adjacency[r]:
                dfs(r)
        return out

    def is_two_connected(self) -> bool:
        """Connected, at least two vertices, and no cut vertex.

        K_2 and C_2 both count as 2-connected under this convention.
        """
        if self.n < 2:
            return False
        if not self.is_connected():
            return False
        return len(self.blocks()) == 1

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
        return Multigraph(self.n, tuple(edges)), tuple(vperm), emap

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

    Given an incumbent sequence instead, the branch-and-bound stops at the
    first ordering prefix whose sequence beats the incumbent's prefix of
    the same length and returns it, or returns None when none does.
    """
    stop_on_gain = incumbent is not None
    best_seq = incumbent
    best_ord: tuple[int, ...] | None = None
    used = [False] * n
    order: list[int] = []

    def rec(seq: tuple[int, ...]) -> bool:
        """Search below the current prefix; True once a gain ends the search."""
        nonlocal best_seq, best_ord
        if len(order) == n:
            if best_seq is None or seq > best_seq:
                best_seq, best_ord = seq, tuple(order)
            return False
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in range(n):
            if not used[v]:
                col = tuple(mult[u][v] for u in order)
                groups.setdefault(col, []).append(v)
        for col in sorted(groups, reverse=True):
            ns = seq + col
            if best_seq is not None:
                prefix = best_seq[: len(ns)]
                if ns < prefix:
                    break  # every remaining column is smaller still
                if stop_on_gain and ns > prefix:
                    best_ord = tuple(order) + (groups[col][0],)
                    return True
            for v in groups[col]:
                used[v] = True
                order.append(v)
                if rec(ns):
                    return True
                order.pop()
                used[v] = False
        return False

    rec(())
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
