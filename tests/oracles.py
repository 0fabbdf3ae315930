"""Brute-force reference implementations that the tests compare against.

Each shares no code with the library path it checks and is meant for
tiny inputs only.
"""

from __future__ import annotations

import itertools

from gorenstein.census import CensusBounds
from gorenstein.multigraph import Multigraph


def enumerate_naive(bounds: CensusBounds) -> list[tuple[tuple[int, ...], ...]]:
    """Independent generate-all-and-filter census, for cross-checking.

    Deduplicates by the minimum multiplicity matrix over all explicit
    vertex permutations (no shared code with canonicalize).  Returns the
    orbit-minimal matrices, sorted.
    """
    reps = set()
    for n in range(2, bounds.max_vertices + 1):
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in itertools.product(
            range(bounds.max_multiplicity + 1), repeat=len(cells)
        ):
            if sum(values) > bounds.max_edges or sum(values) == 0:
                continue
            pairs = []
            for (i, j), c in zip(cells, values):
                pairs.extend([(i, j)] * c)
            g = Multigraph.from_edge_list(n, pairs)
            if not g.is_two_connected():
                continue
            mat = g.multiplicity_matrix
            best = min(
                tuple(tuple(mat[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            reps.add(best)
    return sorted(reps, key=lambda m: (len(m), sum(map(sum, m)), m))


def enumerate_by_canonicalizing(bounds: CensusBounds) -> list[Multigraph]:
    """Census by labelled fillings, deduplicated by canonical form.

    Fills the multiplicity matrix row by row with degree and edge-budget
    pruning, canonicalizes every 2-connected filling and keeps the first
    of each class.  Returns canonical representatives sorted as
    `enumerate_census` sorts them.
    """
    seen = set()
    out = []
    for n in range(2, bounds.max_vertices + 1):
        for g in _labelled_fillings(n, bounds):
            canon = g.canonicalize()[0]
            if canon.canonical_form not in seen:
                seen.add(canon.canonical_form)
                out.append(canon)
    out.sort(key=lambda g: (g.n, g.m, g.canonical_form))
    return out


def _labelled_fillings(n: int, bounds: CensusBounds):
    """Every 2-connected labelled multiplicity filling on n vertices."""
    if n == 2:
        for k in range(1, min(bounds.max_edges, bounds.max_multiplicity) + 1):
            yield Multigraph.from_edge_list(2, [(0, 1)] * k)
        return
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # row-major order: vertex i's degree is final once row i is filled
    row_end = {i: max(k for k, (a, _) in enumerate(cells) if a == i) for i in range(n - 1)}
    counts = [0] * len(cells)
    deg = [0] * n
    out = []

    def rec(idx: int, total: int) -> None:
        if idx == len(cells):
            if deg[n - 1] >= 2 and total >= n:
                pairs = []
                for (i, j), c in zip(cells, counts):
                    pairs.extend([(i, j)] * c)
                g = Multigraph.from_edge_list(n, pairs)
                if g.is_two_connected():
                    out.append(g)
            return
        i, j = cells[idx]
        for c in range(min(bounds.max_multiplicity, bounds.max_edges - total) + 1):
            counts[idx] = c
            deg[i] += c
            deg[j] += c
            if row_end.get(i) != idx or deg[i] >= 2:
                rec(idx + 1, total + c)
            deg[i] -= c
            deg[j] -= c
        counts[idx] = 0

    rec(0, 0)
    yield from out


def subset_pass_by_combinations(
    graph: Multigraph,
) -> tuple[tuple[frozenset[int], frozenset[int], int], ...]:
    """`matroid.subset_pass` by testing all 2^n vertex subsets.

    Builds the induced subgraph of every subset with at least two
    vertices, in `itertools.combinations` order by size, and keeps
    (S, E(S), k(S)) for each 2-connected one.  k(S) is computed as the
    library computes it; the enumeration, the 2-connectivity test and
    E(S) are independent of the bitmask pass.
    """
    out = []
    for size in range(2, graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            s = frozenset(combo)
            if graph.induced_subgraph(s).is_two_connected():
                k = len(graph.contract_subset(s).blocks())
                out.append((s, graph.edges_within(s), k))
    return tuple(out)


def rank(graph: Multigraph, edge_ids: frozenset[int] | set[int]) -> int:
    """Size of a maximal forest inside the edge set."""
    edges = [graph.edge(eid) for eid in edge_ids]
    verts = {v for e in edges for v in (e.u, e.v)}
    parent = {v: v for v in verts}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(verts)
    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[rv] = ru
            components -= 1
    return len(verts) - components


def is_matroid_connected(graph: Multigraph) -> bool:
    """True iff every pair of edges lies on a common circuit.

    A single-edge ground set counts as connected.  Brute force over edge
    subsets; by Whitney's theorem it agrees with `is_two_connected` on
    loop-free graphs with at least two edges.
    """
    m = graph.m
    if m <= 1:
        return True
    ids = [e.eid for e in graph.edges]
    parent = {i: i for i in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for size in range(2, m + 1):
        for combo in itertools.combinations(ids, size):
            s = frozenset(combo)
            if rank(graph, s) != size - 1:
                continue
            if all(rank(graph, s - {x}) == size - 1 for x in s):
                # circuit: union all its members
                root = find(combo[0])
                for x in combo[1:]:
                    parent[find(x)] = root
    classes = {find(i) for i in ids}
    return len(classes) == 1
