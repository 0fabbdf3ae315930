"""Brute-force reference implementations that the tests compare against.

Each shares no code with the library path it checks and is meant for
tiny inputs only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from gorenstein import matroid
from gorenstein.census import CensusBounds
from gorenstein.lattice import dot, kernel_basis_with_dual, vec_gcd
from gorenstein.multigraph import Edge, Multigraph
from gorenstein.polytope import KIND_GOOD_FLAT, KIND_NONNEGATIVITY, FacetInequality


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
    (S, E(S), k(S)) for each 2-connected one, with k(S) the block count
    of the contracted graph `contract_subset(graph, S)`.  Nothing here
    reads the bitmask pass.
    """
    out = []
    for size in range(2, graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            s = frozenset(combo)
            if graph.induced_subgraph(s).is_two_connected():
                k = len(contract_subset(graph, s).blocks())
                out.append((s, graph.edges_within(s), k))
    return tuple(out)


def edge_kinds_by_minors(graph: Multigraph) -> dict[int, str | None]:
    """`matroid.edge_kinds` by building G - e and G/e for every edge.

    'del' if `delete_edge` leaves a 2-connected graph, else 'con' if
    `contract_edge` does, else None.
    """
    kinds: dict[int, str | None] = {}
    for e in graph.edges:
        if delete_edge(graph, e.eid).is_two_connected():
            kinds[e.eid] = "del"
        elif contract_edge(graph, e.eid).is_two_connected():
            kinds[e.eid] = "con"
        else:
            kinds[e.eid] = None
    return kinds


def delete_edge(graph: Multigraph, eid: int) -> Multigraph:
    graph.edge(eid)
    return Multigraph(graph.n, tuple(e for e in graph.edges if e.eid != eid))


def contract_edge_with_map(graph: Multigraph, eid: int) -> tuple[Multigraph, dict[int, int]]:
    """Contract eid; parallel copies become loops and are dropped.

    Returns the contracted graph and the dense old->new vertex renaming.
    """
    e = graph.edge(eid)
    merged = e.u  # e.v folds into e.u
    renum: dict[int, int] = {}
    nxt = 0
    for v in range(graph.n):
        if v == e.v:
            continue
        renum[v] = nxt
        nxt += 1
    renum[e.v] = renum[merged]
    edges = []
    for f in graph.edges:
        if f.eid == eid:
            continue
        a, b = renum[f.u], renum[f.v]
        if a == b:
            continue  # loop created by contraction: dropped
        edges.append(Edge(f.eid, min(a, b), max(a, b)))
    return Multigraph(graph.n - 1, tuple(edges)), renum


def contract_edge(graph: Multigraph, eid: int) -> Multigraph:
    return contract_edge_with_map(graph, eid)[0]


def contract_subset(graph: Multigraph, subset: frozenset[int] | set[int]) -> Multigraph:
    """Contract every edge with both endpoints in the subset.

    Equivalent to iterated contract_edge over E(S) in any order: each
    connected component of the induced subgraph collapses to a point.
    """
    if not subset:
        raise ValueError("empty subset")
    if not all(0 <= v < graph.n for v in subset):
        raise ValueError("subset outside vertex range")
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        if e.u in subset and e.v in subset:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[rv] = ru
    roots = sorted({find(v) for v in range(graph.n)})
    renum = {r: i for i, r in enumerate(roots)}
    edges = []
    for e in graph.edges:
        a, b = renum[find(e.u)], renum[find(e.v)]
        if a == b:
            continue
        edges.append(Edge(e.eid, min(a, b), max(a, b)))
    return Multigraph(len(roots), tuple(edges))


class ReferencePolytope(NamedTuple):
    ambient_dim: int
    rank: int
    edge_ids: tuple[int, ...]
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[FacetInequality, ...]


def build_polytope_by_enumeration(graph: Multigraph) -> ReferencePolytope:
    """`polytope.build_polytope` with every facet witness picked from the
    full list of spanning trees.

    Lists all C(m, n - 1) edge subsets, keeps the spanning trees as the
    sorted vertices, and reduces each facet functional at the first vertex
    on it, over Fractions, in the slice-lattice basis that
    `kernel_basis_with_dual` computes.  Deletable edges and good flats are
    the library's; the witnesses, the vertices, the basis and the reduction
    are independent of `build_polytope`.
    """
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    edge_ids = tuple(e.eid for e in graph.edges)
    index = {eid: i for i, eid in enumerate(edge_ids)}
    m = len(edge_ids)
    verts = sorted(
        tuple(1 if eid in tree else 0 for eid in edge_ids)
        for tree in graph.spanning_trees()
    )
    basis, duals = kernel_basis_with_dual([[1] * m], m)
    facets = []
    for eid in sorted(matroid.deletable_edges(graph), key=index.__getitem__):
        normal = tuple(-1 if i == index[eid] else 0 for i in range(m))
        witness = next(v for v in verts if v[index[eid]] == 0)
        rn, ro = _reduce_by_fractions(normal, 0, basis, duals, witness)
        facets.append(
            FacetInequality(KIND_NONNEGATIVITY, eid, None, normal, 0, rn, ro)
        )
    for flat in matroid.good_flats(graph):
        idxs = {index[eid] for eid in flat.induced_edge_ids}
        normal = tuple(1 if i in idxs else 0 for i in range(m))
        offset = len(flat.subset) - 1
        witness = next(v for v in verts if dot(normal, v) == offset)
        rn, ro = _reduce_by_fractions(normal, offset, basis, duals, witness)
        facets.append(
            FacetInequality(KIND_GOOD_FLAT, None, flat.subset, normal, offset, rn, ro)
        )
    return ReferencePolytope(m, graph.n - 1, edge_ids, tuple(verts), tuple(facets))


def _reduce_by_fractions(normal, offset, basis, duals, witness):
    """The facet reduction of `build_polytope_by_enumeration`, over Fractions.

    `normal . x <= offset` must hold with equality at the integer point
    `witness`, and `basis`/`duals` describe the direction lattice of the
    affine span.  Returns integer (reduced_normal, reduced_offset) whose
    value gap  reduced_offset - reduced_normal . x  equals
    (offset - normal . x) / g on the affine span, g > 0 the lattice gcd.
    """
    values = [Fraction(dot(normal, b)) for b in basis]
    if all(v == 0 for v in values):
        raise ValueError("functional vanishes on the affine span")
    denom = 1
    for v in values:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in values]
    g = vec_gcd(ints)
    prim = [x // g for x in ints]
    n = len(normal)
    reduced = [0] * n
    for p, d in zip(prim, duals):
        for i in range(n):
            reduced[i] += p * d[i]
    rnormal = tuple(reduced)
    roffset = dot(rnormal, witness)
    return rnormal, int(roffset)


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
