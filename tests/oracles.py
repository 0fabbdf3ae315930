"""Brute-force reference implementations that the tests compare against.

Each shares no code with the library path it checks and is meant for
tiny inputs only.  The double-description hull oracle, lattice-point
enumeration with the dilation-1 check, and the Matrix-Tree count back
acceptance criteria 6, 9 and 8.  The edge-list block DFS
(`blocks_by_edge_dfs` and the predicates on it) and the union-find
`pieces_by_union_find` check the mask connectivity kernel of
`multigraph`; the census, subset-pass and edge-kind references test
2-connectivity with them.  `spanning_trees_by_subsets` is the walk over
every (n - 1)-subset of the edges that the backtracking spanning-tree
listing replaced.  `subdivide_edge_by_hand` and
`multi_gluing_by_vertex_map` are the builders that path-gluing the
delta-cycle and the fold of universal gluings replaced in
`constructions`.  `canonical_ordering_by_columns` is the lex-max
ordering search that rebuilds every column per node; `lex_max_graph`
relabels by it, and the tests hold the census's canonicity test and
the canonical form to it.  `edge_kinds_by_minors` builds G - e and
G/e for every edge.  There are seven exceptions.
`enumerate_orderly_unpruned` shares the library's canonicity test
`is_canonical_order` and checks only the census's pre-filters.
`decompose_eagerly` differs from `constructions.decompose` in when it
verifies; its split generator, `split_predecessors_by_side_graphs`,
builds every side graph and reads `matroid.edge_kinds`, where the
library filters on masks, and its verify runs `_spade_holds` on both
sides and replays every split, where the library reads both sides'
spade off the state's edge kinds and replays only crossed splits; its
subdivision generator,
`subdivision_predecessors_by_round_trip`, reads `matroid.edge_kinds` and
contracts the subdivided path again, where the library's lemmas settle
both.
`subset_pass_by_reverse_search` and
`two_connected_mask` share the kernel's mask helpers `_bits`, `_reach`
and `_components`, but not its block search or the flashlight
enumeration.  `build_polytope_by_enumeration` reads the library's
deletable edges and good flats.  `subset_pass` is the heart reference:
the library's flashlight search `matroid._two_connected_masks` lists
every 2-connected subset S, and it adds E(S) and the block count k(S)
of G/E(S); the tests hold its records to the two subset-pass
references above.  `good_flat_masks_by_subset_pass` filters it, so it
checks only the pruned good-flat search.  `records_as_sets` turns its
mask records back into the set records the subset-pass references
return; the set-based criteria `check_spade_by_sets` and
`check_heart_by_sets` read the library's good flats and those records,
and sum weights by edge id (`total_of`), where the library sums them by
popcount.  So `check_heart_by_sets` tests heart on every 2-connected
subset, where `criteria.check_heart` tests V and the good flats only.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache, partial
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from gorenstein import constructions, matroid
from gorenstein.census import CensusBounds
from gorenstein.constructions import ConstructionTrace, Memo, TraceStep
from gorenstein.criteria import WeightAssignment
from gorenstein.lattice import dot, kernel_basis_with_dual
from gorenstein.multigraph import (
    Edge,
    Multigraph,
    _bits,
    _components,
    _reach,
    is_canonical_order,
)
from gorenstein.polytope import (
    KIND_GOOD_FLAT,
    KIND_NONNEGATIVITY,
    BasePolytope,
    FacetInequality,
    build_polytope,
)

KIND_HULL = "hull"


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
            if not is_two_connected_by_edge_dfs(g):
                continue
            mat = g.multiplicity_matrix
            best = min(
                tuple(tuple(mat[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            reps.add(best)
    return sorted(reps, key=lambda m: (len(m), sum(map(sum, m)), m))


def enumerate_by_canonicalizing(bounds: CensusBounds) -> list[Multigraph]:
    """Census by labelled fillings, deduplicated by lex-max matrix.

    Fills the multiplicity matrix row by row with degree and edge-budget
    pruning, relabels every 2-connected filling by its lex-max ordering
    (`lex_max_graph`) and keeps the first of each class.  Returns the
    orderly representatives sorted as `enumerate_census` sorts them.
    """
    seen = set()
    out = []
    for n in range(2, bounds.max_vertices + 1):
        for g in _labelled_fillings(n, bounds):
            rep = lex_max_graph(g)
            if rep.multiplicity_matrix not in seen:
                seen.add(rep.multiplicity_matrix)
                out.append(rep)
    out.sort(key=lambda g: (g.n, g.m, g.multiplicity_matrix))
    return out


def lex_max_graph(graph: Multigraph) -> Multigraph:
    """The graph relabelled by its lex-max ordering
    (`canonical_ordering_by_columns`), edges sorted by endpoints and
    numbered in that order: the census's orderly representative of the
    graph's class, and the canonical graph of the ordering search that
    individualization-refinement replaced in `Multigraph.canonicalize`.
    Ties among maximal orderings give one matrix, since the column-wise
    upper-triangle sequence determines it."""
    n, mat = graph.n, graph.multiplicity_matrix
    order = canonical_ordering_by_columns(mat, n)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        for _ in range(mat[order[i]][order[j]])
    ]
    return Multigraph.from_edge_list(n, pairs)


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
                if is_two_connected_by_edge_dfs(g):
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


def enumerate_orderly_unpruned(bounds: CensusBounds) -> list[Multigraph]:
    """`census.enumerate_census` without its transposition bound, edge
    reserve and leaf-block prune.

    The orderly fill as it was before those pre-filters: every column
    value up to the multiplicity and edge caps, the canonicity test on
    every completed column, and each complete matrix tested for
    2-connectivity on its own by edge DFS, with no block search of its
    prefix.  Returns the census in `enumerate_census`'s order, so the two
    lists must be equal.
    """
    out = []
    for n in range(2, bounds.max_vertices + 1):
        if n == 2:
            for k in range(1, min(bounds.max_edges, bounds.max_multiplicity) + 1):
                out.append(Multigraph.from_edge_list(2, [(0, 1)] * k))
            continue
        mat = [[0] * n for _ in range(n)]

        def leaf(total: int) -> None:
            if total < n or min(map(sum, mat)) < 2:
                return
            pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n) for _ in range(mat[i][j])
            ]
            g = Multigraph.from_edge_list(n, pairs)
            if is_two_connected_by_edge_dfs(g):
                out.append(g)

        def fill(i: int, j: int, total: int, column: int) -> None:
            if i == j:
                if column and is_canonical_order(mat, j + 1):
                    if j == n - 1:
                        leaf(total)
                    else:
                        fill(0, j + 1, total, 0)
                return
            for c in range(min(bounds.max_multiplicity, bounds.max_edges - total) + 1):
                mat[i][j] = mat[j][i] = c
                fill(i + 1, j, total + c, column + c)
            mat[i][j] = mat[j][i] = 0

        fill(0, 1, 0, 0)
    out.sort(key=lambda g: (g.n, g.m, g.multiplicity_matrix))
    return out


def canonical_ordering_by_columns(
    mult: Sequence[Sequence[int]], n: int, incumbent: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """The lex-max ordering, or the first prefix that beats an incumbent,
    with every column rebuilt per node.

    Each search node rebuilds the column of every unplaced vertex from
    the placement order and sorts the distinct columns; there are no
    cells.  The ordering maximizes the column-wise upper-triangle sequence.

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


def blocks_by_edge_dfs(graph: Multigraph) -> list[frozenset[int]]:
    """`Multigraph.blocks` by a Tarjan DFS over an edge-list adjacency.

    The block search the mask kernel replaced, unchanged: an iterative DFS
    that stacks tree and back edges by id and pops one block each time a
    child's low point does not reach above its parent.
    """
    adjacency = _edge_adjacency(graph)
    disc = [-1] * graph.n
    low = [0] * graph.n
    stack: list[tuple[int, int, int]] = []
    out: list[frozenset[int]] = []
    counter = itertools.count()

    def dfs(root: int) -> None:
        # iterative DFS to keep deep paths safe
        work: list[tuple[int, int, iter]] = [(root, -1, iter(adjacency[root]))]
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
                    work.append((w, eid, iter(adjacency[w])))
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

    for r in range(graph.n):
        if disc[r] == -1 and adjacency[r]:
            dfs(r)
    return out


def is_connected_by_edge_search(graph: Multigraph) -> bool:
    """`Multigraph.is_connected` by a DFS over the edge-list adjacency."""
    if graph.n == 0:
        return False
    adjacency = _edge_adjacency(graph)
    seen = {0}
    stack = [0]
    while stack:
        for w, _ in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


def is_two_connected_by_edge_dfs(graph: Multigraph) -> bool:
    """`Multigraph.is_two_connected`: connected, n >= 2, one edge-DFS block."""
    return (
        graph.n >= 2
        and is_connected_by_edge_search(graph)
        and len(blocks_by_edge_dfs(graph)) == 1
    )


def _edge_adjacency(graph: Multigraph) -> list[list[tuple[int, int]]]:
    """Per vertex, its (neighbour, edge id) pairs in edge order."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for e in graph.edges:
        adjacency[e.u].append((e.v, e.eid))
        adjacency[e.v].append((e.u, e.eid))
    return adjacency


def two_connected_mask(s: int, nbr: Sequence[int]) -> bool:
    """Whether the vertex mask S induces a 2-connected subgraph.

    The mask test that the flashlight pass replaced, unchanged.  As in
    `Multigraph.is_two_connected`, one vertex is not 2-connected and two
    adjacent vertices are; larger S must have no cut vertex.  A pair must
    be connected on entry; a larger S need not be, since the BFS tree
    grown from its lowest vertex also gives the connectivity verdict.
    Only the tree's inner vertices are then removed and S re-tested: a
    leaf of a spanning tree is never a cut vertex.
    """
    size = s.bit_count()
    if size <= 2:
        return size == 2
    # one BFS tree over S; a vertex that gains a child in it is inner
    seen = frontier = s & -s
    inner = 0
    while frontier:
        reach = 0
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            near = nbr[w.bit_length() - 1] & s
            # a vertex with one neighbour in S makes that neighbour a cut vertex
            if not near & (near - 1):
                return False
            kids = near & ~seen
            if kids:
                inner |= w
                seen |= kids
                reach |= kids
        frontier = reach
    if seen != s:
        return False
    # a leaf of a spanning tree of S is never a cut vertex of S
    while inner:
        w = inner & -inner
        inner ^= w
        if _reach(s ^ w, nbr) != s ^ w:
            return False
    return True


def subset_pass_by_combinations(
    graph: Multigraph,
) -> tuple[tuple[frozenset[int], frozenset[int], int], ...]:
    """`subset_pass` by testing all 2^n vertex subsets.

    Builds the induced subgraph of every subset with at least two
    vertices, in `itertools.combinations` order by size, and keeps
    (S, E(S), k(S)) for each 2-connected one, with k(S) the block count
    of the contracted graph `contract_subset(graph, S)`, both by the
    edge-list DFS `blocks_by_edge_dfs`.  Nothing here reads the bitmask
    pass or the mask kernel.
    """
    out = []
    for size in range(2, graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            s = frozenset(combo)
            if is_two_connected_by_edge_dfs(graph.induced_subgraph(s)):
                k = len(blocks_by_edge_dfs(contract_subset(graph, s)))
                out.append((s, edges_within(graph, s), k))
    return tuple(out)


def subset_pass_by_reverse_search(
    graph: Multigraph,
) -> tuple[tuple[frozenset[int], frozenset[int], int], ...]:
    """`subset_pass` by testing every connected vertex subset.

    The pass the flashlight search replaced: reverse search grows each
    connected subset once from its minimum vertex, the mask test
    `two_connected_mask` keeps the 2-connected ones, and k(S) is read off
    the block of `blocks_by_edge_dfs` that holds S.  It shares the mask
    helpers `_bits`, `_reach` and `_components` with the library, not the
    enumeration or the block search; unlike `subset_pass_by_combinations`
    it is fast enough for 20 vertices.
    """
    nbr = graph.neighbour_masks
    edge_masks = [(e.eid, (1 << e.u) | (1 << e.v)) for e in graph.edges]
    blocks = [sum(1 << v for v in b) for b in blocks_by_edge_dfs(graph)]
    out = []
    for s in _connected_subsets(nbr):
        if two_connected_mask(s, nbr):
            verts = _bits(s)
            home = next(b for b in blocks if s & b == s)
            k = len(blocks) - 1 + _components(home & ~s, nbr)
            edges = frozenset(eid for eid, em in edge_masks if em & s == em)
            out.append(((len(verts), verts), (frozenset(verts), edges, k)))
    out.sort(key=lambda rec: rec[0])
    return tuple(rec for _, rec in out)


@lru_cache(maxsize=256)
def subset_pass(graph: Multigraph) -> tuple[tuple[int, int, int], ...]:
    """(S, E(S), k(S)) for every 2-connected vertex subset S, V included,
    as three ints: the pass over every 2-connected subset that the heart
    check ran before it read only V and the good flats.

    S comes from the library's flashlight search `_two_connected_masks`,
    which the tests hold to the two references above, in its order; E(S)
    is an edge-position mask, bit i standing for `graph.edges[i]`.  k(S)
    is the block count of G/E(S).  S lies in one block B of G.  In
    B/E(S), a vertex w other than the contracted one is no cut vertex,
    because B - w stays connected and (B/E(S)) - w = (B - w)/E(S); so the
    blocks of B/E(S) are the components of B - S, each joined to the
    contracted vertex, and the other blocks of G are untouched: k(S) =
    (blocks of G) - 1 + (components of B - S).  Cached: the set-based
    heart reads it once per assignment.
    """
    nbr = graph.neighbour_masks
    blocks = graph.block_masks
    others = len(blocks) - 1
    masks = matroid._two_connected_masks(nbr)
    out = []
    for s, edges in zip(masks, matroid._induced_edge_masks(graph, masks)):
        home = next(b for b in blocks if s & b == s)
        out.append((s, edges, others + _components(home & ~s, nbr)))
    return tuple(out)


def records_as_sets(
    graph: Multigraph,
) -> tuple[tuple[frozenset[int], frozenset[int], int], ...]:
    """The mask records of `subset_pass` as (S, E(S), k(S)) sets.

    Vertex sets and edge-id sets, ordered by size, then in combinations
    order within a size: the record format of the two subset-pass
    references above.
    """
    ids = [e.eid for e in graph.edges]
    out = []
    for s, edges, k in subset_pass(graph):
        verts = _bits(s)
        edge_ids = frozenset(ids[i] for i in _bits(edges))
        out.append(((len(verts), verts), (frozenset(verts), edge_ids, k)))
    out.sort(key=lambda rec: rec[0])
    return tuple(rec for _, rec in out)


def good_flat_masks_by_subset_pass(graph: Multigraph) -> list[tuple[int, int]]:
    """`matroid.good_flat_masks` as the filter that its own search
    replaced: the (S, E(S)) mask pairs of the `subset_pass` records with
    k(S) = 1, in search order."""
    return [(s, edges) for s, edges, k in subset_pass(graph) if k == 1]


def total_of(assignment: WeightAssignment, edge_ids) -> int:
    """w of the given edge ids, each counted once; ids outside the
    assignment count 0."""
    weight_of = dict(assignment.weights)
    return sum(weight_of.get(eid, 0) for eid in set(edge_ids))


def check_spade_by_sets(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """`criteria.check_spade` by summing weights over the edge ids of each
    good flat of `matroid.good_flats`, read off its vertex set rather than
    the library's edge mask."""
    delta = assignment.delta
    if assignment.total() != delta * (graph.n - 1):
        return False
    for flat in matroid.good_flats(graph):
        inside = edges_within(graph, flat.subset)
        if total_of(assignment, inside) + 1 != delta * (len(flat.subset) - 1):
            return False
    return True


def check_heart_by_sets(graph: Multigraph, assignment: WeightAssignment) -> bool:
    """`criteria.check_heart` by its full definition: the block-count
    equality on every record of `records_as_sets`, that is on every
    2-connected subset, with weights summed over edge ids."""
    delta = assignment.delta
    for subset, edges, k in records_as_sets(graph):
        if total_of(assignment, edges) + k != delta * (len(subset) - 1):
            return False
    return True


def _connected_subsets(nbr: Sequence[int]):
    """Every nonempty vertex mask inducing a connected subgraph, once each.

    Reverse search from the minimum vertex (Avis and Fukuda 1996;
    Komusiewicz and Sorge 2015): a frame (S, N(S), F) grows S by each
    vertex of N(S) outside F in turn, and adds that vertex to F for the
    later siblings, so the branches partition the connected supersets of
    S that avoid F.
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


def edge_kinds_by_minors(graph: Multigraph) -> dict[int, str | None]:
    """`matroid.edge_kinds` by building G - e and G/e for every edge.

    'del' if `delete_edge` leaves a 2-connected graph, else 'con' if
    `contract_edge` does, else None; 2-connectivity is the edge-list
    DFS `is_two_connected_by_edge_dfs`.
    """
    kinds: dict[int, str | None] = {}
    for e in graph.edges:
        if is_two_connected_by_edge_dfs(delete_edge(graph, e.eid)):
            kinds[e.eid] = "del"
        elif is_two_connected_by_edge_dfs(contract_edge(graph, e.eid)):
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


def edges_within(graph: Multigraph, subset: frozenset[int] | set[int]) -> frozenset[int]:
    """E(S): ids of edges with both endpoints in the subset."""
    return frozenset(
        e.eid for e in graph.edges if e.u in subset and e.v in subset
    )


def parallel_class(graph: Multigraph, eid: int) -> tuple[int, ...]:
    """Ids of all edges sharing this edge's endpoint pair (incl. itself)."""
    e = graph.edge(eid)
    return tuple(f.eid for f in graph.edges if (f.u, f.v) == (e.u, e.v))


def subdivide_edge_by_hand(
    graph: Multigraph, eid: int, delta: int
) -> tuple[Multigraph, tuple[int, ...]]:
    """`constructions.subdivide_edge` as the builder it replaced.

    Appends delta - 2 fresh interior vertices and joins the edge's ends
    through them by delta - 1 edges with fresh ids in path order; it
    checks neither the edge's kind nor 2-connectivity.  The library's
    path-gluing of the delta-cycle must return the same graph and path.
    """
    e = graph.edge(eid)
    chain = [e.u, *range(graph.n, graph.n + delta - 2), e.v]
    next_id = max(f.eid for f in graph.edges) + 1
    edges = [f for f in graph.edges if f.eid != eid]
    for a, b in zip(chain, chain[1:]):
        edges.append(Edge(next_id, min(a, b), max(a, b)))
        next_id += 1
    return Multigraph(graph.n + delta - 2, tuple(edges)), tuple(chain)


def multi_gluing_by_vertex_map(graphs, edges) -> Multigraph:
    """`constructions.multi_gluing` as the builder it replaced, for
    delta - 1 >= 2 graphs and a chosen edge in each.

    Vertices 0 and 1 are the merged ends of the chosen edges, every other
    vertex of each graph is appended in turn, all unchosen edges are kept
    and one edge joins 0 and 1; it checks no weight or connectivity.  The
    library's fold of universal gluings must give an isomorphic graph.
    """
    out_edges = []
    nxt = 2
    for g, chosen in zip(graphs, edges):
        ce = g.edge(chosen)
        vmap = {ce.u: 0, ce.v: 1}
        for w in range(g.n):
            if w not in vmap:
                vmap[w] = nxt
                nxt += 1
        out_edges += [(vmap[e.u], vmap[e.v]) for e in g.edges if e.eid != chosen]
    return Multigraph.from_edge_list(nxt, out_edges + [(0, 1)])


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
    the library's, each flat's edges read off its vertex set; the
    witnesses, the vertices, the basis and the reduction are independent
    of `build_polytope`.
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
        idxs = {index[eid] for eid in edges_within(graph, flat.subset)}
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
    g = gcd(*ints)
    prim = [x // g for x in ints]
    n = len(normal)
    reduced = [0] * n
    for p, d in zip(prim, duals):
        for i in range(n):
            reduced[i] += p * d[i]
    rnormal = tuple(reduced)
    roffset = dot(rnormal, witness)
    return rnormal, int(roffset)


def hull_facets_oracle(points) -> tuple[FacetInequality, ...]:
    """Complete facet list of the convex hull of integer points.

    Double description over exact rationals within the affine span; each
    facet carries its primitive integer form obtained by lattice
    reduction (Hermite-style kernel basis with integer duals).
    """
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if len(pts) < 2:
        raise ValueError("degenerate input: need at least 2 distinct points")
    n = len(pts[0])
    x0 = pts[0]
    diffs = [[p[i] - x0[i] for i in range(n)] for p in pts[1:]]
    ortho = rational_nullspace_int([list(d) for d in diffs], n)
    basis, duals = kernel_basis_with_dual([list(r) for r in ortho], n)
    k = len(basis)
    if k == 0:
        raise ValueError("degenerate input: affine span is a point")
    ys = []
    for p in pts:
        rel = [p[i] - x0[i] for i in range(n)]
        y = tuple(dot(d, rel) for d in duals)
        # saturation guarantee: rel must be recovered exactly
        if any(sum(basis[j][i] * y[j] for j in range(k)) != rel[i] for i in range(n)):
            raise RuntimeError(f"lattice basis does not recover point {p}")
        ys.append(y)
    rows = [(1,) + y for y in ys]
    rays, tights = _dual_cone_rays(rows, k + 1)
    facets = []
    for ray in rays:
        b, a = ray[0], ray[1:]
        m_y = tuple(-x for x in a)
        g = gcd(*m_y)
        if g <= 0 or b % g:
            raise RuntimeError(f"dual ray {ray} has no integer primitive form")
        m_hat = tuple(x // g for x in m_y)
        b_hat = b // g
        c = [0] * n
        for coef, d in zip(m_hat, duals):
            for i in range(n):
                c[i] += coef * d[i]
        c = tuple(c)
        o = b_hat + dot(c, x0)
        facets.append(FacetInequality(KIND_HULL, None, None, c, int(o), c, int(o)))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return tuple(facets)


def _dual_cone_rays(rows, dim):
    """Extreme rays of {z : row . z >= 0 for all rows} (assumed pointed).

    Classic double description: seed with a simplicial subcone from
    `dim` linearly independent rows, then insert the remaining
    inequalities, combining adjacent positive/negative ray pairs.
    """
    selected = []
    sel_rows: list[list[Fraction]] = []
    for idx, row in enumerate(rows):
        trial = sel_rows + [[Fraction(x) for x in row]]
        if rational_rank(trial) > len(sel_rows):
            selected.append(idx)
            sel_rows = trial
            if len(selected) == dim:
                break
    if len(selected) < dim:
        raise ValueError("input not full-dimensional in its affine span")
    minv = fraction_matrix_inverse([[Fraction(x) for x in rows[i]] for i in selected])
    rays = [
        scale_to_primitive_int([minv[r][j] for r in range(dim)]) for j in range(dim)
    ]
    processed = list(selected)

    def tight_set(ray):
        return frozenset(i for i in processed if dot(rows[i], ray) == 0)

    tights = [tight_set(r) for r in rays]
    remaining = [i for i in range(len(rows)) if i not in set(selected)]
    for idx in remaining:
        row = rows[idx]
        vals = [dot(row, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(idx)
            tights = [
                t | {idx} if v == 0 else t for t, v in zip(tights, vals)
            ]
            continue
        keep = [i for i, v in enumerate(vals) if v >= 0]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        for i in plus:
            for j in minus:
                common = tights[i] & tights[j]
                adjacent = True
                for l, t in enumerate(tights):
                    if l not in (i, j) and common <= t:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[i] * rays[j][c] - vals[j] * rays[i][c] for c in range(dim)
                )
                new_rays.append(scale_to_primitive_int(combo))
        processed.append(idx)
        rays = [rays[i] for i in keep] + new_rays
        tights = [
            (tights[i] | {idx}) if vals[i] == 0 else tights[i] for i in keep
        ] + [tight_set(r) for r in new_rays]
    return rays, tights


def facet_holds(facet: FacetInequality, point, dilation: int = 1) -> bool:
    """Whether the point satisfies the facet's inequality at this dilation."""
    return dot(facet.normal, point) <= dilation * facet.offset


def lattice_points(polytope: BasePolytope, dilation: int) -> list[tuple[int, ...]]:
    """All integer points of the dilated polytope.

    Bounded coordinate recursion: 0 <= x_e <= dilation (the polytope has
    0/1 vertices), coordinate sum dilation * rank, with partial-sum
    pruning on the nonnegative-normal facets and a full facet check at
    the leaves.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    m = polytope.ambient_dim
    total = dilation * polytope.rank
    pos = [
        (f.normal, dilation * f.offset)
        for f in polytope.facets
        if all(c >= 0 for c in f.normal) and any(c > 0 for c in f.normal)
    ]
    out: list[tuple[int, ...]] = []
    x = [0] * m
    sums = [0] * len(pos)

    def rec(i: int, rem: int) -> None:
        if i == m:
            if rem == 0 and all(facet_holds(f, x, dilation) for f in polytope.facets):
                out.append(tuple(x))
            return
        hi = min(dilation, rem)
        for val in range(hi + 1):
            if rem - val > dilation * (m - i - 1):
                continue
            x[i] = val
            ok = True
            touched = []
            for fi, (normal, bound) in enumerate(pos):
                if normal[i]:
                    sums[fi] += normal[i] * val
                    touched.append(fi)
                    if sums[fi] > bound:
                        ok = False
            if ok:
                rec(i + 1, rem - val)
            for fi in touched:
                sums[fi] -= pos[fi][0][i] * val
        x[i] = 0

    rec(0, total)
    return out


def never_delta_one(graph: Multigraph) -> bool:
    """No dilation-1 lattice point is strictly inside every facet."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    if graph.m < 2:
        raise ValueError("need at least 2 edges")
    polytope = build_polytope(graph)
    for point in lattice_points(polytope, 1):
        if all(f.distance(point, 1) >= 1 for f in polytope.facets):
            return False
    return True


def primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g <= 1:
        return vec
    return tuple(v // g for v in vec)


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q, by Gaussian elimination on a copy."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank_ = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank_ < len(mat) and col < ncols:
        pivot = next((i for i in range(rank_, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank_], mat[pivot] = mat[pivot], mat[rank_]
        pv = mat[rank_][col]
        for i in range(rank_ + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank_])]
        rank_ += 1
        col += 1
    return rank_


def rational_nullspace_int(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Integer-cleared basis of {x in Q^n : rows . x = 0}."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][col]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ivec = tuple(int(v * denom) for v in vec)
        basis.append(primitive(ivec))
    return basis


def fraction_matrix_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (raises on singular)."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def scale_to_primitive_int(vec) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to a primitive integer vector."""
    denom = 1
    for x in vec:
        f = Fraction(x)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ivec = [int(Fraction(x) * denom) for x in vec]
    g = gcd(*ivec)
    if g > 1:
        ivec = [x // g for x in ivec]
    return tuple(ivec)


def spanning_trees_by_subsets(graph: Multigraph) -> list[frozenset[int]]:
    """Every (n - 1)-subset of the edges that union-find finds acyclic, in
    combinations order: the walk `Multigraph.spanning_trees` replaced."""
    if not is_connected_by_edge_search(graph):
        raise ValueError("graph is not connected")
    out = []
    for combo in itertools.combinations(graph.edges, graph.n - 1):
        parent = list(range(graph.n))

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


def spanning_tree_count(graph: Multigraph) -> int:
    """Matrix-Tree determinant of a Laplacian principal minor."""
    if graph.n == 1:
        return 1
    lap = [[0] * graph.n for _ in range(graph.n)]
    for e in graph.edges:
        lap[e.u][e.u] += 1
        lap[e.v][e.v] += 1
        lap[e.u][e.v] -= 1
        lap[e.v][e.u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _int_determinant(minor)


def _int_determinant(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def pieces_by_union_find(graph: Multigraph, u: int, v: int):
    """`constructions._pieces` by a union-find over G - {u, v}.

    The grouping the mask version replaced, unchanged: pieces come in the
    order of their first edge in `graph.edges`, as do the edges within a
    piece and the direct u-v edges.
    """
    others = [w for w in range(graph.n) if w not in (u, v)]
    parent = {w: w for w in others}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    direct = []
    for e in graph.edges:
        if {e.u, e.v} == {u, v}:
            direct.append(e.eid)
        elif e.u in parent and e.v in parent:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[rv] = ru
    groups: dict[int, list[int]] = {}
    for e in graph.edges:
        if {e.u, e.v} == {u, v}:
            continue
        anchor = e.u if e.u in parent else e.v
        groups.setdefault(find(anchor), []).append(e.eid)
    return list(groups.values()), direct


def split_predecessors_by_side_graphs(state: Multigraph, delta: int):
    """`constructions._split_predecessors` by building both side graphs.

    The generator the mask filter replaced, unchanged but for taking its
    pieces from `pieces_by_union_find` and yielding (shape, verify) from
    sides it has already built: every piece subset, style and direct-edge
    share builds both sides as graphs, tests each for 2-connectivity and
    reads each fresh edge from `matroid.edge_kinds`; its verify searches
    both sides' good flats for spade, replays the gluing and compares
    canonical forms.  The library generator must yield the same shapes
    and, on a state that satisfies spade, the same verify results, in
    the same order.
    """
    for u, v in itertools.combinations(range(state.n), 2):
        pieces, direct = pieces_by_union_find(state, u, v)
        units = len(pieces)
        if units + len(direct) < 2:
            continue
        styles = [("path", 0)]
        if delta >= 3 and len(direct) >= delta - 2:
            styles.append(("delta", delta - 2))
        for mask in range(1 << units):
            side_a = [eid for i in range(units) if mask >> i & 1 for eid in pieces[i]]
            side_b = [
                eid for i in range(units) if not mask >> i & 1 for eid in pieces[i]
            ]
            for style, withheld in styles:
                usable = len(direct) - withheld
                for d_a in range(usable + 1):
                    a_edges = side_a + direct[:d_a]
                    b_edges = side_b + direct[d_a:usable]
                    if not a_edges or not b_edges:
                        continue
                    g1 = constructions._side_graph(state, a_edges, u, v)
                    g2 = constructions._side_graph(state, b_edges, u, v)
                    e1, e2 = max(a_edges) + 1, max(b_edges) + 1
                    if not (g1.is_two_connected() and g2.is_two_connected()):
                        continue
                    k1 = matroid.edge_kinds(g1)[e1]
                    k2 = matroid.edge_kinds(g2)[e2]
                    if style == "path":
                        if k1 != "del":
                            continue
                        if delta > 2 and k2 != "con":
                            continue
                        if delta == 2 and k2 is None:
                            continue
                    else:
                        if delta > 2 and not (k1 == "con" and k2 == "con"):
                            continue
                    yield (g1.n, g1.m), partial(
                        _verify_split_by_side_graphs, state, delta, style, g1, e1, g2, e2
                    )


def _verify_split_by_side_graphs(
    state: Multigraph, delta: int, style: str, g1, e1: int, g2, e2: int
):
    if not (constructions._spade_holds(g1, delta) and constructions._spade_holds(g2, delta)):
        return None
    g1c, _, em1 = g1.canonicalize()
    g2c, _, em2 = g2.canonicalize()
    e1c, e2c = em1[e1], em2[e2]
    op = "path_glue" if style == "path" else "delta_glue"
    glue = constructions.path_gluing if style == "path" else constructions.delta_edge_gluing
    try:
        replayed = glue(g1c, e1c, g2c, e2c, delta)
    except constructions.GluingError:
        return None
    if replayed.canonical_form != state.canonical_form:
        return None
    return g1c, TraceStep(op, partner=g2c, self_edge=e1c, partner_edge=e2c)


def subdivision_predecessors_by_round_trip(
    state: Multigraph, delta: int, max_vertices: int
):
    """`constructions._subdivision_predecessors` by the round trip.

    The generator the lemmas replaced, unchanged but for subdividing by
    `subdivide_edge_by_hand`: it reads the kind of the first edge of each
    parallel class from `matroid.edge_kinds` and skips it unless "del",
    builds the subdivision before yielding its shape, and its verify
    contracts the mapped path of the canonical subdivision and compares
    the result's canonical form with the state's.  The library generator
    must yield the same shapes, with the same verify results, in the same
    order.
    """
    if delta < 3 or state.n + delta - 2 > max_vertices:
        return
    mult = state.multiplicity_matrix
    kinds = matroid.edge_kinds(state)
    seen_pairs = set()
    for e in state.edges:
        if mult[e.u][e.v] < 2 or (e.u, e.v) in seen_pairs:
            continue
        seen_pairs.add((e.u, e.v))
        if kinds[e.eid] != "del":
            continue
        raw, chain = subdivide_edge_by_hand(state, e.eid, delta)
        yield (raw.n, raw.m), partial(
            _verify_subdivision_by_round_trip, state, delta, raw, chain
        )


def _verify_subdivision_by_round_trip(state: Multigraph, delta: int, raw, chain):
    pred, vperm, _ = raw.canonicalize()
    mapped = tuple(vperm[w] for w in chain)
    try:
        back = constructions.contract_path(pred, mapped, delta)
    except constructions.GluingError:
        return None
    if back.canonical_form != state.canonical_form:
        return None
    return pred, TraceStep("path_contract", path=mapped)


def decompose_eagerly(
    graph: Multigraph, delta: int, memo: Memo | None = None
) -> ConstructionTrace | None:
    """`constructions.decompose` with every predecessor verified as it comes.

    The search loop that the lazy two-pass search replaced, unchanged but
    for generating splits by `split_predecessors_by_side_graphs` and
    subdivisions by `subdivision_predecessors_by_round_trip`: each
    candidate of those is verified before the next, and the first
    accepted seed or memo hit ends the search.  The lazy search must
    return the same trace and leave the same memo.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not graph.is_two_connected() or not constructions._spade_holds(graph, delta):
        return None
    found = _search_eagerly(graph.canonicalize()[0], delta, {} if memo is None else memo)
    if found is None:
        return None
    seed, steps = found
    return ConstructionTrace(seed, delta, steps)


def _verified(candidates):
    for _, verify in candidates:
        hit = verify()
        if hit is not None:
            yield hit


def _search_eagerly(target: Multigraph, delta: int, memo: Memo):
    seeds = constructions._seeds(delta)
    if target in seeds:
        return seeds[target], ()
    key = (delta, target)
    if key in memo:
        return memo[key]
    max_vertices = target.n + (delta - 2) * target.m + 2
    came_from: dict[Multigraph, tuple[Multigraph, TraceStep]] = {}
    discovered = {target}
    queue = deque([target])
    found = None
    while queue and found is None:
        state = queue.popleft()
        preds = _verified(
            itertools.chain(
                split_predecessors_by_side_graphs(state, delta),
                subdivision_predecessors_by_round_trip(state, delta, max_vertices),
            )
        )
        for pred, step in preds:
            pkey = (delta, pred)
            if pred in discovered or (pkey in memo and memo[pkey] is None):
                continue
            if not constructions._spade_holds(pred, delta):
                continue
            came_from[pred] = (state, step)
            discovered.add(pred)
            if pred in seeds:
                found = (pred, seeds[pred], ())
                break
            if pkey in memo:
                found = (pred, *memo[pkey])
                break
            queue.append(pred)
    if found is None:
        memo.update(dict.fromkeys((delta, s) for s in discovered))
        return None
    cur, seed, steps = found
    while cur != target:
        cur, step = came_from[cur]
        steps += (step,)
        memo[(delta, cur)] = (seed, steps)
    return seed, steps
