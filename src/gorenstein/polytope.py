"""Exact polyhedral layer for graphic-matroid base polytopes.

H-representation from the two facet families (nonnegativity for
deletable edges, upper bounds for good flats), each facet with its
primitive lattice form, and the polyhedral Gorenstein oracle: a scan of
dilations for the lattice point at distance 1 from every facet.  All
arithmetic is arbitrary-precision integer; the Gorenstein property is
lattice-exact, so tolerances would be meaningless.  The references the
tests hold this layer to (a double-description hull oracle, lattice-point
enumeration, the dilation-1 check) live in `tests/oracles.py`.

Each facet's reduced normal is closed-form, the differences
normal_j - normal_0 over their gcd, and its reduced offset is read off
one lattice point on it, its witness: a spanning tree grown by matroid
greedy (Edmonds 1971) over a union-find, avoiding the deletable edge or
taking a spanning tree of the good flat's induced subgraph first.  The
reduced offset is the same at every point of the facet, so one shared
tree T, greedy over all edges in order, serves every facet it lies on:
it is the greedy witness of each deletable edge it leaves out (skipping
an edge greedy rejected changes no later choice), and it lies on each
good flat S on which it has |S| - 1 edges, counted by popcount against
the flat's edge mask.  Only the other facets run greedy of their own.
The V-representation (every spanning tree) is listed only when
`BasePolytope.vertices` is read; the oracle and the census never read it.

The oracle's equations at distance 1 from every facet have the same
coordinate sets at every dilation; only their targets scale.  So the
polytope builds them once, as its cached `distance_one_system` (the
coordinates the nonnegativity facets fix, each equation's free
coordinates and offset, the equations each free coordinate enters), and
each dilation only scales the targets, rejects an unreachable one in
one pass over the equations, and backtracks on fresh copies of the
partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import matroid
from .lattice import dot, vec_gcd
from .multigraph import Multigraph, _bits

KIND_NONNEGATIVITY = "nonnegativity"
KIND_GOOD_FLAT = "good_flat"


@dataclass(frozen=True)
class FacetInequality:
    """A facet, as `normal . x <= dilation * offset`.

    The reduced form is a primitive integer functional on the affine
    lattice: `distance(x, d) = d * reduced_offset - reduced_normal . x`
    is a nonnegative integer on every lattice point of the d-th dilation,
    zero exactly on the facet, and surjective onto Z over the lattice.
    """

    kind: str
    edge: int | None
    subset: frozenset[int] | None
    normal: tuple[int, ...]
    offset: int
    reduced_normal: tuple[int, ...]
    reduced_offset: int

    def distance(self, point, dilation: int = 1) -> int:
        return dilation * self.reduced_offset - dot(self.reduced_normal, point)

    def holds(self, point, dilation: int = 1) -> bool:
        return dot(self.normal, point) <= dilation * self.offset


@dataclass(frozen=True)
class BasePolytope:
    ambient_dim: int
    rank: int
    edge_ids: tuple[int, ...]  # coordinate index -> edge id
    facets: tuple[FacetInequality, ...]
    graph: Multigraph = field(repr=False)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Spanning-tree indicator vectors, sorted; enumerated on first read."""
        return tuple(
            sorted(
                tuple(1 if eid in tree else 0 for eid in self.edge_ids)
                for tree in self.graph.spanning_trees()
            )
        )

    @cached_property
    def distance_one_system(self) -> tuple[tuple, ...]:
        """The dilation-free part of the distance-1 equations, built on first read.

        At distance 1 from every facet of the d-th dilation, x_e = 1 for
        each deletable edge e, x(E(S)) = d(|S| - 1) - 1 for each good flat
        S, and x(E) = d * rank.  Returns (start, free, members, scales,
        shifts, free_counts): start has the fixed coordinates at 1 and the
        rest at 0; free lists the other coordinates in order, and
        members[k] the equations that free[k] enters; equation q asks its
        free_counts[q] free coordinates to sum to d * scales[q] - shifts[q].
        """
        m = self.ambient_dim
        fixed = set()
        equations = [(range(m), self.rank, 0)]
        for f in self.facets:
            if f.kind == KIND_NONNEGATIVITY:
                fixed.add(next(i for i, c in enumerate(f.normal) if c))
            elif f.kind == KIND_GOOD_FLAT:
                idxs = [i for i, c in enumerate(f.normal) if c]
                equations.append((idxs, f.offset, 1))
            else:
                raise ValueError("gorenstein search needs classified facets")
        free = [i for i in range(m) if i not in fixed]
        slot = {i: k for k, i in enumerate(free)}
        members: list[list[int]] = [[] for _ in free]
        scales, shifts, free_counts = [], [], []
        for q, (idxs, scale, shift) in enumerate(equations):
            held = [slot[i] for i in idxs if i in slot]
            for k in held:
                members[k].append(q)
            scales.append(scale)
            shifts.append(shift + len(idxs) - len(held))
            free_counts.append(len(held))
        start = tuple(1 if i in fixed else 0 for i in range(m))
        return (
            start, tuple(free), tuple(map(tuple, members)),
            tuple(scales), tuple(shifts), tuple(free_counts),
        )


@dataclass(frozen=True)
class GorensteinPoint:
    delta: int
    coordinates: tuple[int, ...]


def _reduce_functional(normal, witness):
    """Primitive integer form of a supporting functional.

    `normal . x <= offset` must hold with equality at the integer point
    `witness`, given as the edge-position mask of a spanning tree.  The
    direction lattice of the affine span, {z : sum z = 0}, has basis
    e_j - e_0 (j >= 1) with duals e_j, on which the functional takes the
    values normal_j - normal_0; g > 0 is their gcd.  Returns
    integer (reduced_normal, reduced_offset) whose value gap
    reduced_offset - reduced_normal . x  equals  (offset - normal . x) / g
    on the affine span.
    """
    values = [a - normal[0] for a in normal[1:]]
    g = vec_gcd(values)
    if g == 0:
        raise ValueError("functional vanishes on the affine span")
    rnormal = (0,) + tuple(v // g for v in values)
    return rnormal, sum(rnormal[i] for i in _bits(witness))


def _greedy_tree(n: int, ends, order) -> int:
    """Edge-position mask of the spanning tree that matroid greedy grows
    from the positions in `order`: an edge is taken when it joins two
    components."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = 0
    for i in order:
        u, v = ends[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            tree |= 1 << i
    if tree.bit_count() != n - 1:
        raise RuntimeError("greedy witness is not a spanning tree")
    return tree


def build_polytope(graph: Multigraph) -> BasePolytope:
    """Base polytope of the graphic matroid, facets per the two families."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    edge_ids = tuple(e.eid for e in graph.edges)
    index = {eid: i for i, eid in enumerate(edge_ids)}
    m = len(edge_ids)
    ends = [(e.u, e.v) for e in graph.edges]
    shared = _greedy_tree(graph.n, ends, range(m))
    facets = []
    for eid in sorted(matroid.deletable_edges(graph), key=index.__getitem__):
        i = index[eid]
        normal = tuple(-1 if j == i else 0 for j in range(m))
        # G - e is 2-connected, so a spanning tree avoids e; when the shared
        # tree does, greedy without e grows it again
        witness = shared
        if shared >> i & 1:
            witness = _greedy_tree(graph.n, ends, (j for j in range(m) if j != i))
        rn, ro = _reduce_functional(normal, witness)
        facets.append(
            FacetInequality(KIND_NONNEGATIVITY, eid, None, normal, 0, rn, ro)
        )
    every_edge = (1 << m) - 1
    for flat in matroid.good_flats(graph):
        inside = flat.edge_mask
        normal = tuple(inside >> i & 1 for i in range(m))
        offset = len(flat.subset) - 1
        # G[S] is connected, so taking E(S) first puts |S| - 1 of its edges in
        witness = shared
        if (shared & inside).bit_count() != offset:
            witness = _greedy_tree(
                graph.n, ends, _bits(inside) + _bits(every_edge & ~inside)
            )
            if (witness & inside).bit_count() != offset:
                raise RuntimeError(
                    f"greedy witness is off the flat {sorted(flat.subset)}"
                )
        rn, ro = _reduce_functional(normal, witness)
        facets.append(
            FacetInequality(KIND_GOOD_FLAT, None, flat.subset, normal, offset, rn, ro)
        )
    return BasePolytope(m, graph.n - 1, edge_ids, tuple(facets), graph)


# -- the Gorenstein oracle -------------------------------------------------

def gorenstein_point_at(polytope: BasePolytope, dilation: int) -> tuple[int, ...] | None:
    """Lattice point of the dilated polytope at distance 1 from every facet.

    Searches the lattice points of the dilation under the equality
    constraints the distance-1 condition imposes; returns the first hit.
    The part of those constraints that no dilation changes is the
    polytope's cached `distance_one_system`; this call only scales the
    targets and searches.
    """
    if dilation < 2:
        raise ValueError("dilation must be >= 2")
    if not polytope.facets:
        # 0-dimensional polytope (single spanning tree): the distance
        # conditions are vacuous and the Gorenstein index is 1, below scan
        return None
    start, free, members, scales, shifts, free_counts = polytope.distance_one_system
    # need[q]: what equation q's free coordinates must still sum to
    need = [dilation * a - c for a, c in zip(scales, shifts)]
    if any(r < 0 or r > dilation * k for r, k in zip(need, free_counts)):
        return None
    left = list(free_counts)
    x = list(start)

    def rec(pos: int) -> tuple[int, ...] | None:
        if pos == len(free):
            # every equation's need was held in [0, dilation * left] = [0, 0]
            return tuple(x)
        eqs = members[pos]
        low, high = 0, dilation
        for q in eqs:
            left[q] -= 1
            high = min(high, need[q])
            low = max(low, need[q] - dilation * left[q])
        found = None
        for val in range(low, high + 1):
            for q in eqs:
                need[q] -= val
            x[free[pos]] = val
            found = rec(pos + 1)
            for q in eqs:
                need[q] += val
            if found is not None:
                break
        for q in eqs:
            left[q] += 1
        return found

    point = rec(0)
    if point is None:
        return None
    if any(f.distance(point, dilation) != 1 for f in polytope.facets):
        raise RuntimeError("lattice point is not at distance 1 from every facet")
    return point


def default_delta_max(graph: Multigraph) -> int:
    return max(graph.m, 3) + 1


def gorenstein_oracle(
    graph: Multigraph, delta_max: int | None = None
) -> GorensteinPoint | None:
    """Scan dilations 2..delta_max for a point at lattice distance 1 from
    every facet; first hit wins (at most one can exist)."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    if delta_max is None:
        delta_max = default_delta_max(graph)
    polytope = build_polytope(graph)
    for delta in range(2, delta_max + 1):
        point = gorenstein_point_at(polytope, delta)
        if point is not None:
            return GorensteinPoint(delta, point)
    return None


# -- serialization ---------------------------------------------------------

def facet_to_json(facet: FacetInequality) -> dict:
    return {
        "kind": facet.kind,
        "edge": facet.edge,
        "subset": sorted(facet.subset) if facet.subset is not None else None,
        "normal": list(facet.normal),
        "offset": facet.offset,
        "reduced": {
            "normal": list(facet.reduced_normal),
            "offset": facet.reduced_offset,
        },
    }


def polytope_to_json(polytope: BasePolytope) -> dict:
    return {
        "ambient_dim": polytope.ambient_dim,
        "rank": polytope.rank,
        "edge_ids": list(polytope.edge_ids),
        "vertices": [list(v) for v in polytope.vertices],
        "facets": [facet_to_json(f) for f in polytope.facets],
    }
