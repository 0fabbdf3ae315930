"""Exact polyhedral layer for graphic-matroid base polytopes.

H-representation from the two facet families (nonnegativity for
deletable edges, upper bounds for good flats).  A `BasePolytope` holds
each facet as one edge-position mask (bit i stands for `graph.edges[i]`):
`deletable`, the mask of the deletable edges, one nonnegativity facet per
bit; and `flats`, the (S, E(S)) pairs exactly as the output-sensitive
search `matroid.good_flat_masks` returns them, one facet
x(E(S)) <= |S| - 1 per pair.  The masks are the polytope.  The dense
rows, one `FacetInequality` per facet with its normal and primitive
lattice form as length-m tuples, are built only when `facets` is read
(`polytope_to_json` and the tests), in the order deletable edges by
position, then good flats by size, then in combinations order (as
`matroid._by_size` sorts them).  The polyhedral Gorenstein oracle
reads the masks only.  It scans dilations 2..max(m, 3) + 1 for the
lattice point at distance 1 from every facet.  All arithmetic is
arbitrary-precision integer; the Gorenstein property is lattice-exact,
so tolerances would be meaningless.  The references the tests hold this
layer to (a double-description hull oracle, lattice-point enumeration,
the dilation-1 check) live in `tests/oracles.py`.

Each facet's reduced form is closed-form.  On the affine span
sum x = rank the direction lattice {z : sum z = 0} has basis e_j - e_0
with duals e_j, on which a functional takes the values
normal_j - normal_0.  In both families one of these is +-1 (a
nonnegativity normal is -e_i, a good-flat normal is 0/1 and not
constant), so the functional is already primitive: the reduced normal
is normal - normal_0 and the reduced offset is offset - normal_0 * rank.
Only a facet whose mask holds edge position 0 has normal_0 != 0, so the
reduced distance d * reduced_offset - reduced_normal . x of a point x
from the facet of the d-th dilation is, with X = sum x:
  x_i                                   for a deletable edge i != 0,
  d * rank - (X - x_0)                  for deletable edge 0,
  d (|S| - 1) - x(E(S))                 for a good flat without edge 0,
  d (|S| - 1 - rank) + X - x(E(S))      for a good flat with edge 0.
`BasePolytope.distances` reads them off the masks; they equal
`FacetInequality.distance` at every integer point, on the polytope or not.

Each facet's face must still hold a spanning tree, which is checked by
matroid greedy (Edmonds 1971) over a union-find: greedy avoiding the
deletable edge must span, and greedy taking the good flat's edges first
must put |S| - 1 of them in.  One shared tree T, greedy over all edges
in order, settles every facet it lies on: it is the greedy tree without
each deletable edge it leaves out (skipping an edge greedy rejected
changes no later choice), and it lies on each good flat S on which it
has |S| - 1 edges, counted by popcount against the flat's edge mask.
Only the other facets run greedy of their own.  The V-representation
(every spanning tree) is listed only when `BasePolytope.vertices` is
read; the oracle and the census never read it.

The oracle's equations at distance 1 from every facet have the same
coordinate sets at every dilation; only their targets scale.  So the
polytope builds them once from the masks, as its cached
`distance_one_system` (the coordinates the nonnegativity facets fix,
each equation's free coordinates and offset, the equations each free
coordinate enters), and each dilation only scales the targets, rejects
an unreachable one in one pass over the equations, and backtracks on
fresh copies of the partial sums.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from . import matroid
# importing `lattice` keeps the module loaded, which the benchmark's tracer
# needs to find `lattice.kernel_basis_with_dual` in sys.modules
from .lattice import dot
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


@dataclass(frozen=True)
class BasePolytope:
    ambient_dim: int
    rank: int
    edge_ids: tuple[int, ...]  # coordinate index -> edge id
    deletable: int  # edge-position mask: one nonnegativity facet per bit
    flats: tuple[tuple[int, int], ...]  # (S, E(S)) per good flat, search order
    graph: Multigraph = field(repr=False)

    @cached_property
    def facets(self) -> tuple[FacetInequality, ...]:
        """The dense facet rows, built on first read: deletable edges by
        position, then good flats by size, then in combinations order."""
        m, rank = self.ambient_dim, self.rank
        out = []
        for i in _bits(self.deletable):
            normal = tuple(-1 if j == i else 0 for j in range(m))
            out.append(FacetInequality(
                KIND_NONNEGATIVITY, self.edge_ids[i], None, normal, 0,
                tuple(a - normal[0] for a in normal), -normal[0] * rank,
            ))
        for verts, inside in matroid._by_size(self.flats):
            normal = tuple(inside >> i & 1 for i in range(m))
            offset = len(verts) - 1
            out.append(FacetInequality(
                KIND_GOOD_FLAT, None, frozenset(verts), normal, offset,
                tuple(a - normal[0] for a in normal), offset - normal[0] * rank,
            ))
        return tuple(out)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Spanning-tree indicator vectors, sorted; enumerated on first read."""
        return tuple(
            sorted(
                tuple(1 if eid in tree else 0 for eid in self.edge_ids)
                for tree in self.graph.spanning_trees()
            )
        )

    def distances(self, point, dilation: int) -> Iterator[int]:
        """The reduced distance of the point from each facet of the
        dilation, read off the masks by the closed form in the module
        docstring: deletable edges by position, then good flats in
        `flats` order."""
        total = sum(point)
        rank = self.rank
        for i in _bits(self.deletable):
            yield point[i] if i else dilation * rank - total + point[0]
        for s, edges in self.flats:
            inside = sum(point[i] for i in _bits(edges))
            if edges & 1:
                yield dilation * (s.bit_count() - 1 - rank) + total - inside
            else:
                yield dilation * (s.bit_count() - 1) - inside

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
        m, fixed = self.ambient_dim, self.deletable
        every_edge = (1 << m) - 1
        free = _bits(every_edge & ~fixed)
        slot = {i: k for k, i in enumerate(free)}
        members: list[list[int]] = [[] for _ in free]
        equations = [(every_edge, self.rank, 0)]
        equations += [(edges, s.bit_count() - 1, 1) for s, edges in self.flats]
        scales, shifts, free_counts = [], [], []
        for q, (edges, scale, shift) in enumerate(equations):
            held = _bits(edges & ~fixed)
            for i in held:
                members[slot[i]].append(q)
            scales.append(scale)
            shifts.append(shift + (edges & fixed).bit_count())
            free_counts.append(len(held))
        start = tuple(fixed >> i & 1 for i in range(m))
        return (
            start, free, tuple(map(tuple, members)),
            tuple(scales), tuple(shifts), tuple(free_counts),
        )


@dataclass(frozen=True)
class GorensteinPoint:
    delta: int
    coordinates: tuple[int, ...]


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
    m = len(edge_ids)
    ends = [(e.u, e.v) for e in graph.edges]
    kinds = matroid.edge_kinds(graph)
    deletable = sum(1 << i for i, eid in enumerate(edge_ids) if kinds[eid] == "del")
    shared = _greedy_tree(graph.n, ends, range(m))
    # G - e is 2-connected, so greedy without e spans; when the shared tree
    # avoids e it is that tree
    for i in _bits(deletable & shared):
        _greedy_tree(graph.n, ends, (j for j in range(m) if j != i))
    every_edge = (1 << m) - 1
    flats = matroid.good_flat_masks(graph)
    for s, inside in flats:
        # G[S] is connected, so taking E(S) first puts |S| - 1 of its edges in
        offset = s.bit_count() - 1
        if (shared & inside).bit_count() != offset:
            witness = _greedy_tree(
                graph.n, ends, _bits(inside) + _bits(every_edge & ~inside)
            )
            if (witness & inside).bit_count() != offset:
                raise RuntimeError(
                    f"greedy witness is off the flat {list(_bits(s))}"
                )
    return BasePolytope(m, graph.n - 1, edge_ids, deletable, flats, graph)


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
    if not polytope.deletable and not polytope.flats:
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
    if any(r != 1 for r in polytope.distances(point, dilation)):
        raise RuntimeError("lattice point is not at distance 1 from every facet")
    return point


def default_delta_max(graph: Multigraph) -> int:
    return max(graph.m, 3) + 1


def gorenstein_oracle(graph: Multigraph) -> GorensteinPoint | None:
    """Scan dilations 2..max(m, 3) + 1 for a point at lattice distance 1
    from every facet; first hit wins (at most one can exist).

    The hit, if any, is the Gorenstein index, which equals the codegree
    and so is at most dim + 1 = m (Ehrhart-Macdonald reciprocity); the
    scan bound covers it, so no larger bound can find more.
    """
    polytope = build_polytope(graph)
    for delta in range(2, default_delta_max(graph) + 1):
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
