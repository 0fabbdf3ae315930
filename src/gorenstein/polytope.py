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
reads the masks only.  It solves the distance-1 equations for the one
dilation and lattice point at distance 1 from every facet, and accepts
a dilation in 2..max(m, 3) + 1.  All arithmetic is
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

Each facet's face must still hold a spanning tree.  One shared tree T,
matroid greedy (Edmonds 1971) over all edges in order on a union-find,
lies on every nonnegativity facet whose edge it leaves out and on each
good flat S on which it has |S| - 1 edges, counted by popcount against
the flat's edge mask.  For a deletable edge e of T, the tree T - e + f
lies on e's facet, for an edge f off T whose path in T holds e; such an
f exists since G - e is connected.  Paths to vertex 0 in T as edge
masks give each f's path by one xor, and one pass over the edges off T
covers every e.  A good flat S that T misses needs a tree with
|S| - 1 edges in E(S), which exists exactly when E(S) has rank |S| - 1
(greedy taking E(S) first puts rank(E(S)) of them in), counted by a
union-find over E(S) alone.  The V-representation (every spanning tree)
is listed only when `BasePolytope.vertices` is read; the oracle and the
census never read it.

The oracle solves the equations at distance 1 from every facet of the
d-th dilation for d and the point x together: x_e = 1 for each
deletable e, x(E(S)) = d(|S| - 1) - 1 for each good flat S, and
x(E) = d * rank.  `BasePolytope.distance_one_point` takes them in order
of how many free (non-deletable) coordinates each holds, and holds each
free coordinate as an integer affine function of d.  An equation with
one unknown coordinate fixes it; one with none either fixes d, which
must then be an integer, or checks it.  Two facts make this a complete
solve with at most one solution, raising RuntimeError if either fails.

1. Every free coordinate is the only free one in some equation.  A free
   coordinate is a "con" edge uv (the one edge of K_2, the only other
   non-deletable edge, gives a polytope with no facet, which has no
   equations to solve).  The `matroid` docstring proves that G - {u, v}
   is connected for such an edge, with n >= 3 and no parallel copy of
   uv.  So {u, v} is a proper vertex subset whose induced subgraph, two
   adjacent vertices, is 2-connected, with G - {u, v} connected and
   nonempty: a good flat, whose E(S) is {uv}.  So by the time the
   equations with two or more free coordinates come, every coordinate
   is known.
2. Some equation fixes d.  Were none to, every equation would hold for
   the slopes b of x = a + b d alone, with the targets of dilation 1
   and no shift: b_e = 0 for each deletable e, b(E(S)) = |S| - 1 for
   each good flat S, and sum b = rank.  So b would lie in the affine
   span of P and on every facet hyperplane.  A point q of the relative
   interior of P lies strictly inside every facet inequality, and q != b
   as P has a facet.  Then every point b + t (q - b) with t > 0 lies
   strictly inside every facet inequality too, so the whole ray would
   lie in P, which is bounded.  So a polytope that has a facet has no
   such point b.

So the solution (d, x) is unique: at most one dilation has a point at
distance 1 from every facet, and the point is that x.  `gorenstein_point_at`
returns x at that d when 0 <= x <= d, and checks it against every facet
by the closed-form distances above.
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
        for s, inside in matroid._by_size(self.flats):
            normal = tuple(inside >> i & 1 for i in range(m))
            offset = s.bit_count() - 1
            out.append(FacetInequality(
                KIND_GOOD_FLAT, None, frozenset(_bits(s)), normal, offset,
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
    def distance_one_point(self) -> tuple[int, tuple[int, ...]] | None:
        """(d, x): the one dilation and lattice point at distance 1 from
        every facet of dP, solved exactly on first read (see the module
        docstring); None when the equations have no integer solution or
        the polytope has no facet.

        Raises RuntimeError when a free coordinate has no equation of its
        own or no equation fixes d: either would contradict the proofs.
        """
        fixed = self.deletable
        if not fixed and not self.flats:
            return None
        m = self.ambient_dim
        # x(edges) = d * scale - shift; each x_i is held as a + b * d
        equations = [(edges, s.bit_count() - 1, 1) for s, edges in self.flats]
        equations.append(((1 << m) - 1, self.rank, 0))
        equations.sort(key=lambda q: (q[0] & ~fixed).bit_count())
        a = [fixed >> i & 1 for i in range(m)]
        b = [0] * m
        solved = 0  # the free coordinates held so far
        dilation = None
        pinned, solvable = False, True
        for edges, scale, shift in equations:
            const, slope = -shift - (edges & fixed).bit_count(), scale
            for i in _bits(edges & solved):
                const -= a[i]
                slope -= b[i]
            unknown = edges & ~fixed & ~solved
            if unknown & (unknown - 1):
                raise RuntimeError("a free coordinate has no equation of its own")
            if unknown:  # it fixes that coordinate
                i = unknown.bit_length() - 1
                a[i], b[i] = const, slope
                solved |= unknown
            elif slope:  # it fixes d: const + slope * d = 0
                pinned = True
                d = -const // slope
                if const % slope or dilation not in (None, d):
                    solvable = False
                dilation = d
            elif const:  # it holds at no d
                solvable = False
        if not pinned:
            raise RuntimeError("no distance-1 equation fixes the dilation")
        if not solvable:
            return None
        return dilation, tuple(p + q * dilation for p, q in zip(a, b))


@dataclass(frozen=True)
class GorensteinPoint:
    delta: int
    coordinates: tuple[int, ...]


def _forest(n: int, ends, order) -> int:
    """Edge-position mask of the forest that matroid greedy grows from the
    positions in `order`: an edge is taken when it joins two components."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = 0
    for i in order:
        u, v = ends[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            forest |= 1 << i
    return forest


def _tree_paths(n: int, ends, tree: int) -> list[int]:
    """Per vertex, the edge-position mask of its path to vertex 0 in the
    spanning tree `tree`."""
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in _bits(tree):
        u, v = ends[i]
        adjacent[u].append((v, i))
        adjacent[v].append((u, i))
    path = [0] * n
    seen = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v, i in adjacent[u]:
            if not seen >> v & 1:
                seen |= 1 << v
                path[v] = path[u] | 1 << i
                stack.append(v)
    return path


def build_polytope(graph: Multigraph) -> BasePolytope:
    """Base polytope of the graphic matroid, facets per the two families."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    edge_ids = tuple(e.eid for e in graph.edges)
    m = len(edge_ids)
    ends = [(e.u, e.v) for e in graph.edges]
    kinds = matroid.edge_kinds(graph)
    deletable = sum(1 << i for i, eid in enumerate(edge_ids) if kinds[eid] == "del")
    shared = _forest(graph.n, ends, range(m))
    if shared.bit_count() != graph.n - 1:
        raise RuntimeError("greedy witness is not a spanning tree")
    # G - e is 2-connected, so some edge f off the shared tree T closes a
    # cycle through e, and T - e + f is a spanning tree without e
    path = _tree_paths(graph.n, ends, shared)
    cycled = 0
    for i in _bits(((1 << m) - 1) & ~shared):
        u, v = ends[i]
        cycled |= path[u] ^ path[v]
    if deletable & shared & ~cycled:
        raise RuntimeError("greedy witness is not a spanning tree")
    flats = matroid.good_flat_masks(graph)
    for s, inside in flats:
        # G[S] is connected, so greedy over E(S) alone takes |S| - 1 edges
        offset = s.bit_count() - 1
        if (
            (shared & inside).bit_count() != offset
            and _forest(graph.n, ends, _bits(inside)).bit_count() != offset
        ):
            raise RuntimeError(f"greedy witness is off the flat {list(_bits(s))}")
    return BasePolytope(m, graph.n - 1, edge_ids, deletable, flats, graph)


# -- the Gorenstein oracle -------------------------------------------------

def gorenstein_point_at(polytope: BasePolytope, dilation: int) -> tuple[int, ...] | None:
    """Lattice point of the dilated polytope at distance 1 from every facet.

    The polytope's cached `distance_one_point` is the one solution of the
    distance-1 equations; this returns its point when its dilation is
    this one and the point lies in [0, dilation]^m, else None.  The point
    is then checked against every facet by the closed-form distances.
    """
    if dilation < 2:
        raise ValueError("dilation must be >= 2")
    solved = polytope.distance_one_point
    if solved is None or solved[0] != dilation:
        return None
    point = solved[1]
    if not all(0 <= x <= dilation for x in point):
        return None
    if any(r != 1 for r in polytope.distances(point, dilation)):
        raise RuntimeError("lattice point is not at distance 1 from every facet")
    return point


def default_delta_max(graph: Multigraph) -> int:
    return max(graph.m, 3) + 1


def gorenstein_oracle(graph: Multigraph) -> GorensteinPoint | None:
    """The point at lattice distance 1 from every facet of some dilation
    2..max(m, 3) + 1, if there is one.

    The distance-1 equations have at most one solution (d, x) over all
    dilations, solved exactly as the polytope's `distance_one_point`; its
    d, when x is a lattice point of dP, is the Gorenstein index.  That
    equals the codegree and so is at most dim + 1 = m
    (Ehrhart-Macdonald reciprocity); the bound accepts every such d, so
    no larger bound can find more.
    """
    polytope = build_polytope(graph)
    solved = polytope.distance_one_point
    if solved is None or not 2 <= solved[0] <= default_delta_max(graph):
        return None
    point = gorenstein_point_at(polytope, solved[0])
    return None if point is None else GorensteinPoint(solved[0], point)


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
