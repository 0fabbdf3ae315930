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
V-representation (every spanning tree) is listed only when
`BasePolytope.vertices` is read; the oracle and the census never read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import matroid
from .lattice import dot, vec_gcd
from .multigraph import Multigraph

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


@dataclass(frozen=True)
class GorensteinPoint:
    delta: int
    coordinates: tuple[int, ...]


def _reduce_functional(normal, witness):
    """Primitive integer form of a supporting functional.

    `normal . x <= offset` must hold with equality at the integer point
    `witness`.  The direction lattice of the affine span, {z : sum z = 0},
    has basis e_j - e_0 (j >= 1) with duals e_j, on which the functional
    takes the values normal_j - normal_0; g > 0 is their gcd.  Returns
    integer (reduced_normal, reduced_offset) whose value gap
    reduced_offset - reduced_normal . x  equals  (offset - normal . x) / g
    on the affine span.
    """
    values = [a - normal[0] for a in normal[1:]]
    g = vec_gcd(values)
    if g == 0:
        raise ValueError("functional vanishes on the affine span")
    rnormal = (0,) + tuple(v // g for v in values)
    return rnormal, dot(rnormal, witness)


def _greedy_tree(graph: Multigraph, index, edges) -> tuple[int, ...]:
    """Indicator vector of the spanning tree that matroid greedy grows from
    `edges` in order: an edge is taken when it joins two components."""
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    x = [0] * len(index)
    taken = 0
    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[rv] = ru
            x[index[e.eid]] = 1
            taken += 1
    if taken != graph.n - 1:
        raise RuntimeError("greedy witness is not a spanning tree")
    return tuple(x)


def build_polytope(graph: Multigraph) -> BasePolytope:
    """Base polytope of the graphic matroid, facets per the two families."""
    if not graph.is_two_connected():
        raise ValueError("graph is not 2-connected")
    edge_ids = tuple(e.eid for e in graph.edges)
    index = {eid: i for i, eid in enumerate(edge_ids)}
    m = len(edge_ids)
    rank = graph.n - 1
    facets = []
    for eid in sorted(matroid.deletable_edges(graph), key=index.__getitem__):
        normal = tuple(-1 if i == index[eid] else 0 for i in range(m))
        # G - e is 2-connected, so a spanning tree avoids e
        witness = _greedy_tree(graph, index, (e for e in graph.edges if e.eid != eid))
        rn, ro = _reduce_functional(normal, witness)
        facets.append(
            FacetInequality(KIND_NONNEGATIVITY, eid, None, normal, 0, rn, ro)
        )
    for flat in matroid.good_flats(graph):
        inside = flat.induced_edge_ids
        idxs = {index[eid] for eid in inside}
        normal = tuple(1 if i in idxs else 0 for i in range(m))
        offset = len(flat.subset) - 1
        # G[S] is connected, so taking E(S) first puts |S| - 1 of its edges in
        witness = _greedy_tree(
            graph,
            index,
            [e for e in graph.edges if e.eid in inside]
            + [e for e in graph.edges if e.eid not in inside],
        )
        if dot(normal, witness) != offset:
            raise RuntimeError(f"greedy witness is off the flat {sorted(flat.subset)}")
        rn, ro = _reduce_functional(normal, witness)
        facets.append(
            FacetInequality(KIND_GOOD_FLAT, None, flat.subset, normal, offset, rn, ro)
        )
    return BasePolytope(m, rank, edge_ids, tuple(facets), graph)


# -- the Gorenstein oracle -------------------------------------------------

def gorenstein_point_at(polytope: BasePolytope, dilation: int) -> tuple[int, ...] | None:
    """Lattice point of the dilated polytope at distance 1 from every facet.

    Searches the lattice points of the dilation under the equality
    constraints the distance-1 condition imposes; returns the first hit.
    """
    if dilation < 2:
        raise ValueError("dilation must be >= 2")
    if not polytope.facets:
        # 0-dimensional polytope (single spanning tree): the distance
        # conditions are vacuous and the Gorenstein index is 1, below scan
        return None
    m = polytope.ambient_dim
    equations: list[tuple[tuple[int, ...], int]] = [
        (tuple(range(m)), dilation * polytope.rank)
    ]
    fixed: dict[int, int] = {}
    for f in polytope.facets:
        if f.kind == KIND_NONNEGATIVITY:
            idx = next(i for i, c in enumerate(f.normal) if c)
            if fixed.setdefault(idx, 1) != 1:
                return None
        elif f.kind == KIND_GOOD_FLAT:
            idxs = tuple(i for i, c in enumerate(f.normal) if c)
            equations.append((idxs, dilation * f.offset - 1))
        else:
            raise ValueError("gorenstein search needs classified facets")
    x = [-1] * m
    for i, v in fixed.items():
        x[i] = v
    free = [i for i in range(m) if i not in fixed]
    members: list[list[int]] = [[] for _ in range(m)]
    partial = [0] * len(equations)
    remaining = [0] * len(equations)
    for qi, (idxs, target) in enumerate(equations):
        for i in idxs:
            if i in fixed:
                partial[qi] += fixed[i]
            else:
                members[i].append(qi)
                remaining[qi] += 1
        if partial[qi] > target or partial[qi] + dilation * remaining[qi] < target:
            return None

    def rec(pos: int) -> tuple[int, ...] | None:
        if pos == len(free):
            if all(p == t for p, (_, t) in zip(partial, equations)):
                return tuple(x)
            return None
        i = free[pos]
        for val in range(dilation + 1):
            ok = True
            for qi in members[i]:
                p = partial[qi] + val
                r = remaining[qi] - 1
                if p > equations[qi][1] or p + dilation * r < equations[qi][1]:
                    ok = False
                    break
            if not ok:
                continue
            x[i] = val
            for qi in members[i]:
                partial[qi] += val
                remaining[qi] -= 1
            found = rec(pos + 1)
            for qi in members[i]:
                partial[qi] -= val
                remaining[qi] += 1
            x[i] = -1
            if found is not None:
                return found
        return None

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
