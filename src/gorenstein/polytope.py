"""Exact polyhedral layer for graphic-matroid base polytopes.

H-representation from the two facet families (nonnegativity for
deletable edges, upper bounds for good flats), an independent
double-description hull oracle over exact rationals, lattice-point
enumeration in dilations, and the polyhedral Gorenstein oracle.  All
arithmetic is arbitrary-precision integer or Fraction; the Gorenstein
property is lattice-exact, so tolerances would be meaningless.

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
from fractions import Fraction
from functools import cached_property

from . import matroid
from .lattice import (
    dot,
    fraction_matrix_inverse,
    kernel_basis_with_dual,
    rational_nullspace_int,
    rational_rank,
    scale_to_primitive_int,
    vec_gcd,
)
from .multigraph import Multigraph

KIND_NONNEGATIVITY = "nonnegativity"
KIND_GOOD_FLAT = "good_flat"
KIND_HULL = "hull"


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


# -- double description hull oracle ---------------------------------------

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
        g = vec_gcd(m_y)
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


# -- lattice points and the Gorenstein oracle ------------------------------

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
            if rem == 0 and all(f.holds(x, dilation) for f in polytope.facets):
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
