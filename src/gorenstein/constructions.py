"""Gluing calculus for Gorenstein multigraphs.

The universal gluing joins two 2-connected multigraphs along parallel
classes, replacing the classes by w(F1) + w(F2) - delta parallel edges.
Its two specializations (gluing along a weight-1/weight-(delta-1) edge
pair with zero replacement edges, and along two weight-(delta-1) edges
with delta-2 replacement edges), together with contracting degree-2
paths, generate every Gorenstein multigraph from a delta-cycle (or from
K_4 when delta = 2).  `_glued` is the only builder of a glued graph: the
three gluings weigh each glued edge once and pass the class weights to
it, subdividing a weight-1 edge is path-gluing the delta-cycle onto it,
and multi-gluing is a fold of universal gluings.  `_seeds` is the one
table of seeds, and `_applied` the one place a trace step is applied.

`decompose` searches for such a construction and returns a replayable
trace.  Lemmas settle what a replay would check, so only a crossed split
is replayed: each side of a split is 2-connected (`_side_kind`), its
spade reads off the state's edge kinds and an uncrossed split rebuilds
the state (`_verify_split`), a parallel-class edge can be subdivided
(`_subdivision_predecessors`), and contracting the subdivided path gives
the state back (`_verify_subdivision`).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, partial
from types import MappingProxyType

from . import matroid
from .criteria import check_spade, weight_function
from .multigraph import (
    Edge,
    Multigraph,
    _bits,
    _blocks,
    _reach,
    complete_graph,
    cycle_graph,
)

SEED_CYCLE = "cycle"
SEED_K4 = "k4"


@dataclass(frozen=True)
class GluingSpec:
    left: Multigraph
    left_parallel_class: frozenset[int]
    right: Multigraph
    right_parallel_class: frozenset[int]
    delta: int
    flip: bool = False


@dataclass(frozen=True)
class TraceStep:
    op: str  # "path_glue" | "delta_glue" | "path_contract"
    partner: Multigraph | None = None
    self_edge: int | None = None
    partner_edge: int | None = None
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ConstructionTrace:
    seed: str  # SEED_CYCLE or SEED_K4
    delta: int
    steps: tuple[TraceStep, ...]


class GluingError(ValueError):
    pass


def _edge_weight(graph: Multigraph, eid: int, delta: int) -> int:
    """The weight of one edge of a 2-connected graph, from its
    `matroid.edge_kinds` reading found alone.  A parallel copy gives
    "del"; without one, the graph is the side graph of its whole vertex
    set with the edge as the fresh edge, so `_side_kind` reads the kind
    off one block search (None on K_2)."""
    if not graph.is_two_connected():
        raise GluingError("both graphs must be 2-connected")
    try:
        e = graph.edge(eid)
    except KeyError:
        raise GluingError(f"unknown edge id {eid}") from None
    if any(f.u == e.u and f.v == e.v and f.eid != eid for f in graph.edges):
        return 1
    apart = list(graph.neighbour_masks)
    apart[e.u] &= ~(1 << e.v)
    apart[e.v] &= ~(1 << e.u)
    kind = _side_kind((1 << graph.n) - 1, (1 << e.u) | (1 << e.v), apart)
    if kind == "del":
        return 1
    if kind == "con":
        return delta - 1
    raise GluingError(
        f"edge {eid}: neither deletion nor contraction keeps 2-connectivity"
    )


def _check_parallel_class(graph: Multigraph, eids: frozenset[int]) -> None:
    if not eids:
        raise GluingError("parallel class must be nonempty")
    try:
        pairs = {(graph.edge(eid).u, graph.edge(eid).v) for eid in eids}
    except KeyError as exc:
        raise GluingError(exc.args[0]) from None
    if len(pairs) != 1:
        raise GluingError("edges do not share one endpoint pair")


def _check_delta(delta) -> None:
    if not isinstance(delta, int):
        raise GluingError(f"delta must be an integer, not {delta!r}")
    if delta < 2:
        raise GluingError("delta must be >= 2")


def delta_gluing(spec: GluingSpec) -> Multigraph:
    """Universal gluing along two parallel classes."""
    g1, g2, delta = spec.left, spec.right, spec.delta
    _check_delta(delta)
    if not (g1.is_two_connected() and g2.is_two_connected()):
        raise GluingError("both graphs must be 2-connected")
    _check_parallel_class(g1, spec.left_parallel_class)
    _check_parallel_class(g2, spec.right_parallel_class)
    w1 = sum(_edge_weight(g1, e, delta) for e in spec.left_parallel_class)
    w2 = sum(_edge_weight(g2, e, delta) for e in spec.right_parallel_class)
    return _glued(spec, w1, w2)


def _glued(spec: GluingSpec, w1: int, w2: int) -> Multigraph:
    """The gluing of spec, whose classes weigh w1 and w2.

    The caller has checked delta, both graphs' 2-connectivity and both
    classes, and weighed the classes; what is left to raise GluingError
    is a negative replacement count or a result that is not 2-connected.
    """
    g1, g2, delta = spec.left, spec.right, spec.delta
    replacement = w1 + w2 - delta
    if replacement < 0:
        raise GluingError(
            f"w(F1) + w(F2) = {w1 + w2} < delta = {delta}: negative edge count"
        )
    _, u1, v1 = g1.edge(min(spec.left_parallel_class))
    _, u2, v2 = g2.edge(min(spec.right_parallel_class))
    if spec.flip:
        u2, v2 = v2, u2
    # vertex map: g1 keeps its labels; u2 -> u1, v2 -> v1, rest appended
    vmap = {u2: u1, v2: v1}
    nxt = g1.n
    for w in range(g2.n):
        if w not in vmap:
            vmap[w] = nxt
            nxt += 1
    edges: list[Edge] = [e for e in g1.edges if e.eid not in spec.left_parallel_class]
    next_id = max((e.eid for e in g1.edges), default=-1) + 1
    for e in g2.edges:
        if e.eid in spec.right_parallel_class:
            continue
        a, b = vmap[e.u], vmap[e.v]
        edges.append(Edge(next_id, min(a, b), max(a, b)))
        next_id += 1
    for _ in range(replacement):
        edges.append(Edge(next_id, min(u1, v1), max(u1, v1)))
        next_id += 1
    result = Multigraph(nxt, tuple(edges))
    if not result.is_two_connected():
        raise GluingError("gluing produced a non-2-connected graph")
    return result


def path_gluing(
    g1: Multigraph, e1: int, g2: Multigraph, e2: int, delta: int, flip: bool = False
) -> Multigraph:
    """Gluing along a weight-1 / weight-(delta-1) edge pair.

    Zero replacement edges; with g2 a delta-cycle this subdivides e1
    into delta - 1 edges.
    """
    _check_delta(delta)
    if _edge_weight(g1, e1, delta) != 1:
        raise GluingError(f"edge {e1} must have weight 1")
    if _edge_weight(g2, e2, delta) != delta - 1:
        raise GluingError(f"edge {e2} must have weight {delta - 1}")
    spec = GluingSpec(g1, frozenset([e1]), g2, frozenset([e2]), delta, flip)
    return _glued(spec, 1, delta - 1)


def delta_edge_gluing(
    g1: Multigraph, e1: int, g2: Multigraph, e2: int, delta: int, flip: bool = False
) -> Multigraph:
    """Gluing along two weight-(delta-1) edges; delta - 2 replacement edges."""
    _check_delta(delta)
    for g, e in ((g1, e1), (g2, e2)):
        if _edge_weight(g, e, delta) != delta - 1:
            raise GluingError(f"edge {e} must have weight {delta - 1}")
    spec = GluingSpec(g1, frozenset([e1]), g2, frozenset([e2]), delta, flip)
    return _glued(spec, delta - 1, delta - 1)


def subdivide_edge(
    graph: Multigraph, eid: int, delta: int
) -> tuple[Multigraph, tuple[int, ...]]:
    """Replace a weight-1 edge by a path of delta - 1 edges.

    This is path-gluing the delta-cycle along the edge, so the graph must
    be 2-connected and the edge deletable ("del"); anything else raises
    GluingError.  The cycle's interior vertices 1..delta-2 are appended
    in order and its edges take fresh ids in path order.  Returns the new
    graph and the path's vertex sequence.
    """
    _check_delta(delta)
    glued = path_gluing(graph, eid, cycle_graph(delta), delta - 1, delta)
    e = graph.edge(eid)
    return glued, (e.u, *range(graph.n, glued.n), e.v)


def contract_path(graph: Multigraph, path: tuple[int, ...], delta: int) -> Multigraph:
    """Substitute a path of delta - 1 edges by a single fresh edge.

    The path's interior vertices must all have degree exactly 2; they are
    removed and the endpoints joined directly by an edge with a fresh id.
    """
    if len(path) != delta:
        raise GluingError(f"path must have {delta - 1} edges")
    if len(set(path)) != len(path):
        raise GluingError("path vertices must be distinct")
    v1, v2 = path[0], path[-1]
    if v1 == v2:
        raise GluingError("path endpoints must differ")
    interior = set(path[1:-1])
    for w in interior:
        if graph.degree(w) != 2:
            raise GluingError(f"interior vertex {w} has degree != 2")
    path_edges = []
    for a, b in zip(path, path[1:]):
        cands = [
            e.eid
            for e in graph.edges
            if (e.u, e.v) == (min(a, b), max(a, b)) and e.eid not in path_edges
        ]
        if not cands:
            raise GluingError(f"no edge between {a} and {b}")
        path_edges.append(min(cands))
    removed = set(path_edges)
    keep = sorted(v for v in range(graph.n) if v not in interior)
    renum = {v: i for i, v in enumerate(keep)}
    edges = []
    for e in graph.edges:
        if e.eid in removed:
            continue
        if e.u in interior or e.v in interior:
            raise GluingError("interior vertex carries a non-path edge")
        edges.append(Edge(e.eid, renum[e.u], renum[e.v]))
    new_id = max((e.eid for e in graph.edges)) + 1
    a, b = renum[v1], renum[v2]
    edges.append(Edge(new_id, min(a, b), max(a, b)))
    return Multigraph(len(keep), tuple(edges))


def simplify(graph: Multigraph, delta: int) -> Multigraph:
    """Subdivide every edge that has a parallel partner.

    Requires the spade equalities at delta; the result satisfies them
    again and, for delta >= 3, is a simple graph.
    """
    if not _spade_holds(graph, delta):
        raise GluingError("graph does not satisfy the spade equalities")
    by_pair: dict[tuple[int, int], list[int]] = {}
    for e in graph.edges:
        by_pair.setdefault((e.u, e.v), []).append(e.eid)
    targets = [eid for ids in by_pair.values() if len(ids) > 1 for eid in ids]
    cur = graph
    for eid in targets:
        cur, _ = subdivide_edge(cur, eid, delta)
    out = weight_function(cur, delta)
    if out is None or not check_spade(cur, out):
        raise RuntimeError("simplify broke the spade equalities")
    if delta >= 3 and cur.has_parallel_edges():
        raise RuntimeError("simplify left parallel edges")
    return cur


def multi_gluing(graphs, edges, delta: int) -> Multigraph:
    """Unify one weight-(delta-1) edge from each of delta - 1 graphs.

    The chosen edges merge into a single edge of weight 1.  For delta = 2
    this is vacuous and returns the single input unchanged.  Otherwise it
    is a fold of universal gluings: one delta-edge-gluing of the first two
    graphs, then each further graph glued along its chosen edge to the
    class of replacement edges between the first chosen edge's ends.
    After k graphs that class holds delta - k parallel edges of weight 1,
    and the last gluing leaves one.  Each chosen edge is weighed once, and
    the fold hands `_glued` the class weights: delta - 1 for the first
    chosen edge, then one per parallel edge of the class.
    """
    _check_delta(delta)
    graphs, edges = list(graphs), list(edges)
    if len(graphs) != delta - 1 or len(edges) != delta - 1:
        raise GluingError(f"need exactly {delta - 1} graphs and edges")
    if delta == 2:
        return graphs[0]
    for g, e in zip(graphs, edges):
        if _edge_weight(g, e, delta) != delta - 1:
            raise GluingError(f"edge {e} must have weight {delta - 1}")
    cur, merged, weight = graphs[0], frozenset([edges[0]]), delta - 1
    first = cur.edge(edges[0])
    for g, e in zip(graphs[1:], edges[1:]):
        cur = _glued(GluingSpec(cur, merged, g, frozenset([e]), delta), weight, delta - 1)
        merged = frozenset(f.eid for f in cur.edges if (f.u, f.v) == (first.u, first.v))
        weight = len(merged)
    return cur


# -- decomposition search --------------------------------------------------

# (delta, canonical graph) -> (seed, steps to the graph), or None if unreachable
Memo = dict[tuple[int, Multigraph], tuple[str, tuple[TraceStep, ...]] | None]


@cache
def _seeds(delta: int) -> Mapping[Multigraph, str]:
    """The canonical seed graphs at this delta, to their names: the
    delta-cycle, and K_4 at delta = 2; read-only, built once per delta."""
    seeds = {cycle_graph(delta): SEED_CYCLE}
    if delta == 2:
        seeds[complete_graph(4)] = SEED_K4
    return MappingProxyType({g.canonicalize()[0]: name for g, name in seeds.items()})


def _pieces(graph: Multigraph, u: int, v: int):
    """Edge groups of the graph split at the vertex pair.

    Returns (pieces, direct edges): pieces maps the vertex mask of each
    connected component of the graph minus {u, v} to the edge-id list of
    that component together with its edges to u and v, in the order of
    each piece's first edge; direct edges join u and v themselves.
    """
    nbr = graph.neighbour_masks
    ends = (1 << u) | (1 << v)
    rest = ((1 << graph.n) - 1) & ~ends
    part = [0] * graph.n  # vertex -> mask of its component of G - {u, v}
    while rest:
        comp = _reach(rest, nbr)
        rest ^= comp
        for w in _bits(comp):
            part[w] = comp
    direct = []
    # pieces in order of first edge: it fixes which split the search tries first
    groups: dict[int, list[int]] = {}
    for e in graph.edges:
        if (1 << e.u) | (1 << e.v) == ends:
            direct.append(e.eid)
        else:
            anchor = e.v if e.u in (u, v) else e.u
            groups.setdefault(part[anchor], []).append(e.eid)
    return groups, direct


def _side_graph(graph: Multigraph, eids, u: int, v: int) -> Multigraph:
    """Subgraph on the given edges plus one fresh edge joining u < v,
    whose id is one more than the largest of eids."""
    picked = []
    verts = {u, v}
    for eid in eids:
        e = graph.edge(eid)
        picked.append(e)
        verts.update((e.u, e.v))
    order = sorted(verts)
    renum = {w: i for i, w in enumerate(order)}
    # renum is increasing and every edge has u < v, so endpoints stay ordered
    edges = [Edge(e.eid, renum[e.u], renum[e.v]) for e in picked]
    edges.append(Edge(max(eids, default=-1) + 1, renum[u], renum[v]))
    return Multigraph(len(order), tuple(edges))


def _side_kind(side: int, ends: int, apart: Sequence[int]) -> str | None:
    """The kind of a side's fresh u-v edge when the side keeps no direct edge.

    The side graph is G[side] with the fresh edge and the direct edges it
    keeps in place of G's u-v edges; ends is the mask of u and v, and
    apart holds the neighbour masks of G with u and v made apart.  The
    kind is `matroid.edge_kinds(side graph)[fresh]` for a side that keeps
    no direct edge; with one, it is always "del".

    G must be 2-connected; then every side graph is (the lemma).  G - u
    and G - v are connected, so each component of G - {u, v} has a
    neighbour at u and one at v.  A side minus u (or v) is therefore
    connected; and for w in a component C, each part of C - w reaches u
    or v in G - w without leaving C, so the side minus w is connected
    through the fresh u-v edge.  `_split_predecessors` sees only
    2-connected states: `decompose` returns before the search on a graph
    that fails `_spade_holds`, whose first test is 2-connectivity, and
    the search queues only predecessors a verify returns, each a split
    side or a subdivision of a 2-connected state.

    So a parallel copy gives "del".  Without one, two vertices give None
    (the side graph is K_2); more give "del" if the side stays
    2-connected without the u-v adjacency, else "con", by Tutte's theorem
    (see `matroid`).
    """
    if side == ends:
        return None
    return "del" if _blocks(ends & -ends, side, apart) == [side] else "con"


def _spade_holds(graph: Multigraph, delta: int) -> bool:
    """`check_spade` at delta with its forced weights; False on a graph
    that is not 2-connected or has none (K_2)."""
    if not graph.is_two_connected():
        return False
    assignment = weight_function(graph, delta)
    return assignment is not None and check_spade(graph, assignment)


def _split_predecessors(state: Multigraph, delta: int, kinds: Mapping[int, str | None]):
    """Undo one gluing: split at a merged vertex pair.

    Yields (shape, verify) for each split into 2-connected sides whose
    fresh edges have the kinds the gluing needs.  shape is the raw
    predecessor's (n, m), read off the masks.  verify() builds and
    canonicalizes both sides and returns (predecessor, forward step), or
    None; kinds is `matroid.edge_kinds(state)`, and the state must
    satisfy spade at delta.

    A split at {u, v} gives each side some of the pieces (`_pieces`), a
    share of the direct u-v edges (a "delta_glue" split withholds
    delta - 2 of them) and a fresh u-v edge; its style is the op of the
    step it undoes.  A "path_glue" split needs the raw side's fresh edge
    "del" and the partner's "con" (not None at delta = 2); a "delta_glue"
    split needs both "con".  These filters run on vertex masks: per piece
    subset, `_side_kind` reads the side's fresh edge's kind off at most
    one block search, for every style and share at once (a side that
    keeps a direct edge gives "del"); every side of a 2-connected state
    is 2-connected (the lemma in `_side_kind`).  So the raw side's fresh
    edge weighs 1 ("path_glue") or delta - 1, the partner's delta - 1.

    Both sides' spade is read here too, by the side lemma in
    `_verify_split`: a side's w(E) sums its pieces' weights in the
    state, one per direct edge it keeps and its fresh edge's weight.  A
    split that fails gets the verify `_no_step`.  No side is built here.
    """
    nbr = state.neighbour_masks
    for u, v in itertools.combinations(range(state.n), 2):
        groups, direct = _pieces(state, u, v)
        units = len(groups)
        if units + len(direct) < 2:
            continue
        styles = [("path_glue", 0, 1)]
        if delta >= 3 and len(direct) >= delta - 2:
            styles.append(("delta_glue", delta - 2, delta - 1))
        ends = (1 << u) | (1 << v)
        apart = list(nbr)
        apart[u] &= ~(1 << v)
        apart[v] &= ~(1 << u)
        sides = [ends]  # piece subset -> its side's vertex mask
        totals = [0]  # piece subset -> its pieces' weight in the state
        for piece, eids in groups.items():
            sides += [side | piece for side in sides]
            piece_weight = sum(delta - 1 if kinds[eid] == "con" else 1 for eid in eids)
            totals += [total + piece_weight for total in totals]
        fresh = [_side_kind(side, ends, apart) for side in sides]
        pieces = list(groups.values())
        every = (1 << units) - 1
        for mask in range(1 << units):
            a_kind, b_kind = fresh[mask], fresh[every ^ mask]
            a_size = sides[mask].bit_count()
            side_a = [eid for i in range(units) if mask >> i & 1 for eid in pieces[i]]
            side_b = [
                eid for i in range(units) if not mask >> i & 1 for eid in pieces[i]
            ]
            for style, withheld, a_fresh in styles:
                usable = len(direct) - withheld
                for d_a in range(usable + 1):
                    k1 = "del" if d_a else a_kind
                    if k1 != ("del" if style == "path_glue" else "con"):
                        continue
                    k2 = "del" if d_a < usable else b_kind
                    if k2 is None or delta > 2 and k2 != "con":
                        continue
                    shape = (a_size, len(side_a) + d_a + 1)
                    if (
                        totals[mask] + d_a + a_fresh != delta * (a_size - 1)
                        or totals[every ^ mask] + usable - d_a + delta - 1
                        != delta * (state.n + 1 - a_size)  # the sides share u, v
                        # one piece and no direct edge: {u, v} is a good flat
                        or not d_a and not mask & (mask - 1) and a_fresh != delta - 1
                    ):
                        yield shape, _no_step
                        continue
                    a_edges = side_a + direct[:d_a]
                    b_edges = side_b + direct[d_a:usable]
                    yield shape, partial(
                        _verify_split, state, delta, style, a_edges, b_edges, u, v
                    )


def _no_step() -> None:
    """The verify of a split whose sides fail spade."""
    return None


def _verify_split(
    state: Multigraph, delta: int, style: str, a_edges, b_edges, u: int, v: int
):
    """The canonical sides of a split whose sides satisfy spade, as the
    predecessor and the forward step; None if the step does not rebuild
    the state.

    Side lemma.  Let the state G satisfy spade at delta, and split it at
    {u, v} into a side X and a partner Y that are 2-connected and not
    K_2, as `_split_predecessors` yields them.  Then X satisfies spade
    iff w(E(X)) = delta (|V(X)| - 1) and, when X is one piece and keeps
    no direct edge, its fresh edge f weighs delta - 1.
    (a) An edge e of X that does not join u and v has its kind in G.  It
    has a parallel copy in X iff it has one in G.  For x in V(X), or no
    x, (G - e) - x is connected iff (X - e) - x is: a path of one that
    leaves V(X) enters and leaves the other side through u and v, so
    that stretch trades for f (or is cut out, if it leaves where it
    entered), and f back for a u-v path of Y - f.  For x inside Y,
    (G - e) - x is connected once X - e is 2-connected, as X - e - f is
    connected and every part of Y - f - x meets u or v.  So
    G - e is 2-connected iff X - e is (both have 3 or more vertices),
    which is the kind "del".  The u-v edges of X are parallel to f or f
    itself, "del" but for f, whose kind the filter read.
    (b) Let S be a good flat of X.  If S misses u or v, X[S] = G[S], and
    G - S is connected: X - S is, with f traded for a u-v path through Y
    where it is used, and Y's pieces hang off whichever of u and v lies
    outside S.  So S is a good flat of G, with the same E(S) and weights
    by (a): its equation holds.  If S holds u and v and X[S] is not f
    alone, T = S + V(Y) is a good flat
    of G: G[T] holds the 2-sum of X[S] and Y, both 2-connected and not
    K_2, and G - T = X - S.  The edges outside E(T) are those of X
    outside E(S), with their weights, and |V| - |T| = |V(X)| - |S|, so
    D_X(S) = D_X(V(X)) - D_G(V) + D_G(T), where D is w(E(.)) + 1 -
    delta (|.| - 1) on flats and w(E) - delta (n - 1) on the whole graph.
    G satisfies spade, so S's equation holds iff X's total does.  That
    leaves S = {u, v} with X[S] = f, a good flat when X - {u, v}, the one
    piece, is connected; its equation is w(f) + 1 = delta.
    So each side's spade reads off the state's kinds in O(m), which
    `_split_predecessors` does, and this never runs `_spade_holds`.

    Orientation lemma.  `_applied` glues the canonical partner's fresh
    edge, lower end first, onto the canonical side's, lower end first.
    When both canonical sides place state-u before state-v, or both
    after, that identifies u with u and v with v.  The filter fixed both
    fresh edges' weights, so the gluing accepts them, and its
    w1 + w2 - delta replacement edges are the withheld direct edges (0
    for "path_glue", delta - 2 for "delta_glue").  With the direct edges
    the sides keep, that rebuilds the state up to labels and edge ids,
    and a 2-connected one: the replay would compare equal canonical
    forms.  So such a step is accepted without building it.  Only a
    crossed split, which identifies u with v, is replayed and compared;
    its gluing never raises, as a 2-sum of 2-connected graphs is one.
    """
    g1 = _side_graph(state, a_edges, u, v)
    g2 = _side_graph(state, b_edges, u, v)
    g1c, p1, em1 = g1.canonicalize()
    g2c, p2, em2 = g2.canonicalize()
    # the fresh edges, last in each side: (u's label, v's label)
    f1, f2 = g1.edges[-1], g2.edges[-1]
    step = TraceStep(style, partner=g2c, self_edge=em1[f1.eid], partner_edge=em2[f2.eid])
    crossed = (p1[f1.u] < p1[f1.v]) != (p2[f2.u] < p2[f2.v])
    if crossed and _applied(g1c, step, delta).canonical_form != state.canonical_form:
        return None
    return g1c, step


def _subdivision_predecessors(state: Multigraph, delta: int, max_vertices: int):
    """Undo one path contraction: subdivide a parallel-class edge.

    Yields (shape, verify) as `_split_predecessors` does, for the first
    edge of each parallel class, classes in the order of their first
    edges.  The shape is (n + delta - 2, m + delta - 2), since the
    subdivision trades the edge for a path of delta - 1 edges through
    delta - 2 new vertices; nothing is built here, verify subdivides.

    No edge kind is read: an edge with a parallel copy is "del"
    (`matroid.edge_kinds`, weight 1), and every state is 2-connected (see
    `_side_kind`), so `subdivide_edge` accepts every edge yielded here:
    the delta-cycle's edge has weight delta - 1 for delta >= 3, and
    path-gluing a deletable edge leaves a 2-connected graph.
    """
    if delta < 3 or state.n + delta - 2 > max_vertices:
        return
    shape = (state.n + delta - 2, state.m + delta - 2)
    mult = state.multiplicity_matrix
    seen_pairs = set()
    for e in state.edges:
        if mult[e.u][e.v] < 2 or (e.u, e.v) in seen_pairs:
            continue
        seen_pairs.add((e.u, e.v))
        yield shape, partial(_verify_subdivision, state, delta, e.eid)


def _verify_subdivision(state: Multigraph, delta: int, eid: int):
    """The canonical subdivision of the edge and the contraction undoing it.

    Unlike a split, the step is not replayed, by the lemma: contracting
    the path a subdivision made gives the state back up to edge ids.
    Subdividing e = uv removes e and joins u and v by a path through
    delta - 2 new vertices, each meeting its two path edges and nothing
    else.  Canonical relabelling is an isomorphism, so along the mapped
    path the delta vertices are distinct, the ends differ and each
    interior vertex has degree 2 with only path edges, one edge joining
    each consecutive pair.  `contract_path` therefore accepts the mapped
    path, drops exactly the interior vertices and the path's edges, and
    joins the ends by one fresh edge: it rebuilds the state with e under
    another id, and canonical forms ignore edge ids.  A replay would
    compare equal forms, so it cannot reject the step.

    Nor is the predecessor's spade checked: subdividing e is path-gluing
    the delta-cycle, which satisfies spade at delta, along its weight
    delta - 1 edge onto e, of weight 1, and the gluing propositions keep
    spade; the state satisfies it, so the subdivision does.
    """
    raw, chain = subdivide_edge(state, eid, delta)
    pred, vperm, _ = raw.canonicalize()
    return pred, TraceStep("path_contract", path=tuple(vperm[w] for w in chain))


def decompose(
    graph: Multigraph, delta: int, *, memo: Memo | None = None
) -> ConstructionTrace | None:
    """Search for a construction of the graph from the seed at this delta.

    Backtracking over inverse construction moves (undo a gluing by
    splitting at a merged vertex pair; undo a path contraction by
    subdividing a parallel-class edge).  Returns a replayable trace, or
    None when the seed is unreachable.

    The search records the canonical graphs it settles in `memo`, and
    stops at the first predecessor the memo already knows.  Without a
    memo each call starts a fresh one, so the trace depends on the input
    alone.  A caller running many searches in a fixed order, as the
    census harnesses do, passes one dict to all of them.

    Every search state must satisfy the spade equalities: the gluing
    propositions preserve them only within that class, and unrestricted
    path contraction escapes it (contracting a path of C_delta yields
    C_2, which fails spade for delta > 2).  The substance verified on the
    census is therefore completeness: spade implies a chain is found.
    Only the input is checked by `_spade_holds`; each verify returns only
    predecessors that satisfy spade.  The input's edge kinds are carried
    to the canonical target through its edge map; every other state
    reads `matroid.edge_kinds` when it is expanded.

    Predecessors are verified lazily: an expansion first verifies only
    those that could end the search (a seed or a memo hit), and the rest,
    in order, only if none does.  Every check is pure and ending depends
    on the canonical predecessor alone, so trace and memo are those of
    verifying every candidate in order, and every returned step replays.
    A candidate comes with its (n, m), and the first pass verifies only
    those of a shape that some seed or memo entry has; a split reads its
    shape off the masks and builds its sides only when it is verified.

    Lemmas settle what a replay would check.  Every side of a split is
    2-connected (`_side_kind`).  Side lemma (`_verify_split`): as the
    state satisfies spade, a side does iff its total w(E) = delta (n - 1)
    holds, save a one-piece side with no direct edge, whose fresh edge
    must also weigh delta - 1; an edge off u-v keeps its kind, and a good
    flat of the side is one of the state or, with the other side added,
    gives one whose equation differs from the side's by the two totals.
    Orientation lemma (`_verify_split`): when both canonical sides place
    state-u before state-v, or both after, the forward gluing identifies
    u with u, the filter fixed both glued weights and its replacement
    edges are the withheld direct edges, so it rebuilds the state.  So a
    split costs one canonicalization per side, and only a crossed one is
    replayed (`_applied`, as `replay` does) and compared with the state.
    A parallel-class edge can be subdivided, its subdivision satisfies
    spade, and contracting its path gives the state back, so one
    canonicalization verifies it (`_subdivision_predecessors`,
    `_verify_subdivision`).

    Limits (2 vCPUs, Python 3.11.7): the search has no work bound.  On
    the theta graph of delta paths of length delta - 1, Gorenstein at
    delta, it takes 0.18-0.21, 0.48-0.53, 1.9-2.1 and 6.1-6.8 s at
    delta = 6, 8, 10 and 12 (26 to 122 vertices; fresh processes),
    where one `canonicalize` of the graph takes at most 0.07 s.  Under
    cProfile at delta = 12, two thirds of the time is the split filter
    (33,386 `_pieces` calls, one per vertex pair of each expanded state)
    and one third the 162 `canonicalize` calls of 76 split
    verifications.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not _spade_holds(graph, delta):
        return None
    target, _, emap = graph.canonicalize()
    kinds = {emap[eid]: kind for eid, kind in matroid.edge_kinds(graph).items()}
    found = _search(target, delta, {} if memo is None else memo, kinds)
    if found is None:
        return None
    seed, steps = found
    return ConstructionTrace(seed, delta, steps)


def _search(
    target: Multigraph, delta: int, memo: Memo, target_kinds: Mapping[int, str | None]
):
    """The search of `decompose` from the canonical target, whose edge
    kinds are given; every state it expands satisfies spade."""
    seeds = _seeds(delta)
    if target in seeds:
        return seeds[target], ()
    key = (delta, target)
    if key in memo:
        return memo[key]
    max_vertices = target.n + (delta - 2) * target.m + 2
    # predecessors that end the search: the seeds and what the memo has reached
    ends = {pred: (seed, ()) for pred, seed in seeds.items()}
    ends.update((g, found) for (d, g), found in memo.items() if d == delta and found)
    shapes = {(g.n, g.m) for g in ends}
    came_from: dict[Multigraph, tuple[Multigraph, TraceStep]] = {}
    discovered = {target}
    queue = deque([target])
    found = None
    while queue and found is None:
        state = queue.popleft()
        kinds = target_kinds if state is target else matroid.edge_kinds(state)
        preds = itertools.chain(
            _split_predecessors(state, delta, kinds),
            _subdivision_predecessors(state, delta, max_vertices),
        )
        candidates, verified = [], {}
        for shape, verify in preds:  # pass 1: verify only what may end the search
            candidates.append(verify)
            if shape not in shapes:
                continue
            hit = verified[verify] = verify()
            if hit and hit[0] in ends:
                came_from[hit[0]] = (state, hit[1])
                found = (hit[0], *ends[hit[0]])
                break
        else:  # pass 2: nothing ends the search; any memo hit left is a dead end
            for verify in candidates:
                hit = verified[verify] if verify in verified else verify()
                if hit is None or hit[0] in discovered or (delta, hit[0]) in memo:
                    continue
                came_from[hit[0]] = (state, hit[1])
                discovered.add(hit[0])
                queue.append(hit[0])
    if found is None:
        memo.update(dict.fromkeys((delta, s) for s in discovered))
        return None
    cur, seed, steps = found
    while cur != target:
        cur, step = came_from[cur]
        steps += (step,)
        memo[(delta, cur)] = (seed, steps)
    return seed, steps


def _applied(graph: Multigraph, step: TraceStep, delta: int) -> Multigraph:
    """The graph a trace step builds from the graph it applies to.

    Raises GluingError where the step does not apply.  The gluings are
    looked up as module attributes at each call, so a wrapper installed
    on them (a test's counter, the benchmark's tracer) sees every step.
    """
    if step.op in ("path_glue", "delta_glue"):
        glue = path_gluing if step.op == "path_glue" else delta_edge_gluing
        return glue(graph, step.self_edge, step.partner, step.partner_edge, delta)
    if step.op == "path_contract":
        return contract_path(graph, step.path, delta)
    raise ValueError(f"unknown op {step.op!r}")


def replay(trace: ConstructionTrace) -> Multigraph:
    """Rebuild the trace's graph from its seed; returns the canonical graph.

    Every step's edge/path references are in the canonical labeling of
    the intermediate graph they apply to, so the replay canonicalizes
    after each step.
    """
    seeds = {name: g for g, name in _seeds(trace.delta).items()}
    if trace.seed not in seeds:
        raise ValueError(f"no seed {trace.seed!r} at delta {trace.delta}")
    cur = seeds[trace.seed]
    for step in trace.steps:
        cur = _applied(cur, step, trace.delta).canonicalize()[0]
    return cur


# -- serialization ---------------------------------------------------------

def graph_to_json(graph: Multigraph) -> dict:
    return {
        "vertices": graph.n,
        "edges": [[e.u, e.v] for e in graph.edges],
        "edge_ids": [e.eid for e in graph.edges],
    }


def graph_from_json(data: dict) -> Multigraph:
    ids = data.get("edge_ids")
    pairs = data["edges"]
    if ids is None:
        ids = list(range(len(pairs)))
    elif len(ids) != len(pairs):
        raise ValueError(f"{len(ids)} edge ids for {len(pairs)} edges")
    edges = tuple(
        Edge(i, min(u, v), max(u, v)) for i, (u, v) in zip(ids, pairs)
    )
    return Multigraph(data["vertices"], edges)


def trace_to_json(trace: ConstructionTrace) -> dict:
    steps = []
    for s in trace.steps:
        entry: dict = {"op": s.op}
        if s.op in ("path_glue", "delta_glue"):
            entry["partner"] = graph_to_json(s.partner)
            entry["self_edge"] = s.self_edge
            entry["partner_edge"] = s.partner_edge
        else:
            entry["path"] = list(s.path)
        steps.append(entry)
    return {"seed": trace.seed, "delta": trace.delta, "steps": steps}


def trace_from_json(data: dict) -> ConstructionTrace:
    steps = []
    for s in data["steps"]:
        if s["op"] in ("path_glue", "delta_glue"):
            steps.append(
                TraceStep(
                    s["op"],
                    partner=graph_from_json(s["partner"]),
                    self_edge=s["self_edge"],
                    partner_edge=s["partner_edge"],
                )
            )
        else:
            steps.append(TraceStep(s["op"], path=tuple(s["path"])))
    return ConstructionTrace(data["seed"], data["delta"], tuple(steps))
