"""Gluing calculus for Gorenstein multigraphs.

The universal gluing joins two 2-connected multigraphs along parallel
classes, replacing the classes by w(F1) + w(F2) - delta parallel edges.
Its two specializations (gluing along a weight-1/weight-(delta-1) edge
pair with zero replacement edges, and along two weight-(delta-1) edges
with delta-2 replacement edges), together with contracting degree-2
paths, generate every Gorenstein multigraph from a delta-cycle (or from
K_4 when delta = 2).  `decompose` searches for such a construction and
returns a replayable trace.
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
    kind = matroid.edge_kinds(graph).get(eid)
    if kind is None:
        raise GluingError(f"unknown edge id {eid}")
    if kind == "del":
        return 1
    if kind == "con":
        return delta - 1
    raise GluingError(
        f"edge {eid}: neither deletion nor contraction keeps 2-connectivity"
    )


def _check_parallel_class(graph: Multigraph, eids: frozenset[int]) -> tuple[int, int]:
    if not eids:
        raise GluingError("parallel class must be nonempty")
    try:
        pairs = {(graph.edge(eid).u, graph.edge(eid).v) for eid in eids}
    except KeyError as exc:
        raise GluingError(exc.args[0]) from None
    if len(pairs) != 1:
        raise GluingError("edges do not share one endpoint pair")
    return pairs.pop()


def delta_gluing(spec: GluingSpec) -> Multigraph:
    """Universal gluing along two parallel classes."""
    g1, g2, delta = spec.left, spec.right, spec.delta
    if not isinstance(delta, int):
        raise GluingError(f"delta must be an integer, not {delta!r}")
    if delta < 2:
        raise GluingError("delta must be >= 2")
    if not (g1.is_two_connected() and g2.is_two_connected()):
        raise GluingError("both graphs must be 2-connected")
    u1, v1 = _check_parallel_class(g1, spec.left_parallel_class)
    u2, v2 = _check_parallel_class(g2, spec.right_parallel_class)
    w1 = sum(_edge_weight(g1, e, delta) for e in spec.left_parallel_class)
    w2 = sum(_edge_weight(g2, e, delta) for e in spec.right_parallel_class)
    replacement = w1 + w2 - delta
    if replacement < 0:
        raise GluingError(
            f"w(F1) + w(F2) = {w1 + w2} < delta = {delta}: negative edge count"
        )
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
    if _edge_weight(g1, e1, delta) != 1:
        raise GluingError(f"edge {e1} must have weight 1")
    if _edge_weight(g2, e2, delta) != delta - 1:
        raise GluingError(f"edge {e2} must have weight {delta - 1}")
    return delta_gluing(
        GluingSpec(g1, frozenset([e1]), g2, frozenset([e2]), delta, flip)
    )


def delta_edge_gluing(
    g1: Multigraph, e1: int, g2: Multigraph, e2: int, delta: int, flip: bool = False
) -> Multigraph:
    """Gluing along two weight-(delta-1) edges; delta - 2 replacement edges."""
    for g, e in ((g1, e1), (g2, e2)):
        if _edge_weight(g, e, delta) != delta - 1:
            raise GluingError(f"edge {e} must have weight {delta - 1}")
    return delta_gluing(
        GluingSpec(g1, frozenset([e1]), g2, frozenset([e2]), delta, flip)
    )


def subdivide_edge(
    graph: Multigraph, eid: int, delta: int
) -> tuple[Multigraph, tuple[int, ...]]:
    """Replace an edge by a path of delta - 1 edges (fresh interior vertices).

    Equivalent to path-gluing with a delta-cycle along the edge.  Returns
    the new graph and the path's vertex sequence.
    """
    if delta < 2:
        raise GluingError("delta must be >= 2")
    e = graph.edge(eid)
    interior = list(range(graph.n, graph.n + delta - 2))
    chain = [e.u] + interior + [e.v]
    next_id = max(f.eid for f in graph.edges) + 1
    edges = [f for f in graph.edges if f.eid != eid]
    for a, b in zip(chain, chain[1:]):
        edges.append(Edge(next_id, min(a, b), max(a, b)))
        next_id += 1
    return Multigraph(graph.n + delta - 2, tuple(edges)), tuple(chain)


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
    assignment = weight_function(graph, delta)
    if assignment is None or not check_spade(graph, assignment):
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
    this is vacuous and returns the single input unchanged.  The result
    coincides, up to isomorphism, with one delta-edge-gluing followed by
    delta - 3 path gluings that consume all but one replacement edge.
    """
    graphs = list(graphs)
    edges = list(edges)
    if len(graphs) != delta - 1 or len(edges) != delta - 1:
        raise GluingError(f"need exactly {delta - 1} graphs and edges")
    if delta == 2:
        return graphs[0]
    for g, e in zip(graphs, edges):
        if _edge_weight(g, e, delta) != delta - 1:
            raise GluingError(f"edge {e} must have weight {delta - 1}")
    # global vertices: 0 = merged u, 1 = merged v, others appended per graph
    out_edges: list[Edge] = []
    next_id = 0
    nxt = 2
    for g, chosen in zip(graphs, edges):
        ce = g.edge(chosen)
        vmap = {ce.u: 0, ce.v: 1}
        for w in range(g.n):
            if w not in vmap:
                vmap[w] = nxt
                nxt += 1
        for e in g.edges:
            if e.eid == chosen:
                continue
            a, b = vmap[e.u], vmap[e.v]
            out_edges.append(Edge(next_id, min(a, b), max(a, b)))
            next_id += 1
    out_edges.append(Edge(next_id, 0, 1))
    result = Multigraph(nxt, tuple(out_edges))
    if not result.is_two_connected():
        raise GluingError("gluing produced a non-2-connected graph")
    return result


# -- decomposition search --------------------------------------------------

# (delta, canonical graph) -> (seed, steps to the graph), or None if unreachable
Memo = dict[tuple[int, Multigraph], tuple[str, tuple[TraceStep, ...]] | None]


@cache
def _seeds(delta: int) -> Mapping[Multigraph, str]:
    """The canonical seed graphs at this delta; read-only, built once per delta."""
    seeds = {cycle_graph(delta).canonicalize()[0]: SEED_CYCLE}
    if delta == 2:
        seeds[complete_graph(4).canonicalize()[0]] = SEED_K4
    return MappingProxyType(seeds)


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


def _side_graph(graph: Multigraph, eids, u: int, v: int) -> tuple[Multigraph, int]:
    """Subgraph on the given edges plus one fresh edge joining u and v."""
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
    new_id = max(eids, default=-1) + 1
    a, b = renum[u], renum[v]
    edges.append(Edge(new_id, min(a, b), max(a, b)))
    return Multigraph(len(order), tuple(edges)), new_id


def _side_kinds(
    side: int, ends: int, single: bool, apart: Sequence[int]
) -> tuple[str | None, str | None]:
    """The kinds of a side's fresh u-v edge: (with direct edges, without).

    The side graph is G[side] with the fresh edge and the direct edges it
    keeps in place of G's u-v edges; ends is the mask of u and v, single
    says whether the side holds exactly one piece, and apart holds the
    neighbour masks of G with u and v made apart.  The pair is
    `matroid.edge_kinds(side graph)[fresh]` when the side keeps at least
    one direct edge and when it keeps none.

    G must be 2-connected; then every side graph is (the lemma).  G - u
    and G - v are connected, so each component of G - {u, v} has a
    neighbour at u and one at v.  A side minus u (or v) is therefore
    connected; and for w in a component C, each part of C - w reaches u
    or v in G - w without leaving C, so the side minus w is connected
    through the fresh u-v edge.  `_split_predecessors` sees only
    2-connected states: `decompose` returns before the search on a graph
    that is not, and `_search` queues only predecessors that pass
    `_spade_holds`, whose first test is 2-connectivity.

    So a parallel copy gives "del".  Without one, two vertices give None;
    more give "del" if the side stays 2-connected without the u-v
    adjacency, else "con" if G[side] - {u, v} is connected (one piece; a
    2-connected side has no cut vertex), else None.
    """
    if side == ends:
        return "del", None
    if _blocks(ends & -ends, side, apart) == [side]:
        return "del", "del"
    return "del", "con" if single else None


def _spade_holds(graph: Multigraph, delta: int) -> bool:
    if not graph.is_two_connected():
        return False
    assignment = weight_function(graph, delta)
    return assignment is not None and check_spade(graph, assignment)


def _split_predecessors(state: Multigraph, delta: int):
    """Undo one gluing: split at a merged vertex pair.

    Yields (raw predecessor, verify) for each split into 2-connected sides
    whose fresh edges have the kinds the gluing needs.  verify(canon) runs
    the costly rest (spade on the partner, the forward gluing replayed on
    the canonical sides) and returns (predecessor, forward step), or None;
    canon is the raw predecessor's `canonicalize()` if the caller has it,
    else None.

    A split at {u, v} gives each side some of the pieces (`_pieces`), a
    share of the direct u-v edges (a "delta" split withholds delta - 2 of
    them) and a fresh u-v edge.  A "path" split needs the raw side's fresh
    edge "del" and the partner's "con" (not None at delta = 2); a "delta"
    split needs both "con".  These filters run on vertex masks: per piece
    subset, `_side_kinds` reads the side's fresh edge's kind, with and
    without direct edges, off at most one block search, for every style
    and share at once; every side of a 2-connected state is 2-connected
    (the lemma in `_side_kinds`).  Only the raw side of a
    candidate that passes is built as a graph; verify builds the partner.
    """
    nbr = state.neighbour_masks
    for u, v in itertools.combinations(range(state.n), 2):
        groups, direct = _pieces(state, u, v)
        units = len(groups)
        if units + len(direct) < 2:
            continue
        styles = [("path", 0)]
        if delta >= 3 and len(direct) >= delta - 2:
            styles.append(("delta", delta - 2))
        ends = (1 << u) | (1 << v)
        apart = list(nbr)
        apart[u] &= ~(1 << v)
        apart[v] &= ~(1 << u)
        sides = [ends]  # piece subset -> its side's vertex mask
        for piece in groups:
            sides += [side | piece for side in sides]
        kinds = [
            _side_kinds(side, ends, side ^ ends in groups, apart)
            for side in sides
        ]
        pieces = list(groups.values())
        every = (1 << units) - 1
        for mask in range(1 << units):
            a_kinds, b_kinds = kinds[mask], kinds[every ^ mask]
            side_a = [eid for i in range(units) if mask >> i & 1 for eid in pieces[i]]
            side_b = [
                eid for i in range(units) if not mask >> i & 1 for eid in pieces[i]
            ]
            for style, withheld in styles:
                usable = len(direct) - withheld
                for d_a in range(usable + 1):
                    if not (side_a or d_a) or not (side_b or d_a < usable):
                        continue
                    k1 = a_kinds[d_a == 0]
                    if k1 != ("del" if style == "path" else "con"):
                        continue
                    k2 = b_kinds[d_a == usable]
                    if k2 is None or delta > 2 and k2 != "con":
                        continue
                    g1, e1 = _side_graph(state, side_a + direct[:d_a], u, v)
                    b_edges = side_b + direct[d_a:usable]
                    yield g1, partial(
                        _verify_split, state, delta, style, g1, e1, b_edges, u, v
                    )


def _verify_split(
    state: Multigraph, delta: int, style: str, g1, e1: int, b_edges, u: int, v: int,
    canon=None,
):
    g2, e2 = _side_graph(state, b_edges, u, v)
    if not _spade_holds(g2, delta):
        return None
    g1c, _, em1 = canon or g1.canonicalize()
    g2c, _, em2 = g2.canonicalize()
    e1c, e2c = em1[e1], em2[e2]
    op = "path_glue" if style == "path" else "delta_glue"
    glue = path_gluing if style == "path" else delta_edge_gluing
    try:
        replayed = glue(g1c, e1c, g2c, e2c, delta)
    except GluingError:
        return None
    if replayed.canonical_form != state.canonical_form:
        return None
    return g1c, TraceStep(op, partner=g2c, self_edge=e1c, partner_edge=e2c)


def _subdivision_predecessors(state: Multigraph, delta: int, max_vertices: int):
    """Undo one path contraction: subdivide a parallel-class edge.

    Yields (raw predecessor, verify); verify(canon) contracts the path again.
    """
    if delta < 3 or state.n + delta - 2 > max_vertices:
        return
    kinds = matroid.edge_kinds(state)
    seen_pairs = set()
    for e in state.edges:
        if (e.u, e.v) in seen_pairs:
            continue
        cls = state.parallel_class(e.eid)
        if len(cls) < 2:
            continue
        seen_pairs.add((e.u, e.v))
        eid = cls[0]
        if kinds[eid] != "del":
            continue
        raw, chain = subdivide_edge(state, eid, delta)
        yield raw, partial(_verify_subdivision, state, delta, raw, chain)


def _verify_subdivision(state: Multigraph, delta: int, raw: Multigraph, chain, canon=None):
    pred, vperm, _ = canon or raw.canonicalize()
    mapped = tuple(vperm[w] for w in chain)
    try:
        back = contract_path(pred, mapped, delta)
    except GluingError:
        return None
    if back.canonical_form != state.canonical_form:
        return None
    return pred, TraceStep("path_contract", path=mapped)


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

    Splits are filtered on vertex masks before any graph is built: a
    side's fresh u-v edge is "del" when the side keeps a direct u-v edge
    or stays 2-connected without the u-v adjacency, else "con" when it
    holds one component of the graph minus {u, v}, else None; these are
    the `matroid.edge_kinds` readings of the built side (`_side_kinds`).

    Predecessors are verified lazily: an expansion first verifies only
    those that could end the search (a seed or a memo hit), and the rest,
    in order, only if none does.  Every check is pure and ending depends
    on the canonical predecessor alone, so trace and memo are those of
    verifying every candidate in order, and every returned step is verified.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not _spade_holds(graph, delta):
        return None
    found = _search(graph.canonicalize()[0], delta, {} if memo is None else memo)
    if found is None:
        return None
    seed, steps = found
    return ConstructionTrace(seed, delta, steps)


def _search(target: Multigraph, delta: int, memo: Memo):
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
        preds = itertools.chain(
            _split_predecessors(state, delta),
            _subdivision_predecessors(state, delta, max_vertices),
        )
        candidates, verified, canons = [], {}, {}
        for raw, verify in preds:  # pass 1: verify only what may end the search
            candidates.append(verify)
            if (raw.n, raw.m) not in shapes:
                continue
            if memo:  # canonicalized once: verify reuses it
                canons[verify] = raw.canonicalize()
                if canons[verify][0] not in ends:
                    continue
            hit = verified[verify] = verify(canons.get(verify))
            if hit and hit[0] in ends and _spade_holds(hit[0], delta):
                came_from[hit[0]] = (state, hit[1])
                found = (hit[0], *ends[hit[0]])
                break
        else:  # pass 2: nothing ends the search; any memo hit left is a dead end
            for verify in candidates:
                hit = verified[verify] if verify in verified else verify(canons.get(verify))
                if hit is None or hit[0] in discovered or (delta, hit[0]) in memo:
                    continue
                if _spade_holds(hit[0], delta):
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


def seed_graph(trace: ConstructionTrace) -> Multigraph:
    if trace.seed == SEED_CYCLE:
        return cycle_graph(trace.delta)
    if trace.seed == SEED_K4:
        return complete_graph(4)
    raise ValueError(f"unknown seed {trace.seed!r}")


def replay(trace: ConstructionTrace) -> Multigraph:
    """Rebuild the trace's graph from its seed; returns the canonical graph.

    Every step's edge/path references are in the canonical labeling of
    the intermediate graph they apply to, so the replay canonicalizes
    after each step.
    """
    cur = seed_graph(trace).canonicalize()[0]
    for step in trace.steps:
        if step.op == "path_glue":
            cur = path_gluing(
                cur, step.self_edge, step.partner, step.partner_edge, trace.delta
            )
        elif step.op == "delta_glue":
            cur = delta_edge_gluing(
                cur, step.self_edge, step.partner, step.partner_edge, trace.delta
            )
        elif step.op == "path_contract":
            cur = contract_path(cur, step.path, trace.delta)
        else:
            raise ValueError(f"unknown op {step.op!r}")
        cur = cur.canonicalize()[0]
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
