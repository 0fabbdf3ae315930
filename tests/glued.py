"""Test graphs: larger 2-connected ones glued from small pieces, grids,
theta graphs, random small 2-connected ones by ear decomposition and
random connected ones grown from a tree."""

from hypothesis import strategies as st

from gorenstein.constructions import GluingError, delta_edge_gluing, path_gluing
from gorenstein.multigraph import Multigraph, complete_graph, cycle_graph


def glued_chain(delta: int, n: int) -> Multigraph:
    """Copies of a piece (K4 at delta 2, else the delta-cycle) glued up to n vertices.

    Each step takes the first valid path- or delta-edge-gluing at a
    rotating edge of the graph built so far.
    """
    piece = complete_graph(4) if delta == 2 else cycle_graph(delta)
    g = piece
    step = 0
    while g.n < n:
        g = _glue_somewhere(g, piece, delta, 5 * step)
        step += 1
    return g


def grid(rows: int, cols: int) -> Multigraph:
    """The rows x cols grid graph; vertex r * cols + c sits at row r, column c."""
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Multigraph.from_edge_list(rows * cols, pairs)


def _glue_somewhere(g: Multigraph, piece: Multigraph, delta: int, start: int) -> Multigraph:
    for k in range(g.m):
        eid = g.edges[(start + k) % g.m].eid
        for op in (path_gluing, delta_edge_gluing):
            try:
                return op(g, eid, piece, 0, delta)
            except GluingError:
                pass
    raise AssertionError(f"no valid gluing at delta={delta}")


def theta_graph(*lengths: int) -> Multigraph:
    """Internally disjoint paths of the given edge counts between 0 and 1."""
    pairs = []
    nxt = 2
    for length in lengths:
        path = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        pairs += zip(path, path[1:])
    return Multigraph.from_edge_list(nxt, pairs)


@st.composite
def two_connected_multigraphs(draw):
    """2-connected multigraphs on 2..7 vertices by ear decomposition.

    A cycle on 2..4 vertices, then up to four ears, each a path with 0..2
    new interior vertices between two distinct placed vertices; every
    2-connected multigraph has such a decomposition.  Edge ids follow a
    random order of the edges.
    """
    n = draw(st.integers(2, 4))
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        u, v = draw(ends)
        inner = draw(st.integers(0, min(2, 7 - n)))
        path = [u, *range(n, n + inner), v]
        n += inner
        pairs.extend(zip(path, path[1:]))
    return Multigraph.from_edge_list(n, draw(st.permutations(pairs)))


@st.composite
def connected_multigraphs(draw, max_n=9):
    """Random multigraphs on 1..max_n vertices grown from a random tree."""
    n = draw(st.integers(1, max_n))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        pairs += [(u, (u + d) % n) for u, d in draw(st.lists(extra, max_size=8))]
    return Multigraph.from_edge_list(n, pairs)
