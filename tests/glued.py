"""Larger 2-connected test graphs glued from small pieces."""

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


def _glue_somewhere(g: Multigraph, piece: Multigraph, delta: int, start: int) -> Multigraph:
    for k in range(g.m):
        eid = g.edges[(start + k) % g.m].eid
        for op in (path_gluing, delta_edge_gluing):
            try:
                return op(g, eid, piece, 0, delta)
            except GluingError:
                pass
    raise AssertionError(f"no valid gluing at delta={delta}")
