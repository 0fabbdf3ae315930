"""Isomorphism-free census of small 2-connected multigraphs.

Enumeration is orderly (Read 1978; Faradzev 1978): multiplicity
matrices are filled column by column in the cell order of the
column-wise upper-triangle sequence, and a partial matrix survives only
while that sequence is lexicographically maximal for the vertices placed
so far (`multigraph.is_canonical_order`).  Each isomorphism class is
therefore built once, as its lex-max matrix, and nothing is
deduplicated.  That orderly representative is not the graph's
`canonical_form`, which individualization-refinement labels
(`Multigraph.canonicalize`); the census prints and sorts the lex-max
matrices, and the harnesses compare canonical forms.

One search serves every vertex count: the matrix on vertices 0..j may
be both a census graph on j + 1 vertices and the prefix of larger ones,
and one canonicity test serves both; the search stops at the most
vertices a 2-connected graph within the edge bound can have.

The census is a stream.  The search keeps each lex-max matrix packed as
its edge count and upper triangle (a few dozen bytes), and
`enumerate_census` builds each `Multigraph` only when it is reached, so
no list of graphs exists; the `census` command writes each graph's
record as soon as it is made, and the harnesses keep only their reports.

On top of the census sit the two verification harnesses: criterion
equivalence (the weight checks against the polyhedral oracle, every
dilation in range) and classification (spade verdict against the
decomposition search).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from . import matroid, polytope
from .constructions import decompose, replay, trace_to_json
from .criteria import (
    WeightAssignment,
    check_heart,
    check_spade,
    is_gorenstein,
    weight_function,
)
from .multigraph import Multigraph, _blocks, is_canonical_order


@dataclass(frozen=True)
class CensusBounds:
    max_vertices: int = 6
    max_edges: int = 10
    max_multiplicity: int = 5

    def __post_init__(self):
        if self.max_vertices < 2 or self.max_edges < 1 or self.max_multiplicity < 1:
            raise ValueError("bounds too small")


@dataclass(frozen=True)
class CensusRecord:
    graph: Multigraph  # orderly (lex-max) representative
    delta: int | None
    weights: WeightAssignment | None
    good_flat_count: int
    facet_count: int


def _lex_max_matrices(bounds: CensusBounds) -> list[tuple[int, list]]:
    """For each vertex count n from 2 to N, the lex-max 2-connected
    multiplicity matrices on exactly n vertices, packed and sorted; one
    orderly search finds them all.

    Each matrix is packed as its edge count followed by its upper
    triangle read row by row, (0,1), (0,2), ..., (0,n-1), (1,2), ..., in
    `bytes` while the edge bound (which caps every entry) fits a byte, in
    a tuple otherwise; both compare as sequences of ints, so each list is
    sorted by (edges, matrix), see `enumerate_census`.

    Orderly generation: the cells of an N x N matrix are filled column by
    column in the order (0,1), (0,2), (1,2), (0,3), ..., the cell order of
    the column-wise upper-triangle sequence, and a partial matrix on
    vertices 0..j survives only if its sequence is maximal over the
    orderings of those vertices (canonical in the sense of
    `is_canonical_order`).  Every prefix of a lex-max matrix is lex-max
    for the subgraph it induces, so each isomorphism class is reached
    exactly once, as its lex-max matrix, on any number of vertices: the
    matrix on vertices 0..j may be both a census graph on j + 1 vertices
    and the prefix of larger ones.  A connected graph's maximal ordering
    adds each vertex next to an earlier one, so an all-zero column is
    pruned as well.

    Vertex cap: N = min(max_vertices, max(max_edges, 2)).  A 2-connected
    graph on n >= 3 vertices has minimum degree at least 2, so its 2m
    degree sum is at least 2n and n <= m <= max_edges; the only graphs
    on 2 vertices are the bananas.  So no census graph has more than N
    vertices, however large max_vertices is.  The search fills an N x N
    matrix, so a cap whose N * N cells exceed sys.maxsize, which no list
    can index, is refused with ValueError before any work.

    Each completed nonzero column j gets one canonicity test, and only
    when the matrix on vertices 0..j either is 2-connected, and is then
    packed into the list of its j + 1 vertices, or can grow, and the
    search then goes on to column j + 1.  It can grow when j + 1 < N and
    its edge total leaves room for one more vertex, two edges: at least
    two edges join a prefix of a 2-connected graph to the vertices after
    it, since none would leave the graph disconnected and a single one
    would be a bridge.  A matrix that does neither is no census graph
    and the prefix of none, so it needs no test.

    The transposition bound cuts branches before any canonicity test, and
    the leaf blocks of the prefix decide 2-connectivity without one;
    neither drops a census graph, so the census is the same list either
    way.

    - Transposition bound: column j's top k entries must be
      lexicographically at most column k, for every 0 < k < j.  Were they
      larger, swapping vertices k and j would leave columns 0..k-1 alone
      and make column k larger, so the identity ordering would not be
      maximal.  While column j is filled top-down, `tight` holds the k
      whose column its entries still equal; row i is capped at mat[i][k]
      for each of them, and k drops out once a smaller value is chosen or
      once row k-1 is filled.
    - Leaf blocks of the prefix: a complete column j >= 2 joins z = j to
      the rows N where it is nonzero, and G = G' + z, G' the canonical
      prefix on vertices 0..j-1, is 2-connected exactly when |N| >= 2 and
      N meets the interior of every leaf block of G' (`_leaf_interiors`).
      G' is connected, since each of its columns is nonzero.  If |N| <= 1,
      z is isolated or hangs from a cut vertex.  If N misses the interior
      I of a leaf block L with cut vertex c, every neighbour of a vertex
      of I lies in L, so G - c separates I from z.  Conversely, G - z = G'
      is connected; for a vertex v of G' that is no cut vertex of G',
      G' - v is connected and z keeps a neighbour other than v; and for a
      cut vertex c of G', each component C of G' - c holds a leaf
      interior, so G - c is connected through z.  (The blocks and cut
      vertices within C form a subtree of the block-cut tree of G' that
      hangs from c by one block B.  Alone, B is a leaf block with
      interior B - c in C; otherwise the subtree has a leaf other than B,
      which is a block, since a cut vertex lies in two blocks, and a leaf
      block of G' whose cut vertex is not c.)  So one block search per
      canonical prefix that grows serves every column on it, and
      `leaves[j]` keeps its result while column j fills.  Column 1 makes
      a banana, which is 2-connected whenever the column is nonzero.
    """
    pack = bytes if bounds.max_edges < 256 else tuple
    size = min(bounds.max_vertices, max(bounds.max_edges, 2))  # N
    if size * size > sys.maxsize:
        raise ValueError(f"vertex cap {size} too large for the census search's N x N matrix")
    mat = [[0] * size for _ in range(size)]
    out = [[] for _ in range(size + 1)]
    # per column j, the leaf interiors of the prefix on vertices 0..j-1
    leaves = [[] for _ in range(size)]

    def fill(i: int, j: int, total: int, column: int, tight: list[int]) -> None:
        """Choose mat[i][j]; column is the mask of rows 0..i-1 where column j
        is nonzero, and the columns k in tight (all k > i) equal column j
        in those rows."""
        if i == j:
            done = column and (
                j == 1 or column.bit_count() >= 2 and all(column & inner for inner in leaves[j])
            )
            grows = column and j + 1 < size and total + 2 <= bounds.max_edges
            if (done or grows) and is_canonical_order(mat, j + 1):
                if done:
                    upper = (c for a, row in enumerate(mat[:j]) for c in row[a + 1 : j + 1])
                    out[j + 1].append(pack([total, *upper]))
                if grows:
                    leaves[j + 1] = _leaf_interiors(mat, j + 1)
                    fill(0, j + 1, total, 0, list(range(1, j + 1)))
            return
        cap = min(bounds.max_multiplicity, bounds.max_edges - total)
        for k in tight:
            cap = min(cap, mat[i][k])
        # columns that stay tight when row i takes the cap
        still = [k for k in tight if k > i + 1 and mat[i][k] == cap]
        for c in range(cap + 1):
            mat[i][j] = mat[j][i] = c
            fill(i + 1, j, total + c, column | (1 << i if c else 0), still if c == cap else [])
        mat[i][j] = mat[j][i] = 0

    fill(0, 1, 0, 0, [])
    return [(n, sorted(out[n])) for n in range(2, size + 1)]


def _leaf_interiors(mat, k: int) -> list[int]:
    """The interiors of the leaf blocks of the connected graph on vertices
    0..k-1 of mat, k >= 2, as vertex masks.

    A leaf block is a block with at most one cut vertex (the whole graph,
    when it is one block), and its interior is its vertices that are no
    cut vertex.  Blocks share at most one vertex, so a vertex met in a
    second block is a cut vertex.  One block search (`_blocks`).
    """
    nbr = [sum(1 << b for b, c in enumerate(row[:k]) if c) for row in mat[:k]]
    blocks = _blocks(1, (1 << k) - 1, nbr)
    seen = cut = 0
    for b in blocks:
        cut |= seen & b
        seen |= b
    return [b & ~cut for b in blocks if (b & cut).bit_count() < 2]


def _upper_cells(n: int) -> list[tuple[int, int]]:
    """The cells above the diagonal of an n x n matrix, row by row."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _graph(n: int, cells: list[tuple[int, int]], packed) -> Multigraph:
    """The packed matrix with its edges sorted by endpoints and numbered in
    that order; not the graph's canonicalize()[0], whose labelling is
    individualization-refinement's.  cells is `_upper_cells(n)`."""
    pairs = [cell for cell, c in zip(cells, packed[1:]) for _ in range(c)]
    return Multigraph.from_edge_list(n, pairs)


def _graphs(matrices: list[tuple[int, list]]) -> Iterator[Multigraph]:
    """Each packed matrix as a graph, with one cell list per vertex count."""
    for n, packed in matrices:
        cells = _upper_cells(n)
        for p in packed:
            yield _graph(n, cells, p)


class _Census(Iterator[Multigraph]):
    """The census graphs in order, each built when it is reached; `len` is
    their number, known once the search has run."""

    def __init__(self, matrices: list[tuple[int, list]]):
        self._total = sum(len(packed) for _, packed in matrices)
        self._graphs = _graphs(matrices)

    def __next__(self) -> Multigraph:
        return next(self._graphs)

    def __len__(self) -> int:
        return self._total


def enumerate_census(bounds: CensusBounds) -> Iterator[Multigraph]:
    """Every 2-connected multigraph within bounds, once up to isomorphism.

    Returns an iterator over the orderly representatives, sorted by
    (vertices, edges, multiplicity matrix) so downstream reports are
    deterministic; `len` of it is the census size.  Each representative's
    multiplicity matrix is the lex-max matrix of its class, which need not
    be its `canonical_form`.

    One search runs in this call for every vertex count, so the iterator
    knows its length and the call's time is the search's (the benchmark
    tracer's census span reads both).  It keeps only packed matrices,
    one list per vertex count up to the cap that the edge bound puts on
    it (`_lex_max_matrices`); each `Multigraph` is built as the iterator
    reaches it, so a caller that keeps no graph holds a few dozen bytes
    per census graph.  One sort per vertex count gives the order: the
    lists come in order of n, and within one n, sorting the packed
    (edges, upper triangle row by row) sorts by (edges, matrix).  Two
    symmetric matrices with zero diagonals first differ, row by row, at
    some (i, j) with i < j: were j < i, the entry (j, i), equal to it by
    symmetry, would differ one row earlier, and the diagonal never
    differs.  Every upper-triangle cell before (i, j) in the packed order
    also comes before it row by row, so (i, j) is the first difference of
    the upper triangles too, and both comparisons order the two matrices
    by it.
    """
    return _Census(_lex_max_matrices(bounds))


def census_record(graph: Multigraph) -> CensusRecord:
    verdict = is_gorenstein(graph)
    delta, weights = verdict if verdict is not None else (None, None)
    good_flats = len(matroid.good_flat_masks(graph))
    return CensusRecord(
        graph=graph,
        delta=delta,
        weights=weights,
        good_flat_count=good_flats,
        # build_polytope makes one facet per deletable edge and per good flat
        facet_count=len(matroid.deletable_edges(graph)) + good_flats,
    )


# -- verification harnesses ------------------------------------------------

def _canonical_json(graph: Multigraph) -> list[list[int]]:
    """The canonical form of a census representative, as traces replay to it."""
    return [list(row) for row in graph.canonical_form]


def verify_equivalence(bounds: CensusBounds) -> dict:
    """Check spade = heart = polyhedral oracle on every census graph.

    Scans every dilation in [2, |E|+1] per graph; any disagreement lands
    in the report's mismatch list (which must be empty).
    """
    graphs = enumerate_census(bounds)
    gorenstein = []
    mismatches = []
    memo = {}
    for g in graphs:
        poly = polytope.build_polytope(g)
        found = None
        for delta in range(2, g.m + 2):
            assignment = weight_function(g, delta)
            spade = assignment is not None and check_spade(g, assignment)
            heart = assignment is not None and check_heart(g, assignment)
            oracle = polytope.gorenstein_point_at(poly, delta) is not None
            if not (spade == heart == oracle):
                mismatches.append(
                    {
                        "canonical": _canonical_json(g),
                        "delta": delta,
                        "spade": spade,
                        "heart": heart,
                        "oracle": oracle,
                    }
                )
            if spade and found is None:
                found = delta
        if found is not None:
            trace = decompose(g, found, memo=memo)
            entry = {"canonical": _canonical_json(g), "delta": found, "trace": None}
            if trace is not None:
                entry["trace"] = trace_to_json(trace)
            gorenstein.append(entry)
    return {
        "bounds": asdict(bounds),
        "total": len(graphs),
        "gorenstein": gorenstein,
        "mismatches": mismatches,
    }


def verify_classification(delta: int, bounds: CensusBounds) -> dict:
    """Check spade at the dilation <=> the decomposition search succeeds.

    Every returned trace must replay to the graph's canonical form; any
    one-sided verdict or replay failure is a mismatch.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    graphs = enumerate_census(bounds)
    gorenstein = []
    mismatches = []
    memo = {}
    for g in graphs:
        assignment = weight_function(g, delta)
        spade = assignment is not None and check_spade(g, assignment)
        trace = decompose(g, delta, memo=memo)
        if trace is not None and replay(trace).canonical_form != g.canonical_form:
            mismatches.append(
                {"canonical": _canonical_json(g), "delta": delta, "error": "replay"}
            )
            continue
        if spade != (trace is not None):
            mismatches.append(
                {
                    "canonical": _canonical_json(g),
                    "delta": delta,
                    "spade": spade,
                    "trace_found": trace is not None,
                }
            )
            continue
        if spade:
            gorenstein.append(
                {
                    "canonical": _canonical_json(g),
                    "delta": delta,
                    "trace": trace_to_json(trace),
                }
            )
    return {
        "bounds": asdict(bounds),
        "delta": delta,
        "total": len(graphs),
        "gorenstein": gorenstein,
        "mismatches": mismatches,
    }


def format_report(report: dict) -> str:
    """Human-readable summary table of a verification report."""
    lines = []
    b = report["bounds"]
    head = f"census: {report['total']} graphs (<= {b['max_vertices']} vertices, <= {b['max_edges']} edges, multiplicity <= {b['max_multiplicity']})"
    if "delta" in report:
        head += f", delta = {report['delta']}"
    lines.append(head)
    lines.append(f"gorenstein: {len(report['gorenstein'])}")
    for entry in report["gorenstein"]:
        n = len(entry["canonical"])
        m = sum(map(sum, entry["canonical"])) // 2
        lines.append(f"  n={n} m={m} delta={entry['delta']}")
    lines.append(f"mismatches: {len(report['mismatches'])}")
    for entry in report["mismatches"]:
        lines.append(f"  {entry}")
    return "\n".join(lines) + "\n"
