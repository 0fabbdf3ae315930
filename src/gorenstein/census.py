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
matrices, and the harnesses compare canonical forms.  On top of the
census sit the two verification harnesses: criterion equivalence (the
weight checks against the polyhedral oracle, every dilation in range)
and classification (spade verdict against the decomposition search).
"""

from __future__ import annotations

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


def _graphs_on(n: int, bounds: CensusBounds):
    """Lex-max 2-connected multiplicity matrices on exactly n vertices.

    Orderly generation: cells are filled column by column in the order
    (0,1), (0,2), (1,2), (0,3), ..., the cell order of the column-wise
    upper-triangle sequence, and a partial matrix on vertices 0..j
    survives only if its sequence is maximal over the orderings of those
    vertices (canonical in the sense of `is_canonical_order`).  Every
    prefix of a lex-max matrix is lex-max for the subgraph it induces, so
    each isomorphism class is reached exactly once, as its lex-max
    matrix.  A connected graph's maximal ordering adds each vertex next
    to an earlier one, so an all-zero column is pruned as well.

    Three necessary conditions cut branches before the canonicity test,
    which still runs on every column that passes them; none drops a
    census graph, so the census is the same list either way.

    - Transposition bound: column j's top k entries must be
      lexicographically at most column k, for every 0 < k < j.  Were they
      larger, swapping vertices k and j would leave columns 0..k-1 alone
      and make column k larger, so the identity ordering would not be
      maximal.  While column j is filled top-down, `tight` holds the k
      whose column its entries still equal; row i is capped at mat[i][k]
      for each of them, and k drops out once a smaller value is chosen or
      once row k-1 is filled.
    - Edge reserve: a column j < n-1 may bring the edge total to at most
      max_edges - (r + 1), where r = n-1-j vertices are still to come.
      Each of them has degree at least 2, and at least 2 edges join them
      to the placed vertices, since a single one would be a bridge; with
      e edges among them and x across, 2e + x >= 2r and x >= 2 give
      e + x >= r + 1.
    - Leaf conditions first: once the last column is complete, the matrix
      must have at least n edges, every degree at least 2 and be
      2-connected, tested on neighbour masks read off the matrix by the
      block search of `multigraph`.  Both this test and the canonicity
      test must pass for a census graph, and neither changes the matrix,
      so testing the cheap one first keeps the same list; the `Multigraph`
      is built only for a matrix that passes both.
    """
    if n == 2:
        for k in range(1, min(bounds.max_edges, bounds.max_multiplicity) + 1):
            yield Multigraph.from_edge_list(2, [(0, 1)] * k)
        return
    mat = [[0] * n for _ in range(n)]
    out = []
    full = (1 << n) - 1
    # edge total allowed once column j is complete (the edge reserve)
    budget = [bounds.max_edges - (n - j) for j in range(n - 1)] + [bounds.max_edges]

    def two_connected(total: int) -> bool:
        """The leaf conditions on the complete matrix; n edges and minimum
        degree 2 are cheap necessary conditions of 2-connectivity here."""
        if total < n or min(map(sum, mat)) < 2:
            return False
        nbr = [sum(1 << k for k, c in enumerate(row) if c) for row in mat]
        return _blocks(1, full, nbr) == [full]

    def graph() -> Multigraph:
        """The complete matrix with its edges sorted by endpoints and
        numbered in that order; not the graph's canonicalize()[0], whose
        labelling is individualization-refinement's."""
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) for _ in range(mat[i][j])
        ]
        return Multigraph.from_edge_list(n, pairs)

    def fill(i: int, j: int, total: int, column: int, tight: list[int]) -> None:
        """Choose mat[i][j]; column is the sum of column j so far, and the
        columns k in tight (all k > i) equal column j in rows 0..i-1."""
        if i == j:
            if j < n - 1:
                if column and is_canonical_order(mat, j + 1):
                    fill(0, j + 1, total, 0, list(range(1, j + 1)))
            elif two_connected(total) and is_canonical_order(mat, n):
                out.append(graph())
            return
        cap = min(bounds.max_multiplicity, budget[j] - total)
        for k in tight:
            cap = min(cap, mat[i][k])
        # columns that stay tight when row i takes the cap
        still = [k for k in tight if k > i + 1 and mat[i][k] == cap]
        for c in range(cap + 1):
            mat[i][j] = mat[j][i] = c
            fill(i + 1, j, total + c, column + c, still if c == cap else [])
        mat[i][j] = mat[j][i] = 0

    fill(0, 1, 0, 0, [])
    yield from out


def enumerate_census(bounds: CensusBounds) -> list[Multigraph]:
    """Every 2-connected multigraph within bounds, once up to isomorphism.

    Returns the orderly representatives, sorted by (vertices, edges,
    multiplicity matrix) so downstream reports are deterministic.  Each
    representative's multiplicity matrix is the lex-max matrix of its
    class, which need not be its `canonical_form`.
    """
    out = [g for n in range(2, bounds.max_vertices + 1) for g in _graphs_on(n, bounds)]
    out.sort(key=lambda g: (g.n, g.m, g.multiplicity_matrix))
    return out


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
