"""Gorenstein multigraphs: criteria, polytopes, constructions, census.

Decides whether the graphic-matroid base polytope of a 2-connected
multigraph is Gorenstein, via the weight-function criteria and an exact
polyhedral oracle, and constructs/decomposes Gorenstein graphs through
the gluing calculus.
"""

from .census import (
    CensusBounds,
    CensusRecord,
    census_record,
    enumerate_census,
    verify_classification,
    verify_equivalence,
)
from .constructions import (
    ConstructionTrace,
    GluingError,
    GluingSpec,
    TraceStep,
    contract_path,
    decompose,
    delta_edge_gluing,
    delta_gluing,
    multi_gluing,
    path_gluing,
    replay,
    simplify,
    subdivide_edge,
    trace_from_json,
    trace_to_json,
)
from .criteria import (
    WeightAssignment,
    check_heart,
    check_spade,
    delta_candidates,
    is_gorenstein,
    weight_function,
)
from .matroid import (
    GoodFlat,
    deletable_edges,
    good_flats,
    two_connected_subsets,
)
from .multigraph import (
    Edge,
    GraphParseError,
    Multigraph,
    banana_graph,
    complete_graph,
    cycle_graph,
)
from .polytope import (
    BasePolytope,
    FacetInequality,
    GorensteinPoint,
    build_polytope,
    gorenstein_oracle,
    gorenstein_point_at,
    hull_facets_oracle,
    lattice_points,
    never_delta_one,
)

__all__ = [
    "BasePolytope",
    "CensusBounds",
    "CensusRecord",
    "ConstructionTrace",
    "Edge",
    "FacetInequality",
    "GluingError",
    "GluingSpec",
    "GoodFlat",
    "GorensteinPoint",
    "GraphParseError",
    "Multigraph",
    "TraceStep",
    "WeightAssignment",
    "banana_graph",
    "build_polytope",
    "census_record",
    "check_heart",
    "check_spade",
    "complete_graph",
    "contract_path",
    "cycle_graph",
    "decompose",
    "delta_candidates",
    "delta_edge_gluing",
    "delta_gluing",
    "deletable_edges",
    "enumerate_census",
    "good_flats",
    "gorenstein_oracle",
    "gorenstein_point_at",
    "hull_facets_oracle",
    "is_gorenstein",
    "lattice_points",
    "multi_gluing",
    "never_delta_one",
    "path_gluing",
    "replay",
    "simplify",
    "subdivide_edge",
    "trace_from_json",
    "trace_to_json",
    "two_connected_subsets",
    "verify_classification",
    "verify_equivalence",
    "weight_function",
]
