"""Spans recorded around the library's public functions, from outside.

`Tracer.install` wraps each function named in SPANNED or COUNTED in every
`gorenstein` module namespace that holds it (modules import some of them
by name), and methods on `Multigraph` itself.  Wrappers sit outside the
`lru_cache` wrappers, so cache hits count as calls.

A span is (name, start, end, parent, graph id), kept in parallel arrays in
memory and written out by `Tracer.dump`.  Self time is a span's duration
minus the part of it that its child spans cover (`self_times`).
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# span name -> (module, attribute); "Multigraph" means the class attribute
SPANNED = {
    "cli.run": ("cli", "run"),
    "census.enumerate_census": ("census", "enumerate_census"),
    "criteria.is_gorenstein": ("criteria", "is_gorenstein"),
    "criteria.check_spade": ("criteria", "check_spade"),
    "criteria.check_heart": ("criteria", "check_heart"),
    "matroid.good_flats": ("matroid", "good_flats"),
    "matroid.two_connected_subsets": ("matroid", "two_connected_subsets"),
    "matroid.edge_kinds": ("matroid", "edge_kinds"),
    "polytope.build_polytope": ("polytope", "build_polytope"),
    "polytope.gorenstein_point_at": ("polytope", "gorenstein_point_at"),
    "lattice.kernel_basis_with_dual": ("lattice", "kernel_basis_with_dual"),
    "constructions.decompose": ("constructions", "decompose"),
    "multigraph.canonicalize": ("Multigraph", "canonicalize"),
    "multigraph.is_two_connected": ("Multigraph", "is_two_connected"),
    "multigraph.spanning_trees": ("Multigraph", "spanning_trees"),
}

# counted without a span: too hot to time, or only their number matters
COUNTED = {
    "multigraph.induced_subgraph": ("Multigraph", "induced_subgraph"),
    "multigraph.from_edge_list": ("Multigraph", "from_edge_list"),
    "criteria.delta_candidates": ("criteria", "delta_candidates"),
    "constructions.path_gluing": ("constructions", "path_gluing"),
    "constructions.delta_edge_gluing": ("constructions", "delta_edge_gluing"),
    "constructions.contract_path": ("constructions", "contract_path"),
}

CACHED = {"matroid.good_flats", "matroid.edge_kinds"}

_COLUMNS = ("start", "end", "parent", "name", "graph")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {c: array("q") for c in _COLUMNS}
        self.counts: Counter = Counter()
        self.graph_id = -1
        self._open: list[int] = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        start, end, parent = (self.columns[c] for c in ("start", "end", "parent"))
        names, graph, stack = self.columns["name"], self.columns["graph"], self._open
        counts, clock = self.counts, time.perf_counter_ns
        after = _AFTER.get(name)
        cache_info = fn.cache_info if name in CACHED else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            graph.append(self.graph_id)
            end.append(0)
            stack.append(idx)
            hits = cache_info().hits if cache_info else 0
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            hit = cache_info is not None and cache_info().hits > hits
            if hit:
                counts[name + ".hits"] += 1
            elif after is not None:
                after(counts, args, result)  # work done: misses only
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        if name == "multigraph.from_edge_list":
            # labelled fillings are the graphs the census enumerator builds
            census_id = self.names.index("census.enumerate_census")
            names, stack = self.columns["name"], self._open

            def wrapper(*args, **kwargs):
                if stack and names[stack[-1]] == census_id:
                    counts["census.fillings"] += 1
                return fn(*args, **kwargs)

            return wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every SPANNED and COUNTED function of the loaded library."""
        from gorenstein.multigraph import Multigraph

        modules = {
            key.rpartition(".")[2]: mod
            for key, mod in sys.modules.items()
            if key.startswith("gorenstein.")
        }
        namespaces = list(modules.values()) + [sys.modules["gorenstein"]]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (owner, attr) in table.items():
                if owner == "Multigraph":
                    raw = Multigraph.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(Multigraph, attr, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(Multigraph, attr, make(name, raw))
                    continue
                original = getattr(modules[owner], attr)
                wrapped = make(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    def dump(self, prefix: Path) -> None:
        """Write the spans (binary columns) and the counters (JSON)."""
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for c in _COLUMNS:
                self.columns[c].tofile(fh)
        header = {"names": self.names, "spans": len(self.columns["start"]), "counts": self.counts}
        prefix.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")


def _after_good_flats(counts, args, result):
    counts["matroid.flats"] += len(result)


def _after_spanning_trees(counts, args, result):
    graph = args[0]
    counts["multigraph.spanning_trees.trees"] += len(result)
    counts["multigraph.spanning_trees.candidates"] += math.comb(graph.m, graph.n - 1)


def _after_build_polytope(counts, args, result):
    counts["polytope.facets"] += len(result.facets)


def _after_decompose(counts, args, result):
    if result is not None:
        counts["constructions.trace_steps"] += len(result.steps)


def _after_enumerate_census(counts, args, result):
    counts["census.classes"] += len(result)


_AFTER = {
    "matroid.good_flats": _after_good_flats,
    "multigraph.spanning_trees": _after_spanning_trees,
    "polytope.build_polytope": _after_build_polytope,
    "constructions.decompose": _after_decompose,
    "census.enumerate_census": _after_enumerate_census,
}


# -- analysis ----------------------------------------------------------------

def load(prefix: Path) -> tuple[dict, dict[str, array]]:
    header = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    n = header["spans"]
    columns = {}
    with open(prefix.with_suffix(".bin"), "rb") as fh:
        for c in _COLUMNS:
            columns[c] = array("q")
            columns[c].fromfile(fh, n)
    return header, columns


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Spans are indexed in start order, as `Tracer` records them; a child
    interval is clipped to its parent's.
    """
    n = len(start)
    covered = [0] * n
    reached = list(start)  # per parent: end of the covered prefix so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reached[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reached[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def per_name(names: list[str], columns: dict[str, array]) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds)."""
    own = self_times(columns["start"], columns["end"], columns["parent"])
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for name_id, t in zip(columns["name"], own):
        calls[name_id] += 1
        self_ns[name_id] += t
    return {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(names)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(header: dict, columns: dict[str, array], stdout_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by BENCHMARK.json name."""
    spans = per_name(header["names"], columns)
    counts = Counter(header["counts"])
    out: dict[str, float] = {}
    for name, (calls, self_s) in spans.items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    for name in CACHED:
        out[name + ".cache_hit_ratio"] = _ratio(counts[name + ".hits"], spans[name][0])
    for name in COUNTED:
        out[name + ".calls"] = counts[name]
    gluing = sum(counts["constructions." + op] for op in ("path_gluing", "delta_edge_gluing", "contract_path"))
    out.update(
        {
            "census.fillings": counts["census.fillings"],
            "census.unique_ratio": _ratio(counts["census.classes"], counts["census.fillings"]),
            "matroid.flat_yield": _ratio(counts["matroid.flats"], counts["multigraph.induced_subgraph"]),
            "multigraph.spanning_trees.trees": counts["multigraph.spanning_trees.trees"],
            "multigraph.spanning_trees.yield": _ratio(
                counts["multigraph.spanning_trees.trees"], counts["multigraph.spanning_trees.candidates"]
            ),
            "polytope.facets": counts["polytope.facets"],
            "constructions.gluing.calls": gluing,
            "constructions.step_yield": _ratio(counts["constructions.trace_steps"], gluing),
            "cli.stdout_bytes": stdout_bytes,
        }
    )
    return out
