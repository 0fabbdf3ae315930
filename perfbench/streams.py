"""Seeded input streams for the benchmark workloads.

Every graph is built with the library's public gluing API (`cycle_graph`,
`complete_graph`, `path_gluing`, `delta_edge_gluing`, `Multigraph.shuffled`),
so it is Gorenstein at its construction delta by the gluing propositions.
A perturbed twin adds one parallel edge to its glued graph.

A stream is a cycle of slots repeated.  A slot fixes (delta, vertex count)
and whether the perturbed twin follows; sizes alternate within a cycle, so
a slow spell of the host does not land on one size only.  The isomorphism class in each
(cycle, slot) position comes from a fixed corpus key, not from the run
seed: search and subset-pass costs vary by an order of magnitude between
classes of one size, and a run covers only a few dozen graphs, so a
per-seed draw of classes would measure the draw, not the program.  The run
seed relabels every graph at random (vertices through `shuffled`, edge ids
through the line order of the file), which is what the program sees.  The
same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from gorenstein import (
    GluingError,
    Multigraph,
    complete_graph,
    cycle_graph,
    delta_edge_gluing,
    path_gluing,
)

CENSUS_ARGV = ("census", "--max-v", "6", "--max-e", "8", "--max-mult", "4")


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[tuple[int, int], ...]  # (delta, vertices) per glued graph
    perturbed: bool  # each glued graph is followed by its perturbed twin
    edge_range: tuple[int, int] | None  # inclusive bounds on m, twin included


WORKLOADS = {
    "census": Workload("census", (), False, None),
    "decide": Workload(
        "decide",
        (
            (2, 8), (3, 12), (4, 10), (3, 14), (3, 9),
            (2, 12), (4, 8), (3, 13), (3, 10), (4, 14),
            (2, 10), (3, 11), (4, 12), (3, 8), (2, 14),
        ),
        True,
        None,
    ),
    "oracle": Workload(
        "oracle",
        (
            (2, 8), (3, 11), (4, 10), (3, 9), (2, 10),
            (3, 12), (4, 8), (3, 10), (4, 12), (3, 8),
        ),
        True,
        (12, 20),
    ),
    "decompose": Workload(
        "decompose",
        ((3, 9), (4, 12), (3, 11), (3, 13), (3, 10), (4, 10), (3, 12)),
        False,
        None,
    ),
}


def _piece(delta: int) -> Multigraph:
    """Smallest Gorenstein graph at delta that still adds vertices."""
    return complete_graph(4) if delta == 2 else cycle_graph(delta)


def _sizes(delta: int, low: int, high: int) -> list[int]:
    """Vertex counts in [low, high] that gluing pieces at delta can reach."""
    first = _piece(delta).n
    step = first - 2
    return [k for k in range(max(low, first), high + 1) if (k - first) % step == 0]


def _glue(rng: random.Random, g: Multigraph, h: Multigraph, delta: int) -> Multigraph:
    """One random valid path- or delta-edge-gluing of g and h."""
    for _ in range(200):
        op = rng.choice((path_gluing, delta_edge_gluing))
        e1 = rng.choice(g.edges).eid
        e2 = rng.choice(h.edges).eid
        try:
            return op(g, e1, h, e2, delta, rng.random() < 0.5)
        except GluingError:
            continue
    raise RuntimeError(f"no valid gluing found at delta={delta}")


def glued_graph(rng: random.Random, delta: int, n: int) -> Multigraph:
    """A graph on exactly n vertices, Gorenstein at delta by construction.

    Grows from the seed piece by gluing either another piece or, now and
    then, a smaller glued graph, so the block structure is not a chain.
    """
    if n not in _sizes(delta, n, n):
        raise ValueError(f"{n} vertices are not reachable at delta={delta}")
    g = _piece(delta)
    while g.n < n:
        partners = _sizes(delta, _piece(delta).n + 1, n - g.n + 2)
        if partners and rng.random() < 0.4:
            h = glued_graph(rng, delta, rng.choice(partners))
        else:
            h = _piece(delta)
        g = _glue(rng, g, h, delta)
    return g


def with_parallel_edge(rng: random.Random, g: Multigraph) -> Multigraph:
    """g plus one parallel copy of a random edge."""
    extra = rng.choice(g.edges)
    pairs = [(e.u, e.v) for e in g.edges] + [(extra.u, extra.v)]
    return Multigraph.from_edge_list(g.n, pairs)


def relabelled_text(rng: random.Random, g: Multigraph) -> str:
    """Edge-list text of g with random vertex labels and edge order."""
    lines = g.shuffled(rng).format().splitlines()
    body = lines[1:]
    rng.shuffle(body)
    return "\n".join([lines[0]] + body) + "\n"


def _corpus_graphs(workload: Workload, cycle: int, slot: int):
    """(glued, perturbed twin or None) for one stream position."""
    delta, n = workload.slots[slot]
    rng = random.Random(f"{workload.name}:corpus:{cycle}:{slot}")
    for _ in range(500):
        g = glued_graph(rng, delta, n)
        twin = with_parallel_edge(rng, g) if workload.perturbed else None
        if workload.edge_range is None:
            return g, twin
        low, high = workload.edge_range
        if low <= g.m and (twin or g).m <= high:
            return g, twin
    raise RuntimeError(f"no graph with edges in {workload.edge_range} at {delta}, {n}")


def build_stream(name: str, seed: int, cycles: int, directory: Path) -> list[dict]:
    """Write the stream's graph files into `directory` and return its ops.

    Each op is a dict with the CLI `argv` and what the checks need: the
    input `file`, the construction `delta`, and whether it is `perturbed`.
    A manifest of the ops is written next to the files.
    """
    workload = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    if name == "census":
        ops = [{"argv": list(CENSUS_ARGV)}]
    else:
        ops = []
        for cycle in range(cycles):
            for slot, (delta, _) in enumerate(workload.slots):
                g, twin = _corpus_graphs(workload, cycle, slot)
                for graph, perturbed in ((g, False), (twin, True)):
                    if graph is None:
                        continue
                    index = len(ops)
                    rng = random.Random(f"label:{seed}:{index}")
                    path = directory / f"g{index:05d}.txt"
                    path.write_text(relabelled_text(rng, graph), encoding="utf-8")
                    ops.append(
                        {
                            "argv": _argv(name, str(path), delta),
                            "file": str(path),
                            "delta": delta,
                            "perturbed": perturbed,
                        }
                    )
    (directory / "manifest.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")
    return ops


def _argv(name: str, path: str, delta: int) -> list[str]:
    if name == "decide":
        return ["check", path]
    if name == "oracle":
        return ["check", "--oracle", path]
    return ["decompose", path, "--delta", str(delta)]
