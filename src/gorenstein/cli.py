"""Command-line front end.

Thin adapters only: parse arguments and files, call the library, print
JSON (byte-deterministic: sorted keys, fixed separators) or DOT text.
`census` writes its JSON one graph record at a time, as each is made.

Exit codes:
- 0 success/verdict;
- 1 verification mismatch;
- 2 input error;
- 3 internal error: a crash, with its traceback on stderr.  Stdout then
  holds what was written before it, for `census` the records made so
  far, which is not a whole JSON document;
- 141 (128 + SIGPIPE) stdout closed by its reader, as in
  `gorenstein census | head`: the rest of the output is dropped, with no
  traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback

from . import matroid, polytope
from .census import (
    CensusBounds,
    census_record,
    enumerate_census,
    format_report,
    verify_classification,
    verify_equivalence,
)
from .constructions import (
    GluingSpec,
    decompose,
    delta_gluing,
    graph_from_json,
    trace_to_json,
)
from .criteria import is_gorenstein, weight_function
from .multigraph import Multigraph

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

# `facets` prints the V-representation, one 0/1 vector per spanning tree,
# so its output grows with the number of trees: a graph with more than
# this many (by the Matrix-Tree count) is refused with exit code 2.
FACETS_MAX_TREES = 100_000

# `glue` replaces the glued classes F1 and F2 by w(F1) + w(F2) - delta
# parallel edges, and an edge weighs at most delta - 1: a spec for which
# (|F1| + |F2|)(delta - 1) - delta exceeds this is refused with exit code 2
# before any edge is built.
GLUE_MAX_EDGES = 100_000


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2)`.

    The same bytes, over the types the CLI prints: dicts with str keys,
    lists, tuples, str, int, bool and None; anything else raises
    TypeError.  With an indent, `json` runs its pure-Python encoder, which
    is slower than this writer.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append obj's JSON to out; newline is a line break plus the indent."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in obj):
            # rows, edges and points: one join instead of a call per item
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _print_json(obj) -> None:
    print(_dumps(obj))


def _write_at(prefix: str, obj, newline: str) -> None:
    """Write prefix, then obj's JSON at the indent that newline carries."""
    out = [prefix]
    _write_json(obj, newline, out)
    sys.stdout.write("".join(out))


def _to_dot(graph: Multigraph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(graph.n))
    lines.extend(f"  {e.u} -- {e.v};" for e in graph.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_graph(graph: Multigraph, fmt: str) -> None:
    if fmt == "dot":
        sys.stdout.write(_to_dot(graph))
    else:
        sys.stdout.write(graph.format())


def _load_graph(path: str) -> Multigraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT) from exc
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text", file=sys.stderr)
        raise SystemExit(EXIT_INPUT) from exc
    return Multigraph.parse(text)


def _cmd_check(args) -> int:
    graph = _load_graph(args.file)
    if not graph.is_two_connected():
        _print_json({"gorenstein": False, "reason": "not 2-connected"})
        return EXIT_OK
    if args.oracle:
        point = polytope.gorenstein_oracle(graph)
        if point is None:
            _print_json({"gorenstein": False, "delta": None})
            return EXIT_OK
        _print_json(
            {
                "gorenstein": True,
                "delta": point.delta,
                "point": list(point.coordinates),
            }
        )
        return EXIT_OK
    verdict = is_gorenstein(graph)
    if verdict is None:
        _print_json({"gorenstein": False, "delta": None})
        return EXIT_OK
    delta, assignment = verdict
    _print_json(
        {
            "gorenstein": True,
            "delta": delta,
            "weights": {str(eid): w for eid, w in assignment.weights},
            "good_flats": [sorted(f.subset) for f in matroid.good_flats(graph)],
        }
    )
    return EXIT_OK


def _cmd_weights(args) -> int:
    graph = _load_graph(args.file)
    if not graph.is_two_connected():
        print("error: graph is not 2-connected", file=sys.stderr)
        return EXIT_INPUT
    assignment = weight_function(graph, args.delta)
    if assignment is None:
        print("none")
        return EXIT_OK
    _print_json(
        {"delta": args.delta, "weights": {str(eid): w for eid, w in assignment.weights}}
    )
    return EXIT_OK


def _cmd_facets(args) -> int:
    graph = _load_graph(args.file)
    if not graph.is_two_connected():
        print("error: graph is not 2-connected", file=sys.stderr)
        return EXIT_INPUT
    trees = graph.spanning_tree_count()
    if trees > FACETS_MAX_TREES:
        print(
            f"error: {trees} spanning trees; facets lists at most {FACETS_MAX_TREES}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    _print_json(polytope.polytope_to_json(polytope.build_polytope(graph)))
    return EXIT_OK


def _json_int(value, what: str) -> int:
    # JSON true/false load as bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _json_field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, not {obj!r}")
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def _json_ints(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"{what}s must be a list, not {values!r}")
    return [_json_int(v, what) for v in values]


def _gluing_spec(data) -> GluingSpec:
    """The gluing spec a `glue` file holds, every value type-checked.

    Vertex counts, endpoints, edge ids and delta must be JSON integers
    (booleans are not), each edge a pair of endpoints, and the optional
    `flip` a boolean; anything else raises ValueError naming the value.
    """
    where = "gluing spec"
    graphs = {}
    for side in ("left", "right"):
        obj = _json_field(data, side, where)
        _json_int(_json_field(obj, "vertices", side), f"{side} vertices")
        pairs = _json_field(obj, "edges", side)
        if not isinstance(pairs, list):
            raise ValueError(f"{side} edges must be a list, not {pairs!r}")
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{side} edge must be a vertex pair, not {pair!r}")
            _json_ints(pair, f"{side} edge endpoint")
        if obj.get("edge_ids") is not None:
            _json_ints(obj["edge_ids"], f"{side} edge id")
        graphs[side] = graph_from_json(obj)
    flip = data.get("flip", False)
    if not isinstance(flip, bool):
        raise ValueError(f"flip must be a boolean, not {flip!r}")
    return GluingSpec(
        left=graphs["left"],
        left_parallel_class=frozenset(
            _json_ints(_json_field(data, "left_class", where), "left_class edge id")
        ),
        right=graphs["right"],
        right_parallel_class=frozenset(
            _json_ints(_json_field(data, "right_class", where), "right_class edge id")
        ),
        delta=_json_int(_json_field(data, "delta", where), "delta"),
        flip=flip,
    )


def _cmd_glue(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: {args.spec}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError:
        print(f"error: {args.spec}: not UTF-8 text", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    spec = _gluing_spec(data)
    classes = len(spec.left_parallel_class) + len(spec.right_parallel_class)
    bound = classes * (spec.delta - 1) - spec.delta
    if bound > GLUE_MAX_EDGES:
        print(
            f"error: delta {spec.delta} allows {bound} replacement edges; "
            f"glue builds at most {GLUE_MAX_EDGES}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    result = delta_gluing(spec)
    _print_graph(result, args.format)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    graph = _load_graph(args.file)
    trace = decompose(graph, args.delta)
    if trace is None:
        print("none")
        return EXIT_OK
    _print_json(trace_to_json(trace))
    return EXIT_OK


def _bounds_from(args) -> CensusBounds:
    return CensusBounds(args.max_v, args.max_e, args.max_mult)


def _cmd_census(args) -> int:
    """`_print_json` of {"bounds", "graphs", "total"}, written as it is made.

    The keys sort as bounds < graphs < total, so each graph's record is
    written as soon as `census_record` returns it and the count is known
    when it is due; a census always holds K2, so the list is never empty.
    """
    bounds = _bounds_from(args)
    graphs = enumerate_census(bounds)
    _write_at('{\n  "bounds": ', dataclasses.asdict(bounds), "\n  ")
    sep = ',\n  "graphs": [\n    '
    for g in graphs:
        r = census_record(g)
        record = {
            # the orderly representative's lex-max matrix
            "canonical": [list(row) for row in g.multiplicity_matrix],
            "vertices": g.n,
            "edges": g.m,
            "delta": r.delta,
            "good_flats": r.good_flat_count,
            "facets": r.facet_count,
        }
        _write_at(sep, record, "\n    ")
        sep = ",\n    "
    sys.stdout.write(f'\n  ],\n  "total": {len(graphs)}\n}}\n')
    return EXIT_OK


def _cmd_verify(args) -> int:
    bounds = _bounds_from(args)
    if args.kind == "equivalence":
        report = verify_equivalence(bounds)
    else:
        report = verify_classification(args.delta, bounds)
    if args.table:
        sys.stdout.write(format_report(report))
    else:
        _print_json(report)
    return EXIT_OK if not report["mismatches"] else EXIT_MISMATCH


def _add_bounds(parser) -> None:
    defaults = CensusBounds()
    parser.add_argument("--max-v", type=int, default=defaults.max_vertices)
    parser.add_argument("--max-e", type=int, default=defaults.max_edges)
    parser.add_argument("--max-mult", type=int, default=defaults.max_multiplicity)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand's handler is `_cmd_<command>`, looked up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="gorenstein",
        description="Decide the Gorenstein property of 2-connected multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Gorenstein verdict for a graph file")
    p.add_argument("file")
    p.add_argument(
        "--oracle", action="store_true", help="use the polyhedral oracle instead"
    )

    p = sub.add_parser("weights", help="weight function at a dilation")
    p.add_argument("file")
    p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("facets", help="H-representation with reduced equations")
    p.add_argument("file")

    p = sub.add_parser("glue", help="apply a gluing spec (JSON file)")
    p.add_argument("spec")
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")

    p = sub.add_parser("decompose", help="construction trace from the seed")
    p.add_argument("file")
    p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("census", help="enumerate the census with verdicts")
    _add_bounds(p)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("kind", choices=("equivalence", "classification"))
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--table", action="store_true", help="human-readable output")
    _add_bounds(p)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except ValueError as exc:  # GraphParseError and GluingError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull
        # (the Python docs' "Note on SIGPIPE") and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    except Exception:  # a bug, not bad input; exit 1 stays the mismatch code
        traceback.print_exc()
        code = EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    main()
