"""Check one episode's outputs against independent evidence.

Runs in its own interpreter after the episode, so the checks neither warm
the episode's caches nor add to its peak memory.  Prints one JSON list of
failures, each {"op": index, "why": text}.

    python3 perfbench/check.py --workload decide --manifest M --results R
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from gorenstein import (
    Multigraph,
    check_heart,
    gorenstein_oracle,
    is_gorenstein,
    replay,
    trace_from_json,
    weight_function,
)

CENSUS_TOTAL = 134
# sha256 of `census --max-v 6 --max-e 8 --max-mult 4` stdout (70651 bytes)
CENSUS_SHA256 = "85ff1781c2c632bed36dc74b24c63be5979d16afb2acd55d88bb320e2b1a98d9"
# the oracle second-decides perturbed graphs up to this many edges
ORACLE_MAX_EDGES = 14


def _load(op: dict) -> Multigraph:
    return Multigraph.parse(Path(op["file"]).read_text(encoding="utf-8"))


def heart_delta(graph: Multigraph) -> int | None:
    """The dilation at which the heart criterion holds, scanning 2..m+1.

    The heart equality at S = V reads w(E) = delta (|V| - 1), so only a
    dilation meeting it needs the pass over all 2-connected subsets.
    """
    for delta in range(2, max(graph.m, 3) + 2):
        assignment = weight_function(graph, delta)
        if assignment is None:
            return None  # edge kinds do not depend on delta
        if assignment.total() == delta * (graph.n - 1) and check_heart(graph, assignment):
            return delta
    return None


def _reported_delta(stdout: str) -> int | None:
    data = json.loads(stdout)
    return data["delta"] if data["gorenstein"] else None


def check_census(op: dict, stdout: str) -> str | None:
    if json.loads(stdout)["total"] != CENSUS_TOTAL:
        return f"census total is not {CENSUS_TOTAL}"
    if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != CENSUS_SHA256:
        return "census stdout digest differs from the recorded one"
    return None


def check_decide(op: dict, stdout: str) -> str | None:
    got = _reported_delta(stdout)
    if not op["perturbed"]:
        want = op["delta"]
    else:
        graph = _load(op)
        if graph.m <= ORACLE_MAX_EDGES:
            point = gorenstein_oracle(graph)
            want = None if point is None else point.delta
        else:
            want = heart_delta(graph)
    return None if got == want else f"delta {got}, expected {want}"


def check_oracle(op: dict, stdout: str) -> str | None:
    got = _reported_delta(stdout)
    verdict = is_gorenstein(_load(op))
    want = None if verdict is None else verdict[0]
    if got != want:
        return f"oracle delta {got}, is_gorenstein delta {want}"
    if not op["perturbed"] and got != op["delta"]:
        return f"delta {got}, construction delta {op['delta']}"
    return None


def check_decompose(op: dict, stdout: str) -> str | None:
    if stdout.strip() == "none":
        return "no construction trace found"
    trace = trace_from_json(json.loads(stdout))
    if trace.delta != op["delta"]:
        return f"trace delta {trace.delta}, expected {op['delta']}"
    if replay(trace).canonical_form != _load(op).canonical_form:
        return "trace does not replay to the input"
    return None


CHECKS = {
    "census": check_census,
    "decide": check_decide,
    "oracle": check_oracle,
    "decompose": check_decompose,
}


def failures(workload: str, ops: list[dict], results: list[dict]) -> list[dict]:
    out = []
    check = CHECKS[workload]
    for i, (op, res) in enumerate(zip(ops, results)):
        if res["error"] is not None:
            why = "raised: " + res["error"].strip().splitlines()[-1]
        elif res["rc"] != 0:
            why = f"exit code {res['rc']}"
        else:
            try:
                why = check(op, res["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                why = f"unreadable output: {exc!r}"
        if why is not None:
            out.append({"op": i, "why": why})
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--results", type=Path, required=True)
    args = parser.parse_args()
    ops = json.loads(args.manifest.read_text(encoding="utf-8"))
    results = json.loads(args.results.read_text(encoding="utf-8"))["ops"]
    print(json.dumps(failures(args.workload, ops, results)))


if __name__ == "__main__":
    main()
