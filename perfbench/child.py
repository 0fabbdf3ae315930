"""One benchmark episode in a fresh interpreter.

Set-up (interpreter start, imports, writing the seeded input files) ends
when this process prints READY.  Then it runs the whole stream closed-loop,
one `gorenstein.cli.run` call at a time with stdout captured, and writes
the per-op results as JSON.  While the stream runs, an interval timer
times a fixed calibration kernel every SAMPLE_INTERVAL_S, which tracks the
host's speed during the ops themselves; each op's latency excludes the
kernel runs that fell inside it.  Every op and sample keeps its start time,
so the runner can scale each op by the speed measured around it.
With --trace it records spans around the library's public functions and
writes them out at the end.

    python3 perfbench/child.py --workload decide --seed 1 --cycles 5 \
        --workdir perfbench/.work/decide/inputs --results out.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import time
import traceback
from pathlib import Path

from gorenstein import cli

import streams
from spans import Tracer


SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 20
_N = 8
_ADJ = [((i - 1) % _N, (i + 1) % _N, (i + 3) % _N) for i in range(_N)]


def _calibration_ns() -> int:
    """Time a fixed pure-Python kernel, independent of the library:
    connectivity of every vertex subset of an 8-vertex circulant graph.
    The collector is off so the program's heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for mask in range(1, 1 << _N):
            verts = frozenset(v for v in range(_N) if mask >> v & 1)
            seen = {min(verts)}
            stack = list(seen)
            while stack:
                for w in _ADJ[stack.pop()]:
                    if w in verts and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the calibration kernel from a SIGALRM handler, so the samples
    are spread over the stream in proportion to time, long ops included.
    Each sample is kept as (start, duration) in perf_counter_ns."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append((start, _calibration_ns()))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_ns(self, t0: int, t1: int) -> int:
        """Kernel time of the samples that started within [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)


def _run_op(argv: list[str], sampler: Sampler) -> dict:
    out = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.run(argv)
        except (Exception, SystemExit):  # a crashing op is a counted failure
            error = traceback.format_exc()
        t1 = time.perf_counter_ns()
    latency_ns = t1 - t0 - sampler.spent_ns(t0, t1)
    return {
        "start_ns": t0, "end_ns": t1, "latency_ns": latency_ns,
        "rc": rc, "stdout": out.getvalue(), "error": error,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(streams.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--results", type=Path, required=True)
    parser.add_argument("--trace", type=Path, help="record spans, write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = streams.build_stream(args.workload, args.seed, args.cycles, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    results = []
    with Sampler() as sampler:
        for i, op in enumerate(ops):
            if tracer:
                tracer.graph_id = i
            results.append(_run_op(op["argv"], sampler))
    samples = sampler.samples
    while len(samples) < MIN_SAMPLES:
        samples.append((time.perf_counter_ns(), _calibration_ns()))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(args.trace)
    args.results.write_text(
        json.dumps({"ops": results, "peak_rss_kb": peak_rss_kb, "samples": samples}),
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
