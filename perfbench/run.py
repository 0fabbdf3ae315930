"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Every episode runs in a fresh interpreter (child.py), so the library's
caches start cold as in a CLI call and peak memory belongs to one run.
Outputs are checked afterwards in another interpreter (check.py).

A run is a fixed amount of work: whole stream cycles, as many as take
--seconds on the reference host (CYCLE_SECONDS) when run REPEATS times,
so every seed and every commit runs the same slot mix.  A faster program
finishes sooner.

--trace 0 prints the end-to-end metrics.  Set-up is timed in several
interpreters and reported as the median.  The stream then runs closed-loop
REPEATS times, each in a fresh interpreter.  The host's speed drifts by
up to 1.6x within minutes, so times are scaled to the reference host's
speed.  The child times a fixed kernel every 0.1 s during the stream,
inside long ops too; each op is scaled by the mean of CAL_REF_NS / kernel
time over the samples taken during it or within SPEED_WINDOW_NS of it, and
keeps the fastest of its scaled latencies.  The table also prints the
unscaled figures.  The first run's outputs are checked; the others must match
them byte for byte.

--trace 1 runs the first TRACE_CYCLES cycles with spans recorded around
the library's public functions, then the same cycles untraced, and prints
the per-layer metrics plus the tracing overhead (host-speed scaled).

The last stdout line is one JSON object: correct, attempted, failed and
metrics, the metric names being those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
REPEATS = 2  # cold runs of the same stream; each op counts its fastest
# untraced seconds per stream cycle (census: per call) on a 2-vCPU Xeon VM
CYCLE_SECONDS = {"census": 7.7, "decide": 4.3, "oracle": 3.6, "decompose": 2.6}
TRACE_CYCLES = {"census": 1, "decide": 1, "oracle": 2, "decompose": 2}
DEADLINE_S = 170.0
CAL_REF_NS = 1_230_000  # calibration kernel time on the reference host
SPEED_WINDOW_NS = 500_000_000  # samples this close to an op count for its speed


class BenchError(Exception):
    pass


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return math.exp(log_front) * f / a


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of the order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    law.  Per-op times on a shared host swing by up to 2x in bursts; this
    estimator averages the ranks around q instead of reading one of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = HERE / ".work" / workload
        self.inputs = self.work / "inputs"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("GORENSTEIN_DELTA_MAX", None)
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def episode(self, tag: str, cycles: int, *extra: str) -> tuple[float, dict | None]:
        """Spawn child.py; return its set-up seconds and its results."""
        results = self.work / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--cycles", str(cycles), "--workdir", str(self.inputs),
            "--results", str(results), *extra,
        ]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], self._left())
                line = proc.stdout.readline() if ready else ""
                setup_s = time.perf_counter() - start
                if line.strip() != "READY":
                    raise BenchError(f"{tag}: child failed during set-up")
                proc.wait(timeout=self._left())
            except (BenchError, subprocess.TimeoutExpired) as exc:
                proc.kill()
                proc.wait()
                raise BenchError(f"{tag}: {exc}") from None
        if proc.returncode != 0:
            raise BenchError(f"{tag}: child exited with {proc.returncode}")
        if "--setup-only" in extra:
            return setup_s, None
        return setup_s, json.loads(results.read_text(encoding="utf-8"))

    def failures(self, tag: str) -> list[dict]:
        cmd = [
            sys.executable, str(HERE / "check.py"), "--workload", self.workload,
            "--manifest", str(self.inputs / "manifest.json"),
            "--results", str(self.work / f"{tag}.json"),
        ]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=self._left(), check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: checks ran out of time") from None
        if done.returncode != 0:
            raise BenchError(f"{tag}: checks exited with {done.returncode}")
        return json.loads(done.stdout)

    def graphs(self, op: dict) -> int:
        """Graphs one op completed: the census total, else one graph."""
        if self.workload != "census":
            return 1
        try:
            return json.loads(op["stdout"])["total"]
        except (ValueError, KeyError, TypeError):
            return 0  # check.py reports the op as failed

    def end_to_end(self) -> tuple[dict, int, list[dict]]:
        """Metrics scaled to the reference host's speed, with the unscaled
        value of each as a third tuple field for the table."""
        cycles = max(1, math.ceil(self.seconds / (REPEATS * CYCLE_SECONDS[self.workload])))
        setups = [
            self.episode(f"setup{i}", cycles, "--setup-only")[0]
            for i in range(SETUP_SAMPLES - REPEATS)
        ]
        runs = []
        for i in range(REPEATS):
            setup_s, results = self.episode(f"run{i}", cycles)
            setups.append(setup_s)
            runs.append(results)
        ops = runs[0]["ops"]
        failed = self.failures("run0") + _differences(runs)
        speeds = [_op_speeds(r) for r in runs]
        scaled = self._times(runs, setups, speeds)
        raw = self._times(runs, setups, [[1.0] * len(ops) for _ in runs])
        metrics = {name: (value, unit, raw[name][0]) for name, (value, unit) in scaled.items()}
        metrics["peak_rss_mb"] = (max(r["peak_rss_kb"] for r in runs) / 1024, "MB", None)
        return metrics, len(ops), failed

    def _times(self, runs: list[dict], setups: list[float], speeds: list[list[float]]) -> dict:
        """Time metrics with each op's time multiplied by the host's speed
        around it; each op keeps its fastest run.  Set-up is scaled by the
        median over runs of the mean op speed."""
        ops = runs[0]["ops"]
        latency_ms = [
            min(r["ops"][i]["latency_ns"] * v[i] for r, v in zip(runs, speeds)) / 1e6
            for i in range(len(ops))
        ]
        run_speeds = [statistics.fmean(v) for v in speeds]
        return {
            "setup_s": (statistics.median(setups) * statistics.median(run_speeds), "s"),
            "graphs_per_s": (sum(map(self.graphs, ops)) / (sum(latency_ms) / 1e3), "1/s"),
            "graph_p50_ms": (quantile(latency_ms, 0.5), "ms"),
            "graph_p90_ms": (quantile(latency_ms, 0.9), "ms"),
        }

    def per_layer(self) -> tuple[dict, int, list[dict]]:
        cycles = TRACE_CYCLES[self.workload]
        prefix = self.work / "spans"
        _, traced = self.episode("traced", cycles, "--trace", str(prefix))
        failed = self.failures("traced")
        _, untraced = self.episode("untraced", cycles)
        failed += _differences([traced, untraced])
        header, columns = spans.load(prefix)
        stdout_bytes = sum(len(op["stdout"].encode("utf-8")) for op in traced["ops"])
        values = spans.layer_metrics(header, columns, stdout_bytes)
        graphs = sum(map(self.graphs, traced["ops"]))
        traced_s = _scaled_s(traced)
        untraced_s = _scaled_s(untraced)
        values["trace.graphs_per_s"] = graphs / traced_s
        values["trace.untraced_graphs_per_s"] = graphs / untraced_s
        values["trace.slowdown"] = traced_s / untraced_s
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
        metrics = {name: (values[name], unit, None) for name, unit in units.items()}
        return metrics, len(traced["ops"]), failed


def _speed(samples: list[list[int]]) -> float:
    """The host's speed relative to the reference host, over kernel samples
    taken at even time steps: the mean of the speeds, so that it weighs
    each stretch of time alike and a sample stalled by preemption counts
    for one slow stretch only."""
    return statistics.fmean(CAL_REF_NS / d for _, d in samples)


def _op_speeds(run: dict) -> list[float]:
    """Each op's host speed, from the samples within SPEED_WINDOW_NS of it;
    the episode's speed if there are none."""
    samples = run["samples"]
    whole = _speed(samples)
    speeds = []
    for op in run["ops"]:
        lo, hi = op["start_ns"] - SPEED_WINDOW_NS, op["end_ns"] + SPEED_WINDOW_NS
        near = [x for x in samples if lo <= x[0] < hi]
        speeds.append(_speed(near) if near else whole)
    return speeds


def _scaled_s(run: dict) -> float:
    """The episode's op time in seconds at the reference host's speed."""
    return sum(op["latency_ns"] * v for op, v in zip(run["ops"], _op_speeds(run))) / 1e9


def _differences(runs: list[dict]) -> list[dict]:
    """Ops whose outcome in a later run differs from the first run's."""
    def outcome(op):
        return op["rc"], op["stdout"], op["error"] is None

    return [
        {"op": i, "why": "outputs differ between runs of the same stream"}
        for i, op in enumerate(runs[0]["ops"])
        if any(outcome(r["ops"][i]) != outcome(op) for r in runs[1:])
    ]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gorenstein" / "__init__.py").is_file():
        print(f"error: no gorenstein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.inputs.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed = runner.per_layer()
        else:
            metrics, attempted, failed = runner.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for f in failed:
        print(f"FAILED {f}")
    n_failed = len({f["op"] for f in failed})
    print(f"{args.workload} seed={args.seed}: {n_failed} of {attempted} ops failed")
    rows = [*metrics.items(), ("fail_frac", (n_failed / attempted, "ratio", None))]
    for name, (value, unit, raw) in rows:
        unscaled = "" if raw is None else f"  (unscaled {raw:.6f})"
        print(f"  {name:40s} {value:16.6f} {unit}{unscaled}")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
