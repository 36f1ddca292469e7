"""Benchmark launcher: one workload, one seed, one JSON line of metrics.

    python3 benchmarks/run.py --workload geometric --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; it runs the library in ``src/``.
Every workload is a closed loop with one caller.  Each worker is a fresh
interpreter with BLAS/OpenMP threads capped at ``nproc``.

Every time is reported on the scale of ``gauge.py``: each cycle's
latencies, and each set-up sample, are scaled by how fast fixed work
timed beside them ran, so that a shared host's changing speed does not
move the metrics.  The unscaled values are printed on the summary lines.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median, over every worker started, of the time from
  process start until imports, inputs and warm-up are done;
* ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: from the run's typical
  cycle.  Every cycle of a workload runs the same positions (the same
  kind and size of operation in the same order), and a position's
  typical latency is its median over the run's cycles, so neither a
  stall that slows a few cycles nor one costly input (the oracle's cost
  varies tenfold between braids of one crossing count) moves a metric.
  ``ops_per_s`` is the number of positions over the sum of their
  typical latencies (one caller, no think time; the benchmark's own
  result checks and gauge passes are not counted); the percentiles are
  nearest-rank over the typical latencies.  A run has at least
  MIN_CYCLES cycles, so that ten or more samples lie beyond p90;
* ``peak_rss_mb``: peak resident memory of a worker and the processes it
  waited for, the median over the run's workers.

``fail_ratio`` (failed / attempted) is printed on the summary lines and
carried by the ``failed`` and ``attempted`` fields of the JSON line; it
is not a metric because at a correct commit it is 0.

``--trace 1`` runs about half the time with every layer wrapped in spans
(``tracing.py``), replays the same cycles untraced to get the tracing
overhead, and reports the per-layer metrics.

Lines before the last one are a human-readable summary starting with
``#``; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("geometric", "combinatorial", "classical", "cli")
# The classical oracle caches for the life of the process; each of its
# cycles, a session of knots, gets a fresh one (see workloads.Classical).
FRESH_PROCESS_PER_CYCLE = {"classical"}
MIN_CYCLES = 10
SETUP_PROBES = 3
GAUGE_PASSES = 3
RUN_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = _nproc()
    for name in THREAD_VARIABLES:
        current = env.get(name, "")
        env[name] = str(min(int(current), cap)) if current.isdigit() and int(current) > 0 else str(cap)
    return env


class Launcher:
    def __init__(self, args) -> None:
        self.args = args
        self.env = _child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setup_samples: list[float] = []
        self.setup_raw: list[float] = []

    def spawn(self, mode: str, *extra: str) -> dict | None:
        """Start a worker, time it until READY, and return its JSON result."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        factor = gauge.scale("start", [gauge.start_ns() for _ in range(GAUGE_PASSES)])
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            head = b""
            while b"\n" not in head:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                    raise BenchError("worker did not finish set-up in time")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                head += chunk
            ready, _, rest = head.partition(b"\n")
            if ready != b"READY":
                proc.wait(timeout=10)
                raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
            self.setup_raw.append(time.perf_counter() - start)
            self.setup_samples.append(self.setup_raw[-1] * factor)
            out, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker did not finish in time") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        lines = (rest + out).decode().strip().splitlines()
        return json.loads(lines[-1]) if mode == "run" else None

    def run_cycles(self, budget: float, min_cycles: int, trace_dir: Path | None = None,
                   replay: list[int] | None = None) -> list[dict]:
        """Run whole cycles until ``budget`` seconds of operations and
        ``min_cycles`` cycles are done, or exactly ``replay`` cycles."""
        fresh = self.args.workload in FRESH_PROCESS_PER_CYCLE
        results: list[dict] = []
        cycle = 0

        def spent() -> tuple[float, int]:
            return sum(sum(r["latency_ns"]) for r in results) / 1e9, cycle

        while True:
            extra = ["--first-cycle", str(cycle)]
            if replay is not None:
                extra += ["--cycles", str(replay[len(results)])]
            elif self.args.tiny or fresh:
                extra += ["--cycles", "1"]
            else:
                extra += ["--budget", repr(budget), "--min-cycles", str(min_cycles)]
            if trace_dir is not None:
                extra += ["--trace", str(trace_dir / f"spans-{cycle}.json")]
            if self.args.corrupt and not results:
                extra.append("--corrupt")
            result = self.spawn("run", *extra)
            results.append(result)
            cycle += result["cycles"]
            seconds, cycles = spent()
            if replay is not None:
                if len(results) == len(replay):
                    return results
            elif self.args.tiny or (seconds >= budget and cycles >= min_cycles):
                return results


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _typical_cycle(kind: str, results: list[dict], scaled: bool = True) -> list[float]:
    """Median latency in ms of each position of the cycle over all cycles
    run, each cycle scaled by its own gauge passes unless ``scaled`` is off."""
    rows = []
    for r in results:
        lat, gauge_ns, width = r["latency_ns"], r["gauge_ns"], r["cycle_ops"]
        for i in range(0, len(lat), width):
            factor = gauge.scale(kind, gauge_ns[i:i + width]) if scaled else 1.0
            rows.append([x * factor / 1e6 for x in lat[i:i + width]])
    if len({len(row) for row in rows}) != 1:
        raise BenchError("cycles of one run differ in length")
    return [statistics.median(column) for column in zip(*rows)]


def _timings(typical: list[float]) -> dict[str, float]:
    ordered = sorted(typical)
    return {
        "ops_per_s": len(typical) / (sum(typical) / 1e3),
        "op_p50_ms": _percentile(ordered, 0.5),
        "op_p90_ms": _percentile(ordered, 0.9),
    }


def _summary(results: list[dict]) -> tuple[list[int], int, list[str]]:
    latencies = [x for r in results for x in r["latency_ns"]]
    failed = sum(r["failed"] for r in results)
    errors = [f"# failure: {e}" for r in results for e in r["errors"]][:5]
    return latencies, failed, errors


def timed_run(launcher: Launcher, args):
    """End-to-end metrics; returns (values, units, results, attempted, failed, lines)."""
    for _ in range(0 if args.tiny else SETUP_PROBES):
        launcher.spawn("setup")
    results = launcher.run_cycles(args.seconds, 0 if args.tiny else MIN_CYCLES)
    latencies, failed, errors = _summary(results)
    cycles = sum(r["cycles"] for r in results)
    kind = gauge.KIND[args.workload]
    typical = _typical_cycle(kind, results)
    timings = _timings(typical)
    raw = _timings(_typical_cycle(kind, results, scaled=False))
    gauge_ms = statistics.median(x for r in results for x in r["gauge_ns"]) / 1e6
    values = {
        "setup_s": statistics.median(launcher.setup_samples),
        **timings,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    lines = [
        f"# {args.workload}: {len(latencies)} operations in {cycles} cycles of "
        f"{len(typical)}, {cycles * sum(x > timings['op_p90_ms'] for x in typical)} samples "
        f"beyond p90, {len(results)} timed worker(s), {len(launcher.setup_samples)} set-up "
        f"samples",
        f"# fail_ratio {failed / len(latencies):.6g} ({failed}/{len(latencies)})",
        f"# unscaled: setup_s {statistics.median(launcher.setup_raw):.6g}, "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        + f"; {kind} gauge pass median {gauge_ms:.6g} ms "
        f"(reference {gauge.REFERENCE_NS[kind] / 1e6:g} ms)",
        *errors,
    ]
    return values, END_TO_END_UNITS, results, len(latencies), failed, lines


def traced_run(launcher: Launcher, args):
    """Per-layer metrics; an operation whose spans do not nest counts as failed."""
    trace_dir = HERE / "out" / f"trace-{args.workload}-{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced = launcher.run_cycles(args.seconds / 2, 0, trace_dir=trace_dir)
    replay = launcher.run_cycles(0, 0, replay=[r["cycles"] for r in traced])
    traced_ns = sum(sum(r["latency_ns"]) for r in traced)
    plain_ns = sum(sum(r["latency_ns"]) for r in replay)
    spans = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    bad_ops = tracing.nesting_problems(spans)
    values = tracing.layer_metrics(spans, (traced_ns - plain_ns) / plain_ns)
    latencies, failed, errors = _summary(traced + replay)
    lines = [
        f"# {args.workload} traced: {sum(len(r['latency_ns']) for r in traced)} operations, "
        f"{len(spans)} spans written to {trace_dir.relative_to(ROOT)}",
        f"# operations whose spans do not nest or add up to their wall time: {bad_ops}",
        f"# fail_ratio {failed / len(latencies):.6g} ({failed}/{len(latencies)})",
        *errors,
        *(f"# {name} should move {moves}" for name, (_, _, moves) in tracing.PER_LAYER.items()),
    ]
    units = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    return values, units, traced, len(latencies), failed + bad_ops, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one cycle (used by the self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="give one operation a wrong expected value (self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "haefliger" / "__init__.py").is_file():
        print(f"run.py: no library source at {ROOT / 'src' / 'haefliger'}", file=sys.stderr)
        return 2

    launcher = Launcher(args)
    try:
        run = traced_run if args.trace else timed_run
        values, units, results, attempted, failed, lines = run(launcher, args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(f"# machine {platform.machine()} {platform.platform()}; python "
          f"{results[0]['python']}; numpy {results[0]['numpy']}; nproc {_nproc()}; "
          f"workload {args.workload}; seed {args.seed}; seconds {args.seconds:g}; "
          f"trace {args.trace}")
    print("\n".join(lines))
    for name, value in values.items():
        print(f"# metric {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
