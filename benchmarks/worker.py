"""One workload process: set up, say READY, run whole cycles, report.

The launcher (``run.py``) starts this file in a fresh interpreter and
times it from process start to the READY line; that is one set-up
sample.  With ``--mode setup`` the worker stops there.  Otherwise it
runs cycles of operations in a closed loop with one caller, checks each
result against its expected value, times a speed gauge (``gauge.py``)
after each operation, and prints one JSON line.
"""

from __future__ import annotations

import time

IMPORT_START = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import reprlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import haefliger  # noqa: E402

IMPORT_END = time.perf_counter_ns()

import numpy  # noqa: E402

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class _Corrupted:
    """Stands in for an expected value in the self-test; equals nothing."""

    def __eq__(self, other) -> bool:
        return False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--first-cycle", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=0, help="stop after this many (0: no limit)")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of operations")
    parser.add_argument("--min-cycles", type=int, default=0)
    parser.add_argument("--trace", help="write spans to this file")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="give the first operation a wrong expected value")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(haefliger.__file__).resolve().parents:
        print(f"worker: haefliger was imported from {haefliger.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workdir = ROOT / "benchmarks" / "out" / f"files-{args.workload}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workload = workloads.build(args.workload, args.seed, args.tiny, workdir)
    workload.warmup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.record_import(f"setup:{args.first_cycle}", IMPORT_START, IMPORT_END)
        tracer.install()
        workload.tracer = tracer

    latencies: list[int] = []
    gauge_ns: list[int] = []
    gauge_kind = gauge.KIND[args.workload]
    errors: list[str] = []
    failed = 0
    cycles = 0
    while True:
        index = args.first_cycle + cycles
        ops = workload.cycle(index)
        if args.corrupt and cycles == 0:
            ops = [replace(ops[0], expected=_Corrupted()), *ops[1:]]
        for position, op in enumerate(ops):
            try:
                if tracer:
                    start = time.perf_counter_ns()
                    result = tracer.run_op(f"{index}:{position}", op.kind, op.call)
                else:
                    start = time.perf_counter_ns()
                    result = op.call()
                end = time.perf_counter_ns()
                ok = op.check(result, op.expected)
                problem = None if ok else f"{op.kind}: got {reprlib.repr(result)}"
            except Exception as exc:  # an operation that raises counts as failed
                end = time.perf_counter_ns()
                problem = f"{op.kind}: {type(exc).__name__}: {exc}"
            latencies.append(end - start)
            gauge_ns.append(gauge.measure(gauge_kind))
            if problem:
                failed += 1
                if len(errors) < 5:
                    errors.append(problem[:300])
        cycles += 1
        if args.cycles and cycles >= args.cycles:
            break
        if not args.cycles and sum(latencies) / 1e9 >= args.budget and cycles >= args.min_cycles:
            break

    if tracer:
        tracer.dump(args.trace)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "latency_ns": latencies,
        "gauge_ns": gauge_ns,
        "failed": failed,
        "errors": errors,
        "cycles": cycles,
        "cycle_ops": len(ops),
        "peak_rss_mb": usage / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
