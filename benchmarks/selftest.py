"""Self-test of the benchmark itself; about a minute.

    python3 benchmarks/selftest.py

For every workload in BENCHMARK.json it makes a tiny untraced run and a
tiny traced run and checks that each reports exactly the metrics, with
the units, that BENCHMARK.json lists, with every operation correct.  It
then gives one operation a wrong expected value and checks that the run
reports a failure.  Last, it copies BENCHMARK.json and this directory
without the library beside them and checks that the benchmark refuses
to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: Path, workload: str, *flags: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", *flags]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    declared = {name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != listed:
        problems.append(f"tracing.PER_LAYER and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(declared.items()) ^ set(listed.items()))}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = _run(ROOT, workload, "--tiny", "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or set(result) != RESULT_KEYS:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json")
            print(f"ok   {label}: {result['attempted']} operations", flush=True)
        code, result = _run(ROOT, workload, "--tiny", "--corrupt")
        if code != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a corrupted expected value went unnoticed: {result}")
        else:
            print(f"ok   {workload}: corrupted expected value gives fail_ratio "
                  f"{result['failed']}/{result['attempted']}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = _run(bare, spec["workloads"][0]["name"], "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"without the library the benchmark exited {code} with {result}")
    else:
        print(f"ok   without the library the benchmark exits {code} and prints no result")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
