"""Speed gauges: fixed work, outside the library, that tracks how fast the machine runs.

On a shared host the same code can run 1.5 times slower for tens of
seconds at a time, because other tenants contend for the same cores.
The benchmark times a gauge next to its operations, in the same process
and between the timed calls, and reports every time scaled to a machine
on which one pass of the gauge takes its reference time:

    reported = measured * REFERENCE_NS[kind] / gauge

where ``gauge`` is the median pass over the same cycle of operations (or,
for set-up, right before the process is started).  Each measurement uses
the gauge whose work is closest to its own:

* ``loop``, for the workloads that run in process: an integer loop and a
  ``Fraction`` loop, the interpreter work and the small-object work the
  library's layers are made of.  On the host the benchmark was written
  on, the pair tracked both the geometric and the combinatorial
  workloads' slow phases better than either loop alone.
* ``start``, for ``cli``, whose every operation is a new interpreter, and
  for every workload's set-up, which starts one: one start of a bare
  interpreter that runs nothing.

A gauge calls no library code, so a change to the library moves the
reported times exactly as it moves the measured ones; the raw times are
printed beside them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# One pass's time, in ns, on the 2-vCPU x86_64 machine (Python 3.11) the
# benchmark was written on, in its fast phases.
REFERENCE_NS = {"loop": 2_000_000, "start": 55_000_000}
KIND = {"geometric": "loop", "combinatorial": "loop", "classical": "loop", "cli": "start"}


def loop_ns() -> int:
    """Time one pass of the loop gauge."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i
    fraction = Fraction(0)
    for i in range(1, 300):
        fraction += Fraction(i, i + 1)
    return time.perf_counter_ns() - start


def start_ns() -> int:
    """Time one start of a bare interpreter."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter_ns() - start


def measure(kind: str) -> int:
    return start_ns() if kind == "start" else loop_ns()


def scale(kind: str, gauge_ns: list[int]) -> float:
    """Factor that turns times measured beside ``gauge_ns`` into reference times."""
    return REFERENCE_NS[kind] / statistics.median(gauge_ns)
