"""Spans around the library's layers, recorded from outside the library.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that records a span, and replaces every other module's
reference to it too (``generator.linking_number_pl``,
``calculus.validate_diagram`` and so on), so spans nest as the calls do.
Spans stay in memory and are written out when the worker ends.  A span
is ``[op, id, parent, layer, name, start_ns, end_ns, error, attrs]``;
spans of one operation share ``op``.

``layer_metrics`` turns a span dump into the per-layer metrics.  Every
``busy_s`` is self time: a span's duration minus its child spans'.
``nesting_problems`` checks that children lie inside their parents and
that the self times of each operation add up to its traced wall time.

This module does not import the library: the launcher uses the
aggregation half without loading it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("linking", "generator", "diagram", "calculus", "classical")
# Public helpers the diagram layer calls once per entry inside its own
# loops; wrapping them would trace tens of thousands of calls per query.
PER_ENTRY_HELPERS = {"pair_key", "lift_lt"}
ORACLE_ENTRIES = {"conway_a2_oracle", "conway_polynomial"}

# Per-layer metric -> (unit, better, the end-to-end metric it should move
# on which workload).
PER_LAYER = {
    "linking.calls": ("count", "higher", "ops_per_s, op_p90_ms on geometric"),
    "linking.busy_s": ("s", "lower", "ops_per_s, op_p90_ms on geometric"),
    "linking.segment_pairs": ("count", "higher", "ops_per_s, op_p90_ms on geometric"),
    "linking.axis_retries": ("count", "lower", "ops_per_s, op_p90_ms on geometric"),
    "linking.success_ratio": ("ratio", "higher", "ops_per_s, op_p90_ms on geometric"),
    "linking.failed": ("count", "lower", "ops_per_s, op_p90_ms on geometric"),
    "generator.calls": ("count", "higher", "op_p50_ms on geometric"),
    "generator.busy_s": ("s", "lower", "op_p50_ms on geometric"),
    "generator.failed": ("count", "lower", "op_p50_ms on geometric"),
    "diagram.calls": ("count", "higher", "ops_per_s, op_p90_ms, setup_s on combinatorial"),
    "diagram.busy_s": ("s", "lower", "ops_per_s, op_p90_ms, setup_s on combinatorial"),
    "diagram.entries": ("count", "higher", "ops_per_s, op_p90_ms, setup_s on combinatorial"),
    "diagram.failed": ("count", "lower", "ops_per_s, op_p90_ms on combinatorial"),
    "calculus.calls": ("count", "higher", "ops_per_s, op_p90_ms on combinatorial"),
    "calculus.busy_s": ("s", "lower", "ops_per_s, op_p90_ms on combinatorial"),
    "calculus.entries_in": ("count", "higher", "ops_per_s, op_p90_ms on combinatorial"),
    "calculus.subsets": ("count", "higher", "ops_per_s, op_p90_ms on combinatorial"),
    "calculus.failed": ("count", "lower", "ops_per_s, op_p90_ms on combinatorial"),
    "classical.calls": ("count", "higher", "ops_per_s, op_p90_ms, peak_rss_mb on classical"),
    "classical.busy_s": ("s", "lower", "ops_per_s, op_p90_ms on classical"),
    "classical.v2_busy_s": ("s", "lower", "ops_per_s on classical"),
    "classical.oracle_busy_s": ("s", "lower", "ops_per_s, op_p90_ms, peak_rss_mb on classical"),
    "classical.crossings": ("count", "higher", "ops_per_s, op_p90_ms on classical"),
    "classical.failed": ("count", "lower", "ops_per_s, op_p90_ms on classical"),
    "import.busy_s": ("s", "lower", "op_p50_ms on cli; setup_s on every workload"),
    "import.failed": ("count", "lower", "op_p50_ms on cli; setup_s on every workload"),
    "cli.calls": ("count", "higher", "op_p50_ms on cli"),
    "cli.busy_s": ("s", "lower", "op_p50_ms on cli"),
    "cli.failed": ("count", "lower", "op_p50_ms on cli"),
    "trace.overhead_ratio": ("ratio", "lower", "none: the cost of tracing itself"),
}


def _entries(d) -> int:
    return len(d.lk) + len(d.writhe)


def _attrs(layer: str, name: str, args: tuple, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if layer == "linking":
        if name == "linking_number_pl":
            return {"segment_pairs": len(args[0]) * len(args[1])}
        if name == "writhe_pl":
            return {"segment_pairs": len(args[0]) ** 2}
        return {}
    if layer == "classical":
        return {"crossings": result.n} if name == "parse_gauss_code" and result else {}
    if layer not in ("diagram", "calculus"):
        return {}
    if layer == "diagram" and hasattr(result, "lk"):
        return {"entries": _entries(result)}
    d = next((a for a in args if hasattr(a, "lk") and hasattr(a, "writhe")), None)
    attrs = {"entries": _entries(d)} if d is not None else {}
    if name == "v_alternating":
        attrs["subsets"] = 2 ** len(args[2])
    elif name in ("delta_h_full", "delta_h_reduced"):
        attrs["subsets"] = 1
    return attrs


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._ids = 0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "haefliger" or n.startswith("haefliger.")]
        for layer in LAYERS:
            module = sys.modules[f"haefliger.{layer}"]
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in PER_ENTRY_HELPERS):
                    wrapped = self._wrap(layer, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, wrapped)

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._new_id()
            stack.append(sid)
            result, error = None, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = _attrs(layer, name, args + tuple(kwargs.values()), result)
                tracer.spans.append(
                    [tracer._op, sid, parent, layer, name, start, end, error, attrs])

        return traced

    def run_op(self, op_id: str, kind: str, call):
        """Run one operation under a root span; returns its result."""
        self._op = op_id
        sid = self._new_id()
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append([op_id, sid, None, "bench", kind, start, end, None, {}])

    def record_import(self, op_id: str, start: int, end: int) -> None:
        self.spans.append([op_id, self._new_id(), None, "import", "haefliger", start, end,
                           None, {}])

    def record_cli(self, start: int, end: int, code: int, stderr: str) -> None:
        """A CLI process span, with its ``-X importtime`` import time as a child."""
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        import_ns = _import_ns(stderr)
        self.spans.append([self._op, sid, parent, "cli", "haefliger.cli", start, end,
                           f"exit {code}" if code else None, {}])
        self.spans.append([self._op, self._new_id(), sid, "import", "haefliger",
                           start, start + min(import_ns or 0, end - start),
                           None if import_ns is not None else "no import record", {}])

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _import_ns(stderr: str) -> int | None:
    """Cumulative time of the top-level imports from ``haefliger`` on.

    ``-X importtime`` lines read ``import time: self | cumulative | name``
    with two spaces of indent per nesting level; imports before the
    package's are the interpreter's own start-up.
    """
    total, seen = 0, False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        if name.startswith(" "):
            continue
        seen = seen or name == "haefliger"
        if seen:
            total += int(fields[1]) * 1000
    return total if seen else None


def _index(spans):
    by_id = {(s[0], s[1]): s for s in spans}
    child_ns: dict = defaultdict(int)
    for s in spans:
        if s[2] is not None:
            child_ns[(s[0], s[2])] += s[6] - s[5]
    self_ns = {(s[0], s[1]): (s[6] - s[5]) - child_ns[(s[0], s[1])] for s in spans}
    return by_id, self_ns


def nesting_problems(spans) -> int:
    """Operations whose spans do not nest or whose self times do not add up."""
    by_id, self_ns = _index(spans)
    per_op: dict = defaultdict(list)
    for s in spans:
        per_op[s[0]].append(s)
    bad = 0
    for op, members in per_op.items():
        if op.startswith("setup:"):
            continue  # the worker's own import, outside any operation
        roots = [s for s in members if s[2] is None]
        if len(roots) != 1:
            bad += 1
            continue
        root = roots[0]
        ok = sum(self_ns[(s[0], s[1])] for s in members) == root[6] - root[5]
        for s in members:
            parent = by_id.get((s[0], s[2])) if s[2] is not None else None
            if s is not root and (parent is None or s[5] < parent[5] or s[6] > parent[6]):
                ok = False
            if self_ns[(s[0], s[1])] < 0:
                ok = False
        bad += not ok
    return bad


def _entry(span, by_id):
    """The outermost span of the same layer that encloses ``span``."""
    while True:
        parent = by_id.get((span[0], span[2]))
        if parent is None or parent[3] != span[3]:
            return span
        span = parent


def layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    by_id, self_ns = _index(spans)
    busy: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    failed: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    classical_busy: dict = defaultdict(int)
    retries = 0
    for s in spans:
        op, sid, _, layer, _, _, _, error, attrs = s
        busy[layer] += self_ns[(op, sid)]
        entry = _entry(s, by_id)
        if layer == "classical":
            classical_busy[entry[4]] += self_ns[(op, sid)]
        if entry is not s:
            continue  # a call inside the layer, not into it
        calls[layer] += 1
        failed[layer] += error is not None
        retries += layer == "linking" and error == "NonGenericProjection"
        for key, value in attrs.items():
            counts[(layer, key)] += value
    seconds = {layer: ns / 1e9 for layer, ns in busy.items()}
    out = {}
    for layer in (*LAYERS, "cli"):
        out[f"{layer}.calls"] = calls[layer]
    for layer in (*LAYERS, "import", "cli"):
        out[f"{layer}.busy_s"] = seconds.get(layer, 0.0)
        out[f"{layer}.failed"] = failed[layer]
    out["linking.segment_pairs"] = counts[("linking", "segment_pairs")]
    out["linking.axis_retries"] = retries
    out["linking.success_ratio"] = (
        (calls["linking"] - failed["linking"]) / calls["linking"] if calls["linking"] else 1.0)
    out["diagram.entries"] = counts[("diagram", "entries")]
    out["calculus.entries_in"] = counts[("calculus", "entries")]
    out["calculus.subsets"] = counts[("calculus", "subsets")]
    out["classical.v2_busy_s"] = classical_busy["v2"] / 1e9
    out["classical.oracle_busy_s"] = sum(
        ns for name, ns in classical_busy.items() if name in ORACLE_ENTRIES) / 1e9
    out["classical.crossings"] = counts[("classical", "crossings")]
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in PER_LAYER}
