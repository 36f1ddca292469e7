"""Seeded workloads: their inputs, their operations and the values each must return.

A workload is a list of cycles; a cycle is a fixed list of operations.
The worker runs whole cycles, so every run sees the same mix of
operations.  Geometric and combinatorial repeat one cycle, so each
position of it is one input, timed once per cycle; classical draws new
braids for each session, as a user would bring new knots.  Within a
cycle the mix is chosen so that the median and the 90th percentile each
fall inside one group of operations of similar cost, not on a boundary
between two groups, which keeps both stable from seed to seed.

Every operation carries the value it must return, known before it runs:
closed forms (Hopf +-1, torus links n, trefoil writhe -3, generator
h = 1, v_alternating = 0 for three or more indices, v2 of torus knots
and connected sums), the benchmark's own arithmetic on the raw diagram
entries, the Gauss quadrature for random links, or, for braid closures,
the Alexander polynomial from the Burau matrix (``knots.braid_v2``).

Library functions are looked up on their module at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import operator
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from haefliger import calculus, classical, diagram, errors, generator, linking

import knots

TAU = 2.0 * np.pi
_KNOT_IDS = itertools.count()


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    expected: object
    check: Callable[[object, object], bool] = operator.eq


# --- geometric --------------------------------------------------------------


def _trefoil(n: int, shift: float) -> np.ndarray:
    t = TAU * (np.arange(n) + shift) / n
    return np.stack(
        [np.sin(t) + 2.0 * np.sin(2.0 * t), np.cos(t) - 2.0 * np.cos(2.0 * t), -np.sin(3.0 * t)],
        axis=1,
    )


def _torus_companion(k: int, n: int, shift: float, twist: float) -> np.ndarray:
    """Curve winding k times around the core circle of radius 3."""
    t = TAU * (np.arange(n) + shift) / n
    w = k * t + twist
    return np.stack(
        [(3.0 + np.cos(w)) * np.cos(t), (3.0 + np.cos(w)) * np.sin(t), np.sin(w)], axis=1
    )


def _random_loop(rng: np.random.Generator, n: int) -> np.ndarray:
    """Closed trigonometric loop with decaying second and third harmonics."""
    t = TAU * np.arange(n) / n
    a, b = rng.normal(size=3), rng.normal(size=3)
    pts = np.outer(np.cos(t), 2.0 * a / np.linalg.norm(a)) + np.outer(
        np.sin(t), 2.0 * b / np.linalg.norm(b)
    )
    for h in (2, 3):
        pts += np.outer(np.cos(h * t), rng.normal(size=3)) / h**2.5
        pts += np.outer(np.sin(h * t), rng.normal(size=3)) / h**2.5
    return pts


def _random_link(rng: np.random.Generator, n: int):
    """Two loops a tenth of their diameter apart, with their linking number.

    The Gauss quadrature is the reference.  A link it cannot resolve to
    within 1e-3 of an integer is redrawn, as the test suite does.
    """
    while True:
        a = _random_loop(rng, n)
        b = _random_loop(rng, n) + rng.normal(scale=0.8, size=3)
        both = np.concatenate([a, b])
        diameter = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
        gap = float(np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)).min())
        if gap < 0.1 * diameter:
            continue
        m, k = _curve(a), _curve(b)
        quad = linking.gauss_linking_quadrature(m, k, 512)
        if abs(quad - round(quad)) < 1e-3:
            return a, b, m, k, round(quad)


def _curve(points: np.ndarray) -> linking.PolyCurve:
    return linking.PolyCurve([tuple(p) for p in points])


def _curve_shape(curves) -> tuple:
    return tuple(len(c) for c in curves), curves[0].vertices[0]


def _generator_result(report) -> tuple:
    return report.matches_diagram, report.h_value


class Geometric:
    """Linking numbers, writhes, curve documents and the generator check."""

    SIZES = {
        "full": dict(docs=(64, 128, 256), writhe=(60, 120, 240), hopf=(64, 128, 256),
                     torus=(1, 2, 3, 4), torus_n=128, random=(64, 128, 128, 256),
                     verify=(32, 32, 64)),
        "tiny": dict(docs=(16,), writhe=(30,), hopf=(16,), torus=(1, 2), torus_n=48,
                     random=(24,), verify=(16,)),
    }

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng([seed, 1])
        sizes = self.SIZES["tiny" if tiny else "full"]
        self.ops = self._ops(rng, sizes)

    def _ops(self, rng: np.random.Generator, s: dict) -> list[Op]:
        ops = []
        for n in s["docs"]:
            a, b = _random_loop(rng, n), _random_loop(rng, n) + 5.0
            doc = {"components": [a.tolist(), b.tolist()]}
            first = tuple(Fraction(x) for x in a[0])
            ops.append(Op("curves_from_dict", lambda doc=doc: linking.curves_from_dict(doc),
                          ((n, n), first), lambda r, e: _curve_shape(r) == e))
        for n in s["writhe"]:
            c = _curve(_trefoil(n, rng.uniform()))
            ops.append(Op("writhe_pl", lambda c=c: linking.writhe_pl(c), -3))
        for n in s["hopf"]:
            a = linking.circle((0, 0, 0), 2.0, (0, 0, 1), n=n, phase=rng.uniform(0, TAU / n))
            b = linking.circle((2, 0, 0), 2.0, (0, 1, 0.2), n=n, phase=rng.uniform(0, TAU / n))
            ops.append(Op("lk_hopf", lambda a=a, b=b: linking.linking_number_pl(a, b), 1))
        n = s["torus_n"]
        for k in s["torus"]:
            core = linking.circle((0, 0, 0), 3.0, (0, 0, -1), n=n, phase=rng.uniform(0, TAU / n))
            comp = _curve(_torus_companion(k, n, rng.uniform(), rng.uniform(0.2, 0.6)))
            ops.append(Op("lk_torus", lambda a=core, b=comp: linking.linking_number_pl(a, b), k))
        for n in s["random"]:
            _, _, a, b, lk = _random_link(rng, n)
            ops.append(Op("lk_random", lambda a=a, b=b: linking.linking_number_pl(a, b), lk))
        for n in s["verify"]:
            ops.append(Op(
                "verify_generator",
                lambda n=n: generator.verify_generator(generator.DEFAULT_PARAMS, n),
                (True, Fraction(1)), lambda r, e: _generator_result(r) == e,
            ))
        return ops

    def cycle(self, index: int) -> list[Op]:
        return self.ops

    def warmup(self) -> None:
        a = linking.circle((0, 0, 0), 2.0, (0, 0, 1), n=12)
        b = linking.circle((2, 0, 0), 2.0, (0, 1, 0.2), n=12)
        linking.linking_number_pl(a, b)
        linking.writhe_pl(_curve(_trefoil(24, 0.3)))
        generator.verify_generator(generator.DEFAULT_PARAMS, 8)


# --- combinatorial ----------------------------------------------------------


class _RandomDiagram:
    """Random diagram held as raw entry arrays, plus its JSON document.

    Lift (i, e) has index 2(i - 1) + e, so index order is the canonical
    pair order and every drawn pair a < b is already a canonical key.
    """

    def __init__(self, rng: np.random.Generator, m: int, per_crossing: int = 18) -> None:
        count = per_crossing * m
        keys: dict[int, None] = {}
        while len(keys) < count:
            a, b = rng.integers(0, 2 * m, size=(2, count))
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            for key in (lo * 2 * m + hi)[lo != hi].tolist():
                keys.setdefault(key)
        pairs = np.array(list(keys)[:count])
        lo, hi = pairs // (2 * m), pairs % (2 * m)
        self.m = m
        self.i, self.ei = lo // 2 + 1, lo % 2
        self.j, self.ej = hi // 2 + 1, hi % 2
        self.value = rng.integers(1, 6, size=count) * rng.choice([-1, 1], size=count)
        self.signed = np.where((self.ei + self.ej) % 2 == 0, 1, -1) * self.value
        lifts = np.flatnonzero(rng.random(2 * m) < 0.3)
        writhes = rng.integers(1, 4, size=len(lifts)) * rng.choice([-1, 1], size=len(lifts))
        self.total_writhe = int(writhes.sum())
        self.doc = {
            "k": 1,
            "m": m,
            "lk": [
                {"i": i, "ei": ei, "j": j, "ej": ej, "value": v}
                for i, ei, j, ej, v in zip(*(x.tolist() for x in
                                             (self.i, self.ei, self.j, self.ej, self.value)))
            ],
            "writhe": [
                {"i": int(l) // 2 + 1, "e": int(l) % 2, "value": int(w)}
                for l, w in zip(lifts, writhes)
            ],
        }
        self.entries = count + len(lifts)
        self.diagram = diagram.diagram_from_dict(self.doc)

    def signed_sum(self) -> int:
        return int(self.signed.sum())

    def straddle_sum(self, switched: set[int]) -> int:
        """Signed sum over entries with exactly one crossing switched."""
        mask = np.zeros(self.m + 1, dtype=bool)
        mask[list(switched)] = True
        return int(self.signed[mask[self.i] != mask[self.j]].sum())


def _signed_pair_sum(d) -> int:
    return sum(v if (a.level + b.level) % 2 == 0 else -v for (a, b), v in d.lk.items())


def _diagram_shape(d) -> tuple[int, int, int]:
    return d.m, len(d.lk) + len(d.writhe), _signed_pair_sum(d)


class Combinatorial:
    """Diagram construction and calculus queries; no curves at all."""

    # (operation, diagram, count per cycle): of the 45 operations, 16 cost
    # less than a delta_h_full call on the small diagram, so the median
    # (the 23rd) falls in the middle of those eight calls, and the 90th
    # percentile (the 5th from the top) on the second of the five on the
    # large one.
    MIX = (
        ("diagram_from_dict", "small", 2), ("diagram_from_dict", "large", 1),
        ("crossing_change", "small", 3), ("crossing_change", "large", 1),
        ("delta_h_reduced", "small", 8), ("delta_h_full", "small", 8),
        ("delta_h_reduced", "large", 3), ("delta_h_full", "large", 5),
        ("e_invariant", "small", 4), ("e_invariant", "large", 1),
        ("i_x_dirac", "small", 4), ("i_x_dirac", "large", 1),
        ("v_alternating", 3, 2), ("v_alternating", 6, 1), ("v_alternating", 8, 1),
    )

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng([seed, 2])
        self.diagrams = {
            "small": _RandomDiagram(rng, 12 if tiny else 100),
            "large": _RandomDiagram(rng, 40 if tiny else 1000),
        }
        self.ops = self._ops(rng)

    def _ops(self, rng: np.random.Generator) -> list[Op]:
        ops = []
        for kind, which, count in self.MIX:
            for _ in range(count):
                ops.append(self._op(rng, kind, which))
        return ops

    def _op(self, rng: np.random.Generator, kind: str, which) -> Op:
        if kind == "v_alternating":
            rd = self.diagrams["small"]
            idx = [int(x) for x in rng.choice(np.arange(1, rd.m + 1), size=which, replace=False)]
            h0 = int(rng.integers(-5, 6))
            return Op(kind, lambda: calculus.v_alternating(h0, rd.diagram, idx), 0)
        rd = self.diagrams[which]
        d = rd.diagram
        switched = {int(x) for x in np.flatnonzero(rng.random(rd.m) < 0.5) + 1}
        if kind == "diagram_from_dict":
            return Op(kind, lambda: diagram.diagram_from_dict(rd.doc),
                      (rd.m, rd.entries, rd.signed_sum()), lambda r, e: _diagram_shape(r) == e)
        if kind == "crossing_change":
            expected = (rd.m, rd.entries, rd.signed_sum() - 2 * rd.straddle_sum(switched))
            return Op(kind, lambda: diagram.crossing_change(d, switched), expected,
                      lambda r, e: _diagram_shape(r) == e)
        if kind == "delta_h_reduced":
            return Op(kind, lambda: calculus.delta_h_reduced(d, switched),
                      Fraction(rd.straddle_sum(switched), 2))
        if kind == "delta_h_full":
            return Op(kind, lambda: calculus.delta_h_full(d, switched),
                      Fraction(rd.straddle_sum(switched), 2))
        if kind == "e_invariant":
            h = Fraction(int(rng.integers(-20, 21)), 4)
            return Op(kind, lambda: calculus.e_invariant(h, d), h - Fraction(rd.signed_sum(), 4))
        return Op(kind, lambda: calculus.i_x_dirac(d),
                  Fraction(rd.signed_sum(), 2) + Fraction(rd.total_writhe, 4))

    def cycle(self, index: int) -> list[Op]:
        return self.ops

    def warmup(self) -> None:
        d = generator.generator_diagram(1)
        calculus.delta_h_full(d, {1})
        calculus.v_alternating(0, d, [1, 2, 3])
        diagram.diagram_from_dict(diagram.diagram_to_dict(d))


# --- classical --------------------------------------------------------------


def _knot_op(kind: str, code: str, expected: int) -> Op:
    # A label prefix of its own per knot keeps one knot's sub-links out of
    # another's cache entries, so each knot's oracle cost is its own.
    code = knots.relabel(code, f"k{next(_KNOT_IDS)}x")

    def call():
        g = classical.parse_gauss_code(code)
        return classical.v2(g), classical.conway_a2_oracle(g)

    return Op(kind, call, (expected, expected))


class Classical:
    """v2 and the Conway oracle, one knot per operation, each knot new.

    A cycle is one session of 18 distinct knots in a fresh interpreter, as
    a user checking a batch of knots would run it.  The oracle's
    module-level cache is never cleared, so it grows across the session;
    starting each session in a fresh process bounds the run's memory to
    one session's worth.
    """

    F, T3, T5 = knots.FIGURE_EIGHT, knots.torus_code(3), knots.torus_code(5)
    SUMS = (((F, F), -2), ((F, F, F), -3), ((F, T3), 0), ((F, knots.mirror(T3)), 0),
            ((F, T5), 2), ((F, knots.mirror(T5)), 2))
    # Braid closures as (crossings, crossings first met from below, how
    # many).  Fixing the second count narrows each braid's oracle cost, so
    # that the 90th percentile falls on T(2,11), below its mirror, and the
    # median among the cheap fixed knots.  The strand count follows from
    # the parity a knot needs (an s-cycle has the parity of s - 1).
    BRAIDS = ((8, 4, 1), (9, 5, 1), (10, 5, 1), (11, 4, 1))
    TINY_BRAIDS = ((8, 4, 1),)

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed, self.tiny = seed, tiny

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, index])
        torus = (5,) if self.tiny else (5, 7, 9, 11)
        ops = []
        for n in torus:
            ops.append(_knot_op("torus", knots.torus_code(n), knots.torus_v2(n)))
            ops.append(_knot_op("torus", knots.mirror(knots.torus_code(n)), knots.torus_v2(n)))
        for summands, value in self.SUMS[:1] if self.tiny else self.SUMS:
            ops.append(_knot_op("sum", knots.connected_sum(*summands), value))
        seen: set[str] = set()
        for crossings, under, count in self.TINY_BRAIDS if self.tiny else self.BRAIDS:
            strands = [s for s in (3, 4, 5) if (s - 1) % 2 == crossings % 2]
            while count:
                s = int(rng.choice(strands))
                word = [int(rng.integers(1, s)) * int(rng.choice([-1, 1])) for _ in range(crossings)]
                code = knots.braid_code(word, s)
                if code is not None and code not in seen and knots.under_first(code) == under:
                    seen.add(code)
                    ops.append(_knot_op("braid", code, knots.braid_v2(word, s)))
                    count -= 1
        return ops

    def warmup(self) -> None:
        g = classical.parse_gauss_code(knots.torus_code(3))
        classical.v2(g)
        classical.conway_a2_oracle(g)


# --- cli --------------------------------------------------------------------


def _rational(value) -> dict:
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


def _cli_result(result, expected) -> bool:
    code, stdout = result
    want_code, want_doc = expected
    return code == want_code and (code != 0 or json.loads(stdout) == want_doc)


class Cli:
    """One ``python -m haefliger.cli --format json`` process per operation.

    The twelve calls are small already, so ``tiny`` changes nothing here.
    """

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        from haefliger import cli

        self.tracer = None
        rng = np.random.default_rng([seed, 4])
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, text: str) -> str:
            path = workdir / name
            path.write_text(text)
            return str(path)

        rd = _RandomDiagram(rng, 12, per_crossing=3)
        diagram_file = write("diagram.json", json.dumps(rd.doc))
        a = linking.circle((0, 0, 0), 2.0, (0, 0, 1), n=24, phase=rng.uniform(0, 0.2))
        b = linking.circle((2, 0, 0), 2.0, (0, 1, 0.2), n=24, phase=rng.uniform(0, 0.2))
        curves_file = write("hopf.json", json.dumps(linking.curves_to_dict([a, b])))
        bad_file = write("bad.json", "{not json")

        while True:
            word = [int(rng.integers(1, 3)) * int(rng.choice([-1, 1])) for _ in range(8)]
            braid = knots.braid_code(word, 3)
            if braid is not None:
                break
        fig8_sum = knots.connected_sum(knots.FIGURE_EIGHT, knots.torus_code(3))
        switched = sorted({int(x) for x in np.flatnonzero(rng.random(rd.m) < 0.5) + 1} or {1})
        indices = sorted(int(x) for x in rng.choice(np.arange(1, rd.m + 1), size=3, replace=False))
        k = int(rng.integers(1, 4))
        lk00, lk11 = (int(x) for x in rng.integers(-3, 4, size=2))
        sign = int(rng.choice([-1, 1]))

        def lib_v2(code):
            return classical.v2(classical.parse_gauss_code(code))

        ok = 0
        exit_code = cli.EXIT_CODES
        self.calls = [
            (("v2", braid), (ok, {"v2": lib_v2(braid)})),
            (("v2", fig8_sum), (ok, {"v2": lib_v2(fig8_sum)})),
            (("jacobian", "--k", str(k)), (ok, {"det": calculus.jacobian_det(k)})),
            (("e-jump", "--kind", "indefinite_tangency", "--k", "2", "--index", "1", "--joins",
              "--lk00", str(lk00), "--lk11", str(lk11)),
             (ok, {"jump": _rational(calculus.e_jump(calculus.HomotopyEvent(
                 "indefinite_tangency", 1, index=1, joins_components=True,
                 lk00=lk00, lk11=lk11), 2))})),
            (("e-jump", "--kind", "triple_point", "--pattern", "all_distinct",
              "--sign", str(sign)),
             (ok, {"jump": _rational(calculus.e_jump(calculus.HomotopyEvent(
                 "triple_point", sign, pattern="all_distinct"), 1))})),
            (("delta-h", diagram_file, "--switch", ",".join(map(str, switched))),
             (ok, {"delta_h": _rational(calculus.delta_h_reduced(rd.diagram, switched))})),
            (("vfinite", diagram_file, "--indices", ",".join(map(str, indices))),
             (ok, {"v": _rational(calculus.v_alternating(0, rd.diagram, indices))})),
            (("lk", curves_file), (ok, {"lk": linking.linking_number_pl(a, b)})),
            (("generator", "--k", "1"),
             (ok, {"diagram": diagram.diagram_to_dict(generator.generator_diagram(1))})),
            (("v2", "O1+U2+"), (exit_code[errors.LabelMismatch], None)),
            (("delta-h", bad_file, "--switch", "1"), (exit_code[errors.ParseError], None)),
            (("delta-h", diagram_file, "--switch", str(rd.m + 1)),
             (exit_code[errors.IndexOutOfRange], None)),
        ]

    def run(self, *args: str) -> tuple[int, str]:
        flags = ["-X", "importtime"] if self.tracer else []
        cmd = [sys.executable, *flags, "-m", "haefliger.cli", "--format", "json", *args]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        end = time.perf_counter_ns()
        if self.tracer:
            self.tracer.record_cli(start, end, proc.returncode, proc.stderr)
        return proc.returncode, proc.stdout

    def cycle(self, index: int) -> list[Op]:
        return [
            Op(f"cli_{args[0]}", lambda args=args: self.run(*args), expected, _cli_result)
            for args, expected in self.calls
        ]

    def warmup(self) -> None:
        self.run("jacobian", "--k", "1")


def build(name: str, seed: int, tiny: bool, workdir: Path):
    seed %= 2**64  # numpy seeds must be non-negative
    if name == "geometric":
        return Geometric(seed, tiny)
    if name == "combinatorial":
        return Combinatorial(seed, tiny)
    if name == "classical":
        return Classical(seed, tiny)
    if name == "cli":
        return Cli(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
