"""Command-line front end.

Subcommands mirror the library operations one-to-one; all invariant
values are printed as exact rationals (``{"num": .., "den": ..}`` in
JSON mode), never floats.  Output is deterministic: keys sorted, fixed
formatting.

Each command imports the library modules it runs when it runs, so a call
loads only those: ``v2`` loads ``classical`` alone, ``lk`` and ``writhe``
load ``linking`` alone, and the exact commands never load numpy.  Nor do
the curve commands on a small file: ``linking`` finds the candidate
segment pairs of a call of at most 1024 of them without numpy, since
importing numpy costs a fresh process far more than such a call.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    AsymmetricEntry,
    CurvesIntersect,
    DuplicateIndex,
    HaefligerError,
    InconsistentEvent,
    IndexOutOfRange,
    InvalidParams,
    LabelMismatch,
    MalformedToken,
    NonRealizable,
    ParseError,
)

if TYPE_CHECKING:
    from . import linking

# calculus.EVENT_KINDS and calculus.TRIPLE_PATTERNS, spelled out so that
# building the parser loads neither calculus nor diagram.
_EVENT_KINDS = ("definite_tangency", "indefinite_tangency", "triple_point")
_TRIPLE_PATTERNS = ("all_distinct", "i_eq_j", "p_eq_i", "j_eq_p", "all_equal")

# Codes 7, 9 and 13 are retired: scripts written against them may still test
# for them, so they are never reused.
EXIT_CODES = {
    ParseError: 2,
    IndexOutOfRange: 3,
    AsymmetricEntry: 4,
    DuplicateIndex: 5,
    InconsistentEvent: 6,
    CurvesIntersect: 8,
    InvalidParams: 10,
    MalformedToken: 11,
    LabelMismatch: 12,
    NonRealizable: 14,
}
GENERIC_ERROR = 15


def _rational(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def emit_report(result: dict, as_json: bool) -> str:
    """Render a result mapping as stable JSON or aligned human text.

    A Fraction prints as p/q, or p when q = 1, in human mode.
    """
    if as_json:
        rendered = {k: _rational(v) for k, v in result.items()}
        return json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return "\n".join(f"{key}: {result[key]}" for key in sorted(result))


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; ParseError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    text = _read_text(path)
    # Besides JSONDecodeError (a ValueError), json refuses integers of
    # more than 4300 digits with a plain ValueError and deep nesting
    # with RecursionError.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _axis(arg: str | None) -> linking.ProjectionAxis:
    """The --axis direction, each decimal read exactly."""
    from decimal import Decimal

    from . import linking

    if arg is None:
        return linking.EZ
    parts = arg.split(",")
    if len(parts) != 3 or not all(_DECIMAL.fullmatch(x) for x in parts):
        raise ParseError(f"bad axis {arg!r}: need three ASCII decimal numbers")
    return linking.ProjectionAxis(tuple(Decimal(x) for x in parts))


# Numbers in flags are ASCII only: int(), float() and Fraction() alone
# would also take "1_0" as 10, " 1" as 1 and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")
_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _integer(arg: str) -> int:
    """Type of the integer options; argparse turns the error into exit 2."""
    if not _INTEGER.fullmatch(arg):
        raise argparse.ArgumentTypeError(f"not an integer: {arg!r}")
    return int(arg)


def _count(arg: str) -> int:
    """Type of the count options: an integer >= 0."""
    value = _integer(arg)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {arg!r}")
    return value


def _indices(arg: str) -> list[int]:
    items = [x for x in arg.split(",") if x]
    if not all(_INTEGER.fullmatch(x) for x in items):
        raise ParseError(f"bad index list {arg!r}")
    return [int(x) for x in items]


def _fraction(arg: str) -> Fraction:
    """An integer, p/q (q > 0) or decimal, such as -3, 5/3 or 0.25."""
    if not _RATIONAL.fullmatch(arg):
        raise ParseError(f"bad rational {arg!r}")
    return Fraction(arg)


def _two_curves(path: str) -> tuple[linking.PolyCurve, linking.PolyCurve]:
    from . import linking

    curves = linking.curves_from_dict(_load_json(path))
    if len(curves) != 2:
        raise ParseError(f"{path}: expected exactly 2 components")
    return curves[0], curves[1]


def _cmd_lk(args) -> dict:
    from . import linking

    m, n = _two_curves(args.curves)
    result = {"lk": linking.linking_number_pl(m, n, _axis(args.axis))}
    if args.quadrature:
        result["quadrature"] = linking.gauss_linking_quadrature(
            m, n, args.quadrature
        )
    return result


def _cmd_writhe(args) -> dict:
    from . import linking

    curves = linking.curves_from_dict(_load_json(args.curves))
    axis = _axis(args.axis)
    return {
        f"writhe_{i}": linking.writhe_pl(curve, axis)
        for i, curve in enumerate(curves)
    }


def _cmd_delta_h(args) -> dict:
    from . import calculus, diagram

    d = diagram.diagram_from_dict(_load_json(args.diagram))
    switched = set(_indices(args.switch))
    value = calculus.delta_h_reduced(d, switched)
    full = calculus.delta_h_full(d, switched)
    if value != full:
        raise HaefligerError(f"delta_h_reduced {value} != delta_h_full {full}")
    return {"delta_h": value}


def _cmd_vfinite(args) -> dict:
    from . import calculus, diagram

    d = diagram.diagram_from_dict(_load_json(args.diagram))
    indices = _indices(args.indices)
    h0 = _fraction(args.h0)
    if not args.verbose:
        return {"v": calculus.v_alternating(h0, d, indices)}
    # One enumeration gives both the lattice values and their sum.
    values = list(calculus._subset_values(h0, d, indices))
    result = {"v": sum(((-1) ** len(s) * u for s, u in values), Fraction(0))}
    for subset, value in values:
        result["h_S_" + ",".join(str(i) for i in subset)] = value
    return result


def _cmd_e_jump(args) -> dict:
    from . import calculus

    event = calculus.HomotopyEvent(
        kind=args.kind,
        sign=args.sign,
        index=args.index,
        joins_components=args.joins,
        lk00=args.lk00,
        lk11=args.lk11,
        pattern=args.pattern,
    )
    return {"jump": calculus.e_jump(event, args.k)}


def _cmd_generator(args) -> dict:
    from . import diagram, generator, linking

    result: dict = {
        "diagram": diagram.diagram_to_dict(generator.generator_diagram(args.k))
    }
    if args.curves:
        params = generator.BorromeanParams(
            alpha=_fraction(args.alpha), beta=_fraction(args.beta), k=args.k
        )
        labeled = generator.generator_double_point_curves(params, n=args.resolution)
        result["curves"] = linking.curves_to_dict([c.curve for c in labeled])
        result["labels"] = [
            {"i": c.lift.crossing, "e": c.lift.level, "sphere": c.sphere}
            for c in labeled
        ]
    return result


def _cmd_v2(args) -> dict:
    from . import classical

    code = _read_text(args.code) if args.file else args.code
    g = classical.parse_gauss_code(code)
    result: dict = {"v2": classical.v2(g)}
    if args.verbose:
        descending = classical.descending_set(g)
        descended = classical.switch(g, descending)
        result["x_pairing"] = classical.x_pairing(g)
        result["x_pairing_descending"] = classical.x_pairing(descended)
        result["descending_set"] = sorted(descending)
    return result


def _cmd_jacobian(args) -> dict:
    from . import calculus

    return {"det": calculus.jacobian_det(args.k)}


def _cmd_murai_ohba(args) -> dict:
    from . import calculus, diagram

    l0, l1 = _two_curves(args.curves)
    d, switched, delta = calculus.murai_ohba_certificate(l0, l1, _axis(args.axis))
    return {
        "diagram": diagram.diagram_to_dict(d),
        "switch": sorted(switched),
        "delta_h": delta,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haefliger",
        description="Crossing-change calculus for high-dimensional knot invariants",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lk", help="linking number of a 2-component curve file")
    p.add_argument("curves")
    p.add_argument("--axis", help="projection axis as x,y,z (default 0,0,1)")
    p.add_argument(
        "--quadrature", type=_count, default=0, metavar="N",
        help="also report the Gauss integral with N subdivisions",
    )
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("writhe", help="writhe of each component of a curve file")
    p.add_argument("curves")
    p.add_argument("--axis")
    p.set_defaults(func=_cmd_writhe)

    p = sub.add_parser("delta-h", help="invariant difference under crossing changes")
    p.add_argument("diagram")
    p.add_argument("--switch", required=True, help="comma-separated crossing indices")
    p.set_defaults(func=_cmd_delta_h)

    p = sub.add_parser("vfinite", help="alternating finite-type sum")
    p.add_argument("diagram")
    p.add_argument("--indices", required=True)
    p.add_argument("--h0", default="0", help="base invariant value (rational)")
    p.add_argument("--verbose", action="store_true",
                   help="include the subset lattice values")
    p.set_defaults(func=_cmd_vfinite)

    p = sub.add_parser("e-jump", help="jump of the immersion invariant at an event")
    p.add_argument("--kind", required=True, choices=_EVENT_KINDS)
    p.add_argument("--k", type=_integer, default=1)
    p.add_argument("--sign", type=_integer, default=1, choices=(1, -1))
    p.add_argument("--index", type=_integer, help="index of the quadratic form")
    p.add_argument("--joins", action="store_true",
                   help="the deformation joins two components")
    p.add_argument("--lk00", type=_integer, default=0)
    p.add_argument("--lk11", type=_integer, default=0)
    p.add_argument("--pattern", choices=_TRIPLE_PATTERNS)
    p.set_defaults(func=_cmd_e_jump)

    p = sub.add_parser("generator", help="emit the six-crossing generator data")
    p.add_argument("--k", type=_integer, default=1)
    p.add_argument("--curves", action="store_true",
                   help="include the twelve k=1 double point circles")
    p.add_argument("--alpha", default="4")
    p.add_argument("--beta", default="1")
    p.add_argument("--resolution", type=_integer, default=64)
    p.set_defaults(func=_cmd_generator)

    p = sub.add_parser("v2", help="classical order-2 invariant of a Gauss code")
    p.add_argument("code", help="extended Gauss code, or a file with --file")
    p.add_argument("--file", action="store_true")
    p.add_argument("--verbose", action="store_true",
                   help="include pairing values and the descending set")
    p.set_defaults(func=_cmd_v2)

    p = sub.add_parser("jacobian", help="determinant of the crossing-count Jacobian")
    p.add_argument("--k", type=_integer, required=True)
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("murai-ohba", help="single-crossing unknotting certificate")
    p.add_argument("curves")
    p.add_argument("--axis")
    p.set_defaults(func=_cmd_murai_ohba)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except HaefligerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return GENERIC_ERROR
    print(emit_report(result, as_json=args.format == "json"))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
