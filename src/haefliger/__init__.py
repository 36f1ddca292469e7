"""Crossing-change calculus for invariants of high-dimensional long embeddings.

The package evaluates the isotopy-invariant difference formulas of the
crossing-change calculus on combinatorial crossing diagrams, provides an
exact PL linking/writhe engine for the dimension-3 double point sets,
constructs the explicit six-crossing generator, and computes the
classical order-2 knot invariant the calculus generalizes.
"""

import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562), so ``import haefliger`` loads no submodule
# and a CLI command loads only the modules it runs.
_SUBMODULES: dict[str, tuple[str, ...]] = {
    "diagram": (
        "CrossingDiagram",
        "LiftId",
        "crossing_change",
        "diagram_from_dict",
        "diagram_to_dict",
        "make_diagram",
    ),
    "linking": (
        "PolyCurve",
        "ProjectionAxis",
        "circle",
        "curves_from_dict",
        "curves_to_dict",
        "gauss_linking_quadrature",
        "linking_matrix",
        "linking_number_pl",
        "writhe_pl",
    ),
    "calculus": (
        "HomotopyEvent",
        "delta_h_full",
        "delta_h_reduced",
        "e_invariant",
        "e_jump",
        "i_x_dirac",
        "jacobian_det",
        "murai_ohba_certificate",
        "smale_from_h",
        "v_alternating",
    ),
    "generator": (
        "BorromeanParams",
        "generator_diagram",
        "generator_double_point_curves",
        "verify_generator",
    ),
    "classical": (
        "GaussDiagramK",
        "conway_a2_oracle",
        "descending_set",
        "parse_gauss_code",
        "switch",
        "v2",
        "x_pairing",
    ),
    "errors": (),  # resolves haefliger.errors; its classes are not re-exported
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is seen by -X importtime.
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
