"""Crossing-change calculus for invariants of high-dimensional long embeddings.

The package evaluates the isotopy-invariant difference formulas of the
crossing-change calculus on combinatorial crossing diagrams, provides an
exact PL linking/writhe engine for the dimension-3 double point sets,
constructs the explicit six-crossing generator, and computes the
classical order-2 knot invariant the calculus generalizes.
"""

from .diagram import (
    CrossingDiagram,
    LiftId,
    crossing_change,
    diagram_from_dict,
    diagram_to_dict,
    make_diagram,
)
from .linking import (
    PolyCurve,
    ProjectionAxis,
    circle,
    connected_sum_pl,
    curves_from_dict,
    curves_to_dict,
    gauss_linking_quadrature,
    linking_matrix,
    linking_number_pl,
    writhe_pl,
)
from .calculus import (
    HomotopyEvent,
    delta_h_full,
    delta_h_reduced,
    e_invariant,
    e_jump,
    i_x_dirac,
    jacobian_det,
    murai_ohba_certificate,
    smale_from_h,
    v_alternating,
)
from .generator import (
    BorromeanParams,
    generator_diagram,
    generator_double_point_curves,
    verify_generator,
)
from .classical import (
    GaussDiagramK,
    conway_a2_oracle,
    descending_set,
    parse_gauss_code,
    switch,
    v2,
    x_pairing,
)

__version__ = "0.1.0"

__all__ = [
    "BorromeanParams",
    "CrossingDiagram",
    "GaussDiagramK",
    "HomotopyEvent",
    "LiftId",
    "PolyCurve",
    "ProjectionAxis",
    "circle",
    "connected_sum_pl",
    "conway_a2_oracle",
    "crossing_change",
    "curves_from_dict",
    "curves_to_dict",
    "delta_h_full",
    "delta_h_reduced",
    "descending_set",
    "diagram_from_dict",
    "diagram_to_dict",
    "e_invariant",
    "e_jump",
    "gauss_linking_quadrature",
    "generator_diagram",
    "generator_double_point_curves",
    "i_x_dirac",
    "jacobian_det",
    "linking_matrix",
    "linking_number_pl",
    "make_diagram",
    "murai_ohba_certificate",
    "parse_gauss_code",
    "smale_from_h",
    "switch",
    "v2",
    "v_alternating",
    "verify_generator",
    "writhe_pl",
    "x_pairing",
]
