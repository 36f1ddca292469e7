"""Fuzz the input boundary: the Gauss-code parser, both JSON loaders and
the library's number arguments.

Whatever they are given, they either return or raise a HaefligerError,
which the CLI maps to an exit code; a bare KeyError, TypeError or
ValueError would escape the CLI as a traceback.  Runs are derandomized
and bounded, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haefliger import calculus
from haefliger.classical import parse_gauss_code, rotate_basepoint
from haefliger.diagram import diagram_from_dict
from haefliger.errors import HaefligerError
from haefliger.generator import BorromeanParams, generator_diagram
from haefliger.linking import PolyCurve, ProjectionAxis, circle, curves_from_dict

FUZZ = settings(derandomize=True, max_examples=200, deadline=None)

_small_ints = st.integers(-3, 8)
_leaves = (
    st.none() | st.booleans() | _small_ints | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
)
_fields = st.sampled_from(
    ["k", "m", "lk", "writhe", "i", "ei", "j", "ej", "e", "value", "components"]
)
_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_fields | st.text(max_size=3), inner, max_size=6),
    max_leaves=24,
)


def _mostly(strategy, junk):
    """``strategy`` four times in five, else ``junk``.

    ``a | b`` would flatten the branches of ``b`` into equal-weight
    alternatives, so nearly-valid documents would be rare.
    """
    return st.integers(0, 4).flatmap(lambda n: junk if n == 0 else strategy)


def _refuses_only_with_haefliger_errors(load, value):
    try:
        load(value)
    except HaefligerError:
        pass


@FUZZ
@given(st.text(max_size=40) | st.text(alphabet="OUou0123ab+-, \n", max_size=40))
def test_parse_gauss_code_raises_only_haefliger_errors(text):
    _refuses_only_with_haefliger_errors(parse_gauss_code, text)


def _rows(names):
    row = st.fixed_dictionaries({name: _mostly(_small_ints, _leaves) for name in names})
    return st.lists(_mostly(row, _json), max_size=4)


_diagram_docs = st.fixed_dictionaries({
    "k": _mostly(_small_ints, _leaves),
    "m": _mostly(_small_ints, _leaves),
    "lk": _mostly(_rows(("i", "ei", "j", "ej", "value")), _json),
    "writhe": _mostly(_rows(("i", "e", "value")), _json),
})


@FUZZ
@given(_json | _diagram_docs)
def test_diagram_from_dict_raises_only_haefliger_errors(doc):
    _refuses_only_with_haefliger_errors(diagram_from_dict, doc)


# Ints past the float range included: the float prefilter cannot take them.
_coordinates = (
    st.integers(-3, 3) | st.floats(-5, 5) | st.integers()
    | st.integers(2**1023, 2**1100)
    | st.floats(allow_nan=True, allow_infinity=True) | st.booleans()
    | st.text(max_size=2)
)
_points = _mostly(
    st.lists(_coordinates, min_size=3, max_size=3),
    st.lists(_coordinates, max_size=5) | _leaves,
)
_curve_docs = st.fixed_dictionaries({
    "components": _mostly(
        st.lists(_mostly(st.lists(_points, max_size=5), _json), max_size=3),
        _json,
    ),
})


@FUZZ
@given(_json | _curve_docs)
def test_curves_from_dict_raises_only_haefliger_errors(doc):
    _refuses_only_with_haefliger_errors(curves_from_dict, doc)



# Every kind of number the rule accepts or refuses: Fractions, Decimals
# (NaN and infinities included) and numpy scalars among them.
_any_numbers = (
    _coordinates | st.none() | st.fractions() | st.decimals()
    | st.integers(-3, 3).map(np.int64) | st.floats(-5, 5, width=32).map(np.float32)
)
# Mostly valid numbers, so that a call gets past its first argument.
_numbers = _mostly(st.integers(1, 3) | st.floats(0.5, 5), _any_numbers)
_triples = _mostly(st.tuples(_numbers, _numbers, _numbers),
                   st.lists(_numbers, max_size=5) | _leaves)
_CIRCLE = {"center": (0, 0, 0), "radius": 1.0, "normal": (0, 0, 1), "n": 8, "phase": 0.0}
_TRIANGLE = PolyCurve([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


@FUZZ
@given(st.sampled_from(sorted(_CIRCLE)), _triples, _any_numbers,
       st.integers(-3, 40) | (_any_numbers | _leaves).filter(lambda x: type(x) is not int))
def test_circle_raises_only_haefliger_errors(name, triple, number, count):
    # One argument drawn, the others valid; n stays small, as a large
    # valid n would build a large polygon.
    value = {"center": triple, "normal": triple, "n": count}.get(name, number)
    _refuses_only_with_haefliger_errors(lambda v: circle(**{**_CIRCLE, name: v}), value)


@FUZZ
@given(_triples)
def test_axis_and_offset_raise_only_haefliger_errors(vector):
    _refuses_only_with_haefliger_errors(ProjectionAxis, vector)
    _refuses_only_with_haefliger_errors(_TRIANGLE.translated, vector)


@FUZZ
@given(_numbers, _numbers, _mostly(_small_ints, _leaves))
def test_borromean_params_raise_only_haefliger_errors(alpha, beta, k):
    _refuses_only_with_haefliger_errors(lambda args: BorromeanParams(*args), (alpha, beta, k))


@FUZZ
@given(_any_numbers | _leaves)
def test_h_arguments_and_shifts_raise_only_haefliger_errors(value):
    d = generator_diagram(1)
    for load in (
        lambda h: calculus.e_invariant(h, d),
        lambda h: calculus.v_alternating(h, d, [1, 2]),
        lambda h: list(calculus._subset_values(h, d, [1])),
        calculus.smale_from_h,
        lambda shift: rotate_basepoint(parse_gauss_code("O1+U2+O3+U1+O2+U3+"), shift),
    ):
        _refuses_only_with_haefliger_errors(load, value)
