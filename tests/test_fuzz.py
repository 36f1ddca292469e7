"""Fuzz the input boundary: the Gauss-code parser and both JSON loaders.

Whatever they are given, they either return or raise a HaefligerError,
which the CLI maps to an exit code; a bare KeyError, TypeError or
ValueError would escape the CLI as a traceback.  Runs are derandomized
and bounded, so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from haefliger.classical import parse_gauss_code
from haefliger.diagram import diagram_from_dict
from haefliger.errors import HaefligerError
from haefliger.linking import curves_from_dict

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

