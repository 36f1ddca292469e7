"""Exception hierarchy shared by all modules.

Every error raised by this package derives from :class:`HaefligerError`,
so callers (and the CLI) can catch one base class and map subclasses to
exit codes.  A class that nothing raises any more is deleted, and its
exit code is retired rather than reused.
"""


class HaefligerError(Exception):
    """Base class for all package errors."""


class IndexOutOfRange(HaefligerError):
    """An index or size outside its range: a crossing index outside 1..m,
    a crossing count m < 0 or a dimension parameter k < 1."""


class AsymmetricEntry(HaefligerError):
    """Two conflicting linking values supplied for one unordered pair."""


class DuplicateIndex(HaefligerError):
    """A list of crossing indices contains a repeat."""


class InconsistentEvent(HaefligerError):
    """A homotopy event's data is inconsistent (e.g. index out of 1..2k-1)."""


class CurvesIntersect(HaefligerError):
    """Two curves (or a curve and itself) meet in R^3, decided exactly."""


class InvalidParams(HaefligerError):
    """Construction parameters violate a standing hypothesis."""


class MalformedToken(HaefligerError):
    """A Gauss-code token does not match O/U + label + sign."""


class LabelMismatch(HaefligerError):
    """A crossing label is missing an O or U passage, or signs disagree."""


class NonRealizable(HaefligerError):
    """The Gauss code is not the code of a planar knot diagram."""


class ParseError(HaefligerError):
    """An input file does not match the expected schema."""
