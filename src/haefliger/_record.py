"""Immutable records for the package's value types.

The records need only field-wise equality, hashing and repr and a
refusal to change.  The standard library's record decorator would also
load ``inspect`` and its dependencies, which costs an exact CLI call
more than its own work does.
"""

_setattr = object.__setattr__  # bypasses Record.__setattr__, which refuses


class Record:
    """Base of an immutable record whose fields are ``_fields``, in order.

    A subclass names its fields in ``_fields``, holds them in
    ``__slots__`` and sets them once, in ``__init__``, with ``_set``.  A
    record equals only a record of the same type with equal fields (never
    a tuple of the same values), hashes its fields, and has the repr
    ``Name(field=value, ...)``.  Assigning or deleting any attribute
    raises AttributeError.  Pickling and copying call the constructor with
    the fields in order, so a copy is checked as the original was.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
