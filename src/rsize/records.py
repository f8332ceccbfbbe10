"""The immutable base of rsize's result records and hosts.

Each record (a verdict, a coloring, a witness, a value, and the hosts
`Graph` and `Hypergraph`) is a class with `__slots__` naming its fields
in order and a hand-written `__init__` that validates its arguments
before it stores them through `_set`.  `Record` refuses every later
assignment or deletion, compares and hashes records of the same class by
their field values, and names every field in its repr (the hosts list
their edges instead).  A record is not a tuple: it never equals one, and
the command line's serializer refuses it like any other object.
"""

from __future__ import annotations

__all__ = ["Record"]

# object's own setter, the one way past Record's refusal; __init__ stores
# each field through it
_set = object.__setattr__


def _rebuild(cls: type, values: tuple) -> Record:
    """A record with these field values, stored unchecked: those of a record
    already validated (copy, pickle), or of a host derived from a valid one."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(record, name, value)
    return record


class Record:
    """Frozen value semantics over the fields a subclass lists in `__slots__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle would otherwise restore the slots by setattr
        return _rebuild, (type(self), self._values())
