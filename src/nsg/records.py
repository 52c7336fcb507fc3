"""Immutable slotted records, the frozen-dataclass surface without its import cost.

Plain records in the package are ``typing.NamedTuple``s. A record that
validates its fields or defines its own sequence protocol subclasses
:class:`FrozenRecord` instead.
"""

from __future__ import annotations


class FrozenRecord:
    """Base of immutable records whose fields are the subclass's ``__slots__``.

    A subclass sets every field once, in ``__init__``, through :meth:`_init`;
    any later assignment or deletion raises AttributeError. Two records are
    equal when they have the same class and equal fields, and equal records
    hash alike, as frozen dataclasses do.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)  # our own __setattr__ refuses

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
