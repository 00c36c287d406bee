"""Immutable records kept in ``__slots__``.

A frozen dataclass sets each field in ``__init__`` through
``object.__setattr__``; a class over :class:`Frozen` sets them through
its slots' member descriptors (``Cls.field.__set__``), which costs about
two thirds as much, and is as immutable: assigning or deleting a field
raises :class:`dataclasses.FrozenInstanceError`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    """Base of an immutable record whose fields are its ``__slots__``,
    in constructor order.  A subclass's ``__init__`` sets each field
    through its member descriptor, and defines its own ``__eq__`` (and
    ``__hash__``, if it is hashable)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        """Copied and pickled as a constructor call on its fields."""
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
