"""Base of the value types that keep their fields as instance attributes.

Records and most parameter bundles are ``collections.namedtuple`` types: a
plain one, or a subclass with ``__slots__ = ()`` where the type has methods
or checks its arguments in ``__new__``.  A type whose fields are read in the
innermost loops (``BetaShape``), or that is not a sequence of its fields
(``TaskUniverse``, whose length is its number of tasks), derives from
:class:`Frozen` instead: its ``__init__`` checks its arguments and stores
each with ``object.__setattr__``, which keeps the attributes as quick to
read as a plain instance's, and the base makes the instance read-only and
compares, hashes and shows it by ``_fields``.
"""

from __future__ import annotations

from typing import Any


class Frozen:
    """Read-only once made; equal to an instance of the same class with equal ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
