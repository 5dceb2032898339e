"""The one base of crosscap's immutable value types.

A value type lists its fields in ``__slots__``, in constructor order, and
its own ``__init__`` stores them with :data:`set_field`.  This base derives
the rest from that list as the standard library's frozen data classes do,
but without generating and compiling code when a module is imported:
instances of one class are equal when their fields are, the hash is that of
the tuple of the fields, ``repr`` reads ``Name(field=value, ...)``, and
assigning or deleting an attribute raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field past the frozen __setattr__; an __init__ calls it once per field
set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # the tuple of the field values; attrgetter of one name returns the value
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return self.__class__, self._values(self)
