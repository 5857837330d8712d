"""Bases of the plain value classes: slotted, with the equality and repr a
dataclass would give, and no import beyond the builtins.  A subclass
declares its fields once, as ``__slots__``, which all of these read."""


class Value:
    """Equality by the field tuple ``_key()``, and the repr, in ``__slots__``
    order."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenValue(Value):
    """A hashable Value, hashed as its field tuple; its __init__ sets the
    fields through _freeze, and assignment after that raises AttributeError."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        """Set the __slots__ fields in order, one value each, else ValueError."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
