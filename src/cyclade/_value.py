"""Bases of the plain value classes: slotted, with the equality and repr a
dataclass would give, and no import beyond the builtins."""


class Value:
    """Equality by the field tuple ``_key()`` that each subclass defines;
    the repr lists the fields in ``__slots__`` order."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenValue(Value):
    """A hashable Value; its __init__ sets the fields with
    object.__setattr__, and assignment after that raises AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
