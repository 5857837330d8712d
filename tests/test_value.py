"""The seven value classes declare their fields once, in __slots__: equality,
hashing, the repr and _freeze all read them from there."""

from fractions import Fraction

import pytest

from cyclade._value import FrozenValue, Value
from cyclade.graphs import GraphFamily, RootedBipartiteGraph
from cyclade.measures import ExpansionResult, RealMeasure, basic_measure
from cyclade.transforms import XiExpression, XiFactor
from cyclade.verify import CheckResult, VerificationReport

# each class with two lists of field values that differ in every slot, so
# that any one slot of the first can be swapped for that of the second
_FIELDS = {
    GraphFamily: (["A", 3], ["D", 4]),
    RootedBipartiteGraph: ([2, ((1,), (0,)), 0], [3, ((1,), (0, 2), (1,)), 1]),
    XiExpression: ([(XiFactor(2, False),), (XiFactor(3, False),)],
                   [(XiFactor(5, True),), ()]),
    RealMeasure: ([basic_measure("d", 2)], [basic_measure("d", 3)]),
    ExpansionResult: ([3, {0: Fraction(1)}, True], [4, {0: Fraction(2)}, False]),
    CheckResult: (["thm2.5/A", "pass", 8, 0.5, ""], ["thm2.5/D", "fail", 9, 0.25, "x"]),
    VerificationReport: ([8, []], [9, [CheckResult("thm2.5/A", "pass", 8, 0.5)]]),
}
_CLASSES = list(_FIELDS)
_FROZEN = [cls for cls in _CLASSES if issubclass(cls, FrozenValue)]


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_class_is_listed():
    subclasses = set(Value.__subclasses__()) | set(FrozenValue.__subclasses__())
    assert subclasses - {FrozenValue} == set(_FIELDS)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_fields_come_from_slots(cls):
    base, _ = _FIELDS[cls]
    value = cls(*base)
    assert [getattr(value, name) for name in cls.__slots__] == base
    assert value._key() == tuple(base)
    assert value == cls(*base)
    fields = ", ".join(f"{name}={v!r}" for name, v in zip(cls.__slots__, base))
    assert repr(value) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_instances_differing_in_one_slot_are_unequal(cls):
    base, other = _FIELDS[cls]
    value = cls(*base)
    for i in range(len(cls.__slots__)):
        changed = cls(*base[:i], other[i], *base[i + 1:])
        assert value != changed
        assert not value == changed


@pytest.mark.parametrize("cls", _FROZEN, ids=lambda c: c.__name__)
def test_frozen_values_hash_as_their_slot_tuple(cls):
    # RealMeasure and ExpansionResult hold an unhashable field, so they and
    # their tuples both refuse to hash
    for fields in _FIELDS[cls]:
        a, b = cls(*fields), cls(*fields)
        assert a == b and a is not b
        assert _hash_or_type_error(a) == _hash_or_type_error(b)
        assert _hash_or_type_error(a) == _hash_or_type_error(tuple(fields))
    assert _hash_or_type_error(GraphFamily("E7")) == hash(("E7", 7))


@pytest.mark.parametrize("cls", _FROZEN, ids=lambda c: c.__name__)
def test_freeze_refuses_a_wrong_count(cls):
    base, _ = _FIELDS[cls]
    for values in (base[:-1], [*base, None], []):
        with pytest.raises(ValueError):
            object.__new__(cls)._freeze(*values)
    value = object.__new__(cls)
    value._freeze(*base)
    assert value == cls(*base)
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], base[0])
