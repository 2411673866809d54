"""The slot-writing constructor of the frozen value types.

:func:`repro.values.slot_init` replaces only ``__init__``; everything
else a frozen dataclass promises must hold unchanged for each of the
value types that carry it: the signature, equality, hashing and
``repr``, ``replace``/pickle/copy round trips, the
``FrozenInstanceError`` on a write or a delete, no instance ``__dict__``
and the validation in ``__post_init__`` (``SpatialAlarm``'s is held by
``tests/alarms/test_alarm.py``).
"""

import copy
import inspect
import math
import pickle
import struct
from dataclasses import (KW_ONLY, MISSING, FrozenInstanceError, InitVar,
                         dataclass, field, fields, replace)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import values
from repro.alarms import AlarmScope, SpatialAlarm
from repro.engine.metrics import TriggerEvent
from repro.geometry import Point, Rect
from repro.index.grid import CellId
from repro.index.pyramid import Pyramid, PyramidCell
from repro.mobility import TraceSample
from repro.protocol.messages import (AlarmNotification, AlarmRecord,
                                     InstallAlarmList, InstallSafePeriod,
                                     InstallSafeRegion, InvalidateState,
                                     LocationReport, RegionExitReport)
from repro.roadnet.graph import Edge, RoadClass
from repro.saferegion import PyramidBitmap
from repro.values import slot_init

from .budget import examples

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

#: Two unequal instances of every class built through ``slot_init``.
SAMPLES = [
    (Point(1.0, 2.0), Point(1.0, 2.5)),
    (UNIT, Rect(0.0, 0.0, 1.0, 2.0)),
    (LocationReport(7, 3, Point(1.0, 2.0), 0.5, 12.0),
     LocationReport(7, 4, Point(1.0, 2.0), 0.5, 12.0)),
    (RegionExitReport(7, 3, Point(1.0, 2.0), 0.5, 12.0),
     RegionExitReport(7, 3, Point(1.0, 2.0), -0.5, 12.0)),
    (InstallSafeRegion(rect=UNIT),
     InstallSafeRegion(rect=Rect(0.0, 0.0, 2.0, 1.0))),
    (InstallSafePeriod(30.0), InstallSafePeriod(31.0)),
    (AlarmRecord(1, UNIT), AlarmRecord(2, UNIT)),
    (InstallAlarmList(UNIT, (AlarmRecord(1, UNIT),)),
     InstallAlarmList(UNIT, ())),
    (AlarmNotification(5), AlarmNotification(6)),
    (InvalidateState(), None),
    (TriggerEvent(1.5, 7, 3), TriggerEvent(1.5, 7, 4)),
    (SpatialAlarm(3, UNIT, AlarmScope.PUBLIC, owner_id=1),
     SpatialAlarm(3, UNIT, AlarmScope.SHARED, owner_id=1,
                  subscribers=frozenset({2, 4}), label="gate")),
    (CellId(2, 3), CellId(3, 2)),
    (PyramidCell(1, 2, 3), PyramidCell(2, 2, 3)),
    (Edge(0, 1, RoadClass.LOCAL, 250.0),
     Edge(0, 1, RoadClass.HIGHWAY, 250.0)),
    (TraceSample(0.0, Point(1.0, 2.0), 0.5, 12.0),
     TraceSample(1.0, Point(1.0, 2.0), 0.5, 12.0)),
]

CLASSES = [type(first) for first, _ in SAMPLES]
IDS = [cls.__name__ for cls in CLASSES]


def field_values(value):
    return tuple(getattr(value, f.name) for f in fields(value))


def test_sixteen_distinct_value_types():
    assert len(set(CLASSES)) == 16


# ----------------------------------------------------------------------
# Every value type
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_the_init_is_the_slot_init_one(cls):
    assert cls.__init__.__module__ == values.__name__
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
    assert cls.__dataclass_params__.frozen


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_signature_matches_fields_and_defaults(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in fields(cls)]
    for parameter, declared in zip(parameters, fields(cls)):
        assert parameter.kind is parameter.POSITIONAL_OR_KEYWORD
        assert parameter.annotation == declared.type
        if declared.default is MISSING:
            assert parameter.default is parameter.empty
        else:
            assert parameter.default is declared.default


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_keyword_and_positional_construction_agree(sample):
    value, _ = sample
    by_name = {f.name: getattr(value, f.name) for f in fields(value)}
    assert type(value)(**by_name) == value
    assert type(value)(*field_values(value)) == value


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_eq_hash_and_repr_are_the_dataclass_ones(sample):
    value, other = sample
    twin = type(value)(*field_values(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(field_values(value))
    if other is not None:
        assert other != value
    assert value != field_values(value)
    assert repr(value) == "%s(%s)" % (
        type(value).__qualname__,
        ", ".join("%s=%r" % (f.name, getattr(value, f.name))
                  for f in fields(value)))


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_replace_pickle_and_copies_round_trip(sample):
    value, other = sample
    assert replace(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    if fields(value):
        first = fields(value)[0].name
        changed = replace(value, **{first: getattr(other, first)})
        assert getattr(changed, first) == getattr(other, first)


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_writes_and_deletes_raise_and_there_is_no_dict(sample):
    value, _ = sample
    assert not hasattr(value, "__dict__")
    for name in [f.name for f in fields(value)]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    # An undeclared name has no slot to land in.  The frozen
    # ``__setattr__`` that ``dataclasses`` generates for a slotted class
    # fails it with a TypeError or an AttributeError, depending on the
    # Python version, rather than FrozenInstanceError; nothing is stored.
    with pytest.raises((TypeError, AttributeError)):
        value.undeclared = 0
    assert not hasattr(value, "undeclared")


# ----------------------------------------------------------------------
# Validation still runs
# ----------------------------------------------------------------------
def test_malformed_rect_raises():
    with pytest.raises(ValueError, match="malformed rectangle"):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="malformed rectangle"):
        Rect(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="malformed rectangle"):
        replace(UNIT, min_x=2.0)


def test_install_safe_region_carries_exactly_one_representation():
    bitmap = PyramidBitmap.from_obstacles(Pyramid(UNIT, height=1), [])
    assert InstallSafeRegion(cell_ref=4, bitmap=bitmap).kind == "bitmap"
    with pytest.raises(ValueError, match="exactly one"):
        InstallSafeRegion()
    with pytest.raises(ValueError, match="exactly one"):
        InstallSafeRegion(UNIT, 4, bitmap)
    with pytest.raises(ValueError, match="exactly one"):
        InstallSafeRegion(cell_ref=4)


floats = st.floats(allow_nan=True, allow_infinity=True)


def same_bits(left, right):
    return ([struct.pack("<d", v) for v in field_values(left)]
            == [struct.pack("<d", v) for v in field_values(right)])


@settings(max_examples=examples(200, 2000), deadline=None)
@given(floats, floats, floats, floats)
def test_rect_raises_exactly_when_malformed(min_x, min_y, max_x, max_y):
    if min_x > max_x or min_y > max_y:
        with pytest.raises(ValueError, match="malformed rectangle"):
            Rect(min_x, min_y, max_x, max_y)
        return
    rect = Rect(min_x, min_y, max_x, max_y)  # NaN is accepted, as before
    assert replace(rect) == rect
    unpickled = pickle.loads(pickle.dumps(rect))
    assert same_bits(unpickled, rect)
    if not any(math.isnan(v) for v in field_values(rect)):
        assert unpickled == rect


# ----------------------------------------------------------------------
# What the decorator refuses
# ----------------------------------------------------------------------
def test_refuses_a_class_that_is_not_a_dataclass():
    class Plain:
        __slots__ = ("x",)

    with pytest.raises(TypeError, match="frozen dataclass"):
        slot_init(Plain)


def test_refuses_a_mutable_dataclass():
    @dataclass(slots=True)
    class Mutable:
        x: int

    with pytest.raises(TypeError, match="frozen dataclass"):
        slot_init(Mutable)


def test_refuses_a_dataclass_without_slots():
    @dataclass(frozen=True)
    class Unslotted:
        x: int

    with pytest.raises(TypeError, match="slots=True"):
        slot_init(Unslotted)


def test_refuses_a_default_factory():
    @dataclass(frozen=True, slots=True)
    class Factory:
        xs: tuple = field(default_factory=tuple)

    with pytest.raises(TypeError, match="default_factory"):
        slot_init(Factory)


def test_refuses_kw_only_fields():
    @dataclass(frozen=True, slots=True)
    class KeywordField:
        x: int = field(kw_only=True)

    @dataclass(frozen=True, slots=True)
    class KeywordMarker:
        x: int
        _: KW_ONLY
        y: int

    @dataclass(frozen=True, slots=True, kw_only=True)
    class KeywordClass:
        x: int

    for cls in (KeywordField, KeywordMarker, KeywordClass):
        with pytest.raises(TypeError, match="kw_only"):
            slot_init(cls)


def test_refuses_an_init_var():
    @dataclass(frozen=True, slots=True)
    class WithInitVar:
        x: int
        scale: InitVar[int]

    with pytest.raises(TypeError, match="InitVar"):
        slot_init(WithInitVar)


def test_refuses_a_field_outside_init():
    @dataclass(frozen=True, slots=True)
    class Hidden:
        x: int
        y: int = field(init=False, default=0)

    with pytest.raises(TypeError, match="init=False"):
        slot_init(Hidden)


def test_refuses_an_inherited_slot():
    @dataclass(frozen=True, slots=True)
    class Base:
        x: int

    @dataclass(frozen=True, slots=True)
    class Derived(Base):
        y: int

    with pytest.raises(TypeError, match="no slot of its own"):
        slot_init(Derived)


def test_an_accepted_class_keeps_its_defaults_and_post_init():
    seen = []

    @slot_init
    @dataclass(frozen=True, slots=True)
    class Checked:
        x: int
        y: int = 3

        def __post_init__(self):
            seen.append((self.x, self.y))

    assert Checked(1) == Checked(1, 3) == Checked(x=1, y=3)
    assert str(inspect.signature(Checked)) == "(x: int, y: int = 3) -> None"
    assert seen == [(1, 3)] * 3
    with pytest.raises(TypeError):
        Checked()
    with pytest.raises(TypeError):
        Checked(1, 2, 3)
