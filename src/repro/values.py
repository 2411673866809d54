"""Frozen value types whose constructor writes through their slots.

``@dataclass(frozen=True)`` generates an ``__init__`` that stores every
field through ``object.__setattr__``, the one way round the frozen
``__setattr__``.  That generic call dominates the construction of the
small values built per fix, message, trigger, alarm or road edge.

:func:`slot_init` replaces that ``__init__`` on a frozen, slotted
dataclass with one of the same signature that stores each field through
its slot's member descriptor (``cls.__dict__[name].__set__``), about
twice as fast, and then calls ``__post_init__`` when the class defines
one.  Everything else comes from :func:`dataclasses.dataclass`
unchanged: equality, hashing and ``repr``; ``replace``, pickling and
copying; and the ``FrozenInstanceError`` on any later write or delete
of a field.  Stack it above the dataclass decorator::

    @slot_init
    @dataclass(frozen=True, slots=True)
    class Point:
        x: float
        y: float

Only plain fields are supported.  A class that is not a frozen,
slotted dataclass, and one with a ``default_factory``, ``kw_only``,
``init=False`` or ``InitVar`` field or with a field whose slot it does
not own (an inherited one), is refused with :class:`TypeError`: the
generated constructor would not do what the ``dataclasses`` one does
there.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, Field, fields, is_dataclass
from types import MemberDescriptorType
from typing import Any, Callable, Dict, List, Tuple, TypeVar

_T = TypeVar("_T", bound=type)


def _plain_fields(cls: type) -> Tuple[Field[Any], ...]:
    """The fields of ``cls``; TypeError unless :func:`slot_init` fits it."""
    name = cls.__qualname__
    params = getattr(cls, "__dataclass_params__", None)
    if not is_dataclass(cls) or params is None or not params.frozen:
        raise TypeError("slot_init needs a frozen dataclass, not %s" % name)
    if "__slots__" not in cls.__dict__:
        raise TypeError("slot_init needs a slotted dataclass "
                        "(slots=True), not %s" % name)
    declared = fields(cls)
    for field in declared:
        if field.default_factory is not MISSING:
            problem = "default_factory"
        elif field.kw_only:
            problem = "kw_only"
        elif not field.init:
            problem = "init=False"
        elif not isinstance(cls.__dict__.get(field.name),
                            MemberDescriptorType):
            problem = "no slot of its own"
        else:
            continue
        raise TypeError("slot_init cannot build %s.%s: %s"
                        % (name, field.name, problem))
    accepted = list(inspect.signature(cls.__dict__["__init__"])
                    .parameters)[1:]
    if accepted != [field.name for field in declared]:
        raise TypeError("slot_init cannot build %s: its __init__ takes %s "
                        "(an InitVar?)" % (name, ", ".join(accepted)))
    return declared


def slot_init(cls: _T) -> _T:
    """Give a frozen, slotted dataclass a slot-writing ``__init__``."""
    declared = _plain_fields(cls)
    original = cls.__dict__["__init__"]
    closure: Dict[str, Any] = {}
    arguments = ["self"]
    body: List[str] = []
    for index, field in enumerate(declared):
        setter = "__set_%d" % index
        closure[setter] = cls.__dict__[field.name].__set__
        if field.default is MISSING:
            arguments.append(field.name)
        else:
            closure["__default_%d" % index] = field.default
            arguments.append("%s=__default_%d" % (field.name, index))
        body.append("        %s(self, %s)" % (setter, field.name))
    if hasattr(cls, "__post_init__"):
        body.append("        self.__post_init__()")
    source = "\n".join(
        ["def __create_fn__(%s):" % ", ".join(closure),
         "    def __init__(%s):" % ", ".join(arguments)]
        + (body or ["        pass"])
        + ["    return __init__"])
    namespace: Dict[str, Any] = {}
    exec(source, {"__name__": __name__}, namespace)
    create: Callable[..., Any] = namespace["__create_fn__"]
    init = create(**closure)
    init.__qualname__ = "%s.__init__" % cls.__qualname__
    init.__annotations__ = dict(original.__annotations__)
    type.__setattr__(cls, "__init__", init)
    return cls
