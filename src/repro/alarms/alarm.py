"""Spatial alarms (paper Section 1).

A spatial alarm is defined by three elements: an *alarm target* (the
future location of interest, here the rectangular region around it), an
*owner* (the publisher) and the *subscribers*.  Alarms are categorized by
publish-subscribe scope:

* **private** — installed and used exclusively by the publisher;
* **shared**  — installed by the publisher with an explicit list of
  authorized subscribers (the publisher is typically one of them);
* **public**  — subscribed to by all mobile users (the paper's
  assumption, which we adopt).

Alarms fire with one-shot semantics: a given alarm triggers at most once
per subscriber, when that subscriber first enters the alarm region
("they require one shot evaluation", Section 6).  The one-shot state is
tracked by the simulation engine, not the alarm object, which stays
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional

from ..geometry import Rect
from ..values import slot_init


class AlarmScope(Enum):
    """Publish-subscribe scope of a spatial alarm."""

    PRIVATE = "private"
    SHARED = "shared"
    PUBLIC = "public"


@slot_init
@dataclass(frozen=True, slots=True)
class SpatialAlarm:
    """An installed spatial alarm.

    ``region`` is the spatial trigger area around the alarm target.  For
    alarms on *moving* targets the registry re-indexes the alarm whenever
    the target moves; the alarm object itself is replaced (immutable
    value semantics keep the R*-tree entries trivially consistent).
    """

    alarm_id: int
    region: Rect
    scope: AlarmScope
    owner_id: int
    subscribers: FrozenSet[int] = frozenset()
    moving_target: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scope is AlarmScope.SHARED and not self.subscribers:
            raise ValueError(
                "a shared alarm needs an explicit subscriber list")
        if self.scope is AlarmScope.PRIVATE and self.subscribers:
            raise ValueError("a private alarm has no subscriber list")

    def is_relevant_to(self, user_id: int) -> bool:
        """True when the alarm can fire for ``user_id``.

        Public alarms are relevant to every user; shared alarms to their
        subscriber list and owner; private alarms only to their owner.
        """
        if self.scope is AlarmScope.PUBLIC:
            return True
        if self.scope is AlarmScope.SHARED:
            return user_id == self.owner_id or user_id in self.subscribers
        return user_id == self.owner_id

    def subscriber_set(self, all_users: FrozenSet[int]) -> FrozenSet[int]:
        """Concrete set of users this alarm can fire for."""
        if self.scope is AlarmScope.PUBLIC:
            return all_users
        if self.scope is AlarmScope.SHARED:
            return self.subscribers | {self.owner_id}
        return frozenset({self.owner_id})

    def with_region(self, region: Rect) -> "SpatialAlarm":
        """Copy of this alarm relocated to ``region`` (moving targets)."""
        return SpatialAlarm(alarm_id=self.alarm_id, region=region,
                            scope=self.scope, owner_id=self.owner_id,
                            subscribers=self.subscribers,
                            moving_target=self.moving_target,
                            label=self.label)
