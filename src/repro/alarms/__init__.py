"""Spatial alarm model: alarms, scopes, server-side registry."""

from .alarm import AlarmScope, SpatialAlarm
from .io import load_alarms, save_alarms
from .registry import (AlarmRegistry, install_clustered_alarms,
                       install_random_alarms)

__all__ = [
    "AlarmRegistry",
    "AlarmScope",
    "SpatialAlarm",
    "install_clustered_alarms",
    "install_random_alarms",
    "load_alarms",
    "save_alarms",
]
