"""Helpers for the invalidate-by-footprint tests (dynamic and tracking).

A mutating-world run is identical to the static run until its first
change, so a *scout* — a static replay, one fix per call, that logs
every client's footprint after every fix — says what each client will
be holding when a change lands at a chosen step.  The tests place
installs and target moves against those footprints.
"""

import math

import repro.engine.simulation as session
from repro.engine import verify_accuracy
from repro.geometry import Rect

from .test_golden_protocol import STRATEGY_NAMES, _factory
from .test_replay_oracle import one_fix_window, reference_replay

#: The strategies (of ``STRATEGY_NAMES``, all six) whose installed state
#: answers for an area.
FOOTPRINT_STRATEGIES = ("rectangular", "adaptive", "bitmap", "optimal")


def make_strategy(name, world):
    return _factory(name, world.max_speed())()


def scout(world, name):
    """``{user_id: [footprint after fix 0, after fix 1, ...]}``."""
    log = {}

    def logging_fix(strategy, client, trace, index):
        one_fix_window(strategy, client, trace, index)
        log.setdefault(client.user_id, []).append(client.footprint)

    metrics, _clients = reference_replay(world, make_strategy(name, world),
                                         fix=logging_fix)
    assert verify_accuracy(world.ground_truth(), metrics).perfect
    return log


def record_pushes(monkeypatch):
    """Patch the session's push; returns the list it appends
    ``(user_id, time)`` to."""
    pushes = []
    invalidate = session._invalidate

    def recording(client, link, time_s):
        pushes.append((client.user_id, time_s))
        invalidate(client, link, time_s)

    monkeypatch.setattr(session, "_invalidate", recording)
    return pushes


def touching(log, step, regions):
    """Users whose footprint just before ``step`` closed-intersects a
    region."""
    return {user for user, footprints in log.items()
            if step - 1 < len(footprints)
            and footprints[step - 1] is not None
            and any(footprints[step - 1].intersects(region)
                    for region in regions)}


_SIDES = {"left": ("min_x", -1.0), "right": ("max_x", 1.0),
          "bottom": ("min_y", -1.0), "top": ("max_y", 1.0)}


def roomy_rectangle(world, log, margin=60.0, earliest=20):
    """``(user, step, footprint, side)`` of a rectangle that leaves
    ``margin`` metres of its own cell free on ``side``."""
    for user, footprints in sorted(log.items()):
        for step in range(earliest, len(footprints)):
            footprint = footprints[step - 1]
            if footprint is None or footprint.is_degenerate():
                continue
            cell = world.grid.cell_rect_of_point(
                world.traces[user][step - 1].position)
            assert cell.contains_rect(footprint)
            for side, (edge, sign) in _SIDES.items():
                if sign * (getattr(cell, edge)
                           - getattr(footprint, edge)) > margin:
                    return user, step, footprint, side
    raise AssertionError("no rectangle leaves %g m of its cell free" % margin)


def placements(footprint, side, universe):
    """Named regions placed against ``footprint`` on its ``side``."""
    f = footprint
    edge_name, sign = _SIDES[side]
    edge = getattr(f, edge_name)

    def outward(start, depth, low=None, high=None):
        """``depth`` metres outward from coordinate ``start``, across
        ``[low, high]`` (default: the whole side)."""
        near, far = sorted((start, start + sign * depth))
        if side in ("left", "right"):
            return Rect(near, f.min_y if low is None else low,
                        far, f.max_y if high is None else high)
        return Rect(f.min_x if low is None else low, near,
                    f.max_x if high is None else high, far)

    across_max = f.max_y if side in ("left", "right") else f.max_x
    across_center = f.center.y if side in ("left", "right") else f.center.x
    regions = {
        "in the cell, clear of the rectangle": outward(edge + sign * 10.0,
                                                       40.0),
        "sharing an edge": outward(edge, 50.0),
        "sharing a corner": outward(edge, 50.0, across_max,
                                    across_max + 50.0),
        "overlapping by one ulp":
            outward(math.nextafter(edge, -sign * math.inf), 50.0),
        "one ulp clear":
            outward(math.nextafter(edge, sign * math.inf), 50.0),
        "covering it": f.expanded(5.0),
        "inside it":
            Rect.from_center(f.center, f.width / 2.0, f.height / 2.0),
        "zero-area, across it":
            outward(edge + sign * 5.0, -(f.width + f.height),
                    across_center, across_center),
    }
    return {name: region.intersection(universe)
            for name, region in regions.items()}


#: The placement names, for parametrizing.
PLACEMENTS = tuple(placements(Rect(0.0, 0.0, 9.0, 9.0), "right",
                              Rect(-99.0, -99.0, 99.0, 99.0)))


def exit_step(log, world, earliest=20):
    """``(user, step, gap)``: at ``step`` the user's fix falls outside
    the rectangle it held, by ``gap`` metres (max-norm)."""
    for user, footprints in sorted(log.items()):
        for step in range(earliest, len(footprints)):
            held = footprints[step - 1]
            position = world.traces[user][step].position
            if held is None or held.contains_point(position):
                continue
            gap = max(held.min_x - position.x, position.x - held.max_x,
                      held.min_y - position.y, position.y - held.max_y)
            if gap > 1e-6:
                return user, step, gap
    raise AssertionError("nobody ever leaves a rectangle")
