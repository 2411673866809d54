"""RL005 good tree: the bad fixture verbatim, outside the rule's scope."""

from repro.saferegion.base import SafeRegion


class HalfRegion(SafeRegion):  # RL005: missing size_bits
    def probe_xy(self, x, y):
        return (True, 1)


class SilentRegion(SafeRegion):  # RL005: missing probe_xy and size_bits
    def area(self):
        return 0.0


class GreedyComputer:
    def compute(self, cell, obstacles):
        obstacles.sort(key=lambda r: r.area)  # RL005: mutates argument
        obstacles[0] = None  # RL005: subscript write to argument
        return cell
