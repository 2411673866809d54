"""RL005 good fixture: complete contract, pure computer."""

from repro.saferegion.base import SafeRegion


class WholeRegion(SafeRegion):
    def probe_xy(self, x, y):
        return (True, 1)

    def size_bits(self):
        return 256

    def area(self):
        return 0.0


class PoliteComputer:
    def compute(self, cell, obstacles):
        ordered = sorted(obstacles, key=lambda r: r.area)  # local copy
        return ordered[0] if ordered else cell
