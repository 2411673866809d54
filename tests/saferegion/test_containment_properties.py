"""Property-based invariants for MWPSR and its wire form.

A computed MWPSR safe region never covers an *uncovered* alarm-region
point: any point drawn from an obstacle's interior may penetrate the
safe rectangle by at most the float-slack tolerance the producers are
allowed (``region_is_safe``'s 1e-9 m), and the rectangle a device
decodes from the downlink bytes answers every point exactly like the
computed one.

This is the point-sampled restatement of the paper's safe-region
definition (i); unlike the rect-overlap check in ``test_mwpsr.py`` it
exercises the same predicate the client's monitoring loop runs, so a
disagreement between "regions are disjoint" and "this point is inside
both" cannot hide.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.protocol.messages import InstallSafeRegion
from repro.protocol.wire import WireCodec
from repro.saferegion import MWPSRComputer

CELL = Rect(0, 0, 1000, 1000)

#: The slack ``region_is_safe`` grants producers for reconstructing
#: absolute edges from subscriber-relative extents.
EDGE_TOLERANCE_M = 1e-9

coords_in_cell = st.floats(min_value=0, max_value=1000)
headings = st.floats(min_value=0.0, max_value=6.2832)
#: Interior fractions stay well clear of the obstacle boundary, so a
#: sampled point sits at least ``0.05 * min_extent`` (>= 0.05 m) inside
#: its obstacle — orders of magnitude beyond EDGE_TOLERANCE_M.
interior_fractions = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def positions_in_cell(draw):
    return Point(draw(coords_in_cell), draw(coords_in_cell))


@st.composite
def obstacles_in_cell(draw, max_count=6):
    count = draw(st.integers(min_value=1, max_value=max_count))
    rects = []
    for _ in range(count):
        x = draw(st.floats(min_value=-100, max_value=1000))
        y = draw(st.floats(min_value=-100, max_value=1000))
        w = draw(st.floats(min_value=1, max_value=400))
        h = draw(st.floats(min_value=1, max_value=400))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


def interior_point(rect, fx, fy):
    """A point at fractional offsets (fx, fy) of ``rect``'s extents."""
    return Point(rect.min_x + fx * rect.width, rect.min_y + fy * rect.height)


def penetration_depth(rect, p):
    """How far ``p`` sits inside ``rect`` (negative when outside)."""
    return min(p.x - rect.min_x, rect.max_x - p.x,
               p.y - rect.min_y, rect.max_y - p.y)


class TestMWPSRNeverCoversAlarmPoints:
    """Definition (i), point-sampled: obstacle-interior points stay out."""

    @settings(max_examples=60, deadline=None)
    @given(positions_in_cell(), headings, obstacles_in_cell(),
           interior_fractions, interior_fractions)
    def test_obstacle_interior_points_not_covered(self, position, heading,
                                                  obstacles, fx, fy):
        result = MWPSRComputer().compute(position, heading, CELL, obstacles)
        if result.inside_alarm:
            return  # definition (ii) regions legitimately overlap alarms
        for obstacle in obstacles:
            p = interior_point(obstacle, fx, fy)
            assert penetration_depth(result.rect, p) <= EDGE_TOLERANCE_M, (
                "safe region %r covers point %r inside alarm region %r"
                % (result.rect, p, obstacle))

    @settings(max_examples=60, deadline=None)
    @given(positions_in_cell(), headings, obstacles_in_cell(),
           interior_fractions, interior_fractions)
    def test_wire_roundtrip_preserves_the_guarantee(self, position, heading,
                                                    obstacles, fx, fy):
        """The encoded/decoded region a device monitors is just as safe,
        and its stay-silent verdict matches the raw rect bit-for-bit."""
        result = MWPSRComputer().compute(position, heading, CELL, obstacles)
        if result.inside_alarm:
            return
        codec = WireCodec()
        decoded = codec.decode_response(codec.encode_response(
            InstallSafeRegion(rect=result.rect))).rect
        assert CELL.contains_point(position) \
            and decoded.contains_point(position)
        for obstacle in obstacles:
            p = interior_point(obstacle, fx, fy)
            silent = CELL.contains_point(p) and decoded.contains_point(p)
            assert silent == (CELL.contains_point(p)
                              and result.rect.contains_point(p))
            if silent:
                # Staying silent inside an alarm region is only ever the
                # boundary-sliver case the tolerance permits.
                assert penetration_depth(result.rect, p) <= EDGE_TOLERANCE_M

    @settings(max_examples=60, deadline=None)
    @given(positions_in_cell(), headings, obstacles_in_cell())
    def test_region_contains_subscriber_and_stays_in_cell(self, position,
                                                          heading, obstacles):
        result = MWPSRComputer().compute(position, heading, CELL, obstacles)
        assert result.rect.contains_point(position)
        if not result.inside_alarm:
            assert CELL.contains_rect(result.rect)
