"""Geometry predicates: worked examples plus property tests.

Derived expectations are cross-checked against dense point-sampling
oracles from helpers so the analytic predicates never self-certify.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declutter.geometry import (
    TOUCH_TOL,
    Disc,
    OrientedRect,
    Point2,
    corridor_clear,
    dist,
    normalize_angle,
    overlaps,
    rim_point,
    separation,
    sweep_first_contact,
)
from helpers import sampled_corridor_blocked, sampled_overlap, scan_first_contact


def disc(x, y, r):
    return Disc(Point2(x, y), r)


def rect(x, y, length, width, theta):
    return OrientedRect(Point2(x, y), length, width, theta)


class TestOverlaps:
    def test_far_discs_do_not_overlap(self):
        assert not overlaps(disc(10, 10, 4.5), disc(30, 10, 4.5))

    def test_near_bowls_overlap(self):
        assert overlaps(disc(10, 10, 8.5), disc(20, 10, 8.5))

    def test_touching_discs_count_as_overlapping(self):
        assert overlaps(disc(0, 0, 4.5), disc(9.0, 0, 4.5))

    def test_rect_disc_close_approach(self):
        # Closest rect point (18.5, 10) is 0.5 from the disc center, < 4.5.
        a = rect(10, 10, 17, 1.8, 0.0)
        b = disc(19, 10, 4.5)
        assert overlaps(a, b)
        assert sampled_overlap(a, b)

    def test_rect_disc_separated(self):
        a = rect(10, 10, 17, 1.8, 0.0)
        b = disc(28, 10, 4.5)  # gap 5.0 beyond the rect end
        assert not overlaps(a, b)
        assert not sampled_overlap(a, b)

    def test_crossed_rects_overlap(self):
        a = rect(10, 10, 17, 1.8, 0.0)
        b = rect(10, 10, 17, 1.8, math.pi / 2)
        assert overlaps(a, b)
        assert sampled_overlap(a, b)

    def test_parallel_rects_side_by_side(self):
        a = rect(10, 10, 17, 1.8, 0.0)
        assert overlaps(a, rect(10, 11.7, 17, 1.8, 0.0))  # gap -0.1
        assert not overlaps(a, rect(10, 12.0, 17, 1.8, 0.0))  # gap 0.2


_coords = st.floats(min_value=0.0, max_value=78.0)
_radii = st.floats(min_value=0.5, max_value=9.0)
_angles = st.floats(min_value=0.0, max_value=math.pi - 1e-9)


@st.composite
def footprints(draw):
    if draw(st.booleans()):
        return Disc(Point2(draw(_coords), draw(_coords)), draw(_radii))
    return OrientedRect(
        Point2(draw(_coords), draw(_coords)),
        draw(st.floats(min_value=2.0, max_value=17.0)),
        draw(st.floats(min_value=0.5, max_value=2.0)),
        draw(_angles),
    )


@given(footprints(), footprints())
def test_overlaps_symmetric(a, b):
    assert overlaps(a, b) == overlaps(b, a)


@given(footprints())
def test_overlaps_reflexive(fp):
    assert overlaps(fp, fp)


@settings(max_examples=60)
@given(footprints(), footprints())
def test_sampling_oracle_never_contradicts_overlap(a, b):
    # One-sided: a shared sampled point proves intersection.
    if sampled_overlap(a, b, grid=60):
        assert separation(a, b) <= 1e-6


class TestCorridor:
    A = Point2(0, 0)
    B = Point2(20, 0)

    def test_off_axis_obstacle_clears(self):
        assert corridor_clear(self.A, self.B, 5.0, [disc(10, 20, 4.5)])

    def test_obstacle_inside_corridor_blocks(self):
        # Lateral clearance 2 < 5 + 4.5.
        ob = disc(10, 2, 4.5)
        assert not corridor_clear(self.A, self.B, 5.0, [ob])
        assert sampled_corridor_blocked(self.A, self.B, 5.0, ob)

    def test_no_obstacles_is_clear(self):
        assert corridor_clear(self.A, self.B, 5.0, [])

    def test_obstacle_behind_start_does_not_block(self):
        ob = disc(-8, 0, 4.0)
        assert corridor_clear(self.A, self.B, 3.0, [ob])
        assert not sampled_corridor_blocked(self.A, self.B, 3.0, ob)

    def test_rect_obstacle(self):
        ob = rect(10, 7, 17, 1.8, 0.0)  # long edge parallel, 7 - 0.9 = 6.1 away
        assert corridor_clear(self.A, self.B, 6.0, [ob])
        assert not corridor_clear(self.A, self.B, 6.2, [ob])

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            corridor_clear(self.A, self.B, -1.0, [])


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    footprints(),
)
def test_corridor_monotone_in_half_width(w1, w2, ob):
    # Shrinking the corridor can never turn clear into blocked.
    lo, hi = sorted((w1, w2))
    a, b = Point2(5, 30), Point2(70, 32)
    if corridor_clear(a, b, hi, [ob]):
        assert corridor_clear(a, b, lo, [ob])


@st.composite
def corridor_cases(draw):
    """A corridor (start, end, half-width) and an obstacle placed 1e-7 inside
    or outside the reach of ``overlaps`` along one of the corridor's axes:
    beside the corridor or beyond one of its ends.  Some corridors have zero
    length."""
    a = Point2(draw(_coords), draw(_coords))
    length = draw(st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=60.0)))
    heading = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    b = Point2(a.x + length * math.cos(heading), a.y + length * math.sin(heading))
    half_width = draw(st.floats(min_value=0.5, max_value=10.0))
    # The corridor's own axes, as corridor_clear takes them.
    half_len = dist(a, b) / 2.0
    theta = math.atan2(b.y - a.y, b.x - a.x) if half_len > 0 else 0.0
    ux, uy = math.cos(theta), math.sin(theta)
    if draw(st.booleans()):
        radius = draw(_radii)
        reach_along = reach_across = radius

        def obstacle(center):
            return Disc(center, radius)
    else:
        ob_len = draw(st.floats(min_value=2.0, max_value=17.0))
        ob_wid = draw(st.floats(min_value=0.5, max_value=2.0))
        turn = draw(_angles)
        cos_turn, sin_turn = abs(math.cos(turn)), abs(math.sin(turn))
        reach_along = ob_len / 2 * cos_turn + ob_wid / 2 * sin_turn
        reach_across = ob_len / 2 * sin_turn + ob_wid / 2 * cos_turn

        def obstacle(center):
            return OrientedRect(center, ob_len, ob_wid, theta + turn)

    side = draw(st.sampled_from((-1, 1)))
    slide = draw(st.floats(min_value=-1.0, max_value=1.0))
    delta = draw(st.sampled_from((-1e-7, 1e-7)))
    if draw(st.booleans()):  # beside
        along = slide * half_len
        across = side * (half_width + reach_across + TOUCH_TOL + delta)
    else:  # beyond an end
        along = side * (half_len + reach_along + TOUCH_TOL + delta)
        across = slide * half_width
    cx, cy = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
    center = Point2(cx + along * ux - across * uy, cy + along * uy + across * ux)
    return a, b, half_width, obstacle(center), delta


@settings(max_examples=400)
@given(corridor_cases())
def test_corridor_clear_matches_overlaps_reference(case):
    # corridor_clear passes far obstacles untested; the verdict must still
    # be that of ``overlaps`` on the corridor as an OrientedRect.
    a, b, half_width, ob, delta = case
    length = dist(a, b)
    theta = math.atan2(b.y - a.y, b.x - a.x) if length > 1e-12 else 0.0
    center = Point2((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    if 2 * half_width > length:
        # Axes swapped, as an OrientedRect's length is its longer side.  A
        # zero-length corridor is a segment across the start; 1e-12 of
        # width moves its edges far less than the obstacle's 1e-7 offset.
        corridor = OrientedRect(center, 2 * half_width, max(length, 1e-12), theta + math.pi / 2)
    else:
        corridor = OrientedRect(center, length, 2 * half_width, theta)
    clear = corridor_clear(a, b, half_width, [ob])
    assert clear == (not overlaps(corridor, ob))
    if isinstance(ob, Disc):  # the reach along either axis is exact for a disc
        assert clear == (delta > 0)


class TestRimPoint:
    def test_angle_zero(self):
        p, theta = rim_point(Point2(0, 0), 4.5, 0.0)
        assert (p.x, p.y, theta) == (4.5, 0.0, 0.0)

    def test_angle_quarter_turn(self):
        p, theta = rim_point(Point2(10, 10), 8.5, math.pi / 2)
        assert p.x == pytest.approx(10.0)
        assert p.y == pytest.approx(18.5)
        assert theta == pytest.approx(math.pi / 2)

    def test_angle_past_pi_normalizes(self):
        # 8.5 / sqrt(2) = 6.010407640085654; 5*pi/4 mod pi = pi/4.
        p, theta = rim_point(Point2(0, 0), 8.5, 5 * math.pi / 4)
        assert p.x == pytest.approx(-6.010407640085654)
        assert p.y == pytest.approx(-6.010407640085654)
        assert theta == pytest.approx(math.pi / 4)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            rim_point(Point2(0, 0), 0.0, 1.0)


@given(_coords, _coords, _radii, st.floats(min_value=-20.0, max_value=20.0))
def test_rim_point_distance_exact(cx, cy, r, angle):
    p, theta = rim_point(Point2(cx, cy), r, angle)
    assert abs(dist(p, Point2(cx, cy)) - r) < 1e-9
    assert 0.0 <= theta < math.pi


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_normalize_angle_range(theta):
    assert 0.0 <= normalize_angle(theta) < math.pi


class TestSweep:
    def test_disc_disc_head_on(self):
        t = sweep_first_contact(disc(10, 10, 4.5), disc(40, 10, 4.5), 1.0, 0.0, 30.0)
        assert t == pytest.approx(21.0, abs=1e-9)

    def test_disc_never_meets(self):
        assert sweep_first_contact(disc(0, 0, 2.0), disc(50, 30, 2.0), 1.0, 0.0, 40.0) is None

    def test_disc_into_rect_matches_scan(self):
        moving = disc(0, 11, 4.5)
        static = rect(30, 10, 17, 1.8, math.pi / 3)
        t = sweep_first_contact(moving, static, 1.0, 0.0, 35.0)
        t_scan = scan_first_contact(moving, static, 1.0, 0.0, 35.0)
        assert t is not None and t_scan is not None
        assert t == pytest.approx(t_scan, abs=1e-3)

    def test_rect_into_disc_matches_scan(self):
        moving = rect(0, 10, 17, 1.8, 0.3)
        static = disc(40, 12, 8.5)
        t = sweep_first_contact(moving, static, 1.0, 0.05, 45.0)
        t_scan = scan_first_contact(moving, static, 1.0, 0.05, 45.0)
        assert t is not None and t_scan is not None
        assert t == pytest.approx(t_scan, abs=1e-3)

    def test_rect_into_rect_matches_scan(self):
        moving = rect(5, 5, 17, 1.8, 0.2)
        static = rect(40, 9, 17, 1.8, 2.1)
        ux, uy = 0.99, 0.141
        norm = math.hypot(ux, uy)
        ux, uy = ux / norm, uy / norm
        t = sweep_first_contact(moving, static, ux, uy, 40.0)
        t_scan = scan_first_contact(moving, static, ux, uy, 40.0)
        assert t is not None and t_scan is not None
        assert t == pytest.approx(t_scan, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(footprints(), footprints(), _angles)
def test_sweep_matches_scan_oracle(moving, static, direction):
    ux, uy = math.cos(direction), math.sin(direction)
    t_max = 60.0
    if overlaps(moving, static):
        return
    t = sweep_first_contact(moving, static, ux, uy, t_max)
    t_scan = scan_first_contact(moving, static, ux, uy, t_max, steps=4000)
    if t is None:
        assert t_scan is None
    else:
        # The scan can only miss sub-step grazing contacts, never report
        # an earlier one.
        assert t_scan is None or t <= t_scan + 1e-3
        if t_scan is not None:
            assert t == pytest.approx(t_scan, abs=0.1)


def test_footprint_validation():
    with pytest.raises(ValueError):
        Disc(Point2(0, 0), -1.0)
    with pytest.raises(ValueError):
        OrientedRect(Point2(0, 0), 1.0, 2.0, 0.0)  # width > length
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def test_rect_theta_normalized():
    r = OrientedRect(Point2(0, 0), 17, 1.8, math.pi + 0.25)
    assert r.theta == pytest.approx(0.25)
