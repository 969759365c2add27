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
    Sweep,
    circumradius,
    normalize_angle,
    overlaps,
    reach_limit,
    rect,
    rim_point,
    segments_nearest,
    separation,
    sweep_first_contact,
)
from helpers import (
    grown, sampled_overlap, sampled_sweep_blocked, scan_first_contact, support, translated,
)


def disc(x, y, r):
    return x, y, r


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
        return draw(_coords), draw(_coords), draw(_radii)
    return rect(
        draw(_coords), draw(_coords),
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
    """A cup-sized disc pulled from A to B, grown by a clearance margin."""

    A = (0, 0)
    B = (20, 0)

    def sweep(self, margin=1.0):
        return Sweep(self.A, self.B, [disc(0, 0, 4.5)], margin)

    def test_off_axis_obstacle_clears(self):
        assert not self.sweep().meets([disc(10, 20, 4.5)])

    def test_obstacle_inside_corridor_blocks(self):
        # Lateral clearance 2 < 4.5 + 1 + 4.5.
        ob = disc(10, 2, 4.5)
        assert self.sweep().meets([ob])
        assert sampled_sweep_blocked(self.A, self.B, [disc(0, 0, 4.5)], 1.0, [ob])

    def test_no_obstacles_is_clear(self):
        assert not self.sweep().meets([])

    def test_obstacle_behind_start_does_not_block(self):
        ob = disc(-10, 0, 4.0)  # 10 > 4.5 + 1 + 4
        assert not self.sweep().meets([ob])
        assert not sampled_sweep_blocked(self.A, self.B, [disc(0, 0, 4.5)], 1.0, [ob])

    def test_obstacle_at_the_end_blocks(self):
        # The mover's footprint where it stops counts, not just the strip
        # between the two centers.
        ob = disc(29, 0, 4.0)
        assert self.sweep().meets([ob])
        assert not self.sweep().meets([disc(29.6, 0, 4.0)])

    def test_rect_obstacle(self):
        ob = rect(10, 7, 17, 1.8, 0.0)  # long edge parallel, 7 - 0.9 - 4.5 = 1.6 away
        assert not self.sweep(1.5).meets([ob])
        assert self.sweep(1.7).meets([ob])

    def test_broad_phase_keeps_corner_contacts(self):
        # Corner to corner, 0.9 TOUCH_TOL apart along both axes: the
        # footprints overlap, though their centers lie more than TOUCH_TOL
        # beyond the sum of their circumradii.
        mover = rect(0, 0, 4, 2, 0.0)
        ob = rect(4 + 0.9 * TOUCH_TOL, 2 + 0.9 * TOUCH_TOL, 4, 2, 0.0)
        assert overlaps(mover, ob)
        assert math.hypot(ob[0] - mover[0], ob[1] - mover[1]) > 2 * math.hypot(2, 1) + TOUCH_TOL
        assert Sweep((0, 0), (0, 0), [mover], 0.0).meets([ob])


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
    footprints(),
    footprints(),
)
def test_corridor_monotone_in_margin(m1, m2, mover, ob):
    # A smaller margin can never turn clear into blocked.
    lo, hi = sorted((m1, m2))
    end = (70, 32)
    start = (mover[0], mover[1])
    if not Sweep(start, end, [mover], hi).meets([ob]):
        assert not Sweep(start, end, [mover], lo).meets([ob])


_sides = st.floats(min_value=1e-3, max_value=100.0)


@given(_coords, _coords, _sides, _sides, st.floats(min_value=-10.0, max_value=10.0), _sides)
def test_sweep_grows_the_mover_exactly(x, y, a, b, theta, margin):
    # ``Sweep`` grows a half side by ``margin``, which is bit for bit the
    # rectangle built with sides longer by twice it (halving and doubling
    # are exact), so the corridor is the one a grown footprint gives.
    start, length, width = (x, y), max(a, b), min(a, b)
    mover = Sweep(start, start, [rect(x, y, length, width, theta)], margin).mover[0]
    assert repr(mover) == repr(rect(x, y, length + 2 * margin, width + 2 * margin, theta))
    assert repr(Sweep(start, start, [(x, y, a)], margin).mover[0]) == repr((x, y, a + margin))


@st.composite
def sweep_cases(draw):
    """A pull (start, end, mover footprint, margin) and an obstacle placed
    so that it comes closest to the grown mover with ``separation``
    TOUCH_TOL + ``delta``, delta = +-1e-7: beside the path, or beyond
    either end.  Their nearest points face each other across the gap, so
    ``separation`` there is exact; a rectangle obstacle beside a rectangle
    mover is turned square to the path, where the projection test is exact
    too.  Some pulls have zero length."""
    start = (draw(_coords), draw(_coords))
    length = draw(st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=60.0)))
    heading = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    ux, uy = math.cos(heading), math.sin(heading)
    end = (start[0] + length * ux, start[1] + length * uy)
    margin = draw(st.floats(min_value=0.0, max_value=3.0))
    if draw(st.booleans()):
        mover = disc(start[0], start[1], draw(_radii))
    else:
        mover = rect(
            start[0], start[1], draw(st.floats(min_value=2.0, max_value=17.0)),
            draw(st.floats(min_value=0.5, max_value=2.0)), draw(_angles),
        )
    if draw(st.booleans()):
        ob = disc(0.0, 0.0, draw(_radii))
    else:
        square = st.sampled_from((0.0, math.pi / 2))
        turn = draw(_angles if len(mover) == 3 else square)
        ob = rect(
            0.0, 0.0, draw(st.floats(min_value=2.0, max_value=17.0)),
            draw(st.floats(min_value=0.5, max_value=2.0)), heading + turn,
        )
    side = draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):  # beside, at a fraction of the way
        f = draw(st.floats(min_value=0.0, max_value=1.0))
        nx, ny = -side * uy, side * ux
    else:  # beyond the end, or behind the start
        f = 1.0 if side > 0 else 0.0
        nx, ny = side * ux, side * uy
    px, py = support(grown(mover, margin), nx, ny)
    qx, qy = support(ob, -nx, -ny)
    delta = draw(st.sampled_from((-1e-7, 1e-7)))
    gap = TOUCH_TOL + delta
    center = (px + f * length * ux + gap * nx - qx, py + f * length * uy + gap * ny - qy)
    ob = center + ob[2:]
    return start, end, mover, margin, ob, delta


@settings(max_examples=200)
@given(sweep_cases())
def test_corridor_matches_sampled_reference(case):
    # The sweep passes far obstacles untested; its verdict must still be
    # that of ``overlaps`` on the grown mover stepped along the path.
    start, end, mover, margin, ob, delta = case
    blocked = Sweep(start, end, [mover], margin).meets([ob])
    assert blocked == sampled_sweep_blocked(start, end, [mover], margin, [ob]) == (delta < 0)


@st.composite
def box_cases(draw):
    """A sweep, a circumradius and centers around the sweep's ``box``: 1e-7
    either side of each of its edges, and beyond the segment's extreme
    point in each axis direction at a distance between ``radius`` + R +
    1e-6 and ``near``'s threshold, R the grown mover's circumradius.  A box
    grown by no more than the lower end leaves the latter outside."""
    start = (draw(_coords), draw(_coords))
    length = draw(st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=60.0)))
    heading = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    end = (start[0] + length * math.cos(heading), start[1] + length * math.sin(heading))
    mover = [draw(footprints()) for _ in range(draw(st.integers(1, 2)))]
    mover = [translated(fp, start[0] - fp[0], start[1] - fp[1]) for fp in mover]
    sweep = Sweep(start, end, mover, draw(st.floats(min_value=0.0, max_value=3.0)))
    radius = draw(_radii)
    x0, x1, y0, y1 = sweep.box(radius)
    edge = []
    for t in (0.0, draw(st.floats(min_value=0.0, max_value=1.0)), 1.0):
        x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        for d in (-1e-7, 1e-7):
            edge += [(x0 + d, y), (x1 - d, y), (x, y0 + d), (x, y1 - d)]
    grown_radius = max(map(circumradius, sweep.mover))
    low, high = radius + grown_radius + 1e-6, reach_limit(grown_radius, radius)
    d = low + draw(st.floats(min_value=0.01, max_value=0.99)) * (high - low)
    left, right = sorted((start, end), key=lambda p: p[0])
    bottom, top = sorted((start, end), key=lambda p: p[1])
    beyond = [
        (left[0] - d, left[1]), (right[0] + d, right[1]),
        (bottom[0], bottom[1] - d), (top[0], top[1] + d),
    ]
    return sweep, radius, edge, beyond


@settings(max_examples=200)
@given(box_cases())
def test_no_center_outside_the_box_is_near(case):
    # ``box`` is a region query for ``near``: a caller skips the centers
    # outside it, so none of them may be near.  The centers beyond the
    # segment's ends are near, so a box short of the threshold fails here.
    sweep, radius, edge, beyond = case
    x0, x1, y0, y1 = sweep.box(radius)
    for center in edge + beyond:
        if not (x0 <= center[0] <= x1 and y0 <= center[1] <= y1):
            assert not sweep.near(center[0], center[1], radius), center
    assert all(sweep.near(center[0], center[1], radius) for center in beyond)


class TestRimPoint:
    def test_angle_zero(self):
        p, theta = rim_point((0, 0), 4.5, 0.0)
        assert (*p, theta) == (4.5, 0.0, 0.0)

    def test_angle_quarter_turn(self):
        p, theta = rim_point((10, 10), 8.5, math.pi / 2)
        assert p[0] == pytest.approx(10.0)
        assert p[1] == pytest.approx(18.5)
        assert theta == pytest.approx(math.pi / 2)

    def test_angle_past_pi_normalizes(self):
        # 8.5 / sqrt(2) = 6.010407640085654; 5*pi/4 mod pi = pi/4.
        p, theta = rim_point((0, 0), 8.5, 5 * math.pi / 4)
        assert p[0] == pytest.approx(-6.010407640085654)
        assert p[1] == pytest.approx(-6.010407640085654)
        assert theta == pytest.approx(math.pi / 4)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            rim_point((0, 0), 0.0, 1.0)


@given(_coords, _coords, _radii, st.floats(min_value=-20.0, max_value=20.0))
def test_rim_point_distance_exact(cx, cy, r, angle):
    p, theta = rim_point((cx, cy), r, angle)
    assert abs(math.dist(p, (cx, cy)) - r) < 1e-9
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


class TestReachLimit:
    """Footprints whose centers lie beyond ``reach_limit`` of their
    circumradii neither overlap nor come within ``TOUCH_TOL`` on a sweep."""

    # A cup, a utensil and a square, whose diagonal lies at 45 degrees to
    # its sides.  Each turn is relative to the center line: sides along it
    # and at 45 degrees to it, and a corner pointing along it.
    SHAPES = {
        "disc": [lambda x, y, turn: disc(x, y, 4.5)],
        "rect": [
            lambda x, y, turn: rect(x, y, 17.0, 1.8, turn),
            lambda x, y, turn: rect(x, y, 2.0, 2.0, turn),
        ],
    }
    TURNS = (0.0, math.pi / 4, 0.3, -math.atan2(1.8, 17.0))

    @pytest.mark.parametrize("kinds", ["disc-disc", "disc-rect", "rect-rect"])
    def test_nothing_touches_beyond_the_limit(self, kinds):
        first, second = kinds.split("-")
        tested = 0
        for make_a in self.SHAPES[first]:
            for make_b in self.SHAPES[second]:
                limit = reach_limit(circumradius(make_a(0, 0, 0)), circumradius(make_b(0, 0, 0)))
                for step in range(48):  # 7.5 degree steps, 45 degrees among them
                    direction = step * math.pi / 24
                    ux, uy = math.cos(direction), math.sin(direction)
                    d = limit + 1e-12
                    for turn_a in self.TURNS:
                        for turn_b in self.TURNS:
                            a = make_a(0.0, 0.0, direction + turn_a)
                            b = make_b(d * ux, d * uy, direction + turn_b)
                            assert not overlaps(a, b), (a, b)
                            # Standing still, and moving apart.
                            assert sweep_first_contact(a, b, ux, uy, 0.0, TOUCH_TOL) is None
                            assert sweep_first_contact(a, b, -ux, -uy, 5.0, TOUCH_TOL) is None
                            tested += 1
        assert tested >= 48 * len(self.TURNS) ** 2

    def test_corner_contact_needs_more_than_touch_tol(self):
        # Squares corner to corner along their diagonals overlap up to
        # sqrt(2) TOUCH_TOL beyond the sum of their circumradii, so the
        # limit must reach past one TOUCH_TOL.
        r = math.hypot(1.0, 1.0)
        d = 2 * r + 1.3 * TOUCH_TOL
        a = rect(0.0, 0.0, 2.0, 2.0, 0.0)
        b = rect(d / math.sqrt(2.0), d / math.sqrt(2.0), 2.0, 2.0, 0.0)
        assert overlaps(a, b)
        assert sweep_first_contact(a, b, 1.0, 0.0, 0.0, TOUCH_TOL) == 0.0
        assert 2 * r + TOUCH_TOL < math.hypot(b[0] - a[0], b[1] - a[1]) < reach_limit(r, r)


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


def test_rect_theta_normalized():
    r = rect(0, 0, 17, 1.8, math.pi + 0.25)
    assert r[4:] == pytest.approx((math.cos(0.25), math.sin(0.25)))


def test_crossing_too_short_to_solve_is_reported_at_its_start():
    # Segments 1e-7 cm long crossing at their midpoints: the line-line
    # solve's denominator is 1e-14, inside the parallel guard, so the
    # crossing is reported at ``p1`` without the solve.
    p1, p2 = (-5e-8, 0.0), (5e-8, 0.0)
    q1, q2 = (0.0, -5e-8), (0.0, 5e-8)
    assert segments_nearest(p1, p2, q1, q2) == (0.0, p1, p1)
