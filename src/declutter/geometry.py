"""Planar geometry for scene generation and grasp feasibility.

Everything lives in double-precision centimeters.  A point is a plain
``(x, y)`` float tuple (``XY``).  A footprint is a dish seen top-down, as
a tuple of plain floats (``Footprint``): a disc (cups and bowls) or an
oriented rectangle (utensils).  Touching counts as overlapping, with a
tolerance of ``TOUCH_TOL`` centimeters, because scene generation treats
contact as intersection.
"""

from __future__ import annotations

import math
from typing import Iterable

TOUCH_TOL = 1e-6

_EPS = 1e-12


def normalize_angle(theta: float) -> float:
    """Map an angle to the gripper-equivalent range [0, pi)."""
    t = theta % math.pi
    if t >= math.pi:
        t = 0.0
    return t


# A footprint centered at (x, y): a disc of radius r is (x, y, r), and a
# rectangle is (x, y, length / 2, width / 2, cos theta, sin theta), its
# theta normalized (``rect``).  ``len(fp) == 3`` tells a disc.
Footprint = tuple[float, ...]

XY = tuple[float, float]


def rect(x: float, y: float, length: float, width: float, theta: float) -> Footprint:
    """The rectangle footprint centered at (x, y), its long side turned by ``theta``."""
    t = normalize_angle(theta)
    return x, y, length / 2.0, width / 2.0, math.cos(t), math.sin(t)


def circumradius(fp: Footprint) -> float:
    """Radius of the smallest disc centered at the footprint center covering it."""
    if len(fp) == 3:
        return fp[2]
    return math.hypot(fp[2], fp[3])


def reach_limit(ra: float, rb: float) -> float:
    """Center distance beyond which footprints of circumradii ``ra`` and
    ``rb`` cannot ``overlaps``.

    Each footprint lies within its circumradius of its center.  For disc
    and disc, or disc and rectangle, ``separation`` is the true gap, so at
    most ``TOUCH_TOL`` puts the centers within ``ra + rb + TOUCH_TOL``.
    For two rectangles it is the largest gap along their edge normals; at
    most ``TOUCH_TOL``, they intersect once one grows by ``TOUCH_TOL`` on
    every side, which adds at most sqrt(2) ``TOUCH_TOL`` to its
    circumradius.  1e-9 covers rounding.  Grasp loci (rims, utensil axes)
    within ``ra`` and ``rb`` of two centers are at least the center
    distance less this limit apart.
    """
    return ra + rb + 2 * TOUCH_TOL + 1e-9


def _extent_along(axis: tuple[float, float], ux, uy, half_len, half_wid) -> float:
    ax, ay = axis
    return half_len * abs(ux[0] * ax + ux[1] * ay) + half_wid * abs(uy[0] * ax + uy[1] * ay)


def separation(a: Footprint, b: Footprint) -> float:
    """Gap between two footprints; <= 0 when they overlap or touch.

    For two discs, or a disc and a rectangle, it is the true gap.  For two
    rectangles it is the largest gap along their four edge normals: two
    convex polygons are disjoint iff some edge normal separates them, so it
    is positive exactly when they are apart, and then it lower-bounds the
    true gap, which is enough because only the sign is used.
    """
    if len(a) == 3:
        if len(b) == 3:
            return math.hypot(a[0] - b[0], a[1] - b[1]) - a[2] - b[2]
        a, b = b, a
    # a is a rect here
    ax, ay, hl, hw, c, s = a
    dx = b[0] - ax
    dy = b[1] - ay
    if len(b) == 3:
        # The disc center's distance from the rect, in the rect's frame.
        ox = max(abs(dx * c + dy * s) - hl, 0.0)
        oy = max(abs(-dx * s + dy * c) - hw, 0.0)
        return math.hypot(ox, oy) - b[2]
    _, _, hl2, hw2, c2, s2 = b
    ux1, uy1, ux2, uy2 = (c, s), (-s, c), (c2, s2), (-s2, c2)
    best = -math.inf
    for axis in (ux1, uy1, ux2, uy2):
        d = abs(dx * axis[0] + dy * axis[1])
        gap = d - (_extent_along(axis, ux1, uy1, hl, hw) + _extent_along(axis, ux2, uy2, hl2, hw2))
        if gap > best:
            best = gap
    return best


def overlaps(a: Footprint, b: Footprint) -> bool:
    """True iff the closed regions intersect (touching counts)."""
    return separation(a, b) <= TOUCH_TOL


def rim_point(center: XY, radius: float, angle: float) -> tuple[XY, float]:
    """Point on a rim circle plus the gripper angle perpendicular to the tangent.

    The perpendicular-to-tangent direction is the radial direction, so the
    gripper angle is ``angle`` normalized to [0, pi).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x, y = center
    return (x + radius * math.cos(angle), y + radius * math.sin(angle)), normalize_angle(angle)


# ---------------------------------------------------------------------------
# Segments (utensil grasp candidates live on the utensil axis)
# ---------------------------------------------------------------------------


def closest_on_segment(p: XY, a: XY, b: XY) -> XY:
    """The point of segment ``a``-``b`` nearest to ``p``."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom < _EPS:
        return a
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if not t > 0.0:  # min(1.0, max(0.0, t)), without the calls
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return ax + t * abx, ay + t * aby


def segments_nearest(p1: XY, p2: XY, q1: XY, q2: XY) -> tuple[float, XY, XY]:
    """Distance between segments ``p1``-``p2`` and ``q1``-``q2`` plus the
    witness points realizing it."""
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = p1, p2, q1, q2
    rx, ry = p2x - p1x, p2y - p1y
    sx, sy = q2x - q1x, q2y - q1y
    # The signed areas of each segment's ends against the other's line.
    d1 = sx * (p1y - q1y) - sy * (p1x - q1x)
    d2 = sx * (p2y - q1y) - sy * (p2x - q1x)
    d3 = rx * (q1y - p1y) - ry * (q1x - p1x)
    d4 = rx * (q2y - p1y) - ry * (q2x - p1x)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        # A proper crossing, found by a line-line solve; both witnesses coincide.
        denom = rx * sy - ry * sx
        if abs(denom) < _EPS:
            return 0.0, p1, p1
        t = ((q1x - p1x) * sy - (q1y - p1y) * sx) / denom
        ip = (p1x + t * rx, p1y + t * ry)
        return 0.0, ip, ip
    best = (math.inf, p1, q1)
    for p, a, b, swap in (
        (p1, q1, q2, False), (p2, q1, q2, False), (q1, p1, p2, True), (q2, p1, p2, True),
    ):
        cx, cy = cp = closest_on_segment(p, a, b)
        d = math.hypot(p[0] - cx, p[1] - cy)
        if d < best[0]:
            best = (d, cp, p) if swap else (d, p, cp)
    return best


# ---------------------------------------------------------------------------
# Linear sweeps: first contact time of a footprint translating at unit
# velocity (ux, uy) toward a static footprint.  Used to plan pull endpoints
# exactly (contact gap 0).
# ---------------------------------------------------------------------------


def _quad_entry(a: float, b: float, c: float, t_max: float) -> float | None:
    """First t in [0, t_max] with a*t^2 + 2bt + c <= 0 (a > 0), or None."""
    if a < _EPS:
        return 0.0 if c <= 0 else None
    disc = b * b - a * c
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    lo = (-b - sq) / a
    if (-b + sq) / a < 0 or lo > t_max:
        return None
    return 0.0 if lo < 0.0 else lo


def _sweep_disc_rect(x0: float, y0: float, r: float, vx: float, vy: float,
                     sta: Footprint, t_max: float):
    # Work in the rect's local frame; the swept region is the rect inflated
    # by r: two core bands (the rect grown by r along x, then along y),
    # each entered once inside both its slabs (the times with |p + t*v| <=
    # half), and four corner discs.  The first entry in [0, t_max] wins.
    rx, ry, hl, hw, ct, st = sta
    dx = x0 - rx
    dy = y0 - ry
    px = dx * ct + dy * st
    py = -dx * st + dy * ct
    lvx = vx * ct + vy * st
    lvy = -vx * st + vy * ct

    best = None
    for half_x, half_y in ((hl + r, hw), (hl, hw + r)):
        if abs(lvx) < _EPS:  # never crosses the slab: always or never inside
            if abs(px) > half_x:
                continue
            lo, hi = -math.inf, math.inf
        else:
            lo = (-half_x - px) / lvx
            hi = (half_x - px) / lvx
            if lo > hi:
                lo, hi = hi, lo
        if abs(lvy) < _EPS:
            if abs(py) > half_y:
                continue
        else:
            t1 = (-half_y - py) / lvy
            t2 = (half_y - py) / lvy
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > lo:
                lo = t1
            if t2 < hi:
                hi = t2
            if lo > hi:
                continue
        if hi < 0 or lo > t_max:
            continue
        if lo < 0.0:
            lo = 0.0
        if best is None or lo < best:
            best = lo
    v2 = lvx * lvx + lvy * lvy
    for sx in (-hl, hl):
        for sy in (-hw, hw):
            ex = px - sx
            ey = py - sy
            t = _quad_entry(v2, ex * lvx + ey * lvy, ex * ex + ey * ey - r * r, t_max)
            if t is not None and (best is None or t < best):
                best = t
    return best


def _sweep_rect_rect(mov: Footprint, vx: float, vy: float,
                     sta: Footprint, t_max: float, tol: float):
    # Separating axes: along each edge normal, the times the centers lie
    # within the two extents plus ``tol`` form a slab; the sweep meets
    # where all four slabs overlap.
    mx, my, hl1, hw1, c1, s1 = mov
    sx, sy, hl2, hw2, c2, s2 = sta
    dx = mx - sx
    dy = my - sy
    t_lo = -math.inf
    t_hi = math.inf
    for ax, ay in ((c1, s1), (-s1, c1), (c2, s2), (-s2, c2)):
        e = (
            hl1 * abs(c1 * ax + s1 * ay) + hw1 * abs(-s1 * ax + c1 * ay)
            + (hl2 * abs(c2 * ax + s2 * ay) + hw2 * abs(-s2 * ax + c2 * ay))
            + tol
        )
        d0 = dx * ax + dy * ay
        dv = vx * ax + vy * ay
        if abs(dv) < _EPS:  # never crosses the slab: always or never inside
            if abs(d0) > e:
                return None
            continue
        t1 = (-e - d0) / dv
        t2 = (e - d0) / dv
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > t_lo:
            t_lo = t1
        if t2 < t_hi:
            t_hi = t2
        if t_lo > t_hi:
            return None
    if t_hi < 0 or t_lo > t_max:
        return None
    return 0.0 if t_lo < 0.0 else t_lo


def sweep_first_contact(
    moving: Footprint, static: Footprint, ux: float, uy: float, t_max: float, tol: float = 0.0,
) -> float | None:
    """First t in [0, t_max] at which ``moving`` translated by t*(ux, uy)
    comes within ``tol`` of ``static`` (their ``separation`` is at most
    ``tol``), or None if it never does on that segment.

    (ux, uy) must be a unit vector so t is in centimeters.
    """
    if len(moving) == 3:
        if len(static) == 3:
            dx = moving[0] - static[0]
            dy = moving[1] - static[1]
            rr = moving[2] + tol + static[2]
            return _quad_entry(
                ux * ux + uy * uy, dx * ux + dy * uy, dx * dx + dy * dy - rr * rr, t_max
            )
        return _sweep_disc_rect(moving[0], moving[1], moving[2] + tol, ux, uy, static, t_max)
    if len(static) == 3:
        # Relative motion: the disc moves at -v in the rect's frame.
        return _sweep_disc_rect(static[0], static[1], static[2] + tol, -ux, -uy, moving, t_max)
    return _sweep_rect_rect(moving, ux, uy, static, t_max, tol)


class Sweep:
    """Footprints ``mover``, all centered at ``start`` and each grown by
    ``margin`` (discs in radius, rectangles on every side), swept from
    ``start`` to ``end``.  A disc grows to ``(x, y, r + margin)`` and a
    rectangle's half sides grow by ``margin``: exactly ``rect`` with sides
    2 ``margin`` longer, as halving and doubling are exact.

    ``meets`` passes an obstacle without the exact sweep when ``near``
    says no: its center lies further from the segment than the
    ``reach_limit`` of the grown mover's circumradius and its own.
    ``box`` is the region query before it: a caller may skip a center
    outside it with four comparisons.
    """

    __slots__ = ("start", "end", "mover", "_ux", "_uy", "_length", "_radius")

    def __init__(self, start: XY, end: XY, mover: Iterable[Footprint], margin: float):
        self.start, self.end = start, end
        self.mover = tuple([
            (fp[0], fp[1], fp[2] + margin) if len(fp) == 3
            else (fp[0], fp[1], fp[2] + margin, fp[3] + margin, fp[4], fp[5])
            for fp in mover
        ])
        length = self._length = math.dist(start, end)
        scale = 1.0 / length if length else 0.0  # a zero-length sweep stays put
        self._ux, self._uy = (end[0] - start[0]) * scale, (end[1] - start[1]) * scale
        self._radius = max(map(circumradius, self.mover))

    def near(self, x: float, y: float, radius: float) -> bool:
        """False only when no footprint centered at (x, y) within
        circumradius ``radius`` can overlap the sweep."""
        ux, uy = self._ux, self._uy
        sx, sy = self.start
        dx, dy = x - sx, y - sy
        along = dx * ux + dy * uy  # clamped to the segment, without min/max calls
        if along < 0.0:
            along = 0.0
        elif along > self._length:
            along = self._length
        return math.hypot(dx - along * ux, dy - along * uy) <= reach_limit(self._radius, radius)

    def box(self, radius: float) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1): the start-contact segment's bounding box grown
        by ``near``'s threshold for circumradius ``radius``.  A footprint of
        circumradius at most ``radius`` centered outside it lies further
        than that from the segment, so ``meets`` would pass it."""
        reach = reach_limit(self._radius, radius)
        (sx, sy), (ex, ey) = self.start, self.end
        # min and max of each pair, as the builtins pick them, without the calls
        return (
            (ex if ex < sx else sx) - reach, (ex if ex > sx else sx) + reach,
            (ey if ey < sy else sy) - reach, (ey if ey > sy else sy) + reach,
        )

    def meets(self, obstacle: Iterable[Footprint]) -> bool:
        """True iff one of the footprints ``obstacle`` overlaps the sweep."""
        ux, uy, length = self._ux, self._uy, self._length
        for ob in obstacle:
            if self.near(ob[0], ob[1], circumradius(ob)):
                for fp in self.mover:
                    if sweep_first_contact(fp, ob, ux, uy, length, TOUCH_TOL) is not None:
                        return True
        return False
