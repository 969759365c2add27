"""Shared test helpers: hand-built scenes and sampling oracles."""

from __future__ import annotations

import math

from declutter import (
    Dish,
    DishKind,
    SceneState,
    Stack,
    build_report,
    default_sim_config,
    overlaps,
)
from declutter.geometry import separation
from declutter.rng import SplitMix64

SIM = default_sim_config()

CUP = DishKind.CUP
BOWL = DishKind.BOWL
UTENSIL = DishKind.UTENSIL


def report_of(trace):
    """The trial report of ``trace`` under the default time model."""
    return build_report(trace, SIM.time_model, scene_id="")


def build_scene(stacks, workspace=(78.0, 61.0), tier="custom"):
    """Build a scene from [(kinds, x, y), ...] stack descriptions.

    ``kinds`` is a list of DishKind or (DishKind, theta) tuples, bottom to
    top.  A stack's id is its index, the id of its bottom dish; the dishes
    above the bottoms are numbered after them, in order.
    """
    state = SceneState(workspace=workspace, stacks={}, dishes={}, tier=tier)
    upper = len(stacks)
    for stack_id, (kinds, x, y) in enumerate(stacks):
        ids = []
        for entry in kinds:
            kind, theta = entry if isinstance(entry, tuple) else (entry, 0.0)
            if ids:
                dish_id, upper = upper, upper + 1
            else:
                dish_id = stack_id
            state.dishes[dish_id] = Dish(kind, theta)
            ids.append(dish_id)
        state.stacks[stack_id] = Stack(tuple(ids), (x, y))
    return state


def random_small_scene(seed, max_dishes=5):
    """Random singulated scene with 1..max_dishes singleton dishes."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_dishes)
    kinds = [(CUP, BOWL, UTENSIL)[rng.below(3)] for _ in range(n)]
    placed = []
    footprints = []
    for kind in kinds:
        spec = SIM.dish_specs[kind]
        inset = spec.circumscribed_radius
        for _ in range(10_000):
            x = rng.uniform(inset, 78.0 - inset)
            y = rng.uniform(inset, 61.0 - inset)
            theta = rng.uniform(0.0, math.pi) if kind is UTENSIL else 0.0
            fp = spec.footprint(x, y, theta)
            if all(not overlaps(fp, other) for other in footprints):
                placed.append(([(kind, theta)], x, y))
                footprints.append(fp)
                break
        else:
            raise RuntimeError("could not build small scene")
    return build_scene(placed)


# ---------------------------------------------------------------------------
# Sampling oracles (independent of the analytic geometry they check)
# ---------------------------------------------------------------------------


def footprint_contains(fp, x, y):
    if len(fp) == 3:
        return math.hypot(x - fp[0], y - fp[1]) <= fp[2]
    cx, cy, hl, hw, c, s = fp
    dx = x - cx
    dy = y - cy
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    return abs(lx) <= hl and abs(ly) <= hw


def _bounds(fp):
    r = fp[2] if len(fp) == 3 else math.hypot(fp[2], fp[3])
    return fp[0] - r, fp[0] + r, fp[1] - r, fp[1] + r


def sampled_overlap(a, b, grid=160):
    """Dense point-sampling oracle: True if a shared point is found."""
    ax0, ax1, ay0, ay1 = _bounds(a)
    bx0, bx1, by0, by1 = _bounds(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 > x1 or y0 > y1:
        return False
    for i in range(grid + 1):
        x = x0 + (x1 - x0) * i / grid if grid else x0
        for j in range(grid + 1):
            y = y0 + (y1 - y0) * j / grid if grid else y0
            if footprint_contains(a, x, y) and footprint_contains(b, x, y):
                return True
    return False


def translated(fp, dx, dy):
    return (fp[0] + dx, fp[1] + dy) + fp[2:]


def grown(fp, margin):
    """``fp`` grown by ``margin``: a disc in radius, a rectangle on every side."""
    if len(fp) == 3:
        return fp[0], fp[1], fp[2] + margin
    x, y, hl, hw, c, s = fp
    return x, y, hl + margin, hw + margin, c, s


def support(fp, nx, ny):
    """The point of ``fp`` furthest along the unit vector (nx, ny)."""
    if len(fp) == 3:
        return fp[0] + fp[2] * nx, fp[1] + fp[2] * ny
    x, y, hl, hw, ux, uy = fp
    vx, vy = -uy, ux
    su = math.copysign(hl, ux * nx + uy * ny)
    sv = math.copysign(hw, vx * nx + vy * ny)
    return x + su * ux + sv * vx, y + su * uy + sv * vy


def sampled_sweep_blocked(start, end, mover, margin, obstacle, step=0.1):
    """Stepping oracle for a pull's clearance: whether footprints ``mover``,
    grown by ``margin``, overlap one of ``obstacle`` anywhere from ``start``
    to ``end``.

    Positions at most ``step`` apart bracket where each pair of footprints
    comes closest; as their ``separation`` is convex along the path, a
    ternary search of the bracket then finds the closest position, which
    ``overlaps`` tests.
    """
    dx, dy = end[0] - start[0], end[1] - start[1]
    n = max(1, math.ceil(math.hypot(dx, dy) / step))
    for fp in mover:
        fp = grown(fp, margin)
        for ob in obstacle:
            def moved(f):
                return translated(fp, f * dx, f * dy)

            k = min(range(n + 1), key=lambda i: separation(moved(i / n), ob))
            lo, hi = max(k - 1, 0) / n, min(k + 1, n) / n
            for _ in range(60):
                a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if separation(moved(a), ob) < separation(moved(b), ob):
                    hi = b
                else:
                    lo = a
            if overlaps(moved(k / n), ob) or overlaps(moved(lo), ob):
                return True
    return False


def grasp_locus_samples(state, stack_id, sim, n=400):
    """Points spaced evenly along a stack's grasp locus: ``n`` on the rim
    circle of a disc-bottom stack, ``n + 1`` along a utensil's axis."""
    stack = state.stacks[stack_id]
    dish = state.dishes[stack.bottom]
    spec = sim.dish_specs[dish.kind]
    x, y = stack.base
    if dish.kind is UTENSIL:
        hx = spec.length / 2.0 * math.cos(dish.theta)
        hy = spec.length / 2.0 * math.sin(dish.theta)
        return [(x + (2 * i / n - 1) * hx, y + (2 * i / n - 1) * hy) for i in range(n + 1)]
    r = spec.radius
    return [
        (x + r * math.cos(2 * math.pi * i / n), y + r * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]


def sampled_grasp_gap(state, a, b, sim, n=400):
    """Sampling oracle for the distance between two stacks' grasp loci: the
    least distance between ``grasp_locus_samples`` of each.  It is never
    below the true distance and exceeds it by at most half of each locus's
    sample spacing (2 pi r / n on a rim, length / n on an axis)."""
    pa = grasp_locus_samples(state, a, sim, n)
    pb = grasp_locus_samples(state, b, sim, n)
    return min(math.hypot(ax - bx, ay - by) for ax, ay in pa for bx, by in pb)


def scan_first_contact(moving, static, ux, uy, t_max, steps=20000):
    """Fine linear scan for first footprint contact; bracket refined by
    bisection on the overlap predicate."""
    prev = 0.0
    for i in range(1, steps + 1):
        t = t_max * i / steps
        if overlaps(translated(moving, t * ux, t * uy), static):
            lo, hi = prev, t
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if overlaps(translated(moving, mid * ux, mid * uy), static):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = t
    return None
