"""Action primitives, feasibility rules, and the scene transition function.

Three primitives clear the table:

* ``Grasp``: a top-down rim (or caging) grasp of one stack, or of two
  stacks at once when their grasp points are close and their gripped-rim
  heights match (a multi-object grasp).
* ``PullGrasp``: drag one stack into contact with another along the line
  between their centers, then multi-object grasp the pair.
* ``StackGrasp``: place one stack on top of another (one or more
  placements), then grasp the merged pile.

Every action ends with a grasp; a successful grasp deposits the carried
dishes in the bin and costs one trip.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .errors import InfeasibleAction
from .geometry import (
    Footprint,
    Point2,
    Sweep,
    XY,
    closest_on_segment,
    dist,
    normalize_angle,
    rim_point,
    segments_nearest,
    sweep_first_contact,
)
from .rng import SplitMix64
from .tableware import (
    DishKind,
    SceneState,
    Stack,
    stack_footprints,
    stack_grasp_span,
    stack_top_lip_height,
)

if TYPE_CHECKING:
    from .config import SimConfig


@dataclass(frozen=True)
class GripperSpec:
    """Parallel-jaw gripper dimensions and the height-similarity threshold."""

    max_opening: float = 8.5
    jaw_height: float = 4.5
    closed_width: float = 2.0
    height_similarity_threshold: float = 1.0

    def __post_init__(self):
        if min(self.max_opening, self.jaw_height, self.closed_width,
               self.height_similarity_threshold) <= 0:
            raise ValueError("gripper dimensions must be positive")
        if self.closed_width >= self.max_opening:
            raise ValueError("closed_width must be below max_opening")

    def similar_heights(self, h1: float, h2: float) -> bool:
        """Whether two gripped-rim heights are close enough for one grasp."""
        return abs(h1 - h2) <= self.height_similarity_threshold + 1e-9


@dataclass(frozen=True)
class GraspAction:
    point: Point2
    z: float
    theta: float
    targets: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.targets) <= 2:
            raise ValueError("a grasp targets one or two stacks")


@dataclass(frozen=True)
class PullAction:
    """Drag stack ``mover`` from ``start`` to ``end``, into contact with
    stack ``anchor``."""

    start: Point2
    end: Point2
    mover: int
    anchor: int

    def __post_init__(self):
        if self.mover == self.anchor:
            raise ValueError("pull mover and anchor must differ")

    @property
    def theta(self) -> float:
        """The gripper's (and the motion's) heading, from ``start`` to ``end``."""
        return normalize_angle(
            math.atan2(self.end.y - self.start.y, self.end.x - self.start.x)
        )


@dataclass(frozen=True)
class StackPlacement:
    """Lift stack ``lifted`` with ``inner_grasp`` and set it on stack ``base``."""

    inner_grasp: GraspAction
    lifted: int
    base: int

    def __post_init__(self):
        if self.lifted == self.base:
            raise ValueError("cannot stack a stack onto itself")


@dataclass(frozen=True)
class Grasp:
    grasp: GraspAction


@dataclass(frozen=True)
class PullGrasp:
    pull: PullAction
    grasp: GraspAction


@dataclass(frozen=True)
class StackGrasp:
    placements: tuple[StackPlacement, ...]
    grasp: GraspAction

    def __post_init__(self):
        if not self.placements:
            raise ValueError("stack-grasp needs at least one placement")


Action = Grasp | PullGrasp | StackGrasp


@dataclass
class TraceEvent:
    """One executed action, in the JSONL trace schema."""

    t: int
    kind: str
    targets: tuple[int, ...]
    moved_to_bin: tuple[int, ...]
    trip: bool
    params: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "t": self.t,
            "action": self.kind,
            "targets": list(self.targets),
            "moved_to_bin": list(self.moved_to_bin),
            "trip": self.trip,
            "params": self.params,
        }


# ---------------------------------------------------------------------------
# Grasp candidates
# ---------------------------------------------------------------------------


def grasp_points(
    state: SceneState, stack_id: int, rng: SplitMix64, sim: "SimConfig"
) -> GraspAction:
    """Grasp parameters for a single stack.

    Disc-bottom stacks are gripped on the bottom dish's rim at a uniformly
    sampled angle, so the whole pile is carried; utensil-bottom stacks are
    caged at the utensil's center with the gripper perpendicular to its axis.
    """
    stack = state.stacks[stack_id]
    bottom = state.dishes[stack.bottom]
    spec = sim.dish_specs[bottom.kind]
    if bottom.kind is DishKind.UTENSIL:
        return GraspAction(
            point=stack.base,
            z=spec.grasp_height,
            theta=normalize_angle(bottom.theta + math.pi / 2.0),
            targets=(stack_id,),
        )
    angle = rng.uniform(0.0, 2.0 * math.pi)
    point, theta = rim_point(stack.base, spec.radius, angle)
    return GraspAction(point=point, z=spec.grasp_height, theta=theta, targets=(stack_id,))


def _grasp_locus(state: SceneState, stack: Stack, sim: "SimConfig"):
    """Locus of candidate grasp points for a stack, on plain floats.

    The rim circle of the bottom dish for discs; the axis segment for
    utensils (candidates run along the utensil's centerline).
    """
    bottom = state.dishes[stack.bottom]
    spec = sim.dish_specs[bottom.kind]
    x, y = stack.base.x, stack.base.y
    reach = spec.grasp_reach
    if bottom.kind is DishKind.UTENSIL:
        hx = reach * math.cos(bottom.theta)
        hy = reach * math.sin(bottom.theta)
        return "segment", (x - hx, y - hy), (x + hx, y + hy)
    return "circle", (x, y), reach


def grasp_gap(
    state: SceneState, a: int, b: int, sim: "SimConfig"
) -> tuple[float, Point2, Point2]:
    """Lateral distance between the two stacks' nearest grasp points.

    Returns (gap, point_on_a, point_on_b).  The gap can be negative when
    the loci interpenetrate (transient contact during a pull).
    """
    gap, pa, pb = _grasp_gap_xy(state, a, b, sim)
    return gap, Point2(*pa), Point2(*pb)


def _grasp_gap_xy(state: SceneState, a: int, b: int, sim: "SimConfig") -> tuple[float, XY, XY]:
    """``grasp_gap`` with its points as plain (x, y) pairs."""
    la = _grasp_locus(state, state.stacks[a], sim)
    lb = _grasp_locus(state, state.stacks[b], sim)
    if la[0] == "circle" and lb[0] == "circle":
        _, (ax, ay), ra = la
        _, (bx, by), rb = lb
        d = math.hypot(ax - bx, ay - by)
        if d < 1e-12:
            ux, uy = 1.0, 0.0
        else:
            ux, uy = (bx - ax) / d, (by - ay) / d
        return d - ra - rb, (ax + ra * ux, ay + ra * uy), (bx - rb * ux, by - rb * uy)
    if la[0] == "circle" or lb[0] == "circle":
        flipped = la[0] != "circle"
        _, (cx, cy), r = lb if flipped else la
        _, s1, s2 = la if flipped else lb
        q = qx, qy = closest_on_segment((cx, cy), s1, s2)
        d = math.hypot(cx - qx, cy - qy)
        if d < 1e-12:
            ux, uy = 1.0, 0.0
        else:
            ux, uy = (qx - cx) / d, (qy - cy) / d
        p_circle = (cx + r * ux, cy + r * uy)
        return (d - r, q, p_circle) if flipped else (d - r, p_circle, q)
    return segments_nearest(la[1], la[2], lb[1], lb[2])


# ---------------------------------------------------------------------------
# Feasibility predicates
# ---------------------------------------------------------------------------


def _grip_height(state: SceneState, stack: Stack, sim: "SimConfig") -> float:
    """Height of the rim (or caging point) the gripper closes on: the
    bottom dish's grasp height, so the whole pile is carried."""
    return sim.dish_specs[state.dishes[stack.bottom].kind].grasp_height


def mog_grasp(
    state: SceneState, a: int, b: int, sim: "SimConfig"
) -> GraspAction | None:
    """Witness multi-object grasp for stacks ``a`` and ``b``, or None.

    Allowable when the gripped-rim heights of the two stacks are within the
    similarity threshold (a height mismatch makes the gripper collide with
    the taller item or miss the shorter one), everything riding above the
    grip fits within the jaw height, and the lateral distance between the
    stacks' nearest grasp points is below the gripper's max opening.  The
    witness grasp is centered at the midpoint of those points at the taller
    grip height.
    """
    if a == b:
        raise ValueError("multi-object grasp needs two distinct stacks")
    sa, sb = state.stacks[a], state.stacks[b]
    grip_a = _grip_height(state, sa, sim)
    grip_b = _grip_height(state, sb, sim)
    if not sim.gripper.similar_heights(grip_a, grip_b):
        return None
    lip_a = stack_top_lip_height(sa, state.dishes, sim.dish_specs)
    lip_b = stack_top_lip_height(sb, state.dishes, sim.dish_specs)
    if max(lip_a, lip_b) - min(grip_a, grip_b) > sim.gripper.jaw_height + 1e-9:
        return None
    gap, (ax, ay), (bx, by) = _grasp_gap_xy(state, a, b, sim)
    if gap >= sim.gripper.max_opening:
        return None
    mid = Point2((ax + bx) / 2.0, (ay + by) / 2.0)
    span = math.hypot(ax - bx, ay - by)
    if span > 1e-9:
        theta = normalize_angle(math.atan2(by - ay, bx - ax))
    else:
        theta = normalize_angle(math.atan2(sb.base.y - sa.base.y, sb.base.x - sa.base.x))
    lo, hi = (a, b) if a < b else (b, a)
    return GraspAction(point=mid, z=max(grip_a, grip_b), theta=theta, targets=(lo, hi))


def _pull_contact(
    mover: Stack, anchor: Stack, mover_fps: list[Footprint], anchor_fps: list[Footprint]
) -> Point2 | None:
    """Mover base position at first footprint contact along the center line."""
    d = dist(mover.base, anchor.base)
    if d < 1e-9:
        return None
    ux = (anchor.base.x - mover.base.x) / d
    uy = (anchor.base.y - mover.base.y) / d
    best = None
    for mfp in mover_fps:
        for afp in anchor_fps:
            t = sweep_first_contact(mfp, afp, ux, uy, d)
            if t is not None and (best is None or t < best):
                best = t
    if best is None:
        return None
    return Point2(mover.base.x + best * ux, mover.base.y + best * uy)


@dataclass(frozen=True)
class PullCheck:
    """Outcome of the pull feasibility test for one (mover, anchor).

    ``failed`` names the first test that failed, or is None when the pull is
    allowable: ``"distinct_targets"``, ``"target_on_table"``,
    ``"grip_height"`` (gripped-rim heights differ), ``"contact"`` (the
    footprints never meet along the center line), ``"mog_allowable"`` (no
    multi-object grasp once in contact) or ``"corridor"`` (stack
    ``blocker`` meets the mover's sweep to ``end``).  Once the pair
    tests pass, ``end`` is the mover's base at contact and ``grasp`` the
    witness grasp there.
    """

    failed: str | None
    blocker: int | None = None
    end: Point2 | None = None
    grasp: GraspAction | None = None

    @property
    def allowable(self) -> bool:
        return self.failed is None

    @property
    def reason(self) -> str:
        """The failed test, naming the blocking stack for a corridor."""
        if self.blocker is not None:
            return f"{self.failed} blocked by stack {self.blocker}"
        return str(self.failed)


Footprints = Callable[[Stack], list[Footprint]]


def _pair_check(
    state: SceneState, mover: int, anchor: int, sim: "SimConfig", footprints: Footprints
) -> tuple[PullCheck, Sweep | None]:
    """The pull tests that depend on the mover and the anchor alone and,
    when they pass, the region the mover sweeps: its footprints, grown by
    ``pull_clearance_margin``, from its base to the contact point.

    ``footprints`` maps a stack to its footprints.  The witness grasp is
    taken on a view holding just the pair, the mover at contact: the grasp
    test reads nothing else.
    """
    if mover == anchor:
        return PullCheck("distinct_targets"), None
    sm = state.stacks.get(mover)
    sa = state.stacks.get(anchor)
    if sm is None or sa is None:
        return PullCheck("target_on_table"), None
    if not sim.gripper.similar_heights(
        _grip_height(state, sm, sim), _grip_height(state, sa, sim)
    ):
        return PullCheck("grip_height"), None
    mover_fps = footprints(sm)
    end = _pull_contact(sm, sa, mover_fps, footprints(sa))
    if end is None:
        return PullCheck("contact"), None
    contact = SceneState(
        state.workspace, {mover: Stack(sm.id, sm.dishes, end), anchor: sa}, state.dishes
    )
    grasp = mog_grasp(contact, mover, anchor, sim)
    if grasp is None:
        return PullCheck("mog_allowable"), None
    sweep = Sweep(sm.base, end, mover_fps, sim.pull_clearance_margin)
    return PullCheck(None, end=end, grasp=grasp), sweep


def check_pull(state: SceneState, mover: int, anchor: int, sim: "SimConfig") -> PullCheck:
    """Test pulling ``mover`` into contact with ``anchor``, and say why it fails.

    A pull is worthwhile only with similar gripped-rim heights, a contact
    point along the center line, a multi-object grasp of the pair once in
    contact (a pull that cannot end in a grasp would be a wasted action),
    and no other stack overlapping the mover's footprints, grown by
    ``pull_clearance_margin``, anywhere on the way (so nothing is displaced).

    A stack's footprints are built, and tested against the sweep, only when
    ``Sweep.near`` admits its base with the circumradius of its widest dish:
    all of them are centered on the base and none reaches further, so
    ``Sweep.meets`` would pass every stack this skips.
    """
    specs = sim.dish_specs

    def footprints(stack: Stack) -> list[Footprint]:
        return stack_footprints(state, stack, specs)

    pair, sweep = _pair_check(state, mover, anchor, sim, footprints)
    if not pair.allowable:
        return pair
    dishes = state.dishes
    for stack in state.stacks.values():
        if (
            stack.id not in (mover, anchor)
            and sweep.near(
                stack.base, max(specs[dishes[d].kind].circumscribed_radius for d in stack.dishes)
            )
            and sweep.meets(footprints(stack))
        ):
            return replace(pair, failed="corridor", blocker=stack.id)
    return pair


def stack_allowable(
    state: SceneState, lifted: int, base: int, sim: "SimConfig"
) -> bool:
    """True iff ``lifted`` may be placed on ``base`` and the result grasped.

    The lifted stack's bottom dish must be no wider than the base stack's
    top dish (utensils count as their half width, so they may sit on
    anything, including another utensil), the lifted stack must itself be
    rim-graspable, and the merged pile's lip span must stay within the jaw
    height, otherwise the follow-up grasp would fail.
    """
    if lifted == base:
        return False
    sl = state.stacks.get(lifted)
    sb = state.stacks.get(base)
    if sl is None or sb is None:
        return False
    specs = sim.dish_specs
    dishes = state.dishes
    r_lifted = specs[dishes[sl.bottom].kind].effective_radius
    r_base_top = specs[dishes[sb.top].kind].effective_radius
    if r_lifted > r_base_top + 1e-9:
        return False
    jaw = sim.gripper.jaw_height
    if stack_grasp_span(sl, dishes, specs) > jaw + 1e-9:
        return False
    # The merged pile's span, its lip heights summed in the order
    # ``stack_grasp_span`` would sum them, without building the pile.
    height = stack_top_lip_height(sb, dishes, specs)
    for dish_id in sl.dishes:
        height += specs[dishes[dish_id].kind].nest_offset
    return height - specs[dishes[sb.bottom].kind].grasp_height <= jaw + 1e-9


# ---------------------------------------------------------------------------
# Transition
# ---------------------------------------------------------------------------


def _bin_stacks(state: SceneState, stack_ids: tuple[int, ...]) -> tuple[int, ...]:
    moved: list[int] = []
    for sid in stack_ids:
        stack = state.stacks.pop(sid)
        moved.extend(stack.dishes)
    state.bin = state.bin + tuple(moved)
    state.trips_taken += 1
    return tuple(moved)


def _taller_first(state: SceneState, targets: tuple[int, ...], sim: "SimConfig") -> int:
    """Target kept by a failed two-stack grasp: the taller lip wins the jaws."""
    def key(sid: int):
        lip = stack_top_lip_height(state.stacks[sid], state.dishes, sim.dish_specs)
        return (-lip, sid)

    return min(targets, key=key)


def _check_graspable(state: SceneState, targets: tuple[int, ...], sim: "SimConfig") -> None:
    """Raise InfeasibleAction unless the final grasp's targets are on the
    table and, when there are two, pass the multi-object grasp test."""
    for sid in targets:
        if sid not in state.stacks:
            raise InfeasibleAction("target_on_table", f"stack {sid} not on table")
    if len(targets) == 2 and mog_grasp(state, targets[0], targets[1], sim) is None:
        raise InfeasibleAction("mog_allowable", f"stacks {targets}")


def _point_params(p: Point2) -> list[float]:
    return [p.x, p.y]


def grasp_fails(sim: "SimConfig", rng: SplitMix64) -> bool:
    """Whether the final grasp of the next action fails: one draw from
    ``rng`` when ``sim.p_fail`` is nonzero, and no draw when it is zero."""
    return sim.p_fail > 0.0 and rng.random() < sim.p_fail


def apply(
    state: SceneState, action: Action, sim: "SimConfig", *, failed: bool = False
) -> tuple[SceneState, TraceEvent]:
    """Execute one action, returning the successor state and its trace event.

    Raises InfeasibleAction (with the violated predicate's name) if the
    action's feasibility test fails in ``state`` or its parts disagree: a
    pull must run from the mover's base to the contact point ``check_pull``
    finds, and its grasp must take exactly the pulled pair.  That grasp is
    not tested again: ``check_pull`` tested it on the pulled pair with the
    mover at contact, the state the pull leaves.  When ``failed``
    (see ``grasp_fails``), the action's final grasp fails: a failed
    single-stack grasp leaves the table unchanged (no trip); a failed
    two-stack grasp carries only the taller stack.  Pull and stack phases
    still execute before a failed grasp, so consolidations persist.
    """
    g = action.grasp
    targets = g.targets
    grasp = {"point": _point_params(g.point), "z": g.z, "theta": g.theta}

    if isinstance(action, Grasp):
        _check_graspable(state, targets, sim)
        kind, new, params = "grasp", state.clone(), grasp
    elif isinstance(action, PullGrasp):
        pull = action.pull
        mover, anchor = pull.mover, pull.anchor
        check = check_pull(state, mover, anchor, sim)
        if not check.allowable:
            raise InfeasibleAction(
                "pull_allowable", f"stacks ({mover}, {anchor}): {check.reason}"
            )
        if pull.start != state.stacks[mover].base or pull.end != check.end:
            raise InfeasibleAction(
                "pull_path",
                f"stack {mover} pulled from {pull.start} to {pull.end}, "
                f"not from {state.stacks[mover].base} to contact at {check.end}",
            )
        if sorted(targets) != sorted((mover, anchor)):
            raise InfeasibleAction(
                "grasp_targets", f"grasp of {targets} after pulling ({mover}, {anchor})"
            )
        new = state.clone()
        new.stacks[mover] = replace(new.stacks[mover], base=pull.end)
        kind = "pull_grasp"
        params = {
            "pull": {
                "start": _point_params(pull.start),
                "end": _point_params(pull.end),
                "theta": pull.theta,
                "mover": mover,
                "anchor": anchor,
            },
            "grasp": grasp,
        }
    else:
        new, placements = state, []
        for placement in action.placements:
            lifted, base = placement.lifted, placement.base
            if not stack_allowable(new, lifted, base, sim):
                raise InfeasibleAction("stack_allowable", f"stack {lifted} onto {base}")
            placements.append(
                {"lifted": lifted, "base": base,
                 "place": _point_params(new.stacks[base].base)}
            )
            new = new.merged(lifted, base)
        _check_graspable(new, targets, sim)
        kind, params = "stack_grasp", {"placements": placements, "grasp": grasp}

    carried = targets
    if failed:
        params["failed"] = True
        carried = ()
        if len(targets) == 2:
            kept = _taller_first(new, targets, sim)
            params["abandoned"] = targets[0] if targets[1] == kept else targets[1]
            carried = (kept,)
    moved = _bin_stacks(new, carried) if carried else ()
    return new, TraceEvent(-1, kind, targets, moved, bool(carried), params)
