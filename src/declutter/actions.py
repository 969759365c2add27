"""Action primitives, feasibility rules, and the scene transition function.

Three primitives clear the table:

* ``GraspAction``: a top-down rim (or caging) grasp of one stack, or
  ``PairGrasp``: of two stacks at once when their grasp points are close
  and their gripped-rim heights match (a multi-object grasp).
* ``PullGrasp``: drag one stack into contact with another along the line
  between their centers, then multi-object grasp the pair.
* ``StackGrasp``: lift one or more stacks, one at a time, onto the stack
  its final grasp takes, then grasp the merged pile.

Every action ends with a grasp; a successful grasp deposits the carried
dishes in the bin and costs one trip.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InfeasibleAction
from .geometry import (
    XY,
    Footprint,
    Sweep,
    closest_on_segment,
    normalize_angle,
    rim_point,
    segments_nearest,
    sweep_first_contact,
)
from .rng import SplitMix64
from .tableware import (
    Dish,
    DishKind,
    SceneState,
    Stack,
    stack_footprints,
    stack_top_lip_height,
    widest_radius,
)

if TYPE_CHECKING:
    from .config import SimConfig
_UTENSIL = DishKind.UTENSIL  # a module name reads faster than an enum member


@dataclass(frozen=True)
class GripperSpec:
    """Parallel-jaw gripper dimensions and the height-similarity threshold,
    with the height rules of a grasp on plain heights, each written once."""

    max_opening: float = 8.5
    jaw_height: float = 4.5
    height_similarity_threshold: float = 1.0

    def __post_init__(self):
        if min(self.max_opening, self.jaw_height, self.height_similarity_threshold) <= 0:
            raise ValueError("gripper dimensions must be positive")

    def similar_heights(self, h1: float, h2: float) -> bool:
        """Whether two gripped-rim heights are close enough for one grasp."""
        return abs(h1 - h2) <= self.height_similarity_threshold + 1e-9

    def spans(self, grip: float, lip: float) -> bool:
        """Whether a pile gripped at ``grip`` with its top lip at ``lip``
        fits within the jaw height."""
        return lip - grip <= self.jaw_height + 1e-9

    def holds(self, grip_a: float, lip_a: float, grip_b: float, lip_b: float) -> bool:
        """``mog_grasp``'s height tests of two piles, in its order: similar
        grips, then the jaw spanning the lower grip to the higher lip."""
        return self.similar_heights(grip_a, grip_b) and self.spans(
            min(grip_a, grip_b), max(lip_a, lip_b)
        )


# A grasp pose: the gripper's (point, height z, heading theta).
Pose = tuple[XY, float, float]


@dataclass(frozen=True)
class GraspAction:
    """A top-down grasp of stack ``stack``: on its bottom dish's rim at
    ``angle``, in [0, 2 pi), or caging a utensil, which takes no angle.  The
    stack sets the rest: ``apply`` takes the pose from ``grasp_pose``."""

    stack: int
    angle: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.angle < 2.0 * math.pi:
            raise ValueError("a grasp's rim angle must be in [0, 2 pi)")


@dataclass(frozen=True)
class PairGrasp:
    """Grasp stacks ``a`` and ``b`` at once.  The two stacks set the rest:
    ``apply`` takes the grasp from ``mog_grasp``."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a pair grasp needs two distinct stacks")


@dataclass(frozen=True)
class PullGrasp:
    """Drag stack ``mover`` along the line between the bases into contact
    with stack ``anchor``, then grasp the pair.  The two stacks set the
    rest: ``apply`` takes the contact point and the grasp from
    ``check_pull``."""

    mover: int
    anchor: int

    def __post_init__(self):
        if self.mover == self.anchor:
            raise ValueError("pull mover and anchor must differ")


@dataclass(frozen=True)
class StackGrasp:
    """Lift the stack each grasp in ``lifts`` takes, in order, onto the
    stack ``grasp`` takes, then carry the merged pile with ``grasp``.  The
    grasps name the stacks; no lift takes the carried stack."""

    lifts: tuple[GraspAction, ...]
    grasp: GraspAction

    def __post_init__(self):
        if not self.lifts:
            raise ValueError("stack-grasp needs at least one placement")
        if any(g.stack == self.grasp.stack for g in self.lifts):
            raise ValueError("a stack-grasp cannot lift a stack onto itself")


Action = GraspAction | PairGrasp | PullGrasp | StackGrasp


# ---------------------------------------------------------------------------
# Grasp candidates
# ---------------------------------------------------------------------------


def grasp_points(state: SceneState, stack_id: int, rng: SplitMix64) -> GraspAction:
    """The grasp of a single stack: on a cup or bowl, at a rim angle drawn
    uniformly from ``rng``, so the whole pile is carried; on a utensil,
    caging it with no draw."""
    if state.dishes[state.stacks[stack_id].bottom].kind is _UTENSIL:
        return GraspAction(stack_id)
    return GraspAction(stack_id, rng.uniform(0.0, 2.0 * math.pi))


def grasp_pose(state: SceneState, grasp: GraspAction, sim: "SimConfig") -> Pose:
    """The pose of ``grasp`` on ``state``, at the bottom dish's grasp height:
    on its rim at the grasp's angle, heading radially, or caging a utensil
    at its base across its axis.  Raises InfeasibleAction unless the stack
    is on the table and, on a utensil, ``_check_caging`` holds."""
    _check_on_table(state, [grasp.stack])
    stack = state.stacks[grasp.stack]
    bottom = state.dishes[stack.bottom]
    spec = sim.dish_specs[bottom.kind]
    if bottom.kind is _UTENSIL:
        _check_caging(grasp)
        point, theta = stack.base, normalize_angle(bottom.theta + math.pi / 2.0)
    else:
        point, theta = rim_point(stack.base, spec.radius, grasp.angle)
    return point, spec.grasp_height, theta


def _check_caging(grasp: GraspAction) -> None:
    """A caging grasp, of a stack on a utensil, takes no angle: raise
    InfeasibleAction when ``grasp`` gives one, so each grasp has one form."""
    if grasp.angle:
        raise InfeasibleAction("caging_angle", f"stack {grasp.stack}: angle {grasp.angle!r}")


def _grasp_locus(dishes: dict[int, Dish], stack: Stack, sim: "SimConfig") -> tuple[XY, XY, float]:
    """Locus of candidate grasp points for a stack, on plain floats: the
    points at a radius from a core segment, as (end, end, radius).

    The rim of the bottom dish for discs, its base point at the rim radius;
    the axis segment at radius 0 for utensils (candidates run along the
    utensil's centerline).
    """
    bottom = dishes[stack.bottom]
    x, y = stack.base
    reach = sim.dish_specs[bottom.kind].grasp_reach
    if bottom.kind is _UTENSIL:
        hx = reach * math.cos(bottom.theta)
        hy = reach * math.sin(bottom.theta)
        return (x - hx, y - hy), (x + hx, y + hy), 0.0
    return (x, y), (x, y), reach


def grasp_gap(state: SceneState, a: int, b: int, sim: "SimConfig") -> tuple[float, XY, XY]:
    """Lateral distance between the two stacks' nearest grasp points.

    Returns (gap, point_on_a, point_on_b), the points as (x, y) pairs.  The
    gap can be negative when the loci interpenetrate (transient contact
    during a pull).  With a rim in the pair, the nearest points of the two
    cores are offset by their radii along the line between them.
    """
    return _stack_gap(state.dishes, state.stacks[a], state.stacks[b], sim)


def _stack_gap(
    dishes: dict[int, Dish], sa: Stack, sb: Stack, sim: "SimConfig"
) -> tuple[float, XY, XY]:
    """``grasp_gap`` of two stack values, which need not be on a table."""
    a1, a2, ra = _grasp_locus(dishes, sa, sim)
    b1, b2, rb = _grasp_locus(dishes, sb, sim)
    if ra:  # a rim's core is a point
        (ax, ay), (bx, by) = a1, closest_on_segment(a1, b1, b2)
    elif rb:
        (ax, ay), (bx, by) = closest_on_segment(b1, a1, a2), b1
    else:
        return segments_nearest(a1, a2, b1, b2)
    d = math.hypot(ax - bx, ay - by)
    if d < 1e-12:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = (bx - ax) / d, (by - ay) / d
    return d - ra - rb, (ax + ra * ux, ay + ra * uy), (bx - rb * ux, by - rb * uy)


# ---------------------------------------------------------------------------
# Feasibility predicates
# ---------------------------------------------------------------------------


def mog_grasp(state: SceneState, a: int, b: int, sim: "SimConfig") -> Pose | None:
    """Witness multi-object grasp pose for stacks ``a`` and ``b``, or None.

    Allowable when the gripper ``holds`` the two stacks by height (their
    gripped-rim heights are within the similarity threshold, as a mismatch
    makes the gripper collide with the taller item or miss the shorter one,
    and everything riding above the grip fits within the jaw height) and
    the lateral distance between the stacks' nearest grasp points is below
    the gripper's max opening.  The witness grasp is centered at the
    midpoint of those points at the taller grip height.
    """
    if a == b:
        raise ValueError("multi-object grasp needs two distinct stacks")
    return _stack_grasp(state.dishes, state.stacks[a], state.stacks[b], sim)


def _stack_grasp(dishes: dict[int, Dish], sa: Stack, sb: Stack, sim: "SimConfig") -> Pose | None:
    """``mog_grasp`` of two stack values, which need not be on a table: its
    tests in its order, and the witness pose."""
    specs = sim.dish_specs
    grip_a = specs[dishes[sa.bottom].kind].grasp_height
    grip_b = specs[dishes[sb.bottom].kind].grasp_height
    lip_a = stack_top_lip_height(sa, dishes, specs)
    lip_b = stack_top_lip_height(sb, dishes, specs)
    if not sim.gripper.holds(grip_a, lip_a, grip_b, lip_b):
        return None
    gap, (ax, ay), (bx, by) = _stack_gap(dishes, sa, sb, sim)
    if gap >= sim.gripper.max_opening:
        return None
    mid = (ax + bx) / 2.0, (ay + by) / 2.0
    span = math.hypot(ax - bx, ay - by)
    if span > 1e-9:
        theta = normalize_angle(math.atan2(by - ay, bx - ax))
    else:
        (x0, y0), (x1, y1) = sa.base, sb.base
        theta = normalize_angle(math.atan2(y1 - y0, x1 - x0))
    return mid, max(grip_a, grip_b), theta


def _pull_contact(
    mover: Stack, anchor: Stack, mover_fps: list[Footprint], anchor_fps: list[Footprint]
) -> XY | None:
    """Mover base at first footprint contact along the center line; None if the bases coincide."""
    (mx, my), (ax, ay) = mover.base, anchor.base
    d = math.hypot(mx - ax, my - ay)
    if d < 1e-9:
        return None
    ux = (ax - mx) / d
    uy = (ay - my) / d
    # At t = d the mover's footprints are concentric with the anchor's: some t is at most d.
    best = d
    for mfp in mover_fps:
        for afp in anchor_fps:
            t = sweep_first_contact(mfp, afp, ux, uy, d)
            if t is not None and t < best:
                best = t
    return mx + best * ux, my + best * uy


@dataclass(frozen=True)
class PullCheck:
    """Outcome of the pull feasibility test for one (mover, anchor).

    ``failed`` names the first test that failed, or is None when the pull is
    allowable: ``"distinct_targets"``, ``"target_on_table"``,
    ``"grip_height"`` (gripped-rim heights differ), ``"contact"`` (the
    bases coincide, so there is no center line to pull along),
    ``"mog_allowable"`` (no multi-object grasp once in contact) or
    ``"corridor"`` (stack ``blocker`` meets the mover's sweep to ``end``).
    Once the pair tests pass, ``end`` is the mover's base at contact and
    ``grasp`` the witness grasp pose there.
    """

    failed: str | None
    blocker: int | None = None
    end: XY | None = None
    grasp: Pose | None = None

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
) -> tuple[PullCheck | None, Sweep | None]:
    """The pull's path tests, which depend on the mover and the anchor
    alone: the failed check, or None and the region the mover sweeps, its
    footprints grown by ``pull_clearance_margin``, from its base to the
    contact point (``end``).  ``footprints`` maps a stack to its footprints.

    The witness grasp at contact is ``_contact_witness``: ``check_pull``
    takes it next, the pair memo only when ``PairMemo.pull`` is asked.
    """
    if mover == anchor:
        return PullCheck("distinct_targets"), None
    sm = state.stacks.get(mover)
    sa = state.stacks.get(anchor)
    if sm is None or sa is None:
        return PullCheck("target_on_table"), None
    specs, dishes = sim.dish_specs, state.dishes
    if not sim.gripper.similar_heights(
        specs[dishes[sm.bottom].kind].grasp_height, specs[dishes[sa.bottom].kind].grasp_height
    ):
        return PullCheck("grip_height"), None
    mover_fps = footprints(sm)
    end = _pull_contact(sm, sa, mover_fps, footprints(sa))
    if end is None:
        return PullCheck("contact"), None
    return None, Sweep(sm.base, end, mover_fps, sim.pull_clearance_margin)


def _contact_witness(
    state: SceneState, mover: int, anchor: int, end: XY, sim: "SimConfig"
) -> PullCheck:
    """The check of a pull that passed ``_pair_check``: ``mog_grasp`` of the
    mover at contact ``end`` and the anchor, asked of the two stack values
    (the grasp test reads nothing else), so no table is built."""
    sm = state.stacks[mover]
    grasp = _stack_grasp(state.dishes, Stack(sm.dishes, end), state.stacks[anchor], sim)
    if grasp is None:
        return PullCheck("mog_allowable")
    return PullCheck(None, end=end, grasp=grasp)


def check_pull(state: SceneState, mover: int, anchor: int, sim: "SimConfig") -> PullCheck:
    """Test pulling ``mover`` into contact with ``anchor``, and say why it fails.

    A pull is worthwhile only with similar gripped-rim heights, a contact
    point along the center line, a multi-object grasp of the pair once in
    contact (a pull that cannot end in a grasp would be a wasted action),
    and no other stack overlapping the mover's footprints, grown by
    ``pull_clearance_margin``, anywhere on the way (so nothing is displaced).

    A stack's footprints are built, and tested against the sweep, only when
    its base lies in ``Sweep.box`` for the widest dish of the specs: all of
    them are centered on the base, so ``Sweep.meets`` would pass every stack
    this skips.
    """
    specs = sim.dish_specs

    def footprints(stack: Stack) -> list[Footprint]:
        return stack_footprints(state, stack, specs)

    failed, sweep = _pair_check(state, mover, anchor, sim, footprints)
    if failed is not None:
        return failed
    pair = _contact_witness(state, mover, anchor, sweep.end, sim)
    if not pair.allowable:
        return pair
    x0, x1, y0, y1 = sweep.box(widest_radius(specs))
    for stack in state.stacks.values():
        x, y = stack.base
        if (
            x0 <= x <= x1 and y0 <= y <= y1
            and stack.bottom not in (mover, anchor)
            and sweep.meets(footprints(stack))
        ):
            return PullCheck("corridor", stack.bottom, pair.end, pair.grasp)
    return pair


def stack_allowable(
    state: SceneState, lifted: int, base: int, sim: "SimConfig"
) -> bool:
    """True iff ``lifted`` may be placed on ``base`` and the result grasped:
    two distinct stacks on the table that pass ``_stack_fits``."""
    if lifted == base:
        return False
    sl = state.stacks.get(lifted)
    sb = state.stacks.get(base)
    if sl is None or sb is None:
        return False
    lip_b = stack_top_lip_height(sb, state.dishes, sim.dish_specs)
    return _stack_fits(state.dishes, sl, sb, lip_b, sim)


def _stack_fits(
    dishes: dict[int, Dish], lifted: Stack, base: Stack, lip_base: float, sim: "SimConfig"
) -> bool:
    """``stack_allowable``'s tests of two stack values, which need not be on
    a table, given the base's ``stack_top_lip_height``: the lifted bottom
    dish ``rests_on`` the base's top dish (a utensil, by its half width,
    rests on anything), and the jaw ``spans`` the merged pile.  The pile's
    span is the lifted stack's plus the base's plus the lifted bottom's
    ``nest_offset``, which ``DishSpec`` requires to be positive, so in exact
    arithmetic the jaw then spans the lifted stack too."""
    specs = sim.dish_specs
    if not specs[dishes[lifted.bottom].kind].rests_on(specs[dishes[base.top].kind]):
        return False
    # The merged pile's lip, its nest offsets summed in the order
    # ``stack_top_lip_height`` would sum them, without building the pile.
    height = lip_base
    for dish_id in lifted.dishes:
        height += specs[dishes[dish_id].kind].nest_offset
    return sim.gripper.spans(specs[dishes[base.bottom].kind].grasp_height, height)


# ---------------------------------------------------------------------------
# Transition
# ---------------------------------------------------------------------------


def _bin_stacks(state: SceneState, stack_ids: list[int]) -> list[int]:
    moved: list[int] = []
    for sid in stack_ids:
        stack = state.stacks.pop(sid)
        moved.extend(stack.dishes)
    state.bin = state.bin + tuple(moved)
    return moved


def _taller_first(state: SceneState, targets: list[int], sim: "SimConfig") -> int:
    """Target kept by a failed two-stack grasp: the taller lip wins the jaws."""
    def key(sid: int):
        lip = stack_top_lip_height(state.stacks[sid], state.dishes, sim.dish_specs)
        return (-lip, sid)

    return min(targets, key=key)


def _check_on_table(state: SceneState, targets: Iterable[int]) -> None:
    for sid in targets:
        if sid not in state.stacks:
            raise InfeasibleAction("target_on_table", f"stack {sid} not on table")


def grasp_fails(sim: "SimConfig", rng: SplitMix64) -> bool:
    """Whether the final grasp of the next action fails: one draw from
    ``rng`` when ``sim.p_fail`` is nonzero, and no draw when it is zero."""
    return sim.p_fail > 0.0 and rng.random() < sim.p_fail


def apply(
    state: SceneState, action: Action, sim: "SimConfig", *, failed: bool = False
) -> tuple[SceneState, dict]:
    """Execute one action, returning the successor state and its event.

    Raises InfeasibleAction (with the violated predicate's name) if the
    action's feasibility test fails in ``state``.  Only here is a witness
    grasp built.  A pair grasp names its two stacks, on the table, and
    ``mog_grasp`` gives its grasp.  A pull-grasp names its two stacks:
    ``check_pull`` tests it and gives the rest, the mover's path from its
    base to the contact point and the witness grasp of the pair there, in
    the state the pull leaves.  A stack-grasp's grasps name its stacks:
    each lift sets the stack it takes on the stack the final grasp takes, if
    ``stack_allowable``.  A grasp action's pose is its ``grasp_pose``, a
    stack-grasp's final grasp's on the merged pile.  When
    ``failed`` (see ``grasp_fails``), the action's final grasp fails: a
    failed single-stack grasp leaves the table unchanged (no trip); a
    failed two-stack grasp carries only the taller stack.  Pull and stack
    phases still execute before a failed grasp, so consolidations persist.

    The event is the action's ``run --trace`` object less ``t``, of lists,
    numbers and strings: ``action`` (``"grasp"``, ``"pull_grasp"`` or
    ``"stack_grasp"``); ``targets``, the stacks the final grasp takes,
    ascending; ``moved_to_bin``, the dishes binned, stack by stack from the
    bottom; ``trip``, whether any were; and ``params``.  A grasp's params
    are its pose, ``{"point": [x, y], "z", "theta"}``; a pull-grasp's are
    ``{"pull": {"start", "end", "theta", "mover", "anchor"}, "grasp": pose}``
    (``start`` and ``end`` as ``[x, y]``, ``theta`` the pull's heading); a
    stack-grasp's ``{"placements": [{"lifted", "base", "place": [x, y]},
    ...], "grasp": pose}``, one per lift.  A failed grasp adds ``"failed":
    true`` and, of two stacks, ``"abandoned"``: the stack it left.
    """
    if isinstance(action, PullGrasp):
        mover, anchor = action.mover, action.anchor
        check = check_pull(state, mover, anchor, sim)
        if not check.allowable:
            raise InfeasibleAction(
                "pull_allowable", f"stacks ({mover}, {anchor}): {check.reason}"
            )
        pose, (x0, y0), (x1, y1) = check.grasp, state.stacks[mover].base, check.end
        new = state.clone()
        new.stacks[mover] = Stack(state.stacks[mover].dishes, check.end)
        theta = normalize_angle(math.atan2(y1 - y0, x1 - x0))  # the gripper's heading
        kind, targets = "pull_grasp", sorted((mover, anchor))
        params = {"pull": {"start": [x0, y0], "end": [x1, y1], "theta": theta,
                           "mover": mover, "anchor": anchor}}
    elif isinstance(action, PairGrasp):
        a, b = action.a, action.b
        _check_on_table(state, (a, b))
        pose = mog_grasp(state, a, b, sim)
        if pose is None:
            raise InfeasibleAction("mog_allowable", f"stacks {(a, b)}")
        kind, targets, new, params = "grasp", sorted((a, b)), state.clone(), {}
    elif isinstance(action, GraspAction):
        pose = grasp_pose(state, action, sim)
        kind, targets, new, params = "grasp", [action.stack], state.clone(), {}
    else:
        base = action.grasp.stack
        new, placements = state, []
        for lift in action.lifts:
            lifted = lift.stack
            if not stack_allowable(new, lifted, base, sim):
                raise InfeasibleAction("stack_allowable", f"stack {lifted} onto {base}")
            if new.dishes[new.stacks[lifted].bottom].kind is _UTENSIL:
                _check_caging(lift)
            place = list(new.stacks[base].base)
            placements.append({"lifted": lifted, "base": base, "place": place})
            new = new.merged(lifted, base)
        pose = grasp_pose(new, action.grasp, sim)
        kind, targets, params = "stack_grasp", [base], {"placements": placements}
    point, z, theta = pose
    grasp = {"point": list(point), "z": z, "theta": theta}
    # A grasp's params are its grasp's; the others nest it after their own.
    params = grasp if kind == "grasp" else {**params, "grasp": grasp}

    carried = targets
    if failed:
        params["failed"] = True
        carried = []
        if len(targets) == 2:
            kept = _taller_first(new, targets, sim)
            params["abandoned"] = targets[0] if targets[1] == kept else targets[1]
            carried = [kept]
    moved = _bin_stacks(new, carried)
    return new, {"action": kind, "targets": targets, "moved_to_bin": moved,
                 "trip": bool(carried), "params": params}
