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
from collections.abc import Callable
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class GraspAction:
    """A top-down grasp of one or two stacks, ``targets``, at ``point``,
    height ``z`` and gripper heading ``theta``; of one, an action on its own
    (of two, ``mog_grasp``'s witness, which ``apply`` builds for a pair)."""

    point: XY
    z: float
    theta: float
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.targets) not in (1, 2) or len(set(self.targets)) < len(self.targets):
            raise ValueError("a grasp targets one or two distinct stacks")


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
    stack ``grasp`` takes, then carry the merged pile with ``grasp``.  Each
    grasp takes one stack, so the grasps name the stacks; no lift takes the
    carried stack."""

    lifts: tuple[GraspAction, ...]
    grasp: GraspAction

    def __post_init__(self):
        if not self.lifts:
            raise ValueError("stack-grasp needs at least one placement")
        if any(len(g.targets) != 1 for g in (*self.lifts, self.grasp)):
            raise ValueError("a stack-grasp's grasps each take one stack")
        if any(g.targets == self.grasp.targets for g in self.lifts):
            raise ValueError("a stack-grasp cannot lift a stack onto itself")


Action = GraspAction | PairGrasp | PullGrasp | StackGrasp


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

    Stacks on a cup or bowl are gripped on the bottom dish's rim at a
    uniformly sampled angle, so the whole pile is carried; utensil-bottom
    stacks are caged at the utensil's center, the gripper across its axis.
    """
    stack = state.stacks[stack_id]
    bottom = state.dishes[stack.bottom]
    spec = sim.dish_specs[bottom.kind]
    if bottom.kind is _UTENSIL:
        return GraspAction(
            point=stack.base,
            z=spec.grasp_height,
            theta=normalize_angle(bottom.theta + math.pi / 2.0),
            targets=(stack_id,),
        )
    angle = rng.uniform(0.0, 2.0 * math.pi)
    point, theta = rim_point(stack.base, spec.radius, angle)
    return GraspAction(point=point, z=spec.grasp_height, theta=theta, targets=(stack_id,))


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


def mog_grasp(
    state: SceneState, a: int, b: int, sim: "SimConfig"
) -> GraspAction | None:
    """Witness multi-object grasp for stacks ``a`` and ``b``, or None.

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


def _stack_grasp(
    dishes: dict[int, Dish], sa: Stack, sb: Stack, sim: "SimConfig"
) -> GraspAction | None:
    """``mog_grasp`` of two stack values, which need not be on a table: its
    tests in its order, and the witness targeting the two stacks' ids, their
    bottom dishes."""
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
    a, b = sa.bottom, sb.bottom
    lo, hi = (a, b) if a < b else (b, a)
    return GraspAction(point=mid, z=max(grip_a, grip_b), theta=theta, targets=(lo, hi))


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
    ``grasp`` the witness grasp there.
    """

    failed: str | None
    blocker: int | None = None
    end: XY | None = None
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
    its base lies in ``Sweep.box`` for the widest dish of the specs and
    ``Sweep.near`` admits the base with the circumradius of its own widest
    dish: all of them are centered on the base and none reaches further, so
    ``Sweep.meets`` would pass every stack this skips.
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
    dishes = state.dishes
    x0, x1, y0, y1 = sweep.box(widest_radius(specs))
    for stack in state.stacks.values():
        x, y = stack.base
        if (
            x0 <= x <= x1 and y0 <= y <= y1
            and stack.bottom not in (mover, anchor)
            and sweep.near(
                x, y,
                max([specs[dishes[d].kind].circumscribed_radius for d in stack.dishes]),
            )
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


def _bin_stacks(state: SceneState, stack_ids: tuple[int, ...]) -> tuple[int, ...]:
    moved: list[int] = []
    for sid in stack_ids:
        stack = state.stacks.pop(sid)
        moved.extend(stack.dishes)
    state.bin = state.bin + tuple(moved)
    return tuple(moved)


def _taller_first(state: SceneState, targets: tuple[int, ...], sim: "SimConfig") -> int:
    """Target kept by a failed two-stack grasp: the taller lip wins the jaws."""
    def key(sid: int):
        lip = stack_top_lip_height(state.stacks[sid], state.dishes, sim.dish_specs)
        return (-lip, sid)

    return min(targets, key=key)


def _check_on_table(state: SceneState, targets: tuple[int, ...]) -> None:
    for sid in targets:
        if sid not in state.stacks:
            raise InfeasibleAction("target_on_table", f"stack {sid} not on table")


def _check_graspable(state: SceneState, g: GraspAction, sim: "SimConfig") -> None:
    """Raise InfeasibleAction unless grasp ``g`` takes one stack
    (``one_stack_grasp``: two are a ``PairGrasp``), on the table, and is the
    grasp ``grasp_points``'s rule gives there: at the bottom dish's grasp
    height, caging a utensil at its base across its axis, or on the bottom
    dish's rim in the radial direction, within 1e-9 cm and rad."""
    targets = g.targets
    if len(targets) != 1:
        raise InfeasibleAction("one_stack_grasp", f"grasp {g}: ask for PairGrasp{targets}")
    _check_on_table(state, targets)
    stack = state.stacks[targets[0]]
    bottom = state.dishes[stack.bottom]
    spec = sim.dish_specs[bottom.kind]
    point, base = g.point, stack.base
    if bottom.kind is _UTENSIL:
        on_rule = point == base and g.theta == normalize_angle(bottom.theta + math.pi / 2)
    else:
        dx, dy = point[0] - base[0], point[1] - base[1]
        turn = (g.theta - math.atan2(dy, dx)) % math.pi  # off the radial direction
        off = math.hypot(dx, dy) - spec.radius  # off the rim
        on_rule = -1e-9 <= off <= 1e-9 and not 1e-9 < turn < math.pi - 1e-9
    if not on_rule or g.z != spec.grasp_height:
        raise InfeasibleAction("grasp_pose", f"grasp {g} is not a grasp of stack {targets[0]}")


def grasp_fails(sim: "SimConfig", rng: SplitMix64) -> bool:
    """Whether the final grasp of the next action fails: one draw from
    ``rng`` when ``sim.p_fail`` is nonzero, and no draw when it is zero."""
    return sim.p_fail > 0.0 and rng.random() < sim.p_fail


def apply(
    state: SceneState, action: Action, sim: "SimConfig", *, failed: bool = False
) -> tuple[SceneState, TraceEvent]:
    """Execute one action, returning the successor state and its trace event.

    Raises InfeasibleAction (with the violated predicate's name) if the
    action's feasibility test fails in ``state``.  Only here is a witness
    grasp built.  A pair grasp names its two stacks, on the table, and
    ``mog_grasp`` gives its grasp.  A pull-grasp names its two stacks:
    ``check_pull`` tests it and gives the rest, the mover's path from its
    base to the contact point and the witness grasp of the pair there, in
    the state the pull leaves.  A stack-grasp's grasps name its stacks:
    each lift sets the stack it takes on the stack the final grasp takes, if
    ``stack_allowable``.  Every other grasp takes one stack and must be the
    one its rule gives (see ``_check_graspable``): a lift grasp on the state
    it lifts from, and a stack-grasp's final grasp on the merged pile.  When
    ``failed`` (see ``grasp_fails``), the action's final grasp fails: a
    failed single-stack grasp leaves the table unchanged (no trip); a
    failed two-stack grasp carries only the taller stack.  Pull and stack
    phases still execute before a failed grasp, so consolidations persist.
    """
    if isinstance(action, PullGrasp):
        mover, anchor = action.mover, action.anchor
        check = check_pull(state, mover, anchor, sim)
        if not check.allowable:
            raise InfeasibleAction(
                "pull_allowable", f"stacks ({mover}, {anchor}): {check.reason}"
            )
        g, (x0, y0), (x1, y1) = check.grasp, state.stacks[mover].base, check.end
        new = state.clone()
        new.stacks[mover] = Stack(state.stacks[mover].dishes, check.end)
        theta = normalize_angle(math.atan2(y1 - y0, x1 - x0))  # the gripper's heading
        kind = "pull_grasp"
        params = {"pull": {"start": [x0, y0], "end": [x1, y1], "theta": theta,
                           "mover": mover, "anchor": anchor}}
    elif isinstance(action, PairGrasp):
        targets = action.a, action.b
        _check_on_table(state, targets)
        g = mog_grasp(state, *targets, sim)
        if g is None:
            raise InfeasibleAction("mog_allowable", f"stacks {targets}")
        kind, new, params = "grasp", state.clone(), {}
    elif isinstance(action, GraspAction):
        g = action
        _check_graspable(state, g, sim)
        kind, new, params = "grasp", state.clone(), {}
    else:
        g = action.grasp
        (base,) = g.targets
        new, placements = state, []
        for lift in action.lifts:
            (lifted,) = lift.targets
            if not stack_allowable(new, lifted, base, sim):
                raise InfeasibleAction("stack_allowable", f"stack {lifted} onto {base}")
            _check_graspable(new, lift, sim)
            place = list(new.stacks[base].base)
            placements.append({"lifted": lifted, "base": base, "place": place})
            new = new.merged(lifted, base)
        _check_graspable(new, g, sim)
        kind, params = "stack_grasp", {"placements": placements}
    grasp = {"point": list(g.point), "z": g.z, "theta": g.theta}
    # A grasp's params are its grasp's; the others nest it after their own.
    params = grasp if kind == "grasp" else {**params, "grasp": grasp}
    targets = g.targets

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
