"""Dishes, stacks, scenes, and the tiered random scene generator.

A scene is a value: generation is a pure function of (tier config, seed),
and simulation produces new scene values rather than mutating shared state.
Scenes serialize to a fixed-field-order JSON schema with 6-decimal floats so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from .errors import PlacementExhausted, SchemaError, known_keys, number
from .geometry import (
    TOUCH_TOL,
    XY,
    Footprint,
    normalize_angle,
    overlaps,
    reach_limit,
    rect,
    separation,
)
from .rng import SplitMix64

MAX_RESAMPLES = 10_000

DEFAULT_WORKSPACE = (78.0, 61.0)


class DishKind(str, Enum):
    CUP = "cup"
    BOWL = "bowl"
    UTENSIL = "utensil"

_UTENSIL = DishKind.UTENSIL  # a module name reads faster than an enum member


@dataclass(frozen=True)
class DishSpec:
    """Physical description of one kind of dish.

    Cups and bowls are discs with a ``radius``; utensils are oriented
    rectangles with ``length`` x ``width``.  ``grasp_height`` is the height
    of the rim (or caging point) above the table; ``nest_offset`` is the
    vertical rise each nested dish of this kind adds to a stack.
    """

    kind: DishKind
    grasp_height: float = 1.0
    nest_offset: float = 1.0
    radius: float | None = None
    length: float | None = None
    width: float | None = None

    def __post_init__(self):
        if self.kind is DishKind.UTENSIL:
            if not (self.length and self.width and self.length >= self.width > 0):
                raise ValueError("utensil spec needs length >= width > 0")
        else:
            if not (self.radius and self.radius > 0):
                raise ValueError(f"{self.kind.value} spec needs radius > 0")
        if self.grasp_height <= 0 or self.nest_offset <= 0:
            raise ValueError("grasp_height and nest_offset must be positive")

    @property
    def effective_radius(self) -> float:
        """Radius used for stack stability ordering (half width for utensils)."""
        if self.kind is _UTENSIL:
            return self.width / 2.0
        return self.radius

    @cached_property
    def circumscribed_radius(self) -> float:
        if self.kind is DishKind.UTENSIL:
            return math.hypot(self.length / 2.0, self.width / 2.0)
        return self.radius

    @cached_property
    def grasp_reach(self) -> float:
        """Reach of the grasp locus from the base: rim radius or half a length."""
        if self.kind is DishKind.UTENSIL:
            return self.length / 2.0
        return self.radius

    def footprint(self, x: float, y: float, theta: float) -> Footprint:
        """The footprint at (x, y) of a dish of this kind turned by ``theta``."""
        if self.kind is _UTENSIL:
            return rect(x, y, self.length, self.width, theta)
        return x, y, self.radius


def widest_radius(specs: dict[DishKind, DishSpec]) -> float:
    """The largest ``circumscribed_radius`` of the dish specs."""
    return max(spec.circumscribed_radius for spec in specs.values())


def default_dish_specs() -> dict[DishKind, DishSpec]:
    """Default tableware set: 4.5 cm cups, 8.5 cm bowls, 17 x 1.8 cm utensils."""
    return {
        DishKind.CUP: DishSpec(DishKind.CUP, radius=4.5, grasp_height=9.0, nest_offset=2.0),
        DishKind.BOWL: DishSpec(DishKind.BOWL, radius=8.5, grasp_height=5.0, nest_offset=2.0),
        DishKind.UTENSIL: DishSpec(
            DishKind.UTENSIL, length=17.0, width=1.8, grasp_height=2.0, nest_offset=0.5
        ),
    }


@dataclass(frozen=True)
class Dish:
    """One dish; its id is its key in ``SceneState.dishes``, and its
    position is the ``base`` of the stack that holds it."""

    kind: DishKind
    theta: float = 0.0  # meaningful only for utensils, in [0, pi)


@dataclass(frozen=True)
class Stack:
    """Ordered pile of dishes sharing a base position, bottom to top.

    Singletons are stacks of size 1.  A stack's id is its bottom dish's, the
    key ``SceneState.stacks`` files it under (see ``validate``).
    """

    dishes: tuple[int, ...]
    base: XY
    bottom: int = field(init=False, compare=False, repr=False)  # dishes[0], set once
    top: int = field(init=False, compare=False, repr=False)  # dishes[-1], set once

    def __post_init__(self):
        if not self.dishes:
            raise ValueError("stack must contain at least one dish")
        object.__setattr__(self, "bottom", self.dishes[0])
        object.__setattr__(self, "top", self.dishes[-1])


@dataclass
class SceneState:
    """Workspace contents: live stacks and the bin.

    ``dishes`` is written only while a scene is built; after that a dish
    never changes, so every state derived from a scene shares its map.
    """

    workspace: tuple[float, float]
    stacks: dict[int, Stack]
    dishes: dict[int, Dish]
    bin: tuple[int, ...] = ()
    rng_seed: int = 0
    tier: str = "custom"

    def clone(self) -> "SceneState":
        return SceneState(
            self.workspace, dict(self.stacks), self.dishes, self.bin, self.rng_seed, self.tier
        )

    def merged(self, lifted: int, base: int) -> "SceneState":
        """The state after placing stack ``lifted`` on top of stack ``base``."""
        new = self.clone()
        top = new.stacks.pop(lifted)
        below = new.stacks[base]
        new.stacks[base] = Stack(below.dishes + top.dishes, below.base)
        return new


class Tier(str, Enum):
    T0_CUPS = "t0_cups"
    T0_BOWLS = "t0_bowls"
    T0_UTENSILS = "t0_utensils"
    T1 = "t1"
    T2 = "t2"


@dataclass(frozen=True)
class TierConfig:
    """Scene difficulty class: item counts and permitted initial stacking."""

    tier: Tier
    n_cups: int
    n_bowls: int
    n_utensils: int
    max_intersections: int = 0
    max_initial_stack: int = 1

    @classmethod
    def preset(cls, tier: Tier | str) -> "TierConfig":
        tier = Tier(tier)
        if tier is Tier.T0_CUPS:
            return cls(tier, 6, 0, 0)
        if tier is Tier.T0_BOWLS:
            return cls(tier, 0, 6, 0)
        if tier is Tier.T0_UTENSILS:
            return cls(tier, 0, 0, 6)
        if tier is Tier.T1:
            return cls(tier, 4, 4, 4)
        return cls(tier, 4, 4, 4, max_intersections=4, max_initial_stack=3)

    @property
    def total(self) -> int:
        return self.n_cups + self.n_bowls + self.n_utensils


# ---------------------------------------------------------------------------
# Footprints and stack measurements
# ---------------------------------------------------------------------------


def stack_footprints(
    state: SceneState, stack: Stack, specs: dict[DishKind, DishSpec]
) -> list[Footprint]:
    x, y = stack.base
    dishes = map(state.dishes.__getitem__, stack.dishes)
    return [specs[d.kind].footprint(x, y, d.theta) for d in dishes]


def stack_top_lip_height(
    stack: Stack, dishes: dict[int, Dish], specs: dict[DishKind, DishSpec]
) -> float:
    """Height of the top dish's lip: bottom grasp height plus nest offsets."""
    bottom = dishes[stack.bottom]
    height = specs[bottom.kind].grasp_height
    for dish_id in stack.dishes[1:]:
        height += specs[dishes[dish_id].kind].nest_offset
    return height


def stack_grasp_span(
    stack: Stack, dishes: dict[int, Dish], specs: dict[DishKind, DishSpec]
) -> float:
    """Lip-height difference between the top and bottom dish of a stack.

    A stack is rim-graspable only while this span fits within the gripper
    jaw height.
    """
    bottom = dishes[stack.bottom]
    return stack_top_lip_height(stack, dishes, specs) - specs[bottom.kind].grasp_height


# ---------------------------------------------------------------------------
# Generation and validation
# ---------------------------------------------------------------------------


def _inside_workspace(fp: Footprint, workspace: tuple[float, float]) -> bool:
    w, h = workspace
    tol = 1e-9
    if len(fp) == 3:
        cx, cy, r = fp
        return cx - r >= -tol and cy - r >= -tol and cx + r <= w + tol and cy + r <= h + tol
    cx, cy, hl, hw, c, s = fp
    for sx in (-hl, hl):
        for sy in (-hw, hw):
            x = cx + sx * c - sy * s
            y = cy + sx * s + sy * c
            if not (-tol <= x <= w + tol and -tol <= y <= h + tol):
                return False
    return True


class _Placed:
    """A stack ``generate_scene`` has placed, with its reach and footprints."""

    __slots__ = ("id", "base", "reach", "fps")

    def __init__(self, stack_id: int, base: XY, reach: float, fp: Footprint):
        self.id = stack_id
        self.base = base
        self.reach = reach
        self.fps = [fp]

    def add(self, reach: float, fp: Footprint) -> None:
        """Grow the reach and footprints by a dish that joins the stack."""
        self.reach = max(self.reach, reach)
        self.fps.append(fp)


class _Grid:
    """Placed stacks filed by the square cell of their base.

    The cell width is the largest ``reach_limit`` of two dishes of
    ``specs``, so every stack a footprint may overlap has its base in the
    3x3 cells around the footprint's centre.  Each cell keeps the stacks of
    those nine cells in one list, so a look-up reads one list.
    """

    def __init__(self, specs: dict[DishKind, DishSpec]):
        widest = widest_radius(specs)
        self.width = reach_limit(widest, widest)
        self.around: defaultdict[tuple[int, int], list[_Placed]] = defaultdict(list)

    def add(self, placed: _Placed) -> None:
        x, y = placed.base
        i, j = int(x // self.width), int(y // self.width)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                self.around[i + di, j + dj].append(placed)

    def hits(self, fp: Footprint, reach: float) -> list[_Placed]:
        """The placed stacks that footprint ``fp``, of circumradius ``reach``,
        overlaps: the first two, as callers tell only none, one and more apart."""
        x, y = fp[0], fp[1]
        found = []
        for s in self.around.get((int(x // self.width), int(y // self.width)), ()):
            bx, by = s.base
            if math.hypot(x - bx, y - by) <= reach_limit(reach, s.reach):
                for sfp in s.fps:
                    if separation(fp, sfp) <= TOUCH_TOL:
                        found.append(s)
                        if len(found) == 2:
                            return found
                        break
        return found


def generate_scene(
    cfg: TierConfig,
    seed: int,
    specs: dict[DishKind, DishSpec] | None = None,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
) -> SceneState:
    """Generate a scene by sequential rejection sampling.

    Objects are placed in the order utensils, bowls, cups, at positions
    sampled uniformly over the workspace inset by each object's
    circumscribed radius.  A sample that intersects exactly one existing
    stack joins it when the tier still has intersections available, the
    stability ordering permits, and the stack stays below the tier's size
    cap; any other intersection resamples.  Cups go last because they need
    the smallest free spot (placing bowls onto a crowded table can exhaust
    the sampler), and utensils go first so piles stay stability-ordered.
    Raises PlacementExhausted after 10,000 failed samples for one object.

    Each placed stack is filed in a grid by the cell of its base, with its
    reach and footprints, which grow as dishes join it.  A sample, and the
    clearance test of stacking it, look only at the 3x3 cells around a
    point: the cell width is the largest ``geometry.reach_limit`` of two
    dishes, so the stacks left out cannot overlap, and no draw or outcome
    changes.

    A sample costs its draws (x, y, then a utensil's angle), its footprint
    (``DishSpec.footprint``) and ``geometry.separation``, the test of
    ``overlaps``, against nearby footprints.  A ``Dish``, stack or grid
    record is built only for a kept sample.
    """
    specs = specs or default_dish_specs()
    rng = SplitMix64(seed)
    state = SceneState(
        workspace=workspace, stacks={}, dishes={}, rng_seed=seed, tier=cfg.tier.value
    )
    order = (
        [DishKind.UTENSIL] * cfg.n_utensils
        + [DishKind.BOWL] * cfg.n_bowls
        + [DishKind.CUP] * cfg.n_cups
    )
    intersections_used = 0
    w, h = workspace
    grid = _Grid(specs)
    for dish_id, kind in enumerate(order):
        spec = specs[kind]
        reach = spec.circumscribed_radius
        if 2 * reach >= min(w, h):
            raise PlacementExhausted(f"{kind.value} does not fit in the workspace")
        x_hi, y_hi = w - reach, h - reach
        for _ in range(MAX_RESAMPLES):
            x, y = rng.uniform(reach, x_hi), rng.uniform(reach, y_hi)
            theta = rng.uniform(0.0, math.pi) if kind is DishKind.UTENSIL else 0.0
            fp = spec.footprint(x, y, theta)
            hits = grid.hits(fp, reach)
            if not hits:
                pos = x, y
                state.stacks[dish_id] = Stack((dish_id,), pos)
                grid.add(_Placed(dish_id, pos, reach, fp))
                break
            if len(hits) == 1 and intersections_used < cfg.max_intersections:
                target = hits[0]
                stack = state.stacks[target.id]
                top_spec = specs[state.dishes[stack.top].kind]
                if (
                    len(stack.dishes) < cfg.max_initial_stack
                    and spec.effective_radius <= top_spec.effective_radius + 1e-9
                ):
                    sfp = target.base + fp[2:]
                    # A footprint at the target's base always overlaps it, and stays
                    # on the table: no joiner's circumradius exceeds the bottom dish's.
                    if grid.hits(sfp, reach) == [target]:
                        state.stacks[target.id] = replace(
                            stack, dishes=stack.dishes + (dish_id,)
                        )
                        target.add(reach, sfp)
                        intersections_used += 1
                        break
        else:
            raise PlacementExhausted(
                f"could not place {kind.value} #{dish_id} after {MAX_RESAMPLES} samples"
            )
        state.dishes[dish_id] = Dish(kind, theta)
    return state


def validate(
    state: SceneState, specs: dict[DishKind, DishSpec] | None = None
) -> list[str]:
    """Return a list of invariant violations; empty iff the scene is valid:
    a stack is filed under its bottom dish, and a dish is in one stack or
    the bin, inside the workspace; stacks are stable and do not overlap."""
    specs = specs or default_dish_specs()
    problems: list[str] = []

    seen: dict[int, int] = {}
    for sid, stack in state.stacks.items():
        if sid != stack.bottom:
            problems.append(f"stack filed under {sid} has bottom dish {stack.bottom}")
        for dish_id in stack.dishes:
            seen[dish_id] = seen.get(dish_id, 0) + 1
    for dish_id in state.bin:
        seen[dish_id] = seen.get(dish_id, 0) + 1
    for dish_id in state.dishes:
        count = seen.get(dish_id, 0)
        if count != 1:
            problems.append(f"dish {dish_id} appears {count} times across stacks and bin")
    for dish_id in seen:
        if dish_id not in state.dishes:
            problems.append(f"unknown dish id {dish_id}")

    placed: list[tuple[Stack, list[Footprint]]] = []
    for stack in state.stacks.values():
        if any(d not in state.dishes for d in stack.dishes):
            continue  # reported as an unknown dish id
        radii = [specs[state.dishes[d].kind].effective_radius for d in stack.dishes]
        if any(radii[i] + 1e-9 < radii[i + 1] for i in range(len(radii) - 1)):
            problems.append(f"stack stability violated: stack {stack.bottom}")
        fps = stack_footprints(state, stack, specs)
        for dish_id, fp in zip(stack.dishes, fps):
            if not _inside_workspace(fp, state.workspace):
                problems.append(f"out of workspace: dish {dish_id}")
        placed.append((stack, fps))

    placed.sort(key=lambda entry: entry[0].bottom)
    for i, (a, fps_a) in enumerate(placed):
        for b, fps_b in placed[i + 1:]:
            if any(overlaps(fa, fb) for fa in fps_a for fb in fps_b):
                problems.append(f"stacks overlap: {a.bottom} and {b.bottom}")
    return problems


# ---------------------------------------------------------------------------
# Scene JSON (fixed field order, 6-decimal floats, byte-stable)
# ---------------------------------------------------------------------------


def _f6(value: float) -> str:
    return f"{value:.6f}"


def scene_to_json(state: SceneState) -> str:
    stacks_parts = []
    for _, stack in sorted(state.stacks.items()):
        dish_parts = []
        for dish_id in stack.dishes:
            dish = state.dishes[dish_id]
            if dish.kind is DishKind.UTENSIL:
                dish_parts.append(
                    f'{{"id": {dish_id}, "kind": "{dish.kind.value}", '
                    f'"theta": {_f6(dish.theta)}}}'
                )
            else:
                dish_parts.append(f'{{"id": {dish_id}, "kind": "{dish.kind.value}"}}')
        stacks_parts.append(
            f'{{"base": [{_f6(stack.base[0])}, {_f6(stack.base[1])}], '
            f'"dishes": [{", ".join(dish_parts)}]}}'
        )
    return (
        f'{{"workspace": [{_f6(state.workspace[0])}, {_f6(state.workspace[1])}], '
        f'"seed": {state.rng_seed}, "tier": "{state.tier}", '
        f'"stacks": [{", ".join(stacks_parts)}]}}'
    )


def scene_from_json(text: str, specs: dict[DishKind, DishSpec] | None = None) -> SceneState:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scene file is not valid JSON: {exc}") from exc
    known_keys(data, ("workspace", "seed", "tier", "stacks"), "scene")
    try:
        ws = data["workspace"]
        seed = data["seed"]
        tier = data["tier"]
        raw_stacks = data["stacks"]
    except KeyError as exc:
        raise SchemaError(f"scene file missing field {exc}") from exc
    if not isinstance(ws, list) or len(ws) != 2:
        raise SchemaError("workspace must be [width, height]")
    workspace = (float(number(ws[0], "workspace width")),
                 float(number(ws[1], "workspace height")))
    if min(workspace) <= 0:
        raise SchemaError("workspace sides must be positive")
    if not isinstance(raw_stacks, list) or not raw_stacks:
        raise SchemaError("stacks must be a non-empty list")
    if tier not in ("custom", *(t.value for t in Tier)):
        raise SchemaError(f"tier must be a tier name or 'custom', not {tier!r}")

    state = SceneState(
        workspace=workspace,
        stacks={},
        dishes={},
        rng_seed=number(seed, "seed", integer=True),
        tier=tier,
    )
    for idx, raw in enumerate(raw_stacks):
        known_keys(raw, ("base", "dishes"), f"stack {idx}")
        try:
            x, y = raw["base"]
            base = float(number(x, "base x")), float(number(y, "base y"))
            raw_dishes = raw["dishes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"stack {idx} malformed: {exc}") from exc
        if not isinstance(raw_dishes, list) or not raw_dishes:
            raise SchemaError(f"stack {idx}: dishes must be a non-empty list")
        ids = []
        for rd in raw_dishes:
            known_keys(rd, ("id", "kind", "theta"), f"stack {idx} dish")
            try:
                dish_id = number(rd["id"], "id", integer=True)
                kind = DishKind(rd["kind"])
                theta = (
                    normalize_angle(float(number(rd.get("theta", 0.0), "theta")))
                    if kind is DishKind.UTENSIL
                    else 0.0
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"stack {idx} dish malformed: {exc}") from exc
            if dish_id in state.dishes:
                raise SchemaError(f"duplicate dish id {dish_id}")
            state.dishes[dish_id] = Dish(kind, theta)
            ids.append(dish_id)
        state.stacks[ids[0]] = Stack(tuple(ids), base)

    problems = validate(state, specs)
    if problems:
        raise SchemaError("invalid scene: " + "; ".join(problems))
    return state
