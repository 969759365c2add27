"""Decluttering policies: the single-item baseline plus two greedy
consolidation policies built on pulls and stacks.

All three are deterministic given (scene, seed, config): the only sampled
quantities are the baseline's dish choice and rim grasp angles, drawn from
one seeded stream.  Policies only ever return feasible actions; the
transition function re-checks and raises on violations, which would
indicate a policy bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .actions import (
    Action,
    Grasp,
    GraspAction,
    PullCheck,
    PullGrasp,
    StackGrasp,
    StackPlacement,
    TraceEvent,
    _corridor_blocker,
    _pair_check,
    apply,
    grasp_gap,
    grasp_points,
    mog_grasp,
    plan_pull,
    stack_allowable,
)
from .geometry import Footprint
from .rng import SplitMix64
from .tableware import (
    DishKind,
    SceneState,
    Stack,
    stack_footprints,
    stack_top_lip_height,
)

if TYPE_CHECKING:
    from .config import SimConfig


class PolicyKind(str, Enum):
    RANDOM = "random"
    PULL = "pull"
    STACK = "stack"


class UtensilStacking(str, Enum):
    ONE_PER_BOWL = "one_per_bowl"
    ALL_ON_ONE_BOWL = "all_on_one_bowl"


class PairSelection(str, Enum):
    NEAREST_FIRST = "nearest_first"


@dataclass(frozen=True)
class PolicyConfig:
    kind: PolicyKind
    utensil_stacking: UtensilStacking = UtensilStacking.ONE_PER_BOWL
    pair_selection: PairSelection = PairSelection.NEAREST_FIRST

    @classmethod
    def named(cls, name: str, utensil_stacking: str | None = None) -> "PolicyConfig":
        return cls(
            kind=PolicyKind(name),
            utensil_stacking=UtensilStacking(utensil_stacking)
            if utensil_stacking
            else UtensilStacking.ONE_PER_BOWL,
        )


def random_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig
) -> Action:
    """Pick a dish uniformly at random and grasp the stack containing it.

    Target selection is stack-agnostic, but a grasp always engages the
    bottom rim, so the whole stack rides along in one trip.
    """
    dish_ids = state.on_table_dish_ids()
    dish_id = dish_ids[rng.below(len(dish_ids))]
    stack = state.stack_containing(dish_id)
    return Grasp(grasp_points(state, stack.id, rng, sim))


class _PullEntry:
    """A memoized pull check: the pair's values, the pair tests' result,
    and the corridor verdict as of ``arrivals`` stack arrivals."""

    __slots__ = ("mover", "anchor", "pair", "verdict", "blocker", "arrivals")

    def __init__(self, mover: Stack, anchor: Stack, pair: PullCheck):
        self.mover = mover
        self.anchor = anchor
        self.pair = pair
        self.verdict = pair
        self.blocker: Stack | None = None
        self.arrivals = 0


class PairMemo:
    """Pair results of the pull policy, kept from one step of a trial to the next.

    Make one per trial and ``sync`` it with each state before asking for
    results.  Every entry keeps the ``Stack`` values it was computed from
    and is used only while those exact values are on the table; a moved or
    merged stack is a new value, so an entry dies with either stack of its
    pair.  Dishes never change kind or orientation, so a stack's value fixes
    its footprints.

    A corridor verdict also depends on the other stacks.  "Blocked by X"
    holds while X's value is on the table.  "Clear" is rechecked against
    each stack value that arrived after it was computed: with failures off
    none ever does, and removing stacks can only clear corridors, so the
    verdict lasts as long as its pair.  A failed pull-grasp or stack-grasp
    leaves a moved or merged stack behind, which is such an arrival.
    """

    def __init__(self, sim: "SimConfig"):
        self.sim = sim
        self.state = SceneState((0.0, 0.0), {}, {})
        self._seen: dict[int, Stack] = {}
        self._arrivals: list[Stack] = []
        self._footprints: dict[int, tuple[Stack, list[Footprint]]] = {}
        self._grasps: dict[tuple[int, int], tuple[Stack, Stack, GraspAction | None]] = {}
        self._gaps: dict[tuple[int, int], tuple[Stack, Stack, float]] = {}
        self._pulls: dict[tuple[int, int], _PullEntry] = {}

    def sync(self, state: SceneState) -> None:
        """Make ``state`` the current table, noting stack values new to it."""
        self.state = state
        for sid, stack in state.stacks.items():
            if self._seen.get(sid) is not stack:
                self._seen[sid] = stack
                self._arrivals.append(stack)

    def footprints(self, stack: Stack) -> list[Footprint]:
        """``stack_footprints`` of ``stack``."""
        entry = self._footprints.get(stack.id)
        if entry is None or entry[0] is not stack:
            fps = stack_footprints(self.state, stack, self.sim.dish_specs)
            entry = self._footprints[stack.id] = (stack, fps)
        return entry[1]

    def shared_grasp(self, a: int, b: int) -> GraspAction | None:
        """``mog_grasp`` of stacks ``a`` and ``b``."""
        sa, sb = self.state.stacks[a], self.state.stacks[b]
        entry = self._grasps.get((a, b))
        if entry is None or entry[0] is not sa or entry[1] is not sb:
            grasp = mog_grasp(self.state, a, b, self.sim)
            entry = self._grasps[(a, b)] = (sa, sb, grasp)
        return entry[2]

    def gap(self, a: int, b: int) -> float:
        """``grasp_gap`` of stacks ``a`` and ``b``."""
        sa, sb = self.state.stacks[a], self.state.stacks[b]
        entry = self._gaps.get((a, b))
        if entry is None or entry[0] is not sa or entry[1] is not sb:
            gap = grasp_gap(self.state, a, b, self.sim)[0]
            entry = self._gaps[(a, b)] = (sa, sb, gap)
        return entry[2]

    def pull(self, mover: int, anchor: int) -> PullCheck:
        """``check_pull`` of ``mover`` toward ``anchor``."""
        stacks = self.state.stacks
        sm, sa = stacks[mover], stacks[anchor]
        entry = self._pulls.get((mover, anchor))
        if entry is None or entry.mover is not sm or entry.anchor is not sa:
            pair = _pair_check(self.state, mover, anchor, self.sim, self.footprints)
            entry = self._pulls[(mover, anchor)] = _PullEntry(sm, sa, pair)
            if not pair.allowable:
                return pair
            candidates = stacks.values()
        elif not entry.pair.allowable:
            return entry.pair
        elif entry.blocker is None:
            if entry.arrivals == len(self._arrivals):
                return entry.verdict
            candidates = self._arrivals[entry.arrivals:]
        elif stacks.get(entry.blocker.id) is entry.blocker:
            return entry.verdict
        else:
            candidates = stacks.values()
        entry.arrivals = len(self._arrivals)
        others = (
            s for s in candidates
            if stacks.get(s.id) is s and s is not sm and s is not sa
        )
        blocker = _corridor_blocker(sm.base, entry.pair, others, self.footprints)
        if blocker is None:
            entry.blocker, entry.verdict = None, entry.pair
        else:
            entry.blocker = stacks[blocker]
            entry.verdict = replace(entry.pair, failed="corridor", blocker=blocker)
        return entry.verdict


def _sorted_stack_ids(state: SceneState) -> list[int]:
    return sorted(state.stacks)


def pull_policy(
    state: SceneState,
    rng: SplitMix64,
    sim: "SimConfig",
    cfg: PolicyConfig,
    memo: PairMemo | None = None,
) -> Action:
    """Grasp ready pairs first, then pull pairs together, then singles.

    Priority: (1) a multi-object grasp on the nearest pair that already
    passes the grasp test; (2) a pull-grasp on the nearest pullable pair;
    (3) a single grasp on the lowest-id stack.  Pair results come from
    ``memo``, which carries them from one step of a trial to the next; a
    call without one starts from an empty memo.
    """
    if memo is None:
        memo = PairMemo(sim)
    memo.sync(state)
    ids = _sorted_stack_ids(state)

    best_mog = min(
        (
            (memo.gap(a, b), a, b)
            for i, a in enumerate(ids)
            for b in ids[i + 1:]
            if memo.shared_grasp(a, b) is not None
        ),
        default=None,
    )
    if best_mog is not None:
        _, a, b = best_mog
        return Grasp(memo.shared_grasp(a, b))

    best_pull = min(
        (
            (memo.gap(mover, anchor), mover, anchor)
            for mover in ids
            for anchor in ids
            if mover != anchor and memo.pull(mover, anchor).allowable
        ),
        default=None,
    )
    if best_pull is not None:
        _, mover, anchor = best_pull
        return PullGrasp(plan_pull(state, mover, anchor, sim), memo.pull(mover, anchor).grasp)

    return Grasp(grasp_points(state, ids[0], rng, sim))


def _placement(
    state: SceneState, lifted: int, base: int, rng: SplitMix64, sim: "SimConfig"
) -> StackPlacement:
    inner = grasp_points(state, lifted, rng, sim)
    base_stack = state.stacks[base]
    merged_dishes = base_stack.dishes + state.stacks[lifted].dishes
    lip = stack_top_lip_height(
        Stack(base_stack.id, merged_dishes, base_stack.base),
        state.dishes,
        sim.dish_specs,
    )
    return StackPlacement(
        inner_grasp=inner,
        place=base_stack.base,
        place_z=lip,
        place_theta=inner.theta,
        lifted=lifted,
        base=base,
    )


def stack_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig
) -> Action:
    """Stack utensils onto bowls first, then merge pairs, then singles.

    While both utensil piles and bowl-topped stacks remain, utensils are
    placed on bowls and the merged pile carried out.  ``one_per_bowl``
    transports one utensil pile per bowl trip; ``all_on_one_bowl`` loads
    every remaining utensil pile onto a single bowl (while the pile stays
    graspable) before the trip.  After the utensil phase each trip merges
    at most two existing stacks: the returned stack-grasp immediately
    transports the merged pile, so piles of four or more cups or bowls can
    never form.  Anything left is cleared with single grasps.
    """
    ids = _sorted_stack_ids(state)
    dishes = state.dishes
    utensil_piles = [s for s in ids if dishes[state.stacks[s].bottom].kind is DishKind.UTENSIL]
    bowl_tops = [s for s in ids if dishes[state.stacks[s].top].kind is DishKind.BOWL]

    if utensil_piles and bowl_tops:
        if cfg.utensil_stacking is UtensilStacking.ONE_PER_BOWL:
            best: tuple[float, int, int] | None = None
            for u in utensil_piles:
                for b in bowl_tops:
                    if not stack_allowable(state, u, b, sim):
                        continue
                    gap = grasp_gap(state, u, b, sim)[0]
                    if best is None or (gap, u, b) < best:
                        best = (gap, u, b)
            if best is not None:
                _, u, b = best
                placement = _placement(state, u, b, rng, sim)
                carry = grasp_points(state, b, rng, sim)
                return StackGrasp((placement,), carry)
        else:
            chosen = min(
                bowl_tops,
                key=lambda b: (
                    sum(grasp_gap(state, u, b, sim)[0] for u in utensil_piles),
                    b,
                ),
            )
            order = sorted(
                utensil_piles, key=lambda u: (grasp_gap(state, u, chosen, sim)[0], u)
            )
            # Placements are simulated against an evolving preview so the
            # jaw constraint is checked against the growing pile.
            placements: list[StackPlacement] = []
            working = state
            for u in order:
                if not stack_allowable(working, u, chosen, sim):
                    continue
                placements.append(_placement(working, u, chosen, rng, sim))
                working = _merge_preview(working, u, chosen)
            if placements:
                carry = grasp_points(working, chosen, rng, sim)
                return StackGrasp(tuple(placements), carry)

    best_pair: tuple[float, int, int] | None = None
    for lifted in ids:
        for base in ids:
            if lifted == base:
                continue
            if not stack_allowable(state, lifted, base, sim):
                continue
            gap = grasp_gap(state, lifted, base, sim)[0]
            if best_pair is None or (gap, lifted, base) < best_pair:
                best_pair = (gap, lifted, base)
    if best_pair is not None:
        _, lifted, base = best_pair
        placement = _placement(state, lifted, base, rng, sim)
        merged = _merge_preview(state, lifted, base)
        carry = grasp_points(merged, base, rng, sim)
        return StackGrasp((placement,), carry)

    return Grasp(grasp_points(state, ids[0], rng, sim))


def _merge_preview(state: SceneState, lifted: int, base: int) -> SceneState:
    """State after merging ``lifted`` onto ``base`` without grasping."""
    preview = state.clone()
    lifted_stack = preview.stacks.pop(lifted)
    base_stack = preview.stacks[base]
    preview.stacks[base] = replace(
        base_stack, dishes=base_stack.dishes + lifted_stack.dishes
    )
    for dish_id in lifted_stack.dishes:
        preview.dishes[dish_id] = replace(preview.dishes[dish_id], pos=base_stack.base)
    return preview


_POLICY_FUNCS = {
    PolicyKind.RANDOM: random_policy,
    PolicyKind.STACK: stack_policy,
}


def next_action(
    state: SceneState,
    rng: SplitMix64,
    sim: "SimConfig",
    cfg: PolicyConfig,
    memo: PairMemo | None = None,
) -> Action | None:
    """Next feasible action for the policy, or None once the table is clear.

    ``memo`` is the trial's pair memo, used by the pull policy.
    """
    if not state.stacks:
        return None
    if cfg.kind is PolicyKind.PULL:
        return pull_policy(state, rng, sim, cfg, memo)
    return _POLICY_FUNCS[cfg.kind](state, rng, sim, cfg)


@dataclass
class Trace:
    """Full record of one trial: every event plus the final state."""

    events: list[TraceEvent] = field(default_factory=list)
    final_state: SceneState | None = None
    policy: str = ""
    seed: int = 0
    tier: str = "custom"

    @property
    def trips(self) -> int:
        return sum(1 for e in self.events if e.trip)

    @property
    def objects_cleared(self) -> int:
        return sum(len(e.moved_to_bin) for e in self.events)

    @property
    def failures(self) -> int:
        return sum(1 for e in self.events if e.params.get("failed"))


def run_policy(
    initial: SceneState,
    policy: PolicyConfig,
    sim: "SimConfig",
    seed: int,
    max_actions: int | None = None,
) -> Trace:
    """Run a policy to completion and return the trace.

    Terminates when the table is empty; with failures disabled every action
    strictly grows the bin, so at most one trip per dish is taken.  A
    safety cap on total actions guards against a policy that stops making
    progress.
    """
    rng = SplitMix64(seed)
    state = initial.clone()
    trace = Trace(policy=policy.kind.value, seed=seed, tier=initial.tier)
    cap = max_actions if max_actions is not None else 50 * max(len(state.dishes), 1) + 100
    memo = PairMemo(sim)
    t = 0
    while True:
        if t >= cap:
            raise RuntimeError(
                f"policy {policy.kind.value} exceeded {cap} actions without clearing"
            )
        action = next_action(state, rng, sim, policy, memo)
        if action is None:
            break
        state, events = apply(state, action, sim, rng)
        for event in events:
            event.t = t
            trace.events.append(event)
            t += 1
    trace.final_state = state
    return trace
