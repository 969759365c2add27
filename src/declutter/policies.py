"""Decluttering policies: the single-item baseline plus two consolidation
policies built on pulls and stacks.

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
    _corridor_blockers,
    _grip_height,
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


@dataclass(frozen=True)
class PolicyConfig:
    kind: PolicyKind
    utensil_stacking: UtensilStacking = UtensilStacking.ONE_PER_BOWL

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
    and the corridor verdict as of ``arrivals`` stack arrivals (None until
    the corridor is first scanned)."""

    __slots__ = ("mover", "anchor", "pair", "verdict", "blocker", "arrivals")

    def __init__(self, mover: Stack, anchor: Stack, pair: PullCheck):
        self.mover = mover
        self.anchor = anchor
        self.pair = pair
        self.verdict = pair
        self.blocker: Stack | None = None
        self.arrivals: int | None = None


# A pull-policy move: ("grasp", (a, b), shared grasp), ("pull", (mover,
# anchor), grasp once in contact) or ("single", (stack,), None).
Move = tuple[str, tuple[int, ...], GraspAction | None]


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
    each stack value that arrived after it was computed, an arrival being a
    value on the table that was not on it at the previous ``sync``.
    Removing stacks can only clear corridors, so along a failure-free trial,
    where no stack ever arrives, the verdict lasts as long as its pair.  A
    failed pull-grasp or stack-grasp leaves a moved or merged stack behind,
    which is an arrival, and so is every stack of a table synced after a
    smaller one (the pull policy's look-ahead runs through later tables).

    ``plan`` holds the pull policy's planned moves, keyed by the ids of the
    stacks left, for tables whose stacks are the values in ``planned``
    (see ``pull_policy``).
    """

    def __init__(self, sim: "SimConfig"):
        self.sim = sim
        self.state = SceneState((0.0, 0.0), {}, {})
        self.plan: dict[frozenset[int], Move] = {}
        self.planned: dict[int, Stack] = {}
        self._present: dict[int, Stack] = {}
        self._arrivals: list[Stack] = []
        self._footprints: dict[int, tuple[Stack, list[Footprint]]] = {}
        self._grasps: dict[tuple[int, int], tuple[Stack, Stack, GraspAction | None]] = {}
        self._gaps: dict[tuple[int, int], tuple[Stack, Stack, float]] = {}
        self._pulls: dict[tuple[int, int], _PullEntry] = {}

    def sync(self, state: SceneState) -> None:
        """Make ``state`` the current table, noting its arrivals."""
        for sid, stack in state.stacks.items():
            if self._present.get(sid) is not stack:
                self._arrivals.append(stack)
        self._present = dict(state.stacks)
        self.state = state

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

    def _pull_entry(self, mover: int, anchor: int) -> _PullEntry:
        stacks = self.state.stacks
        sm, sa = stacks[mover], stacks[anchor]
        entry = self._pulls.get((mover, anchor))
        if entry is None or entry.mover is not sm or entry.anchor is not sa:
            pair = _pair_check(self.state, mover, anchor, self.sim, self.footprints)
            entry = self._pulls[(mover, anchor)] = _PullEntry(sm, sa, pair)
        return entry

    def pull(self, mover: int, anchor: int) -> PullCheck:
        """``check_pull`` of ``mover`` toward ``anchor``."""
        entry = self._pull_entry(mover, anchor)
        if not entry.pair.allowable:
            return entry.pair
        stacks = self.state.stacks
        if entry.arrivals is None:
            candidates = stacks.values()
        elif entry.blocker is None:
            if entry.arrivals == len(self._arrivals):
                return entry.verdict
            candidates = self._arrivals[entry.arrivals:]
        elif stacks.get(entry.blocker.id) is entry.blocker:
            return entry.verdict
        else:
            candidates = stacks.values()
        entry.arrivals = len(self._arrivals)
        sm, sa = entry.mover, entry.anchor
        others = (
            s for s in candidates
            if stacks.get(s.id) is s and s is not sm and s is not sa
        )
        blockers = _corridor_blockers(sm.base, entry.pair, others, self.footprints)
        blocker = next(blockers, None)
        if blocker is None:
            entry.blocker, entry.verdict = None, entry.pair
        else:
            entry.blocker = stacks[blocker]
            entry.verdict = replace(entry.pair, failed="corridor", blocker=blocker)
        return entry.verdict

    def pull_blockers(
        self, mover: int, anchor: int
    ) -> tuple[PullCheck, list[int]] | None:
        """The pair tests of ``mover``'s pull toward ``anchor`` and every
        stack meeting its corridor, or None when the pair tests fail."""
        pair = self._pull_entry(mover, anchor).pair
        if not pair.allowable:
            return None
        stacks = self.state.stacks
        others = (s for s in stacks.values() if s.id != mover and s.id != anchor)
        blockers = _corridor_blockers(stacks[mover].base, pair, others, self.footprints)
        return pair, list(blockers)


# Tables of at most this many stacks, the size of a paper scene, get a
# planned pull order; larger ones keep nearest-first.
PLAN_MAX_STACKS = 12


def _nearest_first(memo: PairMemo) -> Move:
    """Nearest-first's move on the memo's table: the nearest pair with a
    shared grasp, else the nearest allowable pull, else the lowest stack id.
    Ties go to the lowest ids."""
    ids = sorted(memo.state.stacks)
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
        return "grasp", (a, b), memo.shared_grasp(a, b)

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
        return "pull", (mover, anchor), memo.pull(mover, anchor).grasp

    return "single", (ids[0],), None


def _grip_classes(state: SceneState, bits: dict[int, int], sim: "SimConfig") -> list[int]:
    """Bit masks of the stacks that may pair with each other: grip heights
    sorted and split wherever two neighbours differ by more than the
    height-similarity threshold."""
    heights = sorted((_grip_height(state, state.stacks[sid], sim), sid) for sid in bits)
    threshold = sim.gripper.height_similarity_threshold + 1e-9
    classes: list[int] = []
    previous = None
    for height, sid in heights:
        if previous is None or height - previous > threshold:
            classes.append(0)
        classes[-1] |= bits[sid]
        previous = height
    return classes


def _trip_floor(left: int, classes: list[int]) -> int:
    """Fewest trips that could clear the stacks in ``left``: a trip takes at
    most two, both of one grip-height class."""
    return sum(((left & c).bit_count() + 1) // 2 for c in classes)


def _plan(state: SceneState, memo: PairMemo) -> dict[frozenset[int], Move]:
    """A failure-free order of moves that clears ``state`` in the fewest
    trips, keyed by the ids of the stacks left when each is taken.

    Nearest-first's own order when it meets the floor on trips
    (``_trip_floor``), otherwise ``_optimal_order``.
    """
    plan: dict[frozenset[int], Move] = {}
    left = state
    while left.stacks:
        memo.sync(left)
        move = _nearest_first(memo)
        plan[frozenset(left.stacks)] = move
        stacks = {sid: s for sid, s in left.stacks.items() if sid not in move[1]}
        left = SceneState(state.workspace, stacks, state.dishes)
    bits = {sid: 1 << i for i, sid in enumerate(sorted(state.stacks))}
    classes = _grip_classes(state, bits, memo.sim)
    if len(plan) == _trip_floor((1 << len(bits)) - 1, classes):
        return plan
    return _optimal_order(state, memo, bits, classes)


def _optimal_order(
    state: SceneState, memo: PairMemo, bits: dict[int, int], classes: list[int]
) -> dict[frozenset[int], Move]:
    """``_plan``'s exact search over subsets of the table.

    Failure-free, every table reachable from ``state`` is a subset of its
    stacks.  A pair can go in one trip from subset S when it has a shared
    grasp (which reads the pair alone), or when one pull direction passes
    the pair tests and none of the stacks meeting its corridor is in S.
    Each step takes, among the moves that start a minimum-trip order, the
    one nearest-first would rank highest: ready grasps by (gap, ids), then
    pulls by (gap, mover, anchor), then single grasps by stack id.
    """
    memo.sync(state)
    ids = list(bits)
    ranked = []  # (rank, move, stacks it clears, stacks that block it)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pair = bits[a] | bits[b]
            grasp = memo.shared_grasp(a, b)
            if grasp is not None:
                move = ("grasp", (a, b), grasp)
                ranked.append(((0, memo.gap(a, b), a, b), move, pair, 0))
                continue
            for mover, anchor in ((a, b), (b, a)):
                pull = memo.pull_blockers(mover, anchor)
                if pull is not None:
                    check, blockers = pull
                    move = ("pull", (mover, anchor), check.grasp)
                    mask = sum(bits[sid] for sid in blockers)
                    rank = (1, memo.gap(mover, anchor), mover, anchor)
                    ranked.append((rank, move, pair, mask))
    ranked.extend(((2, sid), ("single", (sid,), None), bits[sid], 0) for sid in ids)
    ranked.sort(key=lambda r: r[0])

    least = {0: 0}

    def trips(left: int) -> int:
        if left not in least:
            floor = _trip_floor(left, classes)
            best = left.bit_count()
            for _, _, cleared, blockers in ranked:
                if best == floor:
                    break
                if cleared & left != cleared or blockers & left:
                    continue
                rest = left ^ cleared
                if 1 + _trip_floor(rest, classes) < best:
                    best = min(best, 1 + trips(rest))
            least[left] = best
        return least[left]

    plan: dict[frozenset[int], Move] = {}
    left = (1 << len(ids)) - 1
    while left:
        target = trips(left)
        move, cleared = next(
            (move, cleared)
            for _, move, cleared, blockers in ranked
            if cleared & left == cleared
            and not blockers & left
            and 1 + trips(left ^ cleared) == target
        )
        plan[frozenset(sid for sid in ids if bits[sid] & left)] = move
        left ^= cleared
    return plan


def pull_policy(
    state: SceneState,
    rng: SplitMix64,
    sim: "SimConfig",
    cfg: PolicyConfig,
    memo: PairMemo | None = None,
) -> Action:
    """Grasp ready pairs first, then pull pairs together, then singles.

    Above ``PLAN_MAX_STACKS`` stacks the policy is nearest-first: (1) a
    multi-object grasp on the nearest pair that already passes the grasp
    test; (2) a pull-grasp on the nearest pullable pair; (3) a single grasp
    on the lowest-id stack.  On a smaller table it follows a failure-free
    order of those primitives that takes the fewest trips, keeping
    nearest-first's move wherever that move starts such an order, and plans
    again whenever a failed action leaves a table off the plan.  Pair
    results and the plan come from ``memo``, which carries them from one
    step of a trial to the next; a call without one starts from an empty
    memo.
    """
    if memo is None:
        memo = PairMemo(sim)
    memo.sync(state)
    if len(state.stacks) > PLAN_MAX_STACKS:
        move = _nearest_first(memo)
    else:
        key = frozenset(state.stacks)
        move = memo.plan.get(key)
        if move is None or any(
            memo.planned.get(sid) is not stack for sid, stack in state.stacks.items()
        ):
            memo.plan, memo.planned = _plan(state, memo), dict(state.stacks)
            memo.sync(state)
            move = memo.plan[key]
    kind, targets, grasp = move
    if kind == "pull":
        return PullGrasp(plan_pull(state, *targets, sim), grasp)
    if kind == "single":
        return Grasp(grasp_points(state, targets[0], rng, sim))
    return Grasp(grasp)


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
    ids = sorted(state.stacks)
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
                placement = StackPlacement(grasp_points(state, u, rng, sim), u, b)
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
                placements.append(
                    StackPlacement(grasp_points(working, u, rng, sim), u, chosen)
                )
                working = working.merged(u, chosen)
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
        placement = StackPlacement(grasp_points(state, lifted, rng, sim), lifted, base)
        carry = grasp_points(state.merged(lifted, base), base, rng, sim)
        return StackGrasp((placement,), carry)

    return Grasp(grasp_points(state, ids[0], rng, sim))


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
    while True:
        t = len(trace.events)
        if t >= cap:
            raise RuntimeError(
                f"policy {policy.kind.value} exceeded {cap} actions without clearing"
            )
        action = next_action(state, rng, sim, policy, memo)
        if action is None:
            break
        state, event = apply(state, action, sim, rng)
        event.t = t
        trace.events.append(event)
    trace.final_state = state
    return trace
