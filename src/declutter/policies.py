"""Decluttering policies: the single-item baseline plus two consolidation
policies built on pulls and stacks.

All three are deterministic given (scene, seed, config): the only sampled
quantities are the baseline's dish choice and rim grasp angles, drawn from
one seeded stream.  Policies only ever return feasible actions; the
transition function re-checks and raises on violations, which would
indicate a policy bug.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING

from .actions import (
    Action,
    Grasp,
    GraspAction,
    PullAction,
    PullCheck,
    PullGrasp,
    StackGrasp,
    StackPlacement,
    TraceEvent,
    _grasp_gap_xy,
    _grip_height,
    _pair_check,
    apply,
    grasp_fails,
    grasp_points,
    mog_grasp,
    stack_allowable,
)
from .geometry import Footprint, Sweep, reach_limit
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
        """The policy ``name``; ``utensil_stacking`` is a stack policy mode."""
        kind = PolicyKind(name)
        if utensil_stacking and kind is not PolicyKind.STACK:
            raise ValueError(f"utensil_stacking applies to the stack policy only, not {name}")
        return cls(kind, UtensilStacking(utensil_stacking or UtensilStacking.ONE_PER_BOWL))


def random_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig, memo: PairMemo | None
) -> Action:
    """Pick a dish uniformly at random and grasp the stack containing it.

    Target selection is stack-agnostic, but a grasp always engages the
    bottom rim, so the whole stack rides along in one trip.  No pair is
    asked about, so ``memo`` goes unused.
    """
    dish_ids = state.on_table_dish_ids()
    dish_id = dish_ids[rng.below(len(dish_ids))]
    stack = state.stack_containing(dish_id)
    return Grasp(grasp_points(state, stack.id, rng, sim))


class _PullEntry:
    """A memoized pull check: the pair tests' result, the mover's sweep when
    they pass, the value bits tested against the sweep (the pair's own from
    the start) and those of them that meet it."""

    __slots__ = ("pair", "sweep", "tested", "blocked")

    def __init__(self, pair: PullCheck, sweep: Sweep | None, own: int):
        self.pair = pair
        self.sweep = sweep
        self.tested = own
        self.blocked = 0


class _Walk:
    """How far a ``nearest`` walk has read its scope's pair list: the index
    of the first pair not read, and the (gap, a, b, bits of a and b) of the
    pairs its test admitted before it, sorted.  Each scope keeps one per
    test for walks on the synced table."""

    __slots__ = ("cursor", "admitted")

    def __init__(self):
        self.cursor = 0
        self.admitted: list[tuple[float, int, int, int]] = []


class _Scope:
    """The pairs ``nearest`` reads for one pair of masks: those of synced
    values with one value in each mask, sorted by (gap bound, a, b) and
    listed by ``_widen`` only as far as the walks read, up to ``rings``
    cells apart and so complete below ``horizon``; and the walks through
    them, by (test, ``within``)."""

    __slots__ = ("lifted", "base", "pairs", "rings", "horizon", "walks")

    def __init__(self, lifted: int, base: int):
        self.lifted, self.base = lifted, base
        # (gap bound, a, b, bits of a and b, bit of a)
        self.pairs: list[tuple[float, int, int, int, int]] = []
        self.rings, self.horizon = -1, -math.inf
        self.walks: dict[tuple[Admit, float], _Walk] = {}


# A pull-policy move: ("grasp", (a, b), shared grasp), ("pull", (mover,
# anchor), the pull's allowable pair tests) or ("single", (stack,), None).
Move = tuple[str, tuple[int, ...], GraspAction | PullCheck | None]

# A test that admits an ordered pair (a, b) of synced stack ids to ``nearest``.
Admit = Callable[["PairMemo", int, int], bool]

Locus = tuple[int, int, int, int, float, float, float]  # bit, id, base cell, base, reach

# What ``nearest`` reads past the last pair: a bound no walk reaches.
_PAST_LAST_PAIR = (math.inf, -1, -1, 0, 0)


class PairMemo:
    """Pair results of a policy, kept from one step of a trial to the next.

    Make one per trial and ``sync`` it with each state before asking for
    results.  ``sync`` gives each stack value it has not seen before a bit
    of its own for the rest of the trial and sets ``table`` to the mask of
    the synced table's bits.  A moved or merged stack is a new value, so a
    bit names one value; dishes never change kind or orientation, so a
    value fixes its footprints, grip height and bottom and top dishes (see
    the masks ``utensil_piles`` and ``bowl_tops``).  Footprints, shared
    grasps, gaps, stacking tests and pull tests are keyed by value bits,
    and a result keyed by bits never goes stale.  A stack that is the very
    object synced under its id keeps that bit without being hashed, so a
    step looks up by value only the stacks the last action made.

    ``nearest`` ranks the ordered pairs a test admits by (gap, ids): it
    walks a list of the synced table's pairs, sorted by a lower bound on
    the gap and built only as far as walks read it (``_widen``), and tests a
    pair only when it gets there.  A walk may be scoped to the pairs (a, b)
    with a in one mask and b in another; each scope keeps a list of its own
    (``_Scope``), which holds no pair outside it.  A walk on the synced
    table resumes where the last one with its test and scope stopped, so a
    step tests only the pairs that no earlier such walk reached; a walk on
    a subset keeps nothing.  ``sync`` starts the scopes afresh when a value
    arrives.  It drops a scope's pairs of values that left, and starts its
    walks afresh, once those outnumber the live ones; until then walks skip
    them.

    A corridor verdict also depends on the other stacks.  Each pull keeps
    the mask of values tested against its corridor and the mask of those
    that meet it; a question about a table tests only the values on it not
    tested yet, up to the first that meets the corridor.  So a corridor
    test runs at most once per pull and stack value in a trial, whichever
    table asks.  Only ``sync`` sets ``table``; the pull policy's planner
    passes the subsets it looks ahead on as masks to ``nearest``, ``pull``
    and ``ids``.

    ``plan`` holds the pull policy's planned moves keyed by table mask (see
    ``pull_policy``).
    """

    def __init__(self, sim: "SimConfig"):
        self.sim = sim
        self.state = SceneState((0.0, 0.0), {}, {})
        self.table = 0
        self.plan: dict[int, Move] = {}
        self.utensil_piles = self.bowl_tops = 0
        self._bits: dict[Stack, int] = {}
        self._values: dict[int, Stack] = {}
        self._ids: dict[int, int] = {}
        self._loci: dict[int, Locus] = {}
        self.grips: dict[int, float] = {}  # ``_grip_height`` of each value
        # The widest grasp reach and the width of the cells bases are filed
        # in: bases more than k cells apart lie at least k widths apart; at
        # 0.8 reaches, ring 3's horizon is 0.4 reaches.
        self._reach = max(spec.grasp_reach for spec in sim.dish_specs.values())
        self._cell = 0.8 * self._reach
        self._footprints: dict[int, list[Footprint]] = {}
        self._grasps: dict[tuple[int, int], GraspAction | None] = {}
        self._gaps: dict[tuple[int, int], float] = {}
        self._stackable: dict[tuple[int, int], bool] = {}
        self._pulls: dict[tuple[int, int], _PullEntry] = {}
        # The scopes by their masks' bits on ``_listed``, the synced table
        # when they were started: no value off it is listed, and a value
        # made since (a previewed pile) changes no scope's key.
        self._scopes: dict[tuple[int, int], _Scope] = {}
        self._listed = 0

    def _bit(self, stack: Stack) -> int:
        bit = self._bits.get(stack)
        if bit is None:
            bit = self._bits[stack] = 1 << len(self._values)
            self._values[bit] = stack
            dishes, x, y, w = self.state.dishes, stack.base.x, stack.base.y, self._cell
            kind = dishes[stack.bottom].kind
            reach = self.sim.dish_specs[kind].grasp_reach
            self._loci[bit] = (bit, stack.id, int(x // w), int(y // w), x, y, reach)
            self.grips[bit] = _grip_height(self.state, stack, self.sim)
            self.utensil_piles |= bit if kind is DishKind.UTENSIL else 0
            self.bowl_tops |= bit if dishes[stack.top].kind is DishKind.BOWL else 0
        return bit

    def _bit_of(self, sid: int, stack: Stack) -> int:
        """The bit of ``stack``, stack ``sid`` of some state: the bit synced
        under ``sid`` when ``stack`` is the very object it names, else the
        bit of its value."""
        bit = self._ids.get(sid, 0)
        return bit if self._values.get(bit) is stack else self._bit(stack)

    def sync(self, state: SceneState) -> None:
        """Make ``state`` the current table."""
        self.state, old, values = state, self._ids, self._values
        ids = {}
        for sid, stack in state.stacks.items():  # ``_bit_of``, inlined
            bit = old.get(sid, 0)
            ids[sid] = bit if values.get(bit) is stack else self._bit(stack)
        table = sum(ids.values())
        arrived = table & ~self.table
        self._ids, self.table = ids, table
        if arrived:  # list the pairs afresh, as far as the walks read
            self._scopes, self._listed = {}, table
        for scope in self._scopes.values():
            if len(scope.pairs) > len(ids) * (len(ids) - 1):
                scope.pairs = [entry for entry in scope.pairs if entry[3] & table == entry[3]]
                scope.walks = {}

    def _widen(self, scope: _Scope) -> None:
        """List the scope's pairs whose base cells lie more than its
        ``rings`` apart, up to the next ring (at least ring 3, the first
        with a horizon above 0), or all of them once that takes as many
        look-ups as the table has pairs.  Then no pair of the scope on the
        synced table left out is bounded below its ``horizon``, and none
        listed now sorts before an entry a walk read."""
        lifted, base, listed = scope.lifted, scope.base, scope.rings
        live = [self._loci[bit] for bit in self._ids.values() if bit & (lifted | base)]
        k = max(listed + 1, 3)
        # Once rings up to k add as many cells as there are other values, a
        # look-up of each from every value costs as much as listing every pair.
        if (2 * k + 1) ** 2 - max(2 * listed + 1, 0) ** 2 >= len(self._ids) - 1:
            pairs: Iterable[tuple[Locus, Locus]] = combinations(live, 2)
            if listed >= 0:
                pairs = ((a, b) for a, b in pairs
                         if max(abs(b[2] - a[2]), abs(b[3] - a[3])) > listed)
            scope.rings = scope.horizon = math.inf
        else:
            # Half the new cell offsets, so that each pair of cells is met once.
            ring = [(di, dj) for di in range(k + 1) for dj in range(-k, k + 1)
                    if max(di, abs(dj)) > listed and (di, dj) >= (0, 0)]
            cells: dict[tuple[int, int], list[Locus]] = {}
            for locus in live:
                cells.setdefault(locus[2:4], []).append(locus)
            pairs = ((a, b) for (i, j), here in cells.items() for di, dj in ring
                     for b in cells.get((i + di, j + dj), ())
                     for a in here if di or dj or a[0] < b[0])
            scope.rings, scope.horizon = k, k * self._cell - reach_limit(self._reach, self._reach)
        scope.pairs += [
            (math.hypot(b[4] - a[4], b[5] - a[5]) - reach_limit(a[6], b[6]), a[1], b[1],
             a[0] | b[0], a[0])
            for a, b in pairs
            if a[0] & lifted and b[0] & base or b[0] & lifted and a[0] & base
        ]
        scope.pairs.sort()

    def nearest(
        self, admit: Admit, within: float = math.inf, lifted: int = -1, base: int = -1,
        table: int | None = None,
    ) -> Iterator[tuple[int, int]]:
        """The ordered pairs (a, b) on ``table`` (a mask of the synced
        table's bits; None for all of it) with a's bit in ``lifted`` and b's
        in ``base`` that ``admit`` accepts, by (``gap(a, b)``, a, b).
        ``admit`` reads only the two stack values and is asked only about
        such pairs; if it rejects every gap of at least ``within``, the walk
        stops at the first gap bound that reaches ``within``.  A pair is
        tested and its gap computed only once the pairs of the scope bounded
        below it are read.

        A walk on the synced table resumes where the last one with the same
        (``admit``, ``within``) and scope stopped: it keeps its cursor in the
        scope's pair list and the pairs it admitted before it, sorted.  A
        walk on a narrower table keeps nothing and starts from the head.
        Read a walk on the synced table before the next ``sync`` or walk on
        it with the same test and scope."""
        key = (lifted & self._listed, base & self._listed)
        scope = self._scopes.get(key)
        if scope is None:
            scope = self._scopes[key] = _Scope(*key)
        lifted, base = key
        table = self.table if table is None else table
        if table == self.table:
            walk = scope.walks.get((admit, within))
            if walk is None:
                walk = scope.walks[(admit, within)] = _Walk()
        else:
            walk = _Walk()
        pairs, admitted = scope.pairs, walk.admitted
        read = 0  # index of the first kept entry not yet yielded or passed
        j = walk.cursor
        while True:
            bound, a, b, bits, bit_a = pairs[j] if j < len(pairs) else _PAST_LAST_PAIR
            if bound >= scope.horizon < within:
                self._widen(scope)  # unlisted pairs may have bounds below this one
                continue
            j += 1
            if bound >= within:
                bound = math.inf  # nothing left to test: yield the rest
            elif bits & table != bits:
                continue
            # Yield the kept pairs on ``table`` with gaps below ``bound``: a
            # pair admitted later has a gap of at least ``bound`` and lands
            # after them.
            while read < len(admitted) and admitted[read][0] < bound:
                entry = admitted[read]
                read += 1
                if entry[3] & table == entry[3]:
                    yield entry[1:3]
            if bound == math.inf:
                return
            bit_b = bits ^ bit_a
            if bit_a & lifted and bit_b & base and admit(self, a, b):
                insort(admitted, (self.gap(a, b), a, b, bits))
            if bit_b & lifted and bit_a & base and admit(self, b, a):
                insort(admitted, (self.gap(b, a), b, a, bits))
            walk.cursor = j

    def bit(self, sid: int) -> int:
        """The value bit of stack ``sid`` of the synced table."""
        return self._ids[sid]

    def ids(self, mask: int = -1) -> list[int]:
        """Ids of the stacks on ``table`` whose bits are in ``mask``, in order."""
        return sorted(sid for sid, bit in self._ids.items() if bit & self.table & mask)

    def footprints(self, stack: Stack) -> list[Footprint]:
        """``stack_footprints`` of ``stack``, a value seen by ``sync``."""
        return self._bit_footprints(self._bit_of(stack.id, stack))

    def _bit_footprints(self, bit: int) -> list[Footprint]:
        fps = self._footprints.get(bit)
        if fps is None:
            fps = stack_footprints(self.state, self._values[bit], self.sim.dish_specs)
            self._footprints[bit] = fps
        return fps

    def shared_grasp(self, a: int, b: int) -> GraspAction | None:
        """``mog_grasp`` of stacks ``a`` and ``b``."""
        key = (self._ids[a], self._ids[b])
        if key not in self._grasps:
            self._grasps[key] = mog_grasp(self.state, a, b, self.sim)
        return self._grasps[key]

    def gap(self, a: int, b: int) -> float:
        """``grasp_gap`` of stacks ``a`` and ``b``."""
        key = (self._ids[a], self._ids[b])
        if key not in self._gaps:
            self._gaps[key] = _grasp_gap_xy(self.state, a, b, self.sim)[0]
        return self._gaps[key]

    def stackable(self, state: SceneState, lifted: int, base: int) -> bool:
        """``stack_allowable`` of stacks ``lifted`` and ``base`` of ``state``:
        the synced table, or a preview of stacking on it whose new values
        get bits of their own."""
        stacks = state.stacks
        key = (self._bit_of(lifted, stacks[lifted]), self._bit_of(base, stacks[base]))
        if key not in self._stackable:
            self._stackable[key] = stack_allowable(state, lifted, base, self.sim)
        return self._stackable[key]

    def _corridor(self, mover: int, anchor: int, table: int) -> tuple[PullCheck, int]:
        """The pair tests of ``mover``'s pull toward ``anchor`` and the bit
        of a stack on ``table`` (a mask of the synced table's bits) that
        meets its corridor, or 0 when none does or the pair tests fail.
        Only the values on ``table`` not yet tested against this pull are
        tested, up to the first that meets it."""
        bm, ba = self._ids[mover], self._ids[anchor]
        entry = self._pulls.get((bm, ba))
        if entry is None:
            pair, sweep = _pair_check(self.state, mover, anchor, self.sim, self.footprints)
            entry = self._pulls[(bm, ba)] = _PullEntry(pair, sweep, bm | ba)
        pair = entry.pair
        blocked = entry.blocked & table
        if blocked or not pair.allowable:
            return pair, blocked & -blocked
        untested = table & ~entry.tested
        while untested:
            bit = untested & -untested
            untested ^= bit
            entry.tested |= bit
            if entry.sweep.meets(self._bit_footprints(bit)):
                entry.blocked |= bit
                return pair, bit
        return pair, 0

    def pull(self, mover: int, anchor: int, table: int | None = None) -> PullCheck:
        """``check_pull`` of ``mover`` toward ``anchor`` on ``table`` (a mask
        of the synced table's bits; None for all of it), naming one of the
        blocking stacks when the corridor is blocked."""
        pair, blocker = self._corridor(mover, anchor, self.table if table is None else table)
        if not blocker:
            return pair
        # Built directly: ``replace`` costs several times more, and the
        # nearest-first search asks about every blocked pull at each step.
        return PullCheck("corridor", self._values[blocker].id, pair.end, pair.grasp)


# Tables of at most this many stacks, the size of a paper scene, get a
# planned pull order; larger ones keep nearest-first.
PLAN_MAX_STACKS = 12


def _ready(memo: PairMemo, a: int, b: int) -> bool:
    """Whether ``a`` < ``b`` have a shared grasp: never at a gap of max_opening or more."""
    return a < b and memo.shared_grasp(a, b) is not None


def _same_grip(memo: PairMemo, mover: int, anchor: int) -> bool:
    """Whether the two stacks' gripped-rim heights match, the first of a
    pull's pair tests."""
    grips = memo.grips
    return memo.sim.gripper.similar_heights(grips[memo.bit(mover)], grips[memo.bit(anchor)])


def _nearest_first(memo: PairMemo, table: int) -> Move:
    """Nearest-first's move on ``table``, a mask of the memo's synced
    table: the nearest pair with a shared grasp, else the nearest allowable
    pull, else the lowest stack id.  Ties go to the lowest ids.  Corridors
    are tested only down to the first pull they leave clear."""
    for a, b in memo.nearest(_ready, within=memo.sim.gripper.max_opening, table=table):
        return "grasp", (a, b), memo.shared_grasp(a, b)
    for mover, anchor in memo.nearest(_same_grip, table=table):
        check = memo.pull(mover, anchor, table)
        if check.allowable:
            return "pull", (mover, anchor), check
    return "single", (memo.ids(table)[0],), None


def _grip_classes(memo: PairMemo) -> list[int]:
    """Masks of the stacks on the memo's table that may pair with each
    other: grip heights sorted and split wherever two neighbours differ by
    more than the height-similarity threshold."""
    sim = memo.sim
    heights = sorted((memo.grips[memo.bit(sid)], sid) for sid in memo.ids())
    classes: list[int] = []
    previous = None
    for height, sid in heights:
        if previous is None or not sim.gripper.similar_heights(height, previous):
            classes.append(0)
        classes[-1] |= memo.bit(sid)
        previous = height
    return classes


def _trip_floor(left: int, classes: list[int]) -> int:
    """Fewest trips that could clear the stacks in ``left``: a trip takes at
    most two, both of one grip-height class."""
    return sum(((left & c).bit_count() + 1) // 2 for c in classes)


def _plan(memo: PairMemo) -> dict[int, Move]:
    """A failure-free order of moves that clears the memo's table in the
    fewest trips, keyed by the mask of the stacks left when each is taken.

    Nearest-first's own order when it meets the floor on trips
    (``_trip_floor``), otherwise ``_optimal_order``.
    """
    plan: dict[int, Move] = {}
    left = memo.table
    while left:
        move = plan[left] = _nearest_first(memo, left)
        left &= ~sum(memo.bit(sid) for sid in move[1])
    classes = _grip_classes(memo)
    if len(plan) == _trip_floor(memo.table, classes):
        return plan
    return _optimal_order(memo, classes)


def _optimal_order(memo: PairMemo, classes: list[int]) -> dict[int, Move]:
    """``_plan``'s exact search over subsets of the memo's table.

    Failure-free, every table reachable from this one is a subset of its
    stacks.  A pair can go in one trip from subset S when it has a shared
    grasp (which reads the pair alone), or when one pull direction passes
    the pair tests and none of the stacks meeting its corridor is in S.
    Each step takes, among the moves that start a minimum-trip order, the
    one nearest-first would rank highest: ready grasps by (gap, ids), then
    pulls by (gap, mover, anchor), then single grasps by stack id.  A pull
    is asked about only when the search reaches it with a subset it clears
    and a trip floor that could still improve on the best order, and then
    only whether a stack of that subset meets its corridor.
    """
    ids = memo.ids()
    ready = set(memo.nearest(_ready, within=memo.sim.gripper.max_opening))
    # (rank, move, stacks it clears); a pull's move holds no check until
    # the plan takes it.
    ranked: list[tuple[tuple, Move, int]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pair = memo.bit(a) | memo.bit(b)
            if (a, b) in ready:
                move = ("grasp", (a, b), memo.shared_grasp(a, b))
                ranked.append(((0, memo.gap(a, b), a, b), move, pair))
                continue
            for mover, anchor in ((a, b), (b, a)):
                if _same_grip(memo, mover, anchor):
                    rank = (1, memo.gap(mover, anchor), mover, anchor)
                    ranked.append((rank, ("pull", (mover, anchor), None), pair))
    ranked.extend(((2, sid), ("single", (sid,), None), memo.bit(sid)) for sid in ids)
    ranked.sort(key=lambda r: r[0])

    def blocked(entry: tuple, left: int) -> bool:
        if entry[1][0] != "pull":
            return False
        pair, blocker = memo._corridor(*entry[1][1], left)
        return bool(blocker) or not pair.allowable

    least = {0: 0}

    def trips(left: int) -> int:
        if left not in least:
            floor = _trip_floor(left, classes)
            best = left.bit_count()
            for entry in ranked:
                if best == floor:
                    break
                cleared = entry[2]
                if cleared & left != cleared:
                    continue
                rest = left ^ cleared
                if 1 + _trip_floor(rest, classes) < best and not blocked(entry, left):
                    best = min(best, 1 + trips(rest))
            least[left] = best
        return least[left]

    plan: dict[int, Move] = {}
    left = memo.table
    while left:
        target = trips(left)
        _, move, cleared = next(
            entry
            for entry in ranked
            if entry[2] & left == entry[2]
            and not blocked(entry, left)
            and 1 + trips(left ^ entry[2]) == target
        )
        kind, targets, _ = move
        plan[left] = (kind, targets, memo.pull(*targets, left)) if kind == "pull" else move
        left ^= cleared
    return plan


def pull_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig, memo: PairMemo
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
    step of a trial to the next; a pull is built from the memo's check of
    it, which holds the contact point and the grasp there.
    """
    memo.sync(state)
    if len(state.stacks) > PLAN_MAX_STACKS:
        move = _nearest_first(memo, memo.table)
    else:
        move = memo.plan.get(memo.table)
        if move is None:
            memo.plan = _plan(memo)
            move = memo.plan[memo.table]
    kind, targets, found = move
    if kind == "pull":
        mover, anchor = targets
        pull = PullAction(state.stacks[mover].base, found.end, mover, anchor)
        return PullGrasp(pull, found.grasp)
    if kind == "single":
        return Grasp(grasp_points(state, targets[0], rng, sim))
    return Grasp(found)


def _stackable(memo: PairMemo, lifted: int, base: int) -> bool:
    """Whether ``lifted`` may be stacked on ``base`` and the pile grasped."""
    return memo.stackable(memo.state, lifted, base)


def _utensil_onto_bowl(memo: PairMemo, lifted: int, base: int) -> bool:
    """Whether a utensil pile ``lifted`` may be stacked on the bowl-topped
    stack ``base``."""
    return bool(
        memo.bit(lifted) & memo.utensil_piles
        and memo.bit(base) & memo.bowl_tops
        and _stackable(memo, lifted, base)
    )


def stack_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig, memo: PairMemo
) -> Action:
    """Stack utensils onto bowls first, then merge pairs, then singles.

    While both utensil piles and bowl-topped stacks remain, utensils are
    placed on bowls and the merged pile carried out.  ``one_per_bowl``
    transports one utensil pile per bowl trip, the nearest allowable pair;
    ``all_on_one_bowl`` loads every remaining utensil pile onto a single
    bowl (while the pile stays graspable) before the trip.  After the
    utensil phase each trip merges the nearest allowable pair of existing
    stacks: the returned stack-grasp immediately transports the merged
    pile, so piles of four or more cups or bowls can never form.  Anything
    left is cleared with single grasps.  "Nearest" ranks pairs by (grasp
    gap, lifted id, base id).

    Stacking tests and gaps come from ``memo``, which carries them from one
    step of a trial to the next.  The piles ``all_on_one_bowl`` previews
    are stack values of their own, so the memo tests each growing pile
    afresh.
    """
    memo.sync(state)
    if memo.table & memo.utensil_piles and memo.table & memo.bowl_tops:
        if cfg.utensil_stacking is UtensilStacking.ONE_PER_BOWL:
            piles, tops = memo.utensil_piles, memo.bowl_tops
            for u, b in memo.nearest(_utensil_onto_bowl, lifted=piles, base=tops):
                placement = StackPlacement(grasp_points(state, u, rng, sim), u, b)
                carry = grasp_points(state, b, rng, sim)
                return StackGrasp((placement,), carry)
        else:
            utensil_piles, bowl_tops = memo.ids(memo.utensil_piles), memo.ids(memo.bowl_tops)
            chosen = min(
                bowl_tops,
                key=lambda b: (sum(memo.gap(u, b) for u in utensil_piles), b),
            )
            order = sorted(utensil_piles, key=lambda u: (memo.gap(u, chosen), u))
            # Placements are simulated against an evolving preview so the
            # jaw constraint is checked against the growing pile.
            placements: list[StackPlacement] = []
            working = state
            for u in order:
                if not memo.stackable(working, u, chosen):
                    continue
                placements.append(
                    StackPlacement(grasp_points(working, u, rng, sim), u, chosen)
                )
                working = working.merged(u, chosen)
            if placements:
                carry = grasp_points(working, chosen, rng, sim)
                return StackGrasp(tuple(placements), carry)

    for lifted, base in memo.nearest(_stackable):
        placement = StackPlacement(grasp_points(state, lifted, rng, sim), lifted, base)
        # Stacking keeps the base's bottom dish and base point, all that
        # ``grasp_points`` reads.
        carry = grasp_points(state, base, rng, sim)
        return StackGrasp((placement,), carry)

    return Grasp(grasp_points(state, min(state.stacks), rng, sim))


def next_action(
    state: SceneState,
    rng: SplitMix64,
    sim: "SimConfig",
    cfg: PolicyConfig,
    memo: PairMemo | None = None,
) -> Action | None:
    """Next feasible action for the policy, or None once the table is clear.

    ``memo`` is the trial's pair memo; the pull and stack policies read
    their pair results from it (see ``PairMemo``).  A pull or stack call
    without one starts from an empty memo; the random policy asks about no
    pair and gets none.  The policies are looked up by module name at each
    call, so a rebinding of those names (such as a profiler's wrapper)
    takes effect.
    """
    if not state.stacks:
        return None
    if memo is None and cfg.kind is not PolicyKind.RANDOM:
        memo = PairMemo(sim)
    policy = {
        PolicyKind.RANDOM: random_policy,
        PolicyKind.PULL: pull_policy,
        PolicyKind.STACK: stack_policy,
    }[cfg.kind]
    return policy(state, rng, sim, cfg, memo)


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
) -> Trace:
    """Run a policy to completion and return the trace.

    One stream seeded with ``seed`` serves the policy's draws and, after
    each action is chosen, the draw of whether its grasp fails
    (``grasp_fails``).  Terminates when the table is empty; with failures
    disabled every action strictly grows the bin, so at most one trip per
    dish is taken.  A safety cap on total actions guards against a policy
    that stops making progress.
    """
    rng = SplitMix64(seed)
    state = initial.clone()
    trace = Trace(policy=policy.kind.value, seed=seed, tier=initial.tier)
    cap = 50 * max(len(state.dishes), 1) + 100
    memo = None if policy.kind is PolicyKind.RANDOM else PairMemo(sim)
    while True:
        t = len(trace.events)
        if t >= cap:
            raise RuntimeError(
                f"policy {policy.kind.value} exceeded {cap} actions without clearing"
            )
        action = next_action(state, rng, sim, policy, memo)
        if action is None:
            break
        state, event = apply(state, action, sim, failed=grasp_fails(sim, rng))
        event.t = t
        trace.events.append(event)
    trace.final_state = state
    return trace
