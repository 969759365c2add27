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
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .actions import (
    Action,
    GraspAction,
    PairGrasp,
    PullCheck,
    PullGrasp,
    StackGrasp,
    _contact_witness,
    _pair_check,
    _stack_fits,
    _stack_gap,
    apply,
    grasp_fails,
    grasp_gap,
    grasp_points,
    mog_grasp,  # not called here; bench/test_bench.py reads this binding
    stack_allowable,
)
from .errors import ActionCapReached
from .geometry import Footprint, Sweep, reach_limit
from .rng import SplitMix64
from .tableware import (
    DishKind,
    SceneState,
    Stack,
    stack_footprints,
    stack_top_lip_height,
    widest_radius,
)

if TYPE_CHECKING:
    from .config import SimConfig
_UTENSIL, _BOWL = DishKind.UTENSIL, DishKind.BOWL  # module names read faster than members


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
        if utensil_stacking is None:
            return cls(kind)
        if kind is not PolicyKind.STACK:
            raise ValueError(f"utensil_stacking applies to the stack policy only, not {name}")
        return cls(kind, UtensilStacking(utensil_stacking))


def random_policy(
    state: SceneState, rng: SplitMix64, sim: "SimConfig", cfg: PolicyConfig, memo: PairMemo | None
) -> Action:
    """Pick a dish uniformly at random and grasp the stack containing it.

    Target selection is stack-agnostic, but a grasp always engages the
    bottom rim, so the whole stack rides along in one trip.  No pair is
    asked about, so ``memo`` goes unused.
    """
    dishes = sorted((dish, sid) for sid, stack in state.stacks.items() for dish in stack.dishes)
    return grasp_points(state, dishes[rng.below(len(dishes))][1], rng)


class _PullEntry:
    """A memoized pull check: the path tests' failed check, or None until
    the verdict at contact is taken; the mover's sweep when they pass, the
    value bits tested against the sweep (the pair's own from the start) and
    those of them that meet it."""

    __slots__ = ("check", "sweep", "tested", "blocked")

    def __init__(self, check: PullCheck | None, sweep: Sweep | None, own: int):
        self.check = check
        self.sweep = sweep
        self.tested = own
        self.blocked = 0


class _Walk:
    """How far a ``nearest`` walk has read its scope's pair list: the index
    of the first pair not read, and the (gap, a, b, bits of a and b), sorted,
    of the pairs its test admitted before it, less those met off its table.
    Each scope keeps one per test for the synced table; subsets copy it."""

    __slots__ = ("cursor", "admitted")

    def __init__(self, cursor: int = 0, admitted: Iterable[tuple[float, int, int, int]] = ()):
        self.cursor = cursor
        self.admitted = list(admitted)


class _Scope:
    """The pairs ``nearest`` reads for one pair of masks: those of synced
    values with one value in each mask, sorted by (gap bound, a, b); and the
    walks through them, by (test, ``within``).

    ``_widen`` lists the pairs only as far as the walks read, in bands of
    base distance: every pair whose bases lie at most ``radius`` apart is
    listed.  A pair left out has a bound of at least ``radius`` less
    ``reach_limit`` of the widest reach with itself, the ``horizon``, so a
    walk reads only the pairs bounded below it and widens the list when it
    gets there.  A band's pairs are bounded at or above the horizon before
    it, so they sort after every pair a walk has read.  The first band
    reaches 2.4 of the widest reach (a horizon of 0.4 reaches) and each
    next one twice as far, until a band covers a quarter of the spread in
    x of the scope's values: then every pair left is listed in one pass,
    as a sweep that wide already meets a large share of them.  So a table
    as wide as a paper scene's lists all its pairs at its first walk.  A
    band reads its values, sorted, from the memo's index ``_by_x``."""

    __slots__ = ("lifted", "base", "pairs", "radius", "horizon", "walks")

    def __init__(self, lifted: int, base: int):
        self.lifted, self.base = lifted, base
        # (gap bound, a, b, bits of a and b, bit of a)
        self.pairs: list[tuple[float, int, int, int, int]] = []
        self.radius = self.horizon = -math.inf
        self.walks: dict[tuple[Admit, float], _Walk] = {}


# A pull-policy move: (kind, targets, mask of the stacks it clears), where
# kind is "grasp" (targets a, b), "pull" (mover, anchor) or "single".
Move = tuple[str, tuple[int, ...], int]

# A test that admits an ordered pair (a, b) of synced stack ids to ``nearest``.
Admit = Callable[["PairMemo", int, int], bool]

Locus = tuple[float, float, float, int, int]  # base x and y, grasp reach, bit, id

# What ``nearest`` reads past the last pair: a bound no walk reaches.
_PAST_LAST_PAIR = (math.inf, -1, -1, 0, 0)


class PairMemo:
    """Pair results of a policy, kept from one step of a trial to the next.

    Make one per trial and ``sync`` it with each state before asking for
    results.  ``sync`` gives each stack value it has not seen before a bit
    of its own for the rest of the trial and sets ``table`` to the mask of
    the synced table's bits.  A moved or merged stack is a new value, so a
    bit names one value; dishes never change kind or orientation, so a
    value fixes its footprints, grip and lip heights and bottom and top
    dishes (see the masks ``utensil_piles`` and ``bowl_tops``).  Only
    ``sync`` gives bits, so every method reads the synced table.
    Footprints, gaps (one per unordered pair) and pull tests are keyed by
    value bits, and a result keyed by bits never goes stale.  The memo asks
    ``actions``'s feasibility rules (``GripperSpec.holds``, ``_stack_fits``)
    of its values, grips and lips, and keeps no copy of them.  ``sync`` diffs
    the state against the stacks it last synced under each id (``_synced``):
    it drops the ids that left, and only when some stack is not the very
    object synced under its id (a dict compare, in C, that tests identity
    first) does it loop over the stacks and look those up by value, with one
    hash each: the stacks the last action made.  A failure-free step only
    removes stacks.

    ``nearest`` ranks the ordered pairs a test admits by (gap, ids): it
    walks a list of the synced table's pairs, sorted by a lower bound on
    the gap (the distance between the bases less ``reach_limit`` of both
    grasp reaches) and built only as far as walks read it (``_widen``),
    and tests a pair only when it gets there.  A walk may be scoped to the
    pairs (a, b) with a in one mask and b in another; each scope keeps a
    list of its own (``_Scope``), which holds no pair outside it.  A walk
    on the synced table resumes where the last one with its test and scope
    stopped, so a step tests only the pairs that no earlier such walk
    reached; a walk on a subset goes on from a copy, down a chain of ever
    smaller tables.  ``sync`` starts the scopes afresh only when a value
    arrives, so a walk never starts over when stacks leave: it skips the
    listed pairs of a value that left and deletes the ones it kept.

    A corridor verdict also depends on the other stacks.  Each pull keeps
    the mask of values tested against its corridor and the mask of those
    that meet it; a question about a table tests only the values on it not
    tested yet, up to the first that meets the corridor.  So a corridor
    test runs at most once per pull and stack value in a trial, whichever
    table asks.  A new pull marks every value on the synced table whose
    base lies outside its sweep's ``box`` tested and clear at once, as
    ``meets`` would, from the values' loci sorted by base x (``_by_x``);
    a value that arrives later is tested when asked about.  Whether the
    pair has a grasp at contact is asked only once a table finds the
    corridor clear, or ``pull`` names a blocker, and builds no witness.
    Only ``sync`` sets ``table``; the pull policy's planner passes the
    subsets it looks ahead on as masks to ``nearest``, ``_corridor`` and
    ``ids``.

    ``plan`` maps a table mask to the pull policy's planned ``Move`` on it,
    just its stacks: ``apply`` builds the grasp (see ``PairGrasp``).
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
        self._synced: dict[int, Stack] = {}  # the stack synced under each id
        self._loci: dict[int, Locus] = {}
        self.grips: dict[int, float] = {}  # each value's bottom dish's grasp height
        self.lips: dict[int, float] = {}  # and its ``stack_top_lip_height``
        # The widest grasp reach and the radius of a scope's first band,
        # whose horizon is 0.4 reaches.
        self._reach = max(spec.grasp_reach for spec in sim.dish_specs.values())
        self._first_radius = 2.4 * self._reach
        self._footprints: dict[int, list[Footprint]] = {}
        self._gaps: dict[int, float] = {}  # by the two values' bits
        self._pulls: dict[tuple[int, int], _PullEntry] = {}
        self._scopes: dict[tuple[int, int], _Scope] = {}  # by their masks
        # Loci of the values synced at the last arrival, sorted (by base x first), and their xs.
        self._by_x: list[Locus] = []
        self._xs: list[float] = []
        self._widest = widest_radius(sim.dish_specs)

    def _bit(self, stack: Stack) -> int:
        new = 1 << len(self._values)
        bit = self._bits.setdefault(stack, new)  # the one hash of ``stack``
        if bit == new:
            self._values[bit] = stack
            dishes, specs = self.state.dishes, self.sim.dish_specs
            kind = dishes[stack.bottom].kind
            spec = specs[kind]
            self._loci[bit] = (*stack.base, spec.grasp_reach, bit, stack.bottom)
            self.grips[bit] = spec.grasp_height
            self.lips[bit] = stack_top_lip_height(stack, dishes, specs)
            self.utensil_piles |= bit if kind is _UTENSIL else 0
            self.bowl_tops |= bit if dishes[stack.top].kind is _BOWL else 0
        return bit

    def sync(self, state: SceneState) -> None:
        """Make ``state`` the current table."""
        self.state, synced, ids, table = state, self._synced, self._ids, self.table
        for sid in synced.keys() - state.stacks.keys():
            del synced[sid]
            table ^= ids.pop(sid)
        if synced != state.stacks:  # compared by identity first, in C
            for sid, stack in state.stacks.items():
                if synced.get(sid) is not stack:
                    bit = self._bit(stack)
                    table ^= ids.get(sid, 0) ^ bit
                    ids[sid], synced[sid] = bit, stack
        arrived = table & ~self.table
        self.table = table
        if arrived:  # list the pairs afresh, as far as the walks read
            self._scopes = {}
            self._by_x = sorted(self._loci[bit] for bit in ids.values())
            self._xs = [locus[0] for locus in self._by_x]

    def _widen(self, scope: _Scope) -> None:
        """List the next band of the scope's pairs (see ``_Scope``): those
        of its values on the synced table whose bases lie more than its
        ``radius`` apart, up to twice that (at least ``_first_radius``), or
        all of them once that covers a quarter of the values' spread in x.
        The sweep takes the values, sorted by base x, from ``_by_x`` and
        meets each one's partners up to the radius to its right."""
        lifted, base, listed = scope.lifted, scope.base, scope.radius
        mask = self.table & (lifted | base)
        live = [locus for locus in self._by_x if locus[3] & mask]
        xs = [locus[0] for locus in live]
        radius = max(2 * listed, self._first_radius)
        if not xs or 4 * radius >= xs[-1] - xs[0]:
            radius = math.inf
        hypot = math.hypot
        scope.pairs += [
            (d - reach_limit(ra, rb), a, b, bit_a | bit_b, bit_a)
            for i, (xa, ya, ra, bit_a, a) in enumerate(live)
            for xb, yb, rb, bit_b, b in live[i + 1:bisect_right(xs, xa + radius, i + 1)]
            if listed < (d := hypot(xb - xa, yb - ya)) <= radius
            if bit_a & lifted and bit_b & base or bit_b & lifted and bit_a & base
        ]
        scope.pairs.sort()
        scope.radius, scope.horizon = radius, radius - reach_limit(self._reach, self._reach)

    def nearest(
        self, admit: Admit, within: float = math.inf, lifted: int = -1, base: int = -1,
        table: int | None = None, chain: dict[_Walk, _Walk] | None = None,
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
        (``admit``, ``within``) and scope stopped (see ``_Walk``).  A walk on
        a narrower table goes on from the walk the caller's ``chain`` keeps
        for tables each a subset of the last, begun as a copy of the synced
        table's (which read every pair of the subset before its cursor).  A
        walk deletes a kept pair it meets off its table, which it could never
        yield again: until an arrival (even of a value that came back)
        starts every walk afresh, the synced table only shrinks, each table
        down a chain lies inside the last, and a chain's walk has its own
        copy.  Read a walk before the next ``sync`` or walk like it."""
        scope = self._scopes.get((lifted, base))
        if scope is None:
            scope = self._scopes[(lifted, base)] = _Scope(lifted, base)
        table = self.table if table is None else table
        walk = scope.walks.get((admit, within))
        if walk is None:
            walk = scope.walks[(admit, within)] = _Walk()
        if table != self.table:  # a subset: the chain's walk, begun as a copy
            chain = {} if chain is None else chain
            if walk not in chain:
                chain[walk] = _Walk(walk.cursor, walk.admitted)
            walk = chain[walk]
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
            # Yield the kept pairs on ``table`` with gaps below ``bound``, and
            # delete those off it (see above): a pair admitted later has a gap
            # of at least ``bound`` and lands after them.
            while read < len(admitted) and admitted[read][0] < bound:
                entry = admitted[read]
                if entry[3] & table != entry[3]:
                    del admitted[read]
                    continue
                read += 1
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
        """``stack_footprints`` of ``stack``, which must be the synced table's."""
        return self._bit_footprints(self._ids[stack.bottom])

    def _bit_footprints(self, bit: int) -> list[Footprint]:
        fps = self._footprints.get(bit)
        if fps is None:
            fps = stack_footprints(self.state, self._values[bit], self.sim.dish_specs)
            self._footprints[bit] = fps
        return fps

    def gap(self, a: int, b: int) -> float:
        """``grasp_gap`` of stacks ``a`` and ``b``, kept once per unordered
        pair of values: it is symmetric bit for bit for two rims of one
        radius, two utensils, or a rim and a utensil.  Under the default
        specs no walk asks two rims of different radii both ways: no pull
        pairs them (their grips differ), and only the narrower stacks."""
        key = self._ids[a] | self._ids[b]
        gap = self._gaps.get(key)
        if gap is None:
            gap = self._gaps[key] = grasp_gap(self.state, a, b, self.sim)[0]
        return gap

    def _corridor(self, mover: int, anchor: int, table: int) -> tuple[PullCheck | None, int]:
        """The pair tests of ``mover``'s pull toward ``anchor`` and the bit
        of a stack on ``table`` (a mask of the synced table's bits) that
        meets its corridor, or 0 when none does or the pair tests fail.
        Only the values on ``table`` not yet tested against this pull are
        tested, up to the first that meets it.  The verdict at contact is
        taken only once the corridor is clear on ``table`` (a blocked pull's
        check is None until then): ``GripperSpec.holds`` of the memo's grips
        and lips, as ``ready`` asks it, and the gap of the mover at contact
        below the max opening, so no witness is built."""
        bm, ba = self._ids[mover], self._ids[anchor]
        entry = self._pulls.get((bm, ba))
        if entry is None:
            failed, sweep = _pair_check(self.state, mover, anchor, self.sim, self.footprints)
            entry = self._pulls[(bm, ba)] = _PullEntry(failed, sweep, bm | ba)
            if sweep is not None:  # the listed values based outside the box are clear
                x0, x1, y0, y1 = sweep.box(self._widest)
                near, xs = 0, self._xs
                for _, y, _, bit, _ in self._by_x[bisect_left(xs, x0):bisect_right(xs, x1)]:
                    if y0 <= y <= y1:
                        near |= bit
                entry.tested |= self.table & ~near
        check, blocked = entry.check, entry.blocked & table
        if blocked or check is not None and not check.allowable:
            return check, blocked & -blocked
        untested = table & ~entry.tested
        while untested:
            bit = untested & -untested
            untested ^= bit
            entry.tested |= bit
            if entry.sweep.meets(self._bit_footprints(bit)):
                entry.blocked |= bit
                return check, bit
        if check is None:
            moved = Stack(self._values[bm].dishes, entry.sweep.end)
            grips, lips, gripper = self.grips, self.lips, self.sim.gripper
            fits = gripper.holds(grips[bm], lips[bm], grips[ba], lips[ba]) and _stack_gap(
                self.state.dishes, moved, self._values[ba], self.sim
            )[0] < gripper.max_opening
            check = entry.check = PullCheck(None if fits else "mog_allowable")
        return check, 0

    def pull(self, mover: int, anchor: int, table: int | None = None) -> PullCheck:
        """The memo's answer to ``check_pull`` of ``mover`` toward ``anchor``
        on ``table`` (a mask of the synced table's bits; None for all of it),
        to explain a pull; the policy reads ``_corridor``.  Its failed test,
        ``end`` and ``grasp`` (it builds the witness) are those of
        ``check_pull`` on a table of the mask's stacks, which also names a
        failed grasp at contact before a blocker.  The blocker is a stack
        that meets the corridor, not always ``check_pull``'s first."""
        pair, blocker = self._corridor(mover, anchor, self.table if table is None else table)
        if blocker:  # the empty table blocks nothing, so it takes the verdict at contact
            pair = self._corridor(mover, anchor, 0)[0]
        if pair.allowable:
            end = self._pulls[(self._ids[mover], self._ids[anchor])].sweep.end
            pair = _contact_witness(self.state, mover, anchor, end, self.sim)
        if not blocker or not pair.allowable:
            return pair
        # Built directly: ``replace`` costs several times more.
        return PullCheck("corridor", self._values[blocker].bottom, pair.end, pair.grasp)


# Tables of at most this many stacks, the size of a paper scene, get a
# planned pull order; larger ones keep nearest-first.
PLAN_MAX_STACKS = 12


def ready(memo: PairMemo, a: int, b: int) -> bool:
    """Whether ``a`` < ``b`` have a shared grasp: ``GripperSpec.holds`` of
    the memo's grips and lips, then ``memo.gap`` (which ``nearest`` reads
    again to rank the pair) below the max opening, so never at a gap of that
    or more.  No witness is built."""
    if a >= b:
        return False
    ba, bb, grips, lips = memo._ids[a], memo._ids[b], memo.grips, memo.lips
    gripper = memo.sim.gripper
    return gripper.holds(grips[ba], lips[ba], grips[bb], lips[bb]) and (
        memo.gap(a, b) < gripper.max_opening
    )


def same_grip(memo: PairMemo, mover: int, anchor: int) -> bool:
    """Whether the two stacks' gripped-rim heights match, the first of a
    pull's pair tests."""
    grips = memo.grips
    return memo.sim.gripper.similar_heights(grips[memo.bit(mover)], grips[memo.bit(anchor)])


def _moves(memo: PairMemo, table: int, chain: dict | None = None) -> Iterator[Move]:
    """The moves on ``table``, a mask of the memo's synced table, in
    nearest-first's order: pairs with a shared grasp by (gap, ids), then
    pulls of the other pairs whose grip heights match by (gap, mover,
    anchor), then single grasps by stack id.  Read lazily through the
    memo's walks (down ``chain``), so a pair is tested only once the reader
    gets to it.  Whether a pull's corridor is clear is left to the reader."""
    bit = memo._ids  # ``memo.bit``, without the calls
    grasped = set()
    for a, b in memo.nearest(ready, memo.sim.gripper.max_opening, table=table, chain=chain):
        pair = bit[a] | bit[b]
        grasped.add(pair)
        yield "grasp", (a, b), pair
    for mover, anchor in memo.nearest(same_grip, table=table, chain=chain):
        pair = bit[mover] | bit[anchor]
        if pair not in grasped:
            yield "pull", (mover, anchor), pair
    for sid in memo.ids(table):
        yield "single", (sid,), bit[sid]


def _takeable(memo: PairMemo, move: Move, left: int) -> bool:
    """Whether ``move``, whose stacks are all on ``left`` (a mask of the
    memo's synced table), can be taken there: any grasp can, and a pull can
    when its pair tests pass and no stack on ``left`` meets its corridor.
    Every caller passes only moves on ``left``."""
    kind, targets, _ = move
    if kind != "pull":
        return True
    check, blocker = memo._corridor(*targets, left)
    return not blocker and check.allowable


def _first_move(memo: PairMemo, left: int, chain: dict | None = None) -> Move:
    """Nearest-first's move on ``left``: the first of ``_moves`` on it (down
    ``chain``) that can be taken there (``_takeable``)."""
    for move in _moves(memo, left, chain):
        if _takeable(memo, move, left):
            return move
    raise AssertionError("a single grasp can always be taken")


def _grip_classes(memo: PairMemo) -> list[int]:
    """Masks of the stacks on the memo's table that may pair with each
    other: grip heights sorted and split wherever two neighbours differ by
    more than the height-similarity threshold."""
    classes: list[int] = []
    previous = None
    for height, bit in sorted((memo.grips[bit], bit) for bit in memo._ids.values()):
        if previous is None or not memo.sim.gripper.similar_heights(height, previous):
            classes.append(0)
        classes[-1] |= bit
        previous = height
    return classes


def _trip_floor(left: int, classes: list[int]) -> int:
    """Fewest trips that could clear the stacks in ``left``: a trip takes at
    most two, both of one grip-height class."""
    trips = 0
    for c in classes:
        trips += ((left & c).bit_count() + 1) // 2
    return trips


def _plan(memo: PairMemo) -> dict[int, Move]:
    """A failure-free order of moves that clears the memo's table in the
    fewest trips, keyed by the mask of the stacks left when each is taken.

    The first pass takes nearest-first's move (``_first_move``) on each
    table it leaves.  Its tables are each a subset of the one before, so
    its walks go on down them (``chain``).  When it misses the floor on
    trips (``_trip_floor``), the second pass (``_exact_search``) plans the
    table again.
    """
    classes = _grip_classes(memo)
    plan, left, chain = {}, memo.table, {}
    while left:
        plan[left] = move = _first_move(memo, left, chain)
        left ^= move[2]
    if len(plan) == _trip_floor(memo.table, classes):
        return plan
    return _exact_search(memo, classes)


def _exact_search(memo: PairMemo, classes: list[int]) -> dict[int, Move]:
    """``_plan``'s second pass: on each table it leaves, the first move that
    can be taken there (``_takeable``) and starts a fewest-trip order
    (``_trips``).

    Failure-free, every table reachable from this one is a subset of its
    stacks, so the pass lists the table's ``_moves`` once.  Those whose
    stacks are all on a subset are that subset's ``_moves`` in order, as
    ``ready`` and ``same_grip`` read only the two values and a pull is left
    out exactly when its pair is ready: so the plan keeps nearest-first's
    move wherever it starts a fewest-trip order.  A pull is asked about only
    when the search reaches it with a subset it clears and a trip floor
    that could still improve on the best order, and then only whether a
    stack of that subset meets its corridor.
    """
    moves, least = list(_moves(memo, memo.table)), {0: 0}
    plan, left = {}, memo.table
    while left:
        trips = _trips(memo, classes, moves, least, left)
        plan[left] = move = next(
            move for move in moves
            if move[2] & left == move[2] and _takeable(memo, move, left)
            and 1 + _trips(memo, classes, moves, least, left ^ move[2]) == trips
        )
        left ^= move[2]
    return plan


def _trips(
    memo: PairMemo, classes: list[int], moves: list[Move], least: dict[int, int], left: int
) -> int:
    """Fewest trips that clear subset ``left`` with ``moves``, kept in
    ``least``: a module function, as a closure that calls itself is a
    reference cycle, which would keep the trial's memo alive after it."""
    if left not in least:
        floor = _trip_floor(left, classes)
        best = left.bit_count()
        for move in moves:
            if best == floor:
                break
            cleared = move[2]
            if cleared & left != cleared:
                continue
            rest = left ^ cleared
            if 1 + _trip_floor(rest, classes) < best and _takeable(memo, move, left):
                best = min(best, 1 + _trips(memo, classes, moves, least, rest))
        least[left] = best
    return least[left]


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
    step of a trial to the next.  A chosen pair or pull names its two
    stacks: ``apply`` builds the grasp.
    """
    memo.sync(state)
    planned = len(state.stacks) <= PLAN_MAX_STACKS
    if planned and memo.table not in memo.plan:
        memo.plan = _plan(memo)
    kind, targets, _ = memo.plan[memo.table] if planned else _first_move(memo, memo.table)
    if kind == "pull":
        return PullGrasp(*targets)
    if kind == "single":
        return grasp_points(state, targets[0], rng)
    return PairGrasp(*targets)


def stackable(memo: PairMemo, lifted: int, base: int) -> bool:
    """Whether ``lifted`` may be stacked on ``base`` and the pile grasped:
    ``stack_allowable``'s kernel, ``_stack_fits``, on the memo's values and
    the base's lip."""
    bit_b = memo._ids[base]
    return lifted != base and _stack_fits(
        memo.state.dishes, memo._values[memo._ids[lifted]], memo._values[bit_b],
        memo.lips[bit_b], memo.sim,
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
    gap, lifted id, base id).  A stack-grasp lifts each stack with its
    ``grasp_points`` and then carries the pile with those of the stack
    they land on, in that order of draws.

    Gaps, and the stack values and heights the stacking test
    (``stackable``) reads, come from ``memo``, which carries them from one
    step of a trial to the next.  ``all_on_one_bowl`` tests each utensil
    pile with ``stack_allowable`` against its preview of the growing pile.
    """
    memo.sync(state)
    if memo.table & memo.utensil_piles and memo.table & memo.bowl_tops:
        if cfg.utensil_stacking is UtensilStacking.ONE_PER_BOWL:
            piles, tops = memo.utensil_piles, memo.bowl_tops
            for u, b in memo.nearest(stackable, lifted=piles, base=tops):
                lift = grasp_points(state, u, rng)
                return StackGrasp((lift,), grasp_points(state, b, rng))
        else:
            utensil_piles, bowl_tops = memo.ids(memo.utensil_piles), memo.ids(memo.bowl_tops)
            chosen = min(
                bowl_tops,
                key=lambda b: (sum(memo.gap(u, b) for u in utensil_piles), b),
            )
            order = sorted(utensil_piles, key=lambda u: (memo.gap(u, chosen), u))
            # Lifts are simulated against an evolving preview so the jaw
            # constraint is checked against the growing pile.
            lifts: list[GraspAction] = []
            working = state
            for u in order:
                if not stack_allowable(working, u, chosen, sim):
                    continue
                lifts.append(grasp_points(working, u, rng))
                working = working.merged(u, chosen)
            if lifts:
                return StackGrasp(tuple(lifts), grasp_points(working, chosen, rng))

    for lifted, base in memo.nearest(stackable):
        lift = grasp_points(state, lifted, rng)
        # Stacking keeps the base's bottom dish and base point, all that
        # ``grasp_points`` reads.
        return StackGrasp((lift,), grasp_points(state, base, rng))

    return grasp_points(state, min(state.stacks), rng)


def next_action(
    state: SceneState,
    rng: SplitMix64,
    sim: "SimConfig",
    cfg: PolicyConfig,
    memo: PairMemo | None,
) -> Action | None:
    """Next feasible action for the policy, or None once the table is clear.

    ``memo`` is the trial's pair memo (see ``PairMemo``): the pull and stack
    policies read their pair results from it, and the random policy gets
    None.  The policies are looked up by module name at each call, so a
    rebinding of those names (such as a profiler's wrapper) takes effect.
    """
    if not state.stacks:
        return None
    if cfg.kind is PolicyKind.PULL:
        return pull_policy(state, rng, sim, cfg, memo)
    if cfg.kind is PolicyKind.STACK:
        return stack_policy(state, rng, sim, cfg, memo)
    return random_policy(state, rng, sim, cfg, memo)


class Step(NamedTuple):
    """One action of a trial, as ``trial_steps`` yields it."""

    state: SceneState  # the table the policy chose from
    action: Action
    failed: bool  # whether the action's final grasp failed
    after: SceneState  # the table ``apply`` left
    event: dict  # the event ``apply`` returned
    memo: PairMemo | None  # the trial's memo, synced with ``state``; None for random


def trial_steps(
    initial: SceneState,
    policy: PolicyConfig,
    sim: "SimConfig",
    seed: int,
) -> Iterator[Step]:
    """The steps of a policy's trial from ``initial`` (left unchanged), one
    per action, until the table is clear: the one trial loop.

    One stream seeded with ``seed`` serves the policy's draws and, after
    each action is chosen and before it runs, the draw of whether its grasp
    fails (``grasp_fails``).  A pull or stack trial has one ``PairMemo``,
    made here.  With failures disabled every action strictly grows the bin,
    so at most one trip per dish is taken; a cap on total actions raises
    ActionCapReached for a policy that stops making progress.
    ``next_action``, ``grasp_fails``, ``apply`` and ``PairMemo`` are looked
    up by module name, so rebinding them takes effect.
    """
    rng = SplitMix64(seed)
    state = initial.clone()
    cap = 50 * max(len(state.dishes), 1) + 100
    memo = None if policy.kind is PolicyKind.RANDOM else PairMemo(sim)
    for _ in range(cap):
        action = next_action(state, rng, sim, policy, memo)
        if action is None:
            return
        failed = grasp_fails(sim, rng)
        after, event = apply(state, action, sim, failed=failed)
        yield Step(state, action, failed, after, event, memo)
        state = after
    raise ActionCapReached(f"policy {policy.kind.value} exceeded {cap} actions without clearing")


@dataclass
class Trace:
    """Full record of one trial: every event plus the final state."""

    events: list[dict] = field(default_factory=list)  # ``Step.event`` of each step
    final_state: SceneState | None = None
    policy: str = ""
    tier: str = "custom"

    def counts(self) -> TraceCounts:
        """Everything the metrics count, in one pass over the events."""
        pulls = stacks = trips = objects = failures = 0
        for e in self.events:
            pulls += e["action"] == "pull_grasp"
            if e["action"] == "stack_grasp":
                stacks += len(e["params"]["placements"])
            trips += bool(e["trip"])
            objects += len(e["moved_to_bin"])
            failures += bool(e["params"].get("failed"))
        return TraceCounts(len(self.events), pulls, stacks, trips, objects, failures)


# Grasp phases (one per event), pulls, stack placements, trips, dishes binned, failures.
TraceCounts = namedtuple("TraceCounts", "grasps pulls stacks trips objects_cleared failures")


def run_policy(
    initial: SceneState,
    policy: PolicyConfig,
    sim: "SimConfig",
    seed: int,
) -> Trace:
    """Run a policy to completion (``trial_steps``) and return the trace."""
    trace = Trace(policy=policy.kind.value, tier=initial.tier)
    step = None
    for step in trial_steps(initial, policy, sim, seed):
        trace.events.append(step.event)
    trace.final_state = initial.clone() if step is None else step.after
    return trace
