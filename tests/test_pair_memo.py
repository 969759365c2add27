"""The per-trial pair memo of the pull and stack policies against brute-force
references."""

import dataclasses
import hashlib
import json
import math
from collections import Counter
from itertools import islice

import pytest

from declutter import (
    Grasp,
    PairMemo,
    Point2,
    PolicyConfig,
    PullAction,
    PullGrasp,
    SceneState,
    StackGrasp,
    Sweep,
    Tier,
    TierConfig,
    actions,
    apply,
    check_pull,
    generate_scene,
    grasp_fails,
    grasp_gap,
    mog_grasp,
    next_action,
    policies,
    run_policy,
    stack_allowable,
)
from declutter.rng import SplitMix64, derive_seed
from declutter.tableware import Stack, stack_footprints
from helpers import BOWL, CUP, SIM, UTENSIL, build_scene
from oracle import pull_policy_choice, stack_policy_choice

PULL = PolicyConfig.named("pull")


def choice(action):
    """The action in the reference's terms."""
    if isinstance(action, PullGrasp):
        return "pull", (action.pull.mover, action.pull.anchor)
    if isinstance(action, StackGrasp):
        return "stack", tuple((p.lifted, p.base) for p in action.placements)
    if len(action.grasp.targets) == 2:
        return "grasp", action.grasp.targets
    return "single", action.grasp.targets


def dense_scene(items, seed):
    """A t1-mix scene at tier-1 density: the workspace side grows with
    sqrt(items / 12)."""
    third = items // 3
    scale = math.sqrt(items / 12)
    workspace = (SIM.workspace[0] * scale, SIM.workspace[1] * scale)
    cfg = TierConfig(Tier.T1, n_cups=third, n_bowls=third, n_utensils=items - 2 * third)
    return generate_scene(cfg, derive_seed(seed, "memo"), SIM.dish_specs, workspace)


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_policy_matches_reference_at_every_step(p_fail):
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    kinds = set()
    failed_pulls = 0
    # seed 24 is the first whose failure-free trial takes a single grasp
    for seed in (*range(10), 24):
        state = dense_scene(30, seed)
        rng = SplitMix64(seed)
        memo = PairMemo(sim)
        while state.stacks:
            action = next_action(state, rng, sim, PULL, memo)
            expected = choice(action)
            assert expected == pull_policy_choice(state, sim), (seed, len(state.bin))
            if expected[0] == "grasp":
                assert action.grasp == mog_grasp(state, *expected[1], sim)
            kinds.add(expected[0])
            state, event = apply(state, action, sim, failed=grasp_fails(sim, rng))
            if isinstance(action, PullGrasp) and event.params.get("failed"):
                failed_pulls += 1
    assert kinds == {"grasp", "pull", "single"}
    if p_fail:
        assert failed_pulls > 0  # moved stacks stayed behind


def test_each_corridor_test_runs_once_per_trial(monkeypatch):
    # Failed actions leave moved stacks behind and make the policy plan
    # again, so every kind of table asks the memo about corridors.
    sim = dataclasses.replace(SIM, p_fail=0.2)
    # ``apply`` checks each pull afresh; only the memo's tests count.
    seen = set()
    applying = []
    meets = Sweep.meets

    def once(sweep, footprints):
        if not applying:
            key = (sweep.start, sweep.end, sweep.mover, tuple(footprints))
            assert key not in seen
            seen.add(key)
        return meets(sweep, footprints)

    def checked_apply(*args, **kwargs):
        applying.append(True)
        try:
            return apply(*args, **kwargs)
        finally:
            applying.pop()

    monkeypatch.setattr(Sweep, "meets", once)
    monkeypatch.setattr(policies, "apply", checked_apply)
    for seed in range(10):
        seen.clear()
        run_policy(dense_scene(30, seed), PULL, sim, seed)
        assert seen


@pytest.mark.parametrize("stacking", ["one_per_bowl", "all_on_one_bowl"])
@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_stack_policy_matches_reference_at_every_step(stacking, p_fail):
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    cfg = PolicyConfig.named("stack", stacking)
    longest = 0
    failed_stacks = 0
    for seed in range(10):
        state = dense_scene(30, seed)
        rng = SplitMix64(seed)
        memo = PairMemo(sim)
        while state.stacks:
            action = next_action(state, rng, sim, cfg, memo)
            expected = choice(action)
            assert expected == stack_policy_choice(state, sim, cfg), (seed, len(state.bin))
            if expected[0] == "stack":
                longest = max(longest, len(expected[1]))
            state, event = apply(state, action, sim, failed=grasp_fails(sim, rng))
            if isinstance(action, StackGrasp) and event.params.get("failed"):
                failed_stacks += 1
    # all_on_one_bowl places previewed piles, several in one action
    assert longest == 1 if stacking == "one_per_bowl" else longest > 1
    if p_fail:
        assert failed_stacks > 0  # merged piles stayed behind


def test_each_stacking_test_runs_once_per_trial(monkeypatch):
    # Failed stack-grasps leave merged piles behind, new values that the
    # memo tests against the stacks already there.  In the hand-built
    # scene no utensil pair fits on the three-bowl pile, so every step of
    # all_on_one_bowl asks again about the piles left and then falls back
    # to merging pairs.
    sim = dataclasses.replace(SIM, p_fail=0.2)
    full_pile = build_scene(
        [([BOWL, BOWL, BOWL], 40, 30)]
        + [([UTENSIL, UTENSIL], 15, y) for y in (10, 30, 50)]
    )
    scenes = [dense_scene(30, seed) for seed in range(10)] + [full_pile]
    seen = set()

    def once(state, lifted, base, sim):
        key = (state.stacks[lifted], state.stacks[base])
        assert key not in seen
        seen.add(key)
        return stack_allowable(state, lifted, base, sim)

    monkeypatch.setattr(policies, "stack_allowable", once)
    for stacking in ("one_per_bowl", "all_on_one_bowl"):
        cfg = PolicyConfig.named("stack", stacking)
        for seed, scene in enumerate(scenes):
            seen.clear()
            run_policy(scene, cfg, sim, seed)
            assert seen


def test_previewed_piles_get_bits_of_their_own():
    # A bowl holds nine utensils before the pile's lip span passes the jaw
    # height: the tenth fits on the bare bowl 0 but not on the preview.
    scene = build_scene([([BOWL], 60, 30)] + [([UTENSIL], 20, 5 + 5 * k) for k in range(10)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert memo.stackable(scene, 10, 0)
    preview = scene
    for u in range(1, 10):
        preview = preview.merged(u, 0)
    assert memo.stackable(preview, 10, 0) is stack_allowable(preview, 10, 0, SIM) is False

    cfg = PolicyConfig.named("stack", "all_on_one_bowl")
    action = next_action(scene, SplitMix64(0), SIM, cfg, memo)
    assert choice(action) == stack_policy_choice(scene, SIM, cfg)
    assert len(action.placements) == 9


def test_values_off_the_table_keep_the_scoped_walk(monkeypatch):
    # A stacking test on a state other than the synced table (as
    # ``all_on_one_bowl`` asks about its previews) gives the values it
    # makes bits, and a utensil pile's bit joins ``utensil_piles``.  The
    # scoped walk goes on from where it stopped all the same.
    scene = build_scene([([BOWL], 60, 30), ([BOWL], 40, 50)]
                        + [([UTENSIL], 20, 5 + 5 * k) for k in range(4)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    calls = []

    def counted(memo, lifted, base):
        calls.append((lifted, base))
        return policies._utensil_onto_bowl(memo, lifted, base)

    def walk():
        return next(memo.nearest(counted, lifted=memo.utensil_piles, base=memo.bowl_tops))

    first = walk()
    tested = len(calls)
    moved = scene.clone()
    moved.stacks[2] = dataclasses.replace(scene.stacks[2], base=Point2(50, 10))
    piles = memo.utensil_piles
    memo.stackable(moved, 2, 0)
    assert memo.utensil_piles != piles
    assert walk() == first and len(calls) == tested


def test_answers_follow_the_synced_table():
    # A subset of the table, the whole table, then the table with one
    # stack moved to its middle: the memo extends what it tested on each.
    # On each, every pull is asked about on narrower tables before and
    # after the whole one, as the planner asks.
    for seed in range(2):
        scene = dense_scene(30, seed)
        subset = scene.clone()
        for sid in list(subset.stacks)[::2]:
            del subset.stacks[sid]
        moved = scene.clone()
        sid = min(moved.stacks)
        middle = Point2(moved.workspace[0] / 2, moved.workspace[1] / 2)
        moved.stacks[sid] = dataclasses.replace(moved.stacks[sid], base=middle)
        memo = PairMemo(SIM)
        blocked = []
        for table in (subset, scene, moved):
            memo.sync(table)
            bits = [memo.bit(sid) for sid in sorted(table.stacks)]
            masks = (sum(bits[1::2]), memo.table, sum(bits[::3]))
            views = [(mask, on_table(memo, mask)) for mask in masks]
            for mover in table.stacks:
                for anchor in table.stacks:
                    if mover == anchor:
                        continue
                    for mask, view in views:
                        if mover not in view.stacks or anchor not in view.stacks:
                            continue
                        check = check_pull(view, mover, anchor, SIM)
                        got = memo.pull(mover, anchor, mask)
                        assert got.failed == check.failed
                        if check.failed in (None, "corridor"):
                            assert (got.end, got.grasp) == (check.end, check.grasp)
                            blockers = corridor_blockers(view, mover, anchor, check.end)
                            assert got.blocker in (blockers or {None})
                            blocked.append(len(blockers))
        assert 0 in blocked and max(blocked) > 1


def corridor_blockers(view: SceneState, mover: int, anchor: int, end: Point2) -> set[int]:
    """The ids of the stacks on ``view`` meeting the corridor of ``mover``'s
    pull to ``end``."""
    sm = view.stacks[mover]
    sweep = Sweep(
        sm.base, end, stack_footprints(view, sm, SIM.dish_specs), SIM.pull_clearance_margin
    )
    return {
        sid
        for sid, stack in view.stacks.items()
        if sid not in (mover, anchor)
        and sweep.meets(stack_footprints(view, stack, SIM.dish_specs))
    }


def test_pull_offered_once_blocker_is_binned():
    # Cup 0 sits in the corridor between bowls 1 and 2; cups and bowls
    # never pair, so the cup goes alone first.
    scene = build_scene([([CUP], 39, 30), ([BOWL], 10, 30), ([BOWL], 68, 30)])
    memo = PairMemo(SIM)
    rng = SplitMix64(0)
    first = next_action(scene, rng, SIM, PULL, memo)
    assert choice(first) == ("single", (0,)) == pull_policy_choice(scene, SIM)
    check = memo.pull(1, 2)
    assert (check.failed, check.blocker) == ("corridor", 0)

    state, _ = apply(scene, first, SIM, failed=grasp_fails(SIM, rng))
    second = next_action(state, rng, SIM, PULL, memo)
    assert choice(second) == ("pull", (1, 2)) == pull_policy_choice(state, SIM)


def test_failed_pull_blocks_corridor_cached_as_clear():
    # Bowl 2 is pulled up to the two-bowl pile 3, across the corridor
    # between cups 0 and 1.  The grasp fails, the taller pile is carried
    # and bowl 2 stays where the pull left it.  The cups can then be
    # pulled together only once bowl 2 has gone, so the policy bins it.
    sim = dataclasses.replace(SIM, p_fail=1.0)
    scene = build_scene(
        [([CUP], 10, 30), ([CUP], 68, 30), ([BOWL], 35, 9), ([BOWL, BOWL], 35, 52)]
    )
    memo = PairMemo(sim)
    rng = SplitMix64(0)
    first = next_action(scene, rng, sim, PULL, memo)
    assert choice(first) == ("pull", (2, 3)) == pull_policy_choice(scene, sim)
    assert memo.pull(0, 1).allowable

    state, event = apply(scene, first, sim, failed=grasp_fails(sim, rng))
    assert event.params["abandoned"] == 2
    assert state.stacks[2].base == first.pull.end
    second = next_action(state, rng, sim, PULL, memo)
    assert isinstance(second, Grasp)
    assert choice(second) == ("single", (2,)) == pull_policy_choice(state, sim)
    check = memo.pull(0, 1)
    assert (check.failed, check.blocker) == ("corridor", 2)


def test_stack_left_by_failed_pull_joins_the_rankings():
    # Cup 0 is pulled to the two-cup pile 1; the grasp fails and carries
    # the taller pile, leaving cup 0 near cup 2, a pair no grasp could take
    # before.  Eleven far cups keep the table above PLAN_MAX_STACKS, where
    # the policy is nearest-first.
    sim = dataclasses.replace(SIM, p_fail=1.0)
    scene = build_scene(
        [([CUP], 22, 30), ([CUP, CUP], 40, 30), ([CUP], 31, 46.5)]
        + [([CUP], 20 + 40 * k, 150) for k in range(11)],
        workspace=(500, 200),
    )
    memo = PairMemo(sim)
    rng = SplitMix64(0)
    first = next_action(scene, rng, sim, PULL, memo)
    assert choice(first) == ("pull", (0, 1)) == pull_policy_choice(scene, sim)

    state, event = apply(scene, first, sim, failed=grasp_fails(sim, rng))
    assert event.params["abandoned"] == 0
    assert len(state.stacks) > policies.PLAN_MAX_STACKS
    second = next_action(state, rng, sim, PULL, memo)
    assert choice(second) == ("grasp", (0, 2)) == pull_policy_choice(state, sim)


def test_entries_die_with_either_stack_value():
    scene = build_scene([([BOWL], 10, 30), ([BOWL], 60, 30), ([CUP], 35, 52)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert memo.shared_grasp(0, 1) is None
    assert memo.gap(0, 1) == grasp_gap(scene, 0, 1, SIM)[0]
    assert memo.pull(0, 1).allowable

    moved = scene.clone()
    moved.stacks[0] = dataclasses.replace(scene.stacks[0], base=Point2(40, 30))
    memo.sync(moved)
    assert memo.shared_grasp(0, 1) == mog_grasp(moved, 0, 1, SIM) is not None
    assert memo.gap(0, 1) == grasp_gap(moved, 0, 1, SIM)[0]
    assert memo.pull(0, 1) == check_pull(moved, 0, 1, SIM)
    assert memo.pull(1, 0) == check_pull(moved, 1, 0, SIM)


def test_clear_verdict_ignores_arrivals_that_left():
    # Bowl 2 arrives in the corridor between cups 0 and 1 and leaves again
    # before the memo is next asked about that pull.
    scene = build_scene([([CUP], 10, 30), ([CUP], 68, 30), ([BOWL], 35, 9)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert memo.pull(0, 1).allowable

    moved = scene.clone()
    moved.stacks[2] = dataclasses.replace(scene.stacks[2], base=Point2(35, 35))
    assert check_pull(moved, 0, 1, SIM).blocker == 2
    memo.sync(moved)
    gone = moved.clone()
    del gone.stacks[2]
    memo.sync(gone)
    assert memo.pull(0, 1).allowable


def bottom_kind(state, sid):
    return state.dishes[state.stacks[sid].bottom].kind


# Each test ``nearest`` admits pairs with, and the same test from the public
# predicates alone.
ADMITS = {
    "ready": (
        policies._ready,
        lambda state, a, b: a < b and mog_grasp(state, a, b, SIM) is not None,
    ),
    "same_grip": (
        policies._same_grip,
        lambda state, a, b: check_pull(state, a, b, SIM).failed != "grip_height",
    ),
    "utensil_onto_bowl": (
        policies._utensil_onto_bowl,
        lambda state, a, b: bottom_kind(state, a) is UTENSIL
        and state.dishes[state.stacks[b].top].kind is BOWL
        and stack_allowable(state, a, b, SIM),
    ),
    "stackable": (
        policies._stackable,
        lambda state, a, b: stack_allowable(state, a, b, SIM),
    ),
}


def on_table(memo: PairMemo, table: int) -> SceneState:
    """The synced state holding only the stacks whose bits are in ``table``."""
    view = memo.state.clone()
    for sid in list(view.stacks):
        if not memo.bit(sid) & table:
            del view.stacks[sid]
    return view


def assert_nearest_is_brute_force(
    memo: PairMemo, reads: int | None = None, table: int | None = None
) -> None:
    """Every admitting test's ``nearest`` on ``table`` (the synced table
    when None) equals a sort by (gap, a, b) of the ordered pairs the test
    admits, each pair once; so does the utensil test's walk scoped to
    utensil piles onto bowl tops, as the stack policy reads it.  With
    ``reads``, each walk is read only that far."""
    view = on_table(memo, memo.table if table is None else table)
    walks = [
        (name, admit, admitted, {"within": SIM.gripper.max_opening} if name == "ready" else {})
        for name, (admit, admitted) in ADMITS.items()
    ]
    scope = {"lifted": memo.utensil_piles, "base": memo.bowl_tops}
    walks.append(("scoped utensil_onto_bowl", *ADMITS["utensil_onto_bowl"], scope))
    for name, admit, admitted, options in walks:
        got = list(islice(memo.nearest(admit, table=table, **options), reads))
        assert len(set(got)) == len(got), name
        expected = sorted(
            (grasp_gap(view, a, b, SIM)[0], a, b)
            for a in view.stacks
            for b in view.stacks
            if a != b and admitted(view, a, b)
        )
        assert got == [(a, b) for _, a, b in expected][:reads], name


@pytest.mark.parametrize("kind", ["pull", "stack"])
def test_nearest_is_brute_force_at_every_step(kind):
    # Failed actions leave moved stacks and merged piles behind; every
    # other step checks a subset of the table too, as the planner reads.
    sim = dataclasses.replace(SIM, p_fail=0.2)
    cfg = PolicyConfig.named(kind)
    for seed in range(2):
        state = dense_scene(30, seed)
        rng = SplitMix64(seed)
        memo = PairMemo(sim)
        memo.sync(state)
        assert_nearest_is_brute_force(memo)
        steps = 0
        while state.stacks:
            action = next_action(state, rng, sim, cfg, memo)
            assert_nearest_is_brute_force(memo)
            if steps % 2:
                narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[::3])
                assert_nearest_is_brute_force(memo, table=narrowed)
            state, _ = apply(state, action, sim, failed=grasp_fails(sim, rng))
            steps += 1


@pytest.mark.parametrize(
    "kind, stacking", [("pull", None), ("stack", "one_per_bowl"), ("stack", "all_on_one_bowl")]
)
def test_walks_read_partly_resume_as_brute_force(kind, stacking):
    # Each walk is read only a few pairs deep, so the next walk on the
    # synced table resumes from where it stopped: on the next step's table,
    # after a walk on a narrowed table (as the planner reads; it starts from
    # the head and keeps nothing), and after a stack leaves the synced table
    # and comes back (its arrival starts every walk afresh).
    sim = dataclasses.replace(SIM, p_fail=0.2)
    cfg = PolicyConfig.named(kind, stacking)
    for seed in range(2):
        state = dense_scene(30, seed)
        rng = SplitMix64(seed)
        memo = PairMemo(sim)
        steps = 0
        while state.stacks:
            action = next_action(state, rng, sim, cfg, memo)
            assert_nearest_is_brute_force(memo, reads=steps % 3 + 1)
            narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[steps % 2::3])
            assert_nearest_is_brute_force(memo, reads=steps % 4 + 1, table=narrowed)
            assert_nearest_is_brute_force(memo, reads=steps % 5 + 1)
            if steps % 3 == 2 and len(state.stacks) > 1:
                left = state.clone()
                del left.stacks[sorted(left.stacks)[steps % len(left.stacks)]]
                memo.sync(left)
                assert_nearest_is_brute_force(memo, reads=2)
                memo.sync(state)
                assert_nearest_is_brute_force(memo, reads=3)
            state, _ = apply(state, action, sim, failed=grasp_fails(sim, rng))
            steps += 1


def test_stack_that_leaves_and_returns_is_listed_once():
    scene = dense_scene(30, 0)
    memo = PairMemo(SIM)
    memo.sync(scene)
    for sid in list(scene.stacks)[::5]:
        left = scene.clone()
        del left.stacks[sid]
        memo.sync(left)
        assert_nearest_is_brute_force(memo)
        memo.sync(scene)
        assert_nearest_is_brute_force(memo)


def test_far_pairs_are_ranked_as_brute_force():
    # Three utensils and three bowls among 66 cups: a utensil's nearest
    # bowl lies several rings of cells out, so its walk merges ring after
    # ring of cup pairs before it yields, and ranks pairs that lie in
    # different rings.
    scale = math.sqrt(72 / 12)
    workspace = (SIM.workspace[0] * scale, SIM.workspace[1] * scale)
    cfg = TierConfig(Tier.T1, n_cups=66, n_bowls=3, n_utensils=3)
    scene = generate_scene(cfg, derive_seed(0, "far"), SIM.dish_specs, workspace)
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert_nearest_is_brute_force(memo, reads=1)
    assert_nearest_is_brute_force(memo)


def test_stack_left_by_failed_pull_is_ranked_as_brute_force():
    # The walks list a few rings of pairs; then a failed pull leaves its
    # mover at the contact point (in seed 3 the anchor is the taller pile,
    # so the grasp carries it off), a new value whose pairs lie both inside
    # and beyond the rings listed so far.
    state = dense_scene(72, 3)
    memo = PairMemo(SIM)
    memo.sync(state)
    assert_nearest_is_brute_force(memo, reads=1)
    mover, anchor = next(
        (m, a) for m, a in memo.nearest(policies._same_grip) if memo.pull(m, a).allowable
    )
    check = memo.pull(mover, anchor)
    pull = PullAction(state.stacks[mover].base, check.end, mover, anchor)
    state, event = apply(state, PullGrasp(pull, check.grasp), SIM, failed=True)
    assert event.params["abandoned"] == mover
    assert state.stacks[mover].base == check.end
    memo.sync(state)
    assert_nearest_is_brute_force(memo, reads=1)
    assert_nearest_is_brute_force(memo)


def test_first_step_bounds_few_pairs(monkeypatch):
    # The pair list is built only as far as the walks read it: the first
    # step of a 72-item trial bounds the pairs of nearby stacks, not all
    # 2,556 of them.
    calls = []
    limit = policies.reach_limit

    def counted(ra, rb):
        calls.append((ra, rb))
        return limit(ra, rb)

    monkeypatch.setattr(policies, "reach_limit", counted)
    cfg = PolicyConfig.named("stack", "one_per_bowl")
    for seed in (0, 3):
        calls.clear()
        scene = dense_scene(72, seed)
        next_action(scene, SplitMix64(seed), SIM, cfg, PairMemo(SIM))
        pairs = len(scene.stacks) * (len(scene.stacks) - 1) // 2
        assert 0 < len(calls) < pairs / 10


def test_ready_pairs_test_only_stacks_within_the_opening(monkeypatch):
    # The first step of a 72-item trial used to test every pair.  A gap is
    # at least the distance between the bases less both grasp loci's reach,
    # and no pair at or beyond the opening has a shared grasp.
    def reach(state, sid):
        spec = SIM.dish_specs[bottom_kind(state, sid)]
        return spec.length / 2.0 if bottom_kind(state, sid) is UTENSIL else spec.radius

    far = []

    def near_only(state, a, b, sim):
        sa, sb = state.stacks[a].base, state.stacks[b].base
        bound = math.hypot(sa.x - sb.x, sa.y - sb.y) - reach(state, a) - reach(state, b)
        if bound - 1e-9 >= sim.gripper.max_opening:
            far.append((a, b))
        return mog_grasp(state, a, b, sim)

    monkeypatch.setattr(policies, "mog_grasp", near_only)
    # Seed 3 also reaches the planner's exact search on its last 12 stacks.
    for seed in (0, 3):
        run_policy(dense_scene(72, seed), PULL, SIM, seed)
        assert not far


def test_each_pull_is_checked_once(monkeypatch):
    # The policy builds a pull from its memo's check; only ``apply``
    # checks it again, in full.
    calls = []

    def counted(state, mover, anchor, sim):
        calls.append((mover, anchor))
        return check_pull(state, mover, anchor, sim)

    monkeypatch.setattr(actions, "check_pull", counted)
    for seed in (0, 3):
        calls.clear()
        trace = run_policy(dense_scene(72, seed), PULL, SIM, seed)
        pulls = [e for e in trace.events if e.kind == "pull_grasp"]
        assert pulls and len(calls) == len(pulls)


def test_stack_policy_tests_few_pairs(monkeypatch):
    calls = []

    def counted(state, lifted, base, sim):
        calls.append((lifted, base))
        return stack_allowable(state, lifted, base, sim)

    monkeypatch.setattr(policies, "stack_allowable", counted)
    run_policy(dense_scene(72, 0), PolicyConfig.named("stack", "one_per_bowl"), SIM, 0)
    assert 0 < len(calls) < 72 * 72 / 10


def test_utensil_walk_tests_only_utensil_piles_onto_bowl_tops(monkeypatch):
    # The stack policy's utensil walk is scoped to utensil piles and bowl
    # tops: it lists no other pair and asks its test about no other order.
    calls = []
    admit = policies._utensil_onto_bowl

    def checked(memo, lifted, base):
        calls.append((lifted, base))
        assert memo.bit(lifted) & memo.utensil_piles, (lifted, base)
        assert memo.bit(base) & memo.bowl_tops, (lifted, base)
        return admit(memo, lifted, base)

    monkeypatch.setattr(policies, "_utensil_onto_bowl", checked)
    for seed in (0, 3):
        calls.clear()
        run_policy(dense_scene(72, seed), PolicyConfig.named("stack", "one_per_bowl"), SIM, seed)
        assert calls


def test_walks_resume_from_step_to_step(monkeypatch):
    # A walk on the synced table goes on from where the last step's walk
    # stopped, so a pair is tested again only once ``sync`` starts the walks
    # afresh.  Each pair is tested at most 3 times in these trials (2,580
    # tests in all); walks that start from the head at every step test a
    # pair up to 24 times (8,678 tests).
    calls = Counter()
    admit = policies._utensil_onto_bowl

    def counted(memo, lifted, base):
        calls[(lifted, base)] += 1
        return admit(memo, lifted, base)

    monkeypatch.setattr(policies, "_utensil_onto_bowl", counted)
    for seed in (0, 3):
        calls.clear()
        run_policy(dense_scene(72, seed), PolicyConfig.named("stack", "one_per_bowl"), SIM, seed)
        assert calls and max(calls.values()) <= 4


def test_sync_hashes_only_the_stacks_an_action_made(monkeypatch):
    # A stack the last action left alone is the same object in the next
    # state and keeps its bit by identity; only new objects are hashed.
    calls = []
    hash_value = Stack.__hash__

    def counted(stack):
        calls.append(stack.id)
        return hash_value(stack)

    monkeypatch.setattr(Stack, "__hash__", counted)
    for cfg in (PULL, PolicyConfig.named("stack", "one_per_bowl")):
        calls.clear()
        trace = run_policy(dense_scene(72, 0), cfg, SIM, 0)
        assert calls and len(calls) <= 72 + 6 * len(trace.events)


# sha256 of the run_policy event lines of 72-item seeds 0 and 3, each trial
# seeded with its scene's seed.
GOLDEN_DENSE_DIGESTS = {
    ("pull", 0.0): "b9e2be777968ebdd0dcda955921e2f9e69b774a9d9e47f2bef2022e53de9ae89",
    ("pull", 0.2): "9f3f0d35d2001c86482405d20dfb875c91b404dc8742438d1c26a721ae709a80",
    ("stack", 0.0): "8e6320e45d7e2f7d601444fa5864c25908c11430eb47861dbddc7e93230b3e80",
    ("stack", 0.2): "aa38cae363a478ebeca6c980e15165af06e386365dbeb59e53b2012c128fa1e2",
}


@pytest.mark.parametrize("kind, p_fail", sorted(GOLDEN_DENSE_DIGESTS))
def test_golden_digests_of_dense_trials(kind, p_fail):
    # Pins every step of the memoized policies on large tables, where walks
    # resume, the pair list is compacted and failures bring new values.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    lines = []
    for seed in (0, 3):
        trace = run_policy(dense_scene(72, seed), PolicyConfig.named(kind), sim, seed)
        lines.extend(json.dumps(e.to_json_obj()) for e in trace.events)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DENSE_DIGESTS[(kind, p_fail)]
