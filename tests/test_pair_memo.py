"""The per-trial pair memo of the pull and stack policies against brute-force
references."""

import dataclasses
import gc
import hashlib
import json
import math
import weakref
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declutter import (
    GraspAction,
    PairGrasp,
    PairMemo,
    PolicyConfig,
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
    grasp_gap,
    mog_grasp,
    next_action,
    policies,
    run_policy,
    stack_allowable,
    trial_steps,
)
from declutter.harness import trace_lines
from declutter.rng import SplitMix64, derive_seed
from declutter.geometry import TOUCH_TOL, XY
from declutter.tableware import Dish, Stack, stack_footprints
from helpers import BOWL, CUP, SIM, UTENSIL, build_scene, sampled_sweep_blocked, support
from oracle import choice, pull_policy_choice, stack_policy_choice

PULL = PolicyConfig.named("pull")


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
        for step in trial_steps(dense_scene(30, seed), PULL, sim, seed):
            state, action = step.state, step.action
            expected = choice(action)
            assert expected == pull_policy_choice(state, sim), (seed, len(state.bin))
            if expected[0] == "grasp":
                assert action == PairGrasp(*expected[1])
            kinds.add(expected[0])
            if isinstance(action, PullGrasp) and step.failed:
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
        for step in trial_steps(dense_scene(30, seed), cfg, sim, seed):
            state, action = step.state, step.action
            expected = choice(action)
            assert expected == stack_policy_choice(state, sim, cfg), (seed, len(state.bin))
            if expected[0] == "stack":
                longest = max(longest, len(expected[1]))
            if isinstance(action, StackGrasp) and step.failed:
                failed_stacks += 1
    # all_on_one_bowl places previewed piles, several in one action
    assert longest == 1 if stacking == "one_per_bowl" else longest > 1
    if p_fail:
        assert failed_stacks > 0  # merged piles stayed behind


def test_all_on_one_bowl_tests_each_utensil_against_the_preview():
    # A bowl holds nine utensils before the pile's lip span passes the jaw
    # height: the tenth fits on the bare bowl 0 but not on the preview of
    # the other nine, so the policy places nine.
    scene = build_scene([([BOWL], 60, 30)] + [([UTENSIL], 20, 5 + 5 * k) for k in range(10)])
    assert stack_allowable(scene, 10, 0, SIM)
    preview = scene
    for u in range(1, 10):
        preview = preview.merged(u, 0)
    assert not stack_allowable(preview, 10, 0, SIM)

    cfg = PolicyConfig.named("stack", "all_on_one_bowl")
    action = next_action(scene, SplitMix64(0), cfg, PairMemo(SIM))
    assert choice(action) == stack_policy_choice(scene, SIM, cfg)
    assert len(action.lifts) == 9


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
        middle = (moved.workspace[0] / 2, moved.workspace[1] / 2)
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
                        assert memo.pullable(mover, anchor, mask) == check.allowable
                        if check.failed in (None, "corridor"):
                            blockers = corridor_blockers(view, mover, anchor, check.end)
                            assert check.blocker in (blockers or {None})
                            blocked.append(len(blockers))
        assert 0 in blocked and max(blocked) > 1


def corridor_blockers(view: SceneState, mover: int, anchor: int, end: XY) -> set[int]:
    """The ids of the stacks on ``view`` meeting the corridor of ``mover``'s
    pull to ``end``."""
    sm = view.stacks[mover]
    fps = stack_footprints(sm, view.dishes, SIM.dish_specs)
    sweep = Sweep(sm.base, end, fps, SIM.pull_clearance_margin)
    return {
        sid
        for sid, stack in view.stacks.items()
        if sid not in (mover, anchor)
        and sweep.meets(stack_footprints(stack, view.dishes, SIM.dish_specs))
    }


def test_pull_offered_once_blocker_is_binned():
    # Cup 0 sits in the corridor between bowls 1 and 2; cups and bowls
    # never pair, so the cup goes alone first.
    scene = build_scene([([CUP], 39, 30), ([BOWL], 10, 30), ([BOWL], 68, 30)])
    steps = trial_steps(scene, PULL, SIM, 0)
    first = next(steps)
    assert choice(first.action) == ("single", (0,)) == pull_policy_choice(scene, SIM)
    assert not first.memo.pullable(1, 2, first.memo.table)
    check = check_pull(first.state, 1, 2, SIM)
    assert (check.failed, check.blocker) == ("corridor", 0)

    second = next(steps)
    assert choice(second.action) == ("pull", (1, 2)) == pull_policy_choice(second.state, SIM)


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_pull_step_is_the_memos_check(p_fail):
    # The policy takes a pull the memo finds allowable: the step's memo,
    # synced with the table the policy chose on, answers as ``check_pull``
    # does, whose contact point and grasp the step's event carries.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    pulls = 0
    for tier in (Tier.T1, Tier.T2):
        for seed in range(10):
            scene = generate_scene(TierConfig.preset(tier), seed)
            for step in trial_steps(scene, PULL, sim, seed):
                if not isinstance(step.action, PullGrasp):
                    continue
                mover, anchor = step.action.mover, step.action.anchor
                assert step.memo.pullable(mover, anchor, step.memo.table)
                check = check_pull(step.state, mover, anchor, sim)
                assert check.allowable
                (point, z, theta), params = check.grasp, step.event["params"]
                assert params["pull"]["end"] == list(check.end)
                assert params["grasp"] == {"point": list(point), "z": z, "theta": theta}
                assert step.event["targets"] == sorted((mover, anchor))
                if mover in step.after.stacks:  # left at contact by a failed grasp
                    assert step.after.stacks[mover].base == check.end
                pulls += 1
    assert pulls


def test_pull_that_fails_its_grasp_at_contact_is_never_taken():
    # Pile 1 of four cups (lip span 6 > jaw 4.5) and cup 2 have no grasp at
    # contact, and bowl 0 blocks the corridor between them, as it blocks a
    # lone cup's.  ``check_pull`` names the failed grasp, and the memo,
    # which tests the corridor before it takes that grasp, refuses the
    # pull, on the table with the bowl and once it has gone: on a subset,
    # and after the policy has binned it.
    stacks = [([BOWL], 35, 30), ([CUP] * 4, 10, 30), ([CUP], 60, 30)]
    lone = build_scene([stacks[0], ([CUP], 10, 30), stacks[2]])
    blocked = check_pull(lone, 1, 2, SIM)
    assert (blocked.failed, blocked.blocker) == ("corridor", 0)
    scene = build_scene(stacks)
    memo = PairMemo(SIM)
    memo.sync(scene)
    for mask in (memo.table, memo.bit(1) | memo.bit(2)):
        for mover, anchor in ((1, 2), (2, 1)):
            check = check_pull(on_table(memo, mask), mover, anchor, SIM)
            assert check.failed == "mog_allowable"
            assert not memo.pullable(mover, anchor, mask)

    chosen = []
    for step in trial_steps(scene, PULL, SIM, 0):
        chosen.append(choice(step.action))
        assert chosen[-1] == pull_policy_choice(step.state, SIM)
        if {1, 2} <= step.state.stacks.keys():
            assert not step.memo.pullable(1, 2, step.memo.table)
            assert check_pull(step.state, 1, 2, SIM).failed == "mog_allowable"
    assert chosen == [("single", (0,)), ("single", (1,)), ("single", (2,))]


def test_sync_follows_each_stack_by_value():
    # Stacks leave, an equal copy stands in for a stack, a stack is moved
    # and another merged under their ids, a new id arrives, and every value
    # comes back.  After each sync the table is the mask of the stacks'
    # bits, one bit per stack, and a value seen before keeps its bit.
    scene = build_scene(
        [([CUP], 10, 10), ([CUP], 40, 10), ([BOWL], 60, 40), ([BOWL], 20, 45), ([CUP], 70, 10)]
    )
    left = scene.clone()
    del left.stacks[3], left.stacks[4]
    copied = left.clone()
    copied.stacks[0] = dataclasses.replace(left.stacks[0])
    moved = copied.clone()
    moved.stacks[1] = dataclasses.replace(moved.stacks[1], base=(25, 10))
    merged = moved.merged(0, 2)
    arrived = merged.clone()
    arrived.dishes = {**merged.dishes, 5: Dish(BOWL)}  # a bowl from off the table
    arrived.stacks[5] = Stack((5,), (20, 45))
    memo = PairMemo(SIM)
    bits = {}  # the bit each value got
    for state in (scene, left, left, copied, moved, merged, arrived, scene, copied, arrived):
        memo.sync(state)
        assert memo.ids() == sorted(state.stacks)
        on_table = [memo.bit(sid) for sid in state.stacks]
        assert all(bit and bit & bit - 1 == 0 for bit in on_table)
        assert memo.table == sum(on_table) and len(set(on_table)) == len(on_table)
        for sid, stack in state.stacks.items():
            assert bits.setdefault(stack, memo.bit(sid)) == memo.bit(sid)
    assert len(set(bits.values())) == len(bits) == 8


def test_failed_pull_blocks_corridor_cached_as_clear():
    # Bowl 2 is pulled up to the two-bowl pile 3, across the corridor
    # between cups 0 and 1.  The grasp fails, the taller pile is carried
    # and bowl 2 stays where the pull left it.  The cups can then be
    # pulled together only once bowl 2 has gone, so the policy bins it.
    sim = dataclasses.replace(SIM, p_fail=1.0)
    scene = build_scene(
        [([CUP], 10, 30), ([CUP], 68, 30), ([BOWL], 35, 9), ([BOWL, BOWL], 35, 52)]
    )
    steps = trial_steps(scene, PULL, sim, 0)
    first = next(steps)
    assert choice(first.action) == ("pull", (2, 3)) == pull_policy_choice(scene, sim)
    assert first.memo.pullable(0, 1, first.memo.table)

    assert first.event["params"]["abandoned"] == 2
    assert first.after.stacks[2].base == check_pull(scene, 2, 3, sim).end
    second = next(steps)
    assert isinstance(second.action, GraspAction)
    assert choice(second.action) == ("single", (2,)) == pull_policy_choice(second.state, sim)
    assert not second.memo.pullable(0, 1, second.memo.table)
    check = check_pull(second.state, 0, 1, sim)
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
    steps = trial_steps(scene, PULL, sim, 0)
    first = next(steps)
    assert choice(first.action) == ("pull", (0, 1)) == pull_policy_choice(scene, sim)

    assert first.event["params"]["abandoned"] == 0
    assert len(first.after.stacks) > policies.PLAN_MAX_STACKS
    second = next(steps)
    assert choice(second.action) == ("grasp", (0, 2)) == pull_policy_choice(second.state, sim)


def test_entries_die_with_either_stack_value():
    # Bowl 0 moves beside bowl 1, then to where cup 2 blocks both pulls of
    # the pair: a pull entry kept for its old value would still be clear.
    scene = build_scene([([BOWL], 10, 30), ([BOWL], 60, 30), ([CUP], 35, 52)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert mog_grasp(scene, 0, 1, SIM) is None
    assert memo.gap(0, 1) == grasp_gap(scene, 0, 1, SIM)[0]
    assert memo.pullable(0, 1, memo.table) and memo.pullable(1, 0, memo.table)

    moved = scene.clone()
    moved.stacks[0] = dataclasses.replace(scene.stacks[0], base=(40, 30))
    memo.sync(moved)
    assert mog_grasp(moved, 0, 1, SIM) is not None
    assert memo.gap(0, 1) == grasp_gap(moved, 0, 1, SIM)[0]
    assert memo.pullable(0, 1, memo.table) == check_pull(moved, 0, 1, SIM).allowable
    assert memo.pullable(1, 0, memo.table) == check_pull(moved, 1, 0, SIM).allowable

    blocked = scene.clone()
    blocked.stacks[0] = dataclasses.replace(scene.stacks[0], base=(12, 52))
    memo.sync(blocked)
    for mover, anchor in ((0, 1), (1, 0)):
        assert check_pull(blocked, mover, anchor, SIM).blocker == 2
        assert not memo.pullable(mover, anchor, memo.table)


def test_clear_verdict_ignores_arrivals_that_left():
    # Bowl 2 arrives in the corridor between cups 0 and 1 and leaves again
    # before the memo is next asked about that pull.
    scene = build_scene([([CUP], 10, 30), ([CUP], 68, 30), ([BOWL], 35, 9)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert memo.pullable(0, 1, memo.table)

    moved = scene.clone()
    moved.stacks[2] = dataclasses.replace(scene.stacks[2], base=(35, 35))
    assert check_pull(moved, 0, 1, SIM).blocker == 2
    memo.sync(moved)
    gone = moved.clone()
    del gone.stacks[2]
    memo.sync(gone)
    assert memo.pullable(0, 1, memo.table)


@st.composite
def corridor_scenes(draw):
    """A pull of cup or bowl 0 to its like, stack 1; stack 2, one dish whose
    footprint comes closest to the mover's grown footprint with
    ``separation`` TOUCH_TOL + delta, delta = +-1e-7, beside the path or
    beyond either end; and cups 3 to 6 in the corners, far from the
    corridor.  Returns the scene, the pull's contact point and delta."""
    kind = draw(st.sampled_from((CUP, BOWL)))
    x, y = draw(st.floats(120.0, 180.0)), draw(st.floats(120.0, 180.0))
    length = draw(st.floats(20.0, 50.0))
    heading = draw(st.floats(-math.pi, math.pi))
    anchor = (x + length * math.cos(heading), y + length * math.sin(heading))
    pair = [([kind], x, y), ([kind], *anchor)]
    workspace = (300.0, 300.0)
    end = check_pull(build_scene(pair, workspace), 0, 1, SIM).end
    length = math.hypot(end[0] - x, end[1] - y)
    ux, uy = (end[0] - x) / length, (end[1] - y) / length
    ob_kind = draw(st.sampled_from((CUP, BOWL, UTENSIL)))
    theta = draw(st.floats(0.0, math.pi)) if ob_kind is UTENSIL else 0.0
    ob = SIM.dish_specs[ob_kind].footprint(0.0, 0.0, theta)
    side = draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):  # beside, at a fraction of the way
        f = draw(st.floats(0.0, 1.0))
        nx, ny = -side * uy, side * ux
    else:  # beyond the end, or behind the start
        f = 1.0 if side > 0 else 0.0
        nx, ny = side * ux, side * uy
    grown = (x, y, SIM.dish_specs[kind].radius + SIM.pull_clearance_margin)
    px, py = support(grown, nx, ny)
    qx, qy = support(ob, -nx, -ny)
    delta = draw(st.sampled_from((-1e-7, 1e-7)))
    gap = TOUCH_TOL + delta
    obstacle = ([(ob_kind, theta)], px + f * length * ux + gap * nx - qx,
                py + f * length * uy + gap * ny - qy)
    corners = [([CUP], cx, cy) for cx in (5.0, 295.0) for cy in (5.0, 295.0)]
    return build_scene([*pair, obstacle, *corners], workspace), end, delta


@settings(max_examples=100, deadline=None)
@given(corridor_scenes())
def test_memo_pull_is_check_pull_and_the_stepping_oracle(case):
    # The memo's corridor answer on the synced table and on subsets, some
    # asked before the whole table and some after, is ``check_pull``'s on
    # a view of the subset, and blocked exactly when the stepping oracle
    # finds the grown mover overlapping stack 2.
    scene, end, delta = case
    specs = SIM.dish_specs
    blocked = sampled_sweep_blocked(
        scene.stacks[0].base, end, stack_footprints(scene.stacks[0], scene.dishes, specs),
        SIM.pull_clearance_margin, stack_footprints(scene.stacks[2], scene.dishes, specs),
    )
    assert blocked == (delta < 0)
    check = check_pull(scene, 0, 1, SIM)
    assert check.end == end
    assert (check.failed, check.blocker) == (("corridor", 2) if blocked else (None, None))
    memo = PairMemo(SIM)
    memo.sync(scene)
    bit = [memo.bit(sid) for sid in sorted(scene.stacks)]
    pair = bit[0] | bit[1]
    for mask in (pair | bit[3], memo.table, memo.table ^ bit[4], pair | bit[2], pair):
        view = on_table(memo, mask)
        assert memo.pullable(0, 1, mask) == check_pull(view, 0, 1, SIM).allowable
    assert memo.pullable(0, 1, memo.table) == check.allowable


def test_stack_moved_into_a_tested_corridor_blocks_it():
    # Cup 2 lies outside the box of the corridor between cups 0 and 1, so
    # the memo marks it clear untested.  It is then pulled up to the
    # two-cup pile 3, across that corridor; the grasp fails, the taller
    # pile is carried and cup 2 stays at contact, inside the corridor.  Its
    # new value arrives after the pull's entry was made and is tested.
    scene = build_scene([([CUP], 10, 30), ([CUP], 50, 30), ([CUP], 25, 5), ([CUP, CUP], 25, 45)])
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert memo.pullable(0, 1, memo.table)
    clear = check_pull(scene, 0, 1, SIM)
    assert clear.allowable
    mover = scene.stacks[0]
    fps = stack_footprints(mover, scene.dishes, SIM.dish_specs)
    sweep = Sweep(mover.base, clear.end, fps, SIM.pull_clearance_margin)
    x0, x1, y0, y1 = sweep.box(max(spec.circumscribed_radius for spec in SIM.dish_specs.values()))
    assert not y0 <= scene.stacks[2].base[1] <= y1

    check = check_pull(scene, 2, 3, SIM)
    after, event = apply(scene, PullGrasp(2, 3), SIM, failed=True)
    assert event["params"]["abandoned"] == 2 and after.stacks[2].base == check.end
    assert x0 <= check.end[0] <= x1 and y0 <= check.end[1] <= y1
    memo.sync(after)
    assert not memo.pullable(0, 1, memo.table)
    blocked = check_pull(after, 0, 1, SIM)
    assert (blocked.failed, blocked.blocker) == ("corridor", 2)


def bottom_kind(state, sid):
    return state.dishes[state.stacks[sid].bottom].kind


# Each test ``nearest`` admits pairs with, and the same test from the public
# predicates alone.
ADMITS = {
    "ready": (
        policies.ready,
        lambda state, a, b: a < b and mog_grasp(state, a, b, SIM) is not None,
    ),
    "same_grip": (
        policies.same_grip,
        lambda state, a, b: check_pull(state, a, b, SIM).failed != "grip_height",
    ),
    "stackable": (
        policies.stackable,
        lambda state, a, b: stack_allowable(state, a, b, SIM),
    ),
}


def utensil_onto_bowl(state, a, b):
    """What the stack policy's scoped walk admits, from the public predicates."""
    return (
        bottom_kind(state, a) is UTENSIL
        and state.dishes[state.stacks[b].top].kind is BOWL
        and stack_allowable(state, a, b, SIM)
    )


def on_table(memo: PairMemo, table: int) -> SceneState:
    """The synced state holding only the stacks whose bits are in ``table``."""
    view = memo.state.clone()
    for sid in list(view.stacks):
        if not memo.bit(sid) & table:
            del view.stacks[sid]
    return view


def assert_nearest_is_brute_force(
    memo: PairMemo, reads: int | None = None, table: int | None = None,
    chain: dict | None = None,
) -> None:
    """Every admitting test's ``nearest`` on ``table`` (the synced table
    when None), walked down ``chain``, equals a sort by (gap, a, b) of the
    ordered pairs the test admits, each pair once; so does the stacking
    test's walk scoped to utensil piles onto bowl tops, as the stack policy
    reads it.  With ``reads``, each walk is read only that far."""
    view = on_table(memo, memo.table if table is None else table)
    walks = [
        (name, admit, admitted, {"within": SIM.gripper.max_opening} if name == "ready" else {})
        for name, (admit, admitted) in ADMITS.items()
    ]
    scope = {"lifted": memo.utensil_piles, "base": memo.bowl_tops}
    walks.append(("scoped stackable", policies.stackable, utensil_onto_bowl, scope))
    for name, admit, admitted, options in walks:
        got = list(islice(memo.nearest(admit, table=table, chain=chain, **options), reads))
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
        scene = dense_scene(30, seed)
        fresh = PairMemo(sim)
        fresh.sync(scene)
        assert_nearest_is_brute_force(fresh)
        for steps, step in enumerate(trial_steps(scene, cfg, sim, seed)):
            memo = step.memo
            assert_nearest_is_brute_force(memo)
            if steps % 2:
                narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[::3])
                assert_nearest_is_brute_force(memo, table=narrowed)


@pytest.mark.parametrize(
    "kind, stacking", [("pull", None), ("stack", "one_per_bowl"), ("stack", "all_on_one_bowl")]
)
def test_walks_read_partly_resume_as_brute_force(kind, stacking):
    # Each walk is read only a few pairs deep, so the next walk on the
    # synced table resumes from where it stopped: on the next step's table,
    # after walks down a chain of narrowed tables (as the planner reads;
    # they go on from a copy of the synced table's walk and leave it as it
    # was), and after a stack leaves the synced table and comes back (its
    # arrival starts every walk afresh).  The chain's walks resume too.
    sim = dataclasses.replace(SIM, p_fail=0.2)
    cfg = PolicyConfig.named(kind, stacking)
    for seed in range(2):
        for steps, step in enumerate(trial_steps(dense_scene(30, seed), cfg, sim, seed)):
            state, memo = step.state, step.memo
            assert_nearest_is_brute_force(memo, reads=steps % 3 + 1)
            narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[steps % 2::3])
            narrower = narrowed & ~sum(memo.bit(sid) for sid in memo.ids()[1::4])
            chain = {}
            assert_nearest_is_brute_force(memo, reads=steps % 4 + 1, table=narrowed, chain=chain)
            assert_nearest_is_brute_force(memo, reads=steps % 3 + 1, table=narrower, chain=chain)
            assert_nearest_is_brute_force(memo, reads=steps % 5 + 1)
            if steps % 3 == 2 and len(state.stacks) > 1:
                left = state.clone()
                del left.stacks[sorted(left.stacks)[steps % len(left.stacks)]]
                memo.sync(left)
                assert_nearest_is_brute_force(memo, reads=2)
                memo.sync(state)
                assert_nearest_is_brute_force(memo, reads=3)


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


def test_walks_after_most_stacks_left_rank_as_brute_force():
    # Every walk is read to its end, so it keeps every pair its test
    # admits; then a third of the stacks leave, and then two thirds, with
    # no arrival between.  A walk forgets the kept pairs of the stacks that
    # left as it meets them, and a walk down a chain of narrower tables
    # forgets only from its own copy: the synced table's walk still yields
    # the pairs the chain dropped.  The full scene's return is an arrival,
    # which starts every walk afresh.
    scene = dense_scene(72, 0)
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert_nearest_is_brute_force(memo)
    ids = sorted(scene.stacks)
    for leaving in (ids[::3], ids[::3] + ids[1::3]):
        left = scene.clone()
        for sid in leaving:
            del left.stacks[sid]
        memo.sync(left)
        assert_nearest_is_brute_force(memo, reads=1)
        assert_nearest_is_brute_force(memo, reads=3)
        narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[::3])
        narrower = narrowed & ~sum(memo.bit(sid) for sid in memo.ids()[1::3])
        chain = {}
        assert_nearest_is_brute_force(memo, table=narrowed, chain=chain)
        assert_nearest_is_brute_force(memo, table=narrower, chain=chain)
        assert_nearest_is_brute_force(memo)
    memo.sync(scene)
    assert_nearest_is_brute_force(memo)


def test_far_pairs_are_ranked_as_brute_force():
    # Three utensils and three bowls among 66 cups: a utensil's nearest
    # bowl lies several bands of base distance out, so its walk merges band
    # after band of cup pairs before it yields, and ranks pairs that lie in
    # different bands.
    scale = math.sqrt(72 / 12)
    workspace = (SIM.workspace[0] * scale, SIM.workspace[1] * scale)
    cfg = TierConfig(Tier.T1, n_cups=66, n_bowls=3, n_utensils=3)
    scene = generate_scene(cfg, derive_seed(0, "far"), SIM.dish_specs, workspace)
    memo = PairMemo(SIM)
    memo.sync(scene)
    assert_nearest_is_brute_force(memo, reads=1)
    assert_nearest_is_brute_force(memo)


def test_stack_left_by_failed_pull_is_ranked_as_brute_force():
    # The walks list a few bands of pairs; then a failed pull leaves its
    # mover at the contact point (in seed 3 the anchor is the taller pile,
    # so the grasp carries it off), a new value whose pairs lie both inside
    # and beyond the bands listed so far.
    state = dense_scene(72, 3)
    memo = PairMemo(SIM)
    memo.sync(state)
    assert_nearest_is_brute_force(memo, reads=1)
    mover, anchor = next(
        (m, a) for m, a in memo.nearest(policies.same_grip) if memo.pullable(m, a, memo.table)
    )
    check = check_pull(state, mover, anchor, SIM)
    state, event = apply(state, PullGrasp(mover, anchor), SIM, failed=True)
    assert event["params"]["abandoned"] == mover
    assert state.stacks[mover].base == check.end
    memo.sync(state)
    assert_nearest_is_brute_force(memo, reads=1)
    assert_nearest_is_brute_force(memo)


# The pair list's first band of base distance: 2.4 of the widest grasp
# reach.  Each band doubles it, and a table lists every pair left at once
# when the band covers a quarter of its values' spread in x.
FIRST_BAND = 2.4 * max(spec.grasp_reach for spec in SIM.dish_specs.values())

# Piles the edge-case scenes cycle through: each kind at the bottom and at
# the top, as the walks' tests and scopes tell them apart.
KINDS = ([CUP], [BOWL], [UTENSIL], [CUP, CUP], [BOWL, CUP], [UTENSIL, CUP], [BOWL, UTENSIL])


def assert_ranked_as_brute_force(stacks, workspace):
    """``assert_nearest_is_brute_force`` on the scene of ``stacks``, read one
    pair deep and then in full, and on a table without every third stack."""
    memo = PairMemo(SIM)
    memo.sync(build_scene(stacks, workspace))
    assert_nearest_is_brute_force(memo, reads=1)
    assert_nearest_is_brute_force(memo)
    narrowed = memo.table & ~sum(memo.bit(sid) for sid in memo.ids()[::3])
    assert_nearest_is_brute_force(memo, table=narrowed)


def counted_reach_limits(monkeypatch) -> list:
    """Record the policies' calls of ``reach_limit`` from now on."""
    calls = []
    limit = policies.reach_limit

    def counted(ra, rb):
        calls.append((ra, rb))
        return limit(ra, rb)

    monkeypatch.setattr(policies, "reach_limit", counted)
    return calls


def bounded_by_first_walk(monkeypatch, stacks, workspace) -> tuple[int, int]:
    """Gap bounds taken by a first walk on the scene of ``stacks`` that
    admits every pair, read one pair deep, and the scene's pairs."""
    calls = counted_reach_limits(monkeypatch)
    memo = PairMemo(SIM)
    memo.sync(build_scene(stacks, workspace))
    list(islice(memo.nearest(lambda memo, a, b: True), 1))
    return len(calls), len(stacks) * (len(stacks) - 1) // 2


def test_bases_on_one_x_are_ranked_as_brute_force():
    # No spread in x, though the bases span 180 in y: the list is made in
    # one pass, and the sweep meets every pair.
    stacks = [(KINDS[i % len(KINDS)], 40.0, 6.0 + 9.5 * i) for i in range(20)]
    assert_ranked_as_brute_force(stacks, (78.0, 200.0))


def test_repeated_x_values_are_ranked_as_brute_force():
    # Ten columns of three bases share each x, spread over several bands;
    # the columns lie 19 apart, just inside the first band.
    stacks = [
        (KINDS[(3 * i + j) % len(KINDS)], 10.0 + 19.0 * i, 10.0 + 19.0 * j)
        for i in range(10) for j in range(3)
    ]
    assert_ranked_as_brute_force(stacks, (200.0, 61.0))


@pytest.mark.parametrize("spacing, one_pass", [(2.0, True), (19.0, False)])
def test_one_pass_and_banded_lists_rank_as_brute_force(monkeypatch, spacing, one_pass):
    # The same 10 x 3 grid within the first band of every base (the list is
    # made in one pass) and spread over several bands (listed band by band).
    stacks = [
        (KINDS[(3 * i + j) % len(KINDS)], 10.0 + spacing * i, 10.0 + spacing * j)
        for i in range(10) for j in range(3)
    ]
    assert_ranked_as_brute_force(stacks, (200.0, 61.0))
    bounded, pairs = bounded_by_first_walk(monkeypatch, stacks, (200.0, 61.0))
    if one_pass:
        assert max(math.dist(a[1:], b[1:]) for a in stacks for b in stacks) <= FIRST_BAND
        assert bounded >= pairs
    else:
        assert 0 < bounded < pairs / 2


def assert_edge_pairs_ranked_as_brute_force(pairs):
    """``assert_ranked_as_brute_force`` on a scene with the pairs
    ``pairs(edge)``, (bottom pile, top pile, base distance), at each of the
    first two band edges.  Each pair has a row of its own, further from the
    others than the second edge, and stacks at both ends of the table make
    its spread in x wide enough for both edges to be listed band by band."""
    stacks = [([CUP], 5.0, 5.0), ([BOWL], 195.0, 5.0)]
    y = 5.0
    for edge in (FIRST_BAND, 2 * FIRST_BAND):
        for pile_a, pile_b, distance in pairs(edge):
            y += 45.0
            # 8 + distance keeps the exponent of the distance, so the
            # distance from 8 is exact.
            stacks += [(pile_a, 8.0, y), (pile_b, 8.0 + distance, y)]
    assert_ranked_as_brute_force(stacks, (200.0, y + 5.0))


def test_pairs_at_band_edges_are_ranked_as_brute_force():
    # Bases one float inside, on and one float beyond each edge.
    assert_edge_pairs_ranked_as_brute_force(lambda edge: [
        (pile_a, pile_b, distance)
        for distance in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
        for pile_a, pile_b in (([CUP], [CUP]), ([UTENSIL], [BOWL]))
    ])


def test_pairs_beyond_a_band_edge_bounded_inside_it_are_ranked_as_brute_force():
    # A cup and bowl 3.9 inside each edge are listed with its band, yet
    # bounded 0.1 above its horizon: past the bound of two bowls 0.05
    # beyond the edge, which the band leaves out.
    assert_edge_pairs_ranked_as_brute_force(lambda edge: [
        ([CUP], [BOWL], edge - 3.9), ([BOWL], [BOWL], edge + 0.05),
    ])


@pytest.mark.parametrize("utensils_left", [True, False])
def test_scope_with_values_on_one_side_is_ranked_as_brute_force(utensils_left):
    # Utensil piles at one end of the table, bowl tops at the other and cups
    # between: the utensil walk's first bands list none of its pairs.
    utensils, bowls = (10.0, 180.0) if utensils_left else (180.0, 10.0)
    stacks = [([UTENSIL], utensils + 5.0 * (i % 3), 8.0 + 9.0 * i) for i in range(5)]
    stacks += [([BOWL], bowls + 5.0 * (i % 3), 8.0 + 18.0 * i) for i in range(3)]
    stacks += [([CUP], 40.0 + 11.0 * i, 10.0 + 12.0 * (i % 4)) for i in range(10)]
    assert_ranked_as_brute_force(stacks, (200.0, 61.0))


def test_first_step_bounds_few_pairs(monkeypatch):
    # The pair list is built only as far as the walks read it: the first
    # step of a 72-item trial bounds the pairs of nearby stacks, not all
    # 2,556 of them.
    calls = counted_reach_limits(monkeypatch)
    cfg = PolicyConfig.named("stack", "one_per_bowl")
    for seed in (0, 3):
        calls.clear()
        scene = dense_scene(72, seed)
        next_action(scene, SplitMix64(seed), cfg, PairMemo(SIM))
        pairs = len(scene.stacks) * (len(scene.stacks) - 1) // 2
        assert 0 < len(calls) < pairs / 10


def test_ready_pairs_test_only_stacks_within_the_opening(monkeypatch):
    # The first step of a 72-item trial used to test every pair.  A gap is
    # at least the distance between the bases less both grasp loci's reach,
    # and no pair at or beyond the opening has a shared grasp, so ``ready``
    # is never asked about one.
    def reach(state, sid):
        spec = SIM.dish_specs[bottom_kind(state, sid)]
        return spec.length / 2.0 if bottom_kind(state, sid) is UTENSIL else spec.radius

    asked, far = [], []
    ready = policies.ready

    def near_only(memo, a, b):
        state = memo.state
        sa, sb = state.stacks[a].base, state.stacks[b].base
        bound = math.hypot(sa[0] - sb[0], sa[1] - sb[1]) - reach(state, a) - reach(state, b)
        asked.append((a, b))
        if bound - 1e-9 >= SIM.gripper.max_opening:
            far.append((a, b))
        return ready(memo, a, b)

    monkeypatch.setattr(policies, "ready", near_only)
    # Seed 3 also reaches the planner's exact search on its last 12 stacks.
    for seed in (0, 3):
        run_policy(dense_scene(72, seed), PULL, SIM, seed)
        assert asked and not far


def pull_trial_scenes():
    """(scene, seed) of the seeded pull trials the grasp tests are pinned
    on: tier t1 and t2 scenes of seeds 0-9, two 72-item scenes, and a pile
    of four cups beside a cup, whose lip span (6 cm) is over the jaws."""
    for tier in (Tier.T1, Tier.T2):
        for seed in range(10):
            yield generate_scene(TierConfig.preset(tier), seed), seed
    for seed in (0, 3):
        yield dense_scene(72, seed), seed
    yield build_scene([([CUP] * 4, 10, 30), ([CUP], 20, 30)]), 0


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_ready_and_the_contact_witness_are_the_grasp_test(p_fail):
    # ``ready`` asks ``mog_grasp``'s tests of the memo's heights and gap,
    # and the memo's verdict at contact asks them of its heights and one gap
    # with the mover at contact, building no witness: both must answer as
    # ``mog_grasp`` does, and ``check_pull``'s witness is that grasp.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    verdicts = Counter()
    for scene, seed in pull_trial_scenes():
        for step in trial_steps(scene, PULL, sim, seed):
            memo, state, ids = step.memo, step.state, sorted(step.state.stacks)
            for a in ids:
                for b in ids:
                    if a != b:
                        shared = a < b and mog_grasp(state, a, b, sim) is not None
                        assert policies.ready(memo, a, b) == shared
            # Every verdict the policy took, on this table or before it.
            on_table = {memo.bit(sid): sid for sid in ids}
            for (bm, ba), entry in memo._pulls.items():
                if entry.sweep is None or entry.fits is None:  # no verdict at contact
                    continue
                if bm in on_table and ba in on_table:
                    mover, anchor = on_table[bm], on_table[ba]
                    moved = state.clone()
                    moved.stacks[mover] = Stack(state.stacks[mover].dishes, entry.sweep.end)
                    grasp = mog_grasp(moved, mover, anchor, sim)
                    assert entry.fits == (grasp is not None)
                    full = check_pull(state, mover, anchor, sim)
                    assert memo.pullable(mover, anchor, memo.table) == full.allowable
                    assert (full.failed == "mog_allowable") == (not entry.fits)
                    assert full.grasp == grasp
                    assert full.end == (entry.sweep.end if entry.fits else None)
                    verdicts[entry.fits] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_every_pull_verdict_the_policy_reads_is_check_pulls(monkeypatch, p_fail):
    # The planner asks the memo about pulls on the synced table and on the
    # subsets it looks ahead on; each answer is ``check_pull``'s on a table
    # of the subset's stacks.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    answers, subsets = Counter(), []
    pullable = PairMemo.pullable

    def checked(memo, mover, anchor, table):
        got = pullable(memo, mover, anchor, table)
        assert got == check_pull(on_table(memo, table), mover, anchor, sim).allowable
        assert table & memo.table == table
        answers[got] += 1
        subsets.append(table != memo.table)
        return got

    monkeypatch.setattr(PairMemo, "pullable", checked)
    for scene, seed in pull_trial_scenes():
        run_policy(scene, PULL, sim, seed)
    assert answers[True] and answers[False]
    assert any(subsets)


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
@pytest.mark.parametrize("stacking", ["one_per_bowl", "all_on_one_bowl"])
def test_stackable_and_the_memos_gaps_are_the_states_tests(stacking, p_fail):
    # ``stackable`` and ``stack_allowable`` share one kernel, so this checks
    # the memo's values and lips against the state's stacks and their
    # ``stack_top_lip_height``.  The memo keeps one gap per unordered pair of
    # values, which
    # ``grasp_gap`` gives bit for bit in either order for every pair a walk
    # asks both ways: two rims of one kind, or a pair with a utensil.
    sim, cfg = dataclasses.replace(SIM, p_fail=p_fail), PolicyConfig.named("stack", stacking)
    for scene, seed in pull_trial_scenes():
        for step in trial_steps(scene, cfg, sim, seed):
            memo, state = step.memo, step.state
            for a in state.stacks:
                for b in state.stacks:
                    assert policies.stackable(memo, a, b) == stack_allowable(state, a, b, sim)
                    kinds = {bottom_kind(state, a), bottom_kind(state, b)}
                    if a < b and (len(kinds) == 1 or UTENSIL in kinds):
                        gap = grasp_gap(state, a, b, sim)[0]
                        assert gap.hex() == grasp_gap(state, b, a, sim)[0].hex()
                        assert memo.gap(b, a).hex() == gap.hex()


@pytest.mark.parametrize("cfg", [PULL, PolicyConfig.named("stack")])
def test_each_gap_is_measured_once_per_pair_of_values(monkeypatch, cfg):
    # A gap is measured once per unordered pair of stack values in a trial,
    # whichever order a walk asks it in.
    calls = Counter()
    measured = policies.grasp_gap

    def counted(state, a, b, sim):
        calls[frozenset((state.stacks[a], state.stacks[b]))] += 1
        return measured(state, a, b, sim)

    monkeypatch.setattr(policies, "grasp_gap", counted)
    for tier in (Tier.T0_UTENSILS, Tier.T1, Tier.T2):
        for seed in range(20):
            calls.clear()
            run_policy(generate_scene(TierConfig.preset(tier), seed), cfg, SIM, seed)
            assert calls and max(calls.values()) == 1, (tier, seed)


def test_a_pull_trials_memo_is_freed_with_its_steps():
    # The planner holds no reference cycle, so a trial's memo goes as soon
    # as its steps do, with the cyclic collector off: in these trials the
    # planner runs its exact search.
    refs = []
    gc.disable()
    try:
        for tier in (Tier.T1, Tier.T2):
            for seed in range(20):
                scene = generate_scene(TierConfig.preset(tier), seed)
                steps = list(trial_steps(scene, PULL, SIM, seed))
                refs.append(weakref.ref(steps[0].memo))
                del steps
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
def test_apply_builds_every_witness_grasp_once(monkeypatch, p_fail):
    # The policy names a pair grasp's or a pull's two stacks and the memo
    # takes a verdict at contact, so only ``apply`` builds a witness grasp:
    # once for each pull-grasp and each two-stack grasp, and never for a
    # single grasp.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    calls = []
    build = actions._stack_grasp

    def counted(dishes, sa, sb, sim):
        calls.append((sa, sb))
        return build(dishes, sa, sb, sim)

    monkeypatch.setattr(actions, "_stack_grasp", counted)
    kinds = Counter()
    for tier in (Tier.T1, Tier.T2):
        for seed in range(20):
            scene = generate_scene(TierConfig.preset(tier), seed)
            for t, step in enumerate(trial_steps(scene, PULL, sim, seed)):
                pair = step.event["action"] == "pull_grasp" or len(step.event["targets"]) == 2
                assert len(calls) == pair, (tier, seed, t)
                kinds[step.event["action"], pair] += 1
                calls.clear()
    assert kinds["pull_grasp", True] and kinds["grasp", True] and kinds["grasp", False]


def test_each_plan_pass_asks_a_pair_once(monkeypatch):
    # Each table a pass of the planner leaves is a subset of the one
    # before, so a pass carries its walks down them: it asks ``ready`` and
    # ``same_grip`` about an ordered pair of values at most once.  A pass
    # starts with ``_plan`` (the first) or ``_exact_search`` (the second).
    passes = []

    def counting(test):
        def counted(memo, a, b):
            passes[-1][test.__name__, memo.bit(a), memo.bit(b)] += 1
            return test(memo, a, b)

        return counted

    def starting_a_pass(step):
        def started(*args):
            passes.append(Counter())
            return step(*args)

        return started

    for name in ("ready", "same_grip"):
        monkeypatch.setattr(policies, name, counting(getattr(policies, name)))
    for name in ("_plan", "_exact_search"):
        monkeypatch.setattr(policies, name, starting_a_pass(getattr(policies, name)))
    for p_fail in (0.0, 0.2):
        sim = dataclasses.replace(SIM, p_fail=p_fail)
        for tier in (Tier.T1, Tier.T2):
            for seed in range(20):
                run_policy(generate_scene(TierConfig.preset(tier), seed), PULL, sim, seed)
    asked = [count for asks in passes for count in asks.values()]
    assert asked and max(asked) == 1


def test_a_pull_trial_asks_a_pair_once_outside_the_planner(monkeypatch):
    # Above ``PLAN_MAX_STACKS`` stacks the pull policy walks the synced
    # table, and its walks go on from step to step: a stack that leaves
    # starts no walk over, so outside ``_plan`` a failure-free trial asks
    # ``ready`` and ``same_grip`` about an ordered pair of values at most
    # once.  Walks that started over once departed values outnumbered live
    # ones asked a pair up to 2 and 3 times here (48 and 190 repeats).
    asks = Counter()
    planning = []

    def counting(test):
        def counted(memo, a, b):
            if not planning:
                asks[test.__name__, memo.bit(a), memo.bit(b)] += 1
            return test(memo, a, b)

        return counted

    plan = policies._plan

    def planned(memo):
        planning.append(memo)
        try:
            return plan(memo)
        finally:
            planning.clear()

    for name in ("ready", "same_grip"):
        monkeypatch.setattr(policies, name, counting(getattr(policies, name)))
    monkeypatch.setattr(policies, "_plan", planned)
    for seed in (0, 3):
        asks.clear()
        run_policy(dense_scene(72, seed), PULL, SIM, seed)
        assert asks and max(asks.values()) == 1, (seed, sum(asks.values()) - len(asks))


def test_each_pull_is_checked_once(monkeypatch):
    # The policy takes a pull its memo found allowable; only ``apply``
    # checks it, in full.
    calls = []

    def counted(state, mover, anchor, sim):
        calls.append((mover, anchor))
        return check_pull(state, mover, anchor, sim)

    monkeypatch.setattr(actions, "check_pull", counted)
    for seed in (0, 3):
        calls.clear()
        trace = run_policy(dense_scene(72, seed), PULL, SIM, seed)
        pulls = [e for e in trace.events if e["action"] == "pull_grasp"]
        assert pulls and len(calls) == len(pulls)


def test_stack_policy_tests_few_pairs(monkeypatch):
    calls = []
    stackable = policies.stackable

    def counted(memo, lifted, base):
        calls.append((lifted, base))
        return stackable(memo, lifted, base)

    monkeypatch.setattr(policies, "stackable", counted)
    run_policy(dense_scene(72, 0), PolicyConfig.named("stack", "one_per_bowl"), SIM, 0)
    assert 0 < len(calls) < 72 * 72 / 10


def hook_scoped_walks(monkeypatch, admit):
    """Make the walks scoped to a mask (the stack policy's utensil walk)
    ask ``admit`` in place of their own test."""
    nearest = PairMemo.nearest

    def scoped(memo, test, within=math.inf, lifted=-1, base=-1, table=None):
        return nearest(memo, test if lifted == -1 else admit, within, lifted, base, table)

    monkeypatch.setattr(PairMemo, "nearest", scoped)


def test_utensil_walk_tests_only_utensil_piles_onto_bowl_tops(monkeypatch):
    # The stack policy's utensil walk is scoped to utensil piles and bowl
    # tops: it lists no other pair and asks its test about no other order.
    calls = []

    def checked(memo, lifted, base):
        calls.append((lifted, base))
        assert memo.bit(lifted) & memo.utensil_piles, (lifted, base)
        assert memo.bit(base) & memo.bowl_tops, (lifted, base)
        return policies.stackable(memo, lifted, base)

    hook_scoped_walks(monkeypatch, checked)
    for seed in (0, 3):
        calls.clear()
        run_policy(dense_scene(72, seed), PolicyConfig.named("stack", "one_per_bowl"), SIM, seed)
        assert calls


def test_walks_resume_from_step_to_step(monkeypatch):
    # A walk on the synced table goes on from where the last step's walk
    # stopped, so a pair is tested again only once a value arrives and
    # ``sync`` starts the walks afresh.  Each pair is tested at most once in
    # these trials (71 tests in all); walks that start from the head at
    # every step test a pair up to 11 times (226 tests).
    calls = Counter()

    def counted(memo, lifted, base):
        calls[(lifted, base)] += 1
        return policies.stackable(memo, lifted, base)

    hook_scoped_walks(monkeypatch, counted)
    for seed in (0, 3):
        calls.clear()
        run_policy(dense_scene(72, seed), PolicyConfig.named("stack", "one_per_bowl"), SIM, seed)
        assert calls and max(calls.values()) <= 4


def test_sync_hashes_only_the_stacks_an_action_made(monkeypatch):
    # A stack the last action left alone is the same object in the next
    # state and keeps its bit by identity; a new object is hashed once, to
    # find its value's bit or give it one.
    calls = []
    hash_value = Stack.__hash__

    def counted(stack):
        calls.append(stack.bottom)
        return hash_value(stack)

    values = set()
    sync = PairMemo.sync

    def recorded(memo, state):
        values.update((stack.dishes, stack.base) for stack in state.stacks.values())
        sync(memo, state)

    monkeypatch.setattr(Stack, "__hash__", counted)
    monkeypatch.setattr(PairMemo, "sync", recorded)
    for cfg in (PULL, PolicyConfig.named("stack", "one_per_bowl")):
        calls.clear()
        values.clear()
        run_policy(dense_scene(72, 0), cfg, SIM, 0)
        assert calls and len(calls) == len(values)


# sha256 of the run_policy event lines of 72-item seeds 0 and 3, each trial
# seeded with its scene's seed.  The kind is a policy name or the stack
# policy's ``utensil_stacking`` mode.
GOLDEN_DENSE_DIGESTS = {
    ("pull", 0.0): "b9e2be777968ebdd0dcda955921e2f9e69b774a9d9e47f2bef2022e53de9ae89",
    ("pull", 0.2): "9f3f0d35d2001c86482405d20dfb875c91b404dc8742438d1c26a721ae709a80",
    ("stack", 0.0): "8e6320e45d7e2f7d601444fa5864c25908c11430eb47861dbddc7e93230b3e80",
    ("stack", 0.2): "aa38cae363a478ebeca6c980e15165af06e386365dbeb59e53b2012c128fa1e2",
    ("all_on_one_bowl", 0.0): "6a8adccb79e085cdd5c9c02964ad26ade66854604f5cefd298de5d73c1ae993f",
    ("all_on_one_bowl", 0.2): "eee7acc36996f33453695c89f10c684c7f46ac2cd1ec947ad4f656b60ecf88a6",
}


@pytest.mark.parametrize("kind, p_fail", sorted(GOLDEN_DENSE_DIGESTS))
def test_golden_digests_of_dense_trials(kind, p_fail):
    # Pins every step of the memoized policies on large tables, where walks
    # resume, stacks leave and failures bring new values.
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    if kind == "all_on_one_bowl":
        cfg = PolicyConfig.named("stack", kind)
    else:
        cfg = PolicyConfig.named(kind)
    lines = []
    for seed in (0, 3):
        trace = run_policy(dense_scene(72, seed), cfg, sim, seed)
        lines.extend(trace_lines(trace).splitlines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DENSE_DIGESTS[(kind, p_fail)]
