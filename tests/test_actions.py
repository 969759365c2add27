"""Feasibility predicates and the transition function."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declutter import (
    GraspAction,
    InfeasibleAction,
    PairGrasp,
    PullGrasp,
    Stack,
    StackGrasp,
    Tier,
    TierConfig,
    apply,
    check_pull,
    generate_scene,
    grasp_fails,
    grasp_gap,
    grasp_points,
    grasp_pose,
    mog_grasp,
    stack_allowable,
    validate,
)
from declutter.rng import SplitMix64
from declutter.tableware import stack_footprints
from helpers import (
    BOWL,
    CUP,
    SIM,
    UTENSIL,
    build_scene,
    random_small_scene,
    sampled_grasp_gap,
    sampled_sweep_blocked,
    scan_first_contact,
)


class FixedRng:
    """Stub rng returning preset uniform() values (for pinned grasp angles)."""

    def __init__(self, *values):
        self._values = list(values)

    def uniform(self, lo, hi):
        return self._values.pop(0)

    def random(self):
        return 0.5

    def below(self, n):
        return 0


_ORIGIN = (0.0, 0.0)
_ONE_GRASP = GraspAction(0)


@pytest.mark.parametrize("build, message", [
    (lambda: PairGrasp(2, 2), "two distinct stacks"),
    (lambda: PullGrasp(1, 1), "mover and anchor must differ"),
    (lambda: StackGrasp((_ONE_GRASP,), _ONE_GRASP), "onto itself"),
    (lambda: StackGrasp((), _ONE_GRASP), "at least one placement"),
    (lambda: mog_grasp(build_scene([([CUP], 30, 30)]), 0, 0, SIM), "two distinct stacks"),
    (lambda: Stack((), _ORIGIN), "at least one dish"),
    (lambda: GraspAction(0, math.nan), "rim angle"),
    (lambda: GraspAction(0, math.inf), "rim angle"),
    (lambda: GraspAction(0, -0.1), "rim angle"),
    (lambda: GraspAction(0, 2 * math.pi), "rim angle"),
], ids=[
    "pair_grasp_one_stack_twice", "pull_onto_itself", "placement_onto_itself",
    "stack_grasp_no_placement", "mog_grasp_one_stack", "empty_stack",
    "grasp_angle_nan", "grasp_angle_inf", "grasp_angle_negative", "grasp_angle_full_turn",
])
def test_malformed_value_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestGraspPoints:
    # ``grasp_points`` draws a rim grasp's angle; ``grasp_pose`` builds the pose.
    def test_singleton_bowl_rim(self):
        scene = build_scene([([BOWL], 30, 30)])
        g = grasp_points(scene, 0, FixedRng(0.0))
        assert g == GraspAction(0, 0.0)
        assert grasp_pose(scene, g, SIM) == ((38.5, 30.0), 5.0, 0.0)

    def test_utensil_caged_at_center(self):
        scene = build_scene([([(UTENSIL, math.pi / 4)], 20, 20)])
        g = grasp_points(scene, 0, FixedRng())  # no draw
        assert g == GraspAction(0)
        point, z, theta = grasp_pose(scene, g, SIM)
        assert point == (20.0, 20.0)
        assert z == 2.0
        assert theta == pytest.approx(3 * math.pi / 4)

    def test_stack_gripped_on_bottom_rim(self):
        scene = build_scene([([BOWL, CUP], 30, 30)])
        g = grasp_points(scene, 0, FixedRng(math.pi))
        assert g == GraspAction(0, math.pi)
        point, z, _ = grasp_pose(scene, g, SIM)
        assert point[0] == pytest.approx(21.5)  # bowl rim, not cup rim
        assert z == 5.0


class TestMogAllowable:
    def test_touching_cups(self):
        scene = build_scene([([CUP], 30, 30), ([CUP], 39, 30)])
        assert mog_grasp(scene, 0, 1, SIM) is not None
        point, z, _ = mog_grasp(scene, 0, 1, SIM)
        assert point[0] == pytest.approx(34.5)
        assert z == 9.0

    def test_cup_bowl_height_mismatch(self):
        scene = build_scene([([CUP], 30, 30), ([BOWL], 44, 30)])
        assert mog_grasp(scene, 0, 1, SIM) is None

    def test_far_bowls(self):
        scene = build_scene([([BOWL], 10, 30), ([BOWL], 50, 30)])
        # Rim gap 40 - 17 = 23 > 8.5.
        assert mog_grasp(scene, 0, 1, SIM) is None

    def test_symmetry(self):
        scene = build_scene([([CUP], 30, 30), ([CUP], 40, 30)])
        assert (mog_grasp(scene, 0, 1, SIM) is None) == (mog_grasp(scene, 1, 0, SIM) is None)

    def test_equal_grip_stacks_pair(self):
        # Bowl-bottom piles grip at the same rim height; the riding cup
        # stays within the jaw span.
        scene = build_scene([([BOWL, CUP], 20, 30), ([BOWL], 40, 30)])
        assert mog_grasp(scene, 0, 1, SIM) is not None

    def test_jaw_span_blocks_tall_pile_pair(self):
        # A 4-cup pile cannot ride a shared grasp: lip span 6 > jaw 4.5.
        scene = build_scene([([CUP] * 4, 20, 30), ([CUP], 32, 30)])
        assert mog_grasp(scene, 0, 1, SIM) is None

    def test_utensil_pair_uses_axis_distance(self):
        # Parallel side-by-side utensils: axis gap ~2, cageable together.
        scene = build_scene(
            [([(UTENSIL, 0.0)], 30, 30), ([(UTENSIL, 0.0)], 30, 33)]
        )
        assert mog_grasp(scene, 0, 1, SIM) is not None
        # End-to-end utensils: nearest axis points ~13 apart, not cageable.
        scene = build_scene(
            [([(UTENSIL, 0.0)], 20, 30), ([(UTENSIL, 0.0)], 50, 30)]
        )
        gap, _, _ = grasp_gap(scene, 0, 1, SIM)
        assert gap == pytest.approx(13.0)
        assert mog_grasp(scene, 0, 1, SIM) is None


# Stack pairs whose grasp loci do not interpenetrate, so ``grasp_gap`` is
# the distance between the loci.
GAP_CASES = {
    "circle_circle": [([CUP], 20, 20), ([BOWL], 40, 26)],
    "cup_cup": [([CUP], 20, 20), ([CUP], 31, 24)],
    "circle_segment": [([CUP], 20, 20), ([(UTENSIL, 1.0)], 36, 24)],
    "crossing_segments": [([(UTENSIL, 0.3)], 30, 30), ([(UTENSIL, 2.0)], 31, 29)],
    "parallel_segments": [([(UTENSIL, 0.0)], 30, 30), ([(UTENSIL, 0.0)], 33, 33)],
    "touching_segments": [([(UTENSIL, 0.0)], 30, 30), ([(UTENSIL, math.pi / 2)], 38.5, 38.5)],
    "end_to_end_segments": [([(UTENSIL, 0.0)], 30, 30), ([(UTENSIL, 0.0)], 47, 30)],
}


@pytest.mark.parametrize("name", sorted(GAP_CASES))
def test_grasp_gap_matches_sampled_loci(name):
    scene = build_scene(GAP_CASES[name])
    gap = grasp_gap(scene, 0, 1, SIM)[0]
    for a, b in ((0, 1), (1, 0)):
        got, pa, pb = grasp_gap(scene, a, b, SIM)
        assert got == gap
        # The witnesses lie ``gap`` apart; the oracle exceeds the distance
        # by at most half of each locus's sample spacing: 0.067 cm on a bowl
        # rim, 0.035 cm on a cup rim, 0.021 cm on a utensil axis.
        assert math.dist(pa, pb) == pytest.approx(gap, abs=1e-9)
        assert gap - 1e-9 <= sampled_grasp_gap(scene, a, b, SIM) <= gap + 0.11


class TestPull:
    def test_cups_contact_endpoint(self):
        scene = build_scene([([CUP], 10, 10), ([CUP], 40, 10)])
        check = check_pull(scene, 0, 1, SIM)
        assert check.allowable
        assert check.end[0] == pytest.approx(31.0, abs=1e-3)
        assert check.end[1] == pytest.approx(10.0, abs=1e-6)
        # Independent oracle: scanned first contact along the center line.
        t = scan_first_contact(
            stack_footprints(scene, scene.stacks[0], SIM.dish_specs)[0],
            stack_footprints(scene, scene.stacks[1], SIM.dish_specs)[0],
            1.0, 0.0, 30.0,
        )
        assert check.end[0] - 10.0 == pytest.approx(t, abs=1e-3)

    def test_bowls_contact_endpoint(self):
        scene = build_scene([([BOWL], 10, 10), ([BOWL], 10, 40)])
        end = check_pull(scene, 0, 1, SIM).end
        assert end[0] == pytest.approx(10.0, abs=1e-6)
        assert end[1] == pytest.approx(23.0, abs=1e-3)

    def test_blocked_corridor(self):
        scene = build_scene(
            [([CUP], 10, 10), ([CUP], 50, 10), ([BOWL], 30, 12)]
        )
        assert not check_pull(scene, 0, 1, SIM).allowable
        check = check_pull(scene, 0, 1, SIM)
        assert (check.failed, check.blocker) == ("corridor", 2)
        with pytest.raises(InfeasibleAction, match="blocked by stack 2") as err:
            apply(scene, PullGrasp(0, 1), SIM)
        assert err.value.predicate == "pull_allowable"

    def test_cup_bowl_pair_never_pullable(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        assert not check_pull(scene, 0, 1, SIM).allowable
        assert check_pull(scene, 0, 1, SIM).failed == "grip_height"

    def test_check_reports_contact_point_and_grasp(self):
        scene = build_scene([([CUP], 10, 10), ([CUP], 40, 10)])
        check = check_pull(scene, 0, 1, SIM)
        assert check.allowable and check.blocker is None
        assert check.end[0] == pytest.approx(31.0, abs=1e-3)
        assert check.grasp == grasp_for_moved(scene, 0, 1, check.end)

    def test_utensil_mover_keeps_orientation(self):
        theta = 1.1
        scene = build_scene(
            [([(UTENSIL, theta)], 15, 20), ([(UTENSIL, 0.3)], 55, 25)]
        )
        assert check_pull(scene, 0, 1, SIM).allowable
        new_state, event = apply(scene, PullGrasp(0, 1), SIM)
        assert new_state.dishes[0].theta == theta  # caged pull, no rotation
        assert event["trip"]

    def test_pull_heading_follows_its_path(self):
        scene = build_scene([([CUP], 10, 10), ([CUP], 40, 40)])
        check = check_pull(scene, 0, 1, SIM)
        start = scene.stacks[0].base
        _, event = apply(scene, PullGrasp(0, 1), SIM)
        heading = math.atan2(check.end[1] - start[1], check.end[0] - start[0])
        assert event["params"]["pull"]["theta"] == heading == pytest.approx(math.pi / 4)
        with pytest.raises(TypeError):  # the heading is the path's, not a part of its own
            dataclasses.replace(PullGrasp(0, 1), theta=1.0)

    def test_corridor_blocker_reaches_past_its_bottom_dish(self):
        # Cup 0, grown by the 1 cm margin, passes 2 cm clear of cup 2 on its
        # way to cup 1, but the utensil riding on cup 2 reaches 8.55 cm from
        # the base, into the sweep: the stack must be tested by its widest
        # dish.
        scene = build_scene(
            [([CUP], 10, 10), ([CUP], 40, 10), ([CUP, (UTENSIL, math.pi / 2)], 20, 22)]
        )
        check = check_pull(scene, 0, 1, SIM)
        assert (check.failed, check.blocker) == ("corridor", 2)
        margin = SIM.pull_clearance_margin
        mover = stack_footprints(scene, scene.stacks[0], SIM.dish_specs)
        blocker = stack_footprints(scene, scene.stacks[2], SIM.dish_specs)
        start = scene.stacks[0].base
        assert sampled_sweep_blocked(start, check.end, mover, margin, blocker)
        assert not sampled_sweep_blocked(start, check.end, mover, margin, blocker[:1])

    def test_apply_requires_allowable_pull(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        check = check_pull(scene, 0, 1, SIM)
        assert not check.allowable and check.reason == "grip_height"
        with pytest.raises(InfeasibleAction, match="grip_height") as err:
            apply(scene, PullGrasp(0, 1), SIM)
        assert err.value.predicate == "pull_allowable"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_corridor_matches_sampled_reference(seed):
    # Each other stack blocks a pull exactly when the stepping oracle finds
    # the mover, grown by the clearance margin, overlapping it on the way;
    # the check names the first such stack.
    scene = random_small_scene(seed)
    specs = SIM.dish_specs
    for mover, sm in scene.stacks.items():
        fps = stack_footprints(scene, sm, specs)
        for anchor in scene.stacks:
            check = check_pull(scene, mover, anchor, SIM)
            if check.failed not in (None, "corridor"):
                continue
            blockers = [
                sid for sid, stack in scene.stacks.items()
                if sid not in (mover, anchor) and sampled_sweep_blocked(
                    sm.base, check.end, fps, SIM.pull_clearance_margin,
                    stack_footprints(scene, stack, specs),
                )
            ]
            assert check.blocker == (blockers[0] if blockers else None), (mover, anchor)


def admitted_actions(state):
    """Every single grasp, shared grasp and pull-grasp on ``state`` that its
    feasibility test admits.  Stack-grasps are left out: a utensil stacked
    on a smaller stack overhangs it, onto its neighbours or off the table,
    and a failed grasp leaves it there."""
    rng = SplitMix64(0)
    actions = [grasp_points(state, sid, rng) for sid in state.stacks]
    for a in state.stacks:
        for b in state.stacks:
            if a == b:
                continue
            if a < b and mog_grasp(state, a, b, SIM) is not None:
                actions.append(PairGrasp(a, b))
            if check_pull(state, a, b, SIM).allowable:
                actions.append(PullGrasp(a, b))
    return actions


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([Tier.T1, Tier.T2]), st.integers(0, 2**32 - 1), st.data())
def test_admitted_actions_keep_the_scene_valid(tier, seed, data):
    # Whatever apply() accepts, failed or not, leads from a valid scene to
    # a valid one: a failed pull-grasp leaves a stack where the pull ended.
    state = generate_scene(TierConfig.preset(tier), seed, SIM.dish_specs, SIM.workspace)
    while state.stacks:
        successors = [
            apply(state, action, SIM, failed=failed)[0]
            for action in admitted_actions(state)
            for failed in (False, True)
        ]
        for new in successors:
            assert validate(new, SIM.dish_specs) == []
        state = data.draw(st.sampled_from(successors))


def grasp_for_moved(scene, mover, anchor, end):
    """``mog_grasp`` of ``mover`` and ``anchor`` with the mover's base at ``end``."""
    moved = scene.clone()
    moved.stacks[mover] = dataclasses.replace(scene.stacks[mover], base=end)
    grasp = mog_grasp(moved, mover, anchor, SIM)
    assert grasp is not None
    return grasp


class TestStackAllowable:
    def test_cup_onto_bowl(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        assert stack_allowable(scene, 0, 1, SIM)

    def test_bowl_onto_cup(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        assert not stack_allowable(scene, 1, 0, SIM)

    def test_two_cup_piles_make_four(self):
        scene = build_scene([([CUP, CUP], 10, 10), ([CUP, CUP], 40, 10)])
        assert not stack_allowable(scene, 0, 1, SIM)

    def test_utensil_onto_utensil(self):
        scene = build_scene([([(UTENSIL, 0.2)], 10, 10), ([(UTENSIL, 1.0)], 40, 10)])
        assert stack_allowable(scene, 0, 1, SIM)

    def test_utensil_onto_cup_but_not_reverse(self):
        scene = build_scene([([(UTENSIL, 0.2)], 10, 10), ([CUP], 40, 10)])
        assert stack_allowable(scene, 0, 1, SIM)
        assert not stack_allowable(scene, 1, 0, SIM)


class TestApply:
    def test_single_grasp_moves_stack_to_bin(self):
        scene = build_scene([([CUP], 10 + 12 * i, 10) for i in range(6)])
        action = grasp_points(scene, 0, SplitMix64(1))
        new, event = apply(scene, action, SIM)
        assert len(new.stacks) == 5
        assert new.bin == (0,)
        assert event["trip"]
        assert event["action"] == "grasp"
        assert event["moved_to_bin"] == [0]
        assert validate(new, SIM.dish_specs) == []

    def test_pull_grasp_clears_both(self):
        scene = build_scene([([CUP], 10, 10), ([CUP], 40, 10)])
        new, event = apply(scene, PullGrasp(0, 1), SIM)
        assert new.stacks == {}
        assert sorted(new.bin) == [0, 1]
        assert event["trip"]
        assert event["action"] == "pull_grasp"
        assert len(event["moved_to_bin"]) == 2

    def test_stack_grasp_clears_both_in_one_trip(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        lift = grasp_points(scene, 0, SplitMix64(1))
        carry = grasp_points(scene, 1, SplitMix64(2))
        new, event = apply(scene, StackGrasp((lift,), carry), SIM)
        assert new.stacks == {}
        assert sorted(new.bin) == [0, 1]
        assert event["trip"]
        assert event["action"] == "stack_grasp"

    def test_mog_grasp_event_schema(self):
        # A pair grasp names its stacks; ``apply`` carries out the witness.
        scene = build_scene([([CUP], 30, 30), ([CUP], 40, 30)])
        _, event = apply(scene, PairGrasp(1, 0), SIM)
        assert list(event) == ["action", "targets", "moved_to_bin", "trip", "params"]
        assert event["targets"] == [0, 1]
        assert event["trip"] is True
        point, z, theta = mog_grasp(scene, 1, 0, SIM)
        assert event["params"] == {"point": list(point), "z": z, "theta": theta}

    def test_infeasible_mog_raises_with_predicate(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        with pytest.raises(InfeasibleAction) as err:
            apply(scene, PairGrasp(0, 1), SIM)
        assert err.value.predicate == "mog_allowable"

    @pytest.mark.parametrize("a, b", [(7, 1), (0, 7)])
    def test_pair_grasp_off_the_table_raises(self, a, b):
        scene = build_scene([([CUP], 30, 30), ([CUP], 40, 30)])
        with pytest.raises(InfeasibleAction, match="stack 7 not on table") as err:
            apply(scene, PairGrasp(a, b), SIM)
        assert err.value.predicate == "target_on_table"

    def test_infeasible_stack_raises(self):
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        # Bowl 1 onto cup 0: a bowl is wider than a cup.
        bad = StackGrasp(
            (grasp_points(scene, 1, SplitMix64(1)),),
            grasp_points(scene, 0, SplitMix64(2)),
        )
        with pytest.raises(InfeasibleAction) as err:
            apply(scene, bad, SIM)
        assert err.value.predicate == "stack_allowable"

    @pytest.mark.parametrize("stacks, mover, reason", [
        ([([CUP], 10, 10), ([CUP], 40, 10)], 7, "target_on_table"),
        ([([CUP], 20, 20), ([CUP], 20, 20)], 0, "contact"),
    ])
    def test_pull_that_fails_its_pair_tests_raises(self, stacks, mover, reason):
        # A mover off the table, and two bases at one point, which no pull
        # can bring into contact.
        scene = build_scene(stacks)
        assert check_pull(scene, mover, 1, SIM).failed == reason
        with pytest.raises(InfeasibleAction, match=reason) as err:
            apply(scene, PullGrasp(mover, 1), SIM)
        assert err.value.predicate == "pull_allowable"

    @pytest.mark.parametrize("pile, sid", [
        ([CUP], 7),  # stack 7 is off the table
        ([CUP, CUP, CUP, CUP], 0),  # a lip span of 6 cm, over the 4.5 cm jaws
    ])
    def test_placement_that_cannot_be_lifted_raises(self, pile, sid):
        scene = build_scene([(pile, 10, 10), ([BOWL], 40, 10)])
        lift = dataclasses.replace(grasp_points(scene, 0, SplitMix64(1)), stack=sid)
        carry = grasp_points(scene, 1, SplitMix64(2))
        assert not stack_allowable(scene, sid, 1, SIM)
        with pytest.raises(InfeasibleAction, match=f"stack {sid} onto 1") as err:
            apply(scene, StackGrasp((lift,), carry), SIM)
        assert err.value.predicate == "stack_allowable"

    def test_stack_is_not_allowable_onto_itself(self):
        # A ``StackGrasp`` whose lift takes the carried stack cannot be
        # built (see ``test_malformed_value_raises``); apply lifts cup 2
        # onto bowl 1.
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10), ([CUP], 60, 40)])
        assert stack_allowable(scene, 0, 1, SIM)
        assert not stack_allowable(scene, 1, 1, SIM)
        assert not stack_allowable(scene, 0, 0, SIM)
        carry = grasp_points(scene, 1, SplitMix64(2))
        apply(scene, StackGrasp((grasp_points(scene, 2, SplitMix64(1)),), carry), SIM)

    def test_pull_grasp_takes_check_pulls_contact_and_witness(self):
        # The first allowable pull of t1 seed 0: the mover ends at the
        # contact point and the grasp is the witness there.
        scene = generate_scene(TierConfig.preset(Tier.T1), 0, SIM.dish_specs)
        check, mover, anchor = next(
            (check, m, a)
            for m in scene.stacks
            for a in scene.stacks
            if m != a and (check := check_pull(scene, m, a, SIM)).allowable
        )
        _, event = apply(scene, PullGrasp(mover, anchor), SIM)
        assert event["params"]["pull"]["end"] == list(check.end)
        point, z, theta = check.grasp
        assert event["params"]["grasp"] == {"point": list(point), "z": z, "theta": theta}
        assert event["targets"] == sorted((mover, anchor))

    def test_rim_grasps_pass_at_any_angle(self):
        # A rim grasp may take any angle: the event's pose is on the bottom
        # dish's rim there, heading radially, at its grasp height.
        scene = build_scene([([BOWL, CUP], 30, 30)])
        spec = SIM.dish_specs[BOWL]
        for angle in (0.0, 1.0, math.pi / 2, math.pi, 4.0, 2 * math.pi - 1e-12):
            g = grasp_points(scene, 0, FixedRng(angle))
            _, event = apply(scene, g, SIM)
            point = [30 + spec.radius * math.cos(angle), 30 + spec.radius * math.sin(angle)]
            theta = angle % math.pi
            assert event["params"] == {"point": point, "z": spec.grasp_height, "theta": theta}

    @pytest.mark.parametrize("stacks, action", [
        ([([(UTENSIL, 0.2)], 20, 20)], lambda angle: GraspAction(0, angle)),
        ([([(UTENSIL, 0.2)], 10, 10), ([(UTENSIL, 0.2)], 40, 10)],
         lambda angle: StackGrasp((GraspAction(0),), GraspAction(1, angle))),
        ([([(UTENSIL, 0.2)], 10, 10), ([BOWL], 40, 10)],
         lambda angle: StackGrasp((GraspAction(0, angle),), GraspAction(1, 1.0))),
    ], ids=["grasp", "carry", "lift"])
    def test_a_caging_grasp_with_an_angle_raises(self, stacks, action):
        # A utensil is caged across its axis at its base, which no angle
        # changes: so a grasp of it takes none, and each grasp has one form.
        scene = build_scene(stacks)
        apply(scene, action(0.0), SIM)
        with pytest.raises(InfeasibleAction, match="angle 1.0") as err:
            apply(scene, action(1.0), SIM)
        assert err.value.predicate == "caging_angle"

    def test_conservation_of_dish_ids(self):
        scene = build_scene([([CUP], 10, 10), ([CUP], 40, 10), ([BOWL], 60, 40)])
        new, _ = apply(scene, PullGrasp(0, 1), SIM)
        on_table = [d for s in new.stacks.values() for d in s.dishes]
        assert sorted(on_table + list(new.bin)) == [0, 1, 2]


class TestFailureModel:
    def _sim_with_fail(self, p):
        import dataclasses

        return dataclasses.replace(SIM, p_fail=p)

    def test_failed_single_grasp_leaves_table_unchanged(self):
        sim = self._sim_with_fail(1.0)
        scene = build_scene([([CUP], 10, 10)])
        action = grasp_points(scene, 0, SplitMix64(1))
        new, event = apply(scene, action, sim, failed=True)
        assert len(new.stacks) == 1
        assert new.bin == ()
        assert not event["trip"]
        assert event["params"]["failed"] is True

    def test_failed_mog_keeps_taller_stack(self):
        sim = self._sim_with_fail(1.0)
        scene = build_scene([([BOWL, CUP], 20, 30), ([BOWL], 40, 30)])
        new, event = apply(scene, PairGrasp(0, 1), sim, failed=True)
        # The taller pile (bowl 0 + cup 2, lip 7) wins the jaws; bowl 1 stays.
        assert sorted(new.bin) == [0, 2]
        assert set(new.stacks) == {1}
        assert event["trip"]
        assert event["params"]["abandoned"] == 1

    def test_failed_stack_grasp_leaves_merged_pile(self):
        sim = self._sim_with_fail(1.0)
        scene = build_scene([([CUP], 10, 10), ([BOWL], 40, 10)])
        lift = grasp_points(scene, 0, SplitMix64(1))
        carry = grasp_points(scene, 1, SplitMix64(2))
        new, event = apply(scene, StackGrasp((lift,), carry), sim, failed=True)
        assert set(new.stacks) == {1}
        assert new.stacks[1].dishes == (1, 0)  # merged, still on table
        assert not event["trip"]
        assert event["params"]["failed"] is True
        assert validate(new, sim.dish_specs) == []

    def test_zero_p_fail_never_draws(self):
        rng = SplitMix64(123)
        assert not grasp_fails(SIM, rng)
        assert rng.next_u64() == SplitMix64(123).next_u64()

    def test_apply_draws_nothing(self):
        # The failure outcome is an argument: an rng passed where it used
        # to go is refused, not drawn from.
        sim = self._sim_with_fail(0.5)
        scene = build_scene([([CUP], 10, 10)])
        action = grasp_points(scene, 0, SplitMix64(1))
        rng = SplitMix64(123)
        with pytest.raises(TypeError):
            apply(scene, action, sim, rng)
        _, event = apply(scene, action, sim)
        assert event["trip"]
        assert rng.next_u64() == SplitMix64(123).next_u64()
