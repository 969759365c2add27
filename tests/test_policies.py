"""Policy behavior: worked examples and whole-run properties."""

import dataclasses
import hashlib
import json
import math

import pytest

from declutter import (
    GraspAction,
    PairGrasp,
    PolicyConfig,
    PolicyKind,
    StackGrasp,
    Sweep,
    Tier,
    TierConfig,
    UtensilStacking,
    generate_scene,
    grasp_pose,
    next_action,
    policies,
    rim_point,
    run_policy,
    trial_steps,
    validate,
)
from declutter.harness import trace_lines
from declutter.rng import SplitMix64
from helpers import BOWL, CUP, SIM, UTENSIL, build_scene, report_of
from oracle import min_trips

RANDOM = PolicyConfig.named("random")
PULL = PolicyConfig.named("pull")
STACK = PolicyConfig.named("stack")

# sha256 of the event lines of run_policy at p_fail 0.2 on seeds 0-19 of a
# tier, each trial seeded with its scene's seed.  A key is tier_policy, then
# the stack policy's ``utensil_stacking`` mode when it is not the default.
GOLDEN_FAILURE_DIGESTS = {
    "t1_random": "bbe7f8fee4599be1ad9065b767a30718ac1206307b8340ed8d4d0409b3d04ec6",
    "t1_pull": "6374293cd0088537f044e16a3acf82b87c1cf5b8d8b5ea12c7911c31155a4d10",
    "t1_stack": "2e2a3b15ec2f2da639d3be3c61abdca0f0e8cb8cffa9c840c8b493211fb4663f",
    "t2_random": "56630d46005d47cc08bc84769a478cee0f7e716d80e6c09b5c060362aee5fe6d",
    "t2_pull": "288f923a5cd5dfc8a52bc2095cce1d7f48a122c42f4f5a69952b0917c67e3497",
    "t2_stack": "33f6a4ce1e88f909d08581995a5e835a8f664af5ffae308949afcdd22b1be729",
    "t1_stack_all_on_one_bowl": "7b603fac6afd57c39646118ff8b1d713a91cbc79fe645089a7cdd2c077af57da",
    "t2_stack_all_on_one_bowl": "b99f7a056db61489633b7088b5f92fd627aa016a6b04991bc7d0b24e115fedfb",
}


class TestRandomPolicy:
    def test_six_cups_six_trips(self):
        scene = build_scene([([CUP], 10 + 11 * i, 10) for i in range(6)])
        trace = run_policy(scene, RANDOM, SIM, 1)
        assert trace.counts().trips == 6
        assert report_of(trace).opt == 1.0

    def test_selected_stack_travels_whole(self):
        scene = build_scene([([BOWL, CUP, CUP], 30, 30)])
        step = next(trial_steps(scene, RANDOM, SIM, 0))
        assert isinstance(step.action, GraspAction)
        assert len(step.event["moved_to_bin"]) == 3

    def test_empty_table_is_done(self):
        scene = build_scene([])
        assert next_action(scene, SplitMix64(0), SIM, RANDOM, None) is None
        assert list(trial_steps(scene, RANDOM, SIM, 0)) == []

    def test_dish_uniform_selection_weights_stacks(self):
        # A 3-dish stack should be chosen ~3x as often as a singleton.
        scene = build_scene([([BOWL, CUP, CUP], 20, 20), ([BOWL], 55, 40)])
        hits = 0
        n = 2000
        for seed in range(n):
            action = next_action(scene, SplitMix64(seed), SIM, RANDOM, None)
            if action.stack == 0:
                hits += 1
        assert 0.70 < hits / n < 0.80


class TestPullPolicy:
    def test_ready_mog_taken_first(self):
        scene = build_scene(
            [([CUP], 30, 30), ([CUP], 39.2, 30), ([BOWL], 65, 50)]
        )
        action = next(trial_steps(scene, PULL, SIM, 0)).action
        assert action == PairGrasp(0, 1)

    def test_four_far_bowls_two_pull_trips(self):
        scene = build_scene(
            [([BOWL], 12, 12), ([BOWL], 66, 12), ([BOWL], 12, 49), ([BOWL], 66, 49)]
        )
        trace = run_policy(scene, PULL, SIM, 3)
        assert trace.counts().trips == 2
        assert all(e["action"] == "pull_grasp" for e in trace.events)
        assert report_of(trace).opt == 2.0

    def test_last_utensil_single_grasped(self):
        scene = build_scene([([(UTENSIL, 0.4)], 30, 30)])
        action = next(trial_steps(scene, PULL, SIM, 0)).action
        assert isinstance(action, GraspAction)
        assert action.stack == 0

    def test_t1_scene_six_trips(self):
        # A representative unblocked seed; blocked scenes are analyzed in
        # the acceptance suite.
        scene = generate_scene(TierConfig.preset(Tier.T1), 0)
        trace = run_policy(scene, PULL, SIM, 0)
        assert trace.counts().trips == 6
        assert report_of(trace).opt == 2.0

    def test_bins_the_blocker_of_two_pairs_first(self):
        # Bowl 4 meets the pull corridors of cups 0-1 and of utensils 2-3 in
        # both directions, and nothing pairs with a bowl.  Nearest-first
        # would grasp 0, 1, 2, 3 and 4 one by one; binning the bowl first
        # frees both pulls.
        scene = build_scene(
            [
                ([CUP], 10, 15),
                ([CUP], 46, 15),
                ([(UTENSIL, 0.0)], 12, 38),
                ([(UTENSIL, 0.0)], 50, 38),
                ([BOWL], 28, 28),
            ]
        )
        trace = run_policy(scene, PULL, SIM, 0)
        assert [(e["action"], e["targets"]) for e in trace.events] == [
            ("grasp", [4]),
            ("pull_grasp", [2, 3]),
            ("pull_grasp", [0, 1]),
        ]
        assert trace.counts().trips == min_trips(scene, SIM, pull_only=True) == 3

    def test_exact_search_checks_few_pulls(self, monkeypatch):
        # The search ranks pulls by gap alone, asks about a pull only once
        # it reaches it with a table that pull could improve, and then tests
        # only that table's stacks against the corridor, up to the first
        # that meets it.  Checking every pull up front took about 100 pulls
        # per search here; testing every stack on the table against each
        # pull it asked about took 1,772 corridor tests.
        # A search runs from ``_exact_search`` to the end of the plan's
        # second pass.
        searches: list[set] = []  # the pulls each search asked about
        tests = []  # ``Sweep.meets`` calls made inside a search
        searching = []
        search, plan = policies._exact_search, policies._plan
        corridor, meets = policies.PairMemo._corridor, Sweep.meets

        def counted_search(*args):
            searches.append(set())
            searching.append(True)
            return search(*args)

        def counted_plan(memo):
            try:
                return plan(memo)
            finally:
                searching.clear()

        def counted_corridor(memo, mover, anchor, table):
            if searching:
                searches[-1].add((mover, anchor))
            return corridor(memo, mover, anchor, table)

        def counted_meets(sweep, footprints):
            if searching:
                tests.append(footprints)
            return meets(sweep, footprints)

        monkeypatch.setattr(policies, "_exact_search", counted_search)
        monkeypatch.setattr(policies, "_plan", counted_plan)
        monkeypatch.setattr(policies.PairMemo, "_corridor", counted_corridor)
        monkeypatch.setattr(Sweep, "meets", counted_meets)
        for tier in (Tier.T1, Tier.T2):
            for seed in range(20):
                run_policy(generate_scene(TierConfig.preset(tier), seed), PULL, SIM, seed)
        assert searches and sum(map(len, searches)) < 30 * len(searches)
        assert len(tests) < 1000, len(tests)

    def test_never_emits_infeasible_composites(self):
        for seed in range(30):
            scene = generate_scene(TierConfig.preset(Tier.T2), seed)
            trace = run_policy(scene, PULL, SIM, seed)  # apply re-checks
            assert trace.final_state.stacks == {}


class TestStackPolicy:
    def test_t0_cups_three_pair_trips(self):
        scene = generate_scene(TierConfig.preset(Tier.T0_CUPS), 5)
        trace = run_policy(scene, STACK, SIM, 5)
        assert trace.counts().trips == 3
        assert report_of(trace).opt == 2.0
        assert all(e["action"] == "stack_grasp" for e in trace.events)

    def test_t1_one_per_bowl_exact(self):
        scene = generate_scene(TierConfig.preset(Tier.T1), 9)
        trace = run_policy(scene, STACK, SIM, 9)
        assert trace.counts().trips == 6
        assert report_of(trace).opt == 2.0
        # First four trips carry a utensil on a bowl.
        for event in trace.events[:4]:
            assert event["action"] == "stack_grasp"
            assert len(event["moved_to_bin"]) == 2

    def test_two_bowls_one_cup(self):
        scene = build_scene([([BOWL], 15, 15), ([BOWL], 60, 40), ([CUP], 40, 20)])
        trace = run_policy(scene, STACK, SIM, 2)
        assert trace.counts().trips == 2
        assert report_of(trace).opt == 1.5

    def test_all_on_one_bowl_t1(self):
        cfg = PolicyConfig(kind=PolicyKind.STACK,
                           utensil_stacking=UtensilStacking.ALL_ON_ONE_BOWL)
        scene = generate_scene(TierConfig.preset(Tier.T1), 4)
        trace = run_policy(scene, cfg, SIM, 4)
        assert trace.counts().trips == 5
        assert report_of(trace).opt == 2.4
        first = trace.events[0]
        assert first["action"] == "stack_grasp"
        assert len(first["params"]["placements"]) == 4
        assert len(first["moved_to_bin"]) == 5

    def test_utensils_only_tier_pairs(self):
        scene = generate_scene(TierConfig.preset(Tier.T0_UTENSILS), 8)
        trace = run_policy(scene, STACK, SIM, 8)
        assert trace.counts().trips == 3
        assert report_of(trace).opt == 2.0

    def test_never_creates_tall_cup_bowl_pile(self):
        for seed in range(30):
            scene = generate_scene(TierConfig.preset(Tier.T2), seed)
            for step in trial_steps(scene, STACK, SIM, seed):
                dishes = step.after.dishes
                for stack in step.after.stacks.values():
                    assert sum(dishes[d].kind is not UTENSIL for d in stack.dishes) < 4


class TestRunPolicy:
    @pytest.mark.parametrize("policy", [RANDOM, PULL, STACK])
    def test_terminates_and_clears(self, policy):
        scene = generate_scene(TierConfig.preset(Tier.T2), 17)
        trace = run_policy(scene, policy, SIM, 17)
        assert trace.final_state.stacks == {}
        assert trace.counts().objects_cleared == 12
        assert trace.counts().trips <= 12
        assert validate(trace.final_state, SIM.dish_specs) == []

    @pytest.mark.parametrize("policy", [RANDOM, PULL, STACK])
    def test_steps_are_the_trace(self, policy, monkeypatch):
        # Each step starts from the table the last one left; its event is
        # the dict ``apply`` returned and the trace's, and its failure the
        # one the event records.
        apply, returned = policies.apply, []

        def recording(*args, **kwargs):
            after, event = apply(*args, **kwargs)
            returned.append(event)
            return after, event

        monkeypatch.setattr(policies, "apply", recording)
        sim = dataclasses.replace(SIM, p_fail=0.2)
        failures = 0
        for seed in range(6):
            scene = generate_scene(TierConfig.preset(Tier.T2), seed)
            returned.clear()
            steps = list(trial_steps(scene, policy, sim, seed))
            trace = run_policy(scene, policy, sim, seed)
            assert [s.event for s in steps] == trace.events
            assert steps[-1].after.stacks == trace.final_state.stacks == {}
            assert steps[0].state.stacks == scene.stacks and steps[0].state is not scene
            for t, step in enumerate(steps):
                assert step.event is returned[t]
                assert t == 0 or step.state is steps[t - 1].after
                assert step.failed == bool(step.event["params"].get("failed"))
                assert (step.memo is None) == (policy.kind is PolicyKind.RANDOM)
                failures += step.failed
        assert failures

    @pytest.mark.parametrize("p_fail", [0.0, 0.2])
    @pytest.mark.parametrize("named", [
        ("random",), ("pull",), ("stack",), ("stack", "all_on_one_bowl"),
    ], ids="_".join)
    def test_every_event_is_its_trace_line(self, named, p_fail):
        # An event is one JSON object: it holds only lists, numbers,
        # strings and objects, so a JSON round trip returns it.
        sim = dataclasses.replace(SIM, p_fail=p_fail)
        policy = PolicyConfig.named(*named)
        keys = ["action", "targets", "moved_to_bin", "trip", "params"]
        for tier in (Tier.T1, Tier.T2):
            for seed in range(20):
                scene = generate_scene(TierConfig.preset(tier), seed)
                for step in trial_steps(scene, policy, sim, seed):
                    assert list(step.event) == keys
                    assert json.loads(json.dumps(step.event)) == step.event

    @pytest.mark.parametrize("p_fail", [0.0, 0.2])
    @pytest.mark.parametrize("named", [
        ("random",), ("pull",), ("stack",), ("stack", "all_on_one_bowl"),
    ], ids="_".join)
    def test_every_grasp_event_is_its_stack_and_angle(self, named, p_fail):
        # A grasp event's pose is ``grasp_pose`` of its action on the table
        # it acts on, a stack-grasp's final grasp's on the merged pile.  A
        # rim grasp's angle is read back from the event and that table: it
        # is the event's theta, or theta + pi when the rim point at theta is
        # not the event's point.
        sim = dataclasses.replace(SIM, p_fail=p_fail)
        policy = PolicyConfig.named(*named)
        rims = 0
        for tier in (Tier.T1, Tier.T2):
            for seed in range(20):
                scene = generate_scene(TierConfig.preset(tier), seed)
                for step in trial_steps(scene, policy, sim, seed):
                    grasp, table, pose = step.action, step.state, step.event["params"]
                    if isinstance(grasp, StackGrasp):
                        for lift in grasp.lifts:
                            table = table.merged(lift.stack, grasp.grasp.stack)
                        grasp, pose = grasp.grasp, pose["grasp"]
                    elif not isinstance(grasp, GraspAction):
                        continue
                    point, z, theta = grasp_pose(table, grasp, sim)
                    assert [pose["point"], pose["z"], pose["theta"]] == [list(point), z, theta]
                    stack = table.stacks[grasp.stack]
                    kind = table.dishes[stack.bottom].kind
                    if kind is UTENSIL:
                        assert grasp.angle == 0.0
                        continue
                    theta = pose["theta"]
                    rim, _ = rim_point(stack.base, sim.dish_specs[kind].radius, theta)
                    angle = theta if list(rim) == pose["point"] else theta + math.pi
                    assert angle == grasp.angle
                    rims += 1
        assert rims

    @pytest.mark.parametrize("policy", [RANDOM, PULL, STACK])
    def test_action_cap_stops_a_trial_that_never_clears(self, policy):
        # Every grasp fails, so the last stack on the table never leaves.
        sim = dataclasses.replace(SIM, p_fail=1.0)
        scene = generate_scene(TierConfig.preset(Tier.T1), 0)
        with pytest.raises(RuntimeError, match=f"policy {policy.kind.value} exceeded 700 actions"):
            run_policy(scene, policy, sim, 0)

    def test_random_trial_builds_no_memo(self, monkeypatch):
        built = []

        class CountedMemo(policies.PairMemo):
            def __init__(self, sim):
                built.append(sim)
                super().__init__(sim)

        monkeypatch.setattr(policies, "PairMemo", CountedMemo)
        scene = generate_scene(TierConfig.preset(Tier.T2), 17)
        run_policy(scene, RANDOM, SIM, 17)
        assert built == []
        run_policy(scene, PULL, SIM, 17)
        assert len(built) == 1

    @pytest.mark.parametrize("policy, name", [
        (RANDOM, "random_policy"), (PULL, "pull_policy"), (STACK, "stack_policy"),
    ], ids=["random", "pull", "stack"])
    def test_next_action_looks_the_policy_up_by_module_name(self, monkeypatch, policy, name):
        # ``next_action`` promises that rebinding a policy's module name takes
        # effect (the benchmark's tracer relies on it): every action of a
        # trial comes through the rebound name, and no other policy is asked.
        calls = []
        for other in ("random_policy", "pull_policy", "stack_policy"):
            original = getattr(policies, other)

            def counted(*args, _name=other, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(policies, other, counted)
        scene = generate_scene(TierConfig.preset(Tier.T2), 17)
        trace = run_policy(scene, policy, SIM, 17)
        assert calls == [name] * len(trace.events)

    def test_deterministic_given_seed(self):
        scene = generate_scene(TierConfig.preset(Tier.T2), 23)
        t1 = run_policy(scene, PULL, SIM, 99)
        t2 = run_policy(scene, PULL, SIM, 99)
        assert t1.events == t2.events

    def test_monotonic_progress_without_failures(self):
        scene = generate_scene(TierConfig.preset(Tier.T1), 31)
        for step in trial_steps(scene, STACK, SIM, 31):
            assert len(step.after.bin) > len(step.state.bin)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FAILURE_DIGESTS))
    def test_golden_digests_under_failures(self, name):
        # Pins where the failure draw sits in each trial's stream: after
        # the policy picks an action, before the action runs.
        tier, policy, *stacking = name.split("_", 2)
        sim = dataclasses.replace(SIM, p_fail=0.2)
        lines = []
        for seed in range(20):
            scene = generate_scene(TierConfig.preset(Tier(tier)), seed)
            trace = run_policy(scene, PolicyConfig.named(policy, *stacking), sim, seed)
            assert validate(trace.final_state, sim.dish_specs) == []
            lines.extend(trace_lines(trace).splitlines())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == GOLDEN_FAILURE_DIGESTS[name]

    def test_consolidation_never_hurts(self):
        # Random moves whole stacks too, so OpT(stack/pull) >= OpT(random).
        for seed in range(20):
            scene = generate_scene(TierConfig.preset(Tier.T2), seed)
            base = report_of(run_policy(scene, RANDOM, SIM, seed)).opt
            for policy in (PULL, STACK):
                assert report_of(run_policy(scene, policy, SIM, seed)).opt >= base

