"""Acceptance gate: the full criteria list, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Expensive corpora are built once per module and shared.
"""

import dataclasses
import time
from collections import Counter

import pytest

from declutter import (
    PairGrasp,
    PolicyConfig,
    PullGrasp,
    StackGrasp,
    TimeModel,
    Tier,
    TierConfig,
    check_pull,
    generate_scene,
    mog_grasp,
    run_policy,
    scene_to_json,
    stack_allowable,
    trial_steps,
    validate,
)
from declutter.config import default_sim_config
from declutter.policies import PolicyKind
from declutter.rng import SplitMix64
from declutter.tableware import DishKind, stack_top_lip_height
from declutter.timefit import REFERENCE_ROWS, fit_time_model, simulated_counts
from helpers import BOWL, CUP, build_scene, random_small_scene, report_of
from oracle import min_trips

SIM = default_sim_config()
POLICIES = {name: PolicyConfig.named(name) for name in ("random", "pull", "stack")}
TIERS = list(Tier)
CORPUS_SEEDS = 200

REFERENCE_PULL_OPT = {t: o for t, p, _, o, _ in REFERENCE_ROWS if p == "pull"}
REFERENCE_TIMES = {(t, p): s for t, p, s, _, _ in REFERENCE_ROWS}

# p_fail calibrated so the pull policy suffers about two failures per 18
# objects cleared, matching the reference benchmark's failure counts.
CALIBRATED_P_FAIL = 0.2


def _announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def corpus():
    """Per-seed trial stats for every (tier, policy) over CORPUS_SEEDS seeds."""
    stats = {}
    for tier in TIERS:
        cfg = TierConfig.preset(tier)
        scenes = [
            generate_scene(cfg, seed, SIM.dish_specs, SIM.workspace)
            for seed in range(CORPUS_SEEDS)
        ]
        for name, policy in POLICIES.items():
            rows = []
            for seed, scene in enumerate(scenes):
                trace = run_policy(scene, policy, SIM, seed)
                report = report_of(trace)
                rows.append(
                    {
                        "seed": seed,
                        "trips": report.trips,
                        "objects": report.objects_cleared,
                        "opt": report.opt,
                        "counts": trace.counts()[:4],
                    }
                )
            stats[(tier.value, name)] = rows
    return stats


def _pooled_opt(rows):
    return sum(r["objects"] for r in rows) / sum(r["trips"] for r in rows)


# ---------------------------------------------------------------------------
# Criterion 1: tier-0 stack policy, exact pair trips, under one second.
# ---------------------------------------------------------------------------


def test_criterion_1_t0_stack_exact_and_fast():
    started = time.perf_counter()
    stack = POLICIES["stack"]
    for tier in (Tier.T0_CUPS, Tier.T0_BOWLS):
        cfg = TierConfig.preset(tier)
        for seed in range(100):
            scene = generate_scene(cfg, seed, SIM.dish_specs, SIM.workspace)
            report = report_of(run_policy(scene, stack, SIM, seed))
            assert report.trips == 3, (tier, seed, report.trips)
            assert report.opt == 2.0, (tier, seed)
    utensil_opts = []
    cfg = TierConfig.preset(Tier.T0_UTENSILS)
    for seed in range(100):
        scene = generate_scene(cfg, seed, SIM.dish_specs, SIM.workspace)
        utensil_opts.append(report_of(run_policy(scene, stack, SIM, seed)).opt)
        assert utensil_opts[-1] >= 1.8, (seed, utensil_opts[-1])
    elapsed = time.perf_counter() - started
    _announce(
        1,
        True,
        f"t0 cups/bowls stack: trips=3 opt=2.0 on 100 seeds each; "
        f"utensils opt>=1.8 (min {min(utensil_opts):.2f}); runtime {elapsed:.2f}s",
    )
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.3f}s exceeds 1s"


# ---------------------------------------------------------------------------
# Criterion 2: tier-1 stack policy, exact OpT 2.0 per seed.
# ---------------------------------------------------------------------------


def test_criterion_2_t1_stack_exact(corpus):
    rows = corpus[("t1", "stack")]
    bad = [r["seed"] for r in rows if r["opt"] != 2.0]
    _announce(2, not bad, f"t1 stack opt=2.0 on all {len(rows)} seeds")
    assert not bad, f"t1 stack OpT != 2.0 on seeds {bad[:10]}"


# ---------------------------------------------------------------------------
# Criterion 3: random baseline, exact on unstacked tiers, banded on t2.
# ---------------------------------------------------------------------------


def test_criterion_3_random_baseline(corpus):
    for tier in ("t0_cups", "t0_bowls", "t0_utensils", "t1"):
        rows = corpus[(tier, "random")]
        bad = [r["seed"] for r in rows if r["opt"] != 1.0]
        assert not bad, f"{tier} random OpT != 1.0 on seeds {bad[:10]}"
    pooled = _pooled_opt(corpus[("t2", "random")])
    _announce(
        3,
        1.2 <= pooled <= 1.6,
        f"random opt=1.0 on unstacked tiers; t2 pooled opt {pooled:.3f} in [1.2, 1.6] "
        f"(reference 1.4)",
    )
    assert 1.2 <= pooled <= 1.6, pooled


# ---------------------------------------------------------------------------
# Criterion 4: pull policy, failure-free exactness and calibrated failures.
# ---------------------------------------------------------------------------


def test_criterion_4_pull_t0_exact(corpus):
    for tier in ("t0_cups", "t0_bowls", "t0_utensils"):
        rows = corpus[(tier, "pull")]
        bad = [r["seed"] for r in rows if r["opt"] != 2.0]
        assert not bad, f"{tier} pull OpT != 2.0 on seeds {bad[:10]}"
    _announce("4a", True, "pull opt=2.0 on every even-count single-kind t0 seed")


def test_criterion_4_pull_t1_exact(corpus):
    """Per-seed reading of the tier-1 clause: failure-free, the pull policy
    reaches OpT 2.0 on every tier-1 seed where its primitives allow it.

    On a few seeds no order of those primitives (shared grasp, pull-grasp,
    single grasp) clears the table in half as many trips as objects: the
    last utensil pair and a cup or bowl pair block each other's pull
    corridors in both directions.  A seed below 2.0 is excused only when a
    brute force over every order, restricted to those primitives, proves
    2.0 unreachable, and the policy must then take the fewest trips that
    brute force finds.
    """
    rows = corpus[("t1", "pull")]
    cfg = TierConfig.preset(Tier.T1)
    dist = Counter(round(r["opt"], 3) for r in rows)
    upper_bound_ok = all(r["opt"] <= 2.0 for r in rows)
    excused, bad = [], []
    for r in rows:
        if r["opt"] == 2.0:
            continue
        scene = generate_scene(cfg, r["seed"], SIM.dish_specs, SIM.workspace)
        fewest = min_trips(scene, SIM, pull_only=True)
        if 2 * fewest > r["objects"] and r["trips"] == fewest:
            excused.append(r["seed"])
        else:
            bad.append((r["seed"], r["trips"], fewest, 2 * fewest == r["objects"]))
    _announce(
        "4b",
        upper_bound_ok and not bad,
        f"t1 pull opt distribution over {len(rows)} seeds: {dict(dist)}; "
        f"{len(excused)} seeds excused, brute force proves OpT 2.0 unreachable "
        f"there and the policy takes its fewest trips: {excused}",
    )
    assert upper_bound_ok, "failure-free t1 pull OpT above 2.0"
    reachable = sum(1 for *_, at_two in bad if at_two)
    assert not bad, (
        f"t1 pull takes more trips than brute force over the pull primitives on "
        f"{len(bad)}/{len(rows)} seeds, {reachable} of them where OpT 2.0 is reachable; "
        f"(seed, trips, fewest, OpT 2.0 reachable): {bad[:8]}"
    )


def test_criterion_4_pull_calibrated_failures():
    import dataclasses

    sim = dataclasses.replace(SIM, p_fail=CALIBRATED_P_FAIL)
    seeds = 1000
    details = []
    ok = True
    for tier in TIERS:
        cfg = TierConfig.preset(tier)
        objects = trips = failures = 0
        for seed in range(seeds):
            scene = generate_scene(cfg, seed, sim.dish_specs, sim.workspace)
            counts = run_policy(scene, POLICIES["pull"], sim, seed).counts()
            objects += counts.objects_cleared
            trips += counts.trips
            failures += counts.failures
        pooled = objects / trips
        reference = REFERENCE_PULL_OPT[tier.value]
        per18 = failures / (seeds * cfg.total / 18.0)
        within = abs(pooled - reference) <= 0.3
        ok = ok and within
        details.append(f"{tier.value}:{pooled:.2f}/{reference}")
        assert within, (
            f"{tier.value}: pooled pull OpT {pooled:.3f} not within 0.3 of "
            f"{reference} at p_fail={CALIBRATED_P_FAIL}"
        )
        assert 1.0 <= per18 <= 3.0, (
            f"{tier.value}: {per18:.2f} failures per 18 objects; calibration target ~2"
        )
    _announce(
        "4c",
        ok,
        f"p_fail={CALIBRATED_P_FAIL} pull pooled-vs-reference OpT " + " ".join(details),
    )


# ---------------------------------------------------------------------------
# Criterion 5: OpT ratios on every tier.
# ---------------------------------------------------------------------------


def test_criterion_5_opt_ratios(corpus):
    details = []
    ok = True
    for tier in TIERS:
        base = _pooled_opt(corpus[(tier.value, "random")])
        stack_ratio = _pooled_opt(corpus[(tier.value, "stack")]) / base
        pull_ratio = _pooled_opt(corpus[(tier.value, "pull")]) / base
        details.append(f"{tier.value}: stack {stack_ratio:.2f} pull {pull_ratio:.2f}")
        ok = ok and stack_ratio >= 1.8 and pull_ratio >= 1.6
        assert stack_ratio >= 1.8, f"{tier.value} stack ratio {stack_ratio:.3f} < 1.8"
        assert pull_ratio >= 1.6, f"{tier.value} pull ratio {pull_ratio:.3f} < 1.6"
    _announce(5, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 6: time-model fit quality and modeled ordering.
# ---------------------------------------------------------------------------


def test_criterion_6_time_model_fit():
    counts = simulated_counts(SIM)
    result = fit_time_model(counts)
    assert result.relative_rms_residual <= 0.20, result.relative_rms_residual
    predicted = {(r["tier"], r["policy"]): r["predicted"] for r in result.rows}
    for tier in REFERENCE_PULL_OPT:
        # The reference table shows pull fastest on every tier.
        assert predicted[(tier, "pull")] <= predicted[(tier, "stack")] + 1e-9, tier
        assert predicted[(tier, "pull")] <= predicted[(tier, "random")] + 1e-9, tier
    _announce(
        6,
        True,
        f"nnls relative rms residual {result.relative_rms_residual:.3f} <= 0.20; "
        "modeled pull fastest on every tier",
    )


# ---------------------------------------------------------------------------
# Criterion 7: bin-delay study widens the gaps strictly.
# ---------------------------------------------------------------------------


def test_criterion_7_bin_delay_gaps(corpus):
    base = SIM.time_model

    def mean_time(tier, policy, delay):
        tm = TimeModel(base.grasp_s, base.pull_s, base.stack_s, base.travel_s, delay)
        rows = corpus[(tier, policy)]
        total = 0.0
        for r in rows:
            grasps, pulls, stacks, trips = r["counts"]
            total += (
                grasps * tm.grasp_s
                + pulls * tm.pull_s
                + stacks * tm.stack_s
                + trips * 2.0 * (tm.travel_s + tm.bin_delay_s)
            )
        return total / len(rows)

    for tier in TIERS:
        for policy in ("stack", "pull"):
            gaps = [
                mean_time(tier.value, "random", d) - mean_time(tier.value, policy, d)
                for d in (0.0, 3.0, 5.0)
            ]
            assert gaps[0] < gaps[1] < gaps[2], (tier.value, policy, gaps)
    _announce(7, True, "random-minus-policy time gaps strictly grow over delays 0/3/5s")


# ---------------------------------------------------------------------------
# Criterion 8: property suites, >= 1000 randomized cases each.
# ---------------------------------------------------------------------------


def test_criterion_8_property_suites():
    n_cases = 1000
    policy_cycle = ("random", "pull", "stack")
    conservation = stability = termination = tall_checks = 0
    mog_sym = 0
    pull_implies = 0

    for case in range(n_cases):
        tier = TIERS[case % len(TIERS)]
        policy = POLICIES[policy_cycle[case % 3]]
        scene = generate_scene(
            TierConfig.preset(tier), 10_000 + case, SIM.dish_specs, SIM.workspace
        )
        all_ids = set(scene.dishes)

        # mog symmetry on the fresh scene (suite d).
        ids = sorted(scene.stacks)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                shared = mog_grasp(scene, a, b, SIM), mog_grasp(scene, b, a, SIM)
                assert (shared[0] is None) == (shared[1] is None)
        mog_sym += 1

        # pull implies post-pull mog (suite e), first allowable pair only.
        found = False
        for a in ids:
            if found:
                break
            for b in ids:
                if a != b and check_pull(scene, a, b, SIM).allowable:
                    end = check_pull(scene, a, b, SIM).end
                    moved = scene.clone()
                    moved.stacks[a] = dataclasses.replace(scene.stacks[a], base=end)
                    assert mog_grasp(moved, a, b, SIM) is not None, (tier, case, a, b)
                    found = True
                    break
        if found:
            pull_implies += 1

        # Run the policy, checking invariants after every action
        # (suites a, b, c, f).
        trips = 0
        for step in trial_steps(scene, policy, SIM, case):
            state = step.after
            trips += step.event["trip"]
            on_table = {d for s in state.stacks.values() for d in s.dishes}
            assert on_table | set(state.bin) == all_ids
            assert len(on_table) + len(state.bin) == len(all_ids)
            problems = validate(state, SIM.dish_specs)
            assert problems == [], (tier, case, problems)
            if policy.kind is PolicyKind.STACK:
                for stack in state.stacks.values():
                    hard = sum(
                        1 for d in stack.dishes
                        if state.dishes[d].kind is not DishKind.UTENSIL
                    )
                    assert hard < 4, (tier, case, stack)
                tall_checks += 1
        assert trips <= len(all_ids), (tier, case)
        conservation += 1
        stability += 1
        termination += 1

    # Suite g: byte-identical regeneration.
    determinism = 0
    for case in range(n_cases):
        tier = TIERS[case % len(TIERS)]
        cfg = TierConfig.preset(tier)
        seed = 20_000 + case
        a = scene_to_json(generate_scene(cfg, seed, SIM.dish_specs, SIM.workspace))
        b = scene_to_json(generate_scene(cfg, seed, SIM.dish_specs, SIM.workspace))
        assert a == b
        determinism += 1

    # Suite h: the nest-offset inequality and tall-pile ungraspability.
    offset = SIM.dish_specs[CUP].nest_offset
    jaw = SIM.gripper.jaw_height
    rng = SplitMix64(424242)
    nest_cases = 0
    for _ in range(n_cases):
        s = 1 + rng.below(8)
        assert ((s - 1) * offset > jaw) == (s >= 4), s
        kind = (CUP, BOWL)[rng.below(2)]
        pile = build_scene([([kind] * s, 30, 30)])
        lip = stack_top_lip_height(pile.stacks[0], pile.dishes, SIM.dish_specs)
        span = lip - SIM.dish_specs[kind].grasp_height
        assert (span > jaw) == (s >= 4), (kind, s)
        # Merging two piles of the same kind obeys the size-4 cutoff
        # (cup piles onto bowls change nothing: offsets are equal).
        a = 1 + rng.below(3)
        b = 1 + rng.below(3)
        merge = build_scene([([kind] * a, 20, 20), ([kind] * b, 55, 40)])
        allowed = stack_allowable(merge, 0, 1, SIM)
        assert allowed == (a + b <= 3), (kind, a, b)
        nest_cases += 1

    assert min(conservation, stability, termination, mog_sym, determinism,
               nest_cases) >= n_cases
    assert pull_implies >= 600  # pull pairs exist on most scenes
    _announce(
        8,
        True,
        f"suites: conservation/stability/termination {conservation}, "
        f"mog symmetry {mog_sym}, pull=>mog {pull_implies}, "
        f"stack-height checks {tall_checks}, determinism {determinism}, "
        f"nesting {nest_cases}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: brute-force oracle on small scenes.
# ---------------------------------------------------------------------------


def test_criterion_9_small_scene_oracle():
    n_scenes = 80
    checked = 0
    for seed in range(n_scenes):
        scene = random_small_scene(seed)
        optimum = min_trips(scene, SIM)
        random_trips = run_policy(scene, POLICIES["random"], SIM, seed).counts().trips
        assert random_trips == len(scene.stacks)
        for name in ("pull", "stack"):
            trips = 0
            for step in trial_steps(scene, POLICIES[name], SIM, seed):
                state, action = step.state, step.action
                # Composite actions must pass their own predicates here,
                # independently of the transition's re-check.
                if isinstance(action, PullGrasp):
                    assert check_pull(state, action.mover, action.anchor, SIM).allowable
                elif isinstance(action, StackGrasp):
                    probe = state
                    for lift in action.lifts:
                        lifted, base = lift.stack, action.grasp.stack
                        assert stack_allowable(probe, lifted, base, SIM)
                        probe = probe.merged(lifted, base)
                elif isinstance(action, PairGrasp):
                    assert mog_grasp(state, action.a, action.b, SIM) is not None
                trips += step.event["trip"]
            assert optimum <= trips <= random_trips, (seed, name, optimum, trips)
        checked += 1
    _announce(
        9,
        True,
        f"{checked} scenes with <=5 dishes: policy actions feasible; "
        "trips between brute-force minimum and random",
    )
