"""Objects-per-trip, the time model, and aggregation."""

import dataclasses

import pytest

from declutter import (
    EmptyTrace,
    MissingBaseline,
    PolicyConfig,
    Tier,
    TierConfig,
    TimeModel,
    Trace,
    TrialReport,
    aggregate,
    build_report,
    generate_scene,
    run_policy,
    summary_csv,
)
from declutter.metrics import CSV_HEADER
from helpers import SIM


def event(kind, moved, trip=True, placements=1, failed=False):
    params = {}
    if kind == "stack_grasp":
        params["placements"] = [{} for _ in range(placements)]
    if failed:
        params["failed"] = True
    return {
        "action": kind, "targets": list(moved) or [0],
        "moved_to_bin": list(moved), "trip": trip, "params": params,
    }


def trace_of(*events):
    return Trace(events=list(events), policy="stack", tier="t1")


def report_of(trace, tm=TimeModel(grasp_s=4.0, pull_s=3.0, stack_s=5.0, travel_s=3.0)):
    return build_report(trace, tm, scene_id="s")


class TestObjectsPerTrip:
    def test_six_over_three(self):
        tr = trace_of(*[event("stack_grasp", (i, i + 1)) for i in (0, 2, 4)])
        assert report_of(tr).opt == 2.0

    def test_six_over_six(self):
        tr = trace_of(*[event("grasp", (i,)) for i in range(6)])
        assert report_of(tr).opt == 1.0

    def test_twelve_over_five(self):
        moved = [(0, 1, 2, 3, 4), (5, 6), (7, 8), (9, 10), (11,)]
        tr = trace_of(*[event("stack_grasp", m) for m in moved])
        assert report_of(tr).opt == 2.4

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            report_of(trace_of())


class TestModelTime:
    def test_three_stack_trips(self):
        tr = trace_of(*[event("stack_grasp", (i, i + 1)) for i in (0, 2, 4)])
        # 3 grasps * 4 + 3 stacks * 5 + 3 trips * 6 = 45.
        assert report_of(tr).time_s == pytest.approx(45.0)

    def test_bin_delay_adds_per_trip(self):
        tr = trace_of(*[event("stack_grasp", (i, i + 1)) for i in (0, 2, 4)])
        tm = TimeModel(grasp_s=4.0, pull_s=3.0, stack_s=5.0, travel_s=3.0, bin_delay_s=3.0)
        assert report_of(tr, tm).time_s == pytest.approx(63.0)

    def test_pull_contributes_pull_time(self):
        tr = trace_of(event("pull_grasp", (0, 1)))
        assert report_of(tr).time_s == pytest.approx(4.0 + 3.0 + 6.0)

    def test_failed_action_costs_time_but_no_trip(self):
        tr = trace_of(event("grasp", (), trip=False, failed=True),
                      event("grasp", (0,)))
        assert report_of(tr).time_s == pytest.approx(4.0 + 4.0 + 6.0)
        assert report_of(tr).failures == 1

    def test_linear_and_monotone_in_bin_delay(self):
        tr = trace_of(*[event("pull_grasp", (2 * i, 2 * i + 1)) for i in range(3)])
        times = [
            report_of(tr, TimeModel(4.0, 3.0, 5.0, 3.0, bin_delay_s=d)).time_s
            for d in (0.0, 3.0, 5.0)
        ]
        assert times[0] < times[1] < times[2]
        slope1 = (times[1] - times[0]) / 3.0
        slope2 = (times[2] - times[1]) / 2.0
        assert slope1 == pytest.approx(slope2)

    def test_action_counts(self):
        tr = trace_of(
            event("grasp", (0,)),
            event("pull_grasp", (1, 2)),
            event("stack_grasp", (3, 4), placements=2),
        )
        assert tr.counts()[:4] == (3, 1, 2, 3)


def report(tier, policy, trips, objects, time_s, failures=0):
    return TrialReport(
        scene_id=f"{tier}_x", tier=tier, policy=policy, trips=trips,
        objects_cleared=objects, opt=objects / trips, time_s=time_s,
        failures=failures,
    )


class TestAggregate:
    def test_ratio_two(self):
        rows = aggregate([
            report("t0_bowls", "random", 6, 6, 60.0),
            report("t0_bowls", "stack", 3, 6, 50.0),
        ])
        by_policy = {r.policy: r for r in rows}
        assert by_policy["stack"].opt_ratio == pytest.approx(2.0)
        assert by_policy["stack"].time_ratio == pytest.approx(60.0 / 50.0)
        assert by_policy["random"].opt_ratio == pytest.approx(1.0)

    def test_identical_policies_ratio_one(self):
        rows = aggregate([
            report("t1", "random", 6, 12, 80.0),
            report("t1", "pull", 6, 12, 80.0),
        ])
        pull = next(r for r in rows if r.policy == "pull")
        assert pull.opt_ratio == pytest.approx(1.0)
        assert pull.time_ratio == pytest.approx(1.0)

    def test_pull_ratio_example(self):
        rows = aggregate([
            report("t0_bowls", "random", 10, 10, 100.0),
            report("t0_bowls", "pull", 10, 18, 70.0),
        ])
        pull = next(r for r in rows if r.policy == "pull")
        assert pull.opt_ratio == pytest.approx(1.8)

    def test_pooled_vs_per_trial_mean(self):
        rows = aggregate([
            report("t2", "random", 12, 12, 90.0),
            report("t2", "random", 8, 12, 90.0),
            report("t2", "stack", 5, 12, 80.0),
            report("t2", "stack", 5, 12, 80.0),
        ])
        rand = next(r for r in rows if r.policy == "random")
        # Pooled, not the mean of the trials' OpT, (1.0 + 1.5) / 2.
        assert rand.mean_opt == pytest.approx(24 / 20)

    def test_policy_without_trials_in_a_tier_has_no_row(self):
        rows = aggregate([
            report("t0_cups", "random", 6, 6, 60.0),
            report("t1", "random", 12, 12, 90.0),
            report("t1", "pull", 8, 12, 80.0),
        ])
        assert [(r.tier, r.policy) for r in rows] == [
            ("t0_cups", "random"), ("t1", "random"), ("t1", "pull"),
        ]

    def test_rows_keep_the_first_seen_order_of_tiers_and_policies(self):
        # Tiers come in the order of their first reports, and within a tier
        # policies come in the order of their first reports in any tier.
        rows = aggregate([
            report("t0_cups", "random", 6, 6, 60.0),
            report("t1", "stack", 6, 12, 80.0),
            report("t1", "random", 12, 12, 90.0),
            report("t0_cups", "pull", 3, 6, 50.0),
        ])
        assert [(r.tier, r.policy) for r in rows] == [
            ("t0_cups", "random"), ("t0_cups", "pull"), ("t1", "random"), ("t1", "stack"),
        ]

    def test_missing_baseline(self):
        with pytest.raises(MissingBaseline):
            aggregate([report("t1", "stack", 6, 12, 80.0)])

    def test_baseline_without_trips(self):
        # Trials that bin nothing pool no trips, so they have no ratio.
        idle = TrialReport(
            scene_id="t1_x", tier="t1", policy="random", trips=0,
            objects_cleared=0, opt=0.0, time_s=10.0, failures=1,
        )
        with pytest.raises(EmptyTrace, match="^no trips across trials$"):
            aggregate([idle])


class TestCsv:
    def test_header_and_formatting(self):
        rows = aggregate([
            report("t1", "random", 12, 12, 130.51),
            report("t1", "stack", 6, 12, 118.379),
        ])
        text = summary_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "t1,random,130.510,1.0000,0,1.0000,1.0000"
        assert lines[2].startswith("t1,stack,118.379,2.0000,0,")

    def test_byte_stable(self):
        rows = aggregate([
            report("t1", "random", 12, 12, 130.51),
            report("t1", "stack", 6, 12, 118.379),
        ])
        assert summary_csv(rows) == summary_csv(rows)


def test_build_report_counts_failures():
    tr = trace_of(event("grasp", (), trip=False, failed=True), event("grasp", (0,)))
    rep = build_report(tr, TimeModel(4.0, 3.0, 5.0, 3.0), scene_id="s")
    assert rep.failures == 1
    assert rep.trips == 1
    assert rep.objects_cleared == 1
    assert rep.opt == 1.0


@pytest.mark.parametrize("p_fail", [0.0, 0.2])
@pytest.mark.parametrize("named", [
    ("random",), ("pull",), ("stack",), ("stack", "all_on_one_bowl"),
], ids="_".join)
def test_build_report_is_the_report_of_the_public_counts(named, p_fail):
    # Every metric reads ``Trace.counts``, one pass over the events: check
    # that pass against a count of each quantity on its own, and
    # ``build_report`` against the report assembled here from those counts.
    # Every term of the time model is non-zero and distinct, so a
    # miscounted term shows.
    tm = TimeModel(grasp_s=1.7, pull_s=3.1, stack_s=5.3, travel_s=2.9, bin_delay_s=0.7)
    sim = dataclasses.replace(SIM, p_fail=p_fail)
    policy = PolicyConfig.named(*named)
    failures = 0
    for tier in (Tier.T1, Tier.T2):
        for seed in range(20):
            trace = run_policy(generate_scene(TierConfig.preset(tier), seed), policy, sim, seed)
            events = trace.events
            c = trace.counts()
            assert c == (
                len(events),
                sum(e["action"] == "pull_grasp" for e in events),
                sum(len(e["params"]["placements"]) for e in events if e["action"] == "stack_grasp"),
                sum(1 for e in events if e["trip"]),
                sum(len(e["moved_to_bin"]) for e in events),
                sum(1 for e in events if e["params"].get("failed")),
            )
            scene_id = f"{tier.value}_{seed}"
            report = build_report(trace, tm, scene_id)
            assert report == TrialReport(
                scene_id=scene_id,
                tier=trace.tier,
                policy=trace.policy,
                trips=c.trips,
                objects_cleared=c.objects_cleared,
                opt=c.objects_cleared / c.trips,
                time_s=(c.grasps * tm.grasp_s + c.pulls * tm.pull_s + c.stacks * tm.stack_s
                        + c.trips * 2.0 * (tm.travel_s + tm.bin_delay_s)),  # compared with ==
                failures=c.failures,
            )
            failures += report.failures
    assert (failures > 0) == (p_fail > 0)
