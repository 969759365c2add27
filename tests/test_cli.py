"""Command line interface and harness end-to-end tests."""

import concurrent.futures
import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

from declutter import GraspAction, harness, policies, scene_from_json, trial_steps
from declutter.cli import main
from declutter.harness import plan_from_json, run_plan, trace_lines, trial_seed
from declutter.metrics import build_report
from declutter.policies import PolicyConfig, run_policy
from declutter.config import default_sim_config, load_config
from declutter.rng import derive_seed
from declutter.tableware import Tier

PLAN = {
    "tiers": ["t0_bowls", "t1"],
    "scenes_per_tier": 2,
    "policies": ["random", "pull", "stack"],
    "base_seed": 11,
    "bin_delays": [0, 3, 5],
    "p_fail": 0.0,
}


def write_plan(tmp_path, **overrides):
    data = {**PLAN, **overrides}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stands in for the process pool: records each pool's size and runs
    the scenes in this process, so no worker is ever started."""
    pools = []

    class InProcess:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # ``run_plan`` imports the pool class when it starts one, so the
    # patch goes where that import reads it.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    return pools


class TestGenerate:
    def test_writes_named_files(self, tmp_path, capsys):
        rc = main(["generate", "--tier", "t1", "--count", "3", "--seed", "42",
                   "--out", str(tmp_path / "scenes")])
        assert rc == 0
        files = sorted((tmp_path / "scenes").glob("*.json"))
        assert [f.name for f in files] == [
            "scene_t1_42_0.json", "scene_t1_42_1.json", "scene_t1_42_2.json"
        ]

    def test_idempotent_bytes(self, tmp_path):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t0_cups", "--count", "1", "--seed", "5",
              "--out", str(out)])
        first = (out / "scene_t0_cups_5_0.json").read_bytes()
        main(["generate", "--tier", "t0_cups", "--count", "1", "--seed", "5",
              "--out", str(out)])
        assert (out / "scene_t0_cups_5_0.json").read_bytes() == first

    def test_count_must_be_positive(self, tmp_path):
        rc = main(["generate", "--tier", "t1", "--count", "0", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 2


class TestRun:
    def test_stack_on_t0_bowls(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t0_bowls", "--count", "1", "--seed", "3",
              "--out", str(out)])
        trace = tmp_path / "trace.jsonl"
        rc = main(["run", "--scene", str(out / "scene_t0_bowls_3_0.json"),
                   "--policy", "stack", "--trace", str(trace)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert report["trips"] == 3
        assert report["opt"] == 2.0
        lines = trace.read_text().strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["action"] == "stack_grasp"
        assert first["trip"] is True

    @pytest.mark.parametrize("policy", ["random", "pull", "stack"])
    def test_trace_lines_are_the_steps_events(self, tmp_path, policy):
        # ``run --trace`` writes each step's event as it is, after its step
        # number ``t``, line for line.
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t2", "--count", "1", "--seed", "5", "--out", str(out)])
        path = out / "scene_t2_5_0.json"
        sim = default_sim_config()
        loaded = scene_from_json(path.read_text(), sim.dish_specs)
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scene", str(path), "--policy", policy, "--seed", "13",
                     "--trace", str(trace)]) == 0
        steps = trial_steps(loaded, PolicyConfig.named(policy), sim, 13)
        assert trace.read_text().splitlines() == [
            json.dumps({"t": t, **step.event}) for t, step in enumerate(steps)
        ]

    @pytest.mark.parametrize("named", [
        ("random",), ("pull",), ("stack",), ("stack", "all_on_one_bowl"),
    ], ids="_".join)
    def test_run_without_a_seed_derives_it_from_the_scene(self, tmp_path, capsys, named):
        # With no --seed, the trial seed is derived from the scene file's
        # seed and the policy kind.
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t2", "--count", "1", "--seed", "5", "--out", str(out)])
        path = out / "scene_t2_5_0.json"
        sim = default_sim_config()
        scene = scene_from_json(path.read_text(), sim.dish_specs)
        policy = PolicyConfig.named(*named)
        expected = run_policy(scene, policy, sim, derive_seed(scene.rng_seed, "trial", named[0]))
        trace = tmp_path / "trace.jsonl"
        argv = ["run", "--scene", str(path), "--policy", named[0], "--trace", str(trace)]
        if len(named) > 1:
            argv += ["--utensil-stacking", named[1]]
        capsys.readouterr()
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report == build_report(expected, sim.time_model, path.stem).to_json_obj()
        assert trace.read_text() == trace_lines(expected)

    def test_random_on_t0_bowls(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t0_bowls", "--count", "1", "--seed", "3",
              "--out", str(out)])
        rc = main(["run", "--scene", str(out / "scene_t0_bowls_3_0.json"),
                   "--policy", "random"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert report["trips"] == 6
        assert report["opt"] == 1.0

    def test_infeasible_action_exits_4_naming_the_predicate(self, tmp_path, capsys, monkeypatch):
        # A policy bug: the policy grasps a stack that is not on the table.
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t0_bowls", "--count", "1", "--seed", "3",
              "--out", str(out)])

        def off_the_table(state, rng, sim, cfg, memo):
            return GraspAction(99)

        monkeypatch.setattr(policies, "next_action", off_the_table)
        capsys.readouterr()
        rc = main(["run", "--scene", str(out / "scene_t0_bowls_3_0.json"), "--policy", "pull"])
        assert rc == 4
        assert "infeasible action (policy bug): target_on_table" in capsys.readouterr().err

    def test_malformed_scene_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["run", "--scene", str(bad), "--policy", "stack"])
        assert rc == 3

    @pytest.mark.parametrize("edit", [
        "utensil_theta_string", "infinite_workspace", "string_base", "fractional_id",
        "nan_base", "infinite_base", "huge_base",
    ])
    def test_scene_non_numbers_exit_3(self, tmp_path, capsys, edit):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t1", "--count", "1", "--seed", "3", "--out", str(out)])
        path = out / "scene_t1_3_0.json"
        scene = json.loads(path.read_text())
        dishes = [d for stack in scene["stacks"] for d in stack["dishes"]]
        if edit == "utensil_theta_string":
            next(d for d in dishes if d["kind"] == "utensil")["theta"] = "abc"
        elif edit == "infinite_workspace":
            scene["workspace"][0] = float("inf")
        elif edit == "string_base":
            scene["stacks"][0]["base"][0] = str(scene["stacks"][0]["base"][0])
        elif edit == "nan_base":  # ``json`` writes and reads it as NaN
            scene["stacks"][0]["base"][0] = float("nan")
        elif edit == "infinite_base":  # and this as Infinity
            scene["stacks"][-1]["base"][1] = float("inf")
        elif edit == "huge_base":  # an integer past the float range
            scene["stacks"][0]["base"][0] = 10**400
        else:
            # Truncates to a free id, so only the fraction is wrong.
            max(dishes, key=lambda d: d["id"])["id"] += 0.7
        path.write_text(json.dumps(scene))
        assert main(["run", "--scene", str(path), "--policy", "pull"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ("no_stacks", "non-empty"),
        ("empty_negative_workspace", "workspace"),
        ("numeric_tier", "tier"),
        ("unknown_tier", "tier"),
        ("scene_key", "unknown key 'extra'"),
        ("stack_key", "unknown key 'extra'"),
        ("dish_key", "unknown key 'extra'"),
        ("number_dishes", "dishes must be a non-empty list"),
        ("duplicate_id", "duplicate dish id"),
        ("zero_workspace", "workspace sides must be positive"),
        ("short_workspace", "workspace must be [width, height]"),
    ])
    def test_scene_schema_errors_exit_3(self, tmp_path, capsys, edit, message):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t1", "--count", "1", "--seed", "3", "--out", str(out)])
        path = out / "scene_t1_3_0.json"
        scene = json.loads(path.read_text())
        if edit == "no_stacks":
            scene["stacks"] = []
        elif edit == "empty_negative_workspace":
            scene["workspace"], scene["stacks"] = [-5, 0], []
        elif edit == "numeric_tier":
            scene["tier"] = 5
        elif edit == "unknown_tier":
            scene["tier"] = "t9"
        elif edit == "scene_key":
            scene["extra"] = 1
        elif edit == "stack_key":
            scene["stacks"][-1]["extra"] = 1
        elif edit == "number_dishes":
            scene["stacks"][-1]["dishes"] = 5
        elif edit == "duplicate_id":
            scene["stacks"][-1]["dishes"][0]["id"] = scene["stacks"][0]["dishes"][0]["id"]
        elif edit == "zero_workspace":
            scene["workspace"][1] = 0
        elif edit == "short_workspace":
            scene["workspace"] = scene["workspace"][:1]
        else:
            scene["stacks"][-1]["dishes"][0]["extra"] = 1
        path.write_text(json.dumps(scene))
        capsys.readouterr()
        assert main(["run", "--scene", str(path), "--policy", "pull"]) == 3
        assert message in capsys.readouterr().err

    def test_missing_scene_exits_3(self, tmp_path):
        rc = main(["run", "--scene", str(tmp_path / "none.json"), "--policy", "pull"])
        assert rc == 3

    def test_stacking_mode_on_other_policy_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        main(["generate", "--tier", "t1", "--count", "1", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        rc = main(["run", "--scene", str(out / "scene_t1_3_0.json"), "--policy", "pull",
                   "--utensil-stacking", "all_on_one_bowl"])
        assert rc == 2
        assert "utensil_stacking applies to the stack policy only" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--scene", "x.json", "--policy", "shake"])
        assert err.value.code == 2


class TestBench:
    def test_full_plan_outputs(self, tmp_path, capsys):
        plan = write_plan(tmp_path)
        out = tmp_path / "bench"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 0
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 2 * 3  # header + tiers x policies
        trials = (out / "trials.jsonl").read_text().strip().split("\n")
        assert len(trials) == 2 * 2 * 3
        for d in (0, 3, 5):
            assert (out / f"summary_delay_{d}s.csv").exists()
        # No temporary file is left behind.
        assert sorted(f.name for f in out.iterdir()) == [
            "summary.csv", "summary_delay_0s.csv", "summary_delay_3s.csv",
            "summary_delay_5s.csv", "traces.jsonl", "trials.jsonl",
        ]

    def test_deterministic_and_parallel_identical(self, tmp_path):
        plan_path = write_plan(tmp_path)
        plan = plan_from_json(plan_path.read_text())
        sim = default_sim_config()
        out1 = tmp_path / "seq"
        out2 = tmp_path / "par"
        run_plan(plan, sim, out1, jobs=1)
        run_plan(plan, sim, out2, jobs=3)
        for name in ("summary.csv", "trials.jsonl", "traces.jsonl",
                     "summary_delay_3s.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        plan = write_plan(tmp_path)
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tiers, jobs, started",
        [(["t0_bowls", "t1"], "3", [3]), (["t0_bowls", "t1"], "64", [4]), (["t1"], "8", [2])],
    )
    def test_workers_never_outnumber_scenes(self, tmp_path, in_process_pool, tiers, jobs, started):
        plan = write_plan(tmp_path, tiers=tiers)  # two scenes per tier
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x"), "--jobs", jobs])
        assert rc == 0
        assert in_process_pool == started

    @pytest.mark.parametrize("jobs, fault", [
        pytest.param(1, "raises", id="1"),
        pytest.param(3, "raises", id="3"),
        pytest.param(1, "cyclic event", id="1-cyclic-event"),
        pytest.param(3, "cyclic event", id="3-cyclic-event"),
    ])
    def test_failed_plan_leaves_report_files_as_they_were(
        self, tmp_path, monkeypatch, in_process_pool, jobs, fault
    ):
        sim = default_sim_config()
        out = tmp_path / "bench"
        run_plan(plan_from_json(write_plan(tmp_path).read_text()), sim, out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}

        # Another seed, so that any line the failed plan wrote would differ.
        other = plan_from_json(write_plan(tmp_path, base_seed=12).read_text())
        calls = []
        run_policy = harness.run_policy

        def fails_fifth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5 and fault == "raises":
                raise RuntimeError("trial 5 fails")
            trace = run_policy(*args, **kwargs)
            if len(calls) == 5:
                # The trace lines are encoded without a cycle check: a cycle
                # must still fail the plan before any file is moved into place.
                params = trace.events[0]["params"]
                params["loop"] = params
            return trace

        monkeypatch.setattr(harness, "run_policy", fails_fifth)
        if fault == "raises":
            raised = pytest.raises(RuntimeError, match="trial 5 fails")
        else:  # json reports a cycle as RecursionError, or as ValueError with its cycle check
            raised = pytest.raises((RecursionError, ValueError))
        with raised:
            run_plan(other, sim, out, jobs=jobs)
        assert len(calls) == 5
        assert in_process_pool == ([3] if jobs > 1 else [])
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_memory_does_not_grow_with_the_plan(self, tmp_path):
        # Only the reports are kept across scenes; each scene's trace lines
        # are written as it finishes.
        sim = default_sim_config()
        peaks = []
        for scenes in (5, 20):
            plan = plan_from_json(write_plan(
                tmp_path, tiers=["t0_cups", "t1", "t2"], scenes_per_tier=scenes,
                policies=["random", "stack"],
            ).read_text())
            tracemalloc.start()
            try:
                run_plan(plan, sim, tmp_path / f"out{scenes}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_added_policy_does_not_perturb_existing_trials(self, tmp_path):
        sim = default_sim_config()
        small = plan_from_json(write_plan(tmp_path, policies=["random"]).read_text())
        big = plan_from_json(
            write_plan(tmp_path, policies=["random", "stack"]).read_text()
        )
        r_small, _ = run_plan(small, sim, tmp_path / "a")
        r_big, _ = run_plan(big, sim, tmp_path / "b")
        small_by_id = {(r.scene_id, r.policy): r.to_json_obj() for r in r_small}
        big_by_id = {(r.scene_id, r.policy): r.to_json_obj() for r in r_big}
        for key, value in small_by_id.items():
            assert big_by_id[key] == value

    def test_empty_policy_list_is_usage_error(self, tmp_path, capsys):
        plan = write_plan(tmp_path, policies=[])
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_plan_without_random_baseline_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # Refused before any trial runs: the summaries need the baseline.
        monkeypatch.setattr(harness, "run_policy", None)
        plan = write_plan(tmp_path, tiers=["t1"], policies=["stack"], base_seed=1)
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 2
        assert "'random' baseline" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_plan_exits_3(self, tmp_path):
        rc = main(["bench", "--plan", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_unknown_policy_name_exits_3(self, tmp_path):
        plan = write_plan(tmp_path, policies=["shake"])
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_stacking_mode_on_other_policy_exits_3(self, tmp_path, capsys, monkeypatch):
        # Refused before any trial runs, not run and ignored.
        monkeypatch.setattr(harness, "run_policy", None)
        policies = ["random", {"kind": "pull", "utensil_stacking": "all_on_one_bowl"}]
        plan = write_plan(tmp_path, policies=policies)
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 3
        assert "plan policy malformed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pull", "stack"])
    @pytest.mark.parametrize("mode", [False, 0, "", [], {}], ids=["false", "0", "str", "list", "obj"])
    def test_falsy_stacking_mode_exits_3(self, tmp_path, capsys, monkeypatch, kind, mode):
        # Not a mode, and not read as "absent": only null is.
        monkeypatch.setattr(harness, "run_policy", None)
        plan = write_plan(tmp_path, policies=["random", {"kind": kind, "utensil_stacking": mode}])
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 3
        assert "plan policy malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_null_stacking_mode_is_absent(self):
        policies = ["random", {"kind": "stack", "utensil_stacking": None}]
        plan = plan_from_json(json.dumps({**PLAN, "policies": policies}))
        assert plan.policies[1] == PolicyConfig.named("stack")

    @pytest.mark.parametrize("plan_p_fail, failures", [(None, True), (0.0, False)])
    def test_plan_p_fail_overrides_config_only_when_set(
        self, tmp_path, plan_p_fail, failures
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_fail": 0.3}))
        data = {**PLAN, "p_fail": plan_p_fail}
        if plan_p_fail is None:
            del data["p_fail"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(data))
        out = tmp_path / "bench"
        rc = main(["--config", str(config), "bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 0
        trials = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
        assert (sum(t["failures"] for t in trials) > 0) == failures

    @pytest.mark.parametrize("time_model", [{"pull_s": 1.0, "warp_s": 2.0}, {"pull_s": "1"}])
    def test_bad_plan_time_model_exits_3(self, tmp_path, capsys, time_model):
        full = {"grasp_s": 0.0, "stack_s": 1.0, "travel_s": 1.0, **time_model}
        plan = write_plan(tmp_path, time_model=full)
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "error: plan: time_model: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("bin_delays", "12"),
        ("bin_delays", [1, "2"]),
        ("p_fail", "0.5"),
        ("p_fail", True),
        ("scenes_per_tier", 1.7),
        ("base_seed", "1"),
        ("bin_delays", [float("inf")]),
        ("policies", 5),
        pytest.param("base_seed", 10**400, id="base_seed-huge"),
    ])
    def test_non_number_plan_field_exits_3(self, tmp_path, capsys, field, value):
        plan = write_plan(tmp_path, **{field: value})
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("key, edit", [
        ("p_fial", {"p_fial": 0.5}),
        ("bin_delay", {"bin_delay": [3]}),
        ("utensil_stack", {"policies": [{"kind": "stack", "utensil_stack": "all_on_one_bowl"}]}),
    ])
    def test_unknown_plan_key_exits_3(self, tmp_path, capsys, key, edit):
        plan = write_plan(tmp_path, **edit)
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("scenes_per_tier", 0),
        ("p_fail", 1.5),
        ("bin_delays", [-50]),
        ("bin_delays", [3, 3]),
        ("tiers", []),
    ])
    def test_plan_range_error_exits_2(self, tmp_path, capsys, field, value):
        plan = write_plan(tmp_path, **{field: value})
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        if field == "p_fail":
            # The config's range check is the plan's.
            assert "usage error: p_fail must be a probability" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("policies", ["random", {"kind": "stack", "utensil_stacking": "one_per_bowl"},
                      {"kind": "stack", "utensil_stacking": "all_on_one_bowl"}],
         "policies must not repeat a kind"),
        ("tiers", ["t1", "t1"], "tiers must not repeat"),
    ], ids=["policy_kind", "tier"])
    def test_repeated_policy_kind_or_tier_is_usage_error(
        self, tmp_path, capsys, field, value, message
    ):
        # Report rows are keyed by (scene, policy kind): a repeat would
        # write two trials that cannot be told apart.
        plan = write_plan(tmp_path, **{field: value})
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tiers_not_a_list_exits_3(self, tmp_path, capsys):
        plan = write_plan(tmp_path, tiers="t1")
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "plan: tiers must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{broken", "plan file is not valid JSON"),
        (json.dumps({**PLAN, "tiers": ["t1", "t9"]}), "plan tiers malformed: 't9'"),
        (json.dumps({**PLAN, "policies": [5]}), "plan policy malformed: not a policy entry: 5"),
        (json.dumps({k: v for k, v in PLAN.items() if k != "base_seed"}), "plan needs a base_seed"),
    ], ids=["not_json", "unknown_tier", "policy_entry", "no_base_seed"])
    def test_bad_plan_file_exits_3(self, tmp_path, capsys, text, message):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        out = tmp_path / "x"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_plan_time_model_takes_effect(self, tmp_path):
        def mean_times(out, **overrides):
            plan = write_plan(tmp_path, tiers=["t1"], **overrides)
            assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / out)]) == 0
            rows = (tmp_path / out / "summary.csv").read_text().splitlines()
            column = rows[0].split(",").index("mean_time_s")
            return [float(row.split(",")[column]) for row in rows[1:]]

        own = dataclasses.asdict(default_sim_config().time_model)
        slower = {**own, "travel_s": own["travel_s"] + 10.0}
        base = mean_times("config")
        assert mean_times("own", time_model=own) == base
        # Every trial makes at least one trip, so every row costs more.
        for config, plan in zip(base, mean_times("slower", time_model=slower)):
            assert plan > config

    def test_run_replays_a_bench_trial(self, tmp_path, capsys):
        # A bench trial is reproducible from what bench wrote: ``run`` on the
        # generated scene with the trial's seed writes the same events.  The
        # scene file rounds positions to six decimals, so floats agree only
        # to that rounding.
        plan = write_plan(tmp_path, tiers=["t1"], scenes_per_tier=1,
                          policies=["random", "pull"], base_seed=7)
        assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "bench")]) == 0
        assert main(["generate", "--tier", "t1", "--seed", "7",
                     "--out", str(tmp_path / "scenes")]) == 0
        seed = trial_seed(7, Tier.T1, 0, "pull")
        trace = tmp_path / "trace.jsonl"
        capsys.readouterr()
        assert main(["run", "--scene", str(tmp_path / "scenes" / "scene_t1_7_0.json"),
                     "--policy", "pull", "--seed", str(seed), "--trace", str(trace)]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])

        bench_events = []
        for line in (tmp_path / "bench" / "traces.jsonl").read_text().splitlines():
            record = json.loads(line)
            if (record.pop("scene_id"), record.pop("policy")) == ("t1_0", "pull"):
                bench_events.append(record)
        run_events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert run_events and run_events == _floats_approx(bench_events)
        trials = [
            json.loads(line)
            for line in (tmp_path / "bench" / "trials.jsonl").read_text().splitlines()
        ]
        (bench_report,) = [t for t in trials if t["policy"] == "pull"]
        assert {**report, "scene_id": "t1_0"} == bench_report


def _floats_approx(value):
    """``value`` with every float matched within 1e-4, which covers a scene
    file's six-decimal rounding as it propagates through a trial (about
    1e-5 over 300 trials of every tier)."""
    if isinstance(value, float):
        return pytest.approx(value, rel=0, abs=1e-4)
    if isinstance(value, dict):
        return {k: _floats_approx(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats_approx(v) for v in value]
    return value


class TestFitTime:
    def test_fit_time_writes_fragment(self, tmp_path, capsys):
        # ``--out`` writes the fitted time model as a config fragment; the
        # fit report, with its residual and rows, goes to stdout.
        frag = tmp_path / "fit.json"
        rc = main(["fit-time", "--out", str(frag)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["relative_rms_residual"] <= 0.20
        assert set(data["time_model"]) == {
            "grasp_s", "pull_s", "stack_s", "travel_s", "bin_delay_s"
        }
        assert len(data["rows"]) == 15
        assert json.loads(frag.read_text()) == {"time_model": data["time_model"]}
        assert dataclasses.asdict(load_config(frag).time_model) == data["time_model"]

    def test_fit_time_accepts_custom_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "tier,policy,time_s\n"
            "t1,random,120.0\n"
            "t1,stack,110.0\n"
            "t1,pull,100.0\n"
        )
        frag = tmp_path / "fit.json"
        rc = main(["fit-time", "--table", str(table), "--out", str(frag)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 3
        # The --out file is a config: its time model, not the default one,
        # takes effect.
        assert data["time_model"] != dataclasses.asdict(default_sim_config().time_model)
        assert main(["--config", str(frag), "show-config"]) == 0
        assert json.loads(capsys.readouterr().out)["time_model"] == data["time_model"]

    def test_bad_table_exits_3(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("a,b\n1,2\n")
        rc = main(["fit-time", "--table", str(table)])
        assert rc == 3

    @pytest.mark.parametrize("time_s", ["0", "-5", "nan", "inf", "abc"])
    def test_nonpositive_or_nonfinite_time_exits_3(self, tmp_path, capsys, time_s):
        table = tmp_path / "table.csv"
        table.write_text(f"tier,policy,time_s\nt1,random,120.0\nt1,pull,{time_s}\n")
        rc = main(["fit-time", "--table", str(table)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "bad reference row" in err and "'policy': 'pull'" in err


def test_show_config_prints_defaults(capsys):
    rc = main(["show-config"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workspace"] == [78.0, 61.0]
    assert data["gripper"]["max_opening"] == 8.5


@pytest.mark.parametrize("config", [None, {"p_fail": 0.1, "time_model": {"travel_s": 6.0}}],
                         ids=["defaults", "edited"])
def test_show_config_output_is_a_config(tmp_path, capsys, config):
    # What show-config prints, passed back as --config, prints the same.
    argv = ["show-config"]
    if config is not None:
        (tmp_path / "edited.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "edited.json"), *argv]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    (tmp_path / "shown.json").write_text(shown)
    assert main(["--config", str(tmp_path / "shown.json"), "show-config"]) == 0
    assert capsys.readouterr().out == shown


def test_config_flag_threads_through(tmp_path, capsys):
    from declutter.config import config_to_json_obj, default_sim_config

    sim = default_sim_config()
    sim.p_fail = 0.1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config_to_json_obj(sim), indent=2))
    rc = main(["--config", str(path), "show-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["p_fail"] == 0.1
    # Also accepted after the subcommand, as in `run --config <file>`.
    rc = main(["show-config", "--config", str(path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["p_fail"] == 0.1


@pytest.mark.parametrize("section, entry", [
    ("gripper", {"max_opening": 9.0, "jaw_depth": 1.0}),
    ("gripper", {"max_opening": "9.0"}),
    ("time_model", {"travel_s": 5.0, "lunch_s": 60.0}),
    ("time_model", {"travel_s": True}),
    ("dishes", [1]),
    ("workspace", ["a", 61]),
    ("workspace", [True, 61]),
    ("pull_clearance_margin", "x"),
    ("pull_clearance_margin", "1.5"),
    ("pull_clearance_margin", float("nan")),
    ("gripper", {"max_opening": float("inf")}),
    ("p_fial", 0.5),
    ("pull_clearance_margin", -1.0),
    ("gripper", {"closed_width": 2.0}),  # no model reads it, so it is not a key
    ("workspace", [-5, 10]),
    ("workspace", [78, 0]),
    ("dishes", {"cup": {"radius": -1.0}}),
    ("dishes", {"utensil": {"width": 20.0}}),
    ("dishes", {"bowl": {"grasp_height": 0.0}}),
    ("gripper", {"jaw_height": 0.0}),
    ("workspace", [78.0]),
    ("gripper", 5),
    ("time_model", {"travel_s": -1.0}),
    pytest.param("p_fail", 10**400, id="p_fail-huge"),
])
def test_bad_config_key_exits_3(tmp_path, capsys, section, entry):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: entry}))
    rc = main(["--config", str(path), "show-config"])
    assert rc == 3
    assert section in capsys.readouterr().err


def test_unknown_dish_kind_in_config_exits_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dishes": {"plate": {"radius": 12.0}}}))
    assert main(["--config", str(path), "show-config"]) == 3
    assert "config: unknown dish kind 'plate'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "non_utf8"])
@pytest.mark.parametrize("argv", [
    ["run", "--scene", "input", "--policy", "pull"],
    ["bench", "--plan", "input", "--out", "out"],
    ["--config", "input", "show-config"],
    ["fit-time", "--table", "input"],
], ids=["scene", "plan", "config", "table"])
def test_unreadable_input_exits_3(tmp_path, capsys, monkeypatch, argv, kind):
    monkeypatch.chdir(tmp_path)
    if kind == "directory":
        (tmp_path / "input").mkdir()
    else:
        (tmp_path / "input").write_bytes(b"\xff\xfe{}")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "file cannot be read: input" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scene", "scene_t0_cups_3_0.json", "--policy", "pull", "--trace", "taken"],
    ["generate", "--tier", "t0_cups", "--seed", "3", "--out", "file"],
    ["bench", "--plan", "plan.json", "--out", "file"],
    ["fit-time", "--out", "taken"],
], ids=["run-trace", "generate-out", "bench-out", "fit-time-out"])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv):
    # "taken" is a directory and "file" a file, where a file and a
    # directory are to be written.
    monkeypatch.chdir(tmp_path)
    main(["generate", "--tier", "t0_cups", "--count", "1", "--seed", "3", "--out", "."])
    write_plan(tmp_path, tiers=["t0_cups"], scenes_per_tier=1)
    (tmp_path / "taken").mkdir()
    (tmp_path / "file").write_text("")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("argv", [
    ["--config", "config.json", "run", "--scene", "scene_t1_3_0.json", "--policy", "pull"],
    ["bench", "--plan", "plan.json", "--out", "out"],
    ["bench", "--plan", "plan.json", "--out", "out", "--jobs", "2"],
], ids=["run-config", "bench-plan", "bench-plan-jobs-2"])
def test_a_trial_at_its_action_cap_exits_2(tmp_path, argv):
    # At p_fail 1 every grasp fails, so no trial clears its table.  The
    # command names the cap, with no traceback, and bench writes no report;
    # two jobs re-raise the error a worker raised.
    (tmp_path / "config.json").write_text(json.dumps({"p_fail": 1.0}))
    write_plan(tmp_path, tiers=["t1"], scenes_per_tier=2, p_fail=1.0)
    main(["generate", "--tier", "t1", "--count", "1", "--seed", "3", "--out", str(tmp_path)])
    done = _run_python(
        f"import os, sys; os.chdir({str(tmp_path)!r}); from declutter.cli import main; "
        f"sys.exit(main({argv!r}))"
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: policy ") and "actions without clearing" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_bench_paper_default_plan_shape(tmp_path):
    plan = write_plan(
        tmp_path,
        tiers=["t0_cups", "t0_bowls", "t0_utensils", "t1", "t2"],
        scenes_per_tier=3,
    )
    out = tmp_path / "bench45"
    rc = main(["bench", "--plan", str(plan), "--out", str(out)])
    assert rc == 0
    trials = (out / "trials.jsonl").read_text().strip().split("\n")
    assert len(trials) == 45
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 1 + 15


def _run_python(code: str):
    import os
    import subprocess
    import sys

    import declutter

    src = str(Path(declutter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_import_leaves_out_numpy_and_scipy():
    # The package has no runtime dependency; neither may load by accident.
    done = _run_python(
        "import sys, declutter.cli, declutter.timefit; "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_commands_load_neither_the_pool_nor_the_fitter(tmp_path):
    # Only ``bench --jobs`` above 1 starts a pool, and only ``fit-time``
    # fits; every other command, and the import itself, leaves their
    # modules out.
    plan = write_plan(tmp_path, tiers=["t0_cups"], scenes_per_tier=1)
    scenes = tmp_path / "scenes"
    scene = scenes / "scene_t0_cups_3_0.json"
    commands = [
        ["generate", "--tier", "t0_cups", "--count", "1", "--seed", "3", "--out", str(scenes)],
        ["run", "--scene", str(scene), "--policy", "pull"],
        ["show-config"],
        ["bench", "--plan", str(plan), "--out", str(tmp_path / "out"), "--jobs", "1"],
    ]
    done = _run_python(
        "import sys, declutter.cli\n"
        "heavy = {'multiprocessing', 'concurrent.futures', 'declutter.timefit', 'csv'}\n"
        "print(sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
        f"for argv in {commands!r}:\n"
        "    assert declutter.cli.main(argv) == 0, argv\n"
        "    print(argv[0], sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "[]", "generate []", "run []", "show-config []", "bench []",
    ]


def test_fit_time_runs_without_numpy_and_scipy():
    from declutter.config import DEFAULT_TIME_MODEL

    done = _run_python(
        "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None; "
        "from declutter.cli import main; raise SystemExit(main(['fit-time']))"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["time_model"] == dataclasses.asdict(DEFAULT_TIME_MODEL)
