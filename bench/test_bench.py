"""Self-tests of the benchmark: run with ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("plan3000", "dense", "dense-fail")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, seed: int = 3) -> dict:
    done = run_bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): result(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric_with_its_unit(results, workload, trace, section):
    out = results[(workload, trace)]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_exactly_at_one_seed(results, workload):
    again = result(workload, 0)
    for name, value in results[(workload, 0)]["metrics"].items():
        if name.startswith(("opt.", "model_time_s.")):
            assert again["metrics"][name] == value, name


def test_every_wrapped_binding_is_restored():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import run
        from tracing import Tracer, declutter_modules

        modules = declutter_modules()
        before = [dict(vars(m)) for m in modules]
        sim, scenes, _ = run.setup("dense", 3, tiny=True)
        tracer = Tracer()
        with tracer.install(modules):
            from declutter import actions, policies

            assert policies.mog_grasp is not before[modules.index(policies)]["mog_grasp"]
            assert policies.mog_grasp is actions.mog_grasp
            run.run_trial(scenes[0], 0, "pull", run.policy_configs(), sim, 3, run.Tally())
        assert tracer.total(tracer.calls, "actions.mog_grasp") > 0
        for module, saved in zip(modules, before):
            changed = [k for k, v in saved.items() if vars(module).get(k) is not v]
            assert not changed, (module.__name__, changed)
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("dense", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
