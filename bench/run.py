"""Benchmark of the declutter simulator, run through the public API of src/.

    python3 bench/run.py --workload plan3000 --seed 7 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``plan3000``: ``harness.run_plan`` on every tier x 200 scenes x
  random/pull/stack, writing the report files, repeated until the time is up.
* ``dense``: ``policies.run_policy`` with pull and stack on 72-item scenes at
  tier-1 density, ``p_fail`` 0.
* ``dense-fail``: the same scenes and policies with ``p_fail`` 0.2; run by
  hand only, as it spreads too much between seeds to gate a change.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs a fixed share of the workload once untraced and once
traced and reports per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything runs in one process
with one job, except the fresh interpreters that time set-up and imports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

POLICIES = ("random", "pull", "stack")
DENSE_POLICIES = ("pull", "stack")
DENSE_ITEMS = 72
DENSE_P_FAIL = {"dense": 0.0, "dense-fail": 0.2}
SCALE_SIZES = (12, 24, 48, 72)
# Set-up is timed this many times per run: here, then in fresh interpreters.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Full and tiny (self-test) sizes: scenes per tier for plan3000, scenes and
# items per scene for dense, and the dense scenes the traced run covers.
SIZES = {
    False: {"scenes_per_tier": 200, "dense_scenes": 60, "dense_items": DENSE_ITEMS, "traced_scenes": 8},
    True: {"scenes_per_tier": 2, "dense_scenes": 2, "dense_items": 12, "traced_scenes": 2},
}
REPORT_FILES = ("summary.csv", "trials.jsonl", "traces.jsonl")
# One reference sample runs the reference loop this many times; end-to-end
# times are scaled so that one sample would take REFERENCE_S.
REFERENCE_ITERATIONS = 5000
REFERENCE_S = 0.001
REFERENCE_SAMPLES = 3
# plan3000 takes reference samples at every this many trials; a dense trial
# is scaled by this many samples on each side of it.
PLAN_REFERENCE_EVERY = 20
DENSE_REFERENCE_WINDOW = 3

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    **{f"trial_ms_p50.{p}": "ms" for p in DENSE_POLICIES},
    **{f"opt.{p}": "objects/trip" for p in DENSE_POLICIES},
    **{f"model_time_s.{p}": "model-s" for p in DENSE_POLICIES},
}

PER_LAYER = {
    "cli.import_s": "s",
    "declutter.import_s": "s",
    "tableware.generate_scene.calls": "count",
    "tableware.generate_scene.self_s": "s",
    "geometry.overlaps.calls": "count",
    "harness.run_plan.self_s": "s",
    "harness.bytes_written": "bytes",
    "metrics.build_report.self_s": "s",
    "metrics.aggregate.self_s": "s",
    **{f"policies.next_action.calls.{p}": "count" for p in POLICIES},
    **{f"policies.next_action.self_s.{p}": "s" for p in POLICIES},
    "actions.mog_grasp.calls": "count",
    "actions.mog_grasp.self_s": "s",
    "actions.mog_grasp.accept_ratio": "ratio",
    "actions.pull_allowable.calls": "count",
    "actions.pull_allowable.self_s": "s",
    "actions.pull_allowable.accept_ratio": "ratio",
    "actions.grasp_gap.calls": "count",
    "actions.grasp_gap.self_s": "s",
    "actions.plan_pull.calls": "count",
    "geometry.corridor_clear.calls": "count",
    "geometry.corridor_clear.self_s": "s",
    "geometry.sweep_first_contact.calls": "count",
    "tableware.stack_footprints.calls": "count",
    "actions.stack_allowable.calls": "count",
    "actions.stack_allowable.accept_ratio": "ratio",
    "actions.grasp_points.calls": "count",
    "actions.apply.calls": "count",
    "actions.apply.self_s": "s",
    **{f"scale.n{n}.pull_ms": "ms" for n in SCALE_SIZES},
    **{f"scale.n{n}.pull_allowable.calls": "count" for n in SCALE_SIZES},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_cover": "ratio",
}


# ---------------------------------------------------------------------------
# Reference speed
# ---------------------------------------------------------------------------
#
# On a virtual machine with shared cores the same code ran up to 2x slower
# for tens of seconds at a time while neighbours were busy, which swamps any
# change worth measuring.  So every timed region is bracketed by
# samples of a fixed pure-Python loop that uses no declutter code, and
# end-to-end times are reported at reference speed: measured time x
# REFERENCE_S / reference sample time.  A faster or slower program moves them;
# a machine in a slow phase moves them far less than it moves raw times.
# Raw times are printed alongside.


def _reference_work(n: int) -> float:
    # Float maths and calls only: it allocates no tracked objects, so it
    # does not move the garbage collector's schedule for the code measured.
    total = 0.0
    for i in range(n):
        x, y = i * 0.5, i * 0.25
        total += math.hypot(x - 1.0, y + 2.0)
    return total


def reference_sample() -> float:
    """Median time of REFERENCE_SAMPLES runs of the reference loop."""
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        _reference_work(REFERENCE_ITERATIONS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, reference: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(reference)


class Stopwatch:
    """Wall time of a region, with reference samples taken just before it,
    at checkpoints inside it (their time is taken out) and just after it."""

    def __init__(self):
        self.samples = [reference_sample()]
        self.sampling_s = 0.0
        self.start = time.perf_counter()

    def checkpoint(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_sample())
        self.sampling_s += time.perf_counter() - start

    def stop(self) -> tuple[float, float]:
        """(raw seconds, seconds at reference speed)."""
        raw = time.perf_counter() - self.start - self.sampling_s
        self.samples.append(reference_sample())
        return raw, at_reference_speed(raw, self.samples)


# ---------------------------------------------------------------------------
# Set-up: what a user pays before the first trial
# ---------------------------------------------------------------------------


def _require_source() -> None:
    if not (SRC / "declutter" / "__init__.py").is_file():
        sys.exit(f"error: no declutter sources under {SRC}; run from a checkout of the repository")
    os.environ.pop("DECLUTTER_CONFIG", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, tiny: bool):
    """Import the CLI, load the config and build the workload's inputs.

    Returns (sim, inputs, (raw seconds, seconds at reference speed)).  In a
    fresh interpreter this is the set-up cost; the imports are the ones
    every ``declutter`` command pays.
    """
    watch = Stopwatch()
    import declutter.cli  # noqa: F401
    from declutter import config

    watch.checkpoint()
    sim = config.load_config()
    sizes = SIZES[tiny]
    if workload == "plan3000":
        from declutter.harness import plan_from_json

        inputs = plan_from_json(json.dumps({
            "tiers": ["t0_cups", "t0_bowls", "t0_utensils", "t1", "t2"],
            "scenes_per_tier": sizes["scenes_per_tier"],
            "policies": list(POLICIES),
            "base_seed": seed,
            "bin_delays": [0, 3, 5],
            "p_fail": 0.0,
        }))
    else:
        sim = replace(sim, p_fail=DENSE_P_FAIL[workload])
        inputs = []
        for i in range(sizes["dense_scenes"]):
            inputs.append(dense_scene(sim, sizes["dense_items"], seed, "dense", i))
            watch.checkpoint()
    return sim, inputs, watch.stop()


def dense_scene(sim, items: int, seed: int, stream: str, index: int):
    """A t1-mix scene of ``items`` dishes at tier-1 density: the workspace
    grows by sqrt(items / 12) per side, so area per item stays constant."""
    from declutter.rng import derive_seed
    from declutter.tableware import Tier, TierConfig, generate_scene

    third = items // 3
    scale = math.sqrt(items / 12)
    workspace = (sim.workspace[0] * scale, sim.workspace[1] * scale)
    cfg = TierConfig(Tier.T1, n_cups=third, n_bowls=third, n_utensils=items - 2 * third)
    return generate_scene(cfg, derive_seed(seed, stream, index), sim.dish_specs, workspace)


def _fresh_python(args: list[str], env: dict | None = None) -> str:
    """Run a fresh interpreter in the checkout; return its last output line."""
    import subprocess

    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=150, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(first: tuple, workload: str, seed: int, tiny: bool) -> list[tuple]:
    """(raw, reference-speed) set-up times: this process's, then those of
    fresh interpreters."""
    child = [str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if tiny:
        child.append("--tiny")
    return [first] + [
        tuple(map(float, _fresh_python(child).split())) for _ in range(SETUP_REPEATS - 1)
    ]


def import_seconds(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if k != "DECLUTTER_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return statistics.median(
        float(_fresh_python(["-c", code], env)) for _ in range(IMPORT_REPEATS)
    )


# ---------------------------------------------------------------------------
# Trials and their checks
# ---------------------------------------------------------------------------


class Tally:
    """Trials attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def policy_configs() -> dict:
    from declutter.policies import PolicyConfig

    return {p: PolicyConfig.named(p) for p in POLICIES}


def run_trial(scene, index: int, policy: str, configs: dict, sim, seed: int, tally: Tally):
    """Run one policy on one scene; return its report, or None if it failed.

    A trial fails when it raises or leaves dishes on the table.
    """
    from declutter.metrics import build_report
    from declutter.policies import run_policy
    from declutter.rng import derive_seed

    tally.attempted += 1
    try:
        trace = run_policy(scene, configs[policy], sim, derive_seed(seed, "trial", index, policy))
        report = build_report(trace, sim.time_model, scene_id=f"dense_{index}")
    except Exception as exc:  # a failed trial is counted, not fatal
        tally.fail(f"scene {index} {policy}: {type(exc).__name__}: {exc}")
        return None
    if trace.final_state.stacks or report.objects_cleared != len(scene.dishes):
        tally.fail(f"scene {index} {policy}: table not cleared")
        return None
    return report


def simulated(reports) -> dict:
    """Pooled OpT and mean modelled time for each dense policy."""
    out = {}
    for p in DENSE_POLICIES:
        rs = [r for r in reports if r.policy == p]
        if not rs:
            raise RuntimeError(f"no successful {p} trials")
        out[f"opt.{p}"] = sum(r.objects_cleared for r in rs) / sum(r.trips for r in rs)
        out[f"model_time_s.{p}"] = sum(r.time_s for r in rs) / len(rs)
    return out


def file_hashes(out_dir: Path) -> dict:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in REPORT_FILES
    }


def check_plan_reports(reports, plan, tally: Tally) -> None:
    from declutter.tableware import TierConfig

    expected = len(plan.tiers) * plan.scenes_per_tier * len(plan.policies)
    tally.attempted += expected
    if len(reports) != expected:
        tally.failed += expected - len(reports)
        tally.errors.append(f"run_plan returned {len(reports)} of {expected} reports")
    for r in reports:
        if r.objects_cleared != TierConfig.preset(r.tier).total:
            tally.fail(f"{r.scene_id} {r.policy}: table not cleared")


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


class TrialTimer:
    """Wrapper for the ``run_policy`` bindings during plan3000: times each
    trial, and checkpoints ``watch`` before every PLAN_REFERENCE_EVERY-th."""

    def __init__(self, watch: Stopwatch):
        self.watch = watch
        self.spans: list[tuple[str, float]] = []

    def wrap(self, name: str, fn):
        from tracing import policy_label

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if len(self.spans) % PLAN_REFERENCE_EVERY == 0:
                self.watch.checkpoint()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((policy_label(args, kwargs), time.perf_counter() - start))

        return timed


def measure_plan(plan, sim, seconds: float, out_dir: Path, tally: Tally, notes: dict) -> dict:
    """Run the plan until ``seconds`` have passed (at least once).

    Each trial is timed at the ``run_policy`` bindings; everything else in
    the package runs unwrapped.  Each repeat, and every trial in it, is
    scaled to reference speed by the reference samples of its stopwatch.
    """
    from declutter.harness import run_plan
    from tracing import Rebinding, declutter_modules

    walls, raw_walls, hashes, first = [], [], [], None
    spans: dict = {p: [] for p in DENSE_POLICIES}
    raw_spans: dict = {p: [] for p in DENSE_POLICIES}
    modules = declutter_modules()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        timer = TrialTimer(Stopwatch())
        with Rebinding(modules, timer.wrap, only={"policies.run_policy"}):
            reports, _ = run_plan(plan, sim, out_dir)
            raw_wall, wall = timer.watch.stop()
        raw_walls.append(raw_wall)
        walls.append(wall)
        for policy, span in timer.spans:
            if policy in spans:
                spans[policy].append(at_reference_speed(span, timer.watch.samples))
                raw_spans[policy].append(span)
        hashes.append(file_hashes(out_dir))
        check_plan_reports(reports, plan, tally)
        first = first or reports
    if any(h != hashes[0] for h in hashes):
        tally.errors.append("report files differ between repeats of one plan")
    notes["hashes"] = hashes[0]
    notes["repeats"] = len(walls)
    metrics = {"trials_per_s": len(first) / statistics.median(walls)}
    notes["raw"] = {"trials_per_s": len(first) / statistics.median(raw_walls)}
    for p in DENSE_POLICIES:
        metrics[f"trial_ms_p50.{p}"] = 1000.0 * statistics.median(spans[p])
        notes["raw"][f"trial_ms_p50.{p}"] = 1000.0 * statistics.median(raw_spans[p])
        notes[f"samples.{p}"] = len(spans[p])
    metrics.update(simulated(first))
    return metrics


def measure_dense(scenes, sim, seconds: float, tally: Tally, notes: dict) -> dict:
    """Run pull and stack on every scene in turn until ``seconds`` have
    passed, completing at least one pass.

    Reference samples sit between trials; a trial is scaled by the median
    of the DENSE_REFERENCE_WINDOW samples on each side of it.  A scene met
    more than once contributes the median of its times, so the metrics do
    not depend on how far a partial pass got.
    """
    configs = policy_configs()
    trials = [(i, p) for i in range(len(scenes)) for p in DENSE_POLICIES]
    raw: dict = {key: [] for key in trials}
    timed = []  # (trial, seconds, index of the sample just before it)
    samples = [reference_sample()]
    first: dict = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(trials) or time.perf_counter() < deadline:
        i, p = trials[k % len(trials)]
        k += 1
        start = time.perf_counter()
        report = run_trial(scenes[i], i, p, configs, sim, notes["seed"], tally)
        elapsed = time.perf_counter() - start
        samples.append(reference_sample())
        if report is not None:
            timed.append(((i, p), elapsed, len(samples) - 2))
            raw[(i, p)].append(elapsed)
            if first.setdefault((i, p), report).to_json_obj() != report.to_json_obj():
                tally.errors.append(f"scene {i} {p}: outcome differs between repeats")
    times: dict = {key: [] for key in trials}
    w = DENSE_REFERENCE_WINDOW
    for key, elapsed, j in timed:
        times[key].append(at_reference_speed(elapsed, samples[max(0, j + 1 - w): j + 1 + w]))
    notes["raw"] = trial_timings(raw, notes)
    metrics = trial_timings(times, notes)
    metrics.update(simulated(first.values()))
    return metrics


def trial_timings(times: dict, notes: dict) -> dict:
    """Throughput and median trial time from each trial's median time."""
    per_trial = {key: statistics.median(ts) for key, ts in times.items() if ts}
    out = {"trials_per_s": len(per_trial) / sum(per_trial.values())}
    for p in DENSE_POLICIES:
        ms = [1000.0 * t for (_, q), t in per_trial.items() if q == p]
        out[f"trial_ms_p50.{p}"] = statistics.median(ms)
        notes[f"samples.{p}"] = len(ms)
    return out


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def traced_pass(workload: str, sim, inputs, out_dir: Path, tally: Tally, notes: dict):
    """Run a fixed share of the workload untraced, then traced.

    Returns (tracer, untraced wall, traced wall).  Both runs must give the
    same outputs: the report files' hashes for plan3000, the trial reports
    for dense*.
    """
    from tracing import Tracer, declutter_modules

    if workload == "plan3000":
        from declutter import harness

        def work():
            # looked up at call time, so the traced pass calls the wrapper
            reports, _ = harness.run_plan(inputs, sim, out_dir)
            check_plan_reports(reports, inputs, tally)
            return file_hashes(out_dir)
    else:
        configs = policy_configs()
        scenes = inputs[: SIZES[notes["tiny"]]["traced_scenes"]]

        def work():
            reports = [
                run_trial(scene, i, p, configs, sim, notes["seed"], tally)
                for i, scene in enumerate(scenes)
                for p in DENSE_POLICIES
            ]
            return [r.to_json_obj() for r in reports if r is not None]

    start = time.perf_counter()
    untraced = work()
    untraced_wall = time.perf_counter() - start
    tracer = Tracer()
    with tracer.install(declutter_modules()):
        start = time.perf_counter()
        traced = work()
        traced_wall = time.perf_counter() - start
    if traced != untraced:
        tally.errors.append("traced and untraced outputs differ")
    if workload == "plan3000":
        notes["hashes"] = untraced
        notes["bytes_written"] = sum((out_dir / f).stat().st_size for f in os.listdir(out_dir))
        distinct = len(tracer.distinct["tableware.generate_scene"])
        calls = tracer.total(tracer.calls, "tableware.generate_scene")
        expected = len(inputs.tiers) * inputs.scenes_per_tier
        print(f"generate_scene: {calls} calls for {distinct} distinct scenes "
              f"({calls / max(distinct, 1):.2f} per scene; the plan has {expected})")
        if distinct != expected:
            tally.errors.append(f"generated {distinct} distinct scenes, plan has {expected}")
    return tracer, untraced_wall, traced_wall


def scale_metrics(sim, seed: int, tally: Tally) -> dict:
    """One pull trial per scene size at tier-1 density: untraced time, then
    traced ``pull_allowable`` calls."""
    from tracing import Tracer, declutter_modules

    configs = policy_configs()
    pull_sim = replace(sim, p_fail=0.0)
    out = {}
    for n in SCALE_SIZES:
        scene = dense_scene(pull_sim, n, seed, "scale", n)
        times = []
        while not times or (sum(times) < 0.3 and len(times) < 50):
            start = time.perf_counter()
            run_trial(scene, n, "pull", configs, pull_sim, seed, tally)
            times.append(time.perf_counter() - start)
        tracer = Tracer()
        with tracer.install(declutter_modules(), only={"actions.pull_allowable"}):
            run_trial(scene, n, "pull", configs, pull_sim, seed, tally)
        out[f"scale.n{n}.pull_ms"] = 1000.0 * statistics.median(times)
        out[f"scale.n{n}.pull_allowable.calls"] = tracer.total(tracer.calls, "actions.pull_allowable")
    return out


def layer_metrics(tracer, untraced_wall: float, traced_wall: float, notes: dict) -> dict:
    calls = lambda name: tracer.total(tracer.calls, name)  # noqa: E731
    self_s = lambda name: tracer.total(tracer.self_s, name)  # noqa: E731

    def accept_ratio(name: str) -> float:
        # 0 when the layer was not called in this workload
        return tracer.total(tracer.accepted, name) / calls(name) if calls(name) else 0.0

    out = {
        "tableware.generate_scene.calls": calls("tableware.generate_scene"),
        "tableware.generate_scene.self_s": self_s("tableware.generate_scene"),
        "geometry.overlaps.calls": calls("geometry.overlaps"),
        "harness.run_plan.self_s": self_s("harness.run_plan"),
        "harness.bytes_written": notes.get("bytes_written", 0),
        "metrics.build_report.self_s": self_s("metrics.build_report"),
        "metrics.aggregate.self_s": self_s("metrics.aggregate"),
    }
    for p in POLICIES:
        out[f"policies.next_action.calls.{p}"] = tracer.calls[("policies.next_action", p)]
        out[f"policies.next_action.self_s.{p}"] = tracer.self_s[("policies.next_action", p)]
    for name in ("actions.mog_grasp", "actions.pull_allowable", "actions.grasp_gap",
                 "geometry.corridor_clear", "actions.apply"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("actions.mog_grasp", "actions.pull_allowable", "actions.stack_allowable"):
        out[f"{name}.accept_ratio"] = accept_ratio(name)
    for name in ("actions.plan_pull", "geometry.sweep_first_contact",
                 "tableware.stack_footprints", "actions.stack_allowable", "actions.grasp_points"):
        out[f"{name}.calls"] = calls(name)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.self_cover"] = tracer.covered_s() / traced_wall
    return out


def print_top_layers(tracer, wall: float, count: int = 12) -> None:
    totals: dict = {}
    for (name, _), s in tracer.self_s.items():
        totals[name] = totals.get(name, 0.0) + s
    print(f"traced wall {wall:.3f} s; layers by self time:")
    for name, s in sorted(totals.items(), key=lambda kv: -kv[1])[:count]:
        print(f"  {name:36s} {s:8.3f} s {100 * s / wall:5.1f}%  calls={tracer.total(tracer.calls, name)}")


# ---------------------------------------------------------------------------
# Record and entry point
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    """The machine and the code measured, kept next to every result."""
    from importlib import metadata

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        import tomllib

        deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    except (ImportError, OSError, KeyError, ValueError):
        deps = None
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "declutter").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": src_lines,
        "dependencies": deps,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["plan3000", "dense", "dense-fail"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long an untraced run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time, raw and at "
                             "reference speed, and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_source()
    sim, inputs, first_setup = setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(*first_setup)
        return 0
    tally = Tally()
    notes = {"seed": args.seed, "tiny": args.tiny}
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer, untraced_wall, traced_wall = traced_pass(
                args.workload, sim, inputs, out_dir, tally, notes)
            print_top_layers(tracer, traced_wall)
            metrics = layer_metrics(tracer, untraced_wall, traced_wall, notes)
            metrics.update(scale_metrics(sim, args.seed, tally))
            metrics["cli.import_s"] = import_seconds("declutter.cli")
            metrics["declutter.import_s"] = import_seconds("declutter")
            units = PER_LAYER
        else:
            if args.workload == "plan3000":
                metrics = measure_plan(inputs, sim, args.seconds, out_dir, tally, notes)
            else:
                metrics = measure_dense(inputs, sim, args.seconds, tally, notes)
            metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = setup_seconds(first_setup, args.workload, args.seed, args.tiny)
            metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
            notes["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
            notes["setup_samples"] = setups
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if "hashes" in notes:
        for name, digest in notes["hashes"].items():
            print(f"sha256 {name} {digest}")
    for p in DENSE_POLICIES:
        if f"samples.{p}" in notes:
            print(f"trial_ms_p50.{p}: {notes[f'samples.{p}']} samples")
    for name, value in notes.get("raw", {}).items():
        print(f"raw {name}: {value:.6g} (at reference speed: {metrics[name]:.6g})")
    for message in tally.errors:
        print(f"error: {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, **machine_record(),
        **{k: v for k, v in notes.items() if k not in ("seed", "tiny")},
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
