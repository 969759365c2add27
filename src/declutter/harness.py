"""Experiment orchestration: scene corpora, batch trials, and reports.

A plan names the tiers, the number of scenes per tier, the policies, and a
base seed.  Scene and trial seeds are derived as pure functions of
(base seed, tier, scene index, policy), so adding a policy or scenes never
perturbs existing trials, and output files are byte-identical across runs
and across parallelism degrees (scenes are written in canonical order as
they finish).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .config import SimConfig
from .errors import SchemaError, from_number_fields, known_keys, number
from .metrics import (
    BASELINE,
    PolicySummary,
    TimeModel,
    TrialReport,
    aggregate,
    build_report,
    summary_csv,
)
from .policies import PolicyConfig, Trace, run_policy
from .rng import derive_seed
from .tableware import Tier, TierConfig, generate_scene, scene_to_json

# ``json.dumps`` minus the cycle check: ``apply`` makes each event a new tree.
encode_json = json.JSONEncoder(check_circular=False).encode


def trace_lines(trace: Trace, **key) -> str:
    """The trace's JSON lines, one per event: ``key``'s items, the step
    number ``t``, then the event."""
    return "".join(encode_json({**key, "t": t, **e}) + "\n" for t, e in enumerate(trace.events))


@dataclass
class ExperimentPlan:
    """An experiment; ``time_model`` and ``p_fail`` override the config's
    values when set."""

    tiers: list[Tier]
    scenes_per_tier: int
    policies: list[PolicyConfig]
    base_seed: int
    time_model: TimeModel | None = None
    p_fail: float | None = None
    bin_delays: list[float] = field(default_factory=list)

    def __post_init__(self):
        # Empty or nonsensical plans are usage errors, not file-format ones.
        if self.scenes_per_tier < 1:
            raise ValueError("scenes_per_tier must be >= 1")
        if not self.policies:
            raise ValueError("plan needs at least one policy")
        if not self.tiers:
            raise ValueError("plan needs at least one tier")
        # Trials are told apart by (scene, policy kind) in every report file.
        if len(set(self.tiers)) != len(self.tiers):
            raise ValueError("tiers must not repeat")
        if len({p.kind for p in self.policies}) != len(self.policies):
            raise ValueError("policies must not repeat a kind")
        # The summaries' ratios divide by the baseline; check it before any trial runs.
        if not any(p.kind.value == BASELINE for p in self.policies):
            raise ValueError(f"plan needs the '{BASELINE}' baseline policy")
        if any(d < 0 for d in self.bin_delays):
            raise ValueError("bin_delays must be >= 0")
        if len(set(self.bin_delays)) != len(self.bin_delays):
            raise ValueError("bin_delays must not repeat")


_PLAN_KEYS = (
    "tiers", "scenes_per_tier", "policies", "base_seed", "time_model", "p_fail", "bin_delays"
)


def plan_from_json(text: str) -> ExperimentPlan:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"plan file is not valid JSON: {exc}") from exc
    known_keys(data, _PLAN_KEYS, "plan")
    if not isinstance(data.get("tiers", []), list):
        raise SchemaError("plan: tiers must be a list")
    try:
        tiers = [Tier(t) for t in data["tiers"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"plan tiers malformed: {exc}") from exc
    raw_policies = data.get("policies", [])
    if not isinstance(raw_policies, list):
        raise SchemaError("plan: policies must be a list")
    policies = []
    for p in raw_policies:
        if isinstance(p, dict):
            known_keys(p, ("kind", "utensil_stacking"), "plan policy")
        try:
            if isinstance(p, str):
                policies.append(PolicyConfig.named(p))
            elif isinstance(p, dict):
                policies.append(
                    PolicyConfig.named(p.get("kind", ""), p.get("utensil_stacking"))
                )
            else:
                raise ValueError(f"not a policy entry: {p!r}")
        except ValueError as exc:
            raise SchemaError(f"plan policy malformed: {exc}") from exc
    tm = None
    if "time_model" in data:
        tm = from_number_fields(TimeModel, data["time_model"], "plan: time_model")
    if "base_seed" not in data:
        raise SchemaError("plan needs a base_seed")
    bin_delays = data.get("bin_delays", [])
    if not isinstance(bin_delays, list):
        raise SchemaError("plan: bin_delays must be a list of numbers")
    return ExperimentPlan(
        tiers=tiers,
        scenes_per_tier=number(data.get("scenes_per_tier", 3), "plan: scenes_per_tier", True),
        policies=policies,
        base_seed=number(data["base_seed"], "plan: base_seed", True),
        time_model=tm,
        p_fail=float(number(data["p_fail"], "plan: p_fail")) if "p_fail" in data else None,
        bin_delays=[float(number(d, "plan: bin_delays")) for d in bin_delays],
    )


def scene_seed(base_seed: int, tier: Tier, index: int) -> int:
    return derive_seed(base_seed, "scene", tier.value, index)


def trial_seed(base_seed: int, tier: Tier, index: int, policy: str) -> int:
    return derive_seed(base_seed, "trial", tier.value, index, policy)


def scene_filename(tier: Tier, base_seed: int, index: int) -> str:
    return f"scene_{tier.value}_{base_seed}_{index}.json"


def generate_scene_files(
    tier: Tier, count: int, seed: int, out_dir: str | Path, sim: SimConfig
) -> list[Path]:
    """Write ``count`` scene files for a tier; idempotent for equal inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = TierConfig.preset(tier)
    paths = []
    for k in range(count):
        scene = generate_scene(cfg, scene_seed(seed, tier, k), sim.dish_specs, sim.workspace)
        path = out / scene_filename(tier, seed, k)
        path.write_text(scene_to_json(scene) + "\n")
        paths.append(path)
    return paths


def _run_scene(
    args: tuple[ExperimentPlan, SimConfig, Tier, int],
) -> list[tuple[TrialReport, str]]:
    """Generate scene ``index`` of ``tier`` once and run every plan policy on
    it; returns each trial's report and its ``traces.jsonl`` lines."""
    plan, sim, tier, index = args
    seed = scene_seed(plan.base_seed, tier, index)
    scene = generate_scene(TierConfig.preset(tier), seed, sim.dish_specs, sim.workspace)
    trials = []
    for policy in plan.policies:
        trace = run_policy(
            scene, policy, sim, trial_seed(plan.base_seed, tier, index, policy.kind.value)
        )
        report = build_report(trace, sim.time_model, f"{tier.value}_{index}")
        trials.append((report, trace_lines(trace, scene_id=report.scene_id, policy=report.policy)))
    return trials


def run_plan(
    plan: ExperimentPlan, sim: SimConfig, out_dir: str | Path, jobs: int = 1
) -> tuple[list[TrialReport], list[PolicySummary]]:
    """Execute every trial in the plan and write the report files.

    Writes ``trials.jsonl`` (one report per line), ``traces.jsonl`` (one
    event per line), ``summary.csv``, and, when a bin-delay sweep is
    configured, one ``summary_delay_<d>s.csv`` per delay.  Each scene is
    generated once and every policy runs on it; scenes may run in parallel,
    on at most ``jobs`` worker processes and never more than there are
    scenes.  Scenes are consumed in canonical (tier, scene index, policy)
    order, whether serial or pooled, and each scene's lines are appended as
    soon as it returns, so only the reports stay in memory.  The files are
    written under temporary names and moved onto their real names once all
    are complete: a plan that raises leaves the out dir's files as they were.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if plan.p_fail is not None:
        sim = replace(sim, p_fail=plan.p_fail)  # SimConfig range-checks it
    if plan.time_model is not None:
        sim = replace(sim, time_model=plan.time_model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scenes = [(plan, sim, tier, k) for tier in plan.tiers for k in range(plan.scenes_per_tier)]
    workers = min(jobs, len(scenes))
    if workers > 1:
        # Imported here, so that runs without a pool never load it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _write_reports(plan, sim, out, pool.map(_run_scene, scenes))
    return _write_reports(plan, sim, out, map(_run_scene, scenes))


def _write_reports(
    plan: ExperimentPlan,
    sim: SimConfig,
    out: Path,
    per_scene: Iterable[list[tuple[TrialReport, str]]],
) -> tuple[list[TrialReport], list[PolicySummary]]:
    """Append each scene's trials as it arrives, then write the summaries."""
    reports = []
    with _staged(out) as stage:
        with stage("trials.jsonl") as trials, stage("traces.jsonl") as traces:
            for scene_trials in per_scene:
                for report, trace_lines in scene_trials:
                    reports.append(report)
                    trials.write(encode_json(report.to_json_obj()) + "\n")
                    traces.write(trace_lines)

        summaries = aggregate(reports)
        with stage("summary.csv") as fh:
            fh.write(summary_csv(summaries))
        for delay in plan.bin_delays:
            swept = [_with_delay(r, sim.time_model, delay) for r in reports]
            with stage(f"summary_delay_{_fmt_delay(delay)}s.csv") as fh:
                fh.write(summary_csv(aggregate(swept)))
    return reports, summaries


@contextmanager
def _staged(out: Path):
    """Yields ``stage(name)``, which opens ``out/name`` for writing under a
    temporary name.  On a clean exit every staged file is moved onto its
    real name; on an exception every one is removed."""
    staged: dict[Path, Path] = {}

    def stage(name: str):
        path = out / f".{name}.partial"
        staged[path] = out / name
        return path.open("w")

    try:
        yield stage
    except BaseException:
        for path in staged:
            path.unlink(missing_ok=True)
        raise
    for path, final in staged.items():
        os.replace(path, final)


def _fmt_delay(delay: float) -> str:
    return str(int(delay)) if float(delay).is_integer() else str(delay)


def _with_delay(report: TrialReport, tm: TimeModel, delay: float) -> TrialReport:
    """Report with the bin moved further away: travel gains ``delay`` each way."""
    extra = 2.0 * (delay - tm.bin_delay_s) * report.trips
    return TrialReport(  # built directly: ``replace`` costs five times more
        report.scene_id, report.tier, report.policy, report.trips,
        report.objects_cleared, report.opt, report.time_s + extra, report.failures)
