"""Calibrate the time model against reference benchmark timings.

The physical reference runs (one trial per policy per scene, three scenes
per tier) reported total clearing time, objects per trip, and failures per
(tier, policy) row.  This module replays the same experiment shape in the
simulator to obtain action counts per row and solves a non-negative least
squares problem for the per-primitive times.  Rows are weighted by the
inverse of the observed time, so the fit minimizes relative residuals.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import nnls

from .errors import SchemaError
from .harness import scene_seed, trial_seed
from .metrics import TimeModel, action_counts
from .policies import PolicyConfig, run_policy
from .tableware import Tier, TierConfig, generate_scene

if TYPE_CHECKING:
    from .config import SimConfig

# Reference physical benchmark: (tier, policy, time_s, opt, failures).
REFERENCE_ROWS: list[tuple[str, str, float, float, int]] = [
    ("t0_cups", "random", 78.2, 0.8, 0),
    ("t0_cups", "stack", 58.5, 2.0, 0),
    ("t0_cups", "pull", 48.8, 1.6, 2),
    ("t0_bowls", "random", 63.3, 1.0, 0),
    ("t0_bowls", "stack", 60.2, 2.0, 0),
    ("t0_bowls", "pull", 41.3, 1.8, 0),
    ("t0_utensils", "random", 64.1, 1.0, 0),
    ("t0_utensils", "stack", 64.3, 1.8, 0),
    ("t0_utensils", "pull", 55.3, 1.8, 1),
    ("t1", "random", 121.3, 1.0, 1),
    ("t1", "stack", 111.3, 2.0, 2),
    ("t1", "pull", 102.1, 1.6, 3),
    ("t2", "random", 93.5, 1.4, 0),
    ("t2", "stack", 88.2, 2.6, 2),
    ("t2", "pull", 84.2, 2.3, 3),
]

FIT_BASE_SEED = 97
FIT_SCENES_PER_TIER = 3

REFERENCE_CSV_HEADER = "tier,policy,time_s,opt,failures"


def reference_table_csv() -> str:
    lines = [REFERENCE_CSV_HEADER]
    for tier, policy, time_s, opt, failures in REFERENCE_ROWS:
        lines.append(f"{tier},{policy},{time_s},{opt},{failures}")
    return "\n".join(lines) + "\n"


def parse_reference_csv(text: str) -> list[tuple[str, str, float]]:
    """Parse a reference table CSV into (tier, policy, time_s) rows."""
    reader = csv.DictReader(io.StringIO(text))
    rows: list[tuple[str, str, float]] = []
    if reader.fieldnames is None or not {"tier", "policy", "time_s"} <= set(
        reader.fieldnames
    ):
        raise SchemaError("reference table needs columns tier,policy,time_s")
    for record in reader:
        try:
            rows.append((record["tier"], record["policy"], float(record["time_s"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad reference row: {record}") from exc
    if not rows:
        raise SchemaError("reference table is empty")
    return rows


@dataclass
class FitResult:
    time_model: TimeModel
    relative_rms_residual: float
    rows: list[dict]  # per-row tier/policy/observed/predicted


def simulated_counts(
    sim: "SimConfig",
    base_seed: int = FIT_BASE_SEED,
    scenes_per_tier: int = FIT_SCENES_PER_TIER,
) -> dict[tuple[str, str], tuple[float, float, float, float]]:
    """Mean (grasps, pulls, stack placements, trips) per (tier, policy)."""
    counts: dict[tuple[str, str], tuple[float, float, float, float]] = {}
    policies = [PolicyConfig.named(name) for name in ("random", "pull", "stack")]
    for tier in Tier:
        cfg = TierConfig.preset(tier)
        scenes = [
            generate_scene(cfg, scene_seed(base_seed, tier, k), sim.dish_specs, sim.workspace)
            for k in range(scenes_per_tier)
        ]
        for policy in policies:
            totals = np.zeros(4)
            for k, scene in enumerate(scenes):
                seed = trial_seed(base_seed, tier, k, policy.kind.value)
                trace = run_policy(scene, policy, sim, seed)
                totals += np.array(action_counts(trace), dtype=float)
            counts[(tier.value, policy.kind.value)] = tuple(totals / scenes_per_tier)
    return counts


def fit_time_model(
    counts: dict[tuple[str, str], tuple[float, float, float, float]],
    reference: list[tuple[str, str, float]] | None = None,
) -> FitResult:
    """Solve min ||W(Ax - b)|| with x >= 0 for per-primitive times.

    Columns are (grasp phases, pull phases, stack placements, round trips);
    W weights each row by 1/observed so the residual is relative.
    """
    reference = reference or [(t, p, s) for t, p, s, _, _ in REFERENCE_ROWS]
    rows = []
    a_rows = []
    b = []
    for tier, policy, observed in reference:
        key = (tier, policy)
        if key not in counts:
            raise SchemaError(f"no simulated counts for {key}")
        grasps, pulls, stacks, trips = counts[key]
        a_rows.append([grasps, pulls, stacks, 2.0 * trips])
        b.append(observed)
        rows.append({"tier": tier, "policy": policy, "observed": observed})
    a = np.asarray(a_rows, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    weights = 1.0 / b_arr
    solution, _ = nnls(a * weights[:, None], b_arr * weights)
    predicted = a @ solution
    rel = (predicted - b_arr) / b_arr
    rms = float(np.sqrt(np.mean(rel**2)))
    for row, pred in zip(rows, predicted):
        row["predicted"] = float(pred)
    tm = TimeModel(
        grasp_s=round(float(solution[0]), 4),
        pull_s=round(float(solution[1]), 4),
        stack_s=round(float(solution[2]), 4),
        travel_s=round(float(solution[3]), 4),
        bin_delay_s=0.0,
    )
    return FitResult(time_model=tm, relative_rms_residual=rms, rows=rows)
