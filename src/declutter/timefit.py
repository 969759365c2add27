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
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SchemaError
from .harness import scene_seed, trial_seed
from .metrics import TimeModel
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
            time_s = float(record["time_s"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad reference row: {record}") from exc
        if not 0.0 < time_s < math.inf:
            raise SchemaError(f"bad reference row: {record}: time_s must be positive and finite")
        rows.append((record["tier"], record["policy"], time_s))
    if not rows:
        raise SchemaError("reference table is empty")
    return rows


@dataclass
class FitResult:
    time_model: TimeModel
    relative_rms_residual: float
    rows: list[dict]  # per-row tier/policy/observed/predicted


def simulated_counts(sim: "SimConfig") -> dict[tuple[str, str], tuple[float, float, float, float]]:
    """Mean (grasps, pulls, stack placements, trips) per (tier, policy)."""
    counts: dict[tuple[str, str], tuple[float, float, float, float]] = {}
    policies = [PolicyConfig.named(name) for name in ("random", "pull", "stack")]
    for tier in Tier:
        cfg = TierConfig.preset(tier)
        scenes = [
            generate_scene(cfg, scene_seed(FIT_BASE_SEED, tier, k), sim.dish_specs, sim.workspace)
            for k in range(FIT_SCENES_PER_TIER)
        ]
        for policy in policies:
            totals = (0, 0, 0, 0)
            for k, scene in enumerate(scenes):
                seed = trial_seed(FIT_BASE_SEED, tier, k, policy.kind.value)
                trace = run_policy(scene, policy, sim, seed)
                totals = tuple(map(sum, zip(totals, trace.counts()[:4])))
            counts[(tier.value, policy.kind.value)] = tuple(t / FIT_SCENES_PER_TIER for t in totals)
    return counts


def _dot(u, v) -> float:
    return sum(p * q for p, q in zip(u, v))


def _solve(m: list[list[float]], v: list[float]) -> list[float] | None:
    """x with m x = v for a Gram matrix m (Gauss-Jordan, which needs no
    pivoting on a positive definite matrix), or None when m is singular
    to working precision."""
    n = len(v)
    rows = [row + [y] for row, y in zip(m, v)]
    tiny = 1e-12 * max((m[i][i] for i in range(n)), default=0.0)
    for i in range(n):
        if rows[i][i] <= tiny:
            return None
        rows[i] = [c / rows[i][i] for c in rows[i]]
        for r in range(n):
            if r != i:
                rows[r] = [c - rows[r][i] * p for c, p in zip(rows[r], rows[i])]
    return [row[n] for row in rows]


def nnls(a: list[list[float]], b: list[float]) -> list[float]:
    """argmin ||a x - b|| subject to x >= 0, by search over every support.

    The optimum is the least-squares solution on some set of columns, so
    each of the 2^n column subsets solves its normal equations; singular
    subsets are skipped and the non-negative solution with the least
    residual wins.  Tie rule: a solution replaces the best so far only
    when its residual is lower by more than a relative 1e-9, and subsets
    without column 0 are tried first, so they win a tie.  In the time
    model the grasp column (0) and the travel column are collinear, so
    this puts their shared constant on travel.
    """
    n = len(a[0])
    columns = list(zip(*a))
    best, best_res = [0.0] * n, math.inf
    for mask in sorted(range(1 << n), key=lambda m: m & 1):
        cols = [j for j in range(n) if mask >> j & 1]
        sol = _solve([[_dot(columns[i], columns[j]) for j in cols] for i in cols],
                     [_dot(columns[i], b) for i in cols])
        if sol is None or min(sol, default=0.0) < 0.0:
            continue
        placed = dict(zip(cols, sol))
        x = [placed.get(j, 0.0) for j in range(n)]
        res = sum((_dot(row, x) - y) ** 2 for row, y in zip(a, b))
        if res < best_res * (1.0 - 1e-9):
            best, best_res = x, res
    return best


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
    a = []
    for tier, policy, observed in reference:
        key = (tier, policy)
        if key not in counts:
            raise SchemaError(f"no simulated counts for {key}")
        grasps, pulls, stacks, trips = counts[key]
        a.append([grasps, pulls, stacks, 2.0 * trips])
        rows.append({"tier": tier, "policy": policy, "observed": observed})
    weights = [1.0 / row["observed"] for row in rows]
    solution = nnls(
        [[c * w for c in a_row] for a_row, w in zip(a, weights)],
        [row["observed"] * w for row, w in zip(rows, weights)],
    )
    for row, a_row in zip(rows, a):
        row["predicted"] = _dot(a_row, solution)
    rms = math.sqrt(
        sum(((r["predicted"] - r["observed"]) / r["observed"]) ** 2 for r in rows) / len(rows)
    )
    tm = TimeModel(
        grasp_s=round(solution[0], 4),
        pull_s=round(solution[1], 4),
        stack_s=round(solution[2], 4),
        travel_s=round(solution[3], 4),
        bin_delay_s=0.0,
    )
    return FitResult(time_model=tm, relative_rms_residual=rms, rows=rows)
