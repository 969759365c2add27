"""Trip/failure accounting, objects-per-trip, and the parametric time model.

Objects per trip (OpT) is the total number of dishes deposited in the bin
divided by the number of trips taken.  Modeled clearing time charges a flat
cost per primitive phase (grasp, pull, stack placement) plus a two-way
travel cost per trip; ``bin_delay_s`` adds to travel in each direction and
models moving the bin further from the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyTrace, MissingBaseline
from .policies import PolicyKind, Trace


@dataclass(frozen=True)
class TimeModel:
    grasp_s: float
    pull_s: float
    stack_s: float
    travel_s: float
    bin_delay_s: float = 0.0

    def __post_init__(self):
        for name in ("grasp_s", "pull_s", "stack_s", "travel_s", "bin_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class TrialReport:
    """Per-trial metrics in the shape the summary CSV aggregates."""

    scene_id: str
    tier: str
    policy: str
    trips: int
    objects_cleared: int
    opt: float
    time_s: float
    failures: int

    def to_json_obj(self) -> dict:
        return {**vars(self), "opt": round(self.opt, 6), "time_s": round(self.time_s, 6)}


def build_report(trace: Trace, tm: TimeModel, scene_id: str) -> TrialReport:
    """The trial's report; its modeled time charges a failed grasp its
    action time but no trip.  EmptyTrace when the trace has no trips."""
    c = trace.counts()
    if c.trips == 0:
        raise EmptyTrace("no trips in trace; objects per trip undefined")
    return TrialReport(
        scene_id=scene_id,
        tier=trace.tier,
        policy=trace.policy,
        trips=c.trips,
        objects_cleared=c.objects_cleared,
        opt=c.objects_cleared / c.trips,
        time_s=(c.grasps * tm.grasp_s + c.pulls * tm.pull_s + c.stacks * tm.stack_s
                + c.trips * 2.0 * (tm.travel_s + tm.bin_delay_s)),
        failures=c.failures,
    )


@dataclass
class PolicySummary:
    tier: str
    policy: str
    mean_time_s: float
    mean_opt: float  # pooled: total objects / total trips
    failures: int
    time_ratio: float
    opt_ratio: float


# The policy every summary's ratios compare against.
BASELINE = PolicyKind.RANDOM.value


def aggregate(reports: Iterable[TrialReport]) -> list[PolicySummary]:
    """Aggregate trial reports per (tier, policy) against ``BASELINE``.

    ``opt_ratio`` is mean OpT of the policy over mean OpT of the baseline;
    ``time_ratio`` is mean baseline time over mean policy time, so values
    above 1 favor the policy.  Mean OpT is pooled (total objects over total
    trips), not the mean of the trials' OpT.
    """
    groups: dict[tuple[str, str], list[TrialReport]] = {}
    for report in reports:
        groups.setdefault((report.tier, report.policy), []).append(report)

    def pooled_opt(rs: list[TrialReport]) -> float:
        trips = sum(r.trips for r in rs)
        if trips == 0:
            raise EmptyTrace("no trips across trials")
        return sum(r.objects_cleared for r in rs) / trips

    def mean_time(rs: list[TrialReport]) -> float:
        return sum(r.time_s for r in rs) / len(rs)

    # Tiers and policies in the order of their first reports, since a
    # group's key is made at its first report.
    policies = dict.fromkeys(policy for _, policy in groups)
    summaries: list[PolicySummary] = []
    for tier in dict.fromkeys(tier for tier, _ in groups):
        base_key = (tier, BASELINE)
        if base_key not in groups:
            raise MissingBaseline(f"no '{BASELINE}' trials for tier {tier}")
        base_opt = pooled_opt(groups[base_key])
        base_time = mean_time(groups[base_key])
        for policy in policies:
            key = (tier, policy)
            if key not in groups:
                continue
            rs = groups[key]
            opt = pooled_opt(rs)
            time = mean_time(rs)
            summaries.append(
                PolicySummary(
                    tier=tier,
                    policy=policy,
                    mean_time_s=time,
                    mean_opt=opt,
                    failures=sum(r.failures for r in rs),
                    time_ratio=base_time / time if time > 0 else float("inf"),
                    opt_ratio=opt / base_opt,
                )
            )
    return summaries


CSV_HEADER = "tier,policy,mean_time_s,mean_opt,failures,time_ratio,opt_ratio"


def summary_csv(rows: Sequence[PolicySummary]) -> str:
    """Render summaries as the fixed-format CSV (byte-stable)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.tier},{r.policy},{r.mean_time_s:.3f},{r.mean_opt:.4f},"
            f"{r.failures},{r.time_ratio:.4f},{r.opt_ratio:.4f}"
        )
    return "\n".join(lines) + "\n"
