"""Simulation configuration: every physical constant in one editable file.

Workspace dimensions, dish dimensions, gripper geometry, the similarity
threshold, time-model parameters, and the stochastic failure probability
all live here with their defaults; nothing is hard-coded at use sites.  A
config JSON can be passed to the CLI explicitly or through the
``DECLUTTER_CONFIG`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .actions import GripperSpec
from .errors import SchemaError, from_number_fields, known_keys, number, parse_json, read_file
from .metrics import TimeModel
from .tableware import DEFAULT_WORKSPACE, DishKind, DishSpec, default_dish_specs

ENV_VAR = "DECLUTTER_CONFIG"

# Fitted by non-negative least squares against the reference benchmark
# timings with simulated action counts (relative RMS residual 7.0%;
# regenerate with the `declutter fit-time` subcommand).  Grasp time and
# round-trip travel are collinear in failure-free traces (every action ends
# in exactly one grasp and one trip), so the fit attributes the shared
# per-action constant to travel; bin_delay_s remains the far-bin knob.
DEFAULT_TIME_MODEL = TimeModel(
    grasp_s=0.0,
    pull_s=13.1014,
    stack_s=8.8822,
    travel_s=5.424,
    bin_delay_s=0.0,
)

DEFAULT_PULL_CLEARANCE_MARGIN = 1.0


@dataclass
class SimConfig:
    workspace: tuple[float, float] = DEFAULT_WORKSPACE
    dish_specs: dict[DishKind, DishSpec] = field(default_factory=default_dish_specs)
    gripper: GripperSpec = field(default_factory=GripperSpec)
    pull_clearance_margin: float = DEFAULT_PULL_CLEARANCE_MARGIN
    time_model: TimeModel = DEFAULT_TIME_MODEL
    p_fail: float = 0.0

    def __post_init__(self):
        if min(self.workspace) <= 0:
            raise ValueError("workspace sides must be positive")
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError("p_fail must be a probability")
        if self.pull_clearance_margin < 0:
            raise ValueError("pull_clearance_margin must be >= 0")


_CONFIG_KEYS = (
    "workspace", "dishes", "gripper", "pull_clearance_margin", "time_model", "p_fail"
)


def config_to_json_obj(sim: SimConfig) -> dict:
    dishes = {
        kind.value: {k: v for k, v in asdict(spec).items() if k != "kind" and v is not None}
        for kind, spec in sim.dish_specs.items()
    }
    return {
        "workspace": list(sim.workspace),
        "dishes": dishes,
        "gripper": asdict(sim.gripper),
        "pull_clearance_margin": sim.pull_clearance_margin,
        "time_model": asdict(sim.time_model),
        "p_fail": sim.p_fail,
    }


def config_from_json_obj(data: dict) -> SimConfig:
    known_keys(data, _CONFIG_KEYS, "config")
    fields = {}

    if "workspace" in data:
        ws = data["workspace"]
        if not (isinstance(ws, list) and len(ws) == 2):
            raise SchemaError("config: workspace must be [width, height]")
        fields["workspace"] = tuple(number(v, "config: workspace sides") for v in ws)

    if "dishes" in data:
        if not isinstance(data["dishes"], dict):
            raise SchemaError("config: dishes must be a JSON object")
        specs = default_dish_specs()
        for name, entry in data["dishes"].items():
            try:
                kind = DishKind(name)
            except ValueError as exc:
                raise SchemaError(f"config: unknown dish kind '{name}'") from exc
            specs[kind] = from_number_fields(
                DishSpec, entry, f"config: dishes: {name}", specs[kind]
            )
        fields["dish_specs"] = specs

    if "gripper" in data:
        fields["gripper"] = from_number_fields(
            GripperSpec, data["gripper"], "config: gripper", GripperSpec()
        )

    if "pull_clearance_margin" in data:
        margin = data["pull_clearance_margin"]
        fields["pull_clearance_margin"] = number(margin, "config: pull_clearance_margin")

    if "time_model" in data:
        fields["time_model"] = from_number_fields(
            TimeModel, data["time_model"], "config: time_model", DEFAULT_TIME_MODEL
        )

    if "p_fail" in data:
        fields["p_fail"] = number(data["p_fail"], "config: p_fail")

    try:
        return SimConfig(**fields)
    except ValueError as exc:
        raise SchemaError(f"config: {exc}") from exc


def load_config(path: str | Path | None = None) -> SimConfig:
    """Load a config file, falling back to $DECLUTTER_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return SimConfig()
    return config_from_json_obj(parse_json(read_file(path, "config file"), "config file"))
