"""Config defaults, JSON round-trip, and the env-var override."""

import dataclasses
import json

import pytest

from declutter import DishKind, SchemaError
from declutter.config import (
    ENV_VAR,
    config_from_json_obj,
    config_to_json_obj,
    default_sim_config,
    load_config,
)


def test_paper_constants_live_in_config():
    sim = default_sim_config()
    assert sim.workspace == (78.0, 61.0)
    assert sim.gripper.max_opening == 8.5
    assert sim.gripper.jaw_height == 4.5
    assert sim.gripper.height_similarity_threshold == 1.0
    assert sim.dish_specs[DishKind.CUP].radius == 4.5
    assert sim.dish_specs[DishKind.BOWL].radius == 8.5
    assert sim.dish_specs[DishKind.UTENSIL].length == 17.0
    assert sim.dish_specs[DishKind.UTENSIL].width == 1.8
    assert sim.p_fail == 0.0


def test_nest_offset_window():
    # The default nest offset must make exactly 4+ nested cups ungraspable:
    # (s - 1) * offset > jaw iff s >= 4 requires offset in (1.5, 2.25].
    sim = default_sim_config()
    offset = sim.dish_specs[DishKind.CUP].nest_offset
    jaw = sim.gripper.jaw_height
    assert 3 * offset > jaw          # four nested cups exceed the jaws
    assert 2 * offset <= jaw         # three nested cups fit
    assert 1.5 < offset <= 2.25


def test_round_trip(tmp_path):
    sim = default_sim_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json_obj(sim), indent=2))
    loaded = load_config(path)
    assert config_to_json_obj(loaded) == config_to_json_obj(sim)


def test_partial_config_overrides_defaults():
    sim = config_from_json_obj({
        "gripper": {"max_opening": 10.0}, "p_fail": 0.25, "time_model": {"travel_s": 7.0}
    })
    assert sim.gripper.max_opening == 10.0
    assert sim.gripper.jaw_height == 4.5  # untouched default
    assert sim.p_fail == 0.25
    default = default_sim_config().time_model
    assert sim.time_model == dataclasses.replace(default, travel_s=7.0)


def test_env_var_override(tmp_path, monkeypatch):
    path = tmp_path / "env_config.json"
    sim = default_sim_config()
    sim.pull_clearance_margin = 2.5
    path.write_text(json.dumps(config_to_json_obj(sim), indent=2))
    monkeypatch.setenv(ENV_VAR, str(path))
    assert load_config().pull_clearance_margin == 2.5
    monkeypatch.delenv(ENV_VAR)
    assert load_config().pull_clearance_margin == 1.0


def test_bad_p_fail_rejected():
    with pytest.raises(SchemaError):
        config_from_json_obj({"p_fail": 1.5})


def test_missing_file_rejected(tmp_path):
    with pytest.raises(SchemaError):
        load_config(tmp_path / "nowhere.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_config(path)


def test_config_json_carries_time_model(tmp_path):
    sim = default_sim_config()
    obj = config_to_json_obj(sim)
    assert set(obj["time_model"]) == {"grasp_s", "pull_s", "stack_s", "travel_s", "bin_delay_s"}
    text = json.dumps(obj)
    assert "workspace" in text
