"""Deterministic 2D tabletop decluttering simulator and benchmark harness."""

from .actions import (
    Action,
    GraspAction,
    GripperSpec,
    PairGrasp,
    PullCheck,
    PullGrasp,
    StackGrasp,
    TraceEvent,
    apply,
    check_pull,
    grasp_fails,
    grasp_gap,
    grasp_points,
    mog_grasp,
    stack_allowable,
)
from .config import SimConfig, default_sim_config, load_config
from .errors import (
    EmptyTrace,
    InfeasibleAction,
    MissingBaseline,
    PlacementExhausted,
    SchemaError,
)
from .geometry import (
    Footprint,
    Sweep,
    overlaps,
    rim_point,
)
from .harness import ExperimentPlan, plan_from_json, run_plan
from .metrics import (
    PolicySummary,
    TimeModel,
    TrialReport,
    aggregate,
    build_report,
    model_time,
    objects_per_trip,
    summary_csv,
)
from .policies import (
    PairMemo,
    PolicyConfig,
    PolicyKind,
    Step,
    Trace,
    UtensilStacking,
    next_action,
    pull_policy,
    random_policy,
    run_policy,
    stack_policy,
    trial_steps,
)
from .rng import SplitMix64, derive_seed
from .tableware import (
    Dish,
    DishKind,
    DishSpec,
    SceneState,
    Stack,
    Tier,
    TierConfig,
    default_dish_specs,
    generate_scene,
    scene_from_json,
    scene_to_json,
    stack_top_lip_height,
    validate,
)

__version__ = "0.1.0"
