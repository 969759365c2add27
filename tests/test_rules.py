"""Tolerance edges of the feasibility rules, each asked through every site
that applies it.

Each rule allows 1e-9 for rounding: the jaw span (``GripperSpec.spans``,
and ``holds`` for a shared grasp), the grip similarity
(``GripperSpec.similar_heights``) and the stacking order
(``DishSpec.rests_on``).  A setting at the limit, or 1e-9 or less past it,
passes; one 2e-9 past it fails.  So a site that wrote its own copy of a
rule with another tolerance or comparison fails here.
"""

import dataclasses

import pytest

from declutter import (
    GripperSpec,
    PairMemo,
    TierConfig,
    check_pull,
    generate_scene,
    mog_grasp,
    stack_allowable,
    validate,
)
from declutter.policies import ready, same_grip, stackable
from helpers import BOWL, CUP, SIM, build_scene

# (how far past the rule's limit a setting lies, whether the rule passes)
EDGES = [(0.0, True), (0.5e-9, True), (1e-9, True), (2e-9, False)]


def synced(state, sim):
    memo = PairMemo(sim)
    memo.sync(state)
    return memo


@pytest.mark.parametrize("past, passes", EDGES)
def test_jaw_edge(past, passes):
    # Three nested cups span 13 - 9 = 4 cm from grip to lip, and so does a
    # two-cup pile set on a cup; the jaw is set ``past`` below that span.
    sim = dataclasses.replace(SIM, gripper=GripperSpec(jaw_height=4.0 - past))
    assert sim.gripper.spans(9.0, 13.0) == passes
    assert sim.gripper.holds(9.0, 13.0, 9.0, 9.0) == passes
    # 0 and 1 touch rims 0.5 cm apart; 2 may pull toward 0 with a clear path.
    pair = build_scene([([CUP] * 3, 20, 20), ([CUP], 29.5, 20), ([CUP], 20, 50)])
    memo = synced(pair, sim)
    assert (mog_grasp(pair, 0, 1, sim) is not None) == passes
    assert ready(memo, 0, 1) == passes
    assert check_pull(pair, 2, 0, sim).failed == (None if passes else "mog_allowable")
    assert memo.pullable(2, 0, memo.table) == passes
    stack = build_scene([([CUP], 20, 20), ([CUP, CUP], 50, 40)])
    assert stack_allowable(stack, 1, 0, sim) == passes
    assert stackable(synced(stack, sim), 1, 0) == passes


@pytest.mark.parametrize("past, passes", EDGES)
def test_grip_similarity_edge(past, passes):
    # A bowl's grip 1 cm (the threshold) and ``past`` below a cup's 9 cm.
    bowl = dataclasses.replace(SIM.dish_specs[BOWL], grasp_height=8.0 - past)
    specs = {**SIM.dish_specs, BOWL: bowl}
    sim = dataclasses.replace(SIM, dish_specs=specs)
    grip = specs[BOWL].grasp_height
    assert sim.gripper.similar_heights(9.0, grip) == passes
    assert sim.gripper.holds(9.0, 9.0, grip, grip) == passes
    # 0 and 1 have rims 1 cm apart; 2 may pull toward 3 with a clear path.
    scene = build_scene([([CUP], 15, 15), ([BOWL], 29, 15), ([CUP], 15, 45), ([BOWL], 60, 45)])
    memo = synced(scene, sim)
    assert (mog_grasp(scene, 0, 1, sim) is not None) == passes
    assert ready(memo, 0, 1) == passes
    assert same_grip(memo, 2, 3) == passes
    assert check_pull(scene, 2, 3, sim).failed == (None if passes else "grip_height")
    assert memo.pullable(2, 3, memo.table) == passes


@pytest.mark.parametrize("past, passes", EDGES)
def test_narrower_onto_wider_edge(past, passes):
    # Cups ``past`` wider than a bowl.
    bowl = SIM.dish_specs[BOWL]
    cup = dataclasses.replace(SIM.dish_specs[CUP], radius=bowl.radius + past)
    specs = {**SIM.dish_specs, CUP: cup}
    sim = dataclasses.replace(SIM, dish_specs=specs)
    assert cup.rests_on(bowl) == passes
    scene = build_scene([([BOWL], 15, 15), ([CUP], 50, 40)])
    assert stack_allowable(scene, 1, 0, sim) == passes
    assert stackable(synced(scene, sim), 1, 0) == passes
    pile = build_scene([([BOWL, CUP], 30, 30)])
    assert ("stack stability violated: stack 0" not in validate(pile, specs)) == passes
    # Generation joins a cup to a bowl-topped stack only if it rests on it.
    cups_on_bowls = 0
    for seed in range(20):
        scene = generate_scene(TierConfig.preset("t2"), seed, specs)
        assert validate(scene, specs) == []
        for stack in scene.stacks.values():
            kinds = [scene.dishes[d].kind for d in stack.dishes]
            cups_on_bowls += sum(k == CUP and j == BOWL for j, k in zip(kinds, kinds[1:]))
    assert (cups_on_bowls > 0) == passes
