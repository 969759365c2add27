"""Brute-force references: the minimum-trip oracle for small tables, and
the pull and stack policies' choices in one state.

Every action either clears one stack (single grasp) or two stacks at once
(multi-object grasp, pull-grasp, or a single stack-then-grasp), and no
failure-free action leaves a moved survivor on the table, so reachable
states are exactly subsets of the initial stacks at their initial poses.
The oracle searches those subsets, evaluating the public feasibility
predicates afresh in each one (pull corridors depend on what remains).

Run as a script, it checks the pull policy, and the stack policy in both
utensil modes, at every step of their trials on the 3000-trial plan's
scenes (``python tests/oracle.py``).
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache

from declutter import (
    DishKind,
    PolicyConfig,
    PairGrasp,
    PolicyKind,
    PullGrasp,
    SceneState,
    SimConfig,
    StackGrasp,
    Tier,
    UtensilStacking,
    check_pull,
    grasp_gap,
    mog_grasp,
    stack_allowable,
    trial_steps,
    validate,
)
from declutter.harness import plan_scene, trial_seed

# The pull policy plans its order on tables of at most this many stacks
# (a paper scene) and is nearest-first above it.
PULL_PLAN_MAX_STACKS = 12


def choice(action):
    """The action in the reference's terms."""
    if isinstance(action, PullGrasp):
        return "pull", (action.mover, action.anchor)
    if isinstance(action, StackGrasp):
        return "stack", tuple((lift.stack, action.grasp.stack) for lift in action.lifts)
    if isinstance(action, PairGrasp):
        return "grasp", (action.a, action.b)
    return "single", (action.stack,)


def trip_search(state: SceneState, sim, pull_only: bool = False):
    """Fewest failure-free trips that clear a set of ``state``'s stacks, as
    a function of a frozenset of stack ids.

    A trip clears any single stack, or a pair that a multi-object grasp, a
    pull-grasp or (unless ``pull_only``) a stack-grasp can clear with just
    that set on the table.
    """

    def sub_state(ids: frozenset) -> SceneState:
        sub = state.clone()
        sub.stacks = {i: state.stacks[i] for i in ids}
        return sub

    def pair_clears(sub: SceneState, a: int, b: int) -> bool:
        if (
            mog_grasp(sub, a, b, sim) is not None
            or check_pull(sub, a, b, sim).allowable
            or check_pull(sub, b, a, sim).allowable
        ):
            return True
        return not pull_only and (
            stack_allowable(sub, a, b, sim) or stack_allowable(sub, b, a, sim)
        )

    @lru_cache(maxsize=None)
    def least(ids: frozenset) -> int:
        n = len(ids)
        if n == 0:
            return 0
        sub = sub_state(ids)
        ordered = sorted(ids)
        result = n
        # No trip clears more than two stacks.
        floor = (n + 1) // 2
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if pair_clears(sub, a, b):
                    result = min(result, 1 + least(ids - {a, b}))
                    if result == floor:
                        return result
        # After a single, n - 1 stacks take at least n // 2 more trips.
        for a in ordered:
            if result <= 1 + n // 2:
                break
            result = min(result, 1 + least(ids - {a}))
        return result

    return least


def min_trips(state: SceneState, sim, pull_only: bool = False) -> int:
    """Fewest failure-free trips that clear ``state`` (see ``trip_search``)."""
    return trip_search(state, sim, pull_only)(frozenset(state.stacks))


def pull_policy_choice(state: SceneState, sim) -> tuple[str, tuple[int, ...]]:
    """What the pull policy must do in ``state``, by evaluating every pair
    afresh.

    Nearest-first ranks ready pairs ("grasp", (a, b)) by grasp gap, then
    allowable pulls ("pull", (mover, anchor)) by gap, then single grasps
    ("single", (stack,)) by stack id, ties going to the lowest ids.  Above
    ``PULL_PLAN_MAX_STACKS`` stacks the policy takes the first move; on a
    smaller table, the first one that starts a failure-free order of the
    pull policy's primitives with the fewest trips.
    """
    ids = sorted(state.stacks)
    ready = sorted(
        (grasp_gap(state, a, b, sim)[0], a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if mog_grasp(state, a, b, sim) is not None
    )
    pulls = sorted(
        (grasp_gap(state, mover, anchor, sim)[0], mover, anchor)
        for mover in ids
        for anchor in ids
        if mover != anchor and check_pull(state, mover, anchor, sim).allowable
    )
    ranked = (
        [("grasp", (a, b)) for _, a, b in ready]
        + [("pull", (mover, anchor)) for _, mover, anchor in pulls]
        + [("single", (sid,)) for sid in ids]
    )
    if len(ids) > PULL_PLAN_MAX_STACKS:
        return ranked[0]
    least = trip_search(state, sim, pull_only=True)
    table = frozenset(ids)
    return next(
        move for move in ranked if 1 + least(table - set(move[1])) == least(table)
    )


def stack_policy_choice(
    state: SceneState, sim, cfg: PolicyConfig
) -> tuple[str, tuple]:
    """What the stack policy must do in ``state``, by evaluating
    ``stack_allowable`` and ``grasp_gap`` afresh for every pair.

    Returns ("stack", ((lifted, base), ...)) with the placements in order,
    or ("single", (stack,)).  While utensil piles and bowl-topped stacks
    remain: with ``one_per_bowl``, the allowable (utensil pile, bowl-topped
    stack) pair of least (gap, ids); with ``all_on_one_bowl``, the bowl with
    the least sum of gaps to every utensil pile, loaded nearest pile first
    with each pile that the growing pile still allows.  Then the allowable
    ordered pair of least (gap, lifted, base), then the lowest stack id.
    """
    ids = sorted(state.stacks)
    stacks, dishes = state.stacks, state.dishes

    def gap(a: int, b: int) -> float:
        return grasp_gap(state, a, b, sim)[0]

    utensil_piles = [s for s in ids if dishes[stacks[s].bottom].kind is DishKind.UTENSIL]
    bowl_tops = [s for s in ids if dishes[stacks[s].top].kind is DishKind.BOWL]
    if utensil_piles and bowl_tops:
        if cfg.utensil_stacking is UtensilStacking.ONE_PER_BOWL:
            pairs = sorted(
                (gap(u, b), u, b)
                for u in utensil_piles
                for b in bowl_tops
                if stack_allowable(state, u, b, sim)
            )
            if pairs:
                return "stack", (pairs[0][1:],)
        else:
            chosen = min(bowl_tops, key=lambda b: (sum(gap(u, b) for u in utensil_piles), b))
            placements = []
            working = state
            for u in sorted(utensil_piles, key=lambda u: (gap(u, chosen), u)):
                if stack_allowable(working, u, chosen, sim):
                    placements.append((u, chosen))
                    working = working.merged(u, chosen)
            if placements:
                return "stack", tuple(placements)
    pairs = sorted(
        (gap(lifted, base), lifted, base)
        for lifted in ids
        for base in ids
        if lifted != base and stack_allowable(state, lifted, base, sim)
    )
    if pairs:
        return "stack", (pairs[0][1:],)
    return "single", (ids[0],)


def sweep_plan3000(policy: PolicyConfig, p_fail: float) -> int:
    """Check every step of ``policy``'s trials on the 3000-trial plan's
    scenes (base seed 7, 200 per tier) at ``p_fail``: the step's choice must
    be the reference's (``pull_policy_choice`` or ``stack_policy_choice``),
    and a pull step must leave a valid table.  Stack steps are not
    validated: a stack-grasp may still place a pile that overlaps another
    stack.  Prints the steps, the failures and the seconds taken; returns
    the failures."""
    sim = SimConfig(p_fail=p_fail)
    pull = policy.kind is PolicyKind.PULL
    steps = failures = 0
    start = time.perf_counter()
    for tier in Tier:
        for index in range(200):
            scene = plan_scene(sim, tier, 7, index)
            seed = trial_seed(7, tier, index, policy.kind.value)
            for t, step in enumerate(trial_steps(scene, policy, sim, seed)):
                steps += 1
                chosen = choice(step.action)
                if pull:
                    expected = pull_policy_choice(step.state, sim)
                    problems = validate(step.after, sim.dish_specs)
                else:
                    expected, problems = stack_policy_choice(step.state, sim, policy), []
                if chosen != expected or problems:
                    failures += 1
                    print(f"{tier.value} scene {index} step {t}: chose {chosen}, "
                          f"expected {expected}; {problems}")
    name = policy.kind.value if pull else f"stack {policy.utensil_stacking.value}"
    print(f"{name}, p_fail {p_fail}: {steps} steps, {failures} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return failures


if __name__ == "__main__":
    policies = [
        PolicyConfig(PolicyKind.PULL),
        *(PolicyConfig(PolicyKind.STACK, stacking) for stacking in UtensilStacking),
    ]
    sys.exit(1 if sum(sweep_plan3000(c, p) for c in policies for p in (0.0, 0.2)) else 0)
