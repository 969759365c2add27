"""Brute-force references: the minimum-trip oracle for small scenes, and
the pull policy's choice in one state.

Every action either clears one stack (single grasp) or two stacks at once
(multi-object grasp, pull-grasp, or a single stack-then-grasp), and no
failure-free action leaves a moved survivor on the table, so reachable
states are exactly subsets of the initial stacks at their initial poses.
The oracle searches all subsets, re-evaluating feasibility predicates in
each residual state (pull corridors depend on what remains).
"""

from __future__ import annotations

from functools import lru_cache

from declutter import (
    SceneState,
    grasp_gap,
    mog_allowable,
    mog_grasp,
    pull_allowable,
    stack_allowable,
)


def min_trips(state: SceneState, sim) -> int:
    base = state
    all_ids = tuple(sorted(base.stacks))

    def sub_state(ids: frozenset) -> SceneState:
        sub = base.clone()
        sub.stacks = {i: base.stacks[i] for i in ids}
        return sub

    @lru_cache(maxsize=None)
    def best(ids: frozenset) -> int:
        if not ids:
            return 0
        sub = sub_state(ids)
        ordered = sorted(ids)
        # Upper bound: peel one stack per trip.
        result = 1 + best(ids - {ordered[0]})
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair_ok = (
                    mog_allowable(sub, a, b, sim)
                    or pull_allowable(sub, a, b, sim)
                    or pull_allowable(sub, b, a, sim)
                    or stack_allowable(sub, a, b, sim)
                    or stack_allowable(sub, b, a, sim)
                )
                if pair_ok:
                    result = min(result, 1 + best(ids - {a, b}))
        return result

    return best(frozenset(all_ids))


def pull_policy_choice(state: SceneState, sim) -> tuple[str, tuple[int, ...]]:
    """What the pull policy must do in ``state``, by evaluating every pair
    afresh: ("grasp", (a, b)) for the nearest pair with a shared grasp, else
    ("pull", (mover, anchor)) for the nearest allowable pull, else
    ("single", (lowest stack id,)).  Ties go to the lowest ids."""
    ids = sorted(state.stacks)
    ready = [
        (grasp_gap(state, a, b, sim)[0], a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if mog_grasp(state, a, b, sim) is not None
    ]
    if ready:
        _, a, b = min(ready)
        return "grasp", (a, b)
    pulls = [
        (grasp_gap(state, mover, anchor, sim)[0], mover, anchor)
        for mover in ids
        for anchor in ids
        if mover != anchor and pull_allowable(state, mover, anchor, sim)
    ]
    if pulls:
        _, mover, anchor = min(pulls)
        return "pull", (mover, anchor)
    return "single", (ids[0],)
