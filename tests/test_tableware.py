"""Scene model, generation, validation, and serialization tests."""

import hashlib
import math
from collections import Counter

import pytest

from declutter import (
    DishSpec,
    PlacementExhausted,
    PolicyConfig,
    SceneState,
    SchemaError,
    Stack,
    Tier,
    TierConfig,
    default_dish_specs,
    generate_scene,
    overlaps,
    run_policy,
    scene_from_json,
    scene_to_json,
    stack_top_lip_height,
    validate,
)
from declutter import tableware
from declutter.geometry import TOUCH_TOL, reach_limit
from declutter.rng import SplitMix64
from declutter.tableware import stack_footprints
from helpers import BOWL, CUP, SIM, UTENSIL, build_scene

SPECS = default_dish_specs()
# A 25 cm utensil widens the generator's neighbourhood cells.
LONG_UTENSIL_SPECS = {
    **SPECS,
    UTENSIL: DishSpec(UTENSIL, length=25.0, width=2.0, grasp_height=2.0, nest_offset=0.5),
}

# sha256 of the scene_to_json lines of the scenes ``golden_scenes`` builds
# for each name.
GOLDEN_DIGESTS = {
    "t0_cups": "74e0fe4fa9516543ea403991b1021c8df938fa8a35dfcea721e8857057d76491",
    "t0_bowls": "225a5f194c8fa5dbc8f0f54320600e677ea90ad16d65143256d1f9c858d0ba62",
    "t0_utensils": "defa7650daeb980a87c9200a4ec73cea6fb9de660160b631a3e078f8afcebbed",
    "t1": "a96622f650b9e6b3d5dd4fd5c59bc728eaa030a32170b9ad0cb50db2d5695b5b",
    "t2": "228549e7d3e8ae45d77d73117766b403dfda819050f547688b7b8f8cfe5fd079",
    "dense72": "6be5d7cf6369a97a3cb8dccc5c3fbfda88390b294620a3122fc6846d3e9f97a6",
    "dense72_t2": "9e0d8ff6aa12b5187c6943959905846968ff590147cacb35d9edd02c2fd762dc",
    "dense24": "ffc9c8ad7af6fb03a7936e2bd4e775979353d5b50710c78676ef4fd5d3296f0b",
    "dense24_t2": "a313af5206acaedd9324631024c85a1c1a6d3a2d52c1b78b8df9c87568811ad5",
    "dense48": "09994ff0128a291f5501dd855ac4b8e60e257ec592a87d953b12a2d8a2d5476e",
    "dense48_t2": "f617eda2d5677defb29e158c415886157c3465b5efe569a47a3dc9b6ceb81b90",
    "utensil25_t1": "9d9a52a5542fd716692d39176b1255aa8ab16ec6f235149c4f22c85b3ccc8a78",
    "utensil25_t2": "fb2eb1a8228168db074d8ba74eac50c8a05b988197cd95156f45a8ee84976684",
    "one_cell_t2": "d01d79b22f8cf28d480d3e4f2825b192b4e4ac0dd3642e383684bb2af446a46b",
}


def golden_scenes(name):
    """Seeds 0-49 of a tier, or seeds 0-3 of a ``dense<items>`` mix.

    A dense mix has a third of its items of each kind, at the tier-1
    density: the workspace grows by sqrt(items / 12) per side.  Its t2
    variant exercises the clearance test of stacking a sample onto the
    stack it hits.  ``utensil25_`` tiers use 25 cm utensils, and
    ``one_cell_t2`` a workspace 22 cm wide, little more than one
    neighbourhood cell (17.1 cm for the default set; a narrower workspace
    cannot hold a utensil).
    """
    if name.startswith("dense"):
        items, _, tier = name[len("dense"):].partition("_")
        items = int(items)
        scale = math.sqrt(items / 12)
        workspace = (SIM.workspace[0] * scale, SIM.workspace[1] * scale)
        third = items // 3
        cfg = TierConfig(Tier.T1, third, third, third)
        if tier == "t2":
            cfg = TierConfig(
                Tier.T2, third, third, third, max_intersections=items // 6, max_initial_stack=3
            )
        return [generate_scene(cfg, seed, SPECS, workspace) for seed in range(4)]
    if name.startswith("utensil25_"):
        cfg = TierConfig.preset(name[len("utensil25_"):])
        return [generate_scene(cfg, seed, LONG_UTENSIL_SPECS) for seed in range(50)]
    if name == "one_cell_t2":
        cfg = TierConfig.preset(Tier.T2)
        return [generate_scene(cfg, seed, SPECS, (22.0, 150.0)) for seed in range(50)]
    return [generate_scene(TierConfig.preset(name), seed) for seed in range(50)]


class TestTierPresets:
    def test_t0_presets_are_single_kind_six(self):
        assert TierConfig.preset(Tier.T0_CUPS).n_cups == 6
        assert TierConfig.preset(Tier.T0_BOWLS).n_bowls == 6
        assert TierConfig.preset(Tier.T0_UTENSILS).n_utensils == 6
        for tier in (Tier.T0_CUPS, Tier.T0_BOWLS, Tier.T0_UTENSILS):
            cfg = TierConfig.preset(tier)
            assert cfg.total == 6
            assert cfg.max_intersections == 0

    def test_t1_t2_presets(self):
        t1 = TierConfig.preset(Tier.T1)
        assert (t1.n_cups, t1.n_bowls, t1.n_utensils) == (4, 4, 4)
        assert t1.max_intersections == 0
        t2 = TierConfig.preset(Tier.T2)
        assert (t2.n_cups, t2.n_bowls, t2.n_utensils) == (4, 4, 4)
        assert t2.max_intersections == 4
        assert t2.max_initial_stack == 3


class TestGeneration:
    def test_t0_bowls_six_singletons(self):
        scene = generate_scene(TierConfig.preset(Tier.T0_BOWLS), 1)
        assert len(scene.stacks) == 6
        assert all(len(s.dishes) == 1 for s in scene.stacks.values())
        assert all(d.kind is BOWL for d in scene.dishes.values())
        assert validate(scene) == []

    def test_t1_twelve_singletons(self):
        scene = generate_scene(TierConfig.preset(Tier.T1), 7)
        assert len(scene.stacks) == 12
        kinds = [d.kind for d in scene.dishes.values()]
        assert kinds.count(CUP) == 4
        assert kinds.count(BOWL) == 4
        assert kinds.count(UTENSIL) == 4
        assert validate(scene) == []

    def test_t2_stack_caps_and_ordering(self):
        scene = generate_scene(TierConfig.preset(Tier.T2), 3)
        assert len(scene.dishes) == 12
        for stack in scene.stacks.values():
            assert len(stack.dishes) <= 3
            radii = [SPECS[scene.dishes[d].kind].effective_radius for d in stack.dishes]
            assert all(radii[i] >= radii[i + 1] - 1e-9 for i in range(len(radii) - 1))
        assert validate(scene) == []

    def test_t2_intersection_budget(self):
        for seed in range(50):
            scene = generate_scene(TierConfig.preset(Tier.T2), seed)
            merges = sum(len(s.dishes) - 1 for s in scene.stacks.values())
            assert merges <= 4

    def test_t2_caps_hold_over_thousand_seeds(self):
        cfg = TierConfig.preset(Tier.T2)
        for seed in range(1000):
            scene = generate_scene(cfg, seed)
            assert max(len(s.dishes) for s in scene.stacks.values()) <= 3
            merges = sum(len(s.dishes) - 1 for s in scene.stacks.values())
            assert merges <= 4
            assert len(scene.dishes) == 12

    def test_deterministic_and_seed_sensitive(self):
        cfg = TierConfig.preset(Tier.T1)
        a = scene_to_json(generate_scene(cfg, 99))
        b = scene_to_json(generate_scene(cfg, 99))
        c = scene_to_json(generate_scene(cfg, 100))
        assert a == b
        assert a != c

    def test_exhaustion_on_impossible_workspace(self):
        with pytest.raises(PlacementExhausted, match="^could not place bowl #1 after"):
            generate_scene(TierConfig.preset(Tier.T0_BOWLS), 1, workspace=(20.0, 20.0))
        # A 17 cm bowl does not fit a table 16 cm deep at all.
        with pytest.raises(PlacementExhausted, match="^bowl does not fit in the workspace$"):
            generate_scene(TierConfig.preset(Tier.T0_BOWLS), 1, workspace=(20.0, 16.0))

    @pytest.mark.parametrize(
        "cfg, seed, dish",
        [
            (TierConfig(Tier.T1, 12, 12, 12), 1, "bowl #16"),
            (TierConfig(Tier.T2, 40, 4, 4, max_intersections=4, max_initial_stack=3), 2, "cup #34"),
        ],
    )
    def test_over_full_table_exhausts_at_the_same_dish(self, cfg, seed, dish):
        # The dishes named are where the generator that tested every stack
        # gave up.
        with pytest.raises(PlacementExhausted) as raised:
            generate_scene(cfg, seed)
        assert str(raised.value) == f"could not place {dish} after 10000 samples"

    def test_piled_long_utensils_stay_inside_a_narrow_workspace(self):
        # 25 cm utensils on a table 27 cm wide, each free to join a pile.
        # A dish joins at a base that was inset by the bottom dish's
        # circumradius, no less than its own, so no pile reaches past an
        # edge; ``TestValidate`` has a utensil that does.
        cfg = TierConfig(Tier.T2, 0, 0, 8, max_intersections=8, max_initial_stack=4)
        piled = 0
        for seed in range(20):
            scene = generate_scene(cfg, seed, LONG_UTENSIL_SPECS, (27.0, 150.0))
            assert validate(scene, LONG_UTENSIL_SPECS) == []
            piled += sum(len(stack.dishes) - 1 for stack in scene.stacks.values())
        assert piled >= 20


class TestValidate:
    def test_fresh_scene_is_valid(self):
        scene = generate_scene(TierConfig.preset(Tier.T2), 11)
        assert validate(scene) == []

    def test_bowl_on_cup_is_unstable(self):
        scene = build_scene([([CUP, BOWL], 30, 30)])
        assert any("stack stability violated" in p for p in validate(scene))

    def test_out_of_workspace(self):
        scene = build_scene([([BOWL], 100, 10)])
        assert any("out of workspace" in p for p in validate(scene))

    def test_utensil_reaching_past_an_edge(self):
        # The base is inside the table; lengthways the 17 cm utensil's
        # ends reach 3.5 cm past its left edge, crossways they do not.
        assert validate(build_scene([([(UTENSIL, 0.0)], 5.0, 30.0)])) == [
            "out of workspace: dish 0"
        ]
        assert validate(build_scene([([(UTENSIL, math.pi / 2)], 5.0, 30.0)])) == []

    def test_overlapping_stacks_flagged(self):
        scene = build_scene([([BOWL], 30, 30), ([BOWL], 40, 30)])
        assert any("stacks overlap" in p for p in validate(scene))

    def test_duplicate_dish_across_stack_and_bin(self):
        scene = build_scene([([CUP], 30, 30)])
        scene.bin = (0,)
        assert any("appears 2 times" in p for p in validate(scene))

    @pytest.mark.parametrize("where, problem", [
        ("bin", "unknown dish id 7"),
        ("stack", "unknown dish id 7"),
        ("key", "stack filed under 5 has bottom dish 0"),
    ], ids=["bin", "stack", "key"])
    def test_unknown_dish_in_bin(self, where, problem):
        scene = build_scene([([CUP], 30, 30)])
        if where == "bin":
            scene.bin = (7,)
        elif where == "stack":  # its stability and footprints are not tested: the id has no dish
            scene.stacks[0] = Stack((0, 7), (30, 30))
        else:  # a known dish, in a stack filed under another id
            scene.stacks[5] = scene.stacks.pop(0)
        assert validate(scene) == [problem]


def pairwise_overlaps(state):
    """The "stacks overlap" lines of ``validate``, found by testing every
    footprint of every pair of stacks with ``overlaps``."""
    fps = {sid: stack_footprints(s, state.dishes, SPECS) for sid, s in state.stacks.items()}
    ids = sorted(fps)
    return [
        f"stacks overlap: {a} and {b}"
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if any(overlaps(fa, fb) for fa in fps[a] for fb in fps[b])
    ]


PAIR_OVERLAP = "stacks overlap: 0 and 1"


def pair_state(first, second, direction, distance):
    """Two stacks in a large workspace, the second ``distance`` from the
    first along ``direction``, and a cup beside them."""
    x = 100.0 + distance * math.cos(direction)
    y = 100.0 + distance * math.sin(direction)
    return build_scene(
        [(first, 100.0, 100.0), (second, x, y), ([CUP], 100.0, 88.0)], workspace=(200.0, 200.0)
    )


def touch_distance(first, second, direction):
    """The largest centre distance along ``direction`` at which the pair
    still ``overlaps``, found by bisection."""
    lo, hi = 0.0, 60.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if PAIR_OVERLAP in pairwise_overlaps(pair_state(first, second, direction, mid)):
            lo = mid
        else:
            hi = mid
    return lo


class TestValidateMatchesPairwiseOverlaps:
    # Piles, a cup under a bowl (its widest dish is not its bottom) and
    # crossed utensils.
    STACKS = [
        [CUP],
        [BOWL],
        [(UTENSIL, 0.3)],
        [BOWL, CUP],
        [CUP, BOWL],
        [(UTENSIL, 1.1), (UTENSIL, 2.5)],
    ]

    def check(self, state):
        """Whether the first two stacks overlap, once ``validate`` agrees
        with the oracle."""
        got = [p for p in validate(state) if p.startswith("stacks overlap")]
        assert got == pairwise_overlaps(state)
        return PAIR_OVERLAP in got

    def test_pairs_touching_within_touch_tol(self):
        rng = SplitMix64(21)
        for first in self.STACKS:
            for second in self.STACKS:
                direction = rng.uniform(0.0, 2.0 * math.pi)
                touch = touch_distance(first, second, direction)
                verdicts = [
                    self.check(pair_state(first, second, direction, touch + offset * TOUCH_TOL))
                    for offset in (-2.0, -0.5, 0.0, 0.5, 2.0)
                ]
                assert verdicts == [True, True, True, False, False], (first, second)

    def test_diagonal_rectangles_near_reach_limit(self):
        # Rectangles whose axes sit at 45 degrees to the line between their
        # centres, at distances about the ``reach_limit`` of their
        # circumradii and about their real contact.
        radius = SPECS[UTENSIL].circumscribed_radius
        limit = reach_limit(radius, radius)
        verdicts = set()
        for theta in (0.0, 0.4, 1.2):
            for turn in (0.0, math.pi / 2):
                first = [(UTENSIL, theta)]
                second = [(UTENSIL, theta + turn)]
                direction = theta + math.pi / 4
                touch = touch_distance(first, second, direction)
                for distance in (
                    touch - TOUCH_TOL, touch, touch + TOUCH_TOL,
                    limit - 1e-9, limit, limit + 1e-9,
                ):
                    verdicts.add(self.check(pair_state(first, second, direction, distance)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", range(20))
    def test_crowded_random_scenes(self, seed):
        rng = SplitMix64(seed)
        stacks = [
            (self.STACKS[rng.below(len(self.STACKS))], rng.uniform(10, 68), rng.uniform(10, 51))
            for _ in range(10)
        ]
        self.check(build_scene(stacks))


class TestLipHeight:
    def test_single_bowl(self):
        scene = build_scene([([BOWL], 10, 10)])
        assert stack_top_lip_height(scene.stacks[0], scene.dishes, SPECS) == 5.0

    def test_three_nested_cups_summation(self):
        scene = build_scene([([CUP, CUP, CUP], 10, 10)])
        got = stack_top_lip_height(scene.stacks[0], scene.dishes, SPECS)
        # Independent summation oracle.
        expect = SPECS[CUP].grasp_height + sum(
            SPECS[CUP].nest_offset for _ in range(2)
        )
        assert got == expect == 13.0

    def test_four_nested_cups_exceed_jaw(self):
        scene = build_scene([([CUP] * 4, 10, 10)])
        lip = stack_top_lip_height(scene.stacks[0], scene.dishes, SPECS)
        assert lip == 15.0
        span = lip - SPECS[CUP].grasp_height
        assert span == 6.0
        assert span > SIM.gripper.jaw_height

    def test_mixed_stack_uses_each_nest_offset(self):
        scene = build_scene([([BOWL, CUP, UTENSIL], 10, 10)])
        assert stack_top_lip_height(scene.stacks[0], scene.dishes, SPECS) == 7.5


class TestSceneJson:
    def test_round_trip(self):
        scene = generate_scene(TierConfig.preset(Tier.T2), 42)
        text = scene_to_json(scene)
        loaded = scene_from_json(text)
        assert scene_to_json(loaded) == text
        assert loaded.rng_seed == 42
        assert loaded.tier == "t2"
        assert len(loaded.dishes) == 12

    @pytest.mark.parametrize("seed", range(5))
    def test_loaded_scene_keeps_stack_ids_and_trials(self, seed):
        # Generation keys each stack by its bottom dish id; policies break
        # ties by stack id, so a loaded file must keep those ids to replay
        # the same trial.
        scene = generate_scene(TierConfig.preset(Tier.T2), seed)
        loaded = scene_from_json(scene_to_json(scene))
        assert list(loaded.stacks) == list(scene.stacks)
        for name in ("random", "pull", "stack"):
            policy = PolicyConfig.named(name)
            expected = run_policy(scene, policy, SIM, seed).events
            got = run_policy(loaded, policy, SIM, seed).events
            assert [e["targets"] for e in got] == [e["targets"] for e in expected], name

    def test_field_order_and_float_format(self):
        scene = build_scene([([BOWL], 10, 10), ([(UTENSIL, 0.5)], 40, 40)], tier="t1")
        scene.rng_seed = 5
        text = scene_to_json(scene)
        assert text.startswith('{"workspace": [78.000000, 61.000000], "seed": 5, "tier": "t1"')
        assert '"theta": 0.500000' in text
        assert '"kind": "bowl"}' in text  # no theta key for discs

    def test_malformed_json_raises_schema_error(self):
        with pytest.raises(SchemaError):
            scene_from_json("{not json")

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            scene_from_json('{"workspace": [78.0, 61.0], "seed": 1, "stacks": []}')

    def test_unknown_kind(self):
        bad = (
            '{"workspace": [78.000000, 61.000000], "seed": 1, "tier": "t1", '
            '"stacks": [{"base": [10.0, 10.0], "dishes": [{"id": 0, "kind": "plate"}]}]}'
        )
        with pytest.raises(SchemaError):
            scene_from_json(bad)

    def test_invalid_scene_rejected_on_load(self):
        bad = (
            '{"workspace": [78.000000, 61.000000], "seed": 1, "tier": "custom", '
            '"stacks": [{"base": [10.0, 10.0], "dishes": '
            '[{"id": 0, "kind": "cup"}, {"id": 1, "kind": "bowl"}]}]}'
        )
        with pytest.raises(SchemaError, match="stability"):
            scene_from_json(bad)

    def test_golden_bytes_t1_seed7(self):
        # Frozen serialization guards the generator and writer together.
        scene = generate_scene(TierConfig.preset(Tier.T1), 7)
        text = scene_to_json(scene)
        assert text == GOLDEN_T1_SEED7

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_golden_digests(self, name):
        # Digests of scenes written by the generator that tested every
        # stack with ``overlaps``; looking only at nearby stacks must keep
        # every draw and every hit.
        text = "\n".join(scene_to_json(scene) for scene in golden_scenes(name))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", ["t1", "t2", "dense72_t2", "utensil25_t2", "one_cell_t2"])
    def test_generation_matches_testing_every_stack(self, monkeypatch, name):
        # With no reach limit the grid has one cell and every placed stack
        # is tested with ``overlaps``: too narrow a cell would miss a hit.
        expected = [scene_to_json(scene) for scene in golden_scenes(name)]
        monkeypatch.setattr(tableware, "reach_limit", lambda ra, rb: math.inf)
        assert [scene_to_json(scene) for scene in golden_scenes(name)] == expected


class TestSampleForms:
    @pytest.mark.parametrize("name", ["dense72", "t2"])
    def test_generation_builds_one_stack_per_new_stack(self, monkeypatch, name):
        # A rejected sample builds no ``Stack``, and a sample that joins a
        # stack replaces it (``dataclasses.replace``).  Counted through the
        # name ``tableware`` builds it by.
        built = Counter()

        def counted(cls):
            def build(*args, **kwargs):
                built[cls.__name__] += 1
                return cls(*args, **kwargs)
            return build

        monkeypatch.setattr(tableware, "Stack", counted(tableware.Stack))
        scenes = golden_scenes(name)
        stacks = sum(len(scene.stacks) for scene in scenes)
        assert built == {"Stack": stacks}
        if name == "t2":
            assert stacks < sum(len(scene.dishes) for scene in scenes)  # some dishes joined


GOLDEN_T1_SEED7 = (
    '{"workspace": [78.000000, 61.000000], "seed": 7, "tier": "t1", "stacks": '
    '[{"base": [32.290084, 9.284604], "dishes": [{"id": 0, "kind": "utensil", "theta": 2.829823}]}, '
    '{"base": [44.050867, 28.411963], "dishes": [{"id": 1, "kind": "utensil", "theta": 0.783612}]}, '
    '{"base": [33.709879, 13.094311], "dishes": [{"id": 2, "kind": "utensil", "theta": 3.015533}]}, '
    '{"base": [64.459471, 46.803310], "dishes": [{"id": 3, "kind": "utensil", "theta": 2.714360}]}, '
    '{"base": [41.945532, 47.203003], "dishes": [{"id": 4, "kind": "bowl"}]}, '
    '{"base": [28.408039, 35.741306], "dishes": [{"id": 5, "kind": "bowl"}]}, '
    '{"base": [15.008354, 23.655483], "dishes": [{"id": 6, "kind": "bowl"}]}, '
    '{"base": [67.080069, 11.873975], "dishes": [{"id": 7, "kind": "bowl"}]}, '
    '{"base": [46.367185, 8.438678], "dishes": [{"id": 8, "kind": "cup"}]}, '
    '{"base": [8.533800, 6.586750], "dishes": [{"id": 9, "kind": "cup"}]}, '
    '{"base": [47.023045, 22.970522], "dishes": [{"id": 10, "kind": "cup"}]}, '
    '{"base": [58.173377, 55.718426], "dishes": [{"id": 11, "kind": "cup"}]}]}'
)
