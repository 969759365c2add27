"""Generator determinism and seed-derivation tests."""

from declutter.rng import MASK64, SplitMix64, derive_seed, fnv1a64


def test_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_known_first_output_for_seed_zero():
    # SplitMix64 reference value: first output for state 0.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_outputs_stay_in_64_bits():
    rng = SplitMix64(999)
    for _ in range(1000):
        assert 0 <= rng.next_u64() <= MASK64


def test_random_in_unit_interval():
    rng = SplitMix64(7)
    values = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.45 < sum(values) / len(values) < 0.55


def test_uniform_respects_bounds():
    rng = SplitMix64(3)
    for _ in range(1000):
        v = rng.uniform(2.0, 5.0)
        assert 2.0 <= v < 5.0


def test_below_range_and_choice():
    rng = SplitMix64(11)
    seen = {rng.below(6) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4, 5}


def test_fnv1a64_known_value():
    # FNV-1a reference: empty string hashes to the offset basis.
    assert fnv1a64("") == 0xCBF29CE484222325


def test_derive_seed_pure_and_order_sensitive():
    assert derive_seed(5, "scene", "t1", 0) == derive_seed(5, "scene", "t1", 0)
    assert derive_seed(5, "scene", "t1", 0) != derive_seed(5, "scene", "t1", 1)
    assert derive_seed(5, "a", "b") != derive_seed(5, "b", "a")


def test_derive_seed_isolates_trials():
    # Adding a policy must not perturb another policy's trial seed.
    before = derive_seed(42, "trial", "t2", 1, "pull")
    _ = derive_seed(42, "trial", "t2", 1, "stack")
    assert derive_seed(42, "trial", "t2", 1, "pull") == before
