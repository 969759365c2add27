"""Generator determinism and seed-derivation tests."""

import hashlib

import pytest

from declutter.rng import MASK64, SplitMix64, derive_seed, fnv1a64

# sha256 of the lines ``_stream_lines`` yields, recorded before ``uniform``
# mixed the state inline.  Every scene and every trial is
# drawn from this stream, so a rewrite of the generator must reproduce it
# bit for bit; do not re-record it for a change that keeps outputs.
GOLDEN_STREAM_DIGEST = "5544b206efa6f902509b6f1fb5a512c1107608df61714ce42356cc4677945ee4"


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


def test_below_zero_raises():
    with pytest.raises(ValueError, match="n >= 1"):
        SplitMix64(1).below(0)


def _stream_lines():
    for seed in (0, 1, 7, 2024, MASK64, -5):
        rng = SplitMix64(seed)
        for i in range(500):
            yield repr((rng.next_u64(), rng.random(), rng.uniform(-3.5, 12.25),
                        rng.uniform(0.0, 3.141592653589793), rng.below(1 + i)))


def test_stream_matches_the_recorded_digest():
    text = "\n".join(_stream_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_STREAM_DIGEST


def test_fnv1a64_known_value():
    # FNV-1a reference: empty string hashes to the offset basis.
    assert fnv1a64("") == 0xCBF29CE484222325


@pytest.mark.parametrize("text, value", [
    ("a", 0xAF63DC4C8601EC8C),  # published FNV-1a 64 test vectors
    ("foobar", 0x85944171F73967E8),
])
def test_fnv1a64_published_vectors_also_from_the_cache(text, value):
    fnv1a64.cache_clear()
    assert fnv1a64(text) == value
    hits = fnv1a64.cache_info().hits
    assert fnv1a64(text) == value
    assert fnv1a64.cache_info().hits == hits + 1


@pytest.mark.parametrize("parts, value", [
    ((7, "trial", "t1", 3, "pull"), 16836788378002503896),
    ((7, "scene", "t2", 199), 5103204551010088902),
])
def test_derive_seed_pinned_values_also_from_the_cache(parts, value):
    # Seeds of a plan's trials and scenes, recorded before fnv1a64 was cached.
    fnv1a64.cache_clear()
    assert derive_seed(*parts) == value
    assert derive_seed(*parts) == value
    assert fnv1a64.cache_info().hits == sum(isinstance(p, str) for p in parts)


def test_derive_seed_pure_and_order_sensitive():
    assert derive_seed(5, "scene", "t1", 0) == derive_seed(5, "scene", "t1", 0)
    assert derive_seed(5, "scene", "t1", 0) != derive_seed(5, "scene", "t1", 1)
    assert derive_seed(5, "a", "b") != derive_seed(5, "b", "a")


def test_derive_seed_isolates_trials():
    # Adding a policy must not perturb another policy's trial seed.
    before = derive_seed(42, "trial", "t2", 1, "pull")
    _ = derive_seed(42, "trial", "t2", 1, "stack")
    assert derive_seed(42, "trial", "t2", 1, "pull") == before
