"""The PRNG is a cross-platform contract; these vectors pin it forever."""

import pytest

from rolemine.rng import SplitMix64

# First three outputs of the reference SplitMix64 stream for seed 0.
SEED0_VECTORS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_reference_vectors_seed_zero():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_VECTORS


def test_streams_are_reproducible():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_below_stays_in_range_and_hits_all_values():
    rng = SplitMix64(7)
    seen = {rng.below(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_randint_inclusive():
    rng = SplitMix64(11)
    draws = [rng.randint(3, 4) for _ in range(100)]
    assert set(draws) == {3, 4}


@pytest.mark.parametrize("lo, hi", [(3, 2), (0, -1), (5, -5)])
def test_randint_rejects_empty_range(lo, hi):
    with pytest.raises(ValueError, match=rf"^empty range \[{lo}, {hi}\]$"):
        SplitMix64(11).randint(lo, hi)


def test_sample_is_distinct_sorted_subset():
    rng = SplitMix64(3)
    for _ in range(100):
        s = rng.sample(10, 4)
        assert len(s) == 4
        assert len(set(s)) == 4
        assert list(s) == sorted(s)
        assert all(0 <= x < 10 for x in s)


def test_sample_full_and_empty():
    rng = SplitMix64(5)
    assert rng.sample(4, 4) == (0, 1, 2, 3)
    assert rng.sample(4, 0) == ()
    with pytest.raises(ValueError):
        rng.sample(3, 4)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    with pytest.raises(ValueError):
        SplitMix64(-1)
