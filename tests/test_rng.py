"""The PRNG is a cross-platform contract; these vectors pin it forever."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "draw, bound",
    [
        (lambda rng: rng.below(1 << 65), 1 << 65),
        (lambda rng: rng.randint(0, 1 << 64), (1 << 64) + 1),
        (lambda rng: rng.sample(1 << 65, 1), 1 << 65),
    ],
)
def test_bound_above_64_bits_raises(draw, bound):
    # A 64-bit draw cannot be reduced to such a bound without bias, and
    # the rejection loop would reject every draw and never return.
    message = rf"^bound must be at most 2\*\*64, got {bound}$"
    with pytest.raises(ValueError, match=message):
        draw(SplitMix64(1))


def test_bound_of_exactly_2_64_takes_the_draw_as_is():
    rng = SplitMix64(0)
    assert [rng.below(1 << 64) for _ in range(3)] == SEED0_VECTORS


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


def _reference_sample(rng, n, size):
    """Partial Fisher-Yates over a materialised list of [0, n)."""
    pool = list(range(n))
    for i in range(size):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:size]))


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, (1 << 64) - 1),
)
def test_sample_matches_list_reference(n_size, seed):
    n, size = n_size
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng.sample(n, size) == _reference_sample(ref, n, size)
    assert rng.next_u64() == ref.next_u64()  # same number of draws taken


def test_sample_from_a_range_of_2_64_allocates_no_list():
    s = SplitMix64(9).sample(1 << 64, 3)
    assert len(set(s)) == 3 and all(0 <= x < 1 << 64 for x in s)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    with pytest.raises(ValueError):
        SplitMix64(-1)
