"""`DrawSource` against `np.random.Generator` over the same PCG64 seed: the
same doubles and bounded integers in any interleaving, across blocks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.agent import DrawSource

BLOCK = 128  # the raw draws a DrawSource reads at a time

# integers(n) bounds: n = 1 (no draw), the engine's range of UE counts, and
# n >= 2**31, where about half of all draws take Lemire's rejection loop
BOUNDS = st.just(1) | st.integers(2, 1000) | st.integers(2**31, 2**32 - 1)
CALLS = st.one_of(st.just(None), BOUNDS)  # None is a random() call


def _pair(seed):
    return DrawSource(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), calls=st.lists(CALLS, max_size=40))
def test_equals_generator(seed, calls):
    source, rng = _pair(seed)
    for n in calls:
        if n is None:
            got, want = source.random(), rng.random()
        else:
            got, want = source.integers(n), int(rng.integers(n))
            assert type(got) is int and 0 <= got < n
        assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), data=st.data())
def test_equals_generator_past_several_blocks(seed, data):
    source, rng = _pair(seed)
    calls = data.draw(st.lists(CALLS, min_size=3 * BLOCK, max_size=4 * BLOCK))
    got = [source.random() if n is None else source.integers(n) for n in calls]
    assert got == [rng.random() if n is None else int(rng.integers(n)) for n in calls]


def test_one_bound_draws_nothing():
    source, rng = _pair(3)
    assert [source.integers(1) for _ in range(10)] == [0] * 10
    assert [source.random() for _ in range(5)] == [rng.random() for _ in range(5)]


def test_rejection_loop_runs():
    # at n = 2**31 + 1 about half of all low halves are rejected, so 64
    # integers read more than the 32 raw draws they would without rejection
    source, rng = _pair(11)
    n = 2**31 + 1
    assert [source.integers(n) for _ in range(64)] == [int(rng.integers(n)) for _ in range(64)]
    unrejected = np.random.PCG64(11)
    unrejected.random_raw(32)
    assert rng.bit_generator.state["state"] != unrejected.state["state"]
