"""`DrawSource` against `np.random.Generator` over the same PCG64 seed: its
exploration scans equal `random() < epsilon` draws, each exploring one
followed by `integers(n)`, and its integers equal `integers(n)`, in any
interleaving, across blocks. `ScalarDrawSource`, the oracle that reads one
raw draw at a time, is checked against the same."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.agent import BLOCK, DrawSource
from reference import ScalarDrawSource

# integers(n) bounds: the engine's range of UE counts, and n >= 2**31, where
# about half of all draws take Lemire's rejection loop
BOUNDS = st.integers(2, 1000) | st.integers(2**31, 2**32 - 1)
# the smallest and largest epsilons, one with an integer bound and the default
EPSILONS = st.sampled_from([5e-324, 0.1, 0.5, 1 - 2**-53, 1.0])
MEMBERS = st.integers(1, 5).map(lambda n: tuple(range(3, 3 + 2 * n, 2)))
# an exploration scan of `count` draws over `members`, or an integers(n) call
CALLS = st.tuples(st.integers(1, 40), MEMBERS) | BOUNDS


def explore_by_generator(rng, epsilon, count, members):
    """`DrawSource.explore` as `_epsilon_greedy` draws it from `rng`."""
    picks = [
        (i, members[int(rng.integers(len(members)))])
        for i in range(count)
        if rng.random() < epsilon
    ]
    return picks if len(members) > 1 else []  # one member: the greedy action


def _replay(source, rng, epsilon, calls):
    for call in calls:
        if isinstance(call, tuple):
            got, want = source.explore(*call), explore_by_generator(rng, epsilon, *call)
        else:
            got, want = source.integers(call), int(rng.integers(call))
            assert type(got) is int and 0 <= got < call
        assert got == want


def _pair(seed, epsilon=0.1):
    return DrawSource(np.random.PCG64(seed), epsilon), np.random.Generator(np.random.PCG64(seed))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), epsilon=EPSILONS, calls=st.lists(CALLS, max_size=30))
def test_equals_generator(seed, epsilon, calls):
    _replay(*_pair(seed, epsilon), epsilon, calls)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), epsilon=EPSILONS, data=st.data())
def test_equals_generator_past_several_blocks(seed, epsilon, data):
    # at least 20 scans of 20 draws, past the third block, each scan
    # followed by an integers call or not
    scan = st.tuples(st.integers(20, 40), MEMBERS)
    pairs = data.draw(st.lists(st.tuples(scan, st.none() | BOUNDS), min_size=20, max_size=25))
    calls = [call for pair in pairs for call in pair if call is not None]
    _replay(*_pair(seed, epsilon), epsilon, calls)


def test_one_bound_draws_nothing():
    # a scan over one member lists no pick and, as Generator.integers(1),
    # draws no integer: only its `count` random() draws are read
    source, rng = _pair(3, epsilon=1.0)
    assert source.explore(10, (7,)) == []
    rng.random(10)  # the scan's draws
    assert [source.integers(9) for _ in range(5)] == [int(rng.integers(9)) for _ in range(5)]


def test_rejection_loop_runs():
    # at n = 2**31 + 1 about half of all low halves are rejected, so 64
    # integers read more than the 32 raw draws they would without rejection
    source, rng = _pair(11)
    n = 2**31 + 1
    assert [source.integers(n) for _ in range(64)] == [int(rng.integers(n)) for _ in range(64)]
    unrejected = np.random.PCG64(11)
    unrejected.random_raw(32)
    assert rng.bit_generator.state["state"] != unrejected.state["state"]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    calls=st.lists(st.one_of(st.just(None), st.just(1), BOUNDS), min_size=BLOCK, max_size=3 * BLOCK),
)
def test_oracle_equals_generator(seed, calls):
    # None is a random() call; integers(1) draws nothing
    oracle = ScalarDrawSource(np.random.PCG64(seed))
    rng = np.random.Generator(np.random.PCG64(seed))
    got = [oracle.random() if n is None else oracle.integers(n) for n in calls]
    assert got == [rng.random() if n is None else int(rng.integers(n)) for n in calls]
