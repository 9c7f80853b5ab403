import numpy as np
import pytest

from walklimits.rng import _replica_keys, replica_streams

from conftest import reference_stream

# seeds of 1 to 7 32-bit words: numpy hashes a seed of more than 4 words
# for 4 more steps per word before the spawn key is mixed in
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 + 3, 2**200]
# from 0; mid-run across a key batch; across 2**32, where the spawn key gains a word
RANGES = [(0, 5), (250, 262), (2**32 - 3, 2**32 + 3)]

DRAWS = [
    lambda g: g.bit_generator.random_raw(5),
    lambda g: g.standard_normal(4),
    lambda g: g.random(3),
    lambda g: g.integers(0, 6, 7),  # an odd count of 32-bit draws leaves a half word
]


@pytest.mark.parametrize("lo,hi", RANGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_replica_streams_draw_what_replica_stream_draws(seed, lo, hi):
    # every kind of draw comes first after some re-key, so state left by the
    # previous replica (buffer, half word) must not leak into the next
    count = 0
    for r, gen in zip(range(lo, hi), replica_streams(seed, lo, hi)):
        ref = reference_stream(seed, r)
        for i in range(len(DRAWS)):
            draw = DRAWS[(r + i) % len(DRAWS)]
            assert np.array_equal(draw(gen), draw(ref))
        count += 1
    assert count == hi - lo == sum(1 for _ in replica_streams(seed, lo, hi))


@pytest.mark.parametrize("seed", SEEDS + [20260812])
def test_replica_keys_equal_seed_sequence(seed):
    replicas = np.array([0, 1, 2, 255, 256, 99999, 2**32 - 1], dtype=np.uint64)
    keys = _replica_keys(seed, replicas)
    assert keys.dtype == np.uint64 and keys.shape == (len(replicas), 2)
    for r, key in zip(replicas, keys):
        ss = np.random.SeedSequence(seed, spawn_key=(int(r),))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))
    wide = np.array([2**32, 2**40 + 7, 2**64 - 1], dtype=np.uint64)
    # spawn keys of one and of two words in one call
    mixed = np.array([2**32 - 2, 2**32 - 1, 2**32, 2**63, 7], dtype=np.uint64)
    for batch in (wide, mixed):
        for r, key in zip(batch, _replica_keys(seed, batch)):
            ss = np.random.SeedSequence(seed, spawn_key=(int(r),))
            assert np.array_equal(key, ss.generate_state(2, np.uint64))


def test_replica_streams_reject_bad_ranges():
    with pytest.raises(ValueError):
        next(replica_streams(0, -1, 3))
    with pytest.raises(ValueError):
        next(replica_streams(0, 2**64 - 1, 2**64 + 1))
    with pytest.raises(ValueError):
        next(replica_streams(-1, 0, 3))
    assert list(replica_streams(5, 3, 3)) == []
