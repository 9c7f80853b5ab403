import numpy as np
import pytest

from walklimits.rng import _replica_keys, replica_streams

from conftest import reference_stream

# seeds of 1 to 5 32-bit words
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3]
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
    for r, key in zip(wide, _replica_keys(seed, wide)):
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
