"""Deterministic random streams for reproducible Monte Carlo runs.

All randomness flows through Philox, a counter-based 64-bit generator.
Per-replica streams are derived by hashing ``(seed, replica)`` through
numpy's ``SeedSequence``, so serial, batched and parallel schedules all
see identical draws.  Normal variates come from numpy's ziggurat
sampler (``Generator.standard_normal``).

A Philox stream is fixed by its 128-bit key alone (Salmon et al., SC'11),
so ``replica_streams`` loads each replica's key into one reused generator.
The keys of many replicas come from one ``SeedSequence(seed).pool``: numpy
hashes the seed once, and only the replicas' spawn-key words are mixed in
here, as one array operation per hash step for all replicas at once.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF

# Keys are derived for at most this many replicas at a time, so memory stays
# bounded however many replicas a run has.
_KEY_BATCH = 256


def _hashmix(value, h: int, mult: int):
    """SeedSequence's hashmix of ``value`` under the four hash constants from
    ``h`` on, one per pool word: a (4, k) array, and the constant after them."""
    consts = [h]
    for _ in range(4):
        consts.append(consts[-1] * mult & _MASK)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    value = (value ^ consts[:4]) * consts[1:]
    return value ^ (value >> np.uint32(16)), int(consts[4, 0])


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _replica_keys(seed: int, replicas: np.ndarray) -> np.ndarray:
    """(len(replicas), 2) uint64 Philox keys of ``SeedSequence(seed, spawn_key=(r,))``.

    ``SeedSequence(seed).pool`` is the pool before the spawn key is mixed
    in, after 16 hash steps (fill and cross-mix) plus 4 for each seed word
    past the fourth.  Each replica's low word, then the high word of a
    replica at or above 2**32, is mixed into all four pool words, and the
    pool is hashed as ``generate_state(2, np.uint64)`` does.
    """
    pool = np.random.SeedSequence(seed).pool[:, None]
    seed_words = -(-int(seed).bit_length() // 32)
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 2**32) & _MASK
    replicas = np.asarray(replicas, dtype=np.uint64)
    hashed, h = _hashmix(replicas.astype(np.uint32), h, _MULT_A)  # the low words
    pool = _mix(pool, hashed)
    high = (replicas >> np.uint64(32)).astype(np.uint32)
    if high.any():
        hashed, _ = _hashmix(high, h, _MULT_A)
        pool = np.where(high > 0, _mix(pool, hashed), pool)
    state, _ = _hashmix(pool, _INIT_B, _MULT_B)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def replica_streams(seed: int, lo: int, hi: int):
    """The generators of replicas lo..hi-1 in order, each drawing what
    ``Generator(Philox(SeedSequence(seed, spawn_key=(r,))))`` draws.

    One Philox is re-keyed for every replica (zero counter, empty buffer), so
    a yielded generator is valid only until the next one is taken.  Keys are
    derived ``_KEY_BATCH`` replicas at a time.
    """
    if lo < 0:
        raise ValueError("replica index must be nonnegative")
    if hi > 2**64:
        raise ValueError("replica index must be below 2**64")
    bitgen = np.random.Philox(0)
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)
    for start in range(lo, hi, _KEY_BATCH):
        stop = min(start + _KEY_BATCH, hi)
        for key in _replica_keys(seed, np.arange(start, stop, dtype=np.uint64)):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            yield gen
