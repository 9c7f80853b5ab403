"""Deterministic random streams for reproducible Monte Carlo runs.

All randomness flows through Philox, a counter-based 64-bit generator.
Per-replica streams are derived by hashing ``(seed, replica)`` through
numpy's ``SeedSequence``, so serial, batched and parallel schedules all
see identical draws.  Normal variates come from numpy's ziggurat
sampler (``Generator.standard_normal``).

A Philox stream is fixed by its 128-bit key alone (Salmon et al., SC'11),
so ``replica_streams`` derives the keys of many replicas in one vectorised
pass of the ``SeedSequence`` hash and loads each into one reused generator.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence: pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF

# Keys are derived for at most this many replicas at a time, so memory stays
# bounded however many replicas a run has.
_KEY_BATCH = 256


def _words(x: int) -> list:
    """x as little-endian 32-bit words, as SeedSequence takes an int (0 is one word)."""
    words = [x & _MASK]
    while x >> 32:
        x >>= 32
        words.append(x & _MASK)
    return words


def _replica_keys(seed: int, replicas: np.ndarray) -> np.ndarray:
    """(len(replicas), 2) uint64 Philox keys of ``SeedSequence(seed, spawn_key=(r,))``.

    A uint32 transcription of SeedSequence's pool hash and of
    ``generate_state(2, np.uint64)``, one array operation per hash step for
    all replicas at once.  The replicas must all lie below 2**32 or all in
    [2**32, 2**64), so that their spawn keys have the same number of words.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    replicas = np.asarray(replicas, dtype=np.uint64)
    run = _words(seed)
    # with a spawn key, the run entropy is padded with zeros to the pool size
    entropy = [np.array([w], dtype=np.uint32) for w in run + [0] * (_POOL - len(run))]
    entropy.append((replicas & _MASK).astype(np.uint32))
    if replicas.size and replicas.max() >> np.uint64(32):
        entropy.append((replicas >> np.uint64(32)).astype(np.uint32))
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four uint32 words, one per pool word
    h = _INIT_B
    state = np.empty((len(replicas), _POOL), dtype="<u4")
    for i, word in enumerate(pool):
        value = word ^ np.uint32(h)
        h = h * _MULT_B & _MASK
        value = value * np.uint32(h)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


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
    start = lo
    while start < hi:
        # a key batch never straddles 2**32, where spawn keys gain a word
        stop = min(start + _KEY_BATCH, hi)
        if start < 2**32 < stop:
            stop = 2**32
        for key in _replica_keys(seed, np.arange(start, stop, dtype=np.uint64)):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            yield gen
        start = stop
