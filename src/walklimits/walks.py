"""Random walks, their rescaled trajectories and centre-of-mass series.

``prefix_sum_batches`` builds every prefix-sum batch: of walk ensembles and
of Brownian surrogates (``sample_brownian``, ``sample_tilde_bd``) alike,
drawing each replica's steps in cache-sized chunks.  ``step_byte_batches``
gives d = 1 Rademacher and lattice ensembles as their step bits instead, 8
steps to a byte with the walk's value before each byte; ``functionals``
reads max, arcsine and G_k off them through ``BYTE_PATH``.  A single walk
(``sample_walk``) keys its one stream with ``rng.replica_stream``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .laws import CovSpec, sqrt_psd
from .rng import replica_stream, replica_streams
from .trajectory import Trajectory, _frozen


@dataclass(frozen=True)
class IncrementLaw:
    """A step distribution with exactly known mean vector and covariance.

    The closed kind table ``LAWS`` (no user plug-ins) keeps the exact mu and
    Sigma visible to every test and reference-law computation.
    """

    kind: str
    dim: int
    mu: np.ndarray
    sigma: np.ndarray
    _root: np.ndarray = field(repr=False, default=None)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n increments as an (n, dim) array."""
        return LAWS[self.kind].steps(self, n, rng)


def _vec(mu, dim) -> np.ndarray:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if dim is not None and mu.size != dim:
        raise ValueError(f"mean vector has dimension {mu.size}, expected {dim}")
    return _frozen(mu)


def rademacher(dim: int = 1) -> IncrementLaw:
    """Independent +-1 coordinates; mean 0, covariance identity."""
    return IncrementLaw("rademacher", dim, _frozen(np.zeros(dim)), _frozen(np.eye(dim)))


def gaussian(mu, sigma) -> IncrementLaw:
    """Normal increments with the given mean and covariance."""
    mu = _vec(mu, None)
    spec = sqrt_psd(sigma)
    if spec.dim != mu.size:
        raise ValueError("mean and covariance dimensions do not match")
    return IncrementLaw("gaussian", mu.size, mu, spec.matrix, _root=spec.root)


def uniform_cube(mu) -> IncrementLaw:
    """Uniform on the unit cube centred at mu; covariance identity / 12."""
    mu = _vec(mu, None)
    d = mu.size
    return IncrementLaw("uniform-cube", d, mu, _frozen(np.eye(d) / 12.0))


def deterministic(mu) -> IncrementLaw:
    """Every step equals mu exactly; covariance 0."""
    mu = _vec(mu, None)
    d = mu.size
    return IncrementLaw("deterministic", d, mu, _frozen(np.zeros((d, d))))


def lattice(dim: int = 1) -> IncrementLaw:
    """Simple symmetric lattice steps +-e_i; mean 0, covariance identity / d."""
    return IncrementLaw(
        "lattice-simple-symmetric",
        dim,
        _frozen(np.zeros(dim)),
        _frozen(np.eye(dim) / dim),
    )


def _halves(rng, m: int) -> np.ndarray:
    """The next m 32-bit halves of the stream's raw 64-bit words, low half first.

    On a fresh stream with 64-bit output (Philox, PCG64), integers(0, 2**k)
    draws the top k bits of each half, one half per draw.
    """
    return rng.bit_generator.random_raw(-(-m // 2)).astype("<u8", copy=False).view("<u4")[:m]


def _lattice_steps(law: IncrementLaw, n: int, rng) -> np.ndarray:
    # move 2i is +e_i and move 2i + 1 is -e_i; the rows' off-axis zeros are +0.0
    d = law.dim
    rows = np.zeros((2 * d, d))
    rows[np.arange(2 * d), np.arange(2 * d) // 2] = np.tile([1.0, -1.0], d)
    if d & (d - 1):
        return rows[rng.integers(0, 2 * d, size=n)]
    # where 2d is a power of two, integers(0, 2d) is the top log2(2d) bits of
    # each half (Lemire's method never rejects there)
    return rows[_halves(rng, n) >> (32 - d.bit_length())]


class LawKind(NamedTuple):
    """An increment law kind: its step sampler, its builder, whether its mean is
    zero and in which dimensions a walk's steps may be drawn in chunks of an
    even number of steps."""

    steps: Callable  # (law, n, rng) -> a fresh (n, dim) float array of increments
    build: Callable  # (dim, mu, sigma) -> IncrementLaw
    zero_mean: bool
    # dim -> whether draws of even step counts take the stream's words
    # exactly as one whole draw does.  integers(0, 2d) takes one 32-bit half
    # per draw when 2d is a power of two (Lemire's method never rejects
    # there); otherwise a rejection takes a data-dependent number of halves,
    # and a call drops the half it has left over.
    split: Callable = lambda dim: True


def _rademacher_steps(law: IncrementLaw, n: int, rng) -> np.ndarray:
    # equals (rng.integers(0, 2, (n, dim)) * 2 - 1) on a fresh stream
    return ((_halves(rng, n * law.dim) >> 31) * 2.0 - 1.0).reshape(n, law.dim)


def _add_mean(x: np.ndarray, mu: np.ndarray) -> None:
    # one column at a time: x += mu broadcasts over an inner axis of length d
    # and takes 53 us per 8192 x 2 chunk, the columns 14 us (one CPU)
    for j, m in enumerate(mu):
        x[:, j] += m


# The in-place forms below are mu + z @ root and (mu + u) - 0.5: the same
# IEEE operations in the same order, without a second (n, d) temporary.
def _gaussian_steps(law: IncrementLaw, n: int, rng) -> np.ndarray:
    x = rng.standard_normal((n, law.dim)) @ law._root
    _add_mean(x, law.mu)
    return x


def _uniform_cube_steps(law: IncrementLaw, n: int, rng) -> np.ndarray:
    x = rng.random((n, law.dim))
    _add_mean(x, law.mu)
    x -= 0.5
    return x


LAWS = {
    "rademacher": LawKind(
        _rademacher_steps, lambda dim, mu, sigma: rademacher(dim), True),
    "gaussian": LawKind(
        _gaussian_steps, lambda dim, mu, sigma: gaussian(mu, sigma), False),
    "uniform-cube": LawKind(
        _uniform_cube_steps, lambda dim, mu, sigma: uniform_cube(mu), False),
    "deterministic": LawKind(
        lambda law, n, rng: np.tile(law.mu, (n, 1)),
        lambda dim, mu, sigma: deterministic(mu), False),
    "lattice-simple-symmetric": LawKind(
        _lattice_steps, lambda dim, mu, sigma: lattice(dim), True,
        split=lambda dim: dim & (dim - 1) == 0),
}


@dataclass(frozen=True)
class Walk:
    """Increments and prefix sums of one walk; immutable after construction."""

    dim: int
    increments: np.ndarray
    sums: np.ndarray

    @property
    def n(self) -> int:
        return len(self.increments)


def sample_walk(law: IncrementLaw, n: int, seed: int, replica: int = 0) -> Walk:
    """Sample a walk of n steps; identical (law, n, seed, replica) reproduce it."""
    if n < 1:
        raise ValueError("walk length n must be >= 1")
    inc = law.sample(n, replica_stream(seed, replica))
    sums = np.empty((n + 1, law.dim))
    sums[0] = 0.0
    np.cumsum(inc, axis=0, out=sums[1:])
    # the sampler's array is fresh, so it is frozen in place, not copied
    inc.setflags(write=False)
    sums.setflags(write=False)
    return Walk(dim=law.dim, increments=inc, sums=sums)


# A prefix-sum batch holds at most this many replicas and, when n is large,
# at most this many bytes (results are per replica, so batching never
# changes a report).  The byte budget is the L2 size of a 2-core x86-64 host
# (2 MiB per core).  Time there does not choose it: in-process seconds,
# median [quartiles] of 10 alternating rounds at the benchmark's sizes
# (max-clt at 256 x 2*10^5), do not separate 2, 4 and 8 MiB, and only
# max-clt is slower at 64 MiB:
#
#   op             2 MiB               4 MiB               64 MiB
#   com-kernel     1.729 [1.714 1.750] 1.731 [1.678 1.798] 1.748 [1.665 1.795]
#   max-clt        0.541 [0.517 0.561] 0.549 [0.524 0.558] 0.597 [0.565 0.629]
#   arcsine        0.270 [0.260 0.275] 0.254 [0.230 0.268] 0.258 [0.249 0.268]
#   etemadi-d2     0.186 [0.179 0.194] 0.175 [0.167 0.186] 0.185 [0.177 0.188]
#   drift-volume   0.721 [0.694 0.740] 0.719 [0.645 0.755] 0.682 [0.640 0.735]
#
# (8 MiB: 1.738, 0.554, 0.271, 0.182, 0.722.)  Memory does choose it: 2 MiB
# holds the peak RSS of one `experiment` process 2-7 MB below 4 MiB
# (com-kernel 74.5 -> 71.4 MB, etemadi-d2 79.3 -> 72.5 MB).  A replica
# larger than the budget gets a batch of its own.
_BATCH_REPLICAS = 256
_BATCH_BYTES = 2 << 20
# A replica's steps are drawn and summed this many at a time, so it holds its
# row of the batch and one chunk's temporaries, never an O(n) draw: at most
# 2 * 8192 * d floats (384 KiB at d = 3), inside the same 2 MiB L2.  Even, so
# that a raw word's two Rademacher steps never straddle two chunks.  Seconds
# of one fresh max-clt process at 256 x 2*10^5 (d = 1) pinned to one CPU,
# median of 8 alternating rounds, and its minor page faults:
#
#   chunk    2^11   2^12   2^13   2^14   2^15   2^16   whole walk
#   s        1.62   1.45   1.32   1.27   1.28   1.47   1.26
#   faults   15k    15k    15k    15k    15k    105k   18k
#
# Smaller chunks pay Python per chunk.  From 2^16 steps glibc trims each
# freed temporary off the top of the heap and the next draw faults it back
# in; a whole draw freed before the next replica's is drawn does the same
# (207k faults, 1.43 s).  2^13 keeps d = 3 chunks below that size as well.
_CHUNK_STEPS = 1 << 13


def prefix_sum_batches(steps: Callable, n: int, dim: int, seed: int,
                       lo: int, hi: int, split: bool = True):
    """(a, b, prefix sums (b-a, n+1, dim)) for replicas a..b-1 of lo..hi-1, where
    replica r's path is the cumsum of its n increments, drawn on its stream by
    ``steps(rng, a, b)``, which returns increments a..b-1 as a fresh array.

    Each row is filled ``_CHUNK_STEPS`` steps at a time (all n at once unless
    ``split``): a chunk's first increment takes the previous prefix sum in
    place, then one cumsum writes the chunk's prefix sums.  The first chunk
    takes no carry (a -0.0 step stays -0.0), so every row equals one whole
    cumsum bit for bit.

    Every batch is a view of one buffer, so the next batch overwrites it: use
    a batch fully before advancing.
    """
    size = max(1, min(_BATCH_REPLICAS, _BATCH_BYTES // ((n + 1) * dim * 8)))
    chunk = _CHUNK_STEPS if split else n
    buf = np.empty((min(size, hi - lo), n + 1, dim))
    buf[:, 0] = 0.0
    streams = replica_streams(seed, lo, hi)
    for a in range(lo, hi, size):
        b = min(a + size, hi)
        for row, rng in zip(buf[: b - a], streams):
            for c in range(0, n, chunk):
                e = min(c + chunk, n)
                x = steps(rng, c, e)
                if c:
                    x[0] += row[c]
                np.cumsum(x, axis=0, out=row[c + 1 : e + 1])
        yield a, b, buf[: b - a]


# BYTE_PATH[b, t] is the walk after t + 1 of the 8 steps packed in byte b,
# first step in the top bit, a set bit an up-step (int8, 256 x 8).
BYTE_PATH = np.cumsum(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).view(np.int8) * 2 - 1,
    axis=1, dtype=np.int8)
# A replica's step bits are drawn and packed this many steps at a time: a
# multiple of 16, so that no raw word or byte straddles two chunks, and a
# chunk's raw words and signs (5 bytes a step) are not an O(n) draw.  Seconds
# of one fresh max-clt process at 256 x 2*10^5 pinned to one CPU, median of
# 8 alternating rounds (quartiles about 0.1 s apart), and its minor faults:
#
#   chunk    2^12   2^13   2^14   2^15   2^16   2^17   whole walk
#   s        0.98   0.85   0.81   0.77   0.84   0.81   0.80
#   faults   13.4k  13.4k  13.3k  13.3k  13.3k  13.3k  13.4k
_BYTE_CHUNK_STEPS = 1 << 15


# The d = 1 laws whose step is the top bit of a 32-bit half, by whether that
# bit set is a down-step: Rademacher steps are (half >> 31) * 2 - 1, lattice
# moves half >> 31 with move 0 the up-step +1.
BYTE_LAWS = {"rademacher": False, "lattice-simple-symmetric": True}


class StepBytes(NamedTuple):
    """A batch of d = 1 walks of n +-1 steps as packed step bits.

    ``bits[r, j]`` holds steps 8j + 1 .. 8j + 8 of replica r (``BYTE_PATH``'s
    order), padded past n with down-steps (clear bits); ``before[r, j]`` is
    S_{8j}, the exclusive cumsum of the bytes' net moves.
    """

    bits: np.ndarray  # (b, ceil(n / 8)) uint8
    before: np.ndarray  # (b, ceil(n / 8)) int64
    n: int


def step_byte_batches(n: int, seed: int, lo: int, hi: int, inverted: bool = False):
    """(a, b, ``StepBytes``) for d = 1 walks a..b-1 of lo..hi-1 of a law in
    ``BYTE_LAWS``, whose entry is ``inverted``.

    Each replica's steps are the bits ``_rademacher_steps`` (or, inverted,
    ``_lattice_steps``) reads from its stream, the top bit of each half of a
    raw word, drawn ``_BYTE_CHUNK_STEPS`` at a time and packed 8 to a byte,
    a set bit an up-step.  A batch holds at
    most ``_BATCH_REPLICAS`` replicas and, with one int64 temporary of its
    shape (the cumsum's cast and each evaluator make one), ``_BATCH_BYTES``
    bytes (17 per 8 steps), or one replica.  Every batch is a view of the
    same buffers.
    """
    width = -(-n // 8)
    size = max(1, min(_BATCH_REPLICAS, _BATCH_BYTES // (width * 17)))
    bits = np.empty((min(size, hi - lo), width), dtype=np.uint8)
    before = np.empty(bits.shape, dtype=np.int64)
    before[:, 0] = 0
    up = np.less if inverted else np.greater_equal
    streams = replica_streams(seed, lo, hi)
    for a in range(lo, hi, size):
        b = min(a + size, hi)
        for row, rng in zip(bits[: b - a], streams):
            for c in range(0, n, _BYTE_CHUNK_STEPS):
                e = min(c + _BYTE_CHUNK_STEPS, n)
                row[c // 8 : -(-e // 8)] = np.packbits(up(_halves(rng, e - c), 1 << 31))
        np.cumsum(np.take(BYTE_PATH[:, 7], bits[: b - a, :-1]), axis=1, out=before[: b - a, 1:])
        yield a, b, StepBytes(bits[: b - a], before[: b - a], n)


def _scaled_trajectory(kind: str, values: np.ndarray) -> Trajectory:
    """A trajectory at breakpoints k / n that keeps its fresh values array (frozen in place)."""
    n = len(values) - 1
    times = np.arange(n + 1) / n
    times[-1] = 1.0
    times.setflags(write=False)
    values.setflags(write=False)
    return Trajectory(kind, times, values)


def lln_trajectory(walk: Walk, kind: str) -> Trajectory:
    """Law-of-large-numbers scaling: values S_k / n at breakpoints k / n."""
    return _scaled_trajectory(kind, walk.sums / walk.n)


def clt_trajectory(walk: Walk, kind: str, mu) -> Trajectory:
    """Central-limit scaling of the centred walk: (S_k - k mu) / sqrt(n)."""
    n = walk.n
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    # one fresh array: S_k - k mu, then divided in place
    values = np.outer(np.arange(n + 1), mu)
    np.subtract(walk.sums, values, out=values)
    values /= np.sqrt(n)
    return _scaled_trajectory(kind, values)


@dataclass(frozen=True)
class ComSeries:
    """Running averages G_k = (S_1 + ... + S_k) / k with G_0 = 0."""

    values: np.ndarray


def centre_of_mass(walk: Walk) -> ComSeries:
    n = walk.n
    csum = np.cumsum(walk.sums[1:], axis=0)
    g = csum / np.arange(1, n + 1)[:, None]
    return ComSeries(values=_frozen(np.vstack([np.zeros(walk.dim), g])))


def centre_of_mass_weighted(walk: Walk) -> np.ndarray:
    """G_n as the triangular weighted sum of increments, sum_i ((n-i+1)/n) xi_i."""
    n = walk.n
    weights = (n - np.arange(1, n + 1) + 1) / n
    return weights @ walk.increments


def sample_brownian(cov: CovSpec, grid, seed: int, lo: int, hi: int):
    """Brownian paths lo..hi-1 on a grid, as ``prefix_sum_batches``: independent
    N(0, dt * Sigma) increments, drawn from the streams of replicas lo..hi-1.

    The grid must be strictly increasing from 0 to 1; each path is 0 at 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must have at least two points")
    if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must increase strictly from 0 to 1")
    root_dt = np.sqrt(np.diff(grid))[:, None]

    def steps(rng, a, b):
        # sqrt(dt) * (z @ root), scaled in place: the same IEEE operations
        x = rng.standard_normal((b - a, cov.dim)) @ cov.root
        x *= root_dt[a:b]
        return x

    return prefix_sum_batches(steps, len(root_dt), cov.dim, seed, lo, hi)


def sample_tilde_bd(cov_perp: CovSpec, grid, seed: int, lo: int, hi: int):
    """Time-space paths (t, b_{d-1}(t)) lo..hi-1: ``sample_brownian``'s batches
    with the grid as coordinate 0, exactly."""
    if cov_perp.dim < 1:
        raise ValueError("needs ambient dimension >= 2")
    grid = np.asarray(grid, dtype=float)
    return ((a, b, np.dstack((np.broadcast_to(grid, values.shape[:2]), values)))
            for a, b, values in sample_brownian(cov_perp, grid, seed, lo, hi))
