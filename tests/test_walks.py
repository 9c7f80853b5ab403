import math
import tracemalloc

import numpy as np
import pytest

from walklimits import (
    CONSTANT,
    LINEAR,
    Trajectory,
    Walk,
    centre_of_mass,
    centre_of_mass_weighted,
    clt_trajectory,
    deterministic,
    gaussian,
    lattice,
    lln_trajectory,
    rademacher,
    rho_inf,
    sample_brownian,
    sample_tilde_bd,
    sample_walk,
    segment,
    sqrt_psd,
    uniform_cube,
)
from walklimits import walks

from conftest import reference_stream, whole_walk_sums


def test_sample_walk_reproducible():
    law = gaussian([0.0, 0.0], np.eye(2))
    a = sample_walk(law, 50, seed=42)
    b = sample_walk(law, 50, seed=42)
    assert np.array_equal(a.sums, b.sums)
    c = sample_walk(law, 50, seed=43)
    assert not np.array_equal(a.sums, c.sums)
    d = sample_walk(law, 50, seed=42, replica=1)
    assert not np.array_equal(a.sums, d.sums)


def test_sample_walk_rejects_bad_length():
    with pytest.raises(ValueError):
        sample_walk(rademacher(1), 0, seed=0)


def test_gaussian_law_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        gaussian([1.0, 0.0], np.eye(3))


def test_prefix_sum_invariant_against_compensated_sum():
    law = uniform_cube([0.3, -0.2])
    walk = sample_walk(law, 2000, seed=5)
    inc = law.sample(2000, reference_stream(5, 0))
    for j in range(walk.dim):
        exact = [math.fsum(inc[:k, j]) for k in (1, 700, 2000)]
        for k, e in zip((1, 700, 2000), exact):
            scale = max(1.0, abs(e))
            assert abs(walk.sums[k, j] - e) <= 1e-10 * scale
    assert np.array_equal(walk.sums[0], np.zeros(2))
    assert np.allclose(np.diff(walk.sums, axis=0), inc, atol=1e-12)


def test_deterministic_walks():
    zero = sample_walk(deterministic([0.0]), 10, seed=1)
    assert np.all(zero.sums == 0.0)
    drift = sample_walk(deterministic([1.0]), 4, seed=1)
    assert np.array_equal(drift.sums[:, 0], [0, 1, 2, 3, 4])


def test_law_moments_match_declared():
    # sample moments of each law against its declared mu and sigma
    rng_seed = 99
    for law in (rademacher(2), gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
                uniform_cube([0.25, 0.0]), lattice(2)):
        inc = law.sample(200_000, reference_stream(rng_seed, 0))
        tol = 4.0 * np.sqrt(np.diag(law.sigma).max() / len(inc) + 1e-12)
        assert np.allclose(inc.mean(axis=0), law.mu, atol=max(tol, 0.02))
        emp = np.cov(inc.T)
        assert np.allclose(emp, law.sigma, atol=0.03)


def test_rademacher_mean_clt_bound():
    # |mean of S_n / n| over many seeds, against the 3 sigma / sqrt(R n) oracle
    n, reps = 100_000, 1000
    law = rademacher(1)
    total = 0.0
    for r in range(reps):
        inc = law.sample(n, reference_stream(2024, r))
        total += inc.sum()
    mean = total / (reps * n)
    assert abs(mean) < 0.01
    assert abs(mean) < 3.0 / math.sqrt(reps * n)


def _integers_steps(n, d, rng):
    """The Rademacher sampler as first written: int64 draws, doubled and cast."""
    return (rng.integers(0, 2, size=(n, d)) * 2 - 1).astype(float)


@pytest.mark.parametrize("seed,replica", [(0, 0), (7, 3), (20260812, 41), (2**40 + 1, 999)])
def test_rademacher_steps_equal_integers_draws(seed, replica):
    # steps read from raw words equal integers(0, 2) on a fresh stream, odd n * d too
    for n in (1, 2, 3, 7, 1000, 10001):
        for d in (1, 2, 3):
            law = rademacher(d)
            for fresh in (lambda: reference_stream(seed, replica),
                          lambda: np.random.default_rng(seed + replica)):
                got = law.sample(n, fresh())
                assert got.shape == (n, d) and got.dtype == np.float64
                assert np.array_equal(got, _integers_steps(n, d, fresh()))


def _old_steps(law, n, rng):
    """The Gaussian and uniform-cube samplers as first written, out of place."""
    if law.kind == "gaussian":
        return law.mu + rng.standard_normal((n, law.dim)) @ law._root
    if law.kind == "uniform-cube":
        return law.mu + rng.random((n, law.dim)) - 0.5
    return law.sample(n, rng)


@pytest.mark.parametrize("law", [
    rademacher(2), gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]), uniform_cube([0.1, -0.7]),
    deterministic([0.25, -3.0]), lattice(2)], ids=lambda law: law.kind)
def test_sample_walk_arrays_are_frozen_and_separate(law):
    # a walk is its replica's row of the chunked ensemble route, frozen in its
    # own buffer: byte for byte one whole draw's cumsum, and the values of
    # the samplers as first written
    for n in (1, 2, 999, walks._CHUNK_STEPS + 1):
        walk = sample_walk(law, n, 13, replica=4)
        assert walk.n == n and walk.dim == 2
        assert walk.sums.tobytes() == whole_walk_sums(law, n, 13, 4).tobytes()
        inc = _old_steps(law, n, reference_stream(13, 4))
        assert np.array_equal(walk.sums, np.vstack([np.zeros(2), np.cumsum(inc, axis=0)]))
        assert walk.sums.dtype == np.float64 and not walk.sums.flags.writeable
        assert not np.shares_memory(walk.sums, sample_walk(law, n, 13, replica=5).sums)
        with pytest.raises(ValueError):
            walk.sums[0, 0] = 1.0


def test_lln_trajectory_grid_agreement():
    walk = sample_walk(rademacher(1), 64, seed=3)
    lin = lln_trajectory(walk, LINEAR)
    con = lln_trajectory(walk, CONSTANT)
    ts = np.arange(65) / 64
    assert np.allclose(lin(ts)[:, 0], walk.sums[:, 0] / 64)
    assert np.allclose(con(ts)[:, 0], walk.sums[:, 0] / 64)


def test_lln_trajectory_hand_evaluation():
    # sums (0, 1, 0): linear kind interpolates, constant kind floors
    walk = Walk(np.array([[0.0], [1.0], [0.0]]))
    lin = lln_trajectory(walk, LINEAR)
    con = lln_trajectory(walk, CONSTANT)
    assert lin(0.25)[0] == pytest.approx(0.25, abs=1e-15)
    assert con(0.25)[0] == 0.0


def test_lln_deterministic_equals_segment_exactly():
    for mu in (1.0, -1.0, 0.5):
        for n in (1, 7, 37, 256):
            walk = sample_walk(deterministic([mu]), n, seed=0)
            lin = lln_trajectory(walk, LINEAR)
            assert rho_inf(lin, segment([mu])) == 0.0


def test_clt_trajectory_centering_and_grid():
    walk = sample_walk(deterministic([0.7]), 20, seed=0)
    traj = clt_trajectory(walk, LINEAR, [0.7])
    assert np.allclose(traj.values, 0.0)
    walk = sample_walk(rademacher(1), 50, seed=8)
    con = clt_trajectory(walk, CONSTANT, [0.0])
    ts = np.arange(51) / 50
    assert np.allclose(con(ts)[:, 0], walk.sums[:, 0] / math.sqrt(50))



@pytest.mark.parametrize("scaling", ["lln", "clt"])
def test_scaled_trajectory_memory_is_one_array(scaling):
    # (S_k - k mu) / sqrt(n) and S_k / n are built in one fresh array that the
    # trajectory keeps: the same values as the out-of-place form, and traced
    # memory of one values array and one grid, plus the grid's check for
    # increasing breakpoints (two more copies of the values before)
    n, mu = 200_000, np.array([1.0, -0.5])
    walk = sample_walk(gaussian(mu, [[2.0, 0.3], [0.3, 1.0]]), n, seed=102)
    tracemalloc.start()
    try:
        if scaling == "lln":
            traj = lln_trajectory(walk, LINEAR)
        else:
            traj = clt_trajectory(walk, CONSTANT, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if scaling == "lln":
        want = walk.sums / n
    else:
        want = (walk.sums - np.outer(np.arange(n + 1), mu)) / np.sqrt(n)
    assert np.array_equal(traj.values, want)
    assert np.array_equal(traj.times[:-1], np.arange(n) / n) and traj.times[-1] == 1.0
    assert not traj.values.flags.writeable and not traj.times.flags.writeable
    assert peak < traj.values.nbytes + 2 * traj.times.nbytes + 2**20

def test_clt_endpoint_variance():
    n, reps = 10_000, 10_000
    law = rademacher(1)
    vals = np.empty(reps)
    for r in range(reps):
        inc = law.sample(n, reference_stream(77, r))
        vals[r] = inc.sum() / math.sqrt(n)
    assert 0.95 <= vals.var(ddof=1) <= 1.05


def test_centre_of_mass_matches_weighted_form():
    walk = sample_walk(deterministic([1.0]), 4, seed=0)
    com = centre_of_mass(walk)
    assert com.values[-1, 0] == pytest.approx(2.5, abs=1e-15)
    assert com.values[0, 0] == 0.0
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        walk = sample_walk(gaussian([0.1], [[1.0]]), n, seed=int(rng.integers(1 << 30)))
        direct = centre_of_mass(walk).values[-1]
        weighted = centre_of_mass_weighted(walk)
        assert np.allclose(direct, weighted, atol=1e-12 * n)
    zero = sample_walk(deterministic([0.0, 0.0]), 12, seed=0)
    assert np.all(centre_of_mass(zero).values == 0.0)


def _one_batch(batches):
    (lo, hi, values), = batches
    return values


def test_brownian_zero_covariance_is_zero_path():
    cov = sqrt_psd([[0.0]])
    assert np.all(_one_batch(sample_brownian(cov, [0.0, 0.5, 1.0], 4, 0, 1)) == 0.0)


def test_brownian_batches_equal_direct_replica_draws():
    # replicas 250..261 straddle the 256-replica key batch edge; each path is
    # the cumsum of sqrt(dt) * (z @ root) on replica r's stream, bit for bit
    cov = sqrt_psd([[2.0, 0.3], [0.3, 1.0]])
    grid = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    seen = []
    for lo, hi, paths in sample_brownian(cov, grid, 19, 250, 262):
        for r, path in enumerate(paths, lo):
            z = reference_stream(19, r).standard_normal((len(grid) - 1, 2))
            steps = np.sqrt(np.diff(grid))[:, None] * (z @ cov.root)
            assert np.array_equal(path, np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))
            seen.append(r)
    assert seen == list(range(250, 262))


CHUNK = walks._CHUNK_STEPS
CHUNK_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def _whole_sums(steps):
    """The prefix sums of one whole draw: one cumsum from an exact 0."""
    return np.vstack([np.zeros((1, steps.shape[1])), np.cumsum(steps, axis=0)])


def _assert_bytes_equal_whole_draws(batches, lo, hi, whole):
    seen = []
    for a, b, sums in batches:
        for r, path in enumerate(sums, a):
            assert path.tobytes() == whole(r).tobytes(), r
            seen.append(r)
    assert seen == list(range(lo, hi))


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(walks.LAWS))
def test_chunked_walk_batches_equal_one_whole_draw(kind, d, n):
    # byte for byte, so a -0.0 first step (deterministic mu) shows that the
    # first chunk takes no carry; odd n * d leaves Rademacher half a raw word
    mu = np.array([-0.0, 0.5, -1.25][:d])
    sigma = np.eye(d) + 0.25
    law = walks.LAWS[kind].build(d, mu, sigma)
    _assert_bytes_equal_whole_draws(
        walks.walk_batches(law, n, 23, 0, 3), 0, 3,
        lambda r: whole_walk_sums(law, n, 23, r))


@pytest.mark.parametrize("d", [3, 5, 6, 7])
def test_lattice_walks_are_chunked_in_every_dimension(d):
    # where 2d is no power of two, integers(0, 2d) rejects some draws and so
    # takes a data-dependent number of 32-bit halves; the bit generator keeps
    # a call's leftover half for the next, so chunks still equal a whole draw
    law = lattice(d)
    n = 2 * CHUNK + 1
    _assert_bytes_equal_whole_draws(
        walks.walk_batches(law, n, 29, 0, 2), 0, 2,
        lambda r: whole_walk_sums(law, n, 29, r))


def test_draws_split_anywhere_but_raw_words_need_even_chunks(monkeypatch):
    # the chunk rule beside _CHUNK_STEPS, pinned on the installed numpy: at an
    # odd chunk, Generator draws still equal whole draws, while _halves drops
    # the last half of each chunk's last raw word
    monkeypatch.setattr(walks, "_CHUNK_STEPS", 4097)
    n = 2 * 4097 + 1
    for law in (gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]), uniform_cube([0.1, -0.7]),
                deterministic([0.25, -3.0]), lattice(3)):
        _assert_bytes_equal_whole_draws(
            walks.walk_batches(law, n, 37, 0, 2), 0, 2,
            lambda r: whole_walk_sums(law, n, 37, r))
    (_, _, sums), = walks.walk_batches(rademacher(1), n, 37, 0, 1)
    assert not np.array_equal(sums[0], whole_walk_sums(rademacher(1), n, 37, 0))


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_chunked_brownian_batches_equal_one_whole_draw(d, n):
    # an uneven grid, so each chunk must scale by its own slice of sqrt(dt)
    cov = sqrt_psd(np.eye(d) * 2.0 + 0.5)
    grid = (np.arange(n + 1) / n) ** 2
    root_dt = np.sqrt(np.diff(grid))[:, None]

    def whole(r):
        return _whole_sums(reference_stream(31, r).standard_normal((n, d)) @ cov.root * root_dt)

    _assert_bytes_equal_whole_draws(sample_brownian(cov, grid, 31, 5, 8), 5, 8, whole)
    _assert_bytes_equal_whole_draws(
        sample_tilde_bd(cov, grid, 31, 5, 8), 5, 8,
        lambda r: np.column_stack([grid, whole(r)]))


def test_brownian_marginal_variance():
    cov = sqrt_psd([[1.0]])
    reps = 100_000
    # each batch overwrites the last, so every value is copied out of it
    vals = np.concatenate([paths[:, 1, 0].copy() for _, _, paths
                           in sample_brownian(cov, [0.0, 0.5, 1.0], 21, 0, reps)])
    assert abs(vals.var(ddof=1) - 0.5) < 0.02


def test_brownian_disjoint_increments_uncorrelated():
    cov = sqrt_psd([[1.0]])
    grid = [0.0, 0.3, 0.4, 0.7, 1.0]
    reps = 50_000
    paths = np.concatenate([p[:, :, 0].copy()
                            for _, _, p in sample_brownian(cov, grid, 33, 0, reps)])
    a = paths[:, 1] - paths[:, 0]
    b = paths[:, 3] - paths[:, 2]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_brownian_rejects_bad_grid():
    cov = sqrt_psd([[1.0]])
    with pytest.raises(ValueError):
        sample_brownian(cov, [0.0, 0.5], 0, 0, 1)
    with pytest.raises(ValueError):
        sample_brownian(cov, [0.1, 0.5, 1.0], 0, 0, 1)


def test_tilde_bd_first_coordinate_is_time():
    cov = sqrt_psd([[1.0]])
    grid = np.linspace(0.0, 1.0, 33)
    for _, _, paths in sample_tilde_bd(cov, grid, 6, 0, 3):
        for path in paths:
            assert np.array_equal(path[:, 0], grid)
    flat = _one_batch(sample_tilde_bd(sqrt_psd([[0.0]]), grid, 6, 0, 1))[0]
    assert rho_inf(Trajectory(LINEAR, grid, flat), segment([1.0, 0.0])) == 0.0


def test_tilde_bd_perpendicular_variance():
    cov = sqrt_psd([[1.0]])
    reps = 10_000
    vals = np.concatenate([paths[:, -1, 1].copy() for _, _, paths
                           in sample_tilde_bd(cov, [0.0, 1.0], 9, 0, reps)])
    assert abs(vals.var(ddof=1) - 1.0) < 0.04


def test_flln_sup_distance_statistical():
    # sup distance of the rescaled path from the drift segment at n = 10^4:
    # scale sqrt(log n / n) ~ 0.03, so 0.1 fails only for outlier seeds
    law = gaussian([0.5], [[1.0]])
    ref = segment([0.5])
    n = 10_000
    hits = 0
    for r in range(100):
        walk = sample_walk(law, n, seed=1010, replica=r)
        traj = lln_trajectory(walk, LINEAR)
        if rho_inf(traj, ref) < 0.1:
            hits += 1
    assert hits >= 95


def _scatter_lattice_steps(d, n, rng):
    """The lattice sampler as first written: integers(0, 2d) scattered into zeros."""
    moves = rng.integers(0, 2 * d, size=n)
    out = np.zeros((n, d))
    out[np.arange(n), moves // 2] = np.where(moves % 2 == 0, 1.0, -1.0)
    return out


@pytest.mark.parametrize("n", [1, 7, CHUNK - 1, CHUNK + 1])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_steps_equal_the_scatter_construction(d, n):
    # byte for byte: every off-axis zero must be +0.0
    for seed, replica in ((0, 0), (31, 7), (2**40 + 1, 999)):
        want = _scatter_lattice_steps(d, n, reference_stream(seed, replica))
        assert lattice(d).sample(n, reference_stream(seed, replica)).tobytes() == want.tobytes()


BYTE_CHUNK = walks._BYTE_CHUNK_STEPS


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, BYTE_CHUNK - 1, BYTE_CHUNK + 1, 2 * BYTE_CHUNK + 9])
def test_step_bytes_pack_the_rademacher_steps(n):
    # bit i of a row (first step in the top bit) is step i + 1 of the walk on
    # the same stream, the padding past n is down-steps, and before[:, j] =
    # S_8j
    seen = []
    for a, b, batch in walks.step_byte_batches(n, 17, 250, 260):
        assert batch.bits.shape == batch.before.shape == (b - a, -(-n // 8))
        for r, bits, before in zip(range(a, b), batch.bits, batch.before):
            steps = rademacher(1).sample(n, reference_stream(17, r))[:, 0]
            padded = np.concatenate([steps, -np.ones(8 * len(bits) - n)])
            assert np.array_equal(np.unpackbits(bits) * 2.0 - 1.0, padded)
            sums = np.concatenate([[0.0], np.cumsum(padded)])
            assert np.array_equal(before, sums[: -1 : 8])
            seen.append(r)
    assert seen == list(range(250, 260))


def test_step_byte_batches_hold_the_budget_or_one_replica():
    # 17 bytes per 8 steps: a byte, an int64 S_8j and an int64 temporary
    for n, total, size in ((10_000, 1000, walks._BATCH_BYTES // (1250 * 17)),
                           (100, 1000, walks._BATCH_REPLICAS), (3 * 10**6, 2, 1)):
        got = [(b - a, batch.bits.base, batch.before.base)
               for a, b, batch in walks.step_byte_batches(n, 3, 0, total)]
        assert {g[0] for g in got[:-1]} <= {size} and got[-1][0] <= size
        assert len({id(g[1]) for g in got}) == len({id(g[2]) for g in got}) == 1


def test_step_byte_batches_memory_is_the_batch_and_one_chunk():
    # four 2*10^5-step walks in one batch: 17 bytes per 8 steps with the
    # cumsum's int64 temporary, and one chunk's raw words, signs and packed
    # bytes (under 6 bytes per step)
    n = 200_000
    tracemalloc.start()
    try:
        for _ in walks.step_byte_batches(n, 5, 0, 4):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * -(-n // 8) * 17 + 6 * BYTE_CHUNK + (64 << 10)
