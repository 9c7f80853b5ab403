
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from walklimits import (
    CONSTANT,
    LINEAR,
    FullSphere,
    HalfspaceCap,
    SphereRect,
    PointSet,
    TimeChange,
    Trajectory,
    c_lambda,
    clt_trajectory,
    gaussian,
    hausdorff,
    lambda_circ_norm,
    modulus_w,
    modulus_w_prime,
    occupation,
    positive_halfline,
    rademacher,
    rho_inf,
    rho_skorokhod,
    rho_skorokhod_circ,
    sample_walk,
    segment,
)
from walklimits.fixtures import jump_alignment, step_f, step_g, step_h
from walklimits import metrics
from walklimits.metrics import (
    _band_sup,
    _piece_intervals,
    _staircase_dp,
    _step_pieces,
    _sup_diff_under,
    identity_time_change,
)

from conftest import random_step, random_time_change


# ---------------------------------------------------------------- rho_inf

def test_rho_inf_reference_values():
    f, g, h = step_f(), step_g(), step_h()
    assert rho_inf(f, g) == pytest.approx(0.2, abs=1e-12)
    assert rho_inf(f, h) == pytest.approx(0.95, abs=1e-12)
    assert rho_inf(f, f) == 0.0


def test_rho_inf_mixed_kinds_take_one_sided_limits():
    lin = segment([1.0])
    con = Trajectory(CONSTANT, [0.0, 1.0], [[0.0], [0.0]])
    # sup |t - 0| approached at t -> 1 (and attained at 1 for the linear side)
    assert rho_inf(lin, con) == pytest.approx(1.0, abs=1e-12)


def test_rho_inf_dimension_mismatch():
    with pytest.raises(ValueError):
        rho_inf(segment([1.0]), segment([1.0, 0.0]))


# ----------------------------------------------------------- rho_skorokhod

def test_rho_skorokhod_reference_values():
    f, g, h = step_f(), step_g(), step_h()
    res_fg = rho_skorokhod(f, g)
    assert res_fg.mode == "exact"
    assert res_fg.value == pytest.approx(0.2, abs=1e-9)
    res_fh = rho_skorokhod(f, h)
    assert res_fh.value == pytest.approx(0.05, abs=1e-9)
    assert res_fh.witness is not None
    assert res_fh.witness.sup_deviation() == pytest.approx(0.01, abs=1e-9)
    # the witness reproduces the bundled alignment map
    lam = jump_alignment()
    ts = np.linspace(0, 1, 101)
    assert np.allclose(res_fh.witness(ts), lam(ts), atol=1e-9)
    assert rho_skorokhod(f, f).value == 0.0


def test_rho_skorokhod_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        rho_skorokhod(step_f(), segment([1.0]))


def test_rho_skorokhod_linear_pairs_upper_bound():
    res = rho_skorokhod(segment([1.0]), segment([0.5]))
    assert res.mode == "upper-bound"
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_rho_skorokhod_jump_cap_falls_back_to_upper_bound():
    rng = np.random.default_rng(0)
    f = random_step(rng, max_jumps=5)
    g = random_step(rng, max_jumps=5)
    res = rho_skorokhod(f, g, j_max=1)
    assert res.mode == "upper-bound"
    assert res.value == pytest.approx(rho_inf(f, g), abs=1e-12)


def test_rho_skorokhod_never_beaten_by_random_time_changes(rng):
    # exact mode: no time change in (or out of) the search class improves it
    for _ in range(60):
        f = random_step(rng, max_jumps=4)
        g = random_step(rng, max_jumps=4)
        value = rho_skorokhod(f, g).value
        assert value <= rho_inf(f, g) + 1e-12
        for _ in range(40):
            lam = random_time_change(rng)
            obj = max(lam.sup_deviation(), _sup_diff(f, g, lam))
            assert obj >= value - 1e-9


def _sup_diff(f, g, lam):
    # sup_t |f(t) - g(lambda(t))| on a fine grid plus one-sided probes
    probes = np.concatenate(
        [f.times, np.asarray(lam.inverse()(g.times)), np.linspace(0, 1, 2001)]
    )
    probes = np.unique(np.clip(probes, 0.0, 1.0))
    eps = 1e-12
    probes = np.unique(
        np.clip(np.concatenate([probes, probes - eps, probes + eps]), 0.0, 1.0)
    )
    diffs = np.linalg.norm(f(probes) - g(np.asarray(lam(probes))), axis=1)
    return float(diffs.max())


def test_rho_skorokhod_symmetry_and_triangle(rng):
    for _ in range(200):
        f = random_step(rng, max_jumps=3)
        g = random_step(rng, max_jumps=3)
        h = random_step(rng, max_jumps=3)
        dfg = rho_skorokhod(f, g).value
        dgf = rho_skorokhod(g, f).value
        assert dfg == pytest.approx(dgf, abs=1e-9)
        dfh = rho_skorokhod(f, h).value
        dgh = rho_skorokhod(g, h).value
        assert dfh <= dfg + dgh + 1e-9


# ------------------------------------------------------ lambda norms

def test_lambda_circ_norm_identity_and_example():
    assert lambda_circ_norm(identity_time_change()) == 0.0
    lam = jump_alignment()
    expected = math.log(50.0 / 49.0)
    assert lambda_circ_norm(lam) == pytest.approx(expected, abs=1e-12)
    # grid brute force over chords
    grid = np.linspace(0.0, 1.0, 1001)
    vals = np.asarray(lam(grid))
    best = 0.0
    for i in range(0, len(grid) - 1, 10):
        slopes = (vals[i + 1 :] - vals[i]) / (grid[i + 1 :] - grid[i])
        best = max(best, float(np.abs(np.log(slopes)).max()))
    assert best <= lambda_circ_norm(lam) + 1e-12
    assert best == pytest.approx(lambda_circ_norm(lam), abs=1e-6)


def test_lambda_circ_norm_two_piece_dominant_slope():
    # slopes 2 then 1/2 < s: the log-2 piece dominates
    lam = TimeChange([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
    s2 = (1.0 - 0.6) / (1.0 - 0.3)
    assert s2 >= 0.5
    assert lambda_circ_norm(lam) == pytest.approx(math.log(2.0), abs=1e-12)


def test_lambda_circ_norm_inverse_symmetry(rng):
    for _ in range(300):
        lam = random_time_change(rng)
        assert lambda_circ_norm(lam) == pytest.approx(
            lambda_circ_norm(lam.inverse()), abs=1e-12
        )


def test_c_lambda_reference_and_bound(rng):
    assert c_lambda(identity_time_change()) == 0.0
    assert c_lambda(jump_alignment()) == pytest.approx(1.0 / 49.0, abs=1e-12)
    for _ in range(1000):
        lam = random_time_change(rng)
        c = c_lambda(lam)
        ts = np.concatenate([lam.times, np.linspace(0, 1, 41)])
        dev = np.abs(np.asarray(lam(ts)) - ts)
        assert np.all(dev <= ts * c + 1e-12)


# -------------------------------------------------- rho_skorokhod_circ

def test_rho_skorokhod_circ_reference_values():
    f, g, h = step_f(), step_g(), step_h()
    assert rho_skorokhod_circ(f, f).value == 0.0
    res = rho_skorokhod_circ(f, g)
    assert res.mode == "exact"
    assert res.value == pytest.approx(0.2, abs=1e-9)
    res_fh = rho_skorokhod_circ(f, h)
    assert res_fh.value == pytest.approx(0.05, abs=1e-9)


def test_rho_skorokhod_circ_exhaustive_candidate_oracle(rng):
    # no random time change beats exact mode
    for _ in range(40):
        f = random_step(rng, max_jumps=3)
        g = random_step(rng, max_jumps=3)
        value = rho_skorokhod_circ(f, g).value
        for _ in range(40):
            lam = random_time_change(rng)
            obj = max(lambda_circ_norm(lam), _sup_diff(f, g, lam))
            assert obj >= value - 1e-9


def test_metric_equivalence_on_converging_sequence():
    # f_n -> f under both metrics on a shrinking jump displacement
    f = step_f()
    vals_s, vals_circ = [], []
    for n in (4, 16, 64, 256):
        fn = Trajectory(
            CONSTANT, [0.0, 0.5 + 1.0 / (4 * n), 1.0], [[1.0], [0.0], [0.0]]
        )
        vals_s.append(rho_skorokhod(f, fn).value)
        vals_circ.append(rho_skorokhod_circ(f, fn).value)
    assert all(b <= a for a, b in zip(vals_s, vals_s[1:]))
    assert all(b <= a for a, b in zip(vals_circ, vals_circ[1:]))
    assert vals_s[-1] < 1e-2 and vals_circ[-1] < 2e-2


def test_rho_skorokhod_circ_budget_fallback(rng):
    f = random_step(rng, max_jumps=5)
    g = random_step(rng, max_jumps=5)
    res = rho_skorokhod_circ(f, g, budget=1)
    assert res.mode == "upper-bound"
    exact = rho_skorokhod_circ(f, g)
    assert exact.value <= res.value + 1e-12


@pytest.mark.parametrize("p,q", [(12, 12), (64, 3)])
def test_rho_skorokhod_circ_gates_on_its_program_work(rng, p, q):
    # 12 x 12 has C(24, 12) = 2.7e6 matchings but a cheap program; (64, 3)
    # is the costliest pair of the old matching-count gate and stays exact
    def steps(k):
        vals = rng.normal(size=(k + 1, 1))
        vals[0] = 0.0
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, k)), [1.0]])
        return Trajectory(CONSTANT, times, np.vstack([vals, vals[-1:]]))

    f, g = steps(p), steps(q)
    exact = rho_skorokhod_circ(f, g)
    bound = rho_skorokhod_circ(f, g, budget=1)
    assert exact.mode == "exact" and bound.mode == "upper-bound"
    assert exact.value <= bound.value + 1e-12


# ------------------------------------------------------------- moduli

def test_modulus_w_reference_values():
    const = Trajectory(CONSTANT, [0.0, 1.0], [[2.0], [2.0]])
    assert modulus_w(const, 0.5) == 0.0
    lin = segment([1.0])
    assert modulus_w(lin, 0.3) == pytest.approx(0.3, abs=1e-12)
    jump = Trajectory(CONSTANT, [0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]])
    assert modulus_w(jump, 0.1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        modulus_w(lin, 0.0)


def test_modulus_w_prime_reference_values():
    const = Trajectory(CONSTANT, [0.0, 1.0], [[2.0], [2.0]])
    assert modulus_w_prime(const, 0.3) == 0.0
    jump = Trajectory(CONSTANT, [0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]])
    assert modulus_w_prime(jump, 0.3) == 0.0
    two = Trajectory(
        CONSTANT, [0.0, 0.5, 0.55, 1.0], [[0.0], [1.0], [2.0], [2.0]]
    )
    oracle = _w_prime_grid_oracle(two, 0.1)
    got = modulus_w_prime(two, 0.1)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        modulus_w_prime(two, 1.0)
    with pytest.raises(ValueError):
        modulus_w_prime(segment([1.0]), 0.3)


def _w_prime_grid_oracle(f, delta, step=0.01):
    # exhaustive search over partitions with breakpoints on a fixed grid
    # (the fixture's jumps sit on the grid, so cell midpoints see every piece)
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    vals = f(grid[:-1] + step / 2)

    def osc(lo_idx, hi_idx):
        sub = vals[lo_idx:hi_idx]
        if len(sub) <= 1:
            return 0.0
        return float(
            np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2).max()
        )

    m = len(grid)
    best = [math.inf] * m
    best[0] = 0.0
    for i in range(1, m):
        for j in range(i):
            if grid[i] - grid[j] > delta and best[j] < math.inf:
                best[i] = min(best[i], max(best[j], osc(j, i)))
    return best[m - 1]


def test_modulus_w_prime_off_jump_partition_beats_jump_only():
    # sparsity can force cuts away from the jumps
    f = Trajectory(
        CONSTANT, [0.0, 0.3, 0.7, 1.0], [[0.0], [1.0], [6.0], [6.0]]
    )
    assert modulus_w_prime(f, 0.35) == pytest.approx(5.0, abs=1e-12)


def test_modulus_relation_w_prime_vs_w(rng):
    for _ in range(300):
        f = random_step(rng, max_jumps=5)
        delta = float(rng.uniform(0.05, 0.45))
        assert modulus_w_prime(f, delta) <= modulus_w(f, 2 * delta) + 1e-12


# ---------------------------------------------------------- functionals

def test_max_functional_values_and_lipschitz(rng):
    # sup f is attained at a breakpoint, and |sup f - sup g| <= rho_S(f, g)
    def sup(f):
        return f.values[:, 0].max()

    assert sup(segment([1.0])) == 1.0
    assert sup(step_f()) == 1.0
    for _ in range(1000):
        f = random_step(rng, max_jumps=4)
        g = random_step(rng, max_jumps=4)
        res = rho_skorokhod(f, g)
        assert abs(sup(f) - sup(g)) <= res.value + 1e-9
        assert res.value <= rho_inf(f, g) + 1e-12


def test_occupation_constant_and_linear():
    ones = Trajectory(CONSTANT, [0.0, 1.0], [[1.0], [1.0]])
    assert occupation(ones, positive_halfline()) == pytest.approx(1.0)
    lin = Trajectory(LINEAR, [0.0, 1.0], [[-0.5], [0.5]])
    assert occupation(lin, positive_halfline()) == pytest.approx(0.5, abs=1e-9)
    assert occupation(ones, FullSphere()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        occupation(ones, object())


def test_occupation_sphere_rect_quadrant():
    # planar loop spends a quarter turn in the first open quadrant
    ts = np.linspace(0.0, 1.0, 401)
    vals = np.column_stack([np.cos(2 * np.pi * ts), np.sin(2 * np.pi * ts)])
    loop = Trajectory(LINEAR, ts, vals)
    quadrant = SphereRect([0.0, 0.0], [1.0, 1.0])
    assert occupation(loop, quadrant) == pytest.approx(0.25, abs=1e-6)


def test_occupation_cap_with_curved_boundary():
    # an off-axis straight path against a cap with nonzero offset: the
    # boundary condition couples the coordinate and the norm, so the
    # crossing is a genuine nonlinear root
    path = Trajectory(LINEAR, [0.0, 1.0], [[1.0, 0.0], [1.0, 2.0]])
    cap = HalfspaceCap([1.0, 0.0], math.cos(math.pi / 4))
    # the direction angle of (1, 2t) reaches 45 degrees at t = 1/2
    assert occupation(path, cap) == pytest.approx(0.5, abs=1e-9)


def test_occupation_matches_walk_fraction():
    walk = sample_walk(rademacher(1), 200, seed=12)
    traj = clt_trajectory(walk, CONSTANT, [0.0])
    frac = occupation(traj, positive_halfline())
    counted = np.mean(walk.sums[1:, 0] > 0)
    assert abs(frac - counted) <= 1.0 / 200 + 1e-12


def test_occupation_excludes_zero_vector():
    zero = Trajectory(CONSTANT, [0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]])
    assert occupation(zero, FullSphere()) == pytest.approx(0.5)


# --------------------------------------------------------- metric chain

def test_metric_chain_hausdorff_skorokhod_sup(rng):
    for _ in range(1000):
        f = random_step(rng, max_jumps=4, d=2)
        g = random_step(rng, max_jumps=4, d=2)
        dh = hausdorff(PointSet(np.unique(f.values, axis=0)),
                       PointSet(np.unique(g.values, axis=0)))
        ds = rho_skorokhod(f, g).value
        di = rho_inf(f, g)
        assert dh <= ds + 1e-9
        assert ds <= di + 1e-9


# ------------------------------------------- brute-force oracles for the moduli

def _modulus_w_oracle(f, delta):
    # every pair of pieces (step) or of candidate times (linear)
    if f.kind == CONSTANT:
        starts, ends, vals = _piece_intervals(f)
        best = 0.0
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if starts[j] - ends[i] <= delta:
                    best = max(best, float(np.linalg.norm(vals[i] - vals[j])))
        return best
    cand = np.concatenate([f.times, f.times - delta, f.times + delta])
    cand = np.unique(np.clip(cand, 0.0, 1.0))
    vals = f(cand)
    best = 0.0
    for i in range(len(cand)):
        close = np.abs(cand - cand[i]) <= delta + 1e-15
        if np.any(close):
            best = max(best, float(np.linalg.norm(vals[close] - vals[i], axis=1).max()))
    return best


@pytest.mark.parametrize("n,seed", [(200, 0), (200, 2), (200, 21), (1000, 0)])
def test_step_modulus_counts_the_boundary_lag_at_integral_delta_n(n, seed):
    # with delta n = w an integer, the pieces w + 1 apart on the grid k/n are
    # delta apart, so the lag w + 1 counts however k/n rounds (seeds 2 and 21
    # once read below this brute force over integer lags)
    f = clt_trajectory(sample_walk(rademacher(1), n, seed), CONSTANT, [0.0])
    v = f.values[:, 0]
    brute = max(float(np.abs(v[lag:] - v[:-lag]).max()) for lag in range(1, n // 10 + 2))
    assert modulus_w(f, 0.1) == pytest.approx(brute, abs=1e-12)


def _modulus_w_prime_oracle(f, delta):
    # the same candidate cuts, with the oscillation recomputed for every cell
    starts, ends, vals = _piece_intervals(f)
    jumps = [float(t) for t in starts[1:] if t < 1.0]
    edges = [0.0] + jumps + [1.0]
    cand = {0.0, 1.0, *jumps, *((a + b) / 2.0 for a, b in zip(edges[:-1], edges[1:]))}
    cand.update(s for t in jumps for s in (t - delta, t + delta) if 0.0 < s < 1.0)
    cand = sorted(cand)
    norms = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)

    def osc(lo, hi):
        idx = np.flatnonzero((starts < hi) & (ends > lo))
        return float(norms[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0

    best = [math.inf] * len(cand)
    best[0] = 0.0
    for i in range(1, len(cand)):
        for j in range(i):
            if cand[i] - cand[j] > delta and best[j] < math.inf:
                best[i] = min(best[i], max(best[j], osc(cand[j], cand[i])))
    return best[-1]


def _random_path(rng, kind, d, n):
    times = np.unique(np.concatenate([[0.0, 1.0], rng.random(n)]))
    if rng.random() < 0.3:  # lattice values, so pieces repeat and merge
        vals = 0.3 * np.cumsum(rng.integers(-1, 2, size=(len(times), d)), axis=0)
    else:
        vals = rng.normal(size=(len(times), d))
    return Trajectory(kind, times, vals)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moduli_match_brute_force_oracles(rng, d):
    tol = 0.0 if d == 1 else 1e-12
    for _ in range(120):
        n = int(rng.integers(0, 61))
        delta = float(rng.uniform(0.005, 0.99))
        for kind in (CONSTANT, LINEAR):
            f = _random_path(rng, kind, d, n)
            assert modulus_w(f, delta) == pytest.approx(_modulus_w_oracle(f, delta), abs=tol)
        f = _random_path(rng, CONSTANT, d, int(rng.integers(0, 25)))
        delta = min(delta, 0.6)
        assert modulus_w_prime(f, delta) == pytest.approx(
            _modulus_w_prime_oracle(f, delta), abs=tol)


def _d1_paths():
    for law in (rademacher(1), gaussian([0.0], [[1.0]])):
        for n in (1, 2, 1000):
            walk = sample_walk(law, n, n)
            yield from (clt_trajectory(walk, kind, [0.0]) for kind in (CONSTANT, LINEAR))
    yield from (Trajectory(kind, [0.0, 1.0], [[0.5], [0.5]]) for kind in (CONSTANT, LINEAR))
    # a jump at t = 1: the final piece has zero width
    yield Trajectory(CONSTANT, [0.0, 0.3, 0.7, 1.0], [[0.0], [2.0], [-1.0], [4.0]])
    # a search on times alone misplaces these windows: at delta = 0.1 the first gap
    # passes the float test though 0.0255... < 0.1255... - (0.1 + 1e-15), and at
    # delta = 0.01 the second fails it though 0.2336... >= 0.2436... - (0.01 + 1e-15)
    for t in ((0.025512728869804678, 0.1255127288698057), (0.23368760884005918, 0.2436876088400602)):
        yield Trajectory(CONSTANT, [0.0, *t, 1.0], [[0.0], [1.0], [5.0], [5.0]])


def test_d1_modulus_w_equals_the_lag_scan(monkeypatch):
    # a zero second coordinate sends _band_sup down the d >= 2 lag scan
    lag_scan = []

    def spy(first, last, vals, delta):
        lag_scan.append(_band_sup(first, last, np.column_stack([vals, 0.0 * vals]), delta))
        return _band_sup(first, last, vals, delta)

    monkeypatch.setattr(metrics, "_band_sup", spy)
    for f in _d1_paths():
        n = len(f.times) - 1
        for delta in (0.01, 0.1, 1.0 / max(n, 1), 1.0):
            assert modulus_w(f, delta) == lag_scan[-1]


def test_modulus_w_memory_is_linear_in_steps():
    # about 1.5e5 candidate times, 1.1 MiB per float array
    f = clt_trajectory(sample_walk(rademacher(1), 100_000, 0), LINEAR, [0.0])
    tracemalloc.start()
    try:
        modulus_w(f, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


_ORACLE_CELLS = 20001


def _occupation_oracle(f, region):
    # midpoints of equal cells on every linear piece
    s = (np.arange(_ORACLE_CELLS) + 0.5) / _ORACLE_CELLS
    total = 0.0
    for i in range(len(f.times) - 1):
        x = f.values[i] + s[:, None] * (f.values[i + 1] - f.values[i])
        total += region.contains(x).mean() * (f.times[i + 1] - f.times[i])
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
def test_linear_occupation_matches_dense_sampling(rng, d):
    for _ in range(40):
        f = _random_path(rng, LINEAR, d, int(rng.integers(0, 8)))
        lo = rng.uniform(-1.0, 0.5, size=d)
        regions = [
            HalfspaceCap(rng.normal(size=d), float(rng.uniform(-1.0, 1.0))),
            HalfspaceCap(rng.normal(size=d), 0.0),
            SphereRect(lo, lo + rng.uniform(0.0, 1.5, size=d)),
            SphereRect(np.zeros(d), np.ones(d)),
            FullSphere(),
        ]
        for region in regions:
            # a piece changes membership at most twice per boundary cone and
            # once through the origin; each change can flip one oracle cell
            changes = 1 + 2 * len(getattr(region, "cones", ()))
            assert occupation(f, region) == pytest.approx(
                _occupation_oracle(f, region), abs=changes / _ORACLE_CELLS)


def test_occupation_sees_a_short_visit_to_a_narrow_cap():
    # the direction of (1, y) is within 0.002 rad of the axis for |y| <= tan(0.002),
    # a window of s-length tan(0.002) around s = 0.55
    path = Trajectory(LINEAR, [0.0, 1.0], [[1.0, -1.1], [1.0, 0.9]])
    cap = HalfspaceCap([1.0, 0.0], math.cos(0.002))
    assert occupation(path, cap) == pytest.approx(math.tan(0.002), abs=1e-12)


def test_linear_occupation_of_a_long_path_matches_closed_form():
    # 40000 pieces span several blocks of the piece loop; in d = 1 the time a
    # piece from a to b spends above 0 is a closed form
    walk = sample_walk(rademacher(1), 40000, seed=5)
    f = clt_trajectory(walk, LINEAR, [0.0])
    a, b = f.values[:-1, 0], f.values[1:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where((a > 0) & (b > 0), 1.0, np.maximum(a, b).clip(0.0) / np.abs(b - a))
    expected = float((frac * np.diff(f.times)).sum())
    assert occupation(f, positive_halfline()) == pytest.approx(expected, abs=1e-9)


def test_occupation_cuts_a_region_without_cones_at_the_origin():
    class PositiveFirst:  # only `contains`: membership may change only through 0
        def contains(self, points):
            return np.atleast_2d(points)[:, 0] > 0.0

    path = Trajectory(LINEAR, [0.0, 0.5, 1.0], [[-1.0, 2.0], [3.0, -6.0], [3.0, 0.0]])
    assert occupation(path, PositiveFirst()) == pytest.approx(0.5 * 0.75 + 0.5, abs=1e-12)


# ------------------------------- oracles for the two Skorokhod dynamic programs

def _circ_enumeration_oracle(f, g):
    # every monotone matching of f's jumps onto g's, interpolated and scored whole
    u, a = _step_pieces(f)
    v, b = _step_pieces(g)
    best = math.inf
    for k in range(0, min(len(u), len(v)) + 1):
        for fi in itertools.combinations(range(len(u)), k):
            for gj in itertools.combinations(range(len(v)), k):
                pairs = [(u[i], v[j]) for i, j in zip(fi, gj)]
                if any((t == 1.0) != (x == 1.0) for t, x in pairs):
                    continue
                pairs = [(0.0, 0.0)] + [(t, x) for t, x in pairs if t < 1.0] + [(1.0, 1.0)]
                lam = TimeChange(*zip(*pairs))
                best = min(best, max(lambda_circ_norm(lam), _sup_diff_under(u, a, v, b, lam)))
    return best


def _staircase_oracle(u, a, v, b):
    # the staircase DP filled one cell at a time
    p, q = len(u), len(v)
    mism = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    uu = np.concatenate([[0.0], u, [1.0]])
    vv = np.concatenate([[0.0], v, [1.0]])

    def disp_right(i, j):
        t = u[i - 1]
        if t == 1.0:
            return 0.0 if j == q else math.inf
        if vv[j] == 1.0:
            return math.inf
        return max(0.0, vv[j] - t, t - vv[j + 1])

    def disp_up(i, j):
        x = v[j - 1]
        if x == 1.0:
            return 0.0 if i == p else math.inf
        if uu[i] == 1.0:
            return math.inf
        return max(0.0, uu[i] - x, x - uu[i + 1])

    def disp_diag(i, j):
        t, x = u[i - 1], v[j - 1]
        return math.inf if (t == 1.0) != (x == 1.0) else abs(t - x)

    cost = np.full((p + 1, q + 1), math.inf)
    move = np.zeros((p + 1, q + 1), dtype=np.int8)
    cost[0, 0] = mism[0, 0]
    for i in range(p + 1):
        for j in range(q + 1):
            if i == 0 and j == 0:
                continue
            best, how = math.inf, 0
            if i > 0 and max(cost[i - 1, j], disp_right(i, j)) < best:
                best, how = max(cost[i - 1, j], disp_right(i, j)), 1
            if j > 0 and max(cost[i, j - 1], disp_up(i, j)) < best:
                best, how = max(cost[i, j - 1], disp_up(i, j)), 2
            if i > 0 and j > 0 and max(cost[i - 1, j - 1], disp_diag(i, j)) < best:
                best, how = max(cost[i - 1, j - 1], disp_diag(i, j)), 3
            cost[i, j] = max(best, mism[i, j])
            move[i, j] = how
    return float(cost[p, q]), move


def _lattice_step(rng, denom, max_jumps, d=1, jump_at_one=False):
    # jumps on a dyadic grid, so event times tie across f and g o lambda
    u = np.unique(rng.integers(1, denom, size=int(rng.integers(0, max_jumps + 1))) / denom)
    if jump_at_one:
        u = np.append(u, 1.0)
    vals = 0.5 * np.cumsum(rng.integers(-1, 2, size=(len(u) + 1, d)), axis=0)
    if jump_at_one:
        vals[-1] += 1.0  # the final piece has zero width
        return Trajectory(CONSTANT, np.concatenate([[0.0], u]), vals)
    return Trajectory(CONSTANT, np.concatenate([[0.0], u, [1.0]]), np.vstack([vals, vals[-1:]]))


def _rademacher_path(n, seed):
    return clt_trajectory(sample_walk(rademacher(1), n, seed), CONSTANT, [0.0])


def _circ_pairs(rng, family):
    if family == "continuous":
        return [(random_step(rng, max_jumps=6), random_step(rng, max_jumps=6)) for _ in range(40)]
    if family == "dyadic":
        return [(_lattice_step(rng, 8, 6), _lattice_step(rng, 16, 6)) for _ in range(40)]
    if family == "rademacher":
        return [(_rademacher_path(n, n), _rademacher_path(m, 50 + n))
                for n in range(1, 9) for m in (n, max(1, n - 3))]
    if family == "jump-at-one":
        return [(_lattice_step(rng, 8, 5, jump_at_one=True),
                 _lattice_step(rng, 8, 5, jump_at_one=bool(k % 2))) for k in range(40)]
    return [(random_step(rng, d=2, max_jumps=5), _lattice_step(rng, 8, 5, d=2))
            for _ in range(40)]


@pytest.mark.parametrize("family", ["continuous", "dyadic", "rademacher", "jump-at-one", "d2"])
def test_rho_skorokhod_circ_matches_matching_enumeration(rng, family):
    for f, g in _circ_pairs(rng, family):
        res = rho_skorokhod_circ(f, g)
        assert res.mode == "exact"
        assert res.value == _circ_enumeration_oracle(f, g)
        u, a = _step_pieces(f)
        v, b = _step_pieces(g)
        lam = res.witness
        assert max(lambda_circ_norm(lam), _sup_diff_under(u, a, v, b, lam)) == res.value


def _step_path(jumps, vals):
    return Trajectory(CONSTANT, [0.0, *jumps, 1.0], [[x] for x in [*vals, vals[-1]]])


def test_rho_skorokhod_circ_keeps_events_rounded_onto_a_node():
    # matching 0.5 -> 0.25 and its float successor -> 0.75 maps g's jump at 0.35
    # (0.65 in the mirrored pair) back onto a node exactly, so g's piece worth
    # 1000 is never co-occupied; the value is that matching's chord norm
    e, s = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
    pairs = [
        (_step_path([0.5, e], [0.0, 1.0, 2.0]), _step_path([0.25, 0.35, 0.75], [0.0, 1000.0, 1.0, 2.0])),
        (_step_path([s, 0.5], [0.0, 1.0, 2.0]), _step_path([0.25, 0.65, 0.75], [0.0, 1.0, 1000.0, 2.0])),
    ]
    for f, g in pairs:
        value = rho_skorokhod_circ(f, g).value
        assert value == _circ_enumeration_oracle(f, g)
        assert 36.0 < value < 37.0


def test_staircase_dp_matches_cell_loop(rng):
    pairs = [(_rademacher_path(64, 2 * k), _rademacher_path(64, 2 * k + 1)) for k in range(4)]
    pairs += [(random_step(rng, max_jumps=64), random_step(rng, max_jumps=64)) for _ in range(4)]
    pairs += [(_lattice_step(rng, 64, 64, d=2, jump_at_one=bool(k % 2)),
               _lattice_step(rng, 64, 64, d=2, jump_at_one=k > 1)) for k in range(4)]
    for f, g in pairs:
        u, a = _step_pieces(f)
        v, b = _step_pieces(g)
        value, move = _staircase_dp(u, a, v, b)
        expected, expected_move = _staircase_oracle(u, a, v, b)
        assert value == expected
        assert np.array_equal(move, expected_move)


def test_modulus_w_prime_memory_is_linear_in_pieces():
    f = _rademacher_path(4000, 0)
    tracemalloc.start()
    try:
        modulus_w_prime(f, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
