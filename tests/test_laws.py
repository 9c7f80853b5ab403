import numpy as np
import pytest

from walklimits import (
    ComKernel,
    arcsine_cdf,
    com_kernel_eval,
    lln_reference,
    sample_brownian,
    sigma_mu_perp,
    sqrt_psd,
    sup_bm_cdf,
)
from walklimits.laws import std_normal_cdf


# --------------------------------------------------------------- sqrt_psd

def test_sqrt_psd_reference_roots():
    assert np.allclose(sqrt_psd(np.eye(3)).root, np.eye(3))
    spec = sqrt_psd(np.diag([4.0, 1.0]))
    assert np.allclose(spec.root, np.diag([2.0, 1.0]))


def test_sqrt_psd_reconstruction(rng):
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(d, d))
        sigma = a @ a.T
        spec = sqrt_psd(sigma)
        assert np.linalg.norm(spec.root @ spec.root - sigma) < 1e-8
        assert np.allclose(spec.root, spec.root.T)
        assert np.linalg.eigvalsh(spec.root).min() >= -1e-10


def test_sqrt_psd_rejects_bad_input():
    with pytest.raises(ValueError):
        sqrt_psd([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sqrt_psd([[-1.0]])
    # tiny negative eigenvalues are float noise and get clamped
    spec = sqrt_psd([[1e-12]])
    assert spec.matrix[0, 0] >= 0.0


# ----------------------------------------------------------- sigma_mu_perp

def test_sigma_mu_perp_aligned_axes():
    spec = sqrt_psd(np.diag([5.0, 2.0, 3.0]))
    perp = sigma_mu_perp(spec, [1.0, 0.0, 0.0])
    assert np.allclose(perp.matrix, np.diag([2.0, 3.0]))


def test_sigma_mu_perp_errors():
    with pytest.raises(ValueError):
        sigma_mu_perp(sqrt_psd([[1.0]]), [1.0])
    with pytest.raises(ValueError):
        sigma_mu_perp(sqrt_psd(np.eye(2)), [0.0, 0.0])


def test_sigma_mu_perp_rotation_invariance(rng):
    for _ in range(200):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=(d, d))
        sigma = a @ a.T
        mu = rng.normal(size=d)
        if np.linalg.norm(mu) < 1e-6:
            continue
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        perp1 = sigma_mu_perp(sqrt_psd(sigma), mu)
        perp2 = sigma_mu_perp(sqrt_psd(q @ sigma @ q.T), q @ mu)
        e1 = np.sort(np.linalg.eigvalsh(perp1.matrix))
        e2 = np.sort(np.linalg.eigvalsh(perp2.matrix))
        assert np.allclose(e1, e2, atol=1e-9)


# ------------------------------------------------------------ closed cdfs

def test_sup_bm_cdf_values():
    assert sup_bm_cdf(0.0) == 0.0
    assert sup_bm_cdf(-1.0) == 0.0
    assert sup_bm_cdf(50.0) == pytest.approx(1.0)
    assert sup_bm_cdf(1.0) == pytest.approx(0.6826895, abs=1e-6)
    # oracle: 2 Phi(1) - 1 from the normal cdf
    assert sup_bm_cdf(1.0) == pytest.approx(2 * std_normal_cdf(1.0) - 1.0, abs=1e-12)


def test_arcsine_cdf_values():
    assert arcsine_cdf(0.0) == 0.0
    assert arcsine_cdf(1.0) == pytest.approx(1.0)
    assert arcsine_cdf(0.5) == pytest.approx(0.5)
    assert arcsine_cdf(0.25) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert arcsine_cdf(-3.0) == 0.0 and arcsine_cdf(7.0) == pytest.approx(1.0)


def test_cdfs_monotone_into_unit_interval():
    xs = np.linspace(-2, 4, 301)
    vals = sup_bm_cdf(xs)
    assert np.all(np.diff(vals) >= 0) and vals.min() >= 0 and vals.max() <= 1
    gs = np.linspace(0, 1, 301)
    vals = arcsine_cdf(gs)
    assert np.all(np.diff(vals) >= 0) and vals.min() >= 0 and vals.max() <= 1


# ------------------------------------------------------------- com kernel

def test_com_kernel_reference_values():
    k = ComKernel(sqrt_psd([[1.0]]))
    assert com_kernel_eval(k, 0.0, 0.0)[0, 0] == 0.0
    assert com_kernel_eval(k, 0.5, 1.0)[0, 0] == pytest.approx(5.0 / 24.0, abs=1e-15)
    for t in (0.1, 0.3, 1.0):
        assert com_kernel_eval(k, t, t)[0, 0] == pytest.approx(t / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        com_kernel_eval(k, -0.1, 0.5)


def test_com_kernel_symmetry_exact(rng):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    k = ComKernel(sqrt_psd(sigma))
    for _ in range(200):
        t1, t2 = rng.random(2)
        assert np.array_equal(
            com_kernel_eval(k, t1, t2), com_kernel_eval(k, t2, t1)
        )


# ---------------------------------------------------------- lln_reference

def test_lln_reference_values():
    assert lln_reference("max", [-0.3]) == 0.0
    assert lln_reference("max", [0.4]) == pytest.approx(0.4)
    assert lln_reference("perimeter", [0.6, 0.8]) == pytest.approx(2.0)
    assert lln_reference("diameter", [3.0, 4.0]) == pytest.approx(5.0)
    assert np.allclose(lln_reference("com", [1.0], t=1.0), [0.5])
    with pytest.raises(ValueError):
        lln_reference("area", [1.0])


# ----------------------------------------------- Brownian-integral checks

def test_integration_by_parts_on_sampled_paths():
    # (1/t) int b ds == int (1 - s/t) db up to O(grid step) at t = 1
    cov = sqrt_psd([[1.0]])
    grid = np.linspace(0.0, 1.0, 10_001)
    (_, _, paths), = sample_brownian(cov, grid, 17, 0, 10)
    for b in paths[:, :, 0]:
        ds = np.diff(grid)
        left = float(np.sum(b[:-1] * ds))
        db = np.diff(b)
        right = float(np.sum((1.0 - grid[:-1]) * db))
        scale = max(1.0, float(np.abs(b).max()))
        assert abs(left - right) <= 1e-2 * scale


def test_brownian_time_integral_variance():
    # Var(int_0^1 b ds) = 1/3, trapezoid over many sampled paths
    cov = sqrt_psd([[1.0]])
    grid = np.linspace(0.0, 1.0, 513)
    reps = 100_000
    vals = np.concatenate([np.trapezoid(paths[:, :, 0], grid, axis=1) for _, _, paths
                           in sample_brownian(cov, grid, 23, 0, reps)])
    assert abs(vals.var(ddof=1) - 1.0 / 3.0) <= 0.02 / 3.0
