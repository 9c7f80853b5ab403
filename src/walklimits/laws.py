"""Closed-form reference laws and covariance algebra for the limit theorems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .rng import replica_stream
from .trajectory import LINEAR, Trajectory


@dataclass(frozen=True)
class CovSpec:
    """A symmetric nonnegative-definite matrix with its symmetric PSD root."""

    matrix: np.ndarray
    root: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def sqrt_psd(sigma) -> CovSpec:
    """Build a CovSpec from a symmetric matrix, clamping tiny negative eigenvalues.

    Eigenvalues in [-1e-6 * scale, 0) are treated as float noise and clamped
    to 0; anything more negative is rejected as a genuinely bad input.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError("covariance must be square")
    scale = max(1.0, float(np.abs(sigma).max()))
    if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
        raise ValueError("covariance must be symmetric within 1e-12")
    sym = 0.5 * (sigma + sigma.T)
    w, v = np.linalg.eigh(sym)
    if w.min() < -1e-6 * scale:
        raise ValueError(f"matrix is not PSD (eigenvalue {w.min():g})")
    w = np.clip(w, 0.0, None)
    matrix = (v * w) @ v.T
    root = (v * np.sqrt(w)) @ v.T
    matrix = 0.5 * (matrix + matrix.T)
    root = 0.5 * (root + root.T)
    matrix.setflags(write=False)
    root.setflags(write=False)
    return CovSpec(matrix=matrix, root=root)


def sigma_mu_perp(cov: CovSpec, mu) -> tuple[CovSpec, np.ndarray]:
    """Covariance of the increment component orthogonal to the drift.

    Rotates by the deterministic drift basis (first axis = normalized mu),
    extracts the lower-right (d-1)x(d-1) block, and also returns the root
    extended back to d dimensions with a 1 in the (1,1) entry and zeros
    elsewhere in the first row and column.
    """
    from .geometry import drift_basis

    d = cov.dim
    if d < 2:
        raise ValueError("needs dimension >= 2")
    basis = drift_basis(mu, d)
    rotated = basis.T @ cov.matrix @ basis
    perp = sqrt_psd(rotated[1:, 1:])
    extended = np.zeros((d, d))
    extended[0, 0] = 1.0
    extended[1:, 1:] = perp.root
    extended.setflags(write=False)
    return perp, extended


def std_normal_cdf(x):
    """Standard normal distribution function, computed from erf."""
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / np.sqrt(2.0)))


def sup_bm_cdf(x):
    """Pr(sup of standard Brownian motion on [0,1] <= x) = 2*Phi(x) - 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, 0.0, erf(x / np.sqrt(2.0)))
    return float(out) if out.ndim == 0 else out


def arcsine_cdf(gamma):
    """The arcsine distribution function (2/pi) * arcsin(sqrt(gamma)) on [0,1]."""
    g = np.clip(np.asarray(gamma, dtype=float), 0.0, 1.0)
    out = (2.0 / np.pi) * np.arcsin(np.sqrt(g))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ComKernel:
    """Covariance kernel of the limiting centre-of-mass Gaussian process."""

    base: CovSpec


def com_kernel_eval(kernel: ComKernel, t1: float, t2: float) -> np.ndarray:
    """K(t1, t2) = s(3t - s) / (6t) * Sigma with s = min, t = max; K(0,0) = 0."""
    if not (0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0):
        raise ValueError("times must lie in [0, 1]")
    s, t = min(t1, t2), max(t1, t2)
    if t == 0.0:
        return np.zeros_like(kernel.base.matrix)
    return (s * (3.0 * t - s) / (6.0 * t)) * kernel.base.matrix


def _scalar_com_kernel(grid: np.ndarray) -> np.ndarray:
    s = np.minimum.outer(grid, grid)
    t = np.maximum.outer(grid, grid)
    return s * (3.0 * t - s) / (6.0 * t)


def sample_com_gp(kernel: ComKernel, grid, seed: int, replica: int = 0) -> Trajectory:
    """Sample the centre-of-mass Gaussian process on a grid in (0, 1].

    Uses a Cholesky factor of the grid Gram matrix with a diagonal jitter
    escalating from 1e-10 by factors of 10 up to 1e-6 before failing.
    The grid must end at 1; the path is pinned to 0 at time 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0) or grid[0] <= 0.0 or grid[-1] != 1.0:
        raise ValueError("grid must be strictly increasing in (0, 1] and end at 1")
    d = kernel.base.dim
    if np.all(kernel.base.matrix == 0.0):
        times = np.concatenate([[0.0], grid])
        return Trajectory(LINEAR, times, np.zeros((len(times), d)))
    scalar = _scalar_com_kernel(grid)
    cov = np.kron(scalar, kernel.base.matrix) if d > 1 else scalar
    chol = None
    jitter = 1e-10
    while jitter <= 1e-6:
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
    if chol is None:
        raise np.linalg.LinAlgError(
            "covariance Gram matrix is not PSD even with jitter up to 1e-6"
        )
    z = replica_stream(seed, replica).standard_normal(cov.shape[0])
    vals = (chol @ z).reshape(len(grid), d)
    times = np.concatenate([[0.0], grid])
    values = np.vstack([np.zeros(d), vals])
    return Trajectory(LINEAR, times, values)
