"""Closed-form reference laws and covariance algebra for the limit theorems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf



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


def sigma_mu_perp(cov: CovSpec, mu) -> CovSpec:
    """Covariance of the increment component orthogonal to the drift.

    Rotates by the deterministic drift basis (first axis = normalized mu) and
    extracts the lower-right (d-1)x(d-1) block.
    """
    from .geometry import drift_basis

    d = cov.dim
    if d < 2:
        raise ValueError("needs dimension >= 2")
    basis = drift_basis(mu, d)
    rotated = basis.T @ cov.matrix @ basis
    return sqrt_psd(rotated[1:, 1:])


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
