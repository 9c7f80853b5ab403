"""The functional table: how each walk functional is evaluated, scaled and checked.

Each functional has a law-of-large-numbers constant at scale n and a Donsker
limit law at its CLT scale.  An entry holds its evaluator on prefix sums of
shape (b, n + 1, d) at native scale (the hull functionals build one hull per
replica), that scale, its closed-form limit CDF if one is known, its LLN
constant, whether a Brownian surrogate can stand in for its limit law, and
the dimensions, as (lowest, highest), where it and its LLN constant apply.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, laws, metrics

ANY_DIM = (1, math.inf)
PLANAR_UP = (2, math.inf)


class Functional(NamedTuple):
    """One functional's entry in the table (see the module docstring)."""

    evaluate: Callable  # (sums, cfg) -> (b,) or (b, d) values at native scale
    scale: Callable  # (n, dim) -> the CLT scale
    dims: tuple
    cdf: Callable | None = None  # (cfg, law) -> limit CDF, or None
    lln: Callable | None = None  # (mu, t) -> first-order constant
    lln_dims: tuple = ANY_DIM
    surrogate: bool = True
    at_t: bool = False  # evaluated at step floor(n t)


def in_dims(dim: int, dims: tuple) -> bool:
    return dims[0] <= dim <= dims[1]


def dims_text(dims: tuple) -> str:
    return f"dim = {dims[0]}" if dims[0] == dims[1] else f"dim >= {dims[0]}"


def _arcsine(sums, cfg) -> np.ndarray:
    region = metrics.HalfspaceCap(np.eye(sums.shape[2])[0], 0.0)
    return np.array([region.contains(p[1:]).mean() for p in sums])


def com_at(sums, ks) -> list:
    """G_k = (S_1 + ... + S_k) / k as (b, d) for each k in ks (each k >= 1).

    One sequential cumsum through max(ks) serves every k.
    """
    csum = np.cumsum(sums[:, 1 : max(ks) + 1, :], axis=1)
    return [csum[:, k - 1, :] / k for k in ks]


def _com(sums, cfg) -> np.ndarray:
    """G_k at k = max(1, floor(n t)), every coordinate."""
    return com_at(sums, [max(1, math.floor((sums.shape[1] - 1) * cfg.t))])[0]


def _per_hull(measure):
    return lambda sums, cfg: np.array(
        [measure(geometry.convex_hull(p, validate=False), cfg) for p in sums])


def _max_cdf(cfg, law):
    sigma = math.sqrt(float(law.sigma[0, 0]))
    if sigma == 0.0:
        return None
    return lambda x: laws.sup_bm_cdf(np.asarray(x) / sigma)


def _com_cdf(cfg, law):
    var = cfg.t * float(law.sigma[0, 0]) / 3.0
    if var == 0.0 or cfg.dim != 1:
        return None
    sd = math.sqrt(var)
    return lambda x: laws.std_normal_cdf(np.asarray(x) / sd)


def _root_n(n: int, dim: int) -> float:
    return math.sqrt(n)


FUNCTIONALS = {
    "max": Functional(
        lambda sums, cfg: sums[:, :, 0].max(axis=1), _root_n, (1, 1), _max_cdf,
        lambda mu, t: max(float(mu[0]), 0.0), lln_dims=(1, 1)),
    "arcsine": Functional(
        _arcsine, lambda n, dim: 1.0, ANY_DIM, lambda cfg, law: laws.arcsine_cdf,
        surrogate=False),
    "diameter": Functional(
        lambda sums, cfg: np.array([geometry.diameter(p) for p in sums]), _root_n,
        ANY_DIM, lln=lambda mu, t: float(np.linalg.norm(mu))),
    "perimeter": Functional(
        _per_hull(lambda body, cfg: geometry.surface_area(body)), _root_n, PLANAR_UP,
        lln=lambda mu, t: 2.0 * float(np.linalg.norm(mu)), lln_dims=(2, 2)),
    "mean-width": Functional(
        _per_hull(lambda body, cfg: geometry.mean_width(body, cfg.directions)),
        _root_n, PLANAR_UP),
    "volume": Functional(
        _per_hull(lambda body, cfg: geometry.volume(body)),
        lambda n, dim: float(n) ** (dim / 2.0), PLANAR_UP),
    "com": Functional(
        _com, _root_n, ANY_DIM, _com_cdf, lambda mu, t: mu * (t / 2.0), at_t=True),
}


def evaluate(functional: str, sums: np.ndarray, cfg) -> np.ndarray:
    """Native-scale values of a functional on a (b, n + 1, d) batch, as (b, width)."""
    values = FUNCTIONALS[functional].evaluate(sums, cfg)
    return np.reshape(values, (len(sums), -1))


def lln_reference(functional: str, mu, t: float = 1.0):
    """First-order deterministic limit constant for a functional of the walk."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    spec = FUNCTIONALS.get(functional)
    if spec is None or spec.lln is None:
        raise ValueError(f"functional {functional!r} has no first-order limit")
    if not in_dims(mu.size, spec.lln_dims):
        raise ValueError(f"{functional} limit applies in {dims_text(spec.lln_dims)}")
    return spec.lln(mu, t)
