"""The functional table: how each walk functional is evaluated, scaled and checked.

Each functional has a law-of-large-numbers constant at scale n and a Donsker
limit law at its CLT scale.  An entry holds its evaluator on prefix sums of
shape (b, n + 1, d) at native scale (the hull functionals build one hull per
replica), that scale, its closed-form limit CDF if one is known, its LLN
constant, whether a Brownian surrogate can stand in for its limit law, and
the dimensions, as (lowest, highest), where it and its LLN constant apply.
max, arcsine and com also evaluate on ``walks.StepBytes``, the packed steps
of d = 1 Rademacher walks, from exact integer sums that equal the prefix
sums' values bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, laws
from .walks import BYTE_PATH, StepBytes

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
    on_bytes: Callable | None = None  # (StepBytes, cfg) -> (b,) values, d = 1 +-1 steps


def in_dims(dim: int, dims: tuple) -> bool:
    return dims[0] <= dim <= dims[1]


def dims_text(dims: tuple) -> str:
    return f"dim = {dims[0]}" if dims[0] == dims[1] else f"dim >= {dims[0]}"


def _arcsine(sums, cfg) -> np.ndarray:
    """The share of S_1..S_n in the cap {x != 0, x_1 >= 0}, by one comparison
    per coordinate (no norm: it is what ``metrics.HalfspaceCap((1, 0, ...),
    0)`` tests wherever squared coordinates neither overflow nor underflow)."""
    pts = sums[:, 1:]
    return ((pts[:, :, 0] >= 0.0) & (pts != 0.0).any(axis=2)).mean(axis=1)


# Tables over a step byte b (``walks.BYTE_PATH``'s order), read with np.take:
# the highest point of its path; the number of its 8 points above 0 when it
# starts at c, at (c + 8) * 256 + b (from c = -8 no point is above 0 and from
# c = 9 all are); the sum of its first r points, in row r.
_BYTE_MAX = BYTE_PATH.max(axis=1)
_BYTE_POSITIVE = (BYTE_PATH.T + np.arange(-8, 10, dtype=np.int8)[:, None, None] > 0).sum(
    axis=1, dtype=np.int8).ravel()
_BYTE_PARTIAL = np.vstack((np.zeros(256, dtype=np.int8),
                           np.cumsum(BYTE_PATH.T, axis=0, dtype=np.int8)))


def _max_bytes(batch, cfg) -> np.ndarray:
    # past n the padding only steps down from S_n, so it never raises the max
    peak = (batch.before + np.take(_BYTE_MAX, batch.bits)).max(axis=1)
    return np.maximum(peak, 0).astype(float)


def _arcsine_bytes(batch, cfg) -> np.ndarray:
    state = np.clip(batch.before, -8, 9)
    state += 8
    state *= 256
    state += batch.bits
    count = np.take(_BYTE_POSITIVE, state).sum(axis=1)
    # the padding's points S_n - 1, S_n - 2, ... above 0 are not the walk's
    pad = 8 * batch.bits.shape[1] - batch.n
    last = batch.before[:, -1] + BYTE_PATH[batch.bits[:, -1], (batch.n - 1) % 8]
    count -= np.clip(last - 1, 0, pad)
    return count / batch.n


def com_at_bytes(batch, ks) -> list:
    """``com_at`` on a ``StepBytes`` batch, from the exact integer sums T_k.

    T_k = S_1 + ... + S_k adds, for each whole byte j < k // 8, 8 S_{8j} and
    the sum of its points, then r S_{8j} and the first r points of byte
    j = k // 8, where r = k mod 8.
    """
    bits, before = batch.bits, batch.before
    out = []
    for k in ks:
        j, r = divmod(k, 8)
        t = 8 * before[:, :j].sum(axis=1) + np.take(_BYTE_PARTIAL[8], bits[:, :j]).sum(axis=1)
        if r:
            t += r * before[:, j] + np.take(_BYTE_PARTIAL[r], bits[:, j])
        out.append((t / k)[:, None])
    return out


def com_at(sums, ks) -> list:
    """G_k = (S_1 + ... + S_k) / k as (b, d) for each k in ks (each k >= 1).

    One sequential cumsum through max(ks) serves every k.
    """
    csum = np.cumsum(sums[:, 1 : max(ks) + 1, :], axis=1)
    return [csum[:, k - 1, :] / k for k in ks]


def step_at(n: int, t: float) -> int:
    """k = floor(n t), the step of an n-step walk at time t; ValueError below 1."""
    k = math.floor(n * t)
    if k < 1:
        raise ValueError("t too small: floor(n*t) must be >= 1")
    return k


def _com(sums, cfg) -> np.ndarray:
    """G_k at k = step_at(n, t), every coordinate."""
    return com_at(sums, [step_at(sums.shape[1] - 1, cfg.t)])[0]


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
        lambda mu, t: max(float(mu[0]), 0.0), lln_dims=(1, 1), on_bytes=_max_bytes),
    "arcsine": Functional(
        _arcsine, lambda n, dim: 1.0, ANY_DIM, lambda cfg, law: laws.arcsine_cdf,
        surrogate=False, on_bytes=_arcsine_bytes),
    "diameter": Functional(
        lambda sums, cfg: np.array([geometry.diameter(p) for p in sums]), _root_n,
        ANY_DIM, lln=lambda mu, t: float(np.linalg.norm(mu))),
    "perimeter": Functional(
        _per_hull(lambda body, cfg: geometry.surface_area(body)),
        lambda n, dim: math.sqrt(n) if dim == 2 else float(n) ** ((dim - 1) / 2.0), PLANAR_UP,
        lln=lambda mu, t: 2.0 * float(np.linalg.norm(mu)), lln_dims=(2, 2)),
    "mean-width": Functional(
        _per_hull(lambda body, cfg: geometry.mean_width(body, cfg.directions)),
        _root_n, PLANAR_UP),
    "volume": Functional(
        _per_hull(lambda body, cfg: geometry.volume(body)),
        lambda n, dim: float(n) ** (dim / 2.0), PLANAR_UP),
    "com": Functional(
        _com, _root_n, ANY_DIM, _com_cdf, lambda mu, t: mu * (t / 2.0), at_t=True,
        on_bytes=lambda batch, cfg: com_at_bytes(batch, [step_at(batch.n, cfg.t)])[0]),
}


def evaluate(functional: str, batch, cfg) -> np.ndarray:
    """Native-scale values of a functional on a batch of b walks, as (b, width):
    prefix sums (b, n + 1, d) or the ``StepBytes`` of d = 1 +-1 walks."""
    spec = FUNCTIONALS[functional]
    values = (spec.on_bytes if isinstance(batch, StepBytes) else spec.evaluate)(batch, cfg)
    return np.reshape(values, (values.shape[0], -1))


def lln_reference(functional: str, mu, t: float = 1.0):
    """First-order deterministic limit constant for a functional of the walk."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    spec = FUNCTIONALS.get(functional)
    if spec is None or spec.lln is None:
        raise ValueError(f"functional {functional!r} has no first-order limit")
    if not in_dims(mu.size, spec.lln_dims):
        raise ValueError(f"functional {functional} has a first-order limit "
                         f"only in {dims_text(spec.lln_dims)}")
    return spec.lln(mu, t)
