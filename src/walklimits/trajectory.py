"""Piecewise trajectories on [0, 1] with explicit breakpoints.

Only breakpoints and values are stored; evaluation is a binary search,
so walks of length up to 10^6 never get densified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINEAR = "piecewise-linear"
CONSTANT = "piecewise-constant"


def _frozen(a, dtype=float) -> np.ndarray:
    """A read-only array of a; one that is read-only already and owns its data is kept."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-linear or piecewise-constant function [0,1] -> R^d.

    ``times`` is strictly increasing with ``times[0] == 0`` and
    ``times[-1] == 1``; ``values`` has one d-vector per breakpoint.
    The constant kind holds ``values[i]`` on ``[times[i], times[i+1])``
    and is right-continuous with left limits; the linear kind
    interpolates between breakpoints and is continuous.
    """

    kind: str
    times: np.ndarray
    values: np.ndarray

    def __init__(self, kind, times, values):
        if kind not in (LINEAR, CONSTANT):
            raise ValueError(f"unknown trajectory kind: {kind!r}")
        times = _frozen(np.atleast_1d(times))
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values = _frozen(values)
        if times.ndim != 1 or len(times) != len(values):
            raise ValueError("times and values must have matching length")
        if len(times) < 1:
            raise ValueError("trajectory needs at least one breakpoint")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if times[0] != 0.0 or (len(times) > 1 and times[-1] != 1.0):
            raise ValueError("breakpoints must start at 0 and end at 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __call__(self, t):
        """Evaluate at scalar or array t in [0, 1]; returns (..., d)."""
        t = np.asarray(t, dtype=float)
        if self.kind == CONSTANT:
            idx = np.searchsorted(self.times, t, side="right") - 1
            idx = np.clip(idx, 0, len(self.times) - 1)
            return self.values[idx]
        out = np.empty(t.shape + (self.dim,))
        for k in range(self.dim):
            out[..., k] = np.interp(t, self.times, self.values[:, k])
        return out

    def left_limit(self, t):
        """Left limit at t (equals the value for the linear kind)."""
        if self.kind == LINEAR:
            return self(t)
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="left") - 1
        idx = np.clip(idx, 0, len(self.times) - 1)
        return self.values[idx]


def segment(mu) -> Trajectory:
    """The straight path t -> mu*t as a piecewise-linear trajectory."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return Trajectory(LINEAR, [0.0, 1.0], np.vstack([np.zeros_like(mu), mu]))
