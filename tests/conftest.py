import os
from pathlib import Path

import numpy as np
import pytest

from walklimits.metrics import TimeChange
from walklimits.trajectory import CONSTANT, Trajectory

# pytest's ``pythonpath`` puts src on this process's path; child processes
# (``python -m walklimits``) find the same package through PYTHONPATH.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def random_step(rng, d=1, max_jumps=5, start_zero=True, scale=1.0):
    """Random piecewise-constant trajectory with a few interior jumps."""
    p = int(rng.integers(0, max_jumps + 1))
    times = np.sort(rng.random(p))
    times = np.unique(times[(times > 1e-3) & (times < 1 - 1e-3)])
    vals = rng.normal(size=(len(times) + 1, d)) * scale
    if start_zero:
        vals[0] = 0.0
    breakpoints = np.concatenate([[0.0], times, [1.0]])
    values = np.vstack([vals, vals[-1:]])
    return Trajectory(CONSTANT, breakpoints, values)


def random_time_change(rng, max_interior=4):
    """Random strictly increasing piecewise-linear bijection of [0, 1]."""
    k = int(rng.integers(0, max_interior + 1))
    times = np.unique(rng.random(k))
    times = times[(times > 1e-3) & (times < 1 - 1e-3)]
    images = np.sort(rng.random(len(times)))
    images = np.clip(images, 1e-4, 1 - 1e-4)
    images = np.unique(images)
    times = times[: len(images)]
    images = images[: len(times)]
    return TimeChange(
        np.concatenate([[0.0], times, [1.0]]),
        np.concatenate([[0.0], images, [1.0]]),
    )


def random_origin_points(rng, m, d=2, scale=1.0):
    """Random point cloud through the origin."""
    pts = rng.normal(size=(m, d)) * scale
    pts[0] = 0.0
    return pts


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
