import numpy as np
import pytest

from walklimits import CONSTANT, LINEAR, Trajectory, segment
from walklimits.fixtures import jump_alignment, step_f
from walklimits.metrics import TimeChange


def test_constant_kind_right_continuous_with_left_limits():
    f = Trajectory(CONSTANT, [0.0, 0.25, 1.0], [[1.0], [2.0], [2.0]])
    assert f(0.0)[0] == 1.0
    assert f(0.25)[0] == 2.0  # right continuity at the jump
    assert f(0.24999)[0] == 1.0
    assert f.left_limit(0.25)[0] == 1.0
    assert f(1.0)[0] == 2.0


def test_linear_kind_is_continuous_interpolation():
    f = Trajectory(LINEAR, [0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]])
    ts = np.linspace(0, 1, 101)
    vals = f(ts)[:, 0]
    assert np.allclose(vals, 1.0 - 2.0 * np.abs(ts - 0.5))
    assert f(0.0)[0] == 0.0


def test_single_breakpoint_treated_as_constant():
    f = Trajectory(CONSTANT, [0.0], [[3.0]])
    assert f(0.7)[0] == 3.0
    g = Trajectory(LINEAR, [0.0], [[3.0]])
    assert g(0.7)[0] == 3.0


def test_trajectory_validation_errors():
    with pytest.raises(ValueError):
        Trajectory("steps", [0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        Trajectory(CONSTANT, [0.0, 0.5], [[0.0], [1.0]])  # must end at 1
    with pytest.raises(ValueError):
        Trajectory(CONSTANT, [0.0, 0.5, 0.5, 1.0], [[0.0]] * 4)
    with pytest.raises(ValueError):
        Trajectory(CONSTANT, [0.1, 1.0], [[0.0], [1.0]])  # must start at 0


def test_trajectory_immutable():
    f = segment([1.0])
    with pytest.raises(ValueError):
        f.values[0, 0] = 9.0


def test_time_change_validation_and_inverse():
    lam = TimeChange([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
    inv = lam.inverse()
    assert inv(0.6) == pytest.approx(0.3)
    ts = np.linspace(0, 1, 50)
    assert np.allclose(inv(np.asarray(lam(ts))), ts, atol=1e-12)
    with pytest.raises(ValueError):
        TimeChange([0.0, 1.0], [0.0, 0.9])
    with pytest.raises(ValueError):
        TimeChange([0.0, 0.5, 0.4, 1.0], [0.0, 0.2, 0.3, 1.0])


def test_bundled_fixture_values():
    f = step_f()
    assert f(0.0)[0] == 1.0 and f(0.499)[0] == 1.0 and f(0.5)[0] == 0.0
    lam = jump_alignment()
    assert lam(0.5) == pytest.approx(0.49, abs=1e-15)
