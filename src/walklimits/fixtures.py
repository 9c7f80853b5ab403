"""Bundled fixtures: the three step functions and the time change of the
paper's examples 2.1 and 2.2 (``metric --example``), and a named config for
every acceptance experiment (``experiment --builtin``)."""

from __future__ import annotations

from .metrics import TimeChange
from .trajectory import CONSTANT, Trajectory


def step_f() -> Trajectory:
    """Step function: 1 on [0, 1/2), 0 on [1/2, 1]."""
    return Trajectory(CONSTANT, [0.0, 0.5, 1.0], [[1.0], [0.0], [0.0]])


def step_g() -> Trajectory:
    """Step function: 0.8 on [0, 1/2), 0.2 on [1/2, 1]."""
    return Trajectory(CONSTANT, [0.0, 0.5, 1.0], [[0.8], [0.2], [0.2]])


def step_h() -> Trajectory:
    """Step function: 0.95 on [0, 0.49), 0.05 on [0.49, 1]."""
    return Trajectory(CONSTANT, [0.0, 0.49, 1.0], [[0.95], [0.05], [0.05]])


def jump_alignment() -> TimeChange:
    """The piecewise-linear time change mapping 0.5 to 0.49 (slopes 49/50, 51/50)."""
    return TimeChange([0.0, 0.5, 1.0], [0.0, 0.49, 1.0])


BUILTIN_CONFIGS = {
    "max-clt": """\
# maximum of the rescaled walk vs the reflected-normal law
experiment = distributional
functional = max
law = rademacher
dim = 1
n = 10000
replicas = 5000
seed = 20260809
threshold = 0.05
""",
    "arcsine": """\
# fraction of time on the positive side vs the arcsine law
experiment = distributional
functional = arcsine
law = rademacher
dim = 1
n = 10000
replicas = 5000
seed = 20260810
threshold = 0.05
""",
    "perimeter-lln": """\
# hull perimeter per step converging to twice the drift norm
experiment = lln-sweep
functional = perimeter
law = gaussian
dim = 2
mu = 1,0
sigma = 1,0;0,1
n_list = 1000,10000,100000
replicas = 1
seed = 20260811
threshold = 0.05
""",
    "com-kernel": """\
# centre-of-mass variance and cross-covariance vs the limit kernel
experiment = com-kernel
law = rademacher
dim = 1
n = 10000
replicas = 100000
pairs = 1:1,0.5:1
seed = 20260812
threshold = 0.05
""",
    "hull-volume-identity": """\
# scaled hull area of a driftless walk, identity covariance
experiment = distributional
functional = volume
law = gaussian
dim = 2
sigma = 1,0;0,1
n = 10000
replicas = 2000
seed = 20260813
reference = none
""",
    "hull-volume-sigma41": """\
# scaled hull area of a driftless walk, covariance diag(4, 1)
experiment = distributional
functional = volume
law = gaussian
dim = 2
sigma = 4,0;0,1
n = 10000
replicas = 2000
seed = 20260813
reference = none
""",
    "drift-volume": """\
# hull volume under drift vs the time-space Brownian surrogate
experiment = hull-drift-volume
law = gaussian
dim = 2
mu = 1,0
sigma = 1,0;0,1
n = 10000
replicas = 2000
surrogate_grid = 2048
seed = 20260814
threshold = 0.15
""",
    "etemadi-d1": """\
# maximal inequality, d = 1
experiment = etemadi
law = rademacher
dim = 1
n = 1000
replicas = 10000
x_grid = 5,10,20,40
seed = 20260815
""",
    "etemadi-d2": """\
# maximal inequality, d = 2
experiment = etemadi
law = rademacher
dim = 2
n = 1000
replicas = 10000
x_grid = 5,10,20,40
seed = 20260816
""",
}

