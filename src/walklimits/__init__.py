"""Random-walk trajectories, path metrics, hull geometry and their limit laws."""

from .config import ConfigError, ExperimentConfig, build_config, manifest_text
from .experiments import Report, ReportRow, run_experiment
from .functionals import lln_reference
from .geometry import (
    ConvexBody,
    PointSet,
    convex_hull,
    diameter,
    hausdorff,
    mean_width,
    steiner_neighborhood_volume,
    surface_area,
    volume,
)
from .laws import (
    ComKernel,
    CovSpec,
    arcsine_cdf,
    com_kernel_eval,
    sigma_mu_perp,
    sqrt_psd,
    sup_bm_cdf,
)
from .metrics import (
    FullSphere,
    HalfspaceCap,
    MetricResult,
    SphereRect,
    TimeChange,
    c_lambda,
    lambda_circ_norm,
    modulus_w,
    modulus_w_prime,
    occupation,
    positive_halfline,
    rho_inf,
    rho_skorokhod,
    rho_skorokhod_circ,
)
from .stats import ks_statistic, ks_two_sample, wilson_interval
from .trajectory import CONSTANT, LINEAR, Trajectory, segment
from .walks import (
    ComSeries,
    IncrementLaw,
    Walk,
    centre_of_mass,
    centre_of_mass_weighted,
    clt_trajectory,
    deterministic,
    gaussian,
    lattice,
    lln_trajectory,
    rademacher,
    sample_brownian,
    sample_tilde_bd,
    sample_walk,
    uniform_cube,
)

__version__ = "0.1.0"
