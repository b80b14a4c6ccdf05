"""Minimax-robust sequential change-point detection for Gaussian streams.

Detectors are designed against convex uncertainty sets for the mean vector
and covariance matrix, by convex optimization; the resulting CUSUM
procedures come with certified thresholds and are evaluated by exact
formulas and Monte Carlo simulation.
"""

from .config import ExperimentConfig, load_bundled_config, load_config, parse_config, serialize_config
from .cusum import (
    StoppingResult,
    calibrate_threshold_mc,
    run_until_alarm,
    threshold_from_gamma,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FlagError,
    NotPositiveDefiniteError,
    RobustCusumError,
)
from .gaussian import Gaussian, SeededStream, kl_divergence, mahalanobis_sq
from .lfp import AffineDetector, LfpSolution, SolverOptions, build_affine_detector, solve_lfp
from .quadratic import (
    ClassSetup,
    QuadraticDetector,
    SaddleOptions,
    SaddleSolution,
    build_quadratic_detector,
    eval_phi_big,
    llr_detector,
    solve_saddle,
)
from .sets import Box, L1Ball, L2Ball, MatrixInterval, SingletonPSD, SingletonVector, SpectralBall
from .simulate import (
    BoundReport,
    RunReport,
    estimate_arl,
    estimate_wdd,
    render_human,
    run_experiment,
    to_csv,
    verify_detector_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
