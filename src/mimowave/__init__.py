"""Transmit code design for colocated arrays under target uncertainty.

The library designs a code matrix that maximizes the divergence between
the target-present and noise-only hypotheses when the target response is
only known through a Gaussian prior, and evaluates designs with a Monte
Carlo likelihood-ratio detection harness against the closed-form design
for a perfectly known target.
"""

from .errors import (
    AscentError,
    ConfigError,
    InsufficientTrialsError,
    NoConvergenceError,
    NonHermitianError,
    NoRootError,
    NotPSDError,
    NotPositiveDefiniteError,
    ThresholdMissingError,
    WaveDesignError,
    ZeroResponseError,
)
from .model import (
    ArrayGeometry,
    Scenario,
    TargetPrior,
    build_prior,
    default_scenario,
    desk_scenario,
    lift_waveform,
    response_matrix,
    sample_noise,
    sample_target,
    snr,
    steering,
    uncertainty_grid,
    waveform_energy,
)
from .detection import (
    DetectorSpec,
    Expansion,
    build_detector,
    calibrate_threshold,
    detection_probability,
    empirical_quantile,
    np_statistic,
    received_covariance,
    relative_entropy,
)
from .mm import (
    MMConfig,
    MMIterate,
    MMTrace,
    nominal_design,
    optimize,
    random_init,
    trs_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "AscentError",
    "ConfigError",
    "DetectorSpec",
    "Expansion",
    "InsufficientTrialsError",
    "MMConfig",
    "MMIterate",
    "MMTrace",
    "NoConvergenceError",
    "NonHermitianError",
    "NoRootError",
    "NotPSDError",
    "NotPositiveDefiniteError",
    "Scenario",
    "TargetPrior",
    "ThresholdMissingError",
    "WaveDesignError",
    "ZeroResponseError",
    "build_detector",
    "build_prior",
    "calibrate_threshold",
    "default_scenario",
    "desk_scenario",
    "detection_probability",
    "empirical_quantile",
    "lift_waveform",
    "nominal_design",
    "np_statistic",
    "optimize",
    "random_init",
    "received_covariance",
    "relative_entropy",
    "response_matrix",
    "sample_noise",
    "sample_target",
    "snr",
    "steering",
    "trs_solve",
    "uncertainty_grid",
    "waveform_energy",
    "__version__",
]
