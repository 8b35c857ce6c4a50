"""Exception types shared across the package."""


class WaveDesignError(Exception):
    """Base class for every error this package raises on purpose."""


class NonHermitianError(WaveDesignError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergenceError(WaveDesignError):
    """An iterative numerical kernel failed to converge."""


class NotPositiveDefiniteError(WaveDesignError):
    """Matrix expected to be Hermitian positive definite is not."""


class NotPSDError(WaveDesignError):
    """Matrix expected to be positive semidefinite has a genuinely negative eigenvalue."""


class ZeroResponseError(WaveDesignError):
    """Target response matrix is identically zero, so no beam direction exists."""


class NoRootError(WaveDesignError):
    """Secular-equation root finding exhausted its iteration budget."""


class AscentError(WaveDesignError):
    """The ascent loop saw the objective decrease, which a valid step cannot do."""

    def __init__(self, iteration: int, previous: float, current: float):
        super().__init__(f"objective decreased from {previous:.12g} to "
                         f"{current:.12g} at iteration {iteration}")
        self.iteration, self.previous, self.current = iteration, previous, current


class InsufficientTrialsError(WaveDesignError):
    """Too few Monte Carlo trials to resolve the requested tail probability."""


class ThresholdMissingError(WaveDesignError):
    """Detector threshold has not been calibrated yet."""


class ConfigError(WaveDesignError):
    """Experiment configuration is malformed or inconsistent."""
