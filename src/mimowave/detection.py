"""Detection-side figures of merit and the Monte Carlo harness.

Two hypotheses on the stacked snapshot y: noise only, or noise plus a
Gaussian-distributed target filtered through the design. The divergence
between them (relative entropy of the target-present law from the
noise-only law) is the design objective; the matching likelihood-ratio
statistic, its empirically calibrated threshold, and the resulting
detection probability make up the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientTrialsError, ThresholdMissingError
from .linalg import HPDFactor, hpd_factor
from .model import TargetPrior, lift_waveform, sample_noise

# Monte Carlo batch size: keeps peak memory near dim * BATCH complex entries
BATCH = 20_000

IMAG_ATOL = 1e-8


def _n_rx(x: np.ndarray, prior: TargetPrior) -> int:
    x = np.asarray(x)
    n_rx, rem = divmod(prior.dim, x.shape[1])
    if rem:
        raise ValueError(
            f"prior dimension {prior.dim} is not a multiple of the "
            f"{x.shape[1]} transmit elements")
    return n_rx


def _covariance(lift: np.ndarray, prior: TargetPrior,
                noise_power: float) -> np.ndarray:
    cov = lift @ prior.r_h @ lift.conj().T
    cov = (cov + cov.conj().T) / 2.0
    cov += noise_power * np.eye(cov.shape[0])
    return cov


def received_covariance(x, prior: TargetPrior, noise_power: float) -> np.ndarray:
    """Covariance of the snapshot when the target obeys the prior.

    (I ⊗ X) R_H (I ⊗ X)^* + sigma^2 I, returned explicitly Hermitian.
    """
    x = np.asarray(x, dtype=complex)
    lift = lift_waveform(x, _n_rx(x, prior))
    return _covariance(lift, prior, noise_power)


class Expansion:
    """The snapshot law at one design, factored once.

    Holds the lift I ⊗ X, the single Cholesky factor of the target-present
    covariance R1, R1^{-1}, the mean shift mu = (I ⊗ X) h_d and
    R1^{-1} mu. The objective, its three X-dependent
    terms, the three quadratic lower bounds and the detector all read
    from here, so each design is factored exactly once.
    """

    def __init__(self, x, prior: TargetPrior, sigma2: float):
        x = np.asarray(x, dtype=complex)
        self.x, self.prior, self.sigma2 = x, prior, sigma2
        self.lift = lift_waveform(x, _n_rx(x, prior))
        self.factor = hpd_factor(_covariance(self.lift, prior, sigma2))
        self.dim = self.lift.shape[0]
        self.inv = self.factor.solve(np.eye(self.dim))
        self.shift = self.lift @ prior.h_d
        self.whitened_shift = self.factor.solve(self.shift)

    def terms(self):
        """(log det R1, mu^* R1^{-1} mu, tr(R1^{-1}))."""
        quad = float(np.real(np.vdot(self.shift, self.whitened_shift)))
        trace = float(np.real(np.trace(self.inv)))
        return self.factor.log_det(), quad, trace

    @property
    def objective(self) -> float:
        log_det, quad, trace = self.terms()
        return (log_det + quad + self.sigma2 * trace
                - self.dim * (1.0 + np.log(self.sigma2)))


def relative_entropy(x, prior: TargetPrior, noise_power: float) -> float:
    """Divergence of the target-present snapshot law from noise only.

    log det R1 + tr(R1^{-1}(mu mu^* + sigma^2 I)) - dim (1 + log sigma^2),
    with R1 the target-present covariance and mu the mean shift through
    the design. Zero waveform gives exactly zero.

    Evaluated on the triangular factor C of the thin QR X = Q C, which
    gives the same value: D depends on X only through X^* X = C^* C. Each
    snapshot dimension outside the range of I ⊗ Q would add log sigma^2 to
    log det R1 and 1 to sigma^2 tr(R1^{-1}), which the dim (1 + log
    sigma^2) constant takes back. The cost then does not grow with the
    code length.
    """
    x = np.asarray(x, dtype=complex)
    return Expansion(np.linalg.qr(x, mode="r"), prior, noise_power).objective


@dataclass(frozen=True)
class DetectorSpec:
    """Frozen ingredients of the likelihood-ratio test for one design.

    Carries the Cholesky handle of the target-present covariance, the
    block-replicated design, the mean shift it induces on the nominal
    target, and (once calibrated) the decision threshold.
    """

    cov_factor: HPDFactor
    lift: np.ndarray
    mean_shift: np.ndarray
    noise_power: float
    threshold: float | None = None

    @property
    def dim(self) -> int:
        return self.mean_shift.size

    def with_threshold(self, threshold: float) -> "DetectorSpec":
        return replace(self, threshold=float(threshold))


def build_detector(x, prior: TargetPrior, noise_power: float) -> DetectorSpec:
    """Assemble the test statistic's fixed pieces for a given design."""
    expansion = Expansion(x, prior, noise_power)
    return DetectorSpec(cov_factor=expansion.factor, lift=expansion.lift,
                        mean_shift=expansion.shift, noise_power=noise_power)


def _statistics(ys: np.ndarray, spec: DetectorSpec) -> np.ndarray:
    """Test statistic for a (dim, n) batch of snapshots."""
    whitened = spec.cov_factor.solve(ys)
    direct = np.einsum("ij,ij->j", ys.conj(), ys)
    quad = direct - spec.noise_power * np.einsum("ij,ij->j", ys.conj(), whitened)
    cross = whitened.conj().T @ spec.mean_shift
    stats = np.real(quad) + 2.0 * spec.noise_power * np.real(cross)
    worst = float(np.max(np.abs(np.imag(quad)), initial=0.0))
    if worst > IMAG_ATOL * max(1.0, float(np.max(np.abs(quad)))):
        raise ValueError(f"statistic has imaginary residue {worst:.3e}")
    return stats


def np_statistic(y, spec: DetectorSpec) -> float:
    """Scalar test statistic for one snapshot."""
    y = np.asarray(y, dtype=complex).reshape(-1, 1)
    return float(_statistics(y, spec)[0])


def empirical_quantile(samples: np.ndarray, p_fa: float) -> float:
    """Threshold from sorted noise-only statistics.

    Picks the ascending order statistic at index ceil((1 - p_fa) n) - 1,
    so that strictly larger samples make up at most a p_fa fraction.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    n = samples.size
    idx = int(np.ceil((1.0 - p_fa) * n)) - 1
    idx = min(max(idx, 0), n - 1)
    return float(np.partition(samples, idx)[idx])


def calibrate_threshold(spec: DetectorSpec, p_fa: float, trials: int,
                        rng: np.random.Generator) -> float:
    """Monte Carlo threshold for a target false-alarm rate.

    Simulates noise-only snapshots, then takes the empirical quantile.
    Requires trials * p_fa >= 10 so the tail is actually resolved.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError(f"false-alarm rate must lie in (0, 1), got {p_fa}")
    if trials * p_fa < 10:
        raise InsufficientTrialsError(
            f"{trials} trials resolve an expected {trials * p_fa:.1f} "
            f"exceedances; need at least 10")
    stats = np.empty(trials)
    done = 0
    while done < trials:
        n = min(BATCH, trials - done)
        noise = sample_noise(spec.dim, spec.noise_power, rng, size=n)
        stats[done:done + n] = _statistics(noise, spec)
        done += n
    return empirical_quantile(stats, p_fa)


def detection_probability(spec: DetectorSpec, h, trials: int,
                          rng: np.random.Generator) -> float:
    """Fraction of target-present snapshots whose statistic clears the bar.

    ``h`` is either a fixed stacked channel vector (only the noise is
    redrawn) or a callable ``h(rng, n)`` returning a (dim_h, n) batch of
    channel draws. Ties with the threshold count as misses.
    """
    if spec.threshold is None:
        raise ThresholdMissingError("calibrate a threshold before measuring Pd")
    hits = 0
    done = 0
    while done < trials:
        n = min(BATCH, trials - done)
        if callable(h):
            draws = np.asarray(h(rng, n), dtype=complex)
        else:
            draws = np.broadcast_to(
                np.asarray(h, dtype=complex).reshape(-1, 1),
                (np.asarray(h).size, n))
        ys = spec.lift @ draws + sample_noise(spec.dim, spec.noise_power, rng,
                                              size=n)
        hits += int(np.count_nonzero(_statistics(ys, spec) > spec.threshold))
        done += n
    return hits / trials
