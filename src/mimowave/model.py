"""Colocated MIMO scene description.

Uniform linear arrays on both ends, a narrowband code matrix X of shape
(code length, transmit elements), and a target channel H built from
steering-vector outer products. The receiver-side stacking convention is
fixed here once: y = vec(X H) + noise, so the stacked channel vector is
h = vec(H) and design matrices act through I ⊗ X.

Uncertainty about the target is carried by a complex Gaussian prior on h
with mean h_d (the nominal target) and covariance R_H (a spread of
rank-one responses over a coarse angle grid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import HERMITIAN_RTOL, kron, psd_sqrt, unvec, vec


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_angle(name: str, value: float) -> None:
    if not -90.0 <= value <= 90.0:
        raise ValueError(f"{name} must lie in [-90, 90] degrees, got {value}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing_wavelengths: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"need at least one element, got {self.n_elements}")
        _check_positive("spacing", self.spacing_wavelengths)


@dataclass(frozen=True)
class Scenario:
    """Everything fixed before a waveform is designed.

    ``uncertainty_angles_deg`` lists the grid of directions over which the
    prior covariance spreads its mass; ``uncertainty_power`` is the per-angle
    variance of the random amplitude at each of those directions.
    """

    tx: ArrayGeometry
    rx: ArrayGeometry
    code_length: int
    noise_power: float
    energy_budget: float
    nominal_doa_deg: float
    nominal_amplitude: complex
    uncertainty_angles_deg: tuple
    uncertainty_power: float
    seed: int

    def __post_init__(self):
        if self.code_length < 1:
            raise ValueError(f"code length must be >= 1, got {self.code_length}")
        _check_positive("noise power", self.noise_power)
        _check_positive("energy budget", self.energy_budget)
        _check_angle("nominal_doa_deg", self.nominal_doa_deg)
        if not np.isfinite(complex(self.nominal_amplitude)):
            raise ValueError(
                f"nominal amplitude must be finite, got {self.nominal_amplitude}")
        if len(self.uncertainty_angles_deg) == 0:
            raise ValueError("uncertainty grid must contain at least one angle")
        for angle in self.uncertainty_angles_deg:
            _check_angle("uncertainty angle", angle)
        _check_positive("uncertainty power", self.uncertainty_power)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in uint64, got {self.seed}")

    @property
    def n_tx(self) -> int:
        return self.tx.n_elements

    @property
    def n_rx(self) -> int:
        return self.rx.n_elements


@dataclass(frozen=True)
class TargetPrior:
    """Gaussian prior on the stacked channel: mean h_d, covariance r_h."""

    h_d: np.ndarray
    r_h: np.ndarray

    def __post_init__(self):
        h_d = np.asarray(self.h_d, dtype=complex).reshape(-1)
        r_h = np.asarray(self.r_h, dtype=complex)
        if r_h.ndim != 2 or r_h.shape[0] != r_h.shape[1]:
            raise ValueError(f"covariance must be square, got shape {r_h.shape}")
        if r_h.shape[0] != h_d.size:
            raise ValueError(
                f"mean has {h_d.size} entries but covariance is {r_h.shape[0]}x"
                f"{r_h.shape[1]}")
        scale = np.linalg.norm(r_h)
        if scale > 0 and np.linalg.norm(r_h - r_h.conj().T) > HERMITIAN_RTOL * scale:
            raise ValueError("covariance must be Hermitian")
        w = np.linalg.eigvalsh((r_h + r_h.conj().T) / 2.0)
        if w[0] < -1e-8 * max(abs(w[-1]), 1.0):
            raise ValueError(f"covariance has negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "h_d", h_d)
        object.__setattr__(self, "r_h", r_h)

    @property
    def dim(self) -> int:
        return self.h_d.size

    @cached_property
    def root(self) -> np.ndarray:
        """Hermitian square root R_H^{1/2}, computed on first use."""
        return psd_sqrt(self.r_h)


def steering(geom: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Steering vector of a ULA toward an angle given in degrees."""
    _check_angle("theta_deg", theta_deg)
    phase = (2.0 * np.pi * geom.spacing_wavelengths
             * np.sin(np.deg2rad(theta_deg)))
    return np.exp(1j * phase * np.arange(geom.n_elements))


def response_matrix(targets: Sequence, scenario: Scenario) -> np.ndarray:
    """Channel matrix sum_k alpha_k a(theta_k) b(theta_k)^T.

    ``targets`` is a sequence of (amplitude, angle_deg) pairs. Rows index
    transmit elements, columns receive elements; no conjugation anywhere.
    """
    h = np.zeros((scenario.n_tx, scenario.n_rx), dtype=complex)
    for amplitude, theta_deg in targets:
        a = steering(scenario.tx, theta_deg)
        b = steering(scenario.rx, theta_deg)
        h += complex(amplitude) * np.outer(a, b)
    return h


def build_prior(scenario: Scenario) -> TargetPrior:
    """Prior for the stacked channel under the scenario's uncertainty grid.

    Mean is the nominal target stacked receive-major: amplitude times
    b(theta_d) ⊗ a(theta_d). Covariance spreads ``uncertainty_power`` over
    every grid direction as rank-one terms (b ⊗ a)(b ⊗ a)^*.
    """
    a_d = steering(scenario.tx, scenario.nominal_doa_deg)
    b_d = steering(scenario.rx, scenario.nominal_doa_deg)
    h_d = complex(scenario.nominal_amplitude) * kron(b_d, a_d)

    dim = scenario.n_tx * scenario.n_rx
    r_h = np.zeros((dim, dim), dtype=complex)
    for theta in scenario.uncertainty_angles_deg:
        v = kron(steering(scenario.rx, theta), steering(scenario.tx, theta))
        r_h += scenario.uncertainty_power * np.outer(v, v.conj())
    r_h = (r_h + r_h.conj().T) / 2.0
    return TargetPrior(h_d=h_d, r_h=r_h)


def lift_waveform(x: np.ndarray, n_rx: int) -> np.ndarray:
    """Block-replicate a code matrix: I_{n_rx} ⊗ X, acting on stacked h."""
    return kron(np.eye(n_rx), np.asarray(x, dtype=complex))


def waveform_energy(x: np.ndarray) -> float:
    """Total transmit energy ||X||_F^2."""
    x = np.asarray(x)
    return float(np.real(np.vdot(x, x)))


def snr(x: np.ndarray, h_mat: np.ndarray, noise_power: float) -> float:
    """Per-sample signal-to-noise ratio ||X H||_F^2 / (L n_r sigma^2)."""
    x = np.asarray(x, dtype=complex)
    signal = x @ np.asarray(h_mat, dtype=complex)
    return float(np.real(np.vdot(signal, signal))) / (
        signal.shape[0] * signal.shape[1] * noise_power)


def sample_target(prior: TargetPrior, rng: np.random.Generator, size=None):
    """Draw stacked channel vectors h ~ CN(h_d, R_H).

    With ``size=None`` returns one vector of length ``prior.dim``; with an
    integer returns a (dim, size) array of independent draws.
    """
    n = 1 if size is None else int(size)
    g = (rng.standard_normal((prior.dim, n))
         + 1j * rng.standard_normal((prior.dim, n))) / np.sqrt(2.0)
    draws = prior.h_d[:, None] + prior.root @ g
    return draws[:, 0] if size is None else draws


def sample_noise(dim: int, noise_power: float, rng: np.random.Generator,
                 size=None):
    """Circular complex Gaussian noise with per-entry variance noise_power."""
    n = 1 if size is None else int(size)
    g = (rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n)))
    g *= np.sqrt(noise_power / 2.0)
    return g[:, 0] if size is None else g


def received(x: np.ndarray, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Stacked receive snapshot vec(X H) + noise for one channel draw."""
    x = np.asarray(x, dtype=complex)
    h = np.asarray(h, dtype=complex).reshape(-1)
    n_tx = x.shape[1]
    h_mat = unvec(h, n_tx, h.size // n_tx)
    return vec(x @ h_mat) + np.asarray(noise, dtype=complex).reshape(-1)


def uncertainty_grid(start: float = -60.0, stop: float = 56.0,
                     step: float = 4.0) -> tuple:
    """Evenly spaced angle grid, inclusive of both endpoints."""
    count = int(round((stop - start) / step)) + 1
    return tuple(float(start + i * step) for i in range(count))


def default_scenario(energy_budget: float = 1.25, nominal_doa_deg: float = 15.0,
                     noise_power: float = 1.0, seed: int = 1) -> Scenario:
    """Reference setup: 6x6 arrays, 20-chip code, coarse uncertainty grid."""
    return Scenario(
        tx=ArrayGeometry(n_elements=6, spacing_wavelengths=2.0),
        rx=ArrayGeometry(n_elements=6, spacing_wavelengths=0.5),
        code_length=20,
        noise_power=noise_power,
        energy_budget=energy_budget,
        nominal_doa_deg=nominal_doa_deg,
        nominal_amplitude=complex(np.sqrt(1.5)),
        uncertainty_angles_deg=uncertainty_grid(),
        uncertainty_power=0.05,
        seed=seed,
    )


def desk_scenario(**overrides) -> Scenario:
    """Shrunk variant of :func:`default_scenario` for fast iteration."""
    base = default_scenario(**overrides)
    return replace(
        base,
        tx=ArrayGeometry(n_elements=4, spacing_wavelengths=base.tx.spacing_wavelengths),
        rx=ArrayGeometry(n_elements=4, spacing_wavelengths=base.rx.spacing_wavelengths),
        code_length=8,
    )
