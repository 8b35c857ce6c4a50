"""Shared fixtures and small random-matrix helpers."""

import numpy as np
import pytest

from mimowave.model import ArrayGeometry, Scenario, build_prior, desk_scenario


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, n, scale=1.0):
    a = random_complex(rng, (n, n), scale)
    return (a + a.conj().T) / 2.0


def random_psd(rng, n, scale=1.0):
    a = random_complex(rng, (n, n), scale)
    return a @ a.conj().T


def random_waveform(rng, l, n_t, energy):
    """Random complex design scaled to the given total energy."""
    x = random_complex(rng, (l, n_t))
    return x * np.sqrt(energy / np.real(np.vdot(x, x)))


@pytest.fixture
def tiny_scenario():
    """2x2 arrays with a 3-chip code: small enough to brute-force around."""
    return Scenario(
        tx=ArrayGeometry(2, 2.0),
        rx=ArrayGeometry(2, 0.5),
        code_length=3,
        noise_power=1.3,
        energy_budget=2.0,
        nominal_doa_deg=15.0,
        nominal_amplitude=complex(np.sqrt(1.5)),
        uncertainty_angles_deg=(-20.0, 0.0, 15.0, 30.0),
        uncertainty_power=0.05,
        seed=3,
    )


@pytest.fixture
def scalar_scenario():
    """Single antenna each side, one chip: the objective is 1-D in |x|."""
    return Scenario(
        tx=ArrayGeometry(1, 0.5),
        rx=ArrayGeometry(1, 0.5),
        code_length=1,
        noise_power=1.0,
        energy_budget=1.0,
        nominal_doa_deg=0.0,
        nominal_amplitude=1.0,
        uncertainty_angles_deg=(0.0,),
        uncertainty_power=1.0,
        seed=7,
    )


@pytest.fixture(scope="module")
def desk_prior():
    """Prior of the desk scene (4x4 arrays); it does not depend on the code
    length or the energy budget, so property tests may share it."""
    return build_prior(desk_scenario())
