import numpy as np
import pytest

from mimowave import linalg, model
from mimowave.model import ArrayGeometry, Scenario, TargetPrior

from conftest import random_complex


def test_steering_oracle_half_wavelength():
    # half-wavelength pair at 30 deg: phase step 2*pi*0.5*sin(30) = pi/2
    geom = ArrayGeometry(2, 0.5)
    a = model.steering(geom, 30.0)
    assert a[0] == pytest.approx(1.0)
    assert a[1] == pytest.approx(1j, abs=1e-12)


def test_steering_is_unit_modulus():
    geom = ArrayGeometry(7, 2.0)
    for theta in (-90.0, -33.0, 0.0, 12.5, 90.0):
        assert np.allclose(np.abs(model.steering(geom, theta)), 1.0)


def test_steering_rejects_out_of_range():
    with pytest.raises(ValueError):
        model.steering(ArrayGeometry(3, 0.5), 91.0)


def test_response_matrix_single_target(tiny_scenario):
    h = model.response_matrix([(2.0 + 1j, 10.0)], tiny_scenario)
    a = model.steering(tiny_scenario.tx, 10.0)
    b = model.steering(tiny_scenario.rx, 10.0)
    assert h.shape == (2, 2)
    assert np.allclose(h, (2.0 + 1j) * np.outer(a, b), atol=1e-14)


def test_prior_mean_is_stacked_response(tiny_scenario):
    # h_d must equal vec of the nominal channel matrix under the
    # column-major stacking used by the receive model
    prior = model.build_prior(tiny_scenario)
    h_mat = model.response_matrix(
        [(tiny_scenario.nominal_amplitude, tiny_scenario.nominal_doa_deg)],
        tiny_scenario)
    assert np.allclose(prior.h_d, linalg.vec(h_mat), atol=1e-12)


def test_prior_scalar_case(scalar_scenario):
    prior = model.build_prior(scalar_scenario)
    assert prior.h_d == pytest.approx(1.0)
    assert prior.r_h[0, 0] == pytest.approx(1.0)  # sigma_r^2 * K = 1 * 1


def test_prior_covariance_trace(tiny_scenario):
    # each grid angle contributes sigma_r^2 * n_tx * n_rx (unit-modulus phases)
    prior = model.build_prior(tiny_scenario)
    k = len(tiny_scenario.uncertainty_angles_deg)
    expected = tiny_scenario.uncertainty_power * k * 4
    assert np.real(np.trace(prior.r_h)) == pytest.approx(expected, rel=1e-12)


def test_prior_covariance_is_psd(tiny_scenario):
    prior = model.build_prior(tiny_scenario)
    w = np.linalg.eigvalsh(prior.r_h)
    assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_default_uncertainty_grid():
    grid = model.uncertainty_grid()
    assert len(grid) == 30
    assert grid[0] == -60.0
    assert grid[-1] == 56.0
    assert np.allclose(np.diff(grid), 4.0)


def test_lift_waveform_matches_kron():
    rng = np.random.default_rng(10)
    x = random_complex(rng, (3, 2))
    lifted = model.lift_waveform(x, 2)
    assert lifted.shape == (6, 4)
    assert np.allclose(lifted[:3, :2], x)
    assert np.allclose(lifted[3:, 2:], x)
    assert np.allclose(lifted[:3, 2:], 0.0)


def test_received_matches_lifted_product(tiny_scenario):
    # vec(X H) + n must agree with (I kron X) vec(H) + n
    rng = np.random.default_rng(11)
    x = random_complex(rng, (3, 2))
    h = random_complex(rng, (4,))
    noise = random_complex(rng, (6,))
    y = model.received(x, h, noise)
    lifted = model.lift_waveform(x, 2)
    assert np.allclose(y, lifted @ h + noise, atol=1e-13)


def test_sample_target_moments(tiny_scenario):
    prior = model.build_prior(tiny_scenario)
    rng = np.random.default_rng(12)
    draws = model.sample_target(prior, rng, size=200_000)
    mean_err = np.abs(draws.mean(axis=1) - prior.h_d).max()
    assert mean_err < 0.02, f"sample mean off by {mean_err:.4f}"
    centered = draws - prior.h_d[:, None]
    cov = centered @ centered.conj().T / draws.shape[1]
    cov_err = np.linalg.norm(cov - prior.r_h) / np.linalg.norm(prior.r_h)
    assert cov_err < 0.02, f"sample covariance off by {cov_err:.4f}"
    # circularity: pseudo-covariance should vanish
    pseudo = centered @ centered.T / draws.shape[1]
    assert np.abs(pseudo).max() < 0.02


def test_sample_noise_variance():
    rng = np.random.default_rng(13)
    draws = model.sample_noise(4, 2.5, rng, size=100_000)
    per_entry = np.mean(np.abs(draws) ** 2, axis=1)
    assert np.allclose(per_entry, 2.5, rtol=0.03)


def test_waveform_energy():
    x = np.array([[1.0, 1j], [1.0 - 1j, 0.0]])
    assert model.waveform_energy(x) == pytest.approx(4.0)


def test_snr_oracle():
    # X = I, H = diag(2, 1), sigma2 = 0.5: ||XH||^2 = 5, L*n_r*s2 = 2
    x = np.eye(2, dtype=complex)
    h = np.diag([2.0, 1.0]).astype(complex)
    assert model.snr(x, h, 0.5) == pytest.approx(2.5)


def test_scenario_validation():
    ok = model.default_scenario()
    with pytest.raises(ValueError):
        model.Scenario(**{**_as_kwargs(ok), "code_length": 0})
    with pytest.raises(ValueError):
        model.Scenario(**{**_as_kwargs(ok), "noise_power": 0.0})
    with pytest.raises(ValueError):
        model.Scenario(**{**_as_kwargs(ok), "nominal_doa_deg": 123.0})
    with pytest.raises(ValueError):
        model.Scenario(**{**_as_kwargs(ok), "uncertainty_angles_deg": ()})
    with pytest.raises(ValueError):
        model.Scenario(**{**_as_kwargs(ok), "seed": -1})
    non_finite = [("noise_power", np.nan), ("energy_budget", np.nan),
                  ("energy_budget", np.inf), ("uncertainty_power", np.nan),
                  ("nominal_amplitude", np.nan), ("nominal_amplitude", np.inf),
                  ("nominal_amplitude", complex(1.0, -np.inf))]
    for field, value in non_finite:
        with pytest.raises(ValueError, match="finite"):
            model.Scenario(**{**_as_kwargs(ok), field: value})
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(6, np.nan)


def _as_kwargs(s: Scenario) -> dict:
    return {
        "tx": s.tx, "rx": s.rx, "code_length": s.code_length,
        "noise_power": s.noise_power, "energy_budget": s.energy_budget,
        "nominal_doa_deg": s.nominal_doa_deg,
        "nominal_amplitude": s.nominal_amplitude,
        "uncertainty_angles_deg": s.uncertainty_angles_deg,
        "uncertainty_power": s.uncertainty_power, "seed": s.seed,
    }


def test_target_prior_rejects_non_hermitian():
    with pytest.raises(ValueError):
        TargetPrior(h_d=np.ones(2), r_h=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_target_prior_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        TargetPrior(h_d=np.ones(3), r_h=np.eye(2))


def test_default_scenario_shapes():
    s = model.default_scenario()
    assert (s.n_tx, s.n_rx, s.code_length) == (6, 6, 20)
    assert s.tx.spacing_wavelengths == 2.0
    assert s.rx.spacing_wavelengths == 0.5
    assert s.nominal_amplitude == pytest.approx(np.sqrt(1.5))
    d = model.desk_scenario()
    assert (d.n_tx, d.n_rx, d.code_length) == (4, 4, 8)
