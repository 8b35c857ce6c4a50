import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mimowave import detection, model
from mimowave.errors import InsufficientTrialsError, ThresholdMissingError

import oracles
from conftest import random_complex, random_waveform

LOG2 = 0.6931471805599453
LOG16 = 2.772588722239781


@pytest.fixture
def tiny_prior(tiny_scenario):
    return model.build_prior(tiny_scenario)


def test_received_covariance_reduces_to_noise(tiny_scenario, tiny_prior):
    cov = detection.received_covariance(
        np.zeros((3, 2)), tiny_prior, tiny_scenario.noise_power)
    assert np.allclose(cov, tiny_scenario.noise_power * np.eye(6), atol=1e-14)


def test_received_covariance_monte_carlo(tiny_scenario, tiny_prior):
    # empirical covariance of simulated snapshots must match the formula
    rng = np.random.default_rng(20)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    lift = model.lift_waveform(x, 2)
    n = 200_000
    h = model.sample_target(tiny_prior, rng, size=n)
    y = lift @ h + model.sample_noise(6, tiny_scenario.noise_power, rng, size=n)
    centered = y - (lift @ tiny_prior.h_d)[:, None]
    emp = centered @ centered.conj().T / n
    cov = detection.received_covariance(x, tiny_prior, tiny_scenario.noise_power)
    err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert err < 0.02, f"covariance relative error {err:.4f}"


def test_relative_entropy_scalar_oracle(scalar_scenario):
    # 1x1 arrays, R_H = h_d = sigma2 = 1: D = log(1 + |x|^2)
    prior = model.build_prior(scalar_scenario)
    assert detection.relative_entropy(
        np.array([[1.0 + 0j]]), prior, 1.0) == pytest.approx(LOG2, abs=1e-12)
    assert detection.relative_entropy(
        np.array([[np.sqrt(15) + 0j]]), prior, 1.0) == pytest.approx(
            LOG16, abs=1e-12)


def test_relative_entropy_zero_design(tiny_scenario, tiny_prior):
    d = detection.relative_entropy(
        np.zeros((3, 2)), tiny_prior, tiny_scenario.noise_power)
    assert abs(d) < 1e-12


def test_relative_entropy_nonnegative(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
        d = detection.relative_entropy(x, tiny_prior, tiny_scenario.noise_power)
        assert d >= -1e-10, f"relative entropy {d} negative"


def test_relative_entropy_phase_invariant(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(22)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    d0 = detection.relative_entropy(x, tiny_prior, tiny_scenario.noise_power)
    for phase in (0.3, 1.7, -2.4):
        d = detection.relative_entropy(
            np.exp(1j * phase) * x, tiny_prior, tiny_scenario.noise_power)
        assert d == pytest.approx(d0, abs=1e-10)


# the scene fixtures are read-only, so sharing them across examples is safe
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), energy=st.floats(0.01, 10.0))
def test_relative_entropy_left_unitary_invariant(tiny_scenario, tiny_prior,
                                                 seed, energy):
    # D depends on X only through X^* X, so any L x L unitary Q leaves it
    rng = np.random.default_rng(seed)
    x = random_waveform(rng, 3, 2, energy)
    q, _ = np.linalg.qr(random_complex(rng, (3, 3)))
    s2 = tiny_scenario.noise_power
    d0 = detection.relative_entropy(x, tiny_prior, s2)
    d = detection.relative_entropy(q @ x, tiny_prior, s2)
    assert d == pytest.approx(d0, rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 12),
       rank=st.integers(0, 4), energy=st.floats(0.01, 10.0))
def test_relative_entropy_matches_explicit_divergence(desk_prior, seed, length,
                                                      rank, energy):
    # the triangular-factor evaluation against the full snapshot covariance,
    # for codes shorter than the array and rank-deficient (down to zero) X
    rng = np.random.default_rng(seed)
    rank = min(rank, length)
    x = random_complex(rng, (length, rank)) @ random_complex(rng, (rank, 4))
    if rank:
        x *= np.sqrt(energy / model.waveform_energy(x))
    d = detection.relative_entropy(x, desk_prior, 1.0)
    expected = oracles.explicit_divergence(x, desk_prior, 1.0)
    assert d == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_statistic_hand_case():
    # dim-1 detector with R1 = 2, sigma2 = 1, mean shift 1, y = 2:
    # stat = |y|^2 (1 - 1/2) + 2 * (1/2) * Re(conj(y) * 1) = 2 + 2 = 4
    prior = model.TargetPrior(h_d=np.array([1.0 + 0j]),
                              r_h=np.array([[1.0 + 0j]]))
    spec = detection.build_detector(np.array([[1.0 + 0j]]), prior, 1.0)
    assert detection.np_statistic(np.array([2.0 + 0j]), spec) == pytest.approx(4.0)


def test_statistic_matches_llr_ordering(tiny_scenario, tiny_prior):
    # the statistic must rank snapshots exactly like the exact Gaussian
    # log-likelihood ratio (it is a monotone transform of it)
    rng = np.random.default_rng(23)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    s2 = tiny_scenario.noise_power
    spec = detection.build_detector(x, tiny_prior, s2)
    cov = detection.received_covariance(x, tiny_prior, s2)
    mu = model.lift_waveform(x, 2) @ tiny_prior.h_d
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)

    ys = random_complex(rng, (6, 200), scale=1.5)
    stats = np.array([detection.np_statistic(ys[:, i], spec) for i in range(200)])
    llr = np.empty(200)
    for i in range(200):
        y = ys[:, i]
        llr[i] = np.real(
            -(y - mu).conj() @ inv @ (y - mu) + y.conj() @ y / s2
        ) - logdet + 6 * np.log(s2)
    # identical ordering
    assert np.array_equal(np.argsort(stats), np.argsort(llr))
    # and affinely related with positive slope (scale by sigma2)
    fit = np.polyfit(llr, stats, 1)
    assert fit[0] > 0
    assert np.allclose(np.polyval(fit, llr), stats, atol=1e-8)


def test_empirical_quantile_worked_example():
    assert detection.empirical_quantile(
        np.array([1.0, 2.0, 3.0, 4.0]), 0.25) == 3.0


def test_empirical_quantile_extremes():
    s = np.arange(1.0, 11.0)
    assert detection.empirical_quantile(s, 0.999) == 1.0
    assert detection.empirical_quantile(s, 1e-9) == 10.0


def test_calibrate_requires_enough_trials(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(24)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    spec = detection.build_detector(x, tiny_prior, tiny_scenario.noise_power)
    with pytest.raises(InsufficientTrialsError):
        detection.calibrate_threshold(spec, 1e-3, 5000, rng)
    with pytest.raises(ValueError):
        detection.calibrate_threshold(spec, 0.0, 5000, rng)


def test_threshold_controls_false_alarms(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(25)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    s2 = tiny_scenario.noise_power
    spec = detection.build_detector(x, tiny_prior, s2)
    gamma = detection.calibrate_threshold(
        spec, 0.01, 50_000, np.random.default_rng(100))
    # fresh noise: exceedance rate should sit near 1%
    noise = model.sample_noise(6, s2, np.random.default_rng(101), size=50_000)
    stats = detection._statistics(noise, spec)
    rate = np.mean(stats > gamma)
    assert 0.006 < rate < 0.014, f"empirical Pfa {rate}"


def test_detection_probability_requires_threshold(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(26)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    spec = detection.build_detector(x, tiny_prior, tiny_scenario.noise_power)
    with pytest.raises(ThresholdMissingError):
        detection.detection_probability(spec, tiny_prior.h_d, 1000, rng)


def test_detection_probability_extremes(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(27)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    spec = detection.build_detector(x, tiny_prior, tiny_scenario.noise_power)
    low = spec.with_threshold(-1e9)
    assert detection.detection_probability(low, tiny_prior.h_d, 500, rng) == 1.0
    high = spec.with_threshold(1e9)
    assert detection.detection_probability(high, tiny_prior.h_d, 500, rng) == 0.0


def test_detection_probability_beats_pfa_on_target(tiny_scenario, tiny_prior):
    # strong deterministic target: Pd must sit far above the false-alarm rate
    rng = np.random.default_rng(28)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    s2 = tiny_scenario.noise_power
    spec = detection.build_detector(x, tiny_prior, s2)
    gamma = detection.calibrate_threshold(
        spec, 0.01, 50_000, np.random.default_rng(102))
    spec = spec.with_threshold(gamma)
    pd = detection.detection_probability(
        spec, 4.0 * tiny_prior.h_d, 20_000, np.random.default_rng(103))
    assert pd > 0.5, f"Pd {pd} too small for a strong target"


def test_detection_probability_accepts_callable(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(29)
    x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    spec = detection.build_detector(x, tiny_prior, tiny_scenario.noise_power)
    spec = spec.with_threshold(0.0)
    calls = []

    def draw(gen, n):
        calls.append(n)
        return model.sample_target(tiny_prior, gen, size=n)

    pd = detection.detection_probability(
        spec, draw, 30_000, np.random.default_rng(104))
    assert sum(calls) == 30_000
    assert 0.0 < pd <= 1.0
