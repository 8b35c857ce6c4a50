from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimowave import detection, linalg, mm, model
from mimowave.errors import AscentError, ZeroResponseError

import oracles
from conftest import random_complex, random_hermitian, random_waveform


@pytest.fixture
def tiny_prior(tiny_scenario):
    return model.build_prior(tiny_scenario)


# ---------------------------------------------------------------- nominal

def test_nominal_design_oracle():
    # H = diag(2, 1), L = 1, P = 1: all energy on the top left-singular
    # direction gives tr(X H H' X') = 4
    h = np.diag([2.0, 1.0]).astype(complex)
    x = mm.nominal_design(h, 1.0, 1)
    val = np.real(np.trace(x @ h @ h.conj().T @ x.conj().T))
    assert val == pytest.approx(4.0, abs=1e-12)
    assert model.waveform_energy(x) == pytest.approx(1.0, abs=1e-14)


def test_nominal_design_energy_and_rank():
    rng = np.random.default_rng(30)
    h = random_complex(rng, (4, 3))
    x = mm.nominal_design(h, 2.5, 6)
    assert model.waveform_energy(x) == pytest.approx(2.5, abs=1e-12)
    assert np.linalg.matrix_rank(x, tol=1e-10) == 1
    assert np.allclose(np.abs(x[:, 0]), np.abs(x[0, 0]), atol=1e-12)


def test_nominal_design_maximizes_received_energy():
    # no other same-energy design collects more energy from the channel
    rng = np.random.default_rng(31)
    h = random_complex(rng, (3, 4))
    x_opt = mm.nominal_design(h, 1.7, 5)
    best = np.real(np.trace(x_opt @ h @ h.conj().T @ x_opt.conj().T))
    for _ in range(200):
        x = random_waveform(rng, 5, 3, 1.7)
        val = np.real(np.trace(x @ h @ h.conj().T @ x.conj().T))
        assert val <= best + 1e-9


def test_nominal_design_rejects_zero_channel():
    with pytest.raises(ZeroResponseError):
        mm.nominal_design(np.zeros((2, 2)), 1.0, 4)


# ------------------------------------------------------------- minorizers

def test_minorizer_tangency(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(32)
    s2 = tiny_scenario.noise_power
    for _ in range(4):
        x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
        coeffs = mm.surrogate_coefficients(x_k, tiny_prior, s2)
        f = mm.objective_terms(x_k, tiny_prior, s2)
        g = mm.minorizer_values(coeffs, x_k, tiny_prior)
        for fi, gi in zip(f, g):
            assert gi == pytest.approx(fi, abs=1e-10)


def test_minorizer_domination(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(33)
    s2 = tiny_scenario.noise_power
    for _ in range(3):
        x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
        coeffs = mm.surrogate_coefficients(x_k, tiny_prior, s2)
        for _ in range(40):
            x = random_waveform(rng, 3, 2,
                                tiny_scenario.energy_budget * rng.uniform(0.1, 1))
            f = mm.objective_terms(x, tiny_prior, s2)
            g = mm.minorizer_values(coeffs, x, tiny_prior)
            for fi, gi in zip(f, g):
                assert gi <= fi + 1e-9, f"bound {gi} above target {fi}"


def test_logdet_routes_agree(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(34)
    s2 = tiny_scenario.noise_power
    x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    t12_s, t22_s, c1_s = mm.logdet_minorizer(
        detection.Expansion(x_k, tiny_prior, s2))
    t12_b, t22_b, c1_b = oracles.block_logdet_minorizer(x_k, tiny_prior, s2)
    assert np.allclose(t12_s, t12_b, atol=1e-10)
    assert np.allclose(t22_s, t22_b, atol=1e-10)
    assert c1_s == pytest.approx(c1_b, abs=1e-10)


def test_minorizers_at_zero_expansion(tiny_scenario, tiny_prior):
    # at X_k = 0 the bounds collapse to known closed forms
    s2 = tiny_scenario.noise_power
    expansion = detection.Expansion(np.zeros((3, 2)), tiny_prior, s2)
    t12, t22, c1 = mm.logdet_minorizer(expansion)
    assert np.allclose(t12, 0.0, atol=1e-14)
    assert np.allclose(t22, 0.0, atol=1e-14)
    dim = 6
    assert c1 == pytest.approx(dim * np.log(s2), abs=1e-12)
    inv_sq, c3 = mm.trace_inverse_minorizer(expansion)
    assert c3 == pytest.approx(dim / s2, abs=1e-12)
    assert np.allclose(inv_sq, np.eye(dim) / s2**2, atol=1e-14)


# --------------------------------------------------------------- assembly

def test_assembly_identity(tiny_scenario, tiny_prior):
    # x' M x + 2 Re(x' m) must equal the constant-free surrogate exactly
    rng = np.random.default_rng(35)
    s2 = tiny_scenario.noise_power
    x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    coeffs = mm.surrogate_coefficients(x_k, tiny_prior, s2)
    m_mat, m_vec = mm.assemble_quadratic(coeffs, tiny_prior)
    for _ in range(25):
        x = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
        xv = linalg.vec(x)
        quad = float(np.real(xv.conj() @ m_mat @ xv)
                     + 2.0 * np.real(xv.conj() @ m_vec))
        g1, g2, g3 = mm.minorizer_values(coeffs, x, tiny_prior)
        direct = (g1 - coeffs.c1) + (g2 - coeffs.c2) + s2 * (g3 - coeffs.c3)
        assert quad == pytest.approx(direct, abs=1e-10)


def test_assembly_routes_agree(tiny_scenario, tiny_prior):
    rng = np.random.default_rng(36)
    s2 = tiny_scenario.noise_power
    x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget)
    coeffs = mm.surrogate_coefficients(x_k, tiny_prior, s2)
    m_a, v_a = mm.assemble_quadratic(coeffs, tiny_prior)
    m_b, v_b = oracles.selection_assembly(coeffs, tiny_prior)
    assert np.allclose(m_a, m_b, atol=1e-12)
    assert np.allclose(v_a, v_b, atol=1e-12)


def test_surrogate_gradient_matches_objective(tiny_scenario, tiny_prior):
    # tangency + domination force matching first derivatives at X_k;
    # check the surrogate gradient against finite differences of the
    # actual objective
    rng = np.random.default_rng(37)
    s2 = tiny_scenario.noise_power
    x_k = random_waveform(rng, 3, 2, tiny_scenario.energy_budget * 0.7)
    coeffs = mm.surrogate_coefficients(x_k, tiny_prior, s2)
    m_mat, m_vec = mm.assemble_quadratic(coeffs, tiny_prior)
    g = m_mat @ linalg.vec(x_k) + m_vec
    step = 1e-6

    def d_of(x):
        return detection.relative_entropy(x, tiny_prior, s2)

    for idx in range(6):
        e = np.zeros(6, dtype=complex)
        e[idx] = 1.0
        de = linalg.unvec(e, 3, 2)
        fd_re = (d_of(x_k + step * de) - d_of(x_k - step * de)) / (2 * step)
        fd_im = (d_of(x_k + 1j * step * de) - d_of(x_k - 1j * step * de)) / (2 * step)
        assert fd_re == pytest.approx(2.0 * np.real(g[idx]), rel=1e-5, abs=1e-7)
        assert fd_im == pytest.approx(2.0 * np.imag(g[idx]), rel=1e-5, abs=1e-7)


# -------------------------------------------------------------------- TRS

def test_trs_interior_case():
    x, nu = mm.trs_solve(-np.eye(2), np.array([1.0, 0.0]), 4.0)
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert nu == 0.0


def test_trs_boundary_case():
    x, nu = mm.trs_solve(np.zeros((2, 2)), np.array([1.0, 0.0]), 4.0)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)
    assert nu == pytest.approx(-0.5, abs=1e-9)


def test_trs_hard_case():
    x, nu = mm.trs_solve(np.diag([1.0, -1.0]).astype(complex), np.zeros(2), 4.0)
    obj = np.real(x.conj() @ np.diag([1.0, -1.0]) @ x)
    assert obj == pytest.approx(4.0, abs=1e-10)
    assert nu == pytest.approx(-1.0, abs=1e-12)
    assert np.real(np.vdot(x, x)) == pytest.approx(4.0, abs=1e-12)


def test_trs_stationarity_and_feasibility():
    # returned point satisfies (M + nu I) x = -m and the energy bound
    rng = np.random.default_rng(38)
    for _ in range(25):
        n = rng.integers(2, 7)
        m_mat = random_hermitian(rng, int(n))
        m_vec = random_complex(rng, (int(n),))
        p_t = float(rng.uniform(0.5, 4.0))
        x, nu = mm.trs_solve(m_mat, m_vec, p_t)
        assert nu <= 0.0
        assert np.real(np.vdot(x, x)) <= p_t * (1 + 1e-9)
        resid = (m_mat + nu * np.eye(int(n))) @ x + m_vec
        assert np.linalg.norm(resid) < 1e-7 * max(
            1.0, np.linalg.norm(m_vec)), f"stationarity residual {resid}"
        if nu != 0.0:
            assert abs(np.real(np.vdot(x, x)) - p_t) <= 1e-8 * p_t


def test_trs_beats_random_sampling():
    rng = np.random.default_rng(39)
    for _ in range(5):
        n = 4
        m_mat = random_hermitian(rng, n)
        m_vec = random_complex(rng, (n,))
        p_t = 2.0
        x, _ = mm.trs_solve(m_mat, m_vec, p_t)
        best = float(np.real(x.conj() @ m_mat @ x)
                     + 2 * np.real(x.conj() @ m_vec))
        samples = random_complex(rng, (n, 20_000))
        samples /= np.linalg.norm(samples, axis=0)
        samples *= np.sqrt(p_t) * rng.uniform(0, 1, 20_000) ** (1 / (2 * n))
        vals = (np.real(np.einsum("ij,ij->j", samples.conj(), m_mat @ samples))
                + 2 * np.real(samples.conj().T @ m_vec))
        assert best >= vals.max() - 1e-9


def test_trs_secular_scan_agreement():
    # independent check of the multiplier: two-stage dense scan of the
    # secular equation ||(mu I - M)^{-1} m||^2 = P_t on a bracketing grid
    rng = np.random.default_rng(40)
    m_mat = random_hermitian(rng, 5)
    m_vec = random_complex(rng, (5,))
    p_t = 1.0
    x, nu = mm.trs_solve(m_mat, m_vec, p_t)
    assert nu < 0.0
    w, u = np.linalg.eigh(m_mat)
    b2 = np.abs(u.conj().T @ m_vec) ** 2

    def scan(lo, hi):
        mus = np.linspace(lo, hi, 200_000)
        phi = (b2[None, :] / (mus[:, None] - w[None, :]) ** 2).sum(axis=1)
        return mus[np.argmin(np.abs(phi - p_t))], (hi - lo) / 199_999

    best, step = scan(max(w[-1], 0) + 1e-9, max(w[-1], 0) + 20.0)
    best, step = scan(best - 2 * step, best + 2 * step)
    assert -nu == pytest.approx(best, abs=1e-6)
    x_scan = u @ ((u.conj().T @ m_vec) / (best - w))
    obj_scan = float(np.real(x_scan.conj() @ m_mat @ x_scan)
                     + 2 * np.real(x_scan.conj() @ m_vec))
    obj = float(np.real(x.conj() @ m_mat @ x) + 2 * np.real(x.conj() @ m_vec))
    assert obj == pytest.approx(obj_scan, abs=1e-6)


def test_trs_zero_linear_zero_matrix():
    # fully degenerate instance: any boundary point is optimal
    x, nu = mm.trs_solve(np.zeros((3, 3)), np.zeros(3), 2.0)
    assert np.real(np.vdot(x, x)) == pytest.approx(2.0, abs=1e-12)
    assert nu == pytest.approx(0.0, abs=1e-9)


def test_trs_rejects_bad_budget():
    for p_t in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            mm.trs_solve(np.eye(2), np.ones(2), p_t)


# ---------------------------------------------------------------- ascent

def test_optimize_scalar_reaches_global_optimum(scalar_scenario):
    # objective is log(1 + |x|^2): maximum at the energy boundary
    prior = model.build_prior(scalar_scenario)
    trace = mm.optimize(scalar_scenario, prior,
                        config=mm.MMConfig(epsilon=1e-12, sigma2=1.0))
    assert trace.converged
    assert trace.objective == pytest.approx(np.log(2.0), abs=1e-9)
    assert abs(trace.waveform[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_optimize_monotone_and_feasible(tiny_scenario, tiny_prior):
    trace = mm.optimize(tiny_scenario, tiny_prior)
    objs = trace.objectives()
    assert np.all(np.diff(objs) >= -1e-9 * np.maximum(1.0, np.abs(objs[1:])))
    for it in trace.iterates:
        assert it.energy <= tiny_scenario.energy_budget * (1 + 1e-9)
    assert trace.converged
    assert trace.iterations_used <= 500


def test_optimize_improves_on_start(tiny_scenario, tiny_prior):
    x0 = mm.random_init(tiny_scenario, np.random.default_rng(41))
    trace = mm.optimize(tiny_scenario, tiny_prior, x0=x0)
    assert trace.objective > trace.iterates[0].objective


def test_optimize_factors_once_per_iterate(tiny_scenario, monkeypatch):
    # one Cholesky factor of R1 per accepted iterate, the start included,
    # and one R_H^{1/2} per prior
    calls = {"hpd_factor": 0, "psd_sqrt": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (linalg, model, detection, mm):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    prior = model.build_prior(tiny_scenario)
    trace = mm.optimize(tiny_scenario, prior)
    assert trace.iterations_used >= 2
    assert calls["hpd_factor"] == trace.iterations_used + 1
    assert calls["psd_sqrt"] == 1


def test_optimize_raises_typed_ascent_error(tiny_scenario, tiny_prior,
                                            monkeypatch):
    # a subproblem "solution" at the zero design drops the objective to 0
    monkeypatch.setattr(mm, "trs_solve",
                        lambda m_mat, m_vec, p_t, tol: (np.zeros_like(m_vec), 0.0))
    x0 = mm.random_init(tiny_scenario, np.random.default_rng(42))
    start = detection.relative_entropy(x0, tiny_prior, tiny_scenario.noise_power)
    with pytest.raises(AscentError) as info:
        mm.optimize(tiny_scenario, tiny_prior, x0=x0)
    assert info.value.iteration == 1
    assert info.value.previous == start
    assert info.value.current == pytest.approx(0.0, abs=1e-12)


def test_optimize_zero_start_is_fixed_point(tiny_scenario, tiny_prior):
    # the all-zero design zeroes every surrogate gradient, so the loop
    # stays put and reports convergence at objective zero
    trace = mm.optimize(tiny_scenario, tiny_prior,
                        x0=np.zeros((3, 2), dtype=complex))
    assert trace.objective == pytest.approx(0.0, abs=1e-9)


def test_optimize_rejects_bad_start(tiny_scenario, tiny_prior):
    with pytest.raises(ValueError):
        mm.optimize(tiny_scenario, tiny_prior, x0=np.zeros((2, 3), dtype=complex))
    hot = np.full((3, 2), 10.0, dtype=complex)
    with pytest.raises(ValueError):
        mm.optimize(tiny_scenario, tiny_prior, x0=hot)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        x0 = np.zeros((3, 2), dtype=complex)
        x0[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mm.optimize(tiny_scenario, tiny_prior, x0=x0)


def _rank_one_desk_start():
    scenario = model.desk_scenario(seed=3)
    h = model.response_matrix(
        [(scenario.nominal_amplitude, scenario.nominal_doa_deg)], scenario)
    return scenario, mm.nominal_design(h, scenario.energy_budget,
                                       scenario.code_length)


def _short_code_start():
    scenario = replace(model.default_scenario(seed=4), code_length=5)
    x0 = random_waveform(np.random.default_rng(5), 5, scenario.n_tx,
                         scenario.energy_budget)
    return scenario, x0


@pytest.mark.parametrize("make", [
    lambda: (model.default_scenario(seed=1), None),
    lambda: (model.default_scenario(seed=2), None),
    lambda: (model.default_scenario(seed=3), None),
    lambda: (replace(model.default_scenario(seed=7), code_length=64), None),
    _rank_one_desk_start,
    _short_code_start,
], ids=["default-1", "default-2", "default-3", "long-code", "rank-one-desk",
        "code-shorter-than-array"])
def test_optimize_matches_full_space_loop(make):
    # the ascent on the triangular factor retraces the full-length ascent
    scenario, x0 = make()
    prior = model.build_prior(scenario)
    reduced = mm.optimize(scenario, prior, x0=x0)
    full = oracles.full_space_optimize(scenario, prior, x0=x0)
    assert reduced.iterations_used == full.iterations_used
    assert reduced.converged == full.converged
    assert reduced.objective == pytest.approx(full.objective, rel=1e-12)
    assert reduced.waveform.shape == full.waveform.shape
    assert np.linalg.norm(reduced.waveform - full.waveform) <= (
        1e-9 * np.linalg.norm(full.waveform))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(0, 4),
       energy=st.floats(0.01, 10.0))
def test_surrogate_maximizer_stays_in_span(desk_prior, seed, rank, energy):
    # the invariant the triangular-factor ascent rests on: the full-length
    # surrogate maximizer keeps its columns in the span of the iterate's
    scenario = model.desk_scenario(energy_budget=energy)
    l, n_t = scenario.code_length, scenario.n_tx
    rng = np.random.default_rng(seed)
    x_k = random_complex(rng, (l, rank)) @ random_complex(rng, (rank, n_t))
    if rank:
        x_k *= np.sqrt(energy * rng.uniform(0.05, 1.0)
                       / model.waveform_energy(x_k))
    coeffs = mm.surrogate_coefficients(x_k, desk_prior, scenario.noise_power)
    x_vec, _ = mm.trs_solve(*mm.assemble_quadratic(coeffs, desk_prior), energy)
    x_next = linalg.unvec(x_vec, l, n_t)
    u, sv, _ = np.linalg.svd(x_k)
    q = u[:, :int(np.sum(sv > 1e-10 * sv[0]))]
    outside = x_next - q @ (q.conj().T @ x_next)
    assert np.linalg.norm(outside) <= 1e-9 * np.linalg.norm(x_next)


def test_random_init_energy(tiny_scenario):
    x0 = mm.random_init(tiny_scenario, np.random.default_rng(43))
    assert model.waveform_energy(x0) == pytest.approx(
        tiny_scenario.energy_budget, abs=1e-12)
    assert np.allclose(np.abs(x0), np.abs(x0[0, 0]), atol=1e-12)


def test_mm_config_validation():
    bad = [{"epsilon": 0.0}, {"max_iterations": 0}, {"epsilon": np.nan},
           {"sigma2": np.nan}, {"trs_tolerance": np.inf}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            mm.MMConfig(**kwargs)
