"""Slow, explicit reference routes for cross-checking the library.

The library reaches two of its quantities by closed forms and index
contractions. The routes here rebuild them the long way, so the tests can
compare the two:

- the log det lower bound, from the full bordered matrix and its inverse
  instead of the Schur-complement closed form;
- the reduction of the surrogate onto vec(X), through the 0/1 replication
  matrix and an explicit Kronecker sandwich instead of an einsum;
- the divergence, from the explicitly built snapshot covariance instead of
  the triangular factor of the design;
- the MM ascent, with every iterate a full L x n_t design instead of its
  n_t-column triangular factor.
"""

import numpy as np

from mimowave import detection, linalg, mm, model
from mimowave.errors import AscentError


def selection_matrix(n_t, n_r, l):
    """0/1 matrix B with vec(I_{n_r} x X) = B vec(X) for every l-by-n_t X.

    Shape is (l * n_t * n_r**2, l * n_t). Each column marks the n_r
    positions where one waveform entry reappears in the block-replicated
    matrix; each row holds at most one 1.
    """
    if n_t < 1 or n_r < 1 or l < 1:
        raise ValueError("all dimensions must be >= 1")
    b = np.zeros((l * n_t * n_r * n_r, l * n_t))
    c, t, r = np.meshgrid(np.arange(n_r), np.arange(n_t), np.arange(l), indexing="ij")
    # entry X[r, t] sits at row c*l + r, column c*n_t + t of I x X, and
    # column-major stacking sends that to (c*n_t + t) * (n_r*l) + (c*l + r)
    rows = (c * n_t + t) * (n_r * l) + (c * l + r)
    cols = t * l + r
    b[rows.ravel(), cols.ravel()] = 1.0
    return b


def block_logdet_minorizer(x_k, prior, sigma2):
    """(t12, t22, c1) of the log det R1 bound by inverting the bordered matrix.

    The bordered matrix is [[I, V^*], [V, R1]] with V = (I ⊗ X_k) R_H^{1/2};
    the curvature is minus its inverse pinned to the leading block.
    """
    x_k = np.asarray(x_k, dtype=complex)
    lift = model.lift_waveform(x_k, prior.dim // x_k.shape[1])
    v_mat = lift @ linalg.psd_sqrt(prior.r_h)
    r1 = detection.received_covariance(x_k, prior, sigma2)
    dim_h, dim_y = prior.dim, r1.shape[0]
    bordered = np.zeros((dim_h + dim_y, dim_h + dim_y), dtype=complex)
    bordered[:dim_h, :dim_h] = np.eye(dim_h)
    bordered[:dim_h, dim_h:] = v_mat.conj().T
    bordered[dim_h:, :dim_h] = v_mat
    bordered[dim_h:, dim_h:] = r1
    inv = np.linalg.inv(bordered)
    pin = inv[:, :dim_h]  # C^{-1} E^T with E = [I 0]
    core = np.linalg.inv(inv[:dim_h, :dim_h])
    t_full = -pin @ core @ pin.conj().T
    t12 = t_full[:dim_h, dim_h:]
    t22 = t_full[dim_h:, dim_h:]
    t22 = (t22 + t22.conj().T) / 2.0
    touch = (2.0 * np.real(np.trace(v_mat @ t12))
             + np.real(np.trace(t22 @ (v_mat @ v_mat.conj().T))))
    c1 = np.linalg.slogdet(r1)[1] - touch
    return t12, t22, float(c1)


def selection_assembly(coeffs, prior):
    """(m_mat, m_vec) of the surrogate on vec(X) via the explicit sandwich.

    With B the selection matrix, the quadratic is B^T (conj(R_H) ⊗ Q) B and
    the linear term B^T vec(P).
    """
    sel = selection_matrix(coeffs.n_tx, coeffs.n_rx, coeffs.code_length)
    q = coeffs.t22 - coeffs.z - coeffs.sigma2 * coeffs.inv_sq
    p = coeffs.t12.conj().T @ linalg.psd_sqrt(prior.r_h) + coeffs.w
    m_mat = sel.T @ np.kron(prior.r_h.conj(), q) @ sel
    m_mat = (m_mat + m_mat.conj().T) / 2.0
    return m_mat, sel.T @ linalg.vec(p)


def explicit_divergence(x, prior, sigma2):
    """D(X) = log det R1 + tr(R1^{-1}(mu mu^* + sigma^2 I)) - dim(1 + log sigma^2).

    Built with ``np.kron``, ``slogdet`` and ``solve`` on the full
    L n_r-dimensional snapshot covariance.
    """
    x = np.asarray(x, dtype=complex)
    lift = np.kron(np.eye(prior.dim // x.shape[1]), x)
    dim = lift.shape[0]
    r1 = lift @ prior.r_h @ lift.conj().T + sigma2 * np.eye(dim)
    mu = lift @ prior.h_d
    _, logdet = np.linalg.slogdet(r1)
    rhs = np.outer(mu, mu.conj()) + sigma2 * np.eye(dim)
    trace = np.real(np.trace(np.linalg.solve(r1, rhs)))
    return float(logdet + trace - dim * (1.0 + np.log(sigma2)))


def full_space_optimize(scenario, prior, config=None, x0=None):
    """The MM ascent with every iterate a full L x n_t design.

    Same stopping rule and ascent check as :func:`mimowave.mm.optimize`,
    but each expansion, surrogate and trust-region subproblem has the
    code length L in its dimensions.
    """
    if config is None:
        config = mm.MMConfig(sigma2=scenario.noise_power)
    l, n_t = scenario.code_length, scenario.n_tx
    if x0 is None:
        x = mm.random_init(scenario, np.random.default_rng(scenario.seed))
    else:
        x = np.asarray(x0, dtype=complex)

    expansion = detection.Expansion(x, prior, config.sigma2)
    objective = expansion.objective
    iterates = [mm.MMIterate(objective=objective, multiplier=0.0,
                             energy=model.waveform_energy(x))]
    converged = False
    used = 0
    for _ in range(config.max_iterations):
        coeffs = mm.surrogate_coefficients(x, prior, config.sigma2,
                                           expansion=expansion)
        m_mat, m_vec = mm.assemble_quadratic(coeffs, prior)
        x_vec, nu = mm.trs_solve(m_mat, m_vec, scenario.energy_budget,
                                 tol=config.trs_tolerance)
        x = linalg.unvec(x_vec, l, n_t)
        used += 1
        expansion = detection.Expansion(x, prior, config.sigma2)
        new_objective = expansion.objective
        slack = mm.ASCENT_SLACK * max(1.0, abs(new_objective))
        if new_objective < objective - slack:
            raise AscentError(used, objective, new_objective)
        iterates.append(mm.MMIterate(objective=new_objective, multiplier=nu,
                                     energy=model.waveform_energy(x)))
        change = abs(new_objective - objective)
        if change / max(abs(new_objective), 1e-300) < config.epsilon:
            converged = True
            break
        objective = new_objective
    return mm.MMTrace(iterates=tuple(iterates), converged=converged,
                      iterations_used=used, waveform=x)
