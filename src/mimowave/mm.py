"""Waveform optimization by iterated quadratic lower bounds.

The design objective (relative entropy between the two detection
hypotheses) is not concave in the code matrix. Each of its three
X-dependent terms admits a tight quadratic lower bound at the current
iterate; their sum is a surrogate whose exact maximizer under the energy
ball is a trust-region subproblem in vec(X). Maximizing the surrogate and
re-expanding drives the objective monotonically upward.

Also here: the closed-form rank-one design that is optimal when the
target response is known exactly, used as the comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import Expansion
from .errors import AscentError, NoRootError, ZeroResponseError
from .linalg import herm_eig, unvec, vec
from .model import Scenario, TargetPrior, lift_waveform, waveform_energy

# multiplicative slack on the energy constraint and the ascent check
ENERGY_SLACK = 1e-9
ASCENT_SLACK = 1e-9


@dataclass(frozen=True)
class MMConfig:
    """Knobs for the ascent loop."""

    epsilon: float = 1e-4
    max_iterations: int = 500
    trs_tolerance: float = 1e-10
    sigma2: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "trs_tolerance", "sigma2"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iterations < 1:
            raise ValueError(
                f"need at least one iteration, got {self.max_iterations}")


@dataclass(frozen=True, slots=True)
class MMIterate:
    """Diagnostics of one accepted step: objective, multiplier and energy."""

    objective: float
    multiplier: float
    energy: float


@dataclass(frozen=True)
class MMTrace:
    """Ascent history, convergence outcome and the final L x n_t design."""

    iterates: tuple
    converged: bool
    iterations_used: int
    waveform: np.ndarray

    @property
    def objective(self) -> float:
        return self.iterates[-1].objective

    def objectives(self) -> np.ndarray:
        return np.array([it.objective for it in self.iterates])


def nominal_design(h_mat: np.ndarray, p_t: float, l: int) -> np.ndarray:
    """Best design when the channel matrix is known exactly.

    Rank one: constant modulus across the code dimension, all energy on
    the dominant left singular direction of the channel. Energy is exactly
    ``p_t``.
    """
    h_mat = np.asarray(h_mat, dtype=complex)
    if not np.any(h_mat):
        raise ZeroResponseError("channel matrix is identically zero")
    gram = h_mat @ h_mat.conj().T
    eig = herm_eig(gram)
    v = eig.eigenvectors[:, -1]
    u = np.ones(l, dtype=complex) / np.sqrt(l)
    return np.sqrt(p_t) * np.outer(u, v.conj())


def objective_terms(x, prior: TargetPrior, sigma2: float):
    """The three X-dependent pieces of the objective, separately.

    Returns (log det R1, mean-shift quadratic, tr(R1^{-1})). The full
    objective is the first two plus sigma2 times the third, minus the
    X-independent constant dim (1 + log sigma2).
    """
    return Expansion(x, prior, sigma2).terms()


def logdet_minorizer(expansion: Expansion):
    """Quadratic lower bound on log det R1, tight at X_k = expansion.x.

    Returns (t12, t22, c1) so that the bound evaluates as
    c1 + 2 Re tr((I ⊗ X) R_H^{1/2} t12) + tr(t22 (I ⊗ X) R_H (I ⊗ X)^*).
    """
    sigma2 = expansion.sigma2
    v_mat = expansion.lift @ expansion.prior.root
    # Schur complement of R1 in the bordered matrix [[I, V^*], [V, R1]] is
    # exactly I - V^* R1^{-1} V, whose inverse collapses to I + V^* V / sigma2
    g = np.eye(expansion.prior.dim) + (v_mat.conj().T @ v_mat) / sigma2
    g = (g + g.conj().T) / 2.0
    u_mat = expansion.factor.solve(v_mat)
    t12 = g @ u_mat.conj().T
    t22 = -u_mat @ g @ u_mat.conj().T
    t22 = (t22 + t22.conj().T) / 2.0

    # pin the constant so the bound touches the objective at x_k
    touch = (2.0 * np.real(np.trace(v_mat @ t12))
             + np.real(np.trace(t22 @ (v_mat @ v_mat.conj().T))))
    c1 = expansion.factor.log_det() - touch
    return t12, t22, float(c1)


def mean_shift_minorizer(expansion: Expansion):
    """Quadratic lower bound on the mean-shift term, tight at X_k = expansion.x.

    Returns (w, z, c2) for the bound
    c2 - tr(z (I ⊗ X) R_H (I ⊗ X)^*) + 2 Re tr((I ⊗ X)^* w).
    """
    u = expansion.whitened_shift
    w = np.outer(u, expansion.prior.h_d.conj())
    z = np.outer(u, u.conj())
    c2 = -expansion.sigma2 * float(np.real(np.vdot(u, u)))
    return w, z, c2


def trace_inverse_minorizer(expansion: Expansion):
    """Quadratic lower bound on tr(R1^{-1}), tight at X_k = expansion.x.

    Returns (inv_sq, c3) for the bound
    c3 - tr(inv_sq (I ⊗ X) R_H (I ⊗ X)^*), with inv_sq = R1_k^{-2}.
    """
    inv = expansion.inv
    inv_sq = inv @ inv
    inv_sq = (inv_sq + inv_sq.conj().T) / 2.0
    # tangency: c3 = tr(R1^{-1}) + tr(R1^{-2} (R1 - sigma2 I))
    c3 = float(2.0 * np.real(np.trace(inv))
               - expansion.sigma2 * np.real(np.trace(inv_sq)))
    return inv_sq, c3


@dataclass(frozen=True)
class SurrogateCoefficients:
    """Everything needed to evaluate and maximize one surrogate."""

    t12: np.ndarray
    t22: np.ndarray
    w: np.ndarray
    z: np.ndarray
    inv_sq: np.ndarray
    c1: float
    c2: float
    c3: float
    sigma2: float
    code_length: int
    n_tx: int
    n_rx: int


def surrogate_coefficients(x_k, prior: TargetPrior, sigma2: float,
                           expansion: Expansion | None = None
                           ) -> SurrogateCoefficients:
    """All three lower bounds around one expansion point.

    ``expansion`` is the :class:`Expansion` of ``x_k`` when the caller
    already holds it; otherwise it is built here.
    """
    if expansion is None:
        expansion = Expansion(x_k, prior, sigma2)
    t12, t22, c1 = logdet_minorizer(expansion)
    w, z, c2 = mean_shift_minorizer(expansion)
    inv_sq, c3 = trace_inverse_minorizer(expansion)
    l, n_t = expansion.x.shape
    return SurrogateCoefficients(
        t12=t12, t22=t22, w=w, z=z, inv_sq=inv_sq, c1=c1, c2=c2, c3=c3,
        sigma2=expansion.sigma2, code_length=l, n_tx=n_t,
        n_rx=prior.dim // n_t)


def minorizer_values(coeffs: SurrogateCoefficients, x,
                     prior: TargetPrior):
    """Evaluate each of the three lower bounds at an arbitrary design."""
    x = np.asarray(x, dtype=complex)
    lift = lift_waveform(x, coeffs.n_rx)
    spread = lift @ prior.r_h @ lift.conj().T
    g1 = (coeffs.c1 + 2.0 * np.real(np.trace(lift @ prior.root @ coeffs.t12))
          + np.real(np.trace(coeffs.t22 @ spread)))
    g2 = (coeffs.c2 - np.real(np.trace(coeffs.z @ spread))
          + 2.0 * np.real(np.trace(lift.conj().T @ coeffs.w)))
    g3 = coeffs.c3 - np.real(np.trace(coeffs.inv_sq @ spread))
    return float(g1), float(g2), float(g3)


def assemble_quadratic(coeffs: SurrogateCoefficients, prior: TargetPrior):
    """Collapse the surrogate onto vec(X): returns (m_mat, m_vec).

    The surrogate minus its constants equals x^* m_mat x + 2 Re(x^* m_vec)
    with x = vec(X). The reduction contracts indices directly instead of
    forming the Kronecker sandwich with the 0/1 replication matrix.
    """
    l, n_t, n_r = coeffs.code_length, coeffs.n_tx, coeffs.n_rx
    q = coeffs.t22 - coeffs.z - coeffs.sigma2 * coeffs.inv_sq
    p = coeffs.t12.conj().T @ prior.root + coeffs.w

    # channel indices are receive-major (c*n_t + t) and snapshot indices
    # receive-block-major (c*l + r), so the reduced quadratic is
    # M[(t,r),(t',r')] = sum_{c,c'} conj(R_H[(c,t),(c',t')])
    # * Q[(c,r),(c',r')]; contract without materializing the kron.
    rh4 = prior.r_h.reshape(n_r, n_t, n_r, n_t)
    q4 = q.reshape(n_r, l, n_r, l)
    m4 = np.einsum("abcd,aecf->bedf", rh4.conj(), q4)
    m_mat = m4.reshape(n_t * l, n_t * l)
    blocks = np.zeros((l, n_t), dtype=complex)
    for c in range(n_r):
        blocks += p[c * l:(c + 1) * l, c * n_t:(c + 1) * n_t]
    m_mat = (m_mat + m_mat.conj().T) / 2.0
    return m_mat, vec(blocks)


def trs_solve(m_mat, m_vec, p_t: float, tol: float = 1e-10):
    """Maximize x^* M x + 2 Re(x^* m) over the energy ball ||x||^2 <= p_t.

    Returns (x, nu) where nu <= 0 is the constraint multiplier: the
    stationarity condition is (M + nu I) x = -m... equivalently, with
    mu = -nu >= 0, (mu I - M) x = m and mu(||x||^2 - p_t) = 0.

    Handles the interior case, the generic boundary case by a safeguarded
    scalar solve on the secular equation, and the degenerate case where
    the linear term is orthogonal to the top eigenspace.
    """
    m_mat = np.asarray(m_mat, dtype=complex)
    m_vec = np.asarray(m_vec, dtype=complex).reshape(-1)
    if not 0 < p_t < np.inf:
        raise ValueError(f"energy budget must be positive and finite, got {p_t}")
    eig = herm_eig(m_mat)
    lam = eig.eigenvalues
    u_mat = eig.eigenvectors
    lam_max = float(lam[-1])
    scale = max(float(np.max(np.abs(lam))), float(np.linalg.norm(m_vec)), 1.0)
    b = u_mat.conj().T @ m_vec

    # interior candidate exists only if M is negative definite
    if lam_max < 0:
        x_int = u_mat @ (b / -lam)
        if float(np.real(np.vdot(x_int, x_int))) <= p_t:
            return x_int, 0.0

    def radius_sq(mu: float) -> float:
        d = mu - lam
        return float(np.sum(np.abs(b) ** 2 / d**2))

    lo = max(lam_max, 0.0) + 1e-12 * scale
    hi = lam_max + float(np.linalg.norm(m_vec)) / np.sqrt(p_t) + 1.0

    if radius_sq(lo) < p_t:
        # hard case: the linear term cannot push the radius out to the
        # boundary at the critical multiplier, so pad along the top
        # eigenvector instead.
        mu = max(lam_max, 0.0)
        d = mu - lam
        keep = d > 1e-10 * scale
        coeff = np.zeros_like(b)
        coeff[keep] = b[keep] / d[keep]
        base = u_mat @ coeff
        base_sq = float(np.real(np.vdot(base, base)))
        if base_sq > p_t:  # only reachable through rounding; shrink back
            base *= np.sqrt(p_t / base_sq)
            base_sq = p_t
        pad = np.sqrt(max(p_t - base_sq, 0.0))
        return base + pad * u_mat[:, -1], -mu

    # secular equation in the form 1/sqrt(phi) - 1/sqrt(p_t) = 0: convex,
    # monotone, safe for Newton with a bisection fallback
    target = 1.0 / np.sqrt(p_t)
    a_br, b_br = lo, hi
    while radius_sq(b_br) > p_t:
        b_br = lam_max + 2.0 * (b_br - lam_max)
    mu = 0.5 * (a_br + b_br)
    for _ in range(200):
        phi = radius_sq(mu)
        if abs(phi - p_t) <= tol * p_t:
            d = mu - lam
            return u_mat @ (b / d), -mu
        w_val = 1.0 / np.sqrt(phi) - target
        if w_val > 0:  # phi < p_t: mu too large
            b_br = mu
        else:
            a_br = mu
        d = mu - lam
        dphi = -2.0 * float(np.sum(np.abs(b) ** 2 / d**3))
        dw = -0.5 * phi ** (-1.5) * dphi
        step = mu - w_val / dw if dw != 0 else None
        if step is None or not a_br < step < b_br:
            step = 0.5 * (a_br + b_br)
        mu = step
    raise NoRootError(
        f"secular equation did not settle within tolerance {tol}")


def random_init(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Random constant-modulus design using the full energy budget."""
    l, n_t = scenario.code_length, scenario.n_tx
    if l < n_t:
        raise ValueError(
            f"code length {l} shorter than transmit array {n_t}")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(l, n_t))
    return np.sqrt(scenario.energy_budget / (l * n_t)) * np.exp(1j * phases)


def optimize(scenario: Scenario, prior: TargetPrior,
             config: MMConfig | None = None,
             x0: np.ndarray | None = None) -> MMTrace:
    """Run the ascent from an initial design to convergence.

    Stops when the relative objective change drops below
    ``config.epsilon`` or after ``config.max_iterations`` surrogate
    maximizations. The all-zero design is a stationary point of every
    surrogate, so the default start is a seeded random full-energy design.

    The ascent runs on the k x n_t triangular factor C of the thin QR
    X_0 = Q C, k = min(L, n_t), and returns Q C. This is exact: the
    objective depends on X only through X^* X = C^* C, ||Q C||_F = ||C||_F,
    and every surrogate maximizer keeps its columns in the span of the
    current iterate (the surrogate is concave off that span and its linear
    term lies in it), so the full-length iterates never leave span(Q). Each
    iterate then costs the same whatever the code length L.
    """
    if config is None:
        config = MMConfig(sigma2=scenario.noise_power)
    l, n_t = scenario.code_length, scenario.n_tx
    if x0 is None:
        x = random_init(scenario, np.random.default_rng(scenario.seed))
    else:
        x = np.asarray(x0, dtype=complex)
        if x.shape != (l, n_t):
            raise ValueError(
                f"initial design must be {l}x{n_t}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("initial design has non-finite entries")
        if waveform_energy(x) > scenario.energy_budget * (1.0 + ENERGY_SLACK):
            raise ValueError("initial design exceeds the energy budget")

    q, c = np.linalg.qr(x)
    expansion = Expansion(c, prior, config.sigma2)
    objective = expansion.objective
    iterates = [MMIterate(objective=objective, multiplier=0.0,
                          energy=waveform_energy(c))]
    converged = False
    used = 0
    for _ in range(config.max_iterations):
        coeffs = surrogate_coefficients(c, prior, config.sigma2,
                                        expansion=expansion)
        m_mat, m_vec = assemble_quadratic(coeffs, prior)
        c_vec, nu = trs_solve(m_mat, m_vec, scenario.energy_budget,
                              tol=config.trs_tolerance)
        c = unvec(c_vec, *c.shape)
        used += 1
        # release this surrogate before the next factorization, which keeps
        # peak memory at one iterate's worth of surrogate matrices
        del coeffs, m_mat, expansion
        expansion = Expansion(c, prior, config.sigma2)
        new_objective = expansion.objective
        slack = ASCENT_SLACK * max(1.0, abs(new_objective))
        if new_objective < objective - slack:
            raise AscentError(used, objective, new_objective)
        iterates.append(MMIterate(objective=new_objective, multiplier=nu,
                                  energy=waveform_energy(c)))
        change = abs(new_objective - objective)
        if change / max(abs(new_objective), 1e-300) < config.epsilon:
            converged = True
            objective = new_objective
            break
        objective = new_objective
    return MMTrace(iterates=tuple(iterates), converged=converged,
                   iterations_used=used, waveform=q @ c)
