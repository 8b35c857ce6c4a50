"""Correctness checks on the benchmark's outputs, run outside the timed region.

The divergence is recomputed from the explicitly built snapshot covariance
(``np.kron``, ``slogdet``, ``solve``) rather than through any library
routine, so a faster objective that drifts is caught here.
"""

from __future__ import annotations

import csv
import io

import numpy as np

OBJECTIVE_RTOL = 1e-9
ENERGY_SLACK = 1e-9


def explicit_divergence(x, h_d, r_h, sigma2: float) -> float:
    """D(X) = log det R1 + tr(R1^{-1}(mu mu^* + sigma^2 I)) - dim(1 + log sigma^2)."""
    x = np.asarray(x, dtype=complex)
    lift = np.kron(np.eye(h_d.size // x.shape[1]), x)
    dim = lift.shape[0]
    r1 = lift @ r_h @ lift.conj().T + sigma2 * np.eye(dim)
    mu = lift @ h_d
    sign, logdet = np.linalg.slogdet(r1)
    if sign.real <= 0:
        return float("nan")
    rhs = np.outer(mu, mu.conj()) + sigma2 * np.eye(dim)
    trace = np.real(np.trace(np.linalg.solve(r1, rhs)))
    return float(logdet + trace - dim * (1.0 + np.log(sigma2)))


def _close(reported: float, x, prior, sigma2: float) -> bool:
    expected = explicit_divergence(x, prior.h_d, prior.r_h, sigma2)
    return abs(reported - expected) <= OBJECTIVE_RTOL * abs(expected)


def design_problems(scenario, prior, trace, baseline=None) -> list:
    """Everything wrong with one MM design (and optionally its baseline).

    ``baseline`` is a ``(waveform, reported D)`` pair. An empty list means
    the design passed.
    """
    sigma2 = scenario.noise_power
    problems = []
    if not _close(trace.objective, trace.waveform, prior, sigma2):
        problems.append("final objective disagrees with the explicit divergence")
    if not trace.converged:
        problems.append(f"no convergence after {trace.iterations_used} iterations")
    energy = float(np.real(np.vdot(trace.waveform, trace.waveform)))
    if energy > scenario.energy_budget * (1.0 + ENERGY_SLACK):
        problems.append(f"energy {energy!r} exceeds budget {scenario.energy_budget!r}")
    if baseline is not None and not _close(baseline[1], baseline[0], prior, sigma2):
        problems.append("baseline objective disagrees with the explicit divergence")
    return problems


def sweep_problems(exit_code: int, csv_bytes: bytes, reference: bytes) -> list:
    """Everything wrong with one pd_vs_nominal_doa sweep's outputs."""
    problems = []
    if exit_code != 0:
        problems.append(f"sweep exited with code {exit_code}")
    if csv_bytes != reference:
        problems.append("CSV bytes differ from the first sweep of this seed")
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("ascii"))))
    if not rows:
        problems.append("CSV has no rows")
    for row in rows:
        for column in ("pd_robust", "pd_nominal"):
            value = float(row[column])
            if not 0.0 <= value <= 1.0:
                problems.append(f"{column}={value!r} outside [0, 1]")
    return problems
