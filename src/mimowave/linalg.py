"""Dense complex linear algebra kernel.

Contract-checked wrappers around numpy/scipy primitives: Kronecker and
vectorization identities, Hermitian eigendecomposition, Cholesky-based
positive-definite factorization and the PSD matrix square root.
Everything works on 2-D complex128 arrays and returns fresh arrays;
inputs are never mutated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    NoConvergenceError,
    NonHermitianError,
    NotPositiveDefiniteError,
    NotPSDError,
)

# relative Frobenius tolerance below which a matrix counts as Hermitian
HERMITIAN_RTOL = 1e-8

# eigenvalues below -PSD_RTOL * ||A|| are treated as genuinely negative
PSD_RTOL = 1e-8


def kron(a, b):
    """Kronecker product A x B with the (a_ij * B) block layout."""
    return np.kron(np.asarray(a), np.asarray(b))


def vec(a):
    """Stack the columns of a matrix into one vector (column-major)."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Undo :func:`vec`: reshape a length rows*cols vector to a matrix."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape {v.size} entries into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


class HermitianEig(NamedTuple):
    """Eigendecomposition A = V diag(w) V* with w real and ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (A + A*)/2 before factorization. Inputs
    whose skew part exceeds ``HERMITIAN_RTOL`` relative to ||A||_F are
    rejected with :class:`NonHermitianError`.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {a.shape}")
    skew = np.linalg.norm(a - a.conj().T)
    if skew > HERMITIAN_RTOL * np.linalg.norm(a):
        raise NonHermitianError(
            f"skew part {skew:.3e} exceeds tolerance for shape {a.shape}")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return HermitianEig(w, v)


class HPDFactor:
    """Cholesky handle for a Hermitian positive definite matrix.

    Holds the factorization once so that repeated solves and the
    log-determinant are cheap. The input is symmetrized before
    factorization; a failed factorization raises
    :class:`NotPositiveDefiniteError`.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=complex)
        a = (a + a.conj().T) / 2.0
        try:
            self._factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        self.shape = a.shape

    def solve(self, b):
        """Return A^{-1} b for a vector or matrix right-hand side."""
        return scipy.linalg.cho_solve(
            self._factor, np.asarray(b, dtype=complex), check_finite=False)

    def log_det(self) -> float:
        """Real log-determinant, read off the Cholesky diagonal."""
        d = np.real(np.diag(self._factor[0]))
        return 2.0 * float(np.sum(np.log(d)))


def hpd_factor(a) -> HPDFactor:
    """Factor a Hermitian positive definite matrix for repeated solves."""
    return HPDFactor(a)


def psd_sqrt(a):
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-PSD_RTOL * ||A||, 0) are clamped to zero (rounding
    noise); anything more negative raises :class:`NotPSDError`.
    """
    eig = herm_eig(a)
    w = eig.eigenvalues
    scale = float(max(abs(w[0]), abs(w[-1])))
    if w[0] < -PSD_RTOL * scale:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} is negative beyond tolerance")
    root = (eig.eigenvectors * np.sqrt(np.clip(w, 0.0, None))) @ eig.eigenvectors.conj().T
    return (root + root.conj().T) / 2.0
