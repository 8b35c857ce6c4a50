import numpy as np
import pytest

from mimowave import linalg, model
from mimowave.errors import (
    NonHermitianError,
    NotPositiveDefiniteError,
    NotPSDError,
)

from conftest import random_complex, random_hermitian, random_psd
from oracles import selection_matrix


def test_vec_is_column_major():
    a = np.array([[1, 2], [3, 4], [5, 6]], dtype=complex)
    assert np.array_equal(linalg.vec(a), np.array([1, 3, 5, 2, 4, 6]))


def test_unvec_round_trip():
    rng = np.random.default_rng(0)
    a = random_complex(rng, (4, 3))
    assert np.array_equal(linalg.unvec(linalg.vec(a), 4, 3), a)


def test_unvec_rejects_bad_size():
    with pytest.raises(ValueError):
        linalg.unvec(np.zeros(5), 2, 3)


def test_vec_of_kron_identity():
    # vec(A X B) = (B^T kron A) vec(X), the workhorse identity everywhere
    rng = np.random.default_rng(1)
    a = random_complex(rng, (3, 4))
    x = random_complex(rng, (4, 2))
    b = random_complex(rng, (2, 5))
    lhs = linalg.vec(a @ x @ b)
    rhs = linalg.kron(b.T, a) @ linalg.vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_herm_eig_reconstructs():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 6)
    w, v = linalg.herm_eig(a)
    assert np.all(np.diff(w) >= 0), "eigenvalues must come back ascending"
    assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_herm_eig_rejects_skew_input():
    rng = np.random.default_rng(3)
    a = random_complex(rng, (4, 4))  # generic, far from Hermitian
    with pytest.raises(NonHermitianError):
        linalg.herm_eig(a)


def test_herm_eig_rejects_rectangular():
    with pytest.raises(NonHermitianError):
        linalg.herm_eig(np.zeros((2, 3)))


def test_hpd_factor_solve_and_logdet():
    rng = np.random.default_rng(4)
    a = random_psd(rng, 5) + 0.5 * np.eye(5)
    factor = linalg.hpd_factor(a)
    b = random_complex(rng, (5, 2))
    assert np.allclose(a @ factor.solve(b), b, atol=1e-10)
    sign, logdet = np.linalg.slogdet(a)
    assert sign.real == pytest.approx(1.0)
    assert factor.log_det() == pytest.approx(logdet.real, abs=1e-10)


def test_hpd_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.hpd_factor(np.diag([1.0, -1.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    a = random_psd(rng, 6)
    root = linalg.psd_sqrt(a)
    assert np.allclose(root, root.conj().T, atol=1e-12)
    assert np.allclose(root @ root, a, atol=1e-10)


def test_psd_sqrt_accepts_singular():
    v = np.array([1.0, 1j, 0.0])
    a = np.outer(v, v.conj())  # rank one
    root = linalg.psd_sqrt(a)
    assert np.allclose(root @ root, a, atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_selection_matrix_smallest_case():
    # n_t = 1, n_r = 2, l = 1: vec(I_2 kron x) = [x, 0, 0, x]^T
    b = selection_matrix(1, 2, 1)
    assert b.shape == (4, 1)
    assert np.array_equal(b[:, 0], np.array([1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("n_t,n_r,l", [(1, 1, 1), (2, 2, 3), (3, 2, 4), (2, 4, 2)])
def test_selection_matrix_defining_property(n_t, n_r, l):
    rng = np.random.default_rng(6)
    b = selection_matrix(n_t, n_r, l)
    assert b.shape == (l * n_t * n_r * n_r, l * n_t)
    for _ in range(3):
        x = random_complex(rng, (l, n_t))
        lifted = model.lift_waveform(x, n_r)
        assert np.allclose(linalg.vec(lifted), b @ linalg.vec(x), atol=1e-14)


def test_selection_matrix_columns_are_disjoint():
    b = selection_matrix(3, 2, 4)
    assert np.all(b.sum(axis=1) <= 1.0), "each row selects at most one entry"
    assert np.all(b.sum(axis=0) == 2.0), "each entry reappears once per block"
