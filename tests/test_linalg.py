"""Dense linear algebra kernel tests.

Oracles: scipy eigenvalues for spectral norms and hand-computed small
inverses.
"""

import numpy as np
import pytest
import scipy.linalg

from ncgru.errors import NumericError, ShapeError, SingularMatrixError
from ncgru.linalg import (
    ensure_finite,
    exact_inverse,
    fro_dist_identity,
    spectral_norm,
)


def test_exact_inverse_hand_2x2():
    # [[1, 2], [3, 4]] has determinant -2, inverse [[-2, 1], [1.5, -0.5]].
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    inv = exact_inverse(m)
    want = np.array([[-2.0, 1.0], [1.5, -0.5]])
    assert np.max(np.abs(inv - want)) < 1e-12


def test_exact_inverse_two_sided():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 64):
        m = rng.normal(size=(n, n)) + n * np.eye(n)
        inv = exact_inverse(m)
        eye = np.eye(n)
        assert np.linalg.norm(m @ inv - eye, "fro") < 1e-10 * n
        assert np.linalg.norm(inv @ m - eye, "fro") < 1e-10 * n


def test_exact_inverse_singular_raises():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        exact_inverse(m)


def test_exact_inverse_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        exact_inverse(np.zeros((3, 3)))


def test_exact_inverse_rejects_non_square():
    with pytest.raises(ShapeError):
        exact_inverse(np.zeros((3, 4)))


def test_spectral_norm_matches_eigensolve():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = rng.normal(size=(6, 6))
        want = float(np.sqrt(np.max(scipy.linalg.eigvalsh(m.T @ m))))
        got = spectral_norm(m)
        assert abs(got - want) < 1e-8 * max(want, 1.0)
    # Leading singular values 1 and 1 - 1e-7: nearly tied, as in the
    # near-orthogonal regime, where an iterative estimate comes out low.
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    m = q @ np.diag([1.0, 1.0 - 1e-7, 0.5, 0.25]) @ q.T
    assert abs(spectral_norm(m) - 1.0) <= 1e-12


def test_spectral_norm_diagonal():
    m = np.diag([3.0, 1.0, 0.5])
    assert abs(spectral_norm(m) - 3.0) < 1e-10


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_below_frobenius():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(8, 8))
    assert spectral_norm(m) <= np.linalg.norm(m, "fro") + 1e-12


def test_spectral_norm_orthogonal_is_one():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    assert abs(spectral_norm(q) - 1.0) < 1e-8


def test_spectral_norm_rectangular():
    # Singular values of [[3, 0], [0, 2], [0, 0]] are 3 and 2.
    m = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    assert abs(spectral_norm(m) - 3.0) < 1e-10


def test_fro_dist_identity_cases():
    assert fro_dist_identity(np.eye(5)) == 0.0
    # M = 3I gives M^T M - I = 8I, Frobenius norm 8*sqrt(2) for n=2.
    got = fro_dist_identity(3.0 * np.eye(2))
    assert abs(got - 8.0 * np.sqrt(2.0)) < 1e-14
    # Any orthogonal matrix has zero defect.
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert fro_dist_identity(q) < 1e-14


def test_ensure_finite_passes_and_raises():
    arr = np.ones((2, 2))
    assert ensure_finite(arr, "x") is arr
    bad = arr.copy()
    bad[0, 1] = np.nan
    with pytest.raises(NumericError):
        ensure_finite(bad, "x")
    bad[0, 1] = np.inf
    with pytest.raises(NumericError):
        ensure_finite(bad, "x")


def test_exact_inverse_nan_raises():
    m = np.eye(3)
    m[1, 1] = np.nan
    with pytest.raises(NumericError):
        exact_inverse(m)
