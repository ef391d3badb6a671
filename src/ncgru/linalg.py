"""Dense float64 kernels used everywhere else in the package.

All routines take and return plain numpy arrays: vectors are 1-D, matrices
2-D, row-major, float64. scipy's LU factorization backs the exact inverse
so singularity is detected from the pivots rather than guessed from an
exception. The spectral norm is exact: the square root of the top
eigenvalue of the smaller Gram matrix (m^T m or m m^T), from one LAPACK
symmetric eigensolve restricted to that eigenvalue. It agrees with the
SVD's largest singular value to rounding, is not understated when the
leading singular values are close, and draws no random numbers.

Every routine checks its result for NaN/Inf and raises NumericError rather
than letting poisoned values propagate into a training run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, eigvalsh, lu_factor, lu_solve

from .errors import NumericError, ShapeError, SingularMatrixError

# Pivot below this multiple of the Frobenius norm means the factorization
# carries no usable information about the inverse.
_PIVOT_RTOL = 1e-14


def _require_matrix(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got ndim={m.ndim}")
    return m


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Raise NumericError if arr contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


def exact_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix via LU with partial pivoting.

    Raises SingularMatrixError when any pivot falls below
    1e-14 * ||m||_F, i.e. when the matrix is singular to working precision.
    """
    m = _require_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"inverse needs a square matrix, got {m.shape}")
    ensure_finite(m, "matrix to invert")
    scale = float(np.linalg.norm(m))
    if scale == 0.0:
        raise SingularMatrixError("zero matrix has no inverse")
    # scipy warns on exact zero pivots; the pivot check below already turns
    # that condition into SingularMatrixError, so the warning is redundant.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
    if float(np.min(np.abs(np.diag(lu)))) < _PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix singular to working precision (min pivot < {_PIVOT_RTOL:g} * ||m||)"
        )
    inv = lu_solve((lu, piv), np.eye(m.shape[0]), check_finite=False)
    return ensure_finite(inv, "inverse")


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of m (any rectangular shape); 0.0 if m is
    empty or zero.

    Computed as sqrt(lambda_max) of the smaller Gram matrix. m is first
    divided by max|m|, so entries near 1e+-200 neither overflow nor
    underflow when squared, and the scale is multiplied back afterwards.
    After that division some entry is 1, so lambda_max >= 1 and its
    square root is always real.
    """
    m = _require_matrix(m, "matrix")
    ensure_finite(m, "matrix for spectral norm")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        return 0.0
    m = m / scale
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    k = gram.shape[0]
    top = eigvalsh(gram, subset_by_index=[k - 1, k - 1], check_finite=False)[0]
    return scale * math.sqrt(top)


def fro_dist_identity(m: np.ndarray) -> float:
    """||m^T m - I||_F, the orthogonality defect of a square matrix."""
    m = _require_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"orthogonality defect needs a square matrix, got {m.shape}")
    gram = m.T @ m
    gram[np.diag_indices_from(gram)] -= 1.0
    out = float(np.linalg.norm(gram))
    if not np.isfinite(out):
        raise NumericError("non-finite orthogonality defect")
    return out
