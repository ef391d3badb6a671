"""Dense float64 kernels: exact inverse, spectral norm, orthogonality defect.

Matrices are 2-D float64 arrays. Every routine raises NumericError on a
NaN or Inf result rather than let it into a training run.
"""

from __future__ import annotations

import importlib.util
import math
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import NumericError, ShapeError, SingularMatrixError


def _load_flapack():
    """scipy's compiled LAPACK wrappers (scipy.linalg._flapack), loaded
    from their extension file without running the package imports of
    scipy or scipy.linalg, which cost each process about 0.2 s and 25 MB.
    scipy.linalg.lapack re-exports these very objects, so every call is
    the one it would make. Raises ImportError when the file is missing;
    there is no second path.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("ncgru needs scipy for its LAPACK wrappers; scipy not found")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgetrf, dgetri, dgetri_lwork = _flapack.dgetrf, _flapack.dgetri, _flapack.dgetri_lwork
dsyevr, dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork

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
    """Invert a square matrix: LU with partial pivoting (LAPACK dgetrf),
    then the inverse from those factors (dgetri, optimal workspace).

    LAPACK is handed m^T, which is column-major when m is row-major, and
    the transpose of its inverse is returned: inv(m) = inv(m^T)^T, so the
    result is C-ordered with no reorder. Raises NumericError when m has a
    NaN or Inf or ||m||_F overflows, and SingularMatrixError when a pivot
    falls below 1e-14 * ||m||_F, i.e. when m is singular to working
    precision.
    """
    m = _require_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"inverse needs a square matrix, got {m.shape}")
    ensure_finite(m, "matrix to invert")
    scale = float(np.linalg.norm(m))
    if scale == math.inf:
        # an inf scale would fail every pivot test below
        raise NumericError("matrix to invert has an overflowing Frobenius norm")
    if scale == 0.0:
        raise SingularMatrixError("zero matrix has no inverse")
    # dgetrf factors a copy (overwrite_a defaults to 0), so m is untouched
    lu, piv, _ = dgetrf(m.T)
    if float(np.min(np.abs(np.diag(lu)))) < _PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix singular to working precision (min pivot < {_PIVOT_RTOL:g} * ||m||)"
        )
    lwork, _ = dgetri_lwork(m.shape[0])
    inv, _ = dgetri(lu, piv, lwork=int(lwork), overwrite_lu=1)
    return ensure_finite(inv.T, "inverse")


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of m (any rectangular shape); 0.0 if m is
    empty or zero.

    Computed as sqrt(lambda_max) of the smaller Gram matrix (m^T m or
    m m^T), from one symmetric eigensolve (dsyevr) restricted to that
    eigenvalue: exact, with no random draws, and not understated when the
    leading singular values are close. m is first divided by max|m|, so
    entries near 1e+-200 neither overflow nor underflow when squared; after
    that some entry is 1, so lambda_max >= 1 and its root is real.
    """
    m = _require_matrix(m, "matrix")
    ensure_finite(m, "matrix for spectral norm")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        return 0.0
    m = m / scale
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    k = gram.shape[0]
    # the optimal workspace is what scipy.linalg.eigvalsh passes, so the
    # eigenvalue matches it bit for bit without its argument handling
    lwork, liwork, _ = dsyevr_lwork(k, lower=1)
    w, _, _, _, info = dsyevr(gram, compute_v=0, range="I", il=k, iu=k, lower=1,
                              lwork=int(lwork), liwork=liwork)
    if info != 0:
        raise NumericError(f"symmetric eigensolve failed (LAPACK info={info})")
    return scale * math.sqrt(w[0])


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
