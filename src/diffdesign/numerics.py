"""Dense and sparse linear-algebra kernels shared by all solver stages.

Dense symmetric matrices are plain ``numpy`` arrays (only the symmetric part
is authoritative); sparse matrices are ``scipy.sparse`` CSR. The dense
Cholesky factorization and triangular solves call LAPACK ``potrf`` and
``trtrs`` directly (bitwise the results of ``scipy.linalg.cholesky`` and
``solve_triangular``, without their per-call checks), one call site each; the
symmetric pencil solver is ``scipy.linalg.eigh`` and the sparse solver is
``scipy.sparse.linalg.cg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence, NotPositiveDefinite

#: pivot threshold, relative to the largest diagonal entry
PIVOT_RTOL = 1e-14

# the double-precision routines behind scipy.linalg.cholesky(lower=True) and
# solve_triangular, called without their per-call wrapper overhead
_potrf = scipy.linalg.lapack.dpotrf
_trtrs = scipy.linalg.lapack.dtrtrs


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching eigenvector columns.

    For the generalized solver the columns are B-orthonormal:
    ``V.T @ B @ V == I`` up to round-off.
    """

    values: np.ndarray
    vectors: np.ndarray


def symmetric_part(a, rtol=1e-12):
    """Return 0.5*(A + A.T) after checking A is square and nearly symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0.0 and np.abs(a - a.T).max() > rtol * scale * 10.0:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def cholesky(a):
    """Lower-triangular L with L @ L.T == A (LAPACK potrf).

    Raises NotPositiveDefinite when an elimination pivot falls to or below
    PIVOT_RTOL times the largest diagonal entry of A; rank-deficient PSD
    matrices are rejected by that floor even when the factorization itself
    squeaks through. The factor is Fortran-ordered, as `solve_lower` and
    `cholesky_solve` expect.
    """
    a = symmetric_part(a)
    floor = PIVOT_RTOL * max(float(a.diagonal().max()), 0.0)
    lower, info = _potrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    pivots = lower.diagonal() ** 2
    if pivots.min() <= floor:
        j = int(np.argmin(pivots))
        raise NotPositiveDefinite(f"pivot {pivots[j]:.3e} at column {j}")
    return lower


def _triangular(lower, b, trans):
    """Solve L x = b (trans=0) or L.T x = b (trans=1) with LAPACK trtrs."""
    x, info = _trtrs(lower, b, lower=1, trans=trans)
    if info > 0:
        raise NotPositiveDefinite(f"zero pivot at column {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


def solve_lower(lower, b):
    """Forward substitution for L x = b (b may be a vector or matrix)."""
    return _triangular(lower, b, 0)


def cholesky_solve(lower, b):
    """Solve (L L.T) x = b given a precomputed Cholesky factor."""
    return _triangular(lower, solve_lower(lower, b), 1)


def generalized_eig(a, b):
    """Solve the symmetric pencil A V = Lambda B V with SPD B (LAPACK sygvd).

    B must pass the `cholesky` pivot floor, or NotPositiveDefinite is
    raised. Eigenvalues ascend; the eigenvector columns are B-orthonormal.
    """
    a = symmetric_part(a)
    b = symmetric_part(b)
    cholesky(b)
    try:
        values, vectors = scipy.linalg.eigh(a, b, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NoConvergence(f"generalized eigensolver failed: {err}") from None
    return EigenDecomposition(values, vectors)


def cg_solve(a, rhs, tol=1e-10, x0=None, max_iter=None):
    """Jacobi-preconditioned conjugate gradients for sparse SPD systems
    (``scipy.sparse.linalg.cg``).

    Iterates until ||A x - rhs|| < tol * ||rhs||; raises NoConvergence
    after 10*n iterations (or `max_iter` if given). The iteration is
    deterministic, so repeated solves are bitwise reproducible.
    """
    a = sp.csr_matrix(a)
    inv_diag = 1.0 / a.diagonal()
    jacobi = spla.LinearOperator(a.shape, matvec=lambda r: inv_diag * r)
    x, info = spla.cg(a, np.asarray(rhs, dtype=float), x0=x0, rtol=tol,
                      atol=0.0, maxiter=max_iter, M=jacobi)
    if info != 0:
        raise NoConvergence(f"CG stopped after {info} iterations short of "
                            f"||r|| < {tol:.1e} * ||b||")
    return x
