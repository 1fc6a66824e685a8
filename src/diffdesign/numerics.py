"""Dense and sparse linear-algebra kernels shared by all solver stages.

Dense symmetric matrices are plain ``numpy`` arrays; sparse matrices are
``scipy.sparse`` CSR. The dense Cholesky factorization and triangular solves
call LAPACK ``potrf`` and ``trtrs`` directly (bitwise the results of
``scipy.linalg.cholesky`` and ``solve_triangular``, without their per-call
checks), one call site each; the factorization reads only the lower triangle
of its matrix. The symmetric pencil solver is ``scipy.linalg.eigh``, behind
a check that both matrices are square and symmetric within round-off. The
sparse solver is a Jacobi-preconditioned CG over a block of right-hand sides
that share one matrix: the rows iterate in lockstep and share one sparse
product per iteration, and each row is bitwise ``scipy.sparse.linalg.cg`` on
that row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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

    Reads only the lower triangle of the square float array A, so the
    strict upper triangle is never checked. Raises NotPositiveDefinite when
    an elimination pivot falls to or below PIVOT_RTOL times the largest
    diagonal entry of A; rank-deficient PSD matrices are rejected by that
    floor even when the factorization itself squeaks through. The factor is
    Fortran-ordered, as `solve_lower` and `cholesky_solve` expect.
    """
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


def dirichlet_blocks(a, free, fixed):
    """(a_ff, a_fc), the free rows of the CSR matrix `a` split into its free and
    fixed (Dirichlet) columns. Rebinding `a` frees a temporary argument before
    the blocks, which callers keep, are allocated, so they can reuse its memory."""
    a = a[free]
    return a[:, free], a[:, fixed]


def _row_dots(u, v):
    """Row-wise dot products of two C-contiguous (k, n) blocks.

    Each entry has the bits of ``np.dot(u[i], v[i])``: a batch of 1 x n by
    n x 1 products goes to BLAS ``ddot`` row by row (``einsum`` sums in
    another order, and strided rows take another ``ddot`` path).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def cg_solve(a, rhs, tol=1e-10, x0=None, max_iter=None):
    """Jacobi-preconditioned conjugate gradients for a sparse SPD system with
    a (k, n) block `rhs` of k right-hand sides; `x0`, if given, is (k, n) too.

    Row i of the result is bitwise ``scipy.sparse.linalg.cg(a, rhs[i],
    x0=x0[i], rtol=tol, atol=0, M=jacobi)``: the same operations in the same
    order, the same ``||A x - rhs|| < tol * ||rhs||`` stop test, and ``rhs[i]``
    itself for a zero row. The k iterations run in lockstep and share one
    sparse product ``a @ P.T`` per iteration; a converged row leaves the
    working set unchanged. Raises NoConvergence when any row is still
    unconverged after 10*n iterations (or `max_iter` if given).
    """
    a = sp.csr_matrix(a)
    b = np.ascontiguousarray(rhs, dtype=float)
    n = b.shape[1]
    out = b.copy()
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float)
    b_norm = np.sqrt(_row_dots(b, b))
    atol = tol * b_norm
    # rows with a zero rhs return it as they are; the rest start iterating
    rows = np.flatnonzero(b_norm != 0.0)
    x, b, atol = x[rows], b[rows], atol[rows]
    warm = x.any(axis=1)
    r = b.copy()
    if warm.any():
        r[warm] = b[warm] - np.ascontiguousarray((a @ x[warm].T).T)
    inv_diag = 1.0 / a.diagonal()
    n_iter = 10 * n if max_iter is None else max_iter
    p = rho_prev = None
    for iteration in range(n_iter):
        done = np.sqrt(_row_dots(r, r)) < atol
        if done.any():
            out[rows[done]] = x[done]
            keep = ~done
            rows, x, r, atol = rows[keep], x[keep], r[keep], atol[keep]
            if iteration > 0:
                p, rho_prev = p[keep], rho_prev[keep]
        if len(rows) == 0:
            break
        z = inv_diag * r
        rho_cur = _row_dots(r, z)
        if iteration > 0:
            p *= (rho_cur / rho_prev)[:, None]
            p += z
        else:
            p = z
        q = np.ascontiguousarray((a @ p.T).T)
        alpha = rho_cur / _row_dots(p, q)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        rho_prev = rho_cur
    else:
        if len(rows):
            raise NoConvergence(
                f"CG left {len(rows)} of {len(out)} right-hand sides short of "
                f"||r|| < {tol:.1e} * ||b|| after {n_iter} iterations")
    return out
