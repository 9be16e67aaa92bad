"""Portable dense linear-algebra kernels for fixed-structure matrices.

All matrices and vectors are plain numpy arrays of float64 in row-major
(C-contiguous) layout; that layout choice is global to the package.  Only
fixed structures are handled (dense, symmetric, triangular, diagonal); there
are no sparse formats and no dynamic pivoting: pivot order is always the
natural one implied by the block structure of the caller.

Every kernel is a pure function of its inputs.  As optional instrumentation,
kernels add a nominal operation count to a thread-local counter when one is
active (see :func:`flop_counter`); this keeps the kernels safe to call
concurrently on disjoint data while making complexity measurements exact and
reproducible.  Nominal counts use the standard textbook formulas and are
deterministic integers.

The Cholesky, triangular-solve and QR kernels call the LAPACK routines
``dpotrf``, ``dtrtrs``, (banded) ``dtbtrs`` and ``dgeqrf`` directly, bound
once at import, instead of going through ``scipy.linalg.cholesky``/
``solve_triangular``/``qr`` or ``numpy.linalg.qr``: on the small blocks of a
Riccati recursion the wrappers' argument validation costs several times the
arithmetic.  Layout dispatch follows scipy's wrappers exactly (a factor
that is not Fortran-contiguous is passed transposed with the opposite
triangle and transposition), and ``dgeqrf`` gets the workspace scipy's
``qr`` asks for, so results are bit-identical to them.  Their checks are
replaced by the shape checks here and the LAPACK return codes: ``dpotrf``
reports a nonpositive pivot, ``dtrtrs`` and ``dtbtrs`` an exactly zero
diagonal entry, and a negative code (an illegal argument) raises
``ValueError``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgeqrf as _geqrf
from scipy.linalg.lapack import dgeqrf_lwork as _geqrf_lwork
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dtbtrs as _tbtrs
from scipy.linalg.lapack import dtrtrs as _trtrs

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficient,
    SingularFactor,
)

__all__ = [
    "cholesky_factor",
    "solve_triangular",
    "solve_banded_triangular",
    "qr_cholesky",
    "matmul_acc",
    "flop_counter",
    "count_flops",
    "FlopCounter",
]

_local = threading.local()
_EPS = np.finfo(float).eps


class FlopCounter:
    """Accumulates nominal floating-point operation counts of kernel calls."""

    def __init__(self):
        self.flops = 0

    def add(self, n):
        self.flops += int(n)


@contextmanager
def flop_counter():
    """Activate flop counting on this thread and yield the counter.

    Counters nest: an inner context accumulates into both the inner and the
    outer counter.
    """
    counter = FlopCounter()
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()


def count_flops(n):
    """Add ``n`` to every active counter (see :func:`flop_counter`).

    The kernels here call it; so does code that calls LAPACK itself, with
    the nominal count of the kernel it stands in for.
    """
    stack = getattr(_local, "stack", None)
    if stack:
        n = int(n)
        for counter in stack:
            counter.flops += n
    return None


def cholesky_factor(M, reg=0.0, pivot_tol=0.0):
    """Lower Cholesky factor L with L @ L.T = M + reg*I.

    Parameters
    ----------
    M : (n, n) array
        Symmetric matrix.  Only used through its symmetric part implicitly;
        symmetry is the caller's responsibility.
    reg : float
        Nonnegative diagonal shift added before factorization.
    pivot_tol : float
        A pivot (squared diagonal entry of L) at or below this threshold
        raises :class:`NotPositiveDefinite`.  The default 0 fails only on
        nonpositive pivots; callers are expected to retry with regularization
        instead of the kernel loosening the test.

    Raises
    ------
    NotPositiveDefinite
        If M + reg*I is not numerically positive definite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {M.shape}")
    n = M.shape[0]
    count_flops(n * n * n // 3)
    if n == 0:
        return np.zeros((0, 0))
    A = M if reg == 0.0 else M + reg * np.eye(n)
    L, info = _potrf(A, lower=True, clean=True, overwrite_a=False)
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if pivot_tol > 0.0 and np.min(np.diag(L)) ** 2 <= pivot_tol:
        raise NotPositiveDefinite(
            f"pivot {np.min(np.diag(L))**2:.3e} below threshold {pivot_tol:.3e}"
        )
    return L


def solve_triangular(L, B, transpose=False, lower=True):
    """Solve L @ X = B (or L.T @ X = B when ``transpose``) for X.

    ``L`` must be square triangular with nonzero diagonal; ``B`` may be a
    vector or a matrix with matching leading dimension.

    Raises
    ------
    SingularFactor
        If any diagonal entry of L is exactly zero.
    DimensionMismatch
        If shapes are not conformal.
    """
    L = np.asarray(L, dtype=float)
    B = np.asarray(B, dtype=float)
    n = L.shape[0]
    if L.ndim != 2 or L.shape[1] != n:
        raise DimensionMismatch(f"factor must be square, got {L.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"rhs leading dim {B.shape} does not match factor {n}")
    if n == 0:
        return B.copy()
    if L.flags.f_contiguous:
        X, info = _trtrs(L, B, lower=lower, trans=transpose)
    else:
        X, info = _trtrs(L.T, B, lower=not lower, trans=not transpose)
    if info > 0:
        raise SingularFactor("zero diagonal entry in triangular factor")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    m = 1 if B.ndim == 1 else B.shape[1]
    count_flops(n * n * m)
    return X


def solve_banded_triangular(ab, B, transpose=False):
    """Solve L @ X = B (or L.T @ X = B when ``transpose``) for a banded L.

    ``ab`` is the lower triangular band matrix L in LAPACK band storage:
    shape (kd + 1, n) with ``ab[i - j, j] = L[i, j]`` for ``j <= i <= j + kd``.
    A Fortran-contiguous ``ab`` (the transpose of a C-ordered (n, kd + 1)
    array) reaches LAPACK uncopied.  The nominal count is that of the band
    kernel, ``2 n kd + n - kd (kd + 1)`` per right-hand-side column, which is
    ``n**2`` (the dense triangular count) once the band is full.

    Raises
    ------
    SingularFactor
        If any diagonal entry of L is exactly zero.
    DimensionMismatch
        If shapes are not conformal.
    """
    ab = np.asarray(ab, dtype=float)
    B = np.asarray(B, dtype=float)
    if ab.ndim != 2 or ab.shape[0] < 1:
        raise DimensionMismatch(f"band storage must be (kd+1, n), got {ab.shape}")
    n = ab.shape[1]
    if B.shape[0] != n:
        raise DimensionMismatch(f"rhs leading dim {B.shape} does not match factor {n}")
    if B.size == 0:
        # no LAPACK call: scipy 1.17's dtbtrs wrapper corrupts the heap on a
        # zero-column right-hand side
        return B.copy()
    X, info = _tbtrs(ab, B, uplo="L", trans="T" if transpose else "N")
    if info > 0:
        raise SingularFactor("zero diagonal entry in triangular factor")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtbtrs")
    kd = min(ab.shape[0] - 1, n - 1)
    m = 1 if B.ndim == 1 else B.shape[1]
    count_flops(m * (2 * n * kd + n - kd * (kd + 1)))
    return X


def qr_cholesky(Astack):
    """Upper-triangular R with R.T @ R = Astack.T @ Astack, via QR.

    This is the array-algorithm replacement for forming the normal matrix
    A.T @ A and Cholesky-factorizing it: the triangularization acts on the
    stacked factor directly, so the condition number is not squared.  The
    returned R has a nonnegative diagonal (rows are sign-normalized), which
    pins down the otherwise sign-ambiguous factor.

    Parameters
    ----------
    Astack : (m, n) array with m >= n
        Stacked rows of the factors whose Gram matrix is wanted.

    Raises
    ------
    RankDeficient
        If a diagonal entry of R is at or below max(m, n) * eps * max_i |R_ii|.
    """
    A = np.asarray(Astack, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected 2-d stack, got shape {A.shape}")
    m, n = A.shape
    if m < n:
        raise DimensionMismatch(f"stack must have at least {n} rows, got {m}")
    count_flops(max(0, 2 * m * n * n - (2 * n * n * n) // 3))
    if n == 0:
        return np.zeros((0, 0))
    qr, _, _, info = _geqrf(A, lwork=_qr_lwork(m, n))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqrf")
    R = np.where(_upper(n), qr[:n], 0.0)
    d = R.diagonal().copy()
    size = np.abs(d)
    rank_tol = max(m, n) * _EPS * size.max()
    if (size <= rank_tol).any():
        raise RankDeficient(
            f"diagonal entry {size.min():.3e} at or below {rank_tol:.3e}"
        )
    R *= np.copysign(1.0, d)[:, None]
    return R


@lru_cache(maxsize=256)
def _qr_lwork(m, n):
    """The workspace size scipy's ``qr`` queries for an (m, n) ``dgeqrf``."""
    work, info = _geqrf_lwork(m, n)
    if info != 0:
        raise ValueError(f"dgeqrf workspace query failed with code {info}")
    return int(work)


@lru_cache(maxsize=256)
def _upper(n):
    """Read-only (n, n) mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def matmul_acc(alpha, A, B, beta, C, transA=False):
    """Return alpha * op(A) @ B + beta * C.

    ``A`` and ``B`` are matrices (B may also be a vector); ``C`` must be
    conformal with the product (or a scalar 0.0 shortcut when beta == 0).
    A fresh array is returned; inputs are never written.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    opA = A.T if transA else A
    if opA.ndim != 2:
        raise DimensionMismatch("A must be a matrix")
    if opA.shape[-1] != B.shape[0]:
        raise DimensionMismatch(
            f"inner dimensions differ: {opA.shape} vs {B.shape}"
        )
    mdim = opA.shape[0]
    ndim = 1 if B.ndim == 1 else B.shape[1]
    count_flops(2 * mdim * ndim * opA.shape[1])
    P = alpha * (opA @ B)
    if beta == 0.0:
        return P
    C = np.asarray(C, dtype=float)
    if C.shape != P.shape:
        raise DimensionMismatch(f"accumulator shape {C.shape} != product {P.shape}")
    return P + beta * C
