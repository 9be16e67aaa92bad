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

The kernels call LAPACK and BLAS directly, bound once at import, instead
of going through ``scipy.linalg.cholesky``/``solve_triangular``/``qr`` or
``numpy.linalg.qr``: on the small blocks of a Riccati recursion the
wrappers' argument validation costs several times the arithmetic.  The
routines called and the nominal count of each counted kernel:

* :func:`cholesky_factor`          ``dpotrf``; ``n^3 / 3``;
* :func:`solve_triangular`         ``dtrtrs``; ``n^2`` per column;
* :func:`solve_banded_triangular`  ``dtbtrs``; ``2 n kd + n - kd (kd + 1)``
                                   per column;
* :func:`qr_cholesky`              ``dgeqrf`` on an (m, n) stack;
                                   ``2 m n^2 - 2 n^3 / 3``;
* :func:`qr_cholesky_tp`           ``dtpqrt`` (l = n) on ``[U ; S ; diag(d)]``
                                   with U upper triangular;
                                   ``2 p n^2 + 2 n^3 / 3`` for p rows of S;
* :func:`qr_full`                  ``dgeqrf`` and ``dorgqr`` (Q and R of an
                                   (m, n) matrix); ``2 m n^2 - 2 n^3 / 3 +
                                   4 m^2 n - 4 m n^2 + 4 n^3 / 3``;
* :func:`gram`                     ``dsyrk`` on one triangle, mirrored,
                                   through numpy's matrix product;
                                   ``k n (n + 1)`` for S'S of a (k, n) S;
* :func:`matmul_acc`               numpy's matrix product; ``2 m n k``.

Layout dispatch follows scipy's wrappers exactly (a factor that is not
Fortran-contiguous is passed transposed with the opposite triangle and
transposition), and ``dgeqrf``/``dorgqr`` get the workspaces scipy's
``qr`` asks for, so results are bit-identical to them.  Their checks are
replaced by the shape checks here and the LAPACK return codes: ``dpotrf``
reports a nonpositive pivot, ``dtrtrs`` and ``dtbtrs`` an exactly zero
diagonal entry, and a negative code (an illegal argument) raises
``ValueError``.  The three QR-Cholesky kernels (:func:`qr_cholesky`,
:func:`qr_cholesky_tp` and :func:`qr_cholesky_update`) triangularize by
LAPACK and then make one rank test and sign normalization on the upper
triangle, :func:`_rank_tested`.  This module is the package's only
caller of LAPACK and of BLAS (numpy's matrix product aside).

:func:`cholesky_solve` is one ``dpotrf`` and one ``dtrtrs`` on one block,
the input-block step of a classical Riccati node.  It counts no flops: its
caller counts the nominal counts of the kernels it stands in for.
``cholesky_factor`` is its shape checks and flop count around one
``dpotrf``.

The update-and-factor kernels :func:`cholesky_update`,
:func:`cholesky_sqrt_update` and :func:`qr_cholesky_update` are one Riccati
level's step on each route, uncounted as well: they overwrite a (k, w, w)
stack M of node Hessians, one Fortran-ordered block per node, with the
factors of the blocks updated by their children's terms, and never write
the terms.  A chain level is a stack of one.  They take one operand form,
:func:`update_operands`, which their caller prepares once (per workspace in
the Riccati sweep, see :meth:`kkt_ocp.RiccatiLevel.args`): every node's
block and the blocks of its terms, and for the QR route a copy of the
stack, the rows W and every node's views of both.  The kernels index no
stack: per node the Cholesky routes call BLAS and LAPACK on the node's
block itself, which ends up holding the factor with no copy made
(``dsymm``/``dgemm`` or ``dtrmm``/``dsyrk``, then ``dpotrf``), so a level
of k nodes makes the calls of k chain levels.  The QR route forms the rows
of all nodes with one stacked product per term into the prepared rows,
copies M into the prepared copy, runs one upper ``dpotrf`` and one
``dtpqrt`` (l = 0) per node in place there and assigns the factors into M;
a stack without rows (a leaf) takes the lower ``dpotrf`` of every block in
place.  The kernels make their calls directly on the operands they are
given, with no helper frame (the ``dpotrf`` return code goes to
:func:`_potrf_failed` only when it is nonzero): on the small blocks of a
chain, a Python frame or a view per call costs a sizeable part of the BLAS
calls themselves.  Their BLAS and LAPACK arguments are positional, as the
wrappers parse keywords slower.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dgemm as _gemm
from scipy.linalg.blas import dsymm as _symm
from scipy.linalg.blas import dsyrk as _syrk
from scipy.linalg.blas import dtrmm as _trmm
from scipy.linalg.lapack import dgeqrf as _geqrf
from scipy.linalg.lapack import dgeqrf_lwork as _geqrf_lwork
from scipy.linalg.lapack import dorgqr as _orgqr
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dtbtrs as _tbtrs
from scipy.linalg.lapack import dtpqrt as _tpqrt
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
    "qr_cholesky_tp",
    "qr_full",
    "gram",
    "matmul_acc",
    "cholesky_solve",
    "update_operands",
    "cholesky_update",
    "cholesky_sqrt_update",
    "qr_cholesky_update",
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


def cholesky_factor(M, reg=0.0):
    """Lower Cholesky factor L with L @ L.T = M + reg*I.

    Parameters
    ----------
    M : (n, n) array
        Symmetric matrix.  Only used through its symmetric part implicitly;
        symmetry is the caller's responsibility.
    reg : float
        Nonnegative diagonal shift added before factorization.

    Raises
    ------
    NotPositiveDefinite
        If M + reg*I is not numerically positive definite (a nonpositive
        pivot); callers are expected to retry with regularization instead of
        the kernel loosening the test.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {M.shape}")
    n = M.shape[0]
    count_flops(n * n * n // 3)
    if n == 0:
        return np.zeros((0, 0))
    return _potrf(M if reg == 0.0 else M + reg * np.eye(n))


def _potrf(A):
    """Lower Cholesky factor of the matrix A by one ``dpotrf``, the upper
    triangle zeroed; A is not written."""
    # positional (lower, clean, overwrite_a): the wrappers parse keywords
    # slower, which shows on the blocks of a Riccati level
    L, info = _dpotrf(A, 1, 1, 0)
    if info:
        _potrf_failed(info)
    return L


def _potrf_failed(info):
    """Raise for the nonzero return code ``info`` of ``dpotrf``."""
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite"
        )
    raise ValueError(f"illegal value in argument {-info} of dpotrf")


def cholesky_solve(A, B):
    """``(L, X)`` with ``L L' = A`` and ``L X = B`` for the (n, n) matrix A
    and the (n, m) matrix B, uncounted: one ``dpotrf`` and one ``dtrtrs``.

    L has a positive diagonal, so ``dtrtrs`` cannot fail.

    Raises
    ------
    NotPositiveDefinite
        If A is not numerically positive definite.
    """
    L = _potrf(A)
    return L, _trtrs(L, B, lower=1)[0]


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
    X, info = _tbtrs(ab, B, "L", "T" if transpose else "N")   # (uplo, trans)
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
    if not n:
        return np.zeros((0, 0))
    qr, _, _, info = _geqrf(A, lwork=_qr_lwork(m, n))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqrf")
    return _rank_tested(np.triu(qr[:n])[None], m)[0]


def _rank_tested(R, m):
    """Rank-test and sign-normalize, in place, the (k, n, n) stack R of
    upper triangles (a view of the caller's buffer; only R's diagonal is
    read): a block fails if a diagonal entry is at or below
    ``max(m, n) eps max|R_ii|`` of its block (m is the row count of the
    stack that was triangularized), and rows are negated where the diagonal
    is negative.  Returns R.

    The stack's extreme diagonal entries decide the common cases without a
    reduction per block: when every entry has one sign and the smallest in
    magnitude passes against the largest of the whole stack, every block
    passes, and R is kept or negated whole.

    Raises
    ------
    RankDeficient
        If a block fails the rank test.
    """
    n = R.shape[-1]
    d = R.diagonal(0, 1, 2)
    c = max(m, n) * _EPS
    # the ufuncs' reductions, without the ndarray.min/max wrappers' frames
    lo, hi = np.minimum.reduce(d, None), np.maximum.reduce(d, None)
    if lo > c * hi:
        return R
    if hi < c * lo:
        return np.negative(R, out=R)
    size = np.abs(d)
    tol = c * size.max(axis=1, keepdims=True)
    if (size <= tol).any():
        raise RankDeficient(
            f"diagonal entry {size.min():.3e} at or below {tol.min():.3e}"
        )
    R *= np.copysign(1.0, d)[:, :, None]
    return R


# column block size of dtpqrt's compact WY reflectors: within 15% of the
# best of 8 to 48 on stacks from 200 x 40 to 920 x 280; one block of all n
# columns is 3 times slower at n = 280
_TP_NB = 16


def qr_cholesky_tp(U, S, d):
    """Upper-triangular R with R.T @ R = U.T @ U + S.T @ S + diag(d)**2, via QR.

    :func:`qr_cholesky` of the stack ``[U ; S ; diag(d)]`` for an
    upper-triangular U, by one triangular-pentagonal QR (``dtpqrt`` with
    l = n) on a Fortran-ordered copy: its reflectors leave the zeros below
    both triangles alone.  The nominal count is ``2 p n^2 + 2 n^3 / 3`` for
    the p rows of S, where :func:`qr_cholesky` of the (p + 2 n, n) stack
    counts ``2 (p + 2 n) n^2 - 2 n^3 / 3``.  The rank test (see
    :func:`_rank_tested`) counts the rows of U and S and the nonzero
    entries of d, leaving out the zero rows of the diagonal block.

    Parameters
    ----------
    U : (n, n) array
        Upper triangular; its strictly lower part is not read.
    S : (p, n) array
        General rows.
    d : (n,) array
        The diagonal of the trailing triangle.

    Raises
    ------
    RankDeficient
        As :func:`qr_cholesky`.
    """
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n or S.ndim != 2 or S.shape[1] != n:
        raise DimensionMismatch(
            f"triangle {U.shape} and rows {S.shape} are not conformal")
    if np.shape(d) != (n,):
        raise DimensionMismatch(f"diagonal must be ({n},), got {np.shape(d)}")
    p = S.shape[0]
    count_flops(2 * p * n * n + (2 * n ** 3) // 3)
    if not n:
        return np.zeros((0, 0))
    # the workspaces dtpqrt overwrites, Fortran-ordered so that the wrapper
    # does not copy them again
    A = np.array(U, order="F")
    B = np.zeros((n, p + n)).T
    B[:p] = S
    B[p + np.arange(n), np.arange(n)] = d
    R, _, _, info = _tpqrt(n, min(n, _TP_NB), A, B, overwrite_a=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtpqrt")
    return _rank_tested(np.triu(R)[None], n + p + np.count_nonzero(d))[0]


def update_operands(M, terms, scratch=None):
    """The ``terms`` argument of the update kernels for the (k, w, w) stack
    M of Fortran-ordered blocks and its ``(P, BA)`` terms, (k, c, c) and
    (k, c, w) stacks, with P the cost-to-go blocks (:func:`cholesky_update`)
    or their lower factors (:func:`cholesky_sqrt_update`,
    :func:`qr_cholesky_update`): ``(nodes, qr)``, views of M, of the terms
    and of ``scratch``.

    * ``nodes``  per node ``(M_i, [(P_i', BA_i) ...])``: its Fortran-ordered
      block of M and, per term, the transpose of its P block and its BA
      block, as the Cholesky kernels' BLAS calls take them;
    * ``qr``     ``(rows, products, C, blocks, R)`` for the QR kernel: the
      row count of its rank test, per term the operands and the output
      ``(BA', P, W)`` of one stacked product forming the W rows of all
      nodes, the copy C of M (C-ordered) that ``dpotrf`` and ``dtpqrt``
      overwrite with the triangles, per node its Fortran-ordered
      ``(U_i, W_i)`` (the transposes of C's block and of its W rows), and
      the triangles ``R = C'`` that the rank test reads.  C and W are
      views of ``scratch``, which holds at least ``k w (w + sum c)``
      entries (a new buffer when None).  Without rows (a leaf) there are
      no products, C is None, blocks are empty and R is ``M'``: each
      node's block is factored in place.

    Terms without entries (c = 0 or w = 0) are left out.  A caller that
    factors the same buffers again prepares this once and hands the
    kernels the same object every time.

    Raises
    ------
    DimensionMismatch
        If a block of M is not Fortran-ordered, so that a kernel could not
        factor it in place.
    """
    if not all(M_i.flags.f_contiguous for M_i in M):
        raise DimensionMismatch("the blocks of M must be Fortran-ordered")
    k, w = M.shape[0], M.shape[-1]
    terms = [(P, BA) for P, BA in terms if BA.size]
    nodes = tuple((M_i, [(P[i].T, BA[i]) for P, BA in terms])
                  for i, M_i in enumerate(M))
    rows = w + sum(P.shape[-1] for P, _ in terms)
    if not terms:
        return nodes, (rows, (), None, (), M.swapaxes(-1, -2))
    if scratch is None:
        scratch = np.empty(k * w * rows)
    C = scratch[: k * w * w].reshape(k, w, w)
    Wt = scratch[k * w * w: k * w * rows].reshape(k, w, rows - w)
    products, j = [], 0
    for P, BA in terms:
        c = P.shape[-1]
        products.append((BA.transpose(0, 2, 1), P, Wt[:, :, j: j + c]))
        j += c
    blocks = tuple(zip(C.transpose(0, 2, 1), Wt.transpose(0, 2, 1)))
    return nodes, (rows, products, C, blocks, C.swapaxes(-1, -2))


def cholesky_update(M, terms):
    """Overwrite the (k, w, w) stack M with the lower Cholesky factors of
    ``M + sum BA' P BA`` over the ``(P, BA)`` terms, uncounted: one Riccati
    level's classical update and factorization.

    ``terms`` is :func:`update_operands` of M and the terms; M and P are
    symmetric.  Per node, per term one ``dsymm`` for ``P BA`` (reading one
    triangle of P) and one ``dgemm`` (beta = 1) adding ``BA' (P BA)`` to
    the node's block, then one ``dpotrf``: on the Fortran-ordered block
    both work in the block itself, and a column-major BA and C-ordered P
    reach BLAS uncopied.  These calls are made on the prepared operands as
    given, with no helper call in between, so a caller that prepares them
    once (the Riccati sweep's workspace, see :mod:`kkt_ocp`) pays for
    little more than BLAS and LAPACK.  The nodes are taken one after the
    other, so the blocks before a failing one hold their factors.  Returns
    M.  The terms are never written; M is, also when the factorization
    fails.

    Raises
    ------
    NotPositiveDefinite
        If a block of the updated matrix is not positive definite.
    """
    for M_i, node_terms in terms[0]:
        for Pt, BA in node_terms:
            # BA' (P BA) + M_i: (beta, c, trans_a, trans_b, overwrite_c)
            _gemm(1.0, BA, _symm(1.0, Pt, BA), 1.0, M_i, 1, 0, 1)
        # (lower, clean, overwrite_a): in place on the Fortran-ordered block
        info = _dpotrf(M_i, 1, 1, 1)[1]
        if info:
            _potrf_failed(info)
    return M


def cholesky_sqrt_update(M, terms):
    """Overwrite the (k, w, w) stack M with the lower Cholesky factors of
    ``M + sum W'W`` with ``W = L' BA`` over the ``(L, BA)`` terms,
    uncounted: one Riccati level's square-root update and factorization.

    Operands and writes as in :func:`cholesky_update`, with L lower
    triangular.  Per node, per term one ``dtrmm`` for W and one ``dsyrk``
    (beta = 1) adding ``W'W`` to the lower triangle of its block, then one
    ``dpotrf``, with no helper call in between.

    Raises
    ------
    NotPositiveDefinite
        If a block of the updated matrix is not positive definite.
    """
    for M_i, node_terms in terms[0]:
        for Lt, BA in node_terms:
            # W'W + M_i on the lower triangle: (beta, c, trans, lower,
            # overwrite_c)
            _syrk(1.0, _trmm(1.0, Lt, BA), 1.0, M_i, 1, 1, 1)
        info = _dpotrf(M_i, 1, 1, 1)[1]
        if info:
            _potrf_failed(info)
    return M


def qr_cholesky_update(M, terms):
    """Overwrite the (k, w, w) stack M with the lower factors of
    ``M + sum W'W`` with ``W = L' BA`` by the array algorithm, uncounted:
    per block the transposed :func:`qr_cholesky` triangle of
    ``[chol(M)' ; W ...]``, one Riccati level's QR step.

    Operands as in :func:`cholesky_sqrt_update`.  The W rows of all nodes
    come from one stacked product per term into the prepared rows; M is
    copied into the prepared copy, where per block one upper ``dpotrf``
    forms ``chol(M)'`` and one triangular-pentagonal QR of it and its rows
    W (``dtpqrt`` with l = 0), whose reflectors leave the zeros below the
    triangle alone, both work in place; the factors are written into M in
    one assignment.  Without rows to add, ``chol(M)'`` is already the
    triangle, so no QR runs: every block takes the lower ``dpotrf`` in
    place, as in :func:`cholesky_update`.  The rank test and the sign
    normalization are :func:`qr_cholesky`'s (see :func:`_rank_tested`),
    over the ``w + sum c`` rows of the stack.  Returns M.  The terms are
    never written.  M is not written when a factorization fails, except
    without rows: the blocks are factored in place one after the other,
    so the blocks before a failing one hold their factors, and all of them
    when the rank test fails.

    Raises
    ------
    NotPositiveDefinite
        If a block of M is not positive definite.
    RankDeficient
        If a block fails the rank test.
    """
    w = M.shape[-1]
    if not w:
        return M
    _, (rows, products, C, blocks, R) = terms
    if C is None:
        cholesky_update(M, terms)
        _rank_tested(R, rows)
        return M
    for BAt, L, W in products:
        np.matmul(BAt, L, out=W)
    np.copyto(C, M)
    nb = min(w, _TP_NB)
    # (lower, clean, overwrite_a) and (l, nb, a, b, overwrite_a,
    # overwrite_b): U and W are Fortran-ordered, so both work in place
    for U, W in blocks:
        info = _dpotrf(U, 0, 1, 1)[1]
        if info:
            _potrf_failed(info)
        info = _tpqrt(0, nb, U, W, 1, 1)[3]
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dtpqrt")
    _rank_tested(R, rows)
    M[...] = C
    return M


def qr_full(A):
    """``(Q, R)`` with ``A = Q R`` for an (m, n) A with m >= n.

    Q is (m, m) orthogonal and R (m, n) upper triangular, as from
    ``scipy.linalg.qr(A, mode="full")``, bit for bit: one ``dgeqrf`` and
    one ``dorgqr`` forming all m columns of Q, with the workspaces scipy
    queries.  Nominal count ``2 m n^2 - 2 n^3 / 3`` for the factorization
    plus ``4 m^2 n - 4 m n^2 + 4 n^3 / 3`` for Q (``dorgqr``'s count with
    n reflectors on m columns).  No rank test: the caller decides.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {A.shape}")
    m, n = A.shape
    if m < n:
        raise DimensionMismatch(f"matrix must have at least {n} rows, got {m}")
    count_flops(2 * m * n * n - (2 * n ** 3) // 3
                + 4 * m * m * n - 4 * m * n * n + (4 * n ** 3) // 3)
    if not n:
        return np.eye(m), np.zeros((m, 0))
    qr, tau, _, info = _geqrf(A, lwork=_qr_lwork(m, n))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqrf")
    Q = np.empty((m, m))
    Q[:, :n] = qr
    Q, _, info = _orgqr(Q, tau, lwork=_orgqr_lwork(m, n), overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dorgqr")
    return Q, np.triu(qr)


@lru_cache(maxsize=64)
def _orgqr_lwork(m, k):
    """The workspace size scipy's ``qr`` queries for an (m, m) ``dorgqr``
    with k reflectors."""
    _, work, info = _orgqr(np.zeros((m, m), order="F"), np.zeros(k), lwork=-1)
    if info != 0:
        raise ValueError(f"dorgqr workspace query failed with code {info}")
    return int(work[0])


@lru_cache(maxsize=256)
def _qr_lwork(m, n):
    """The workspace size scipy's ``qr`` queries for an (m, n) ``dgeqrf``."""
    work, info = _geqrf_lwork(m, n)
    if info != 0:
        raise ValueError(f"dgeqrf workspace query failed with code {info}")
    return int(work)


def gram(S):
    """Symmetric Gram matrix ``S.T @ S`` of the (k, n) matrix S.

    One ``dsyrk`` on one triangle, mirrored onto the other, so the result
    is exactly symmetric: numpy's matrix product recognizes a contiguous
    matrix times its own transpose and makes that call itself, and mirrors
    in C faster than a mask over the result.  The nominal count is that of
    ``dsyrk``, ``k n (n + 1)``, about half the general product's
    ``2 k n^2``.  A fresh C-ordered array; S is not written.
    """
    S = np.ascontiguousarray(S, dtype=float)
    if S.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {S.shape}")
    k, n = S.shape
    count_flops(k * n * (n + 1))
    return S.T @ S


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
