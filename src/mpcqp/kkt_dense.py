"""Reduced KKT factorization and solves for the dense QP type.

The Newton system is reduced in three exact elimination steps: inequality
slacks t, inequality multipliers lam (together: the gamma scalings of
:mod:`kkt_common`), then the soft-constraint slacks, leaving the
equality-constrained core

    [ Hred  -A' ] [dv ]     [ rhat ]
    [ -A     0  ] [dpi] = - [ r_b  ]

with ``Hred`` the constraint-augmented Hessian over v (plus the primal
regularization, which iterative refinement offsets afterwards).  Two
equality-handling methods are provided:

* ``schur``   factor Hred, form the Schur complement A Hred^-1 A' as
              W' W with W = L^-1 A' (:func:`linalg.gram`, exactly
              symmetric) and factor it;
* ``null_space``  orthonormal basis Z of null(A) from a QR of A', solve the
              reduced problem on the basis: only ``Z' Hred Z`` is
              factored, so Hred need only be positive definite on
              null(A), as in HPIPM's null-space method.

The reduced Hessian ``H + reg I + J' diag(coef) J`` (J the box rows, then
the general rows ``G``) is formed by :func:`kkt_common.reduced_hessian`
on the Cholesky route.  When the QR route is requested, Cholesky factors of
normal-matrix forms are computed by orthogonal triangularization of the
stacked factors instead, which avoids squaring condition numbers.  Hred
comes from one triangular-pentagonal QR (:func:`linalg.qr_cholesky_tp`) of

    [ chol(H + reg I)'    ]    n rows, upper triangular
    [ sqrt(coef_g) G_g    ]    the general rows with coef > 0
    [ diag(sqrt(coef_b))  ]    n rows: the box rows' coefficients summed
                               onto the diagonal entries of their columns

taken from ``view.G`` and the box columns directly, so no dense row matrix
is built.  ``chol(H + reg I)'`` depends only on the view and ``reg``: it
is factored once per view and ``reg`` and kept on the view as
``hess_chol`` (a dict by ``reg``, failures included), which the view's
bound-write copies share, as :mod:`kkt_ocp` keeps its ``band``.  The
route's Schur complement comes from the QR of W = L^-1 A'.  It needs the
unaugmented Hessian to be positive definite and fails otherwise; the
Cholesky route needs only Hred to be (with ``schur``; with ``null_space``
only ``Z' Hred Z``).  The null-space route's QR of A' is
:func:`linalg.qr_full`.

A factor object is valid for any number of right-hand sides until the
iterate changes.
"""

from __future__ import annotations

import numpy as np

from .errors import FactorizationFailed, LinalgError, NotPositiveDefinite
from .ipm_core import KKT_METHODS, IpmArg
from .kkt_common import fold_rhs, recover, reduced_hessian, row_coef, view_scales
from .linalg import (
    cholesky_factor,
    gram,
    matmul_acc,
    qr_cholesky,
    qr_cholesky_tp,
    qr_full,
    solve_triangular,
)
from .view import QpSolution, make_view, split_flat

__all__ = ["DenseKktFactor", "factor"]


def _cho_solve(L, b):
    x = solve_triangular(L, b)
    return solve_triangular(L, x, transpose=True)


class DenseKktFactor:
    """Factorized reduced KKT system of a dense QP at one iterate."""

    def __init__(self, qp, view, sc, arg, method, use_qr):
        self.qp = qp
        self.view = view
        self.sc = sc
        self.method = method
        H = view.H
        A = view.E
        self._A = A
        ne = qp.ne
        if use_qr:
            self._Lred = self._factor_qr(sc, arg.reg_prim)
        else:
            Hred = reduced_hessian(view, sc, arg.reg_prim).reshape(H.shape)
        if method == "null_space" and ne:
            if ne > qp.nv:
                raise FactorizationFailed("more equality constraint rows than variables")
            # the solve reads Hred itself, never a factor of it
            self._Hred = self._Lred @ self._Lred.T if use_qr else Hred
            Q, R = qr_full(A.T)
            self._Q1 = Q[:, :ne]
            self._Z = Q[:, ne:]
            self._Ra = R[:ne, :]
            if np.any(np.abs(np.diag(self._Ra)) < 1e-14 * max(1.0, np.max(np.abs(A)))):
                raise FactorizationFailed("equality constraint rows are rank deficient")
            Hz = matmul_acc(1.0, self._Z, self._Hred @ self._Z, 0.0, 0.0, transA=True)
            self._Lz = cholesky_factor(Hz)
        else:
            if not use_qr:
                self._Lred = cholesky_factor(Hred)
            if ne:
                W = solve_triangular(self._Lred, A.T)
                if use_qr:
                    self._Lm = qr_cholesky(W).T
                else:
                    self._Lm = cholesky_factor(gram(W))

    def _factor_qr(self, sc, reg):
        """Cholesky of the reduced Hessian via the stacked-factor QR route."""
        vw = self.view
        nb = vw._nb
        coef = row_coef(vw, sc)
        gen = np.flatnonzero(coef[nb:] > 0.0)
        S = np.sqrt(coef[nb + gen])[:, None] * vw.G[gen]
        d = np.sqrt(np.bincount(vw.box_col, coef[:nb], vw.nv))
        return qr_cholesky_tp(_hess_chol(vw, reg), S, d).T

    # -- solves ----------------------------------------------------------

    def solve(self, r_g, r_b, r_d, r_m):
        """Full-space solution of the Newton system for one 4-block RHS.

        Returns the step (delta formulation) or the candidate iterate
        (absolute formulation), depending on what the right-hand side
        represents; the factor itself is formulation-agnostic.
        """
        vw = self.view
        step = QpSolution(vw)
        rhat, fold = fold_rhs(vw, self.sc, r_g, r_d, r_m)
        if self.method == "null_space" and self.qp.ne:
            v_p = self._Q1 @ solve_triangular(self._Ra, r_b, transpose=True,
                                              lower=False)
            rhs_z = self._Z.T @ (rhat + self._Hred @ v_p)
            q = _cho_solve(self._Lz, -rhs_z)
            np.add(v_p, self._Z @ q, out=step.v)
            step.pi[:] = solve_triangular(
                self._Ra, self._Q1.T @ (self._Hred @ step.v + rhat), lower=False)
        elif self.qp.ne:
            z = _cho_solve(self._Lred, rhat)
            rhs_pi = r_b + self._A @ z
            step.pi[:] = _cho_solve(self._Lm, rhs_pi)
            step.v[:] = _cho_solve(self._Lred, self._A.T @ step.pi - rhat)
        else:
            np.negative(_cho_solve(self._Lred, rhat), out=step.v)
        return recover(vw, self.sc, fold, r_d, step)

    def solve_flat(self, rhs_flat):
        """Same solve on a packed [r_g, r_b, r_d, r_m] vector (refinement hook)."""
        vw = self.view
        return self.solve(*split_flat(rhs_flat, vw.ny, vw.ne, vw.nc)).flat()


def _hess_chol(view, reg):
    """``chol(H + reg I)'`` of the view's Hessian, upper triangular.

    Factored on first use for each ``reg`` and kept on the view in the dict
    ``hess_chol``, a failure as its message; the view's bound-write copies
    (see :func:`view.make_view`) share it.

    Raises
    ------
    NotPositiveDefinite
        If ``H + reg I`` is not numerically positive definite.
    """
    cache = getattr(view, "hess_chol", None)
    if cache is None:
        cache = view.hess_chol = {}
    U = cache.get(reg)
    if U is None:
        try:
            U = np.asfortranarray(cholesky_factor(view.H, reg).T)
        except NotPositiveDefinite as exc:
            U = str(exc)
        cache[reg] = U
    if isinstance(U, str):
        raise NotPositiveDefinite(U)
    return U


def factor(qp, iterate, arg=None, use_qr=False):
    """Factorize the reduced KKT system of a dense QP at an iterate.

    With no equality constraints this is a plain Cholesky factorization of
    the reduced Hessian; otherwise the method configured in ``arg``
    (``schur`` by default, or ``null_space``) handles the equality block;
    ``use_qr`` selects the QR route.

    Raises
    ------
    FactorizationFailed
        If a required factorization fails on the requested route; the
        caller decides on another route or a regularized retry.
    ValueError
        For an unknown ``arg.kkt_method``.
    """
    arg = arg or IpmArg()
    if arg.kkt_method not in KKT_METHODS:
        raise ValueError(f"unknown kkt_method '{arg.kkt_method}'")
    vw = make_view(qp)
    sc = view_scales(vw, iterate.lam, iterate.t)
    method = arg.kkt_method if qp.ne else "chol"
    try:
        return DenseKktFactor(qp, vw, sc, arg, method, use_qr)
    except LinalgError as exc:
        raise FactorizationFailed(f"dense KKT factorization failed: {exc}") from exc

