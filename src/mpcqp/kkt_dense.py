"""Reduced KKT factorization and solves for the dense QP type.

The Newton system is reduced in three exact elimination steps: inequality
slacks t, inequality multipliers lam (together: the gamma scalings of
:mod:`kkt_common`), then the soft-constraint slacks, leaving the
equality-constrained core

    [ Hred  -A' ] [dv ]     [ rhat ]
    [ -A    -rI ] [dpi] = - [ r_b  ]

with ``Hred`` the constraint-augmented Hessian over v and ``r = reg_dual``
(the dual regularization replaces the zero block; it is offset afterwards by
iterative refinement, like the primal one).  Two equality-handling methods
are provided:

* ``schur``   factor Hred, form the Schur complement A Hred^-1 A' + r I and
              factor it;
* ``null_space``  orthonormal basis of null(A) from a QR of A', solve the
              reduced problem on the basis (reg_dual is not applied on this
              path).

When the QR path is requested, Cholesky factors of normal-matrix forms are
computed by orthogonal triangularization of the stacked factors instead
(``qr_cholesky``), which avoids squaring condition numbers: Hred from the
stack [chol(H + reg I)' ; sqrt(coef_i) * row_i], the Schur complement from
the stack [W ; sqrt(reg_dual) I] with W = L^-1 A'.  The QR route needs the
unaugmented Hessian to be positive definite; if it is not, the assembled
Hred is factored directly as a fallback.

A factor object is valid for any number of right-hand sides until the
iterate changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationFailed, LinalgError, NotPositiveDefinite
from .ipm_core import IpmArg
from .kkt_common import (
    add_reduced_hessian,
    block_scales,
    fold_rhs,
    recover_block,
)
from .linalg import cholesky_factor, matmul_acc, qr_cholesky, solve_triangular
from .view import QpSolution, make_view

__all__ = [
    "DenseKktFactor",
    "AugmentedIneq",
    "eliminate_ineq",
    "eliminate_slacks",
    "factor",
]


def _cho_solve(L, b):
    x = solve_triangular(L, b)
    return solve_triangular(L, x, transpose=True)


def _box_rows_matrix(cb):
    """Dense (m, nw) matrix of the block's constraint rows (box + general)."""
    M = np.zeros((cb.m, cb.nw))
    for i, k in enumerate(cb.idxb):
        M[i, k] = 1.0
    if cb.ng:
        M[cb.nb:] = cb.Jg
    return M


@dataclass
class AugmentedIneq:
    """Result of eliminating t and lam: augmented Hessian pieces + scalings."""

    Hv: np.ndarray        # v-block of the augmented Hessian (raw gamma)
    D_l: np.ndarray       # augmented lower-slack diagonal (ns,)
    D_u: np.ndarray
    scales: object        # BlockScales


def eliminate_ineq(qp, iterate):
    """Augmented Hessian after eliminating inequality slacks and multipliers.

    Deactivated rows contribute nothing; box rows touch only diagonal
    entries of the v-block.  The slack blocks stay diagonal (returned as the
    vectors ``D_l``/``D_u``); the v-slack coupling is implicit in the
    scalings and handled by :func:`eliminate_slacks`.
    """
    vw = make_view(qp)
    cb = vw.blocks[0]
    sc = block_scales(cb, iterate.lam, iterate.t)
    Hv = add_reduced_hessian(cb, sc, qp._data["H"], effective=False)
    return AugmentedIneq(Hv=Hv, D_l=sc.D_l.copy(), D_u=sc.D_u.copy(), scales=sc)


def eliminate_slacks(qp, iterate, aug=None):
    """Reduce the augmented system to the v variables alone.

    Block-eliminating the diagonal slack blocks replaces each soft row's
    gamma coefficient by its series combination with the slack stiffness,
    so the result is the same rank-1-per-row update as the hard-constraint
    case; cost beyond the base problem is linear in ns.
    """
    vw = make_view(qp)
    cb = vw.blocks[0]
    sc = aug.scales if aug is not None else block_scales(cb, iterate.lam, iterate.t)
    return add_reduced_hessian(cb, sc, qp._data["H"], effective=True)


class DenseKktFactor:
    """Factorized reduced KKT system of a dense QP at one iterate."""

    def __init__(self, qp, view, sc, arg, method, use_qr):
        self.qp = qp
        self.view = view
        self.sc = sc
        self.method = method
        self.used_qr = use_qr
        self.reg_prim = arg.reg_prim
        self.reg_dual = arg.reg_dual
        cb = view.blocks[0]
        self._cb = cb
        H = qp._data["H"]
        A = qp._data["A"]
        self._A = A
        ne = qp.ne
        if use_qr:
            self._Lred = self._factor_qr(H, cb, sc, arg.reg_prim)
        else:
            Hred = add_reduced_hessian(cb, sc, H, effective=True)
            if arg.reg_prim:
                Hred[np.diag_indices_from(Hred)] += arg.reg_prim
            self._Lred = cholesky_factor(Hred)
            self._Hred = Hred
        if method == "null_space" and ne:
            if not hasattr(self, "_Hred"):
                self._Hred = self._Lred @ self._Lred.T
            Q, R = scipy.linalg.qr(A.T, mode="full")
            self._Q1 = Q[:, :ne]
            self._Z = Q[:, ne:]
            self._Ra = R[:ne, :]
            if np.any(np.abs(np.diag(self._Ra)) < 1e-14 * max(1.0, np.max(np.abs(A)))):
                raise FactorizationFailed("equality constraint rows are rank deficient")
            Hz = matmul_acc(1.0, self._Z, self._Hred @ self._Z, 0.0, 0.0, transA=True)
            self._Lz = cholesky_factor(Hz)
        elif ne:
            W = solve_triangular(self._Lred, A.T)
            if use_qr:
                stack = W
                if arg.reg_dual > 0.0:
                    stack = np.vstack([W, np.sqrt(arg.reg_dual) * np.eye(ne)])
                self._Lm = qr_cholesky(stack).T
            else:
                M = matmul_acc(1.0, W, W, 0.0, 0.0, transA=True)
                if arg.reg_dual:
                    M[np.diag_indices_from(M)] += arg.reg_dual
                self._Lm = cholesky_factor(M)

    def _factor_qr(self, H, cb, sc, reg):
        """Cholesky of the reduced Hessian via the stacked-factor QR route."""
        try:
            Lh = cholesky_factor(H, reg)
        except NotPositiveDefinite:
            # base Hessian not PD: the stacked form does not exist, factor
            # the assembled reduced Hessian directly
            Hred = add_reduced_hessian(cb, sc, H, effective=True)
            if reg:
                Hred[np.diag_indices_from(Hred)] += reg
            return cholesky_factor(Hred)
        coef = sc.ge_lo + sc.ge_up
        rows = np.flatnonzero(coef > 0.0)
        if rows.size:
            JcM = _box_rows_matrix(cb)
            stack = np.vstack([Lh.T, np.sqrt(coef[rows])[:, None] * JcM[rows]])
        else:
            stack = Lh.T
        return qr_cholesky(stack).T

    # -- solves ----------------------------------------------------------

    def solve(self, r_g, r_b, r_d, r_m):
        """Full-space solution of the Newton system for one 4-block RHS.

        Returns the step (delta formulation) or the candidate iterate
        (absolute formulation), depending on what the right-hand side
        represents; the factor itself is formulation-agnostic.
        """
        vw = self.view
        cb = self._cb
        nv, ns = vw.nv, vw.ns_tot
        rhat, stash = fold_rhs(
            cb, self.sc, r_g[:nv], r_g[nv: nv + ns], r_g[nv + ns:], r_d, r_m
        )
        if self.method == "null_space" and self.qp.ne:
            v_p = self._Q1 @ solve_triangular(self._Ra, r_b, transpose=True,
                                              lower=False)
            rhs_z = self._Z.T @ (rhat + self._Hred @ v_p)
            q = _cho_solve(self._Lz, -rhs_z)
            dv = v_p + self._Z @ q
            dpi = solve_triangular(self._Ra, self._Q1.T @ (self._Hred @ dv + rhat),
                                   lower=False)
        elif self.qp.ne:
            z = _cho_solve(self._Lred, rhat)
            rhs_pi = r_b + self._A @ z
            dpi = _cho_solve(self._Lm, rhs_pi)
            dv = _cho_solve(self._Lred, self._A.T @ dpi - rhat)
        else:
            dpi = np.zeros(0)
            dv = -_cho_solve(self._Lred, rhat)
        dsl, dsu, dlam, dt = recover_block(cb, self.sc, dv, stash, r_d)
        dy = np.concatenate([dv, dsl, dsu])
        return QpSolution(vw, dy, dpi, dlam, dt)

    def solve_flat(self, rhs_flat):
        """Same solve on a packed [r_g, r_b, r_d, r_m] vector (refinement hook)."""
        vw = self.view
        ny, ne, nc = vw.ny, vw.ne, vw.nc
        step = self.solve(
            rhs_flat[:ny],
            rhs_flat[ny: ny + ne],
            rhs_flat[ny + ne: ny + ne + nc],
            rhs_flat[ny + ne + nc:],
        )
        return step.flat()


def factor(qp, iterate, arg=None, use_qr=None):
    """Factorize the reduced KKT system of a dense QP at an iterate.

    With no equality constraints this is a plain Cholesky factorization of
    the reduced Hessian; otherwise the method configured in ``arg``
    (``schur`` by default, or ``null_space``) handles the equality block.

    Raises
    ------
    FactorizationFailed
        If the required factorizations fail even for the requested path; the
        caller decides on regularization retries or the QR fallback.
    """
    arg = arg or IpmArg()
    if use_qr is None:
        use_qr = arg.use_qr_always
    vw = make_view(qp)
    sc = block_scales(vw.blocks[0], iterate.lam, iterate.t)
    method = arg.kkt_method if qp.ne else "chol"
    try:
        return DenseKktFactor(qp, vw, sc, arg, method, use_qr)
    except LinalgError as exc:
        raise FactorizationFailed(f"dense KKT factorization failed: {exc}") from exc

