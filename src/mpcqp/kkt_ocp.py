"""Riccati recursion of stage-structured KKT systems: a horizon is a chain tree.

After the stage-wise inequality/slack elimination (shared with the dense
backend), the remaining system is the KKT system of an equality-constrained
linear-quadratic problem on a tree of nodes joined by dynamics edges.  An
optimal-control horizon is the chain tree 0 -> 1 -> ... -> N; a scenario
tree branches.  Both are factorized by one backward (leaves-to-root) Riccati
recursion over the node matrices

    G[n] = M[n] + sum over edges n -> m of [B_m A_m]' P[m] [B_m A_m],

    G = [G_uu  G_ux]
        [G_ux' G_xx]

with ``M[n]`` the augmented node Hessian over (u, x).  The input block is
eliminated through ``K[n] = -G_uu^-1 G_ux`` and the cost-to-go matrix
``P[n] = G_xx + G_ux' K[n]`` propagates toward the root; leaves have no
successor contribution.  Nodes are stored parents-first (the view lists each
node's outgoing edges as ``(child, dyn, pi_off, BA)``), so visiting them in
reverse order reaches every node after all of its children; child
contributions are summed in multiplier order so results are reproducible.
Cost per node is cubic in nu + nx, so the sweep is linear in the horizon
length or node count; no fill-in appears outside the data blocks.  The
constant parts of the sweep are per-view constants (see :mod:`view`): the
symmetrized base node Hessian ``[[R S] [S' Q]]`` and each edge's ``[B A]``
are built once per QP revision, and each factorization only adds the
iterate-dependent constraint terms to a copy of the former.

Two variants:

* ``classical``     P is propagated explicitly and only G_uu is factorized;
                    the full-space node Hessian may be indefinite as long as
                    every reduced block is positive definite.
* ``square_root``   the whole (nu+nx) block of G is factorized; its trailing
                    triangle is exactly chol(P[n]), so P is propagated in
                    factored form.  Requires positive definite node
                    Hessians.  In QR mode the node factor is obtained by
                    triangularizing the stack [chol(M)' ; chol(P_m)' [B_m A_m]
                    per child] without ever forming G (the array algorithm),
                    which avoids squaring the condition number.

Factorization failures carry the offending stage (node) index.  A factor
call makes one attempt on the route it is given (Cholesky or QR, with or
without regularization); retrying on another route is the solver's
decision.

The vector solve is two banded triangular solves over the flat vectors.
After the factorization both sweeps of a node-by-node solve are linear
recurrences with fixed matrices.  In the cost-to-go vectors ``p_n`` and
``l_n = L_uu^-1 rr_n`` (``rr_n`` the input part of node n's folded
right-hand side ``rhat_n`` plus its children's terms) the backward sweep
reads

    [L_uu 0; L_xu I] [l_n; p_n] - sum over edges n -> m of [B_m'; A_m'] e_m
        = rhat_n,        e_m = p_m + P_m b_m,

and the forward sweep ``L_uu' u_n = -(L_xu' x_n + l_n)``,
``x_m = A_m x_n + B_m u_n + b_m``.  In the unknowns ``s_m = e_m`` (the
child's own row then carries ``P_m b_m`` on its right-hand side) and
``s_0 = L_P0^-1 p_0`` at the root, with ``L_P0 L_P0' = P_0``, the backward
sweep is one lower triangular system T, and the forward sweep is its
transpose: ``T' [u; x] = [-l; b]`` with ``-s_0`` in the root's slot.  Each
factorization writes its ``L_uu``, ``L_xu`` and ``L_P0`` into T, held in
LAPACK band storage; the layout, the bandwidth (taken from the edge table:
about ``2 nx + nu`` on a chain) and the coupling entries, which are E's, are
constants of the view (:class:`view.RiccatiBand`).  A vector solve then
folds the right-hand side over the flat vectors, forms ``P b`` with one
block-diagonal product over the edges, runs the two band solves, forms
``pi_m = P_m (x_m - b_m) + e_m`` with a second product and recovers the
slack and inequality components over the flat vectors.  Dual
regularization is not applied on this backend (the equality block stays
exact); primal regularization plus iterative refinement covers
ill-conditioned cases.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import FactorizationFailed, LinalgError
from .ipm_core import IpmArg
from .kkt_common import add_reduced_hessian, fold_rhs, recover, view_scales
from .linalg import (
    cholesky_factor,
    matmul_acc,
    qr_cholesky,
    solve_banded_triangular,
    solve_triangular,
)
from .view import QpSolution, make_view

__all__ = [
    "RiccatiFactor",
    "riccati_factor",
    "riccati_solve",
    "feedback_gains",
]


class RiccatiFactor:
    """Backward Riccati factorization of one OCP or tree QP at one iterate."""

    def __init__(self, qp, view, variant, iterate):
        self.qp = qp
        self.view = view
        self.variant = variant
        self.scales = view_scales(view, iterate.lam, iterate.t)
        n_node = view.n_node
        self.L_uu = [None] * n_node
        self.L_col = [None] * n_node  # factor columns [L_uu; L_xu]
        self.K = [None] * n_node
        self.P = [None] * n_node     # classical representation
        self.L_P = [None] * n_node   # square-root representation
        self.ab = None               # band storage of the solve matrix T
        self.P_op = None             # per-edge blocks: P, or chol(P) if sqrt
        self.sqrt = False

    def p_matrix(self, n):
        if self.P[n] is not None:
            return self.P[n].copy()
        return self.L_P[n] @ self.L_P[n].T

    def solve(self, r_g, r_b, r_d, r_m):
        return riccati_solve(self, self.qp, r_g, r_b, r_d, r_m)

    def solve_flat(self, rhs_flat):
        vw = self.view
        ny, ne, nc = vw.ny, vw.ne, vw.nc
        step = self.solve(
            rhs_flat[:ny],
            rhs_flat[ny: ny + ne],
            rhs_flat[ny + ne: ny + ne + nc],
            rhs_flat[ny + ne + nc:],
        )
        return step.flat()


def riccati_factor(qp, iterate, variant=None, arg=None, use_qr=False):
    """Run the backward factor sweep and return a reusable factor object.

    Works on an :class:`OcpQp` (a chain) and on a :class:`TreeOcpQp` alike.
    ``use_qr`` switches every node to the QR array algorithm (which implies
    the square-root algebra).

    Raises
    ------
    FactorizationFailed
        With the failing stage (node) index; the classical variant fails
        when a reduced input block is not positive definite, the square-root
        variant when a full node block is not, the QR route when a node
        Hessian before the successor terms is not.
    """
    arg = arg or IpmArg()
    variant = variant or arg.riccati_variant
    if variant not in ("classical", "square_root"):
        raise ValueError(f"unknown Riccati variant '{variant}'")
    vw = make_view(qp)
    d = qp.dim
    fac = RiccatiFactor(qp, vw, variant, iterate)
    sqrt_mode = variant == "square_root" or use_qr
    for n in range(vw.n_node - 1, -1, -1):
        M = add_reduced_hessian(vw.blocks[n], fac.scales, vw.node_hess[n],
                                effective=True)
        if arg.reg_prim:
            M[np.diag_indices_from(M)] += arg.reg_prim
        try:
            _factor_node(fac, n, M, d.nu[n], sqrt_mode, use_qr)
        except LinalgError as exc:
            raise FactorizationFailed(
                f"Riccati factorization failed at stage {n}: {exc}", stage=n
            ) from exc
    if sqrt_mode:
        L_root = fac.L_P[0]
    elif d.nx[0]:
        try:
            L_root = cholesky_factor(fac.P[0])
        except LinalgError as exc:
            raise FactorizationFailed(
                f"cost-to-go matrix at stage 0 not positive definite: {exc}",
                stage=0,
            ) from exc
    else:
        L_root = np.zeros((0, 0))
    band = vw.band
    # column-major: the factors come out of LAPACK Fortran-ordered
    vals = np.concatenate([L.ravel(order="F") for L in fac.L_col + [L_root]])
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = vals[band.src]
    fac.ab = ab.T
    blocks = fac.L_P if sqrt_mode else fac.P
    fac.P_op = sp.csr_array(
        (np.concatenate([np.zeros(0)] + [blocks[m].ravel() for _, m, _ in vw.edges]),
         *band.p_csr),
        shape=(vw.ne, vw.ne),
    )
    fac.sqrt = sqrt_mode
    return fac


def _factor_node(fac, n, M, nu, sqrt_mode, use_qr):
    """Factor one node; writes L_uu, L_col, K and the P representation at n."""
    edges = fac.view.out_edges[n]
    if sqrt_mode:
        W = [matmul_acc(1.0, fac.L_P[m], BA, 0.0, 0.0, transA=True)
             for m, _, _, BA in edges]
        if use_qr:
            L_M = cholesky_factor(M)
            L_G = qr_cholesky(np.vstack([L_M.T] + W)).T
        else:
            G = M
            for W_m in W:
                G = matmul_acc(1.0, W_m, W_m, 1.0, G, transA=True)
            L_G = cholesky_factor(G)
        L_uu = L_G[:nu, :nu]
        L_xu = L_G[nu:, :nu]
        L_P = np.ascontiguousarray(L_G[nu:, nu:])
        if nu:
            K = -solve_triangular(L_uu, L_xu.T, transpose=True)
        else:
            K = np.zeros((0, L_P.shape[0]))
        fac.L_uu[n] = L_uu
        fac.L_col[n] = L_G[:, :nu]
        fac.K[n] = K
        fac.L_P[n] = L_P
        return
    G = M
    for m, _, _, BA in edges:
        T1 = matmul_acc(1.0, fac.P[m], BA, 0.0, 0.0)
        G = matmul_acc(1.0, BA, T1, 1.0, G, transA=True)
    G_uu = G[:nu, :nu]
    G_ux = G[:nu, nu:]
    G_xx = G[nu:, nu:]
    if nu:
        L_uu = cholesky_factor(G_uu)
        L_xu_t = solve_triangular(L_uu, G_ux)
        K = -solve_triangular(L_uu, L_xu_t, transpose=True)
        P = matmul_acc(1.0, G_ux, K, 1.0, G_xx, transA=True)
    else:
        L_uu = np.zeros((0, 0))
        L_xu_t = np.zeros((0, G_xx.shape[0]))
        K = np.zeros((0, G_xx.shape[0]))
        P = G_xx.copy()
    fac.L_uu[n] = L_uu
    fac.L_col[n] = np.hstack([L_uu.T, L_xu_t]).T
    fac.K[n] = K
    fac.P[n] = 0.5 * (P + P.T)


def _p_apply(fac, vec):
    """``P_m @ vec_m`` for every edge block of a vector laid out like pi."""
    if fac.sqrt:
        return fac.P_op @ (fac.P_op.T @ vec)
    return fac.P_op @ vec


def riccati_solve(fac, qp, r_g, r_b, r_d, r_m):
    """Full-space Newton solution from a current factor and a 4-block RHS.

    Two band solves with the factor's matrix T, backward then forward (see
    the module docstring), between the flat fold of the right-hand side and
    the flat recovery of the slack and inequality components.
    """
    vw = fac.view
    band = vw.band
    rhat, fold = fold_rhs(vw, fac.scales, r_g, r_d, r_m)
    f = np.empty(vw.nv)
    f[band.vpos] = rhat
    f[band.pi_pos] += _p_apply(fac, r_b)
    s = solve_banded_triangular(fac.ab, f)
    f = -s
    f[band.pi_pos] = r_b
    w = solve_banded_triangular(fac.ab, f, transpose=True)
    x = w[band.pi_pos]
    dpi = _p_apply(fac, x - r_b) + s[band.pi_pos]
    dy, dlam, dt = recover(vw, fac.scales, w[band.vpos], fold, r_d)
    return QpSolution(vw, dy, dpi, dlam, dt)


def feedback_gains(fac):
    """Stage feedback gain matrices K[0..N-1] of a factored OCP recursion.

    For an unconstrained problem at any iterate these are the familiar
    discrete-time linear-quadratic regulator gains; with constraints they are
    the gains of the inequality-augmented stage Hessians.

    Raises
    ------
    ValueError
        For the factor of a tree QP, whose nodes have no stage order: the
        per-node gains are ``fac.K``.
    """
    if fac.view.kind == "tree":
        raise ValueError("feedback_gains is defined for OCP factors only")
    return [K.copy() for K in fac.K[:-1]]
