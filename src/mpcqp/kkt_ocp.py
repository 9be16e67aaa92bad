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
eliminated through ``L_uu = chol(G_uu)`` and ``X = L_uu^-1 G_ux`` (so
``L_xu = X'``), and the cost-to-go matrix ``P[n] = G_xx - X'X`` propagates
toward the root; leaves have no successor contribution.  Nodes are stored
parents-first (the view lists each node's outgoing edges as
``(child, dyn, pi_off, BA)``), so visiting them in reverse order reaches
every node after all of its children; child contributions are summed in
multiplier order so results are reproducible.  Cost per node is cubic in
nu + nx, so the sweep is linear in the horizon length or node count; no
fill-in appears outside the data blocks.

A node runs only the recursion's own BLAS/LAPACK calls.  Everything else is
done once per factorization or once per view:

* the augmented node Hessians ``M[n]`` of all nodes are formed in one pass
  over a flat buffer (:func:`kkt_common.reduced_hessian`): a copy of the
  view's symmetrized base Hessians ``[[R S] [S' Q]]``, one scatter of the
  box rows' coefficients, the general rows' Gram terms and the primal
  regularization.  Each node then works in place on its slice;
* the sweep order, the slices and the edges are a view constant
  (``RiccatiBand.sweep``), and each ``[B A]`` is built once per QP
  revision;
* each node writes its factor columns ``[L_uu; L_xu]`` straight into the
  value buffer from which the band matrix of the vector solve is filled,
  and its cost-to-go block (``P[n]``, or ``chol(P[n])`` on the square-root
  and QR routes) into its slot of one stacked buffer
  (:attr:`RiccatiFactor.p_blocks`, laid out by ``RiccatiBand.p_dim``);
* the gains ``K[n] = -L_uu^-T L_xu'`` are not needed by the solve and are
  formed when :attr:`RiccatiFactor.K` is first read (``feedback_gains``,
  tests); their triangular solves are counted then.

Per node the classical variant makes, per edge, one ``P BA`` product and
one ``BA'(.)`` accumulate, then one ``dpotrf`` of ``G_uu``, one ``dtrtrs``
for X and one product for ``X'X``, and symmetrizes P.  The square-root
variant makes, per edge, ``W = chol(P_m)' BA`` and ``G += W'W``, then one
``dpotrf`` of G; on the QR route one ``dpotrf`` of ``M[n]`` and one QR
(``dgeqrf``) of the stack.  The flop counts are those of the
:mod:`linalg` kernels these calls stand in for, counted per node.

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
stacked product over the edges' cost-to-go blocks (two with the factors on
the square-root routes), runs the two band solves, forms
``pi_m = P_m (x_m - b_m) + e_m`` with a second product and recovers the
slack and inequality components over the flat vectors.  Dual
regularization is not applied on this backend (the equality block stays
exact); primal regularization plus iterative refinement covers
ill-conditioned cases.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dtrtrs as _trtrs

from .errors import FactorizationFailed, LinalgError
from .ipm_core import RICCATI_VARIANTS, IpmArg
from .kkt_common import fold_rhs, recover, reduced_hessian, view_scales
from .linalg import (
    count_flops,
    qr_cholesky,
    solve_banded_triangular,
    solve_triangular,
)
from .view import QpSolution, make_view, split_flat

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
        self.L_xu = [None] * n_node
        self.P = [None] * n_node     # classical representation
        self.L_P = [None] * n_node   # square-root representation
        self.ab = None               # band storage of the solve matrix T
        # every node's P, or chol(P) if sqrt, at the top left of its slot
        # (see view.RiccatiBand.p_dim); P[n] and L_P[n] are views of it
        p = view.band.p_dim
        self.p_blocks = np.zeros((n_node, p, p))
        self.sqrt = False

    @cached_property
    def K(self):
        """Feedback gains ``K[n] = -L_uu^-T L_xu'``, formed on first read."""
        return [-solve_triangular(L, L_xu.T, transpose=True)
                for L, L_xu in zip(self.L_uu, self.L_xu)]

    def p_matrix(self, n):
        if self.P[n] is not None:
            return self.P[n].copy()
        return self.L_P[n] @ self.L_P[n].T

    def solve(self, r_g, r_b, r_d, r_m):
        return riccati_solve(self, self.qp, r_g, r_b, r_d, r_m)

    def solve_flat(self, rhs_flat):
        vw = self.view
        return self.solve(*split_flat(rhs_flat, vw.ny, vw.ne, vw.nc)).flat()


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
    if variant not in RICCATI_VARIANTS:
        raise ValueError(f"unknown Riccati variant '{variant}'")
    vw = make_view(qp)
    fac = RiccatiFactor(qp, vw, variant, iterate)
    sqrt_mode = variant == "square_root" or use_qr
    hess = reduced_hessian(vw, fac.scales, arg.reg_prim)
    band = vw.band
    vals = np.empty(band.val_off[-1])
    for n, nu, w, h0, v0, edges in band.sweep:
        G = hess[h0: h0 + w * w].reshape(w, w)
        # the node's factor columns [L_uu; L_xu], column-major in vals
        col = vals[v0: v0 + w * nu].reshape(nu, w).T
        if sqrt_mode:
            _sqrt_node(fac, n, G, nu, col, edges, use_qr)
        else:
            _classical_node(fac, n, G, nu, col, edges)
    nx0 = int(qp.dim.nx[0])
    root = vals[band.val_off[-2]:].reshape(nx0, nx0).T
    if sqrt_mode:
        root[...] = fac.L_P[0]
    elif nx0:
        count_flops(nx0 ** 3 // 3)
        root[...] = _chol(fac.P[0], 0, "cost-to-go matrix not positive definite")
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = vals[band.src]
    fac.ab = ab.T
    fac.sqrt = sqrt_mode
    return fac


def _chol(A, n, what="Riccati factorization failed"):
    """Lower Cholesky factor of A by one ``dpotrf``; raises with stage n."""
    L, info = _potrf(A, lower=1, clean=1)
    if info:
        raise FactorizationFailed(
            f"{what} at stage {n}: {info}-th leading minor of the array is "
            "not positive definite", stage=n,
        )
    return L


def _classical_node(fac, n, G, nu, col, edges):
    """Classical step at node n on its reduced Hessian G (written in place).

    Per edge one ``P BA`` product and one ``BA'(.)`` accumulate, then one
    ``dpotrf`` of ``G_uu``, one ``dtrtrs`` for ``X = L_uu^-1 G_ux`` and
    ``P = G_xx - X'X``, symmetrized.  The counts are those of the kernels
    in :mod:`linalg` that these calls stand in for.
    """
    w = G.shape[0]
    nx = w - nu
    flops = 0
    for m, _, _, BA in edges:
        G += BA.T @ (fac.P[m] @ BA)
        flops += 2 * BA.shape[0] * w * (BA.shape[0] + w)
    if nu:
        count_flops(flops + nu ** 3 // 3)
        L = _chol(G[:nu, :nu], n)
        # L has a positive diagonal, so dtrtrs cannot fail
        X, _ = _trtrs(L, G[:nu, nu:], lower=1)
        P = G[nu:, nu:] - X.T @ X
        count_flops(nu * nu * nx + 2 * nx * nx * nu)
        col[:nu] = L
        col[nu:] = X.T
        fac.L_uu[n] = L
        fac.L_xu[n] = X.T
    else:
        count_flops(flops)
        P = G
        fac.L_uu[n] = np.zeros((0, 0))
        fac.L_xu[n] = np.zeros((nx, 0))
    fac.P[n] = fac.p_blocks[n, :nx, :nx]
    fac.P[n][...] = 0.5 * (P + P.T)


def _sqrt_node(fac, n, G, nu, col, edges, use_qr):
    """Square-root step at node n: the whole node block in factored form.

    Per edge ``W = chol(P_m)' BA``; then either ``G + sum W'W`` and one
    ``dpotrf`` or, on the QR route, one ``dpotrf`` of G and one QR of the
    stack ``[chol(G)'; W ...]``.  The trailing block of the factor is
    ``chol(P[n])``.
    """
    w = G.shape[0]
    W = [fac.L_P[m].T @ BA for m, _, _, BA in edges]
    flops = sum(2 * W_m.shape[0] ** 2 * w for W_m in W)
    if use_qr:
        count_flops(flops + w ** 3 // 3)
        L_M = _chol(G, n)
        try:
            L_G = qr_cholesky(np.vstack([L_M.T] + W)).T
        except LinalgError as exc:
            raise FactorizationFailed(
                f"Riccati factorization failed at stage {n}: {exc}", stage=n
            ) from exc
    else:
        for W_m in W:
            G += W_m.T @ W_m
            flops += 2 * w * w * W_m.shape[0]
        count_flops(flops + w ** 3 // 3)
        L_G = _chol(G, n)
    col[...] = L_G[:, :nu]
    fac.L_uu[n] = L_G[:nu, :nu]
    fac.L_xu[n] = L_G[nu:, :nu]
    fac.L_P[n] = fac.p_blocks[n, : w - nu, : w - nu]
    fac.L_P[n][...] = L_G[nu:, nu:]


def _p_apply(fac, vec):
    """``P_m @ vec_m`` for every edge block of a vector laid out like pi.

    One stacked product over the edges' slots of ``p_blocks``, two with
    ``chol(P_m)`` and its transpose on the square-root routes.
    """
    band = fac.view.band
    P = fac.p_blocks[1:]
    v = np.zeros(P.shape[0] * band.p_dim)
    v[band.p_pos] = vec
    v = v.reshape(P.shape[0], band.p_dim, 1)
    if fac.sqrt:
        v = P.transpose(0, 2, 1) @ v
    return (P @ v).ravel()[band.p_pos]


def riccati_solve(fac, qp, r_g, r_b, r_d, r_m):
    """Full-space Newton solution from a current factor and a 4-block RHS.

    Two band solves with the factor's matrix T, backward then forward (see
    the module docstring), between the flat fold of the right-hand side and
    the flat recovery of the slack and inequality components.  The step's
    v and pi parts go straight into one zeroed solution buffer, which the
    recovery completes.
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
    step = QpSolution(vw)
    np.add(_p_apply(fac, w[band.pi_pos] - r_b), s[band.pi_pos], out=step.pi)
    np.take(w, band.vpos, out=step.v)
    return recover(vw, fac.scales, fold, r_d, step)


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
