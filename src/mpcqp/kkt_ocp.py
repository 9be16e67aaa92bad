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
node's outgoing edges as ``(child, dyn, pi_off)``), so visiting them in
reverse order reaches every node after all of its children; child
contributions are summed in multiplier order so results are reproducible.
Cost per node is cubic in nu + nx, so the sweep is linear in the horizon
length or node count; no fill-in appears outside the data blocks.

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

Factorization failures carry the offending stage (node) index; in balance
mode the caller allows a per-node retry through the QR route before
regularizing.

The vector solve runs the matching backward sweep (cost-to-go vectors and
feedforward terms), a forward rollout of states, inputs and edge multipliers
from the root along the edges, and the per-node recovery of slack and
inequality components in reverse elimination order.  Dual regularization is
not applied on this backend (the equality block stays exact); primal
regularization plus iterative refinement covers ill-conditioned cases.
"""

from __future__ import annotations

import numpy as np

from .errors import FactorizationFailed, LinalgError, NotPositiveDefinite
from .ipm_core import IpmArg
from .kkt_common import add_reduced_hessian, block_scales, fold_rhs, recover_block
from .linalg import cholesky_factor, matmul_acc, qr_cholesky, solve_triangular
from .view import QpSolution, make_view

__all__ = [
    "RiccatiFactor",
    "riccati_factor",
    "riccati_solve",
    "feedback_gains",
]


def _cho_solve(L, b):
    return solve_triangular(L, solve_triangular(L, b), transpose=True)


def _stage_hessian(st, nu, nx, cb, sc, reg):
    M = np.zeros((nu + nx, nu + nx))
    M[:nu, :nu] = st["R"]
    M[:nu, nu:] = st["S"]
    M[nu:, :nu] = st["S"].T
    M[nu:, nu:] = st["Q"]
    M = 0.5 * (M + M.T)
    M = add_reduced_hessian(cb, sc, M, effective=True)
    if reg:
        M[np.diag_indices_from(M)] += reg
    return M


def _ba(dyn):
    return np.hstack([dyn["B"], dyn["A"]])


class RiccatiFactor:
    """Backward Riccati factorization of one OCP or tree QP at one iterate."""

    def __init__(self, qp, view, variant):
        self.qp = qp
        self.view = view
        self.variant = variant
        n_node = view.n_node
        self.scales = [None] * n_node
        self.L_uu = [None] * n_node
        self.K = [None] * n_node
        self.P = [None] * n_node     # classical representation
        self.L_P = [None] * n_node   # square-root representation
        self.L_P0 = None
        self.qr_stages = []

    # cost-to-go applications, independent of the variant in use
    def p_apply(self, n, vec):
        if self.L_P[n] is not None:
            return self.L_P[n] @ (self.L_P[n].T @ vec)
        return self.P[n] @ vec

    def p0_solve(self, vec):
        L = self.L_P[0] if self.L_P[0] is not None else self.L_P0
        return _cho_solve(L, vec)

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


def riccati_factor(qp, iterate, variant=None, arg=None, use_qr=None,
                   stage_qr_fallback=None):
    """Run the backward factor sweep and return a reusable factor object.

    Works on an :class:`OcpQp` (a chain) and on a :class:`TreeOcpQp` alike.
    ``use_qr`` switches every node to the QR array algorithm (which implies
    the square-root algebra); ``stage_qr_fallback`` retries only the failing
    node through the QR route before giving up.

    Raises
    ------
    FactorizationFailed
        With the failing stage (node) index; the classical variant fails
        when a reduced input block is not positive definite, the square-root
        variant when a full node block is not.
    """
    arg = arg or IpmArg()
    variant = variant or arg.riccati_variant
    if use_qr is None:
        use_qr = arg.use_qr_always
    if stage_qr_fallback is None:
        stage_qr_fallback = arg.use_qr_fallback
    if variant not in ("classical", "square_root"):
        raise ValueError(f"unknown Riccati variant '{variant}'")
    vw = make_view(qp)
    d = qp.dim
    fac = RiccatiFactor(qp, vw, variant)
    sqrt_mode = variant == "square_root" or use_qr
    for n in range(vw.n_node - 1, -1, -1):
        cb = vw.blocks[n]
        sc = block_scales(cb, iterate.lam, iterate.t)
        fac.scales[n] = sc
        M = _stage_hessian(qp._stages[n], d.nu[n], d.nx[n], cb, sc, arg.reg_prim)
        try:
            _factor_node(fac, n, M, d.nu[n], sqrt_mode, use_qr)
        except NotPositiveDefinite as exc:
            if stage_qr_fallback and not use_qr:
                try:
                    _factor_node(fac, n, M, d.nu[n], True, True)
                    fac.qr_stages.append(n)
                    continue
                except LinalgError:
                    pass
            raise FactorizationFailed(
                f"Riccati factorization failed at stage {n}: {exc}", stage=n
            ) from exc
    if fac.variant == "classical" and fac.L_P[0] is None and d.nx[0]:
        try:
            fac.L_P0 = cholesky_factor(fac.P[0])
        except NotPositiveDefinite as exc:
            raise FactorizationFailed(
                f"cost-to-go matrix at stage 0 not positive definite: {exc}",
                stage=0,
            ) from exc
    return fac


def _factor_node(fac, n, M, nu, sqrt_mode, use_qr):
    """Factor one node; writes L_uu, K and the P representation at n."""
    edges = fac.view.out_edges[n]
    if sqrt_mode:
        W = []
        for m, dyn, _ in edges:
            L_next = fac.L_P[m]
            if L_next is None:
                # per-node QR retry inside a classical sweep
                L_next = cholesky_factor(fac.P[m])
            W.append(matmul_acc(1.0, L_next, _ba(dyn), 0.0, 0.0, transA=True))
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
        fac.K[n] = K
        fac.L_P[n] = L_P
        if fac.variant == "classical":
            # keep the explicit matrix so the parent's classical step can
            # keep consuming P directly
            fac.P[n] = L_P @ L_P.T
        return
    G = M
    for m, dyn, _ in edges:
        BA = _ba(dyn)
        T1 = matmul_acc(1.0, fac.P[m], BA, 0.0, 0.0)
        G = matmul_acc(1.0, BA, T1, 1.0, G, transA=True)
    G_uu = G[:nu, :nu]
    G_ux = G[:nu, nu:]
    G_xx = G[nu:, nu:]
    if nu:
        L_uu = cholesky_factor(G_uu)
        K = -solve_triangular(
            L_uu, solve_triangular(L_uu, G_ux), transpose=True
        )
        P = matmul_acc(1.0, G_ux, K, 1.0, G_xx, transA=True)
    else:
        L_uu = np.zeros((0, 0))
        K = np.zeros((0, G_xx.shape[0]))
        P = G_xx.copy()
    fac.L_uu[n] = L_uu
    fac.K[n] = K
    fac.P[n] = 0.5 * (P + P.T)


def riccati_solve(fac, qp, r_g, r_b, r_d, r_m):
    """Full-space Newton solution from a current factor and a 4-block RHS.

    Backward sweep of cost-to-go vectors and feedforward terms, forward
    rollout of states, inputs and edge multipliers from the root, then
    per-node recovery of slack and inequality components.
    """
    vw = fac.view
    d = qp.dim
    n_node = vw.n_node
    rhat = [None] * n_node
    stash = [None] * n_node
    for n in range(n_node):
        cb = vw.blocks[n]
        sl = slice(cb.c_off, cb.c_off + cb.nc)
        rhat[n], stash[n] = fold_rhs(
            cb, fac.scales[n],
            r_g[cb.w_off: cb.w_off + cb.nw],
            r_g[vw.nv + cb.s_off: vw.nv + cb.s_off + cb.ns],
            r_g[vw.nv + vw.ns_tot + cb.s_off: vw.nv + vw.ns_tot + cb.s_off + cb.ns],
            r_d[sl], r_m[sl],
        )
    pv = [None] * n_node
    kff = [None] * n_node
    for n in range(n_node - 1, -1, -1):
        nu = d.nu[n]
        rr = rhat[n][:nu]
        rq = rhat[n][nu:]
        for m, dyn, off in vw.out_edges[n]:
            e = fac.p_apply(m, r_b[off: off + d.nx[m]]) + pv[m]
            rr = rr + dyn["B"].T @ e
            rq = rq + dyn["A"].T @ e
        kff[n] = -_cho_solve(fac.L_uu[n], rr) if nu else np.zeros(0)
        pv[n] = rq + fac.K[n].T @ rr
    dy = np.zeros(vw.ny)
    dpi = np.zeros(vw.ne)
    xi = [None] * n_node
    xi[0] = -fac.p0_solve(pv[0]) if d.nx[0] else np.zeros(0)
    for n in range(n_node):
        nu = d.nu[n]
        nv_u = fac.K[n] @ xi[n] + kff[n] if nu else np.zeros(0)
        dy[vw.u_off[n]: vw.u_off[n] + nu] = nv_u
        dy[vw.x_off[n]: vw.x_off[n] + d.nx[n]] = xi[n]
        for m, dyn, off in vw.out_edges[n]:
            xi[m] = dyn["A"] @ xi[n] + dyn["B"] @ nv_u + r_b[off: off + d.nx[m]]
            dpi[off: off + d.nx[m]] = fac.p_apply(m, xi[m]) + pv[m]
    dlam = np.zeros(vw.nc)
    dt = np.zeros(vw.nc)
    for n in range(n_node):
        cb = vw.blocks[n]
        sl = slice(cb.c_off, cb.c_off + cb.nc)
        dw = dy[cb.w_off: cb.w_off + cb.nw]
        dsl, dsu, dlam_blk, dt_blk = recover_block(
            cb, fac.scales[n], dw, stash[n], r_d[sl]
        )
        dy[vw.nv + cb.s_off: vw.nv + cb.s_off + cb.ns] = dsl
        dy[vw.nv + vw.ns_tot + cb.s_off:
           vw.nv + vw.ns_tot + cb.s_off + cb.ns] = dsu
        dlam[sl] = dlam_blk
        dt[sl] = dt_blk
    return QpSolution(vw, dy, dpi, dlam, dt)


def feedback_gains(fac):
    """Stage feedback gain matrices K[0..N-1] of a factored OCP recursion.

    For an unconstrained problem at any iterate these are the familiar
    discrete-time linear-quadratic regulator gains; with constraints they are
    the gains of the inequality-augmented stage Hessians.
    """
    return [K.copy() for K in fac.K[:-1]]
