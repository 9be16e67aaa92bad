"""Shared random-instance builders and reference oracles for the tests.

All generators build feasible convex problems by construction: an interior
point is drawn first and every bound is placed around it.  Expected values in
the tests come either from closed-form hand computations, from the dense
full-KKT oracle in the package (which shares no code with the structured
factorizations), or from the independent helpers below.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from mpcqp import DenseQp, OcpQp, OcpQpDim, TreeOcpQp, TreeOcpQpDim
from mpcqp.errors import FactorizationFailed, LinalgError
from mpcqp.ipm_core import IpmArg
from mpcqp.kkt_common import kkt_apply_vec, view_scales
from mpcqp.kkt_ocp import _band
from mpcqp.linalg import (
    cholesky_factor,
    gram,
    matmul_acc,
    qr_cholesky,
    solve_triangular,
)
from mpcqp.view import QpSolution, make_view

# property tests draw a fixed example sequence, so every run checks the
# same cases and stays within a few seconds
settings.register_profile("mpcqp", derandomize=True, database=None,
                          deadline=None, max_examples=20)
settings.load_profile("mpcqp")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def maxabs(x):
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def rand_dense_qp(rng, nv=6, ne=2, nb=3, ng=2, ns=2, mask_first=True,
                  hess_scale=1.0):
    """Feasible dense QP with two-sided, partially soft constraints."""
    qp = DenseQp(nv, ne, nb, ng, ns)
    G = rng.standard_normal((nv, nv))
    qp.set_field("H", hess_scale * (G @ G.T) + np.eye(nv))
    qp.set_field("g", rng.standard_normal(nv))
    vstar = rng.standard_normal(nv)
    if ne:
        A = rng.standard_normal((ne, nv))
        qp.set_field("A", A)
        qp.set_field("b", A @ vstar)
    if nb:
        idxb = np.sort(rng.choice(nv, nb, replace=False))
        qp.set_field("idxb", idxb)
        qp.set_field("lb", vstar[idxb] - rng.uniform(0.5, 2.0, nb))
        qp.set_field("ub", vstar[idxb] + rng.uniform(0.5, 2.0, nb))
    if ng:
        C = rng.standard_normal((ng, nv))
        qp.set_field("C", C)
        qp.set_field("lg", C @ vstar - rng.uniform(0.5, 2.0, ng))
        qp.set_field("ug", C @ vstar + rng.uniform(0.5, 2.0, ng))
    if ns:
        idxs = np.sort(rng.choice(nb + ng, ns, replace=False))
        qp.set_field("idxs", idxs)
        qp.set_field("Zl", rng.uniform(0.5, 2.0, ns))
        qp.set_field("Zu", rng.uniform(0.5, 2.0, ns))
        qp.set_field("zl", rng.uniform(0.0, 0.5, ns))
        qp.set_field("zu", rng.uniform(0.0, 0.5, ns))
    if mask_first and nb + ng:
        maskl = np.ones(nb + ng)
        maskl[0] = 0.0
        qp.set_field("maskl", maskl)
    return qp


def rand_ocp_qp(rng, N=5, nx=4, nu=2, nb=None, ng=1, ns=1, fix_x0=False,
                stable=0.5, mask_one=True):
    """Feasible optimal-control QP around a randomly rolled trajectory."""
    nxl = [nx] * (N + 1)
    nul = [nu] * N + [0]
    if nb is None:
        nb = min(nu + nx, 3)
    nbl = [nu + nx if (fix_x0 and n == 0) else nb for n in range(N + 1)]
    nbl[N] = min(nb, nx)
    ngl = [ng] * (N + 1)
    nsl = [ns] * (N + 1)
    dim = OcpQpDim(N, nxl, nul, nbl, ngl, nsl)
    qp = OcpQp(dim)
    us = [rng.uniform(-1.0, 1.0, nul[n]) for n in range(N + 1)]
    xs = [rng.uniform(-1.0, 1.0, nx)]
    for n in range(N):
        A = stable * rng.standard_normal((nx, nx))
        B = rng.standard_normal((nx, nul[n]))
        b = rng.uniform(-0.2, 0.2, nx)
        qp.set_field("A", n, A)
        qp.set_field("B", n, B)
        qp.set_field("b", n, b)
        xs.append(A @ xs[n] + B @ us[n] + b)
    for n in range(N + 1):
        nw = nul[n] + nx
        G = rng.standard_normal((nw, nw))
        M = G @ G.T + np.eye(nw)
        qp.set_field("R", n, M[: nul[n], : nul[n]])
        qp.set_field("S", n, M[: nul[n], nul[n]:])
        qp.set_field("Q", n, M[nul[n]:, nul[n]:])
        qp.set_field("r", n, 0.3 * rng.standard_normal(nul[n]))
        qp.set_field("q", n, 0.3 * rng.standard_normal(nx))
        w = np.concatenate([us[n], xs[n]])
        if fix_x0 and n == 0:
            idxb = np.arange(nw)
            lb = np.concatenate([us[0] - 2.0, xs[0]])
            ub = np.concatenate([us[0] + 2.0, xs[0]])
        else:
            idxb = np.sort(rng.choice(nw, nbl[n], replace=False))
            lb = w[idxb] - rng.uniform(0.5, 2.0, nbl[n])
            ub = w[idxb] + rng.uniform(0.5, 2.0, nbl[n])
        qp.set_field("idxb", n, idxb)
        qp.set_field("lb", n, lb)
        qp.set_field("ub", n, ub)
        if ngl[n]:
            C = rng.standard_normal((ngl[n], nx))
            D = rng.standard_normal((ngl[n], nul[n]))
            qp.set_field("C", n, C)
            qp.set_field("D", n, D)
            cw = D @ us[n] + C @ xs[n]
            qp.set_field("lg", n, cw - rng.uniform(0.5, 2.0, ngl[n]))
            qp.set_field("ug", n, cw + rng.uniform(0.5, 2.0, ngl[n]))
        if nsl[n]:
            if fix_x0 and n == 0:
                # never soften the equal-bound initial-state rows
                pool = np.concatenate([
                    np.arange(nul[0]),
                    nbl[0] + np.arange(ngl[0]),
                ])
                idxs = np.sort(rng.choice(pool, nsl[n], replace=False))
            else:
                idxs = np.sort(rng.choice(nbl[n] + ngl[n], nsl[n],
                                          replace=False))
            qp.set_field("idxs", n, idxs)
            qp.set_field("Zl", n, rng.uniform(0.5, 2.0, nsl[n]))
            qp.set_field("Zu", n, rng.uniform(0.5, 2.0, nsl[n]))
            qp.set_field("zl", n, rng.uniform(0.0, 0.3, nsl[n]))
            qp.set_field("zu", n, rng.uniform(0.0, 0.3, nsl[n]))
        if mask_one and nbl[n] + ngl[n] and not (fix_x0 and n == 0):
            maskl = np.ones(nbl[n] + ngl[n])
            maskl[-1] = 0.0
            qp.set_field("maskl", n, maskl)
    return qp


def rand_mixed_ocp_qp(rng, nx, nu, ng, ns, fix_x0=False):
    """Feasible optimal-control QP with per-stage sizes ``nx``, ``nu``, ``ng``
    and ``ns`` (lists over stages 0..N; ``nu[N]`` may be nonzero).

    Each stage boxes a random subset of its (u, x) window, except that a
    fixed initial state boxes all of x0 with equal bounds (and softens none
    of those rows); soft rows are drawn from the other rows.
    """
    N = len(nx) - 1
    nw = [nu[n] + nx[n] for n in range(N + 1)]
    idxb = [np.sort(rng.choice(nw[n], int(rng.integers(nw[n] + 1)), replace=False))
            for n in range(N + 1)]
    if fix_x0:
        idxb[0] = np.union1d(idxb[0], nu[0] + np.arange(nx[0]))
    nb = [i.size for i in idxb]
    ns = [min(ns[n], nb[n] + ng[n] - (nx[0] if fix_x0 and n == 0 else 0))
          for n in range(N + 1)]
    qp = OcpQp(OcpQpDim(N, nx, nu, nb, ng, ns))
    us = [rng.uniform(-1.0, 1.0, nu[n]) for n in range(N + 1)]
    xs = [rng.uniform(-1.0, 1.0, nx[0])]
    for n in range(N):
        A = 0.5 * rng.standard_normal((nx[n + 1], nx[n]))
        B = rng.standard_normal((nx[n + 1], nu[n]))
        b = rng.uniform(-0.2, 0.2, nx[n + 1])
        for f, value in (("A", A), ("B", B), ("b", b)):
            qp.set_field(f, n, value)
        xs.append(A @ xs[n] + B @ us[n] + b)
    for n in range(N + 1):
        G = rng.standard_normal((nw[n], nw[n]))
        W = G @ G.T + np.eye(nw[n])
        w = np.concatenate([us[n], xs[n]])
        lb = w[idxb[n]] - rng.uniform(0.5, 2.0, nb[n])
        ub = w[idxb[n]] + rng.uniform(0.5, 2.0, nb[n])
        fixed = np.zeros(nb[n], dtype=bool)
        if fix_x0 and n == 0:
            fixed = idxb[0] >= nu[0]
            lb[fixed] = ub[fixed] = w[idxb[0][fixed]]
        C = rng.standard_normal((ng[n], nx[n]))
        D = rng.standard_normal((ng[n], nu[n]))
        cw = D @ us[n] + C @ xs[n]
        pool = np.concatenate([np.flatnonzero(~fixed), nb[n] + np.arange(ng[n])])
        for f, value in (("R", W[:nu[n], :nu[n]]), ("S", W[:nu[n], nu[n]:]),
                         ("Q", W[nu[n]:, nu[n]:]),
                         ("r", 0.3 * rng.standard_normal(nu[n])),
                         ("q", 0.3 * rng.standard_normal(nx[n])),
                         ("idxb", idxb[n]), ("lb", lb), ("ub", ub),
                         ("C", C), ("D", D),
                         ("lg", cw - rng.uniform(0.5, 2.0, ng[n])),
                         ("ug", cw + rng.uniform(0.5, 2.0, ng[n])),
                         ("idxs", np.sort(rng.choice(pool, ns[n], replace=False))),
                         ("Zl", rng.uniform(0.5, 2.0, ns[n])),
                         ("Zu", rng.uniform(0.5, 2.0, ns[n])),
                         ("zl", rng.uniform(0.0, 0.3, ns[n])),
                         ("zu", rng.uniform(0.0, 0.3, ns[n]))):
            qp.set_field(f, n, value)
    return qp


def rand_tree_qp(rng, parents, nx=2, nu=1, nb=2, ng=1, ns=1):
    """Feasible tree QP with identical per-node dimension pattern."""
    n_node = len(parents)
    dim = TreeOcpQpDim(
        parents,
        nx=[nx] * n_node, nu=[nu] * n_node,
        nb=[nb] * n_node, ng=[ng] * n_node, ns=[ns] * n_node,
    )
    qp = TreeOcpQp(dim)
    us = [rng.uniform(-1.0, 1.0, nu) for _ in range(n_node)]
    xs = [None] * n_node
    xs[0] = rng.uniform(-1.0, 1.0, nx)
    for m in range(1, n_node):
        p = parents[m]
        A = 0.5 * rng.standard_normal((nx, nx))
        B = rng.standard_normal((nx, nu))
        b = rng.uniform(-0.1, 0.1, nx)
        qp.set_field("A", m, A)
        qp.set_field("B", m, B)
        qp.set_field("b", m, b)
        xs[m] = A @ xs[p] + B @ us[p] + b
    for m in range(n_node):
        nw = nu + nx
        G = rng.standard_normal((nw, nw))
        M = G @ G.T + np.eye(nw)
        qp.set_field("R", m, M[:nu, :nu])
        qp.set_field("S", m, M[:nu, nu:])
        qp.set_field("Q", m, M[nu:, nu:])
        qp.set_field("r", m, 0.3 * rng.standard_normal(nu))
        qp.set_field("q", m, 0.3 * rng.standard_normal(nx))
        w = np.concatenate([us[m], xs[m]])
        idxb = np.sort(rng.choice(nw, nb, replace=False))
        qp.set_field("idxb", m, idxb)
        qp.set_field("lb", m, w[idxb] - rng.uniform(0.5, 2.0, nb))
        qp.set_field("ub", m, w[idxb] + rng.uniform(0.5, 2.0, nb))
        C = rng.standard_normal((ng, nx))
        D = rng.standard_normal((ng, nu))
        qp.set_field("C", m, C)
        qp.set_field("D", m, D)
        cw = D @ us[m] + C @ xs[m]
        qp.set_field("lg", m, cw - rng.uniform(0.5, 2.0, ng))
        qp.set_field("ug", m, cw + rng.uniform(0.5, 2.0, ng))
        if ns:
            idxs = np.sort(rng.choice(nb + ng, ns, replace=False))
            qp.set_field("idxs", m, idxs)
            qp.set_field("Zl", m, rng.uniform(0.5, 2.0, ns))
            qp.set_field("Zu", m, rng.uniform(0.5, 2.0, ns))
    return qp


def rand_iterate(rng, qp, spread=(0.1, 5.0)):
    """Strictly positive primal-dual point (not a solution) for KKT tests."""
    vw = make_view(qp)
    it = QpSolution(vw)
    it.y[:] = rng.standard_normal(vw.ny)
    it.pi[:] = rng.standard_normal(vw.ne)
    it.lam[:] = np.where(vw.act, rng.uniform(*spread, vw.nc), 0.0)
    it.t[:] = np.where(vw.act, rng.uniform(*spread, vw.nc), 0.0)
    return it


def add_reduced_hessian_ref(cb, sc, H):
    """Constraint terms of block ``cb`` added to a copy of its Hessian (reference).

    Box rows add their slack-eliminated coefficient to one diagonal entry
    each; general rows add the Gram matrix ``S' S`` of their rows scaled by
    the square roots of their coefficients, as the Gram kernel forms it.
    """
    g = sc.ge[cb.c_off: cb.c_off + 2 * cb.m]
    coef = g[: cb.m] + g[cb.m:]
    H = H.copy()
    if cb.nb:
        H[cb.idxb, cb.idxb] += coef[: cb.nb]
    if cb.ng:
        H = H + gram(np.sqrt(coef[cb.nb:])[:, None] * cb.Jg)
    return H


def stage_hessian_ref(st, nu, nx, cb, sc, reg):
    """Reduced node Hessian assembled from the raw stage data (reference).

    The Riccati factorization must produce the same bits from the view's
    flat base Hessians ``hess0``.
    """
    M = np.zeros((nu + nx, nu + nx))
    M[:nu, :nu] = st["R"]
    M[:nu, nu:] = st["S"]
    M[nu:, :nu] = st["S"].T
    M[nu:, nu:] = st["Q"]
    M = 0.5 * (M + M.T)
    M = add_reduced_hessian_ref(cb, sc, M)
    if reg:
        M[np.diag_indices_from(M)] += reg
    return M


class RiccatiFactorRef:
    """Factor object of :func:`riccati_factor_ref`; the band solve reads it."""

    def __init__(self, qp, view, iterate):
        self.qp = qp
        self.view = view
        self.scales = view_scales(view, iterate.lam, iterate.t)
        n_node = view.n_node
        self.L_uu = [None] * n_node
        self.L_col = [None] * n_node  # factor columns [L_uu; L_xu]
        self.K = [None] * n_node
        self.P = [None] * n_node     # classical representation
        self.L_P = [None] * n_node   # square-root representation
        self.ab = None               # band storage of the solve matrix T
        self.p_blocks = None         # per-node blocks: P, or chol(P) if sqrt
        self.sqrt = False
        self._pb = (None, None)      # the band solve's last r_b and P r_b

    def p_matrix(self, n):
        if self.P[n] is not None:
            return self.P[n].copy()
        return self.L_P[n] @ self.L_P[n].T


def riccati_factor_ref(qp, iterate, arg=None, use_qr=False, order=None):
    """The node-by-node factor sweep that the lean node kernels replaced.

    Per node: a copy of the base Hessian with the constraint terms added,
    kernel wrappers with their argument checks for every product, the
    factor columns stacked with ``hstack`` and the gains ``K`` solved
    eagerly.  The nodes are visited in descending order, or in ``order``,
    which must reach every node after its children.
    """
    arg = arg or IpmArg()
    vw = make_view(qp)
    d = qp.dim
    fac = RiccatiFactorRef(qp, vw, iterate)
    sqrt_mode = arg.riccati_variant == "square_root" or use_qr
    for n in range(vw.n_node - 1, -1, -1) if order is None else order:
        M = add_reduced_hessian_ref(vw.blocks[n], fac.scales, vw.node_hess[n])
        if arg.reg_prim:
            M[np.diag_indices_from(M)] += arg.reg_prim
        try:
            _factor_node_ref(fac, n, M, d.nu[n], sqrt_mode, use_qr)
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
    band = _band(vw)
    # the sweep's work-buffer layout: each node's factor columns column-major
    # at the start of its block, chol(P0) the trailing triangle of the root's
    work = np.zeros(vw.hess_off[-1])
    for off, L in zip(vw.hess_off, fac.L_col):
        work[off: off + L.size] = L.ravel(order="F")
    w0 = d.nu[0] + d.nx[0]
    work[: w0 * w0].reshape(w0, w0).T[d.nu[0]:, d.nu[0]:] = L_root
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = work[band.src]
    fac.ab = ab.T
    fac.p_blocks = np.zeros((vw.n_node, band.p_dim, band.p_dim))
    for n, B in enumerate(fac.L_P if sqrt_mode else fac.P):
        fac.p_blocks[n, : B.shape[0], : B.shape[1]] = B
    fac.sqrt = sqrt_mode
    return fac


def _factor_node_ref(fac, n, M, nu, sqrt_mode, use_qr):
    """Factor one node; writes L_uu, L_col, K and the P representation at n."""
    edges = fac.view.out_edges[n]
    if sqrt_mode:
        W = [matmul_acc(1.0, fac.L_P[m], ba_ref(dyn), 0.0, 0.0, transA=True)
             for m, dyn, _ in edges]
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
    for m, dyn, _ in edges:
        BA = ba_ref(dyn)
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


def riccati_solve_ref(fac, r_g, r_b, r_d, r_m):
    """Riccati vector solve by node loops, block by block (reference).

    The backward sweep of cost-to-go vectors and feedforward terms, the
    forward rollout from the root along the edges and the per-block folding
    and recovery, as the factor's band solve replaced them.  Reads only the
    factor's ``L_uu``, ``K``, ``p_matrix`` and scalings.
    """
    vw = fac.view
    d = vw.qp.dim
    sc = fac.scales
    nv, ns_tot, n_node = vw.nv, vw.ns_tot, vw.n_node
    w = np.zeros(vw.nc)
    np.divide(sc.lam * r_d - r_m, sc.t, out=w, where=vw.act)

    def rows_w(cb, v):
        out = np.empty(cb.m)
        out[: cb.nb] = v[cb.idxb]
        out[cb.nb:] = cb.Jg @ v
        return out

    def rows_w_t(cb, coeff):
        out = np.zeros(cb.nw)
        np.add.at(out, cb.idxb, coeff[: cb.nb])
        return out + cb.Jg.T @ coeff[cb.nb:]

    def cho_solve(L, b):
        return scipy.linalg.cho_solve((L, True), b)

    rhat, stash = [], []
    for cb in vw.blocks:
        m, ns, c = cb.m, cb.ns, cb.c_off
        g = sc.g[c: c + cb.nc]
        wb = w[c: c + cb.nc]
        sl = slice(nv + cb.s_off, nv + cb.s_off + ns)
        su = slice(nv + ns_tot + cb.s_off, nv + ns_tot + cb.s_off + ns)
        D_l, D_u = sc.D[cb.s_off: cb.s_off + ns], sc.D[ns_tot + cb.s_off:][:ns]
        rt_sl = r_g[sl] - wb[:m][cb.idxs] - wb[2 * m: 2 * m + ns]
        rt_su = r_g[su] - wb[m: 2 * m][cb.idxs] - wb[2 * m + ns:]
        fold = np.zeros(m)
        fold[cb.idxs] = (g[:m][cb.idxs] * rt_sl / D_l
                         - g[m: 2 * m][cb.idxs] * rt_su / D_u)
        rhat.append(r_g[cb.w_off: cb.w_off + cb.nw]
                    - rows_w_t(cb, wb[:m] - wb[m: 2 * m]) - rows_w_t(cb, fold))
        stash.append((g, wb, rt_sl, rt_su, D_l, D_u, sl, su))
    pv = [None] * n_node
    kff = [None] * n_node
    for n in range(n_node - 1, -1, -1):
        nu = d.nu[n]
        rr = rhat[n][:nu]
        rq = rhat[n][nu:]
        for m, dyn, off in vw.out_edges[n]:
            e = fac.p_matrix(m) @ r_b[off: off + d.nx[m]] + pv[m]
            rr = rr + dyn["B"].T @ e
            rq = rq + dyn["A"].T @ e
        kff[n] = -cho_solve(fac.L_uu[n], rr) if nu else np.zeros(0)
        pv[n] = rq + fac.K[n].T @ rr
    dy = np.zeros(vw.ny)
    dpi = np.zeros(vw.ne)
    xi = [None] * n_node
    if d.nx[0]:
        L0 = np.linalg.cholesky(fac.p_matrix(0))
        xi[0] = -cho_solve(L0, pv[0])
    else:
        xi[0] = np.zeros(0)
    for n in range(n_node):
        nu = d.nu[n]
        u = fac.K[n] @ xi[n] + kff[n] if nu else np.zeros(0)
        dy[vw.u_off[n]: vw.u_off[n] + nu] = u
        dy[vw.x_off[n]: vw.x_off[n] + d.nx[n]] = xi[n]
        for m, dyn, off in vw.out_edges[n]:
            xi[m] = dyn["A"] @ xi[n] + dyn["B"] @ u + r_b[off: off + d.nx[m]]
            dpi[off: off + d.nx[m]] = fac.p_matrix(m) @ xi[m] + pv[m]
    dlam = np.zeros(vw.nc)
    dt = np.zeros(vw.nc)
    for cb, (g, wb, rt_sl, rt_su, D_l, D_u, sl, su) in zip(vw.blocks, stash):
        m = cb.m
        base = rows_w(cb, dy[cb.w_off: cb.w_off + cb.nw])
        dsl = (-rt_sl - g[:m][cb.idxs] * base[cb.idxs]) / D_l
        dsu = (-rt_su + g[m: 2 * m][cb.idxs] * base[cb.idxs]) / D_u
        cy_lo = base.copy()
        cy_up = -base
        cy_lo[cb.idxs] += dsl
        cy_up[cb.idxs] += dsu
        cy = np.concatenate([cy_lo, cy_up, dsl, dsu])
        rows = slice(cb.c_off, cb.c_off + cb.nc)
        act = vw.act[rows]
        dlam[rows] = np.where(act, wb - g * cy, 0.0)
        dt[rows] = np.where(act, -r_d[rows] + cy, 0.0)
        dy[sl] = dsl
        dy[su] = dsu
    return QpSolution(vw, dy, dpi, dlam, dt)


def ba_ref(dyn):
    """``[B A]`` stack of one dynamics edge from the raw data (reference)."""
    return np.hstack([dyn["B"], dyn["A"]])


def _row_stages(qp):
    """Row data of every constraint block: the dense QP's fields or the stages."""
    return [qp._data] if qp.kind == "dense" else qp._stages


def hess_matrix_ref(qp):
    """Hessian over y = [v | sl | su], assembled block by block (reference)."""
    vw = make_view(qp)
    H = np.zeros((vw.ny, vw.ny))
    if qp.kind == "dense":
        H[: vw.nv, : vw.nv] = qp._data["H"]
    else:
        d = qp.dim
        for n, st in enumerate(qp._stages):
            uo, xo, nu, nx = vw.u_off[n], vw.x_off[n], d.nu[n], d.nx[n]
            H[uo: uo + nu, uo: uo + nu] = st["R"]
            H[uo: uo + nu, xo: xo + nx] = st["S"]
            H[xo: xo + nx, uo: uo + nu] = st["S"].T
            H[xo: xo + nx, xo: xo + nx] = st["Q"]
    for cb, st in zip(vw.blocks, _row_stages(qp)):
        sl = vw.nv + cb.s_off + np.arange(cb.ns)
        H[sl, sl] = st["Zl"]
        H[sl + vw.ns_tot, sl + vw.ns_tot] = st["Zu"]
    return H


def eq_matrix_ref(qp):
    """Equality matrix A over y, assembled edge by edge (reference)."""
    vw = make_view(qp)
    E = np.zeros((vw.ne, vw.ny))
    if qp.kind == "dense":
        E[:, : vw.nv] = qp._data["A"]
        return E
    d = qp.dim
    for (par, m, dyn), p in zip(vw.edges, vw.pi_off):
        rows = slice(p, p + d.nx[m])
        E[rows, vw.u_off[par]: vw.u_off[par] + d.nu[par]] = -dyn["B"]
        E[rows, vw.x_off[par]: vw.x_off[par] + d.nx[par]] = -dyn["A"]
        E[p + np.arange(d.nx[m]), vw.x_off[m] + np.arange(d.nx[m])] = 1.0
    return E


def row_constants_ref(qp):
    """``(act, d)`` of every inequality row, formed block by block (reference)."""
    act, d = [], []
    for st in _row_stages(qp):
        lo = np.concatenate([st["lb"], st["lg"]])
        up = np.concatenate([st["ub"], st["ug"]])
        act.append(np.concatenate([
            (st["maskl"] != 0.0) & np.isfinite(lo),
            (st["masku"] != 0.0) & np.isfinite(up),
            np.isfinite(st["sl_lb"]), np.isfinite(st["su_lb"]),
        ]))
        d.append(np.concatenate([lo, -up, st["sl_lb"], st["su_lb"]]))
    act = np.concatenate(act)
    return act, np.where(act, np.concatenate(d), 0.0)


def con_matrix_ref(qp, masked=True):
    """Inequality matrix C over y, assembled block by block (reference).

    With ``masked`` the deactivated rows are zero.
    """
    vw = make_view(qp)
    C = np.zeros((vw.nc, vw.ny))
    for cb, st in zip(vw.blocks, _row_stages(qp)):
        m, ns = cb.m, cb.ns
        base = np.zeros((m, vw.ny))
        for i, k in enumerate(st["idxb"]):
            base[i, cb.w_off + k] = 1.0
        if qp.kind == "dense":
            base[cb.nb:, : vw.nv] = st["C"]
        else:
            base[cb.nb:, cb.w_off: cb.w_off + cb.nw] = np.hstack([st["D"], st["C"]])
        lo = base.copy()
        up = -base
        sl_cols = vw.nv + cb.s_off + np.arange(ns)
        su_cols = sl_cols + vw.ns_tot
        lo[st["idxs"], sl_cols] = 1.0
        up[st["idxs"], su_cols] = 1.0
        r0 = cb.c_off
        C[r0: r0 + m] = lo
        C[r0 + m: r0 + 2 * m] = up
        C[r0 + 2 * m + np.arange(ns), sl_cols] = 1.0
        C[r0 + 2 * m + ns + np.arange(ns), su_cols] = 1.0
    if masked:
        C[~row_constants_ref(qp)[0]] = 0.0
    return C


def kkt_apply_blocks(qp, iterate, step):
    """Exact KKT matrix action on a step, split into the four residual blocks."""
    vw = make_view(qp)
    lam = np.where(vw.act, iterate.lam, 0.0)
    t = np.where(vw.act, iterate.t, 0.0)
    out = kkt_apply_vec(vw, lam, t, step.flat())
    ny, ne, nc = vw.ny, vw.ne, vw.nc
    return (
        out[:ny],
        out[ny: ny + ne],
        out[ny + ne: ny + ne + nc],
        out[ny + ne + nc:],
    )


# -- masked references of the interior point vector kernels -----------------
# The loop's kernels run over whole arrays because every iterate and step
# holds exact zeros on masked rows.  These are the masked forms they
# replaced, kept to check that the flat ones agree with them.

def duality_measure_ref(lam, t, act):
    """Average complementarity over the active rows (reference)."""
    lam, t = lam[act], t[act]
    return float(lam @ t) / lam.shape[0] if lam.shape[0] else 0.0


def max_step_ref(lam, t, dlam, dt, act, ftb=1.0):
    """Step length to the boundary, lam and t taken separately (reference)."""
    lam, t, dlam, dt = lam[act], t[act], dlam[act], dt[act]
    ratio = np.inf
    neg = dlam < 0.0
    if np.any(neg):
        ratio = min(ratio, float(np.min(-lam[neg] / dlam[neg])))
    neg = dt < 0.0
    if np.any(neg):
        ratio = min(ratio, float(np.min(-t[neg] / dt[neg])))
    return min(1.0, ftb * ratio)


def update_iterate_delta_ref(iterate, step, alpha, act, lam_min=0.0, t_min=0.0):
    """``iterate += alpha step`` part by part, clipped on active rows (reference)."""
    iterate.y += alpha * step.y
    iterate.pi += alpha * step.pi
    lam = iterate.lam + alpha * step.lam
    t = iterate.t + alpha * step.t
    iterate.lam[:] = np.where(act, np.maximum(lam, lam_min), lam)
    iterate.t[:] = np.where(act, np.maximum(t, t_min), t)
    return iterate


def residuals_ref(vw, sol):
    """``(r_g, r_b, r_d, r_m, mu)`` from the view's separate products (reference)."""
    lam = np.where(vw.act, sol.lam, 0.0)
    t = np.where(vw.act, sol.t, 0.0)
    r_g = vw.hess_y(sol.y) + vw.g - vw.at_pi(sol.pi) - vw.ct_lam(lam)
    r_b = -vw.a_y(sol.y) + vw.b
    r_d = np.where(vw.act, -vw.cy(sol.y) + vw.d + t, 0.0)
    r_m = np.where(vw.act, lam * t, 0.0)
    mu = float(lam @ t) / vw.n_act if vw.n_act else 0.0
    return r_g, r_b, r_d, r_m, mu


def kkt_apply_vec_ref(vw, lam, t, delta_flat):
    """KKT matrix action from the separate products, every row masked (reference)."""
    ny, ne, nc = vw.ny, vw.ne, vw.nc
    dy = delta_flat[:ny]
    dpi = delta_flat[ny: ny + ne]
    dlam = delta_flat[ny + ne: ny + ne + nc]
    dt = delta_flat[ny + ne + nc:]
    a_g = vw.hess_y(dy) - vw.at_pi(dpi) - vw.ct_lam(dlam)
    a_b = -vw.a_y(dy)
    a_d = np.where(vw.act, -vw.cy(dy) + dt, 0.0)
    a_m = np.where(vw.act, t * dlam + lam * dt, 0.0)
    return np.concatenate([a_g, a_b, a_d, a_m])


def ocp_chain_as_tree(qp):
    """Tree QP with a single chain carrying exactly the OCP QP's data."""
    d = qp.dim
    parents = [-1] + list(range(d.N))
    tdim = TreeOcpQpDim(parents, nx=list(d.nx), nu=list(d.nu),
                        nb=list(d.nb), ng=list(d.ng), ns=list(d.ns))
    tqp = TreeOcpQp(tdim)
    for n in range(d.N + 1):
        tqp._stages[n] = dict(qp._stages[n])
    for n in range(d.N):
        tqp._dyn[n + 1] = dict(qp._dyn[n])
    tqp._rev += 1
    return tqp


def soft_as_hard_dense(qp):
    """Rewrite a soft dense QP with the slacks as ordinary variables.

    Independent oracle for the slack-elimination path: the converted QP has
    ns = 0, variables (v, sl, su), the same KKT conditions and therefore the
    same solution, but it exercises none of the soft-constraint code.  Soft
    rows become pairs of one-sided general rows (lower with the sl column,
    upper with the su column); slack lower bounds become box rows.

    Returns ``(qp2, rowmap)`` where rowmap locates every original row in the
    converted problem: ``rowmap["hard_box"][i] -> box_pos``,
    ``rowmap["soft"][i] -> (slack_j, gen_lo_pos, gen_up_pos)``,
    ``rowmap["hard_gen"][i] -> gen_pos`` and
    ``rowmap["slack_bnd"][j] -> (sl_box_pos, su_box_pos)``.
    """
    nv, ne, nb, ng, ns = qp.nv, qp.ne, qp.nb, qp.ng, qp.ns
    d = {k: qp.get_field(k) for k in qp._data}
    nv2 = nv + 2 * ns
    soft = {int(r): j for j, r in enumerate(d["idxs"])}
    hard_box = [i for i in range(nb) if i not in soft]
    rowsC = []
    lgs = []
    ugs = []
    mls = []
    mus = []
    rowmap = {"hard_box": {}, "soft": {}, "hard_gen": {}, "slack_bnd": {}}

    def base_row(i):
        r = np.zeros(nv2)
        if i < nb:
            r[d["idxb"][i]] = 1.0
        else:
            r[:nv] = d["C"][i - nb]
        return r

    def bounds(i):
        if i < nb:
            return d["lb"][i], d["ub"][i], d["maskl"][i], d["masku"][i]
        return (d["lg"][i - nb], d["ug"][i - nb],
                d["maskl"][i], d["masku"][i])

    for i in range(nb + ng):
        lo, up, ml, mu_ = bounds(i)
        if i in soft:
            j = soft[i]
            r = base_row(i)
            r_lo = r.copy()
            r_lo[nv + j] = 1.0
            rowmap["soft"][i] = (j, len(rowsC), len(rowsC) + 1)
            rowsC.append(r_lo)          # row + sl >= lo (upper side masked)
            lgs.append(lo)
            ugs.append(np.inf)
            mls.append(ml)
            mus.append(0.0)
            r_up = r.copy()
            r_up[nv + ns + j] = -1.0
            rowsC.append(r_up)          # row - su <= up (lower side masked)
            lgs.append(-np.inf)
            ugs.append(up)
            mls.append(0.0)
            mus.append(mu_)
        elif i >= nb:
            rowmap["hard_gen"][i] = len(rowsC)
            rowsC.append(base_row(i))
            lgs.append(lo)
            ugs.append(up)
            mls.append(ml)
            mus.append(mu_)
    n_gen2 = len(rowsC)
    n_box2 = len(hard_box) + 2 * ns
    out = DenseQp(nv2, ne, n_box2, n_gen2, 0)
    H2 = np.zeros((nv2, nv2))
    H2[:nv, :nv] = d["H"]
    if ns:
        H2[range(nv, nv + ns), range(nv, nv + ns)] = d["Zl"]
        H2[range(nv + ns, nv2), range(nv + ns, nv2)] = d["Zu"]
    out.set_field("H", H2)
    out.set_field("g", np.concatenate([d["g"], d["zl"], d["zu"]]))
    if ne:
        A2 = np.zeros((ne, nv2))
        A2[:, :nv] = d["A"]
        out.set_field("A", A2)
        out.set_field("b", d["b"])
    idxb2 = np.array(
        [d["idxb"][i] for i in hard_box] + list(range(nv, nv2)), dtype=int
    )
    lb2 = np.concatenate([
        np.array([d["lb"][i] for i in hard_box]), d["sl_lb"], d["su_lb"],
    ])
    ub2 = np.concatenate([
        np.array([d["ub"][i] for i in hard_box]), np.full(2 * ns, np.inf),
    ])
    ml2 = np.concatenate([
        np.array([d["maskl"][i] for i in hard_box]),
        np.isfinite(np.concatenate([d["sl_lb"], d["su_lb"]])).astype(float),
    ])
    mu2 = np.concatenate([
        np.array([d["masku"][i] for i in hard_box]), np.zeros(2 * ns),
    ])
    order = np.argsort(idxb2)
    inv = np.empty(len(order), dtype=int)
    inv[order] = np.arange(len(order))
    for pos, i in enumerate(hard_box):
        rowmap["hard_box"][i] = int(inv[pos])
    for j in range(ns):
        rowmap["slack_bnd"][j] = (int(inv[len(hard_box) + j]),
                                  int(inv[len(hard_box) + ns + j]))
    out.set_field("idxb", idxb2[order])
    out.set_field("lb", lb2[order])
    out.set_field("ub", ub2[order])
    if n_gen2:
        out.set_field("C", np.array(rowsC))
        out.set_field("lg", np.array(lgs))
        out.set_field("ug", np.array(ugs))
    out.set_field("maskl", np.concatenate([ml2[order], np.array(mls)])
                  if n_gen2 else ml2[order])
    out.set_field("masku", np.concatenate([mu2[order], np.array(mus)])
                  if n_gen2 else mu2[order])
    return out, rowmap


def prediction_matrix_hessian(qp, keep_x0):
    """Condensed Hessian by explicit prediction-matrix assembly (oracle).

    Builds the map T from z to the stacked (u_all, x_all) vector and forms
    T' Mbar T with the block stage cost Mbar; cubic cost, used only to check
    the backward-recursion condensing.
    """
    d = qp.dim
    N = d.N
    nx0 = d.nx[0]
    n_u = int(sum(d.nu))
    nz = n_u + (nx0 if keep_x0 else 0)
    # variable offsets in z = [u_0 | ... | u_N | x0 (if kept)]
    u_off = {}
    off = 0
    for n in range(N + 1):
        if d.nu[n]:
            u_off[n] = off
            off += d.nu[n]
    # stacked (u, x) offsets
    xu_off = {}
    off2 = 0
    for n in range(N + 1):
        xu_off[("u", n)] = off2
        off2 += d.nu[n]
        xu_off[("x", n)] = off2
        off2 += d.nx[n]
    T = np.zeros((off2, nz))
    const = np.zeros(off2)
    # u rows are unit maps
    for n in range(N + 1):
        if d.nu[n]:
            T[xu_off[("u", n)]: xu_off[("u", n)] + d.nu[n],
              u_off[n]: u_off[n] + d.nu[n]] = np.eye(d.nu[n])
    # x rows by forward substitution
    X = np.zeros((nx0, nz))
    cvec = np.zeros(nx0)
    if keep_x0:
        X[:, n_u:] = np.eye(nx0)
    else:
        st0 = qp._stages[0]
        x0hat = np.full(nx0, np.nan)
        for i, k in enumerate(st0["idxb"]):
            if k >= d.nu[0]:
                x0hat[k - d.nu[0]] = st0["lb"][i]
        cvec = x0hat
    for n in range(N + 1):
        T[xu_off[("x", n)]: xu_off[("x", n)] + d.nx[n]] = X
        const[xu_off[("x", n)]: xu_off[("x", n)] + d.nx[n]] = cvec
        if n < N:
            A = qp._dyn[n]["A"]
            B = qp._dyn[n]["B"]
            Xn = A @ X
            if d.nu[n]:
                Xn[:, u_off[n]: u_off[n] + d.nu[n]] += B
            cvec = A @ cvec + qp._dyn[n]["b"]
            X = Xn
    Mbar = np.zeros((off2, off2))
    for n in range(N + 1):
        uo, xo = xu_off[("u", n)], xu_off[("x", n)]
        st = qp._stages[n]
        Mbar[uo: uo + d.nu[n], uo: uo + d.nu[n]] = st["R"]
        Mbar[uo: uo + d.nu[n], xo: xo + d.nx[n]] = st["S"]
        Mbar[xo: xo + d.nx[n], uo: uo + d.nu[n]] = st["S"].T
        Mbar[xo: xo + d.nx[n], xo: xo + d.nx[n]] = st["Q"]
    return T.T @ Mbar @ T


class CondensingMapRef:
    """Map of :func:`condense_ref`: the per-stage prediction and row routes."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _cost_recursion_ref(qp):
    """Backward P/Y sweep stage by stage; returns (P list, Y list)."""
    N = qp.dim.N
    P = [None] * (N + 1)
    Y = [None] * N
    P[N] = 0.5 * (qp._stages[N]["Q"] + qp._stages[N]["Q"].T)
    for n in range(N - 1, -1, -1):
        dyn = qp._dyn[n]
        PA = matmul_acc(1.0, P[n + 1], dyn["A"], 0.0, 0.0)
        PB = matmul_acc(1.0, P[n + 1], dyn["B"], 0.0, 0.0)
        Y[n] = matmul_acc(1.0, dyn["A"], PB, 0.0, 0.0, transA=True) \
            + qp._stages[n]["S"].T
        Pn = matmul_acc(1.0, dyn["A"], PA, 1.0, qp._stages[n]["Q"], transA=True)
        P[n] = 0.5 * (Pn + Pn.T)
    return P, Y


def condense_ref(qp, keep_x0):
    """Full condensing stage by stage, the loop the stacked runs replaced.

    The prediction rolls forward over all columns, the Hessian is
    accumulated one stage's couplings at a time with ``+=`` and symmetrized
    by ``0.5 (H + H')``, and the rows are built one OCP row at a time: box
    rows in z order, then each stage's state box rows and general rows,
    stage by stage.  Each row carries its OCP row number (the view's row
    numbering), by which tests match it whatever the dense row order.
    ``keep_x0=False`` takes the initial state from the stage-0 equal-bound
    box rows.
    """
    d = qp.dim
    N = d.N
    st0 = qp._stages[0]
    x0hat = np.full(d.nx[0], np.nan)
    for i, k in enumerate(st0["idxb"]):
        if k >= d.nu[0] and st0["lb"][i] == st0["ub"][i]:
            x0hat[k - d.nu[0]] = st0["lb"][i]
    u_off = [None] * (N + 1)
    off = 0
    for n in range(N + 1):
        if d.nu[n]:
            u_off[n] = off
            off += d.nu[n]
    x0_off = off
    nx0 = d.nx[0]
    nv = off + nx0 if keep_x0 else off
    pred = [np.zeros((d.nx[n], nv)) for n in range(N + 1)]
    gamma = [np.zeros(d.nx[n]) for n in range(N + 1)]
    if keep_x0:
        pred[0][:, x0_off:] = np.eye(nx0)
    else:
        gamma[0][:] = x0hat
    for n in range(N):
        dyn = qp._dyn[n]
        pred[n + 1][:] = matmul_acc(1.0, dyn["A"], pred[n], 0.0, 0.0)
        if d.nu[n]:
            pred[n + 1][:, u_off[n]: u_off[n] + d.nu[n]] += dyn["B"]
        gamma[n + 1][:] = dyn["A"] @ gamma[n] + dyn["b"]
    P, Y = _cost_recursion_ref(qp)
    beta = [None] * (N + 1)
    beta[N] = qp._stages[N]["q"] + qp._stages[N]["Q"] @ gamma[N]
    for n in range(N - 1, -1, -1):
        beta[n] = (qp._stages[n]["q"] + qp._stages[n]["Q"] @ gamma[n]
                   + qp._dyn[n]["A"].T @ beta[n + 1])
    Hc = np.zeros((nv, nv))
    gc = np.zeros(nv)
    if keep_x0:
        Hc[x0_off:, x0_off:] = P[0]
        gc[x0_off:] = beta[0]
    for j in range(N + 1):
        nuj = d.nu[j]
        if not nuj:
            continue
        oj = u_off[j]
        stj = qp._stages[j]
        if j < N:
            Bj = qp._dyn[j]["B"]
            Hc[oj: oj + nuj, oj: oj + nuj] = stj["R"] + matmul_acc(
                1.0, Bj, P[j + 1] @ Bj, 0.0, 0.0, transA=True)
            cross = Y[j]
            gc[oj: oj + nuj] = stj["r"] + stj["S"] @ gamma[j] + Bj.T @ beta[j + 1]
        else:
            Hc[oj: oj + nuj, oj: oj + nuj] = stj["R"]
            cross = stj["S"].T
            gc[oj: oj + nuj] = stj["r"] + stj["S"] @ gamma[j]
        cols = pred[j].T @ cross
        Hc[:, oj: oj + nuj] += cols
        Hc[oj: oj + nuj, :] += cols.T
    Hc = 0.5 * (Hc + Hc.T)
    # rows, one OCP row at a time, in view row numbering (box rows of every
    # stage first, then general rows): box rows as (z column, row, lb, ub),
    # general rows as (coefficients, lower, upper, row)
    vw = make_view(qp)
    gen_row0 = np.cumsum(d.ng) - d.ng + vw._nb
    box_row0 = np.cumsum(d.nb) - d.nb
    box, gen = [], []
    for n in range(N + 1):
        st = qp._stages[n]
        for i, k in enumerate(st["idxb"]):
            r = box_row0[n] + i
            if k < d.nu[n]:
                box.append((u_off[n] + k, r, st["lb"][i], st["ub"][i]))
            elif n == 0 and keep_x0:
                box.append((x0_off + k - d.nu[0], r, st["lb"][i], st["ub"][i]))
            elif n:
                s = gamma[n][k - d.nu[n]]
                gen.append((pred[n][k - d.nu[n]], st["lb"][i] - s,
                            st["ub"][i] - s, r))
        for i in range(d.ng[n]):
            row = st["C"][i] @ pred[n]
            if d.nu[n]:
                row[u_off[n]: u_off[n] + d.nu[n]] += st["D"][i]
            s = st["C"][i] @ gamma[n]
            gen.append((row, st["lg"][i] - s, st["ug"][i] - s, gen_row0[n] + i))
    box.sort()
    return CondensingMapRef(
        H=Hc, g=gc, idxb=np.array([b[0] for b in box], dtype=int),
        box_rows=np.array([b[1] for b in box], dtype=int),
        lb=np.array([b[2] for b in box]), ub=np.array([b[3] for b in box]),
        C=np.array([g[0] for g in gen]).reshape(len(gen), nv),
        lg=np.array([g[1] for g in gen]), ug=np.array([g[2] for g in gen]),
        gen_rows=np.array([g[3] for g in gen], dtype=int),
        keep_x0=keep_x0, x0hat=x0hat, nx0=nx0, u_off=u_off, nv=nv,
        pred=pred, gamma=gamma)


def expand_ref(z, lam, qp, cref):
    """States by the dynamics rollout from the dense point z, and the
    dynamics multipliers by the stage-by-stage costate recursion.

    ``lam`` is the OCP multiplier vector the dense one scatters to.
    Returns ``(v, pi)`` of the OCP solution.
    """
    d = qp.dim
    N = d.N
    sol = QpSolution(make_view(qp))
    sol.lam[:] = lam
    x = z[cref.nv - cref.nx0:].copy() if cref.keep_x0 else cref.x0hat.copy()
    sol.x(0)[:] = x
    for n in range(N + 1):
        if d.nu[n]:
            sol.u(n)[:] = z[cref.u_off[n]: cref.u_off[n] + d.nu[n]]
        if n < N:
            dyn = qp._dyn[n]
            x = dyn["A"] @ x + dyn["B"] @ sol.u(n) + dyn["b"]
            sol.x(n + 1)[:] = x
    vw = sol._view
    ct = vw.ct_lam(sol.lam)
    for m in range(N, 0, -1):
        st = qp._stages[m]
        pi_m1 = (st["Q"] @ sol.x(m) + st["S"].T @ sol.u(m) + st["q"]
                 - ct[vw.x_off[m]: vw.x_off[m] + d.nx[m]])
        if m < N:
            pi_m1 = pi_m1 + qp._dyn[m]["A"].T @ sol.pi_stage(m)
        sol.pi_stage(m - 1)[:] = pi_m1
    return sol.v.copy(), sol.pi.copy()


def ref_sub_qp(qp, n0, n1):
    """Stages n0..n1-1 of ``qp`` as an OCP QP of their own, the reference
    for one block of partial condensing.

    The stages share ``qp``'s stage and dynamics data.  When n1 <= N a
    zero-cost terminal placeholder without rows holds x_{n1}; with
    n1 = N + 1 the block ends with ``qp``'s own terminal stage.
    """
    d = qp.dim
    stages = list(range(n0, min(n1, d.N + 1)))
    dims = [[a[n] for n in stages] for a in (d.nx, d.nu, d.nb, d.ng, d.ns)]
    if n1 <= d.N:
        for dim, tail in zip(dims, (d.nx[n1], 0, 0, 0, 0)):
            dim.append(tail)
    sub = OcpQp(OcpQpDim(len(dims[0]) - 1, *dims))
    for i, n in enumerate(stages):
        sub._stages[i] = dict(qp._stages[n])
        if i < sub.dim.N:
            sub._dyn[i] = dict(qp._dyn[n])
    sub._rev += 1
    return sub


def shift_guess_ref(qp, view, sol, N):
    """Stage-by-stage form of ``mass_spring._shift_guess``: the same guess,
    written as one accessor copy per stage and per initial-state row."""
    g = QpSolution(view)
    g.y[:] = sol.y
    g.pi[:] = sol.pi
    g.lam[:] = sol.lam
    g.t[:] = sol.t
    for n in range(N - 1):
        g.x(n)[:] = sol.x(n + 1)
        if g.u(n).shape == sol.u(n + 1).shape:
            g.u(n)[:] = sol.u(n + 1)
        g.pi_stage(n)[:] = sol.pi_stage(n + 1)
        if g.lam_stage(n).shape == sol.lam_stage(n + 1).shape:
            g.lam_stage(n)[:] = sol.lam_stage(n + 1)
            g.t_stage(n)[:] = sol.t_stage(n + 1)
    g.x(N - 1)[:] = sol.x(N)
    dyn = qp._dyn[N - 1]
    g.x(N)[:] = dyn["A"] @ g.x(N - 1) + dyn["B"] @ g.u(N - 1) + dyn["b"]
    cb = view.blocks[0]
    nu0 = qp.dim.nu[0]
    xrows = [(i, k - nu0) for i, k in enumerate(cb.idxb) if k >= nu0]
    if xrows:
        lam0 = g.lam_stage(0)
        t0 = g.t_stage(0)
        for i, _ in xrows:
            lam0[i] = 0.0
            lam0[cb.m + i] = 0.0
        gap = view.residuals(g).r_g[view.x_off[0]: view.x_off[0] + qp.dim.nx[0]]
        for i, c in xrows:
            if gap[c] >= 0.0:
                lam0[i] = gap[c]
            else:
                lam0[cb.m + i] = -gap[c]
            t0[i] = 0.0
            t0[cb.m + i] = 0.0
    return g
