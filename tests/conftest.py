"""Shared random-instance builders and reference oracles for the tests.

All generators build feasible convex problems by construction: an interior
point is drawn first and every bound is placed around it.  Expected values in
the tests come either from closed-form hand computations, from the dense
full-KKT oracle in the package (which shares no code with the structured
factorizations), or from the independent helpers below.
"""

import numpy as np
import pytest
from hypothesis import settings

from mpcqp import DenseQp, OcpQp, OcpQpDim, TreeOcpQp, TreeOcpQpDim
from mpcqp.kkt_common import kkt_apply_vec
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
    nz = (nx0 if keep_x0 else 0) + n_u
    # variable offsets in z
    u_off = {}
    off = nx0 if keep_x0 else 0
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
        X[:, :nx0] = np.eye(nx0)
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
