"""Condensing: state elimination between the structured and dense QP types.

Full condensing eliminates every state except (optionally) the one at stage
0, leaving a dense QP over ``z = (u_0, ..., u_N?, x0?)`` whose minimizers
coincide with the original inputs.  A kept initial state goes after the
inputs, so ``z`` is in the stage order ``(u, x)``.  The condensed Hessian
is built by a backward recursion with the flavor of a Riccati sweep but
without any minimization:

    P[N] = Q[N]
    Y[n] = A[n]' P[n+1] B[n] + S[n]'
    P[n] = Q[n] + A[n]' P[n+1] A[n]

    H[u_i, u_i] = R_i + B_i' P[i+1] B_i
    H[u_i, u_j] = (dx_j/du_i)' Y[j]              (i < j)
    H[x0,  u_j] = (dx_j/dx0)'  Y[j]
    H[x0,  x0 ] = P[0]

with the input-to-state sensitivities accumulated forward.  The cost is
quadratic in the horizon and cubic in the state dimension.  Two variants
mirror the Riccati ones: the classical recursion propagates P explicitly
(and tolerates indefinite stage cost), the square-root variant propagates
chol(P) through QR triangularization and requires positive definite state
costs.

Constraint routing works on the OCP view's row table (``_rows``, ``_soft``,
see :class:`view.ProblemView`), with index arrays and no per-row step.  A
map from v to z columns decides which box rows stay box rows: input rows,
and the initial state's rows when x0 is kept.  With x0 eliminated, its
stage-0 rows are dropped.  Every other state box row becomes a dense general
row whose coefficients are its row of the prediction, gathered from the
stacked ``(sum nx, nz)`` prediction; a stage's general rows are
``C_n pred_n`` with ``D_n`` added on the stage's inputs.  The dense rows are
the box rows in z order, then the general rows stage by stage, each stage's
state box rows ahead of its general rows.  Bounds, masks and soft-constraint
data are gathered through the same positions.  With ``keep_x0=False`` the
initial state must be fully fixed by equal-bound box rows; those rows are
dropped from the dense QP and their multipliers are reconstructed during
expansion from the stage-0 stationarity gap.

Expansion rebuilds states by rolling the dynamics forward and scatters the
dense multipliers, inequality slacks and soft slacks to the OCP positions
the map recorded (``lam_pos``, ``slack_pos``).  The dynamics multipliers
follow from the backward costate recursion

    pi[m-1] = Q_m x_m + S_m' u_m + q_m + A_m' pi[m] - (C' lam)_{x_m}.

Partial condensing applies the same machinery per block of ``N1`` stages
(keeping each block's initial state, as required), producing an
optimal-control QP with horizon ``ceil(N / N1)``; the last block is shorter
when N1 does not divide N.  A condensed block is already a stage: its
variable ``z = (u, x0)`` is the new stage's ``(u, x)`` window, its box rows
(in ``idxb`` order), general rows and soft rows are the stage's rows as they
stand, and its terminal prediction is the stage's ``[B A]``.  So no row is
permuted either way.  Expansion is blockwise: each block's dense solution is
the stage's slices of the short-horizon solution, and block-boundary states
and dynamics multipliers are taken verbatim from it.  A block's stages are
contiguous in every part of the full solution, so the blocks' expanded
parts, followed by the terminal stage's, are the full solution as it is
laid out.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CondenseError, DimensionMismatch, InvalidBlockSize
from .ipm_core import RICCATI_VARIANTS
from .linalg import cholesky_factor, matmul_acc, qr_cholesky
from .qp_data import ROW_FIELDS, DenseQp, OcpQp, OcpQpDim
from .view import DenseView, QpSolution, _ranges, make_view

__all__ = [
    "CondensingMap",
    "PartialCondensingMap",
    "condense",
    "expand_solution",
    "partial_condense",
    "partial_expand",
]

@dataclass
class CondensingMap:
    """Index maps that route data and solutions across one condensing."""

    keep_x0: bool
    x0hat: object
    nx0: int
    u_off: list
    nv: int
    pred: list          # per stage: (nx_n, nv) prediction operator, rows of one stack
    gamma: list         # per stage: constant part of the prediction, likewise
    lam_pos: np.ndarray     # OCP lam/t position of every dense lam/t entry
    slack_pos: np.ndarray   # OCP slack index of every dense slack
    fix_rows: np.ndarray    # stage-0 box rows dropped with the initial state


@dataclass
class _BlockCond:
    n0: int
    n1: int
    sub_qp: OcpQp
    sub_map: CondensingMap
    view: DenseView        # view of the block's condensed dense QP


@dataclass
class PartialCondensingMap:
    """Blockwise condensing maps, one per stage of the condensed QP."""

    blocks: list = field(default_factory=list)


def _detect_fixed_x0(qp):
    """(all_fixed, x0hat, fix_rows) from the stage-0 equal-bound box rows."""
    st = qp._stages[0]
    nu0, nb0 = qp.dim.nu[0], qp.dim.nb[0]
    idxb, lb = st["idxb"], st["lb"]
    fix = ((idxb >= nu0) & (lb == st["ub"]) & np.isfinite(lb)
           & (st["maskl"][:nb0] != 0.0) & (st["masku"][:nb0] != 0.0))
    x0hat = np.full(qp.dim.nx[0], np.nan)
    x0hat[idxb[fix] - nu0] = lb[fix]
    return not np.isnan(x0hat).any(), x0hat, np.flatnonzero(fix)


def _cost_recursion(qp, variant):
    """Backward P/Y sweep; returns (P list, Y list) with P explicit."""
    d = qp.dim
    N = d.N
    P = [None] * (N + 1)
    Y = [None] * N
    if variant == "square_root":
        U = [None] * (N + 1)
        U[N] = cholesky_factor(qp._stages[N]["Q"]).T
        P[N] = U[N].T @ U[N]
        for n in range(N - 1, -1, -1):
            dyn = qp._dyn[n]
            UA = matmul_acc(1.0, U[n + 1], dyn["A"], 0.0, 0.0)
            UB = matmul_acc(1.0, U[n + 1], dyn["B"], 0.0, 0.0)
            Y[n] = matmul_acc(1.0, UA, UB, 0.0, 0.0, transA=True) \
                + qp._stages[n]["S"].T
            Uq = cholesky_factor(qp._stages[n]["Q"]).T
            U[n] = qr_cholesky(np.vstack([Uq, UA]))
            P[n] = U[n].T @ U[n]
        return P, Y
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


def condense(qp, keep_x0=None, variant="classical"):
    """Convert an optimal-control QP into an equivalent dense QP.

    ``keep_x0=None`` keeps the initial state as a variable unless it is
    fully fixed by equal-bound box rows; ``keep_x0=False`` requires that and
    eliminates it.  Returns ``(dense_qp, condensing_map)``.
    """
    if not isinstance(qp, OcpQp):
        raise TypeError("condense expects an OcpQp")
    if variant not in RICCATI_VARIANTS:
        raise ValueError(f"unknown condensing variant '{variant}'")
    d = qp.dim
    N = d.N
    all_fixed, x0hat, fix_rows = _detect_fixed_x0(qp)
    if keep_x0 is None:
        keep_x0 = not all_fixed
    if not keep_x0 and not all_fixed:
        raise CondenseError(
            "keep_x0=False requires every initial-state component fixed "
            "by active equal-bound box rows"
        )
    # z layout: [u_0 | u_1 | ... | x0 (if kept)], the stage order (u, x)
    u_off = [None] * (N + 1)
    off = 0
    for n in range(N + 1):
        if d.nu[n]:
            u_off[n] = off
            off += d.nu[n]
    x0_off = off
    nx0 = d.nx[0]
    nv = off + nx0 if keep_x0 else off
    # sensitivities and affine parts: every stage's rows of one stack
    x_end = np.cumsum(d.nx)
    pred_all = np.zeros((x_end[-1], nv))
    gamma_all = np.zeros(x_end[-1])
    rows_of = [slice(e - k, e) for e, k in zip(x_end.tolist(), d.nx)]
    pred = [pred_all[r] for r in rows_of]
    gamma = [gamma_all[r] for r in rows_of]
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
    P, Y = _cost_recursion(qp, variant)
    # costate of the affine part
    beta = [None] * (N + 1)
    beta[N] = qp._stages[N]["q"] + qp._stages[N]["Q"] @ gamma[N]
    for n in range(N - 1, -1, -1):
        beta[n] = (
            qp._stages[n]["q"]
            + qp._stages[n]["Q"] @ gamma[n]
            + qp._dyn[n]["A"].T @ beta[n + 1]
        )
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
                1.0, Bj, P[j + 1] @ Bj, 0.0, 0.0, transA=True
            )
            cross = Y[j]
            gc[oj: oj + nuj] = (
                stj["r"] + stj["S"] @ gamma[j] + Bj.T @ beta[j + 1]
            )
        else:
            Hc[oj: oj + nuj, oj: oj + nuj] = stj["R"]
            cross = stj["S"].T
            gc[oj: oj + nuj] = stj["r"] + stj["S"] @ gamma[j]
        # couplings of u_j with x0 and with earlier inputs, through dx_j/dz
        cols = pred[j].T @ cross  # (nv, nuj): includes x0 block and u_i, i<j
        Hc[:, oj: oj + nuj] += cols
        Hc[oj: oj + nuj, :] += cols.T
    Hc = 0.5 * (Hc + Hc.T)
    # ---- constraints, routed through the view's row table ----
    vw = make_view(qp)
    m, rows, ns = vw._m, vw._rows, vw.ns_tot
    # z column of every v entry that stays a variable, prediction row of
    # every state entry; -1 elsewhere
    zcol = np.full(vw.nv, -1)
    zcol[_ranges(np.array(vw.u_off), np.array(d.nu))] = np.arange(x0_off)
    if keep_x0:
        zcol[vw.x_off[0]: vw.x_off[0] + nx0] = np.arange(x0_off, nv)
    xrow = np.full(vw.nv, -1)
    xrow[_ranges(np.array(vw.x_off), np.array(d.nx))] = np.arange(x_end[-1])
    zb, xb = zcol[vw.box_col], xrow[vw.box_col]
    box = np.flatnonzero(zb >= 0)
    box = box[np.argsort(zb[box], kind="stable")]
    # the general rows: state box rows past stage 0, then every general row
    sbox = np.flatnonzero(xb >= nx0)
    gen = np.concatenate([sbox, np.arange(vw._nb, m)])
    Cg = np.empty((gen.size, nv))
    shift = np.empty(gen.size)
    np.take(pred_all, xb[sbox], axis=0, out=Cg[: sbox.size])
    np.take(gamma_all, xb[sbox], out=shift[: sbox.size])
    k = sbox.size
    for n in range(N + 1):
        if d.ng[n]:
            st = qp._stages[n]
            Cn = Cg[k: k + d.ng[n]]
            np.matmul(st["C"], pred[n], out=Cn)
            if d.nu[n]:
                Cn[:, u_off[n]: u_off[n] + d.nu[n]] += st["D"]
            shift[k: k + d.ng[n]] = st["C"] @ gamma[n]
            k += d.ng[n]
    if m > vw._nb:
        # stage by stage, each stage's state rows first
        stage = np.concatenate([np.repeat(np.arange(N + 1), d.nb)[sbox],
                                np.repeat(np.arange(N + 1), d.ng)])
        order = np.argsort(stage, kind="stable")
        gen, Cg, shift = gen[order], Cg[order], shift[order]
    # dense row -> OCP row, and the lam/t positions of its two sides
    src = np.concatenate([box, gen])
    lo_pos, up_pos = rows[src], rows[m + src]
    dense_row = np.full(vw.nc, -1)
    dense_row[lo_pos] = np.arange(src.size)
    soft_row = dense_row[vw._soft[:ns]]      # dense row of every OCP slack
    if np.any(soft_row < 0):
        raise CondenseError(
            "soft initial-state fixing rows are not supported with keep_x0=False"
        )
    slack_pos = np.argsort(soft_row)
    nb_c = box.size
    dense = DenseQp(nv, ne=0, nb=nb_c, ng=gen.size, ns=ns)
    dense.set_field("H", Hc)
    dense.set_field("g", gc)
    bnd, on = vw._raw_bounds()
    lo, up = bnd[lo_pos], bnd[up_pos]
    if nb_c:
        dense.set_field("idxb", zb[box])
        dense.set_field("lb", lo[:nb_c])
        dense.set_field("ub", up[:nb_c])
    if gen.size:
        dense.set_field("C", Cg)
        dense.set_field("lg", lo[nb_c:] - shift)
        dense.set_field("ug", up[nb_c:] - shift)
    dense.set_field("maskl", on[lo_pos])
    dense.set_field("masku", on[up_pos])
    if ns:
        dense.set_field("idxs", soft_row[slack_pos])
        # each source holds the lower sides' values, then the upper sides'
        for names, a in ((("Zl", "Zu"), vw.slack_diag), (("zl", "zu"), vw.g[vw.nv:]),
                         (("sl_lb", "su_lb"), bnd[rows[2 * m:]])):
            for name, j in zip(names, (slack_pos, ns + slack_pos)):
                dense.set_field(name, a[j])
    cmap = CondensingMap(
        keep_x0=keep_x0,
        x0hat=None if keep_x0 else x0hat,
        nx0=nx0, u_off=u_off, nv=nv, pred=pred, gamma=gamma,
        lam_pos=rows[np.concatenate(
            [src, m + src, 2 * m + slack_pos, 2 * m + ns + slack_pos])],
        slack_pos=slack_pos,
        fix_rows=fix_rows[:0] if keep_x0 else fix_rows,
    )
    return dense, cmap


def expand_solution(dense_sol, cmap, qp, pi_terminal=None):
    """Expand a dense solution back to the original optimal-control QP.

    States are rebuilt by the forward dynamics rollout, multipliers and
    slacks are scattered to the positions the map records, and the dynamics
    multipliers follow from the backward costate recursion (seeded with
    ``pi_terminal`` when the last edge's multiplier is known, as in partial
    condensing).
    """
    d = qp.dim
    N = d.N
    vw = make_view(qp)
    sol = QpSolution(vw)
    z = dense_sol.v
    if z.shape[0] != cmap.nv:
        raise DimensionMismatch("dense solution does not match the map")
    # primal: inputs from z, states by rollout
    x = z[cmap.nv - cmap.nx0:].copy() if cmap.keep_x0 else cmap.x0hat.copy()
    sol.x(0)[:] = x
    for n in range(N + 1):
        if d.nu[n]:
            sol.u(n)[:] = z[cmap.u_off[n]: cmap.u_off[n] + d.nu[n]]
        if n < N:
            dyn = qp._dyn[n]
            x = dyn["A"] @ x + dyn["B"] @ sol.u(n) + dyn["b"]
            sol.x(n + 1)[:] = x
    # multipliers and inequality slacks
    sol.lam[cmap.lam_pos] = dense_sol.lam
    sol.t[cmap.lam_pos] = dense_sol.t
    sol.sl_all[cmap.slack_pos] = dense_sol.sl_all
    sol.su_all[cmap.slack_pos] = dense_sol.su_all
    # costate recursion for the dynamics multipliers
    ct = vw.ct_lam(sol.lam)
    def ctlam_x(m):
        return ct[vw.x_off[m]: vw.x_off[m] + d.nx[m]]
    start = N
    if pi_terminal is not None and N >= 1:
        sol.pi_stage(N - 1)[:] = pi_terminal
        start = N - 1
    for m in range(start, 0, -1):
        st = qp._stages[m]
        pi_m1 = (
            st["Q"] @ sol.x(m) + st["S"].T @ sol.u(m) + st["q"] - ctlam_x(m)
        )
        if m < N:
            pi_m1 = pi_m1 + qp._dyn[m]["A"].T @ sol.pi_stage(m)
        sol.pi_stage(m - 1)[:] = pi_m1
    # dropped initial-state fixing rows: recover their net multipliers from
    # the stage-0 stationarity gap and split by sign
    if cmap.fix_rows.size:
        st = qp._stages[0]
        gap = (
            st["Q"] @ sol.x(0) + st["S"].T @ sol.u(0) + st["q"] - ctlam_x(0)
        )
        if N >= 1:
            gap = gap + qp._dyn[0]["A"].T @ sol.pi_stage(0)
        i = cmap.fix_rows
        nu_val = gap[st["idxb"][i] - d.nu[0]]
        side = np.where(nu_val >= 0.0, vw._rows[i], vw._rows[vw._m + i])
        sol.lam[side] = np.abs(nu_val)
    return sol


def _sub_qp(qp, n0, n1):
    """Stages n0..n1-1 of qp plus a zero-cost terminal placeholder at x_{n1}."""
    d = qp.dim
    sub_dim = OcpQpDim(
        n1 - n0,
        nx=[d.nx[n] for n in range(n0, n1)] + [d.nx[n1]],
        nu=[d.nu[n] for n in range(n0, n1)] + [0],
        nb=[d.nb[n] for n in range(n0, n1)] + [0],
        ng=[d.ng[n] for n in range(n0, n1)] + [0],
        ns=[d.ns[n] for n in range(n0, n1)] + [0],
    )
    sub = OcpQp(sub_dim)
    for i, n in enumerate(range(n0, n1)):
        sub._stages[i] = dict(qp._stages[n])
        sub._dyn[i] = dict(qp._dyn[n])
    sub._rev += 1
    return sub


def partial_condense(qp, N1):
    """Block-condense an optimal-control QP to horizon ``ceil(N / N1)``.

    Each block of up to N1 stages is condensed with its initial state kept
    as a variable; the block's dense QP becomes one stage (see the module
    docstring) and the old terminal stage is carried over unchanged.
    ``N1 = 1`` reproduces the input problem exactly.
    """
    if not isinstance(qp, OcpQp):
        raise TypeError("partial_condense expects an OcpQp")
    d = qp.dim
    if not isinstance(N1, numbers.Integral) or N1 < 1:
        raise InvalidBlockSize(f"block size must be an integer >= 1, got {N1!r}")
    if d.N < 1:
        raise InvalidBlockSize("horizon must be >= 1 for partial condensing")
    N1 = int(N1)
    pmap = PartialCondensingMap()
    for n0 in range(0, d.N, N1):
        n1 = min(n0 + N1, d.N)
        sub = _sub_qp(qp, n0, n1)
        dense, smap = condense(sub, keep_x0=True)
        pmap.blocks.append(_BlockCond(n0, n1, sub, smap, make_view(dense)))
    dense = [blk.view.qp for blk in pmap.blocks]
    nx = [d.nx[blk.n0] for blk in pmap.blocks]
    out = OcpQp(OcpQpDim(
        len(dense),
        nx + [d.nx[d.N]],
        [dq.nv - nxk for dq, nxk in zip(dense, nx)] + [d.nu[d.N]],
        [dq.nb for dq in dense] + [d.nb[d.N]],
        [dq.ng for dq in dense] + [d.ng[d.N]],
        [dq.ns for dq in dense] + [d.ns[d.N]],
    ))
    for k, blk in enumerate(pmap.blocks):
        dd = dense[k]._data
        nu = out.dim.nu[k]
        H, g, C = dd["H"], dd["g"], dd["C"]
        pred = blk.sub_map.pred[-1]
        split = {
            "R": H[:nu, :nu], "S": H[:nu, nu:], "Q": H[nu:, nu:],
            "r": g[:nu], "q": g[nu:], "D": C[:, :nu], "C": C[:, nu:],
            "B": pred[:, :nu], "A": pred[:, nu:], "b": blk.sub_map.gamma[-1],
        }
        for name, value in split.items():
            out.set_field(name, k, value)
        # the constraint-row fields, which a dense QP and a stage store alike
        for name in ROW_FIELDS:
            out.set_field(name, k, dd[name])
    # terminal stage copies over verbatim
    out._stages[-1] = dict(qp._stages[d.N])
    out._rev += 1
    return out, pmap


def partial_expand(sol_p, pmap, qp):
    """Expand a short-horizon solution back to the original horizon."""
    vwp = sol_p._view
    Np = vwp.qp.dim.N
    parts = []
    for k, blk in enumerate(pmap.blocks):
        # the block's dense solution is stage k of the short one
        dsol = QpSolution(blk.view)
        w0 = vwp.u_off[k]
        dsol.v[:] = sol_p.y[w0: w0 + blk.view.nv]
        dsol.sl_all[:] = sol_p.sl(k)
        dsol.su_all[:] = sol_p.su(k)
        dsol.lam[:] = sol_p.lam_stage(k)
        dsol.t[:] = sol_p.t_stage(k)
        bsol = expand_solution(dsol, blk.sub_map, blk.sub_qp,
                               pi_terminal=sol_p.pi_stage(k))
        # the block's stages without the placeholder's terminal state, which
        # the next block (or the terminal stage) carries verbatim
        parts.append((bsol.v[: bsol._view.x_off[-1]], bsol.sl_all, bsol.su_all,
                      bsol.pi, bsol.lam, bsol.t))
    parts.append((sol_p.v[vwp.u_off[Np]:], sol_p.sl(Np), sol_p.su(Np),
                  sol_p.pi[:0], sol_p.lam_stage(Np), sol_p.t_stage(Np)))
    # [v | sl | su | pi | lam | t], each the blocks' parts in stage order
    return QpSolution.from_flat(make_view(qp), np.concatenate(
        [a for column in zip(*parts) for a in column]))
