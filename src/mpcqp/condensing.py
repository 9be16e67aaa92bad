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

Constraint routing: input box rows stay box rows; state box rows at stages
past 0 become dense general rows (one prediction row each); general rows
compose with the prediction.  Soft-constraint data and per-side masks travel
with their rows.  With ``keep_x0=False`` the initial state must be fully
fixed by equal-bound box rows; those rows are dropped from the dense QP and
their multipliers are reconstructed during expansion from the stage-0
stationarity gap.

Expansion rebuilds states by rolling the dynamics forward, routes
multipliers and slacks back row by row, and reconstructs the dynamics
multipliers by the backward costate recursion

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
and dynamics multipliers are taken verbatim from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CondenseError, DimensionMismatch, InvalidBlockSize
from .linalg import cholesky_factor, matmul_acc, qr_cholesky
from .qp_data import DenseQp, OcpQp, OcpQpDim
from .view import DenseView, QpSolution, make_view

__all__ = [
    "CondensingMap",
    "PartialCondensingMap",
    "condense",
    "expand_solution",
    "partial_condense",
    "partial_expand",
]

_SLACK_FIELDS = ("Zl", "Zu", "zl", "zu", "sl_lb", "su_lb")
# constraint-row fields that a dense QP and a stage store alike
_ROW_FIELDS = ("idxb", "lb", "ub", "lg", "ug", "idxs", "maskl", "masku") \
    + _SLACK_FIELDS


@dataclass
class CondensingMap:
    """Bookkeeping to route data and solutions across one condensing."""

    keep_x0: bool
    x0hat: object
    nx0: int
    u_off: list
    nv: int
    pred: list          # per stage: (nx_n, nv) affine prediction operator
    gamma: list         # per stage: constant part of the prediction
    box_map: list       # dense box row -> (stage, row index within the stage)
    gen_map: list       # dense general row -> (stage, 'b'|'g', row index)
    slack_map: list     # dense slack -> (stage, slack index)
    fix_rows: list      # stage-0 (row index, state component) dropped rows


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
    nu0 = qp.dim.nu[0]
    nx0 = qp.dim.nx[0]
    x0hat = np.full(nx0, np.nan)
    fix_rows = []
    for i, k in enumerate(st["idxb"]):
        if k < nu0:
            continue
        c = k - nu0
        if (
            st["lb"][i] == st["ub"][i]
            and np.isfinite(st["lb"][i])
            and st["maskl"][i] != 0.0
            and st["masku"][i] != 0.0
        ):
            x0hat[c] = st["lb"][i]
            fix_rows.append((i, c))
    all_fixed = not np.any(np.isnan(x0hat)) if nx0 else True
    return all_fixed, x0hat, fix_rows


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
    d = qp.dim
    N = d.N
    all_fixed, x0hat, fix_rows = _detect_fixed_x0(qp)
    if keep_x0 is None:
        keep_x0 = not all_fixed
    if not keep_x0:
        if not all_fixed:
            raise CondenseError(
                "keep_x0=False requires every initial-state component fixed "
                "by active equal-bound box rows"
            )
        st0 = qp._stages[0]
        for j, r in enumerate(st0["idxs"]):
            if qp.dim.ns[0] and r < d.nb[0] and st0["idxb"][r] >= d.nu[0]:
                raise CondenseError(
                    "soft initial-state fixing rows are not supported with "
                    "keep_x0=False"
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
    # sensitivities and affine parts
    pred = [np.zeros((d.nx[n], nv)) for n in range(N + 1)]
    gamma = [None] * (N + 1)
    gamma[0] = np.zeros(nx0) if keep_x0 else x0hat.copy()
    if keep_x0:
        pred[0][:, x0_off:] = np.eye(nx0)
    for n in range(N):
        dyn = qp._dyn[n]
        pred[n + 1] = matmul_acc(1.0, dyn["A"], pred[n], 0.0, 0.0)
        if d.nu[n]:
            pred[n + 1][:, u_off[n]: u_off[n] + d.nu[n]] += dyn["B"]
        gamma[n + 1] = dyn["A"] @ gamma[n] + dyn["b"]
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
    # ---- constraints ----
    box_rows = []   # (z index, lb, ub, maskl, masku, stage, row)
    gen_rows = []   # (row vec, lo, up, maskl, masku, stage, kind, idx)
    soft = {}       # (stage, row) -> slack data tuple
    for n in range(N + 1):
        st = qp._stages[n]
        soft_of_row = {int(r): j for j, r in enumerate(st["idxs"])}
        for i, k in enumerate(st["idxb"]):
            entry = None
            if k < d.nu[n]:
                entry = ("box", u_off[n] + k)
            elif n == 0 and keep_x0:
                entry = ("box", x0_off + k - d.nu[0])
            elif n == 0:
                continue  # dropped fixing row
            else:
                c = k - d.nu[n]
                entry = ("gen", pred[n][c], gamma[n][c])
            lo, up = st["lb"][i], st["ub"][i]
            ml, mu_ = st["maskl"][i], st["masku"][i]
            if entry[0] == "box":
                box_rows.append((entry[1], lo, up, ml, mu_, n, i))
            else:
                gen_rows.append(
                    (entry[1], lo - entry[2], up - entry[2], ml, mu_, n, "b", i)
                )
            if i in soft_of_row:
                soft[(n, i, "b")] = (n, soft_of_row[i])
        for gidx in range(d.ng[n]):
            row = np.zeros(nv)
            if d.nu[n]:
                row[u_off[n]: u_off[n] + d.nu[n]] = st["D"][gidx]
            row += st["C"][gidx] @ pred[n]
            shift = float(st["C"][gidx] @ gamma[n])
            i = d.nb[n] + gidx
            gen_rows.append(
                (row, st["lg"][gidx] - shift, st["ug"][gidx] - shift,
                 st["maskl"][i], st["masku"][i], n, "g", gidx)
            )
            if i in soft_of_row:
                soft[(n, gidx, "g")] = (n, soft_of_row[i])
    box_rows.sort(key=lambda r: r[0])
    nb_c = len(box_rows)
    ng_c = len(gen_rows)
    # soft rows in dense row order
    slack_entries = []
    for pos, (_, lo, up, ml, mu_, n, i) in enumerate(box_rows):
        if (n, i, "b") in soft:
            slack_entries.append((pos, *soft[(n, i, "b")]))
    for pos, row in enumerate(gen_rows):
        n, kind, idx = row[5], row[6], row[7]
        key = (n, idx, kind)
        if key in soft:
            slack_entries.append((nb_c + pos, *soft[key]))
    slack_entries.sort(key=lambda e: e[0])
    ns_c = len(slack_entries)
    dense = DenseQp(nv, ne=0, nb=nb_c, ng=ng_c, ns=ns_c)
    dense.set_field("H", Hc)
    dense.set_field("g", gc)
    if nb_c:
        dense.set_field("idxb", np.array([r[0] for r in box_rows], dtype=int))
        dense.set_field("lb", np.array([r[1] for r in box_rows]))
        dense.set_field("ub", np.array([r[2] for r in box_rows]))
    if ng_c:
        dense.set_field("C", np.array([r[0] for r in gen_rows]))
        dense.set_field("lg", np.array([r[1] for r in gen_rows]))
        dense.set_field("ug", np.array([r[2] for r in gen_rows]))
    maskl = np.ones(nb_c + ng_c)
    masku = np.ones(nb_c + ng_c)
    for pos, r in enumerate(box_rows):
        maskl[pos], masku[pos] = r[3], r[4]
    for pos, r in enumerate(gen_rows):
        maskl[nb_c + pos], masku[nb_c + pos] = r[3], r[4]
    dense.set_field("maskl", maskl)
    dense.set_field("masku", masku)
    slack_map = []
    if ns_c:
        dense.set_field("idxs", np.array([e[0] for e in slack_entries], dtype=int))
        for name in _SLACK_FIELDS:
            dense.set_field(name, np.array(
                [qp._stages[e[1]][name][e[2]] for e in slack_entries]
            ))
        slack_map = [(e[1], e[2]) for e in slack_entries]
    cmap = CondensingMap(
        keep_x0=keep_x0,
        x0hat=None if keep_x0 else x0hat,
        nx0=nx0, u_off=u_off, nv=nv, pred=pred, gamma=gamma,
        box_map=[(r[5], r[6]) for r in box_rows],
        gen_map=[(r[5], r[6], r[7]) for r in gen_rows],
        slack_map=slack_map,
        fix_rows=fix_rows if not keep_x0 else [],
    )
    return dense, cmap


def expand_solution(dense_sol, cmap, qp, pi_terminal=None):
    """Expand a dense solution back to the original optimal-control QP.

    States are rebuilt by the forward dynamics rollout, multipliers and
    slacks are routed back row by row, and the dynamics multipliers follow
    from the backward costate recursion (seeded with ``pi_terminal`` when
    the last edge's multiplier is known, as in partial condensing).
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
    # multipliers and inequality slacks, row by row
    dvw = dense_sol._view
    nb_c = dvw.blocks[0].nb
    ng_c = dvw.blocks[0].ng
    m_c = nb_c + ng_c
    ns_c = dvw.blocks[0].ns
    def route(dense_row, stage, stage_row):
        cb = vw.blocks[stage]
        m = cb.m
        c0 = cb.c_off
        sol.lam[c0 + stage_row] = dense_sol.lam[dense_row]
        sol.lam[c0 + m + stage_row] = dense_sol.lam[m_c + dense_row]
        sol.t[c0 + stage_row] = dense_sol.t[dense_row]
        sol.t[c0 + m + stage_row] = dense_sol.t[m_c + dense_row]
    for pos, (stage, i) in enumerate(cmap.box_map):
        route(pos, stage, i)
    for pos, (stage, kind, idx) in enumerate(cmap.gen_map):
        stage_row = idx if kind == "b" else d.nb[stage] + idx
        route(nb_c + pos, stage, stage_row)
    for jc, (stage, j) in enumerate(cmap.slack_map):
        cb = vw.blocks[stage]
        sol.sl(stage)[j] = dense_sol.sl_all[jc]
        sol.su(stage)[j] = dense_sol.su_all[jc]
        c0 = cb.c_off
        m = cb.m
        sol.lam[c0 + 2 * m + j] = dense_sol.lam[2 * m_c + jc]
        sol.lam[c0 + 2 * m + cb.ns + j] = dense_sol.lam[2 * m_c + ns_c + jc]
        sol.t[c0 + 2 * m + j] = dense_sol.t[2 * m_c + jc]
        sol.t[c0 + 2 * m + cb.ns + j] = dense_sol.t[2 * m_c + ns_c + jc]
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
    if cmap.fix_rows:
        st = qp._stages[0]
        gap = (
            st["Q"] @ sol.x(0) + st["S"].T @ sol.u(0) + st["q"] - ctlam_x(0)
        )
        if N >= 1:
            gap = gap + qp._dyn[0]["A"].T @ sol.pi_stage(0)
        cb = vw.blocks[0]
        for (i, c) in cmap.fix_rows:
            nu_val = gap[c]
            if nu_val >= 0.0:
                sol.lam[cb.c_off + i] = nu_val
            else:
                sol.lam[cb.c_off + cb.m + i] = -nu_val
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
    if not 1 <= N1:
        raise InvalidBlockSize("block size must be >= 1")
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
        for name in _ROW_FIELDS:
            out.set_field(name, k, dd[name])
    # terminal stage copies over verbatim
    out._stages[-1] = dict(qp._stages[d.N])
    out._rev += 1
    return out, pmap


def partial_expand(sol_p, pmap, qp):
    """Expand a short-horizon solution back to the original horizon."""
    d = qp.dim
    sol = QpSolution(make_view(qp))
    vwp = sol_p._view
    Np = vwp.qp.dim.N
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
        # copy block stages into the full solution
        for i, n in enumerate(range(blk.n0, blk.n1)):
            sol.x(n)[:] = bsol.x(i)
            if d.nu[n]:
                sol.u(n)[:] = bsol.u(i)
            sol.sl(n)[:] = bsol.sl(i)
            sol.su(n)[:] = bsol.su(i)
            sol.lam_stage(n)[:] = bsol.lam_stage(i)
            sol.t_stage(n)[:] = bsol.t_stage(i)
            sol.pi_stage(n)[:] = bsol.pi_stage(i)
        # block-boundary state comes verbatim from the short solution
        sol.x(blk.n1)[:] = sol_p.x(k + 1)
    # terminal stage data
    N = d.N
    sol.sl(N)[:] = sol_p.sl(Np)
    sol.su(N)[:] = sol_p.su(Np)
    sol.lam_stage(N)[:] = sol_p.lam_stage(Np)
    sol.t_stage(N)[:] = sol_p.t_stage(Np)
    if d.nu[N]:
        sol.u(N)[:] = sol_p.u(Np)
    return sol
