"""Condensing: state elimination between the structured and dense QP types.

Full condensing eliminates every state except (optionally) the one at stage
0, leaving a dense QP over ``z = (u_0, ..., u_N?, x0?)`` whose minimizers
coincide with the original inputs.  A kept initial state goes after the
inputs, so ``z`` is in the stage order ``(u, x)``.  The condensed Hessian
is built by a backward recursion with the flavor of a Riccati sweep but
without any minimization.  With ``W_n = [[R_n S_n] [S_n' Q_n]]`` the stage
cost over ``(u_n, x_n)`` and ``[B_n A_n]`` the dynamics,

    M[N] = W_N
    M[n] = W_n + [B_n A_n]' P[n+1] [B_n A_n],   P[n] = M[n][x, x]

    H[u_i, u_i] = M[i][u, u]                        (R_i + B_i' P[i+1] B_i)
    H[u_j, u_i] = M[j][x, u]' (dx_j/du_i)   (i < j) (Y[j] = A_j' P B_j + S_j')
    H[u_j, x0 ] = M[j][x, u]' (dx_j/dx0)
    H[x0,  x0 ] = P[0]

with the prediction ``x_n = pred_n z + gamma_n`` rolled forward.  The cost
is quadratic in the horizon and cubic in the state dimension.  Two variants
mirror the Riccati ones: the classical recursion propagates P explicitly
(and tolerates indefinite stage cost), the square-root variant propagates
chol(P) through QR triangularization (``M[n] = W_n + T' T`` with
``T = chol(P[n+1])' [B_n A_n]``) and requires positive definite state costs
``Q_1..Q_N``.  The gradient comes from the same sweep over the affine part:
``h_n = g_n + W_n (0, gamma_n)``, ``h_n += [B_n A_n]' beta[n+1]``, ``beta[n]
= h_n[x]``, and ``g[u_n] = h_n[u]``, ``g[x0] = beta[0]``.

The stages are taken in runs of equal dimensions (``nx``, ``nu``, ``ng`` and
the next stage's ``nx``; see :func:`_runs`); a run of one stage is the
general case.  Per run, the stage costs ``W`` are a (k, nw, nw) view of the
OCP view's ``hess0``, the dynamics one (k, nx', nw) stack ``[B A]``, and
every product that does not feed the recursion is one stacked product: the
Hessian's input rows ``M[j][x, u]' pred_j``, its diagonal blocks, the affine
stage terms and the general rows ``C_n pred_n``.  Only the recursions stay
sequential, one or two small products per stage: the prediction multiplies
the nonzero columns of ``pred_n`` (the earlier inputs, and the kept x0),
the sweep makes ``P[n+1] [B A]`` and ``[B A]'`` of that.  Each large array
is written once, into the fresh dense QP's own storage: the Hessian's input
rows and halved diagonal blocks, then ``H += H'`` in place, which mirrors
them exactly; the state rows of ``C`` by one unbuffered ``take`` from the
stacked prediction.  The flops are counted once, nominally (see
:func:`condense`).

Constraint routing works on the OCP view's row table (``_rows``, ``_soft``,
see :class:`view.ProblemView`), with index arrays and no per-row step.  A
map from v to z columns decides which box rows stay box rows: input rows,
and the initial state's rows when x0 is kept.  With x0 eliminated, its
stage-0 rows are dropped.  Every other state box row becomes a dense general
row whose coefficients are its row of the prediction, gathered from the
stacked ``(sum nx, nz)`` prediction; a stage's general rows are
``C_n pred_n`` with ``D_n`` added on the stage's inputs.  The dense rows are
the box rows in z order, then the state box rows, then the general rows,
each in stage order.  Bounds, masks and soft-constraint data are gathered
through the same positions.  With ``keep_x0=False`` the initial state must
be fully fixed by equal-bound box rows; those rows are dropped from the
dense QP and their multipliers are reconstructed during expansion from the
stage-0 stationarity gap.

Expansion rebuilds all states by one product with the stored prediction,
``pred_all @ z + gamma_all``, and scatters the inputs, the dense
multipliers, inequality slacks and soft slacks to the OCP positions the map
recorded (``z_pos``, ``lam_pos``, ``slack_pos``).  The stationarity terms of
every stage, ``h_m = Q_m x_m + S_m' u_m + q_m - (C' lam)_{x_m}``, are one
stacked product per run; only the costate sweep

    pi[m-1] = h_m + A_m' pi[m]

stays sequential, one small product per stage.

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
from numpy.lib.stride_tricks import as_strided

from .errors import CondenseError, DimensionMismatch, InvalidBlockSize
from .ipm_core import RICCATI_VARIANTS
from .linalg import cholesky_stack, count_flops, qr_cholesky_stack
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
    """Index maps and the stored prediction of one condensing."""

    keep_x0: bool
    x0hat: object
    nx0: int
    u_off: list         # z offset of every stage's inputs, None without any
    nv: int
    pred_all: np.ndarray    # (sum nx, nv): the states of every stage, stacked,
    gamma_all: np.ndarray   # are pred_all @ z + gamma_all
    x_end: np.ndarray       # end row of every stage in pred_all
    x_pos: np.ndarray       # OCP v position of every row of pred_all
    z_pos: np.ndarray       # OCP v position of every z entry
    lam_pos: np.ndarray     # OCP lam/t position of every dense lam/t entry
    slack_pos: np.ndarray   # OCP slack index of every dense slack
    fix_rows: np.ndarray    # stage-0 box rows dropped with the initial state

    @property
    def pred(self):
        """Per stage: its (nx_n, nv) rows of ``pred_all``, the prediction operator."""
        return np.split(self.pred_all, self.x_end[:-1])

    @property
    def gamma(self):
        """Per stage: its rows of ``gamma_all``, the prediction's constant part."""
        return np.split(self.gamma_all, self.x_end[:-1])


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


def _runs(d):
    """``(first, end)`` of every maximal run of stages with equal dimensions.

    Equal ``nx``, ``nu``, ``ng`` and next-stage ``nx``, so that a run's
    blocks stack into (k, ...) arrays.  The terminal stage, which has no
    dynamics, is a run of its own.
    """
    nx = d.nx.tolist()
    key = list(zip(nx, d.nu.tolist(), d.ng.tolist(), nx[1:] + [-1]))
    ends = [0] + [n for n in range(1, d.N + 1) if key[n] != key[n - 1]] + [d.N + 1]
    return list(zip(ends[:-1], ends[1:]))


def _diag_blocks(rows, col, q):
    """Writable (k, m, q) view of the blocks ``rows[i, :, col + i q:][:, :q]``.

    ``rows`` is a (k, m, n) view of consecutive row blocks, one per stage of
    a run; block i is stage i's window of q columns, which follow each other.
    """
    s0, s1, s2 = rows.strides
    return as_strided(rows[:, :, col:], shape=(rows.shape[0], rows.shape[1], q),
                      strides=(s0 + q * s2, s1, s2))


def _rows_times(L, P3, out, cols, x0):
    """``out = L @ P3`` for a run, on the nonzero columns of its prediction.

    ``P3`` is the run's (k, nx, nv) prediction, zero past column ``cols``
    (the last stage's inputs) up to the kept x0's columns, which start at
    ``x0`` (None when x0 is not kept); ``out`` keeps its zeros there.
    """
    np.matmul(L, P3[:, :, :cols], out=out[:, :, :cols])
    if x0 is not None:
        np.matmul(L, P3[:, :, x0:], out=out[:, :, x0:])


def _stack(qp, a, b, name, dyn=False):
    """The field ``name`` of stages a..b-1 (their dynamics if ``dyn``), stacked."""
    src = qp._dyn if dyn else qp._stages
    return np.array([src[n][name] for n in range(a, b)])


def _prediction(qp, uz, x_end, nv, keep_x0, x0hat):
    """``(pred, gamma)``: ``x_n = pred[rows n] z + gamma[rows n]`` for every stage.

    ``pred_n`` is zero outside the inputs before stage n and the kept x0,
    so each step multiplies only those columns.
    """
    d = qp.dim
    nx0 = int(d.nx[0])
    pred = np.zeros((x_end[-1], nv))
    gamma = np.empty(x_end[-1])
    x0 = nv - nx0 if keep_x0 else nv
    if keep_x0:
        pred[np.arange(nx0), x0 + np.arange(nx0)] = 1.0
        gamma[:nx0] = 0.0
    else:
        gamma[:nx0] = x0hat
    ends = [0] + x_end.tolist()
    for n, nu in enumerate(d.nu[: d.N].tolist()):
        dyn = qp._dyn[n]
        A = dyn["A"]
        cur, nxt, k = pred[ends[n]: ends[n + 1]], pred[ends[n + 1]: ends[n + 2]], uz[n]
        np.matmul(A, cur[:, :k], out=nxt[:, :k])
        nxt[:, k: k + nu] = dyn["B"]
        if keep_x0:
            np.matmul(A, cur[:, x0:], out=nxt[:, x0:])
        g = gamma[ends[n + 1]: ends[n + 2]]
        np.matmul(A, gamma[ends[n]: ends[n + 1]], out=g)
        g += dyn["b"]
    return pred, gamma


def _cost_recursion(qp, vw, runs, gamma, x_end, variant):
    """The backward sweep: ``(Ms, h)``.

    ``Ms`` holds every stage's ``M[n]``, a (k, nw, nw) array per run (views
    of one buffer laid out like the view's ``hess0``); ``h``, laid out like
    v, holds every stage's affine term ``h_n`` (see the module docstring).
    ``P`` is used as computed: the Hessian is symmetrized once, exactly, at
    the end (the square-root variant's ``T' T`` is symmetric as computed).
    """
    d = qp.dim
    nx, nu = d.nx.tolist(), d.nu.tolist()
    sqrt = variant == "square_root"
    off = vw.hess_off
    M = vw.hess0.copy()
    h = vw.g[: vw.nv].copy()
    Ms, hs, BAs = [], [], []
    for a, b in runs:
        k, nur, nxr = b - a, nu[a], nx[a]
        nw = nur + nxr
        W = vw.hess0[off[a]: off[b]].reshape(k, nw, nw)
        Ms.append(M[off[a]: off[b]].reshape(k, nw, nw))
        hr = h[vw.u_off[a]: vw.u_off[a] + k * nw].reshape(k, nw)
        # h_n = g_n + W_n (0, gamma_n)
        hr += (W[:, :, nur:] @ gamma[x_end[a] - nxr: x_end[b - 1]].reshape(
            k, nxr, 1))[:, :, 0]
        hs.append(hr)
        if b <= d.N:
            BA = np.empty((k, nx[b], nw))
            BA[:, :, :nur] = _stack(qp, a, b, "B", dyn=True)
            BA[:, :, nur:] = _stack(qp, a, b, "A", dyn=True)
            BAs.append(BA)
    nuN = nu[d.N]
    P, beta = Ms[-1][0][nuN:, nuN:], hs[-1][0][nuN:]
    if sqrt and d.N:
        U = _chol_t(P[None])[0]
    for r in range(len(runs) - 2, -1, -1):
        (a, b), nur = runs[r], nu[runs[r][0]]
        if sqrt:
            # chol(Q_n)' of the run's stages past stage 0
            first = max(a, 1)
            nw = nur + nx[a]
            Uq = _chol_t(vw.hess0[off[first]: off[b]].reshape(
                max(b - first, 0), nw, nw)[:, nur:, nur:])
        for n, BAn, Mn, hn in zip(range(b - 1, a - 1, -1), BAs[r][::-1],
                                  Ms[r][::-1], hs[r][::-1]):
            if sqrt:
                T = U @ BAn
                Mn += T.T @ T
                if n:
                    U = qr_cholesky_stack(
                        np.vstack([Uq[n - first], T[:, nur:]])[None])[0]
            else:
                Mn += BAn.T @ (P @ BAn)
            hn += beta @ BAn
            P, beta = Mn[nur:, nur:], hn[nur:]
    return Ms, h


def _chol_t(Q):
    """``chol(Q_i)'`` of the (k, n, n) stack Q, upper triangular, uncounted."""
    if not Q.size:
        return np.zeros(Q.shape)
    return cholesky_stack(Q).transpose(0, 2, 1)


def _flops(d, p, sqrt):
    """The nominal flop count of :func:`condense`, see its docstring.

    ``p`` holds the nonzero columns of every stage's prediction.
    """
    N = d.N
    nx, nu, ng = (a.astype(np.int64) for a in (d.nx, d.nu, d.ng))
    w = nu + nx
    c, wn, xn = nx[1:], w[:N], nx[:N]
    total = ((2 * w * nx + 2 * nu * nx * p + 2 * ng * nx * (p + 1)).sum()
             + (2 * c * xn * (p[:N] + 1) + 2 * c * wn).sum())
    if not sqrt:
        return int(total + (2 * c * wn * (c + wn)).sum())
    qr = np.maximum(0, 2 * (xn + c) * xn * xn - (2 * xn ** 3) // 3)[1:]
    return int(total + (2 * c * c * wn + c * wn * (wn + 1)).sum()
               + (nx[1:] ** 3 // 3).sum() + qr.sum())


def condense(qp, keep_x0=None, variant="classical"):
    """Convert an optimal-control QP into an equivalent dense QP.

    ``keep_x0=None`` keeps the initial state as a variable unless it is
    fully fixed by equal-bound box rows; ``keep_x0=False`` requires that and
    eliminates it.  Returns ``(dense_qp, condensing_map)``.

    The flops are counted once, nominally.  With ``w = nu_n + nx_n``,
    ``c = nx_{n+1}`` and ``p_n`` the nonzero columns of ``pred_n`` (the
    inputs before stage n, plus ``nx_0`` when x0 is kept):

    * every stage n < N: the prediction ``2 c nx_n (p_n + 1)``, the affine
      sweep ``2 c w``, and the recursion ``2 c w (c + w)`` (classical) or
      ``2 c^2 w + c w (w + 1)`` (square root: ``T``, then ``T' T``);
    * every stage: the affine term ``2 w nx_n``, the Hessian's input rows
      ``2 nu_n nx_n p_n`` and the general rows ``2 ng_n nx_n (p_n + 1)``;
    * square root, every stage n >= 1: ``chol(Q_n)``, ``nx_n^3 / 3``, and
      for n < N the QR of ``[chol(Q_n)' ; T_x]``,
      ``2 (nx_n + c) nx_n^2 - 2 nx_n^3 / 3``.
    """
    if not isinstance(qp, OcpQp):
        raise TypeError("condense expects an OcpQp")
    if variant not in RICCATI_VARIANTS:
        raise ValueError(f"unknown condensing variant '{variant}'")
    d = qp.dim
    nx, nu, ng = d.nx, d.nu, d.ng
    all_fixed, x0hat, fix_rows = _detect_fixed_x0(qp)
    if keep_x0 is None:
        keep_x0 = not all_fixed
    if not keep_x0 and not all_fixed:
        raise CondenseError(
            "keep_x0=False requires every initial-state component fixed "
            "by active equal-bound box rows"
        )
    vw = make_view(qp)
    runs = _runs(d)
    # z layout: [u_0 | u_1 | ... | x0 (if kept)], the stage order (u, x)
    uz = np.concatenate([[0], np.cumsum(nu)]).tolist()
    x0_off = uz[-1]
    nx0 = int(nx[0])
    nv = x0_off + nx0 if keep_x0 else x0_off
    # nonzero columns of every stage's prediction
    p = np.array(uz[:-1], dtype=np.int64) + (nx0 if keep_x0 else 0)
    x_end = np.cumsum(nx)
    pred, gamma = _prediction(qp, uz, x_end, nv, keep_x0, x0hat)
    Ms, h = _cost_recursion(qp, vw, runs, gamma, x_end, variant)
    # ---- constraints, routed through the view's row table ----
    m, rows, ns = vw._m, vw._rows, vw.ns_tot
    # OCP v position of every z entry and of every prediction row; their
    # inverses map v entries to z columns and prediction rows, -1 elsewhere
    z_pos = _ranges(np.array(vw.u_off), nu)
    if keep_x0:
        z_pos = np.concatenate([z_pos, vw.x_off[0] + np.arange(nx0)])
    x_pos = _ranges(np.array(vw.x_off), nx)
    zcol = np.full(vw.nv, -1)
    zcol[z_pos] = np.arange(nv)
    xrow = np.full(vw.nv, -1)
    xrow[x_pos] = np.arange(x_end[-1])
    zb, xb = zcol[vw.box_col], xrow[vw.box_col]
    box = np.flatnonzero(zb >= 0)
    box = box[np.argsort(zb[box], kind="stable")]
    # the general rows: state box rows past stage 0, then every general row
    sbox = np.flatnonzero(xb >= nx0)
    src = np.concatenate([box, sbox, np.arange(vw._nb, m)])
    # dense row -> OCP row, and the lam/t positions of its two sides
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
    dense = DenseQp(nv, ne=0, nb=nb_c, ng=src.size - nb_c, ns=ns)
    # ---- the Hessian: input rows, halved diagonal blocks, then H += H' ----
    x0 = x0_off if keep_x0 else None
    H = dense._fill("H")
    for (a, b), Mr in zip(runs, Ms):
        nur, nxr = nu[a], nx[a]
        if not nur:
            continue
        k = b - a
        YT = Mr[:, nur:, :nur].transpose(0, 2, 1)
        P3 = pred[x_end[a] - nxr: x_end[b - 1]].reshape(k, nxr, nv)
        Hr = H[uz[a]: uz[b]].reshape(k, nur, nv)
        _rows_times(YT, P3, Hr, uz[b - 1], x0)
        np.multiply(Mr[:, :nur, :nur], 0.5, out=_diag_blocks(Hr, uz[a], nur))
    if keep_x0:
        H[x0_off:, x0_off:] = 0.5 * Ms[0][0][nu[0]:, nu[0]:]
    np.add(H, H.T, out=H)
    dense.set_field("g", h[z_pos])
    # ---- the general rows: gathered state rows, then C_n pred_n + D_n ----
    C = dense._fill("C")
    shift = np.empty(src.size - nb_c)
    ksb = sbox.size
    np.take(pred, xb[sbox], axis=0, out=C[:ksb], mode="clip")
    shift[:ksb] = gamma[xb[sbox]]
    r0 = ksb
    for a, b in runs:
        ngr, nur, nxr = ng[a], nu[a], nx[a]
        if not ngr:
            continue
        k = b - a
        Cs = _stack(qp, a, b, "C")
        Cr = C[r0: r0 + k * ngr].reshape(k, ngr, nv)
        _rows_times(Cs, pred[x_end[a] - nxr: x_end[b - 1]].reshape(k, nxr, nv),
                    Cr, uz[b - 1], x0)
        _diag_blocks(Cr, uz[a], nur)[...] = _stack(qp, a, b, "D")
        np.matmul(Cs, gamma[x_end[a] - nxr: x_end[b - 1]].reshape(k, nxr, 1),
                  out=shift[r0: r0 + k * ngr].reshape(k, ngr, 1))
        r0 += k * ngr
    count_flops(_flops(d, p, variant == "square_root"))
    bnd, on = vw._bnd, vw._on
    lo, up = bnd[lo_pos], bnd[up_pos]
    if nb_c:
        dense.set_field("idxb", zb[box])
        dense.set_field("lb", lo[:nb_c])
        dense.set_field("ub", up[:nb_c])
    if shift.size:
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
        nx0=nx0,
        u_off=[o if k else None for o, k in zip(uz, nu.tolist())],
        nv=nv, pred_all=pred, gamma_all=gamma, x_end=x_end,
        x_pos=x_pos, z_pos=z_pos,
        lam_pos=rows[np.concatenate(
            [src, m + src, 2 * m + slack_pos, 2 * m + ns + slack_pos])],
        slack_pos=slack_pos,
        fix_rows=fix_rows[:0] if keep_x0 else fix_rows,
    )
    return dense, cmap


def expand_solution(dense_sol, cmap, qp, pi_terminal=None):
    """Expand a dense solution back to the original optimal-control QP.

    States come from one product with the stored prediction, inputs,
    multipliers and slacks are scattered to the positions the map records,
    and the dynamics multipliers follow from the backward costate sweep
    (seeded with ``pi_terminal`` when the last edge's multiplier is known,
    as in partial condensing).
    """
    d = qp.dim
    N = d.N
    nx, nu = d.nx, d.nu
    vw = make_view(qp)
    sol = QpSolution(vw)
    z = dense_sol.v
    if z.shape[0] != cmap.nv:
        raise DimensionMismatch("dense solution does not match the map")
    v = sol.v
    v[cmap.x_pos] = cmap.pred_all @ z + cmap.gamma_all
    v[cmap.z_pos] = z
    # multipliers and inequality slacks
    sol.lam[cmap.lam_pos] = dense_sol.lam
    sol.t[cmap.lam_pos] = dense_sol.t
    sol.sl_all[cmap.slack_pos] = dense_sol.sl_all
    sol.su_all[cmap.slack_pos] = dense_sol.su_all
    # h_m = Q_m x_m + S_m' u_m + q_m - (C' lam)_{x_m} of every stage, laid
    # out like the prediction's rows: one stacked product per run
    x_end = cmap.x_end
    h = (vw.g[: vw.nv] - vw.ct_lam(sol.lam)[: vw.nv])[cmap.x_pos]
    off = vw.hess_off
    for a, b in _runs(d):
        k, nur, nxr = b - a, nu[a], nx[a]
        nw = nur + nxr
        W = vw.hess0[off[a]: off[b]].reshape(k, nw, nw)
        w = v[vw.u_off[a]: vw.u_off[a] + k * nw].reshape(k, nw, 1)
        h[x_end[a] - nxr: x_end[b - 1]] += (W[:, nur:] @ w).ravel()
    # costate sweep: pi[m-1] = h_m + A_m' pi[m]
    pi, pi_off = sol.pi, vw.pi_off
    start = N
    nxt = None
    if pi_terminal is not None and N >= 1:
        nxt = pi[pi_off[N - 1]: pi_off[N - 1] + nx[N]]
        nxt[:] = pi_terminal
        start = N - 1
    for m in range(start, 0, -1):
        out = pi[pi_off[m - 1]: pi_off[m - 1] + nx[m]]
        hm = h[x_end[m] - nx[m]: x_end[m]]
        if nxt is None:
            out[:] = hm
        else:
            np.add(hm, qp._dyn[m]["A"].T @ nxt, out=out)
        nxt = out
    # dropped initial-state fixing rows: recover their net multipliers from
    # the stage-0 stationarity gap and split by sign
    if cmap.fix_rows.size:
        gap = h[: nx[0]]
        if N >= 1:
            gap = gap + qp._dyn[0]["A"].T @ nxt
        i = cmap.fix_rows
        nu_val = gap[qp._stages[0]["idxb"][i] - nu[0]]
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
