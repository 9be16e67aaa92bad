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
is quadratic in the horizon and cubic in the state dimension.  The
recursion propagates P explicitly and factors nothing, so it tolerates
indefinite stage costs.  The gradient comes from the same sweep over the
affine part: ``h_n = g_n + W_n (0, gamma_n)``, ``h_n += [B_n A_n]'
beta[n+1]``, ``beta[n] = h_n[x]``, and ``g[u_n] = h_n[u]``, ``g[x0] =
beta[0]``.

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
be fully fixed by equal-bound box rows (:func:`fixed_x0.detect_fixed_x0`);
those rows are dropped from the dense QP and their multipliers are
reconstructed during expansion from the stage-0 stationarity gap
(:func:`fixed_x0.fixed_row_multipliers`, which the solvers' reduced QPs
share).

Expansion rebuilds all states by one product with the stored prediction,
``pred_all @ z + gamma_all``, and scatters the inputs, the dense
multipliers, inequality slacks and soft slacks to the OCP positions the map
recorded (``z_pos``, ``lam_pos``, ``slack_pos``).  The stationarity terms of
every stage, ``h_m = Q_m x_m + S_m' u_m + q_m - (C' lam)_{x_m}``, are one
stacked product per run; only the costate sweep

    pi[m-1] = h_m + A_m' pi[m]

stays sequential, one small product per stage.

The one core, :func:`_condense`, condenses any stages a..b-1 on the OCP's
own view: the prediction, the sweep and the row routing take the stage
range and the view's positions, and its map records positions of that
view.  :func:`condense` is the range 0..N.  A range that ends before stage
N starts its sweep from ``P = 0``, ``beta = 0`` (the cost of its end state
x_b is the next range's), and the core also returns its prediction of
x_b.

Partial condensing calls the core once per block of ``N1`` stages, keeping
each block's initial state (the first block's only when it is not fully
fixed, as :func:`condense` decides by default), and once for the terminal
stage, a block of one stage; the result is an optimal-control QP with horizon
``ceil(N / N1)``, the last block shorter when N1 does not divide N.  A
condensed block is already a stage: its variable ``z = (u, x0)`` is the new
stage's ``(u, x)`` window, its box rows (in ``idxb`` order), general rows
and soft rows are the stage's rows as they stand, and its prediction of
x_b is the stage's ``[B A]`` and ``b``.  So no row is permuted either way,
and the terminal block reproduces the terminal stage (its cost as the view
symmetrizes it).  No sub-QP and no view is built but the OCP's own.

One expansion serves both.  The condensed solution's ``v``, ``lam``, ``t``
and slacks are the blocks' dense parts one after the other (one block for
full condensing); each block's states come from one product with its
prediction, the rest is scattered through the maps, and the stationarity
terms and the costate sweep run once over the whole horizon.  The sweep
takes the dynamics multipliers into every block after the first, at the
block ends, from the short-horizon solution; a dense solution has none.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CondenseError, DimensionMismatch, InvalidBlockSize
from .fixed_x0 import detect_fixed_x0, fixed_row_multipliers
from .linalg import count_flops
from .qp_data import ROW_FIELDS, DenseQp, OcpQp, OcpQpDim
from .view import QpSolution, _ranges, make_view

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
    """Index maps and the stored prediction of one condensing of ``stages``.

    The positions are those of the condensed OCP's own view.
    """

    stages: range           # the condensed stages a..b-1
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
class PartialCondensingMap:
    """The blocks' condensing maps, one per stage of the condensed QP."""

    blocks: list


def _runs(d, a=0, b=None):
    """``(first, end)`` of every maximal run of the stages a..b-1 (default
    all) with equal dimensions.

    Equal ``nx``, ``nu``, ``ng`` and next-stage ``nx``, so that a run's
    blocks stack into (k, ...) arrays.  The terminal stage, which has no
    dynamics, is a run of its own.
    """
    b = d.N + 1 if b is None else b
    nx = d.nx.tolist()
    key = list(zip(nx, d.nu.tolist(), d.ng.tolist(), nx[1:] + [-1]))[a:b]
    ends = [a] + [n for n in range(a + 1, b) if key[n - a] != key[n - a - 1]] + [b]
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


def _prediction(qp, a, b, uz, x_end, nv, keep_x0, x0hat):
    """``(pred, gamma)``: ``x_n = pred[rows n] z + gamma[rows n]`` for the
    stages a..b-1 and, when b <= N, for x_b.

    ``pred_n`` is zero outside the inputs before stage n and the kept x0,
    so each step multiplies only those columns.
    """
    d = qp.dim
    nx0 = int(d.nx[a])
    pred = np.zeros((x_end[-1], nv))
    gamma = np.empty(x_end[-1])
    x0 = nv - nx0 if keep_x0 else nv
    if keep_x0:
        pred[np.arange(nx0), x0 + np.arange(nx0)] = 1.0
        gamma[:nx0] = 0.0
    else:
        gamma[:nx0] = x0hat
    ends = [0] + x_end.tolist()
    for i, nu in enumerate(d.nu[a: min(b, d.N)].tolist()):
        dyn = qp._dyn[a + i]
        A = dyn["A"]
        cur, nxt, k = pred[ends[i]: ends[i + 1]], pred[ends[i + 1]: ends[i + 2]], uz[i]
        np.matmul(A, cur[:, :k], out=nxt[:, :k])
        nxt[:, k: k + nu] = dyn["B"]
        if keep_x0:
            np.matmul(A, cur[:, x0:], out=nxt[:, x0:])
        g = gamma[ends[i + 1]: ends[i + 2]]
        np.matmul(A, gamma[ends[i]: ends[i + 1]], out=g)
        g += dyn["b"]
    return pred, gamma


def _cost_recursion(qp, vw, a, b, runs, gamma, x_end):
    """The backward sweep over the stages a..b-1: ``(Ms, h)``.

    ``Ms`` holds every stage's ``M[n]``, a (k, nw, nw) array per run (views
    of one buffer laid out like the stages' part of the view's ``hess0``);
    ``h``, laid out like the stages' part of v, holds every stage's affine
    term ``h_n`` (see the module docstring).  The sweep starts from the
    terminal stage's cost when b = N + 1, and from ``P = 0``, ``beta = 0``
    when the stages end before it.  ``P`` is used as computed: the Hessian
    is symmetrized once, exactly, at the end.
    """
    d = qp.dim
    nx, nu = d.nx.tolist(), d.nu.tolist()
    off, v0 = vw.hess_off, vw.u_off[a]
    M = vw.hess0[off[a]: off[b]].copy()
    h = vw.g[v0: vw.u_off[b] if b <= d.N else vw.nv].copy()
    Ms, hs, BAs = [], [], []
    for r0, r1 in runs:
        k, nur, nxr, i0, i1 = r1 - r0, nu[r0], nx[r0], r0 - a, r1 - a
        nw = nur + nxr
        W = vw.hess0[off[r0]: off[r1]].reshape(k, nw, nw)
        Ms.append(M[off[r0] - off[a]: off[r1] - off[a]].reshape(k, nw, nw))
        hr = h[vw.u_off[r0] - v0: vw.u_off[r0] - v0 + k * nw].reshape(k, nw)
        # h_n = g_n + W_n (0, gamma_n)
        hr += (W[:, :, nur:] @ gamma[x_end[i0] - nxr: x_end[i1 - 1]].reshape(
            k, nxr, 1))[:, :, 0]
        hs.append(hr)
        if r1 <= d.N:
            BA = np.empty((k, nx[r1], nw))
            BA[:, :, :nur] = _stack(qp, r0, r1, "B", dyn=True)
            BA[:, :, nur:] = _stack(qp, r0, r1, "A", dyn=True)
            BAs.append(BA)
    if b > d.N:
        nuN = nu[d.N]
        P, beta = Ms[-1][0][nuN:, nuN:], hs[-1][0][nuN:]
    else:
        P, beta = np.zeros((nx[b], nx[b])), np.zeros(nx[b])
    for r in range(len(BAs) - 1, -1, -1):
        nur = nu[runs[r][0]]
        for BAn, Mn, hn in zip(BAs[r][::-1], Ms[r][::-1], hs[r][::-1]):
            Mn += BAn.T @ (P @ BAn)
            hn += beta @ BAn
            P, beta = Mn[nur:, nur:], hn[nur:]
    return Ms, h


def _flops(d, a, b, p):
    """The nominal flop count of condensing the stages a..b-1, see
    :func:`condense`.

    ``p`` holds the nonzero columns of every stage's prediction.
    """
    e = min(b, d.N)     # the stages a..e-1 have dynamics
    nx, nu, ng = (x[a:b].astype(np.int64) for x in (d.nx, d.nu, d.ng))
    w = nu + nx
    c, wn, xn = d.nx[a + 1: e + 1].astype(np.int64), w[: e - a], nx[: e - a]
    return int((2 * w * nx + 2 * nu * nx * p + 2 * ng * nx * (p + 1)).sum()
               + (2 * c * xn * (p[: e - a] + 1) + 2 * c * wn
                  + 2 * c * wn * (c + wn)).sum())


def _condense(qp, vw, a, b, keep_x0, x0hat):
    """Condense the stages a..b-1 of ``qp`` on its view ``vw``.

    Returns ``(dense, cmap, end)``: the dense QP over ``z = (u_a, ...,
    u_{b-1}, x_a?)``, its map, whose positions are ``vw``'s, and ``end``,
    the prediction ``(pred, gamma)`` of x_b, or None when b = N + 1.  The
    stages' rows are those of ``vw``'s row table with a stage in a..b-1;
    the dense rows are ordered as in :func:`condense`.
    """
    d = qp.dim
    nx, nu, ng = d.nx, d.nu, d.ng
    runs = _runs(d, a, b)
    # z layout: [u_a | ... | u_{b-1} | x_a (if kept)], the stage order (u, x)
    uz = np.concatenate([[0], np.cumsum(nu[a:b])]).tolist()
    x0_off = uz[-1]
    nx0 = int(nx[a])
    nv = x0_off + nx0 if keep_x0 else x0_off
    # nonzero columns of every stage's prediction
    p = np.array(uz[:-1], dtype=np.int64) + (nx0 if keep_x0 else 0)
    # end rows of the stages a..b-1, then of x_b when b <= N
    x_end = np.cumsum(nx[a: b + 1])
    pred, gamma = _prediction(qp, a, b, uz, x_end, nv, keep_x0, x0hat)
    Ms, h = _cost_recursion(qp, vw, a, b, runs, gamma, x_end)
    xe = int(x_end[b - a - 1])
    # ---- constraints, routed through the view's row table ----
    m, rows, ns = vw._m, vw._rows, vw.ns_tot
    s0 = vw.blocks[a].s_off
    s1 = s0 + int(d.ns[a:b].sum())
    # OCP v position of every z entry and of every prediction row; their
    # inverses map v entries to z columns and prediction rows, -1 elsewhere
    z_pos = _ranges(np.array(vw.u_off[a:b]), nu[a:b])
    if keep_x0:
        z_pos = np.concatenate([z_pos, vw.x_off[a] + np.arange(nx0)])
    x_pos = _ranges(np.array(vw.x_off[a:b]), nx[a:b])
    zcol = np.full(vw.nv, -1)
    zcol[z_pos] = np.arange(nv)
    xrow = np.full(vw.nv, -1)
    xrow[x_pos] = np.arange(xe)
    zb, xb = zcol[vw.box_col], xrow[vw.box_col]
    box = np.flatnonzero(zb >= 0)
    box = box[np.argsort(zb[box], kind="stable")]
    # the general rows: state box rows past the first stage, then every
    # general row of the stages
    sbox = np.flatnonzero(xb >= nx0)
    src = np.concatenate([box, sbox, np.arange(vw._nb + int(ng[:a].sum()),
                                               vw._nb + int(ng[:b].sum()))])
    # dense row -> OCP row, and the lam/t positions of its two sides
    lo_pos, up_pos = rows[src], rows[m + src]
    dense_row = np.full(vw.nc, -1)
    dense_row[lo_pos] = np.arange(src.size)
    soft_row = dense_row[vw._soft[s0:s1]]   # dense row of every OCP slack
    slack_pos = s0 + np.argsort(soft_row)
    nb_c = box.size
    dense = DenseQp(nv, ne=0, nb=nb_c, ng=src.size - nb_c, ns=s1 - s0)
    # ---- the Hessian: input rows, halved diagonal blocks, then H += H' ----
    x0 = x0_off if keep_x0 else None
    H = dense._fill("H")
    for (r0, r1), Mr in zip(runs, Ms):
        nur, nxr, i0, i1 = nu[r0], nx[r0], r0 - a, r1 - a
        if not nur:
            continue
        k = r1 - r0
        YT = Mr[:, nur:, :nur].transpose(0, 2, 1)
        P3 = pred[x_end[i0] - nxr: x_end[i1 - 1]].reshape(k, nxr, nv)
        Hr = H[uz[i0]: uz[i1]].reshape(k, nur, nv)
        _rows_times(YT, P3, Hr, uz[i1 - 1], x0)
        np.multiply(Mr[:, :nur, :nur], 0.5, out=_diag_blocks(Hr, uz[i0], nur))
    if keep_x0:
        H[x0_off:, x0_off:] = 0.5 * Ms[0][0][nu[a]:, nu[a]:]
    np.add(H, H.T, out=H)
    dense.set_field("g", h[z_pos - vw.u_off[a]])
    # ---- the general rows: gathered state rows, then C_n pred_n + D_n ----
    C = dense._fill("C")
    shift = np.empty(src.size - nb_c)
    ksb = sbox.size
    np.take(pred, xb[sbox], axis=0, out=C[:ksb], mode="clip")
    shift[:ksb] = gamma[xb[sbox]]
    g0 = ksb
    for r0, r1 in runs:
        ngr, nur, nxr, i0, i1 = ng[r0], nu[r0], nx[r0], r0 - a, r1 - a
        if not ngr:
            continue
        k = r1 - r0
        Cs = _stack(qp, r0, r1, "C")
        Cr = C[g0: g0 + k * ngr].reshape(k, ngr, nv)
        _rows_times(Cs, pred[x_end[i0] - nxr: x_end[i1 - 1]].reshape(k, nxr, nv),
                    Cr, uz[i1 - 1], x0)
        _diag_blocks(Cr, uz[i0], nur)[...] = _stack(qp, r0, r1, "D")
        np.matmul(Cs, gamma[x_end[i0] - nxr: x_end[i1 - 1]].reshape(k, nxr, 1),
                  out=shift[g0: g0 + k * ngr].reshape(k, ngr, 1))
        g0 += k * ngr
    count_flops(_flops(d, a, b, p))
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
    if s1 > s0:
        dense.set_field("idxs", soft_row[slack_pos - s0])
        # each source holds the lower sides' values, then the upper sides'
        for names, vals in ((("Zl", "Zu"), vw.slack_diag), (("zl", "zu"), vw.g[vw.nv:]),
                            (("sl_lb", "su_lb"), bnd[rows[2 * m:]])):
            for name, j in zip(names, (slack_pos, ns + slack_pos)):
                dense.set_field(name, vals[j])
    cmap = CondensingMap(
        stages=range(a, b),
        keep_x0=keep_x0,
        x0hat=None if keep_x0 else x0hat,
        nx0=nx0,
        u_off=[o if k else None for o, k in zip(uz, nu[a:b].tolist())],
        nv=nv, pred_all=pred[:xe], gamma_all=gamma[:xe], x_end=x_end[: b - a],
        x_pos=x_pos, z_pos=z_pos,
        lam_pos=rows[np.concatenate(
            [src, m + src, 2 * m + slack_pos, 2 * m + ns + slack_pos])],
        slack_pos=slack_pos,
        fix_rows=np.zeros(0, dtype=np.intp),
    )
    end = None if b > d.N else (pred[xe:], gamma[xe:])
    return dense, cmap, end


def condense(qp, keep_x0=None):
    """Convert an optimal-control QP into an equivalent dense QP.

    ``keep_x0=None`` keeps the initial state as a variable unless it is
    fully fixed by equal-bound box rows; ``keep_x0=False`` requires that and
    eliminates it.  Returns ``(dense_qp, condensing_map)``.

    The flops are counted once, nominally.  With ``w = nu_n + nx_n``,
    ``c = nx_{n+1}`` and ``p_n`` the nonzero columns of ``pred_n`` (the
    inputs before stage n, plus ``nx_0`` when x0 is kept):

    * every stage n < N: the prediction ``2 c nx_n (p_n + 1)``, the affine
      sweep ``2 c w`` and the recursion ``2 c w (c + w)``;
    * every stage: the affine term ``2 w nx_n``, the Hessian's input rows
      ``2 nu_n nx_n p_n`` and the general rows ``2 ng_n nx_n (p_n + 1)``.

    Nothing is factored, so an indefinite stage cost does not raise.

    Raises
    ------
    CondenseError
        If ``keep_x0=False`` and the initial state is not fully fixed (a
        soft row does not fix its component, see
        :func:`fixed_x0.detect_fixed_x0`).
    """
    if not isinstance(qp, OcpQp):
        raise TypeError("condense expects an OcpQp")
    all_fixed, x0hat, fix_rows = detect_fixed_x0(qp)
    if keep_x0 is None:
        keep_x0 = not all_fixed
    if not keep_x0 and not all_fixed:
        raise CondenseError(
            "keep_x0=False requires every initial-state component fixed "
            "by active equal-bound box rows"
        )
    dense, cmap, _ = _condense(qp, make_view(qp), 0, qp.dim.N + 1, keep_x0,
                               x0hat)
    if not keep_x0:
        cmap.fix_rows = fix_rows
    return dense, cmap


def _expand(sol_c, cmaps, qp):
    """Expand ``sol_c``, a solution of the QP that ``cmaps`` condensed ``qp``
    into, back onto ``qp``; see the module docstring.

    ``cmaps`` lists the condensed blocks' maps in stage order, and the
    parts of ``sol_c`` (``v``, ``lam``, ``t`` and the slacks) are the
    blocks' parts, concatenated; its ``pi`` holds the dynamics multipliers
    into the blocks after the first.
    """
    d = qp.dim
    N = d.N
    nx, nu = d.nx, d.nu
    vw = make_view(qp)
    sol = QpSolution(vw)
    z = sol_c.v
    if z.shape[0] != sum(cm.nv for cm in cmaps):
        raise DimensionMismatch("condensed solution does not match the map")
    v = sol.v
    z0 = 0
    for cm in cmaps:
        v[cm.x_pos] = cm.pred_all @ z[z0: z0 + cm.nv] + cm.gamma_all
        z0 += cm.nv
    x_pos, z_pos, lam_pos, slack_pos = (
        np.concatenate([getattr(cm, f) for cm in cmaps])
        for f in ("x_pos", "z_pos", "lam_pos", "slack_pos"))
    v[z_pos] = z
    # multipliers and inequality slacks
    sol.lam[lam_pos] = sol_c.lam
    sol.t[lam_pos] = sol_c.t
    sol.sl_all[slack_pos] = sol_c.sl_all
    sol.su_all[slack_pos] = sol_c.su_all
    # h_m = Q_m x_m + S_m' u_m + q_m - (C' lam)_{x_m} of every stage, laid
    # out like the states: one stacked product per run
    x_end = np.cumsum(nx)
    h = (vw.g[: vw.nv] - vw.ct_lam(sol.lam)[: vw.nv])[x_pos]
    off = vw.hess_off
    for a, b in _runs(d):
        k, nur, nxr = b - a, nu[a], nx[a]
        nw = nur + nxr
        W = vw.hess0[off[a]: off[b]].reshape(k, nw, nw)
        w = v[vw.u_off[a]: vw.u_off[a] + k * nw].reshape(k, nw, 1)
        h[x_end[a] - nxr: x_end[b - 1]] += (W[:, nur:] @ w).ravel()
    # costate sweep inside the blocks: pi[m-1] = h_m + A_m' pi[m]; the
    # multipliers into the blocks after the first end sol_c.pi, in order
    pi, pi_off = sol.pi, vw.pi_off
    starts = {cm.stages.start for cm in cmaps[1:]}
    p1 = sol_c.pi.size
    nxt = None
    for m in range(N, 0, -1):
        out = pi[pi_off[m - 1]: pi_off[m - 1] + nx[m]]
        hm = h[x_end[m] - nx[m]: x_end[m]]
        if m in starts:
            out[:] = sol_c.pi[p1 - nx[m]: p1]
            p1 -= nx[m]
        elif nxt is None:
            out[:] = hm
        else:
            np.add(hm, qp._dyn[m]["A"].T @ nxt, out=out)
        nxt = out
    # dropped initial-state fixing rows: their multipliers from the stage-0
    # stationarity gap
    if cmaps[0].fix_rows.size:
        fixed_row_multipliers(vw, sol, cmaps[0].fix_rows)
    return sol


def expand_solution(dense_sol, cmap, qp):
    """Expand a dense solution of :func:`condense` back to the optimal-control QP.

    States come from one product with the stored prediction, inputs,
    multipliers and slacks are scattered to the positions the map records,
    and the dynamics multipliers follow from the backward costate sweep.
    """
    return _expand(dense_sol, [cmap], qp)


def partial_condense(qp, N1):
    """Block-condense an optimal-control QP to horizon ``ceil(N / N1)``.

    Each block of up to N1 stages is condensed on ``qp``'s own view with
    its initial state kept as a variable, and the terminal stage is a block
    of one stage; every block's dense QP is one stage of the result (see
    the module docstring).  The first block eliminates a fully fixed
    initial state instead, as :func:`condense` does with ``keep_x0=None``:
    the result's stage 0 then has no state, and the expansion recovers the
    dropped rows' multipliers.  ``N1 = 1`` reproduces the input problem
    exactly, up to that elimination.

    The flops are those of condensing every block (see :func:`condense`),
    the terminal one included.
    """
    if not isinstance(qp, OcpQp):
        raise TypeError("partial_condense expects an OcpQp")
    d = qp.dim
    if not isinstance(N1, numbers.Integral) or N1 < 1:
        raise InvalidBlockSize(f"block size must be an integer >= 1, got {N1!r}")
    if d.N < 1:
        raise InvalidBlockSize("horizon must be >= 1 for partial condensing")
    N1 = int(N1)
    vw = make_view(qp)
    all_fixed, x0hat, fix_rows = detect_fixed_x0(qp)
    blocks = [(n0, min(n0 + N1, d.N)) for n0 in range(0, d.N, N1)]
    parts = [_condense(qp, vw, a, b, a > 0 or not all_fixed, x0hat)
             for a, b in blocks + [(d.N, d.N + 1)]]
    if all_fixed:
        parts[0][1].fix_rows = fix_rows
    dense = [dq for dq, _, _ in parts]
    nx = [cm.nx0 if cm.keep_x0 else 0 for _, cm, _ in parts]
    out = OcpQp(OcpQpDim(
        len(blocks), nx, [dq.nv - nxk for dq, nxk in zip(dense, nx)],
        [dq.nb for dq in dense], [dq.ng for dq in dense], [dq.ns for dq in dense],
    ))
    for k, (dq, _, end) in enumerate(parts):
        dd = dq._data
        nu = out.dim.nu[k]
        H, g, C = dd["H"], dd["g"], dd["C"]
        split = {
            "R": H[:nu, :nu], "S": H[:nu, nu:], "Q": H[nu:, nu:],
            "r": g[:nu], "q": g[nu:], "D": C[:, :nu], "C": C[:, nu:],
        }
        if end is not None:
            pred, gamma = end
            split.update(B=pred[:, :nu], A=pred[:, nu:], b=gamma)
        # the constraint-row fields, which a dense QP and a stage store alike
        split.update((name, dd[name]) for name in ROW_FIELDS)
        for name, value in split.items():
            out.set_field(name, k, value)
    return out, PartialCondensingMap([cm for _, cm, _ in parts])


def partial_expand(sol_p, pmap, qp):
    """Expand a short-horizon solution of :func:`partial_condense` back to
    the original horizon.

    Stage k of the short solution is block k's dense solution, and its
    dynamics multipliers are those into the blocks' initial states: one
    expansion over all blocks (see the module docstring).
    """
    return _expand(sol_p, pmap.blocks, qp)
