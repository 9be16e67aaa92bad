"""A fully fixed initial state, eliminated from an optimal-control or tree QP.

An MPC step fixes the initial state x0 to a measurement: every component of
x0 gets a stage-0 box row whose lower and upper bounds are equal, finite and
both active.  Kept as such a pair, a row has no strict interior: both of
its slacks must reach 0, and the interior point method's slack and
multiplier clips hold them above it, so the complementarity residual of
the pair stalls at the clip times its multiplier.  The paper's OCP QP
allows ``nx[0] = 0`` for this reason: x0 is folded into the data.

:func:`detect_fixed_x0` finds such rows; :func:`condensing.condense` and
the solvers of :mod:`solver` both read it.  The solvers then solve the
reduced QP of :class:`Reduced`, with ``nx[0] = 0``:

* the root's stage keeps its inputs, its input box rows and its general
  rows, with ``r + S x0`` as its gradient and ``lg - C x0``, ``ug - C x0``
  as its general bounds; its ``Q``, ``q``, ``S`` and ``C`` have no columns;
* every dynamics block leaving the root has ``b + A x0`` and no ``A``;
* every other stage and dynamics block is the caller's own dict, shared,
  so a write to it through the caller is read by the reduced QP too (see
  :class:`qp_data._StageQpBase`, which also counts the write on the reduced
  QP, so that its view is refreshed or rebuilt as the caller's would be).

The reduced QP holds no reference to the caller, so the caller's cache of
it (``_reduced``) makes no reference cycle.  A caller-layout guess is
restricted to it by one gather, and its solution is expanded back onto the
caller by one scatter: x(0) is x0, the fixed rows' slacks are 0, and their
multipliers come from the stage-0 stationarity gap
(:func:`fixed_row_multipliers`, the recovery that condensing's expansion
makes for the rows it drops as well).

Partly fixed initial states (some component free, or fixed by a row that
is masked, soft or has unequal bounds) and equal bounds at later stages
stay pairs of box rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .view import QpSolution

__all__ = ["detect_fixed_x0", "fixed_row_multipliers", "Reduced", "reduced"]


def detect_fixed_x0(qp):
    """``(all_fixed, x0hat, fix_rows)`` from the stage-0 equal-bound box rows.

    ``fix_rows`` are the stage-0 box rows on a state component whose bounds
    are equal and finite with both sides active and that are not soft (a
    slack relaxes a soft row); ``x0hat`` holds their values, NaN on every
    component no such row fixes, and ``all_fixed`` tells whether there is
    none.  Only a fully fixed initial state is eliminated: a partly fixed
    one stays a set of box-row pairs, as do equal bounds at later stages.
    """
    st = qp._stages[0]
    d = qp.dim
    nu0, nb0 = int(d.nu[0]), int(d.nb[0])
    idxb, lb, idxs = st["idxb"], st["lb"], st["idxs"]
    fix = ((idxb >= nu0) & (lb == st["ub"]) & np.isfinite(lb)
           & (st["maskl"][:nb0] != 0.0) & (st["masku"][:nb0] != 0.0))
    if idxs.size:
        fix[idxs[idxs < nb0]] = False
    rows = fix.nonzero()[0]
    x0hat = np.empty(d.nx[0])
    x0hat.fill(np.nan)
    x0hat[idxb[rows] - nu0] = lb[rows]
    return not np.isnan(x0hat).any(), x0hat, rows


def fixed_row_multipliers(vw, sol, fix_rows):
    """Set the multipliers of the stage-0 box rows ``fix_rows`` that fix x0.

    ``sol`` is a point on the view ``vw`` of the QP that holds the rows,
    with 0 in their ``lam``.  Each row's net multiplier is the stage-0
    stationarity gap on its component, ``Q x0 + S' u0 + q - C' lam_g +
    sum A' pi`` over the dynamics blocks leaving the root; it goes to the
    lower side when nonnegative, else to the upper side.
    """
    d = vw.dim
    nu0 = int(d.nu[0])
    st, cb = vw._stages[0], vw.blocks[0]
    lam0 = sol.lam[cb.c_off: cb.c_off + cb.nc]
    m, nb = cb.m, cb.nb
    gap = vw.node_hess[0][nu0:] @ sol.y[cb.w_off: cb.w_off + cb.nw] + st["q"]
    if m > nb:
        gap -= st["C"].T @ (lam0[nb:m] - lam0[m + nb: 2 * m])
    for child, dyn, p in vw.out_edges[0]:
        gap += dyn["A"].T @ sol.pi[p: p + d.nx[child]]
    gap = gap[st["idxb"][fix_rows] - nu0]
    lam0[np.where(gap >= 0.0, fix_rows, m + fix_rows)] = np.abs(gap)


def _root_vectors(qp, rows, x0hat, edges):
    """The fields of the reduced root that its vectors read, from the
    caller ``qp`` with x0 = ``x0hat`` folded in: stage 0's, whose ``rows``
    stay (its input box rows, then its general rows), and the ``b`` of the
    dynamics blocks ``edges`` leaving the root."""
    st = qp._stages[0]
    nbk = rows.size - qp.dim.ng[0]
    stage = {k: st[k] for k in ("lg", "ug", "zl", "zu", "sl_lb", "su_lb")}
    if rows.size > nbk:
        cx = st["C"] @ x0hat
        stage.update(lg=st["lg"] - cx, ug=st["ug"] - cx)
    stage.update(r=st["r"] + st["S"] @ x0hat, lb=st["lb"][:nbk],
                 ub=st["ub"][:nbk], maskl=st["maskl"][rows],
                 masku=st["masku"][rows])
    return stage, {i: qp._dyn[i]["b"] + qp._dyn[i]["A"] @ x0hat for i in edges}


class Reduced:
    """The QP with its fully fixed initial state eliminated, and the maps
    between its solution buffers and the caller's (see the module
    docstring).

    The fixed rows are the last ``nx[0]`` box rows of stage 0: a fully
    fixed initial state has one row per component, and ``idxb`` increases
    (:func:`qp_data.validate`), so they follow the input rows.

    * ``qp``        the reduced QP, of the caller's type;
    * ``fix_rows``  the caller's stage-0 box rows that fix x0, dropped;
    * ``x0hat``     the fixed initial state folded in;
    * ``pos``       the caller's buffer position of every entry of a
                    reduced buffer ``[y | pi | lam | t]``;
    * ``sizes``     the caller's ``(ny, ne, nc)``.
    """

    def __init__(self, qp, x0hat, fix_rows):
        d = qp.dim
        nu0, nx0 = int(d.nu[0]), int(d.nx[0])
        nb0, ng0, ns0 = int(d.nb[0]), int(d.ng[0]), int(d.ns[0])
        nbk = nb0 - nx0
        self._edges = [i for i, (p, _) in d.edges.items() if p == 0]
        self.fix_rows, self.x0hat = fix_rows, x0hat
        # the caller's stage-0 rows that stay: the input box rows, then the
        # general rows
        m0 = nb0 + ng0
        self._rows = rows = np.concatenate([np.arange(nbk), np.arange(nb0, m0)])
        st = qp._stages[0]
        stage, b = _root_vectors(qp, rows, x0hat, self._edges)
        idxs = st["idxs"]
        if idxs.size:
            at = np.empty(m0, dtype=int)
            at[rows] = np.arange(rows.size)
            idxs = at[idxs]
        stage.update(Q=np.zeros((0, 0)), S=np.zeros((nu0, 0)), R=st["R"],
                     q=np.zeros(0), C=np.zeros((ng0, 0)), D=st["D"],
                     idxb=st["idxb"][:nbk], idxs=idxs, Zl=st["Zl"], Zu=st["Zu"])
        dyn = list(qp._dyn)
        for i, bi in b.items():
            dyn[i] = {"A": np.zeros((bi.shape[0], 0)), "B": dyn[i]["B"], "b": bi}
        nx, nb = d.nx.copy(), d.nb.copy()
        nx[0], nb[0] = 0, nbk
        first = d.parents if qp.kind == "tree" else d.N
        dim = type(d)(first, nx, d.nu, nb, d.ng, d.ns)
        self.qp = type(qp)._over(dim, [stage] + qp._stages[1:], dyn)
        # the caller's buffer position of every reduced entry: the states of
        # the root drop out of v, its fixed rows' sides out of lam and t
        nv = int((d.nu + d.nx).sum())
        ns = int(d.ns.sum())
        ny, ne = nv + 2 * ns, int(d.nx.sum()) - nx0
        nc = int((2 * (d.nb + d.ng + d.ns)).sum())
        self.sizes = (ny, ne, nc)
        v = np.arange(nv - nx0)
        v[nu0:] += nx0
        lam = np.concatenate([rows, m0 + rows, 2 * m0 + np.arange(2 * ns0),
                              np.arange(2 * (m0 + ns0), nc)])
        self.pos = np.concatenate([v, np.arange(nv, ny + ne), ny + ne + lam,
                                   ny + ne + nc + lam])
        self._x0 = slice(nu0, nu0 + nx0)

    def refresh(self, qp, x0hat):
        """Derive the root's vectors again from the caller ``qp``, with
        ``x0hat`` as the fixed state; counted on the reduced QP as vector
        writes, so that its view is refreshed, not rebuilt."""
        self.x0hat = x0hat
        stage, b = _root_vectors(qp, self._rows, x0hat, self._edges)
        red = self.qp
        red._stages[0].update(stage)
        f = red._FIELDS
        red._bump(f["r"], 0, 0)
        red._bump(f["lb"], 0, 0)
        for i, bi in b.items():
            red._dyn[i]["b"] = bi
            red._bump(f["b"], red.dim.edges[i][1], 0)

    def restrict(self, guess, view):
        """The caller-layout point ``guess`` on the reduced QP's ``view``."""
        ny, ne, nc = self.sizes
        if (guess.y.shape[0], guess.pi.shape[0], guess.lam.shape[0],
                guess.t.shape[0]) != (ny, ne, nc, nc):
            raise DimensionMismatch("guess does not match QP dimensions")
        return QpSolution._wrap(view, guess.flat()[self.pos])

    def expand(self, sol, view):
        """The reduced QP's point ``sol`` on the caller's ``view``."""
        buf = np.zeros(view.ny + view.ne + 2 * view.nc)
        buf[self.pos] = sol.flat()
        buf[self._x0] = self.x0hat
        out = QpSolution._wrap(view, buf)
        fixed_row_multipliers(view, out, self.fix_rows)
        return out


def reduced(qp):
    """The :class:`Reduced` form of an OCP or tree QP, cached on it, or None
    when its initial state is not eliminated: not fully fixed (see
    :func:`detect_fixed_x0`) or without states.

    The cache, ``qp._reduced`` (see :class:`qp_data._StageQpBase`), is used
    as it is while no write reached the root; after vector writes there
    the root's vectors are derived again.  The fixed rows of a fully fixed
    initial state are always the last ``nx[0]`` box rows (see
    :class:`Reduced`), so a record that is kept stays valid.
    """
    cached = qp._reduced
    if cached is not None and cached[0] == qp._rev and not cached[2]:
        return cached[1]
    all_fixed, x0hat, fix_rows = detect_fixed_x0(qp)
    red = None
    if all_fixed and fix_rows.size:
        red = cached[1] if cached is not None and cached[0] == qp._rev else None
        if red is None:
            red = Reduced(qp, x0hat, fix_rows)
        else:
            red.refresh(qp, x0hat)
    qp._reduced = (qp._rev, red, False)
    return red
