"""Shared inequality/slack elimination algebra for the KKT backends.

Each backend reduces the Newton KKT system to an equality-constrained core
by eliminating, in this order, the inequality slacks t and the inequality
multipliers lam, and then the soft-constraint slack variables.  The
elimination only ever touches diagonals plus one rank-1 term per constraint
row, which is what keeps soft constraints cheap: the cost of handling ns
soft rows is linear in ns.

Scaling vectors, with gamma = lam / t per active row:

* hard row i contributes ``gamma_lo[i] + gamma_up[i]`` times its outer
  product to the reduced Hessian;
* a soft row with slack j sees that coefficient replaced by the series
  combination ``gamma * (Z + gamma_bnd) / (Z + gamma_bnd + gamma)`` where
  Z is the slack penalty diagonal and gamma_bnd the slack-bound row scaling;
  the augmented slack diagonals ``D = Z + gamma + gamma_bnd`` are eliminated
  exactly because they are scalar.

The right-hand-side folding and the reverse recovery (first the slacks,
then dlam and dt) mirror the same order.

Every row's reduced-Hessian coefficient, lower plus upper side after slack
elimination, is one expression over the view's row table,
:func:`row_coef`; the dense QR route reads it too.

Only the reduced Hessian has block structure.  :func:`reduced_hessian`
forms every block's reduced Hessian in one pass over a flat buffer laid out
by the view (``hess0``, ``hess_off``, ``hess_box``, ``hess_diag``): one
copy of the base Hessians, one scatter of the box rows' coefficients onto
their diagonal entries, the Gram term of each block with general rows and
the primal regularization on every diagonal entry.  The Gram term
``Jg' diag(c) Jg`` is formed as the symmetric product ``S' S`` of
``S = sqrt(c) Jg`` (:func:`linalg.gram`, one ``dsyrk``), so it is exactly
symmetric and costs half a general product; the coefficients are
nonnegative because the slack penalties are (validation rejects negative
``Zl``/``Zu``).
Everything else is formed once over the flat vectors, with the view's row
tables (``box_col``, ``G`` and the positions of every row side in
``lam``/``t``): the scalings (:func:`view_scales`), the folded right-hand
side over v (:func:`fold_rhs`) and the recovered slack, multiplier and
inequality-slack steps (:func:`recover`).  Both backends call the same four
functions; on a dense QP, whose one block is the whole problem, they
perform the per-block arithmetic operation for operation.  A backend writes
its step over v and its ``pi`` straight into one zeroed solution buffer, and
:func:`recover` fills in the rest, leaving masked rows at exact zero.  The
row-wise divides and differences that must skip masked rows take the
view's ``where=`` constant ``_act_where`` (see
:meth:`view.ProblemView._set_bounds`): the activity mask, or ``True`` when
every row is active, where the unmasked call writes the same bits at a
fraction of a masked call's cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveIterate, SingularSlackBlock
from .linalg import gram
from .view import split_flat

__all__ = ["Scales", "view_scales", "row_coef", "reduced_hessian", "fold_rhs",
           "recover", "kkt_apply_vec", "kkt_rhs_flat"]


@dataclass
class Scales:
    """Multiplier/slack scalings of every constraint row at one iterate."""

    lam: np.ndarray       # (nc,) the iterate's multipliers and slacks
    t: np.ndarray
    g: np.ndarray         # (nc,) lam/t on active rows, else 0
    ge: np.ndarray        # (nc,) effective coefficients after slack elimination
    D: np.ndarray         # (2 ns_tot,) augmented slack diagonals [D_l | D_u]


def view_scales(view, lam, t):
    """Multiplier/slack scalings of all rows of ``view`` at the current iterate.

    Raises
    ------
    NonPositiveIterate
        If lam or t is not strictly positive on an active row.
    SingularSlackBlock
        If an augmented slack diagonal is not strictly positive.
    """
    # one pass over every row settles the usual case; the masked test runs
    # only when some entry is not positive (masked rows hold lam = t = 0)
    low = np.minimum(lam, t)
    if low.min(initial=np.inf) <= 0.0 and np.any(low[view.act] <= 0.0):
        raise NonPositiveIterate("lam, t must be > 0 on active rows")
    g = np.zeros(view.nc)
    np.divide(lam, t, out=g, where=view._act_where)
    soft = view._soft
    if not soft.size:
        return Scales(lam=lam, t=t, g=g, ge=g, D=np.zeros(0))
    # the softened rows' sides and the slack-bound rows, in slack order [sl | su]
    g_soft = g[soft]
    D = view.slack_diag + g_soft + g[view._rows[2 * view._m:]]
    if np.any(D <= 0.0):
        raise SingularSlackBlock("augmented soft-slack diagonal must be > 0")
    ge = g.copy()
    ge[soft] = g_soft * (D - g_soft) / D
    return Scales(lam=lam, t=t, g=g, ge=ge, D=D)


def row_coef(view, sc):
    """Reduced-Hessian coefficient of every box and general row, in row order.

    The slack-eliminated coefficients of the row's lower and upper sides,
    summed.
    """
    m = view._m
    return sc.ge[view._rows[:m]] + sc.ge[view._rows[m: 2 * m]]


def reduced_hessian(view, sc, reg=0.0):
    """Every block's reduced Hessian, formed in one pass over a flat buffer.

    Returns a fresh buffer laid out like ``view.hess0``: block n's (nw, nw)
    Hessian is ``out[view.hess_off[n]: view.hess_off[n + 1]]`` in row-major
    order.  It is the block's base Hessian plus the slack-eliminated
    coefficient of each box row on that row's diagonal entry, plus the Gram
    term ``S' S`` of ``S = sqrt(c) Jg`` for the general rows, plus ``reg``
    on the diagonal.  The terms are added in that order, so each block gets
    the bits of a block-by-block assembly.
    """
    nb = view._nb
    coef = row_coef(view, sc)
    out = view.hess0.copy()
    out[view.hess_box] += coef[:nb]
    for cb, lo, k in view.hess_gen:
        M = out[lo: lo + cb.nw * cb.nw].reshape(cb.nw, cb.nw)
        c = coef[nb + k: nb + k + cb.ng]
        M += gram(np.sqrt(c)[:, None] * cb.Jg)
    if reg:
        out[view.hess_diag] += reg
    return out


def fold_rhs(view, sc, r_g, r_d, r_m):
    """Fold the inequality and slack right-hand sides into one over v.

    Returns ``(rhat, fold)``: the reduced right-hand side over v and the
    intermediates :func:`recover` needs, the folding weights
    ``(lam * r_d - r_m) / t`` (0 on inactive rows) and the slacks' folded
    right-hand sides.
    """
    nv = view.nv
    w = np.zeros(view.nc)
    np.divide(sc.lam * r_d - r_m, sc.t, out=w, where=view._act_where)
    rhat = r_g[:nv] - view.rows_t(w)
    soft = view._soft
    if not soft.size:
        return rhat, (w, None)
    rt = r_g[nv:] - w[soft] - w[view._rows[2 * view._m:]]
    f = np.zeros(view.nc)
    f[soft] = sc.g[soft] * rt / sc.D
    return rhat - view.rows_t(f), (w, rt)


def recover(view, sc, fold, r_d, out):
    """Recover the slack, multiplier and inequality-slack steps into ``out``.

    ``out`` is a zeroed :class:`QpSolution` whose ``v`` already holds the
    step over v; the slack steps come back first, then the multipliers and
    the inequality slacks, reversing the elimination order.  Deactivated
    rows stay exactly zero, which is the invariant the interior point loop
    relies on.
    """
    w, rt = fold
    soft = view._soft
    cy = view.cy(out.y)     # the slack part of out.y is still zero
    if soft.size:
        ds = (-rt - sc.g[soft] * cy[soft]) / sc.D
        cy[soft] += ds
        cy[view._rows[2 * view._m:]] = ds
        out.y[view.nv:] = ds
    np.subtract(w, sc.g * cy, out=out.lam, where=view._act_where)
    np.subtract(cy, r_d, out=out.t, where=view._act_where)
    return out


def kkt_apply_vec(view, lam, t, delta_flat):
    """Exact (unfactorized, unregularized) KKT matrix action on a flat vector.

    ``lam``/``t`` fix the complementarity linearization.  Both and the
    ``dlam``/``dt`` parts of ``delta_flat`` must be zero on masked rows, as
    every iterate and step of the interior point loop is; masked rows then
    map to zero.  Used to form iterative-refinement residuals; the result
    is one buffer laid out like ``delta_flat``: the view's
    :meth:`~view.ProblemView.kkt_product` of its first three blocks, then
    ``+ dt`` and the mask on the inequality rows and ``t dlam + lam dt``.

    Raises
    ------
    DimensionMismatch
        If ``delta_flat``, ``lam`` or ``t`` does not match the view.
    """
    ny, ne, nc = view.ny, view.ne, view.nc
    n = ny + ne + 2 * nc
    if delta_flat.shape != (n,) or lam.shape != (nc,) or t.shape != (nc,):
        raise DimensionMismatch(
            f"KKT vector of shape {delta_flat.shape} with lam {lam.shape} and "
            f"t {t.shape}; the QP needs ({n},) and ({nc},)"
        )
    k = ny + ne + nc
    out = np.empty(n)
    view.kkt_product(delta_flat[:k], out[:k])
    a_d, a_m = out[ny + ne: k], out[k:]
    dlam, dt = delta_flat[ny + ne: k], delta_flat[k:]
    a_d += dt
    a_d[view._inact] = 0.0
    np.multiply(t, dlam, out=a_m)
    a_m += lam * dt
    return out


def kkt_rhs_flat(view, r_g, r_b, r_d, r_m):
    """Pack 4-block right-hand sides into the flat KKT vector order.

    ``r_d`` and ``r_m`` must be zero on masked rows (the loop's residuals
    and complementarity terms are).
    """
    ny, ne, nc = view.ny, view.ne, view.nc
    out = np.empty(ny + ne + 2 * nc)
    for dst, src in zip(split_flat(out, ny, ne, nc), (r_g, r_b, r_d, r_m)):
        dst[:] = src
    return out
