"""Shared inequality/slack elimination algebra for the KKT backends.

Each backend reduces the Newton KKT system to an equality-constrained core
by eliminating, in this order, the inequality slacks t and the inequality
multipliers lam, and then the soft-constraint slack variables.  The
elimination acts block by block (one block per stage/node, or the whole
problem for the dense type) and only ever touches diagonals plus one rank-1
term per constraint row, which is what keeps soft constraints cheap: the
cost of handling ns soft rows is linear in ns.

Scaling vectors, with gamma = lam / t per active row:

* hard row i contributes ``gamma_lo[i] + gamma_up[i]`` times its outer
  product to the reduced Hessian;
* a soft row with slack j sees that coefficient replaced by the series
  combination ``gamma * (Z + gamma_bnd) / (Z + gamma_bnd + gamma)`` where
  Z is the slack penalty diagonal and gamma_bnd the slack-bound row scaling;
  the augmented slack diagonals ``D = Z + gamma + gamma_bnd`` are eliminated
  exactly because they are scalar.

The right-hand-side folding and the reverse recovery (first dlam, then dt)
mirror the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveIterate, SingularSlackBlock
from .linalg import matmul_acc

__all__ = ["BlockScales", "block_scales", "add_reduced_hessian",
           "fold_rhs", "recover_block", "kkt_apply_vec", "kkt_rhs_flat"]


@dataclass
class BlockScales:
    """Per-row multiplier/slack scalings of one constraint block."""

    g_lo: np.ndarray      # (m,) lam/t on active lower rows, else 0
    g_up: np.ndarray
    g_slo: np.ndarray     # (ns,) slack-bound row scalings
    g_sup: np.ndarray
    D_l: np.ndarray       # (ns,) augmented slack diagonals
    D_u: np.ndarray
    ge_lo: np.ndarray     # (m,) effective coefficients after slack elimination
    ge_up: np.ndarray
    g_all: np.ndarray     # (nc,) raw scalings in block row order
    lam: np.ndarray       # views of the iterate's block slices
    t: np.ndarray
    act: np.ndarray       # (nc,) bool


def block_scales(cb, lam, t):
    """Multiplier/slack scalings of block ``cb`` at the current iterate.

    Raises
    ------
    NonPositiveIterate
        If lam or t is not strictly positive on an active row.
    SingularSlackBlock
        If an augmented slack diagonal is not strictly positive.
    """
    lam_blk = lam[cb.c_off: cb.c_off + cb.nc]
    t_blk = t[cb.c_off: cb.c_off + cb.nc]
    act = np.concatenate([cb.act_lo, cb.act_up, cb.act_slo, cb.act_sup])
    if np.any(lam_blk[act] <= 0.0) or np.any(t_blk[act] <= 0.0):
        raise NonPositiveIterate("lam, t must be > 0 on active rows")
    g_all = np.zeros(cb.nc)
    np.divide(lam_blk, t_blk, out=g_all, where=act)
    m, ns = cb.m, cb.ns
    g_lo = g_all[:m]
    g_up = g_all[m: 2 * m]
    g_slo = g_all[2 * m: 2 * m + ns]
    g_sup = g_all[2 * m + ns:]
    ge_lo = g_lo.copy()
    ge_up = g_up.copy()
    if ns:
        D_l = cb.Zl + g_lo[cb.idxs] + g_slo
        D_u = cb.Zu + g_up[cb.idxs] + g_sup
        if np.any(D_l <= 0.0) or np.any(D_u <= 0.0):
            raise SingularSlackBlock(
                "augmented soft-slack diagonal must be > 0"
            )
        ge_lo[cb.idxs] = g_lo[cb.idxs] * (D_l - g_lo[cb.idxs]) / D_l
        ge_up[cb.idxs] = g_up[cb.idxs] * (D_u - g_up[cb.idxs]) / D_u
    else:
        D_l = np.zeros(0)
        D_u = np.zeros(0)
    return BlockScales(
        g_lo=g_lo, g_up=g_up, g_slo=g_slo, g_sup=g_sup,
        D_l=D_l, D_u=D_u, ge_lo=ge_lo, ge_up=ge_up,
        g_all=g_all, lam=lam_blk, t=t_blk, act=act,
    )


def add_reduced_hessian(cb, sc, H, effective=True):
    """Add the constraint contributions to a window Hessian and return it.

    With ``effective`` the slack-eliminated coefficients are used (the fully
    reduced system over the window variables); otherwise the raw gamma
    scalings (inequality elimination only).  Box rows touch only diagonal
    entries; general rows add a scaled Gram matrix of their coefficient rows.
    """
    coef = (sc.ge_lo + sc.ge_up) if effective else (sc.g_lo + sc.g_up)
    H = H.copy()
    if cb.nb:
        H[cb.idxb, cb.idxb] += coef[: cb.nb]
    if cb.ng:
        H = matmul_acc(1.0, cb.Jg, coef[cb.nb:, None] * cb.Jg, 1.0, H,
                       transA=True)
    return H


def fold_rhs(cb, sc, r_gw, r_gsl, r_gsu, r_d_blk, r_m_blk):
    """Fold one block's inequality and slack right-hand sides into the window.

    Returns ``(rhat_w, stash)``: the reduced window right-hand side and the
    intermediates needed by :func:`recover_block`.
    """
    m, ns = cb.m, cb.ns
    w_all = np.zeros(cb.nc)
    np.divide(sc.lam * r_d_blk - r_m_blk, sc.t, out=w_all, where=sc.act)
    w_lo = w_all[:m]
    w_up = w_all[m: 2 * m]
    rt_sl = r_gsl - w_lo[cb.idxs] - w_all[2 * m: 2 * m + ns] if ns else r_gsl
    rt_su = r_gsu - w_up[cb.idxs] - w_all[2 * m + ns:] if ns else r_gsu
    rhat_w = r_gw - cb.rows_w_t(w_lo - w_up)
    if ns:
        fold = np.zeros(m)
        fold[cb.idxs] = (sc.g_lo[cb.idxs] * rt_sl / sc.D_l
                         - sc.g_up[cb.idxs] * rt_su / sc.D_u)
        rhat_w = rhat_w - cb.rows_w_t(fold)
    return rhat_w, (w_all, rt_sl, rt_su)


def recover_block(cb, sc, dw, stash, r_d_blk):
    """Recover (dsl, dsu, dlam, dt) of one block from the window step.

    The multipliers come back first, then the inequality slacks, reversing
    the elimination order.  Deactivated rows stay at zero.
    """
    m, ns = cb.m, cb.ns
    w_all, rt_sl, rt_su = stash
    base = cb.rows_w(dw)
    if ns:
        dsl = (-rt_sl - sc.g_lo[cb.idxs] * base[cb.idxs]) / sc.D_l
        dsu = (-rt_su + sc.g_up[cb.idxs] * base[cb.idxs]) / sc.D_u
    else:
        dsl = np.zeros(0)
        dsu = np.zeros(0)
    cy_lo = base.copy()
    cy_up = -base
    if ns:
        cy_lo[cb.idxs] += dsl
        cy_up[cb.idxs] += dsu
    cy = np.concatenate([cy_lo, cy_up, dsl, dsu])
    dlam = np.where(sc.act, w_all - sc.g_all * cy, 0.0)
    dt = np.where(sc.act, -r_d_blk + cy, 0.0)
    return dsl, dsu, dlam, dt


def kkt_apply_vec(view, lam, t, delta_flat):
    """Exact (unfactorized, unregularized) KKT matrix action on a flat vector.

    ``lam``/``t`` fix the complementarity linearization; masked rows map to
    zero.  Used to form iterative-refinement residuals.
    """
    ny, ne, nc = view.ny, view.ne, view.nc
    dy = delta_flat[:ny]
    dpi = delta_flat[ny: ny + ne]
    dlam = delta_flat[ny + ne: ny + ne + nc]
    dt = delta_flat[ny + ne + nc:]
    a_g = view.hess_y(dy) - view.at_pi(dpi) - view.ct_lam(dlam)
    a_b = -view.a_y(dy)
    a_d = np.where(view.act, -view.cy(dy) + dt, 0.0)
    a_m = np.where(view.act, t * dlam + lam * dt, 0.0)
    return np.concatenate([a_g, a_b, a_d, a_m])


def kkt_rhs_flat(view, r_g, r_b, r_d, r_m):
    """Pack 4-block right-hand sides into the flat KKT vector order."""
    return np.concatenate([
        r_g,
        r_b,
        np.where(view.act, r_d, 0.0),
        np.where(view.act, r_m, 0.0),
    ])

