"""Flat-vector views of QP data: layouts, solutions, residuals, KKT oracle.

Internally every QP type is mapped onto flat float64 arrays:

* ``y``    primal vector ``[v | sl | su]`` where v concatenates the stage
           variables ``(u[n], x[n])`` in stage order for the structured types
           (inputs first within a stage) and is the plain variable vector for
           the dense type; sl/su concatenate the soft-constraint slacks.
* ``pi``   equality (dynamics) multipliers, stage/edge blocks concatenated.
* ``lam``  inequality multipliers, per constraint block in the fixed order
           [lower box+general | upper box+general | lower slack bounds |
           upper slack bounds].
* ``t``    inequality slack variables, same length and order as ``lam``.

A deactivated constraint side (mask 0, or an infinite bound) keeps its slot
in ``lam``/``t`` but is pinned to zero and excluded from residuals, duality
measure and multiplier updates.

The first-order optimality residuals of a primal-dual point are

    r_g = H y + g - A' pi - C' lam        (stationarity)
    r_b = -A y + b                        (equality feasibility)
    r_d = -C y + d + t                    (inequality feasibility)
    r_m = lam * t                         (complementarity)

with A the equality matrix, C the row-wise inequality matrix (lower rows
``+row``, upper rows ``-row``) and d the corresponding right-hand sides.
``full_kkt_system`` materializes the Newton linearization of these equations
as one dense matrix; it serves as the reference oracle that the
structure-exploiting factorizations are tested against.

OCP and tree QPs share one view, :class:`StageView`, because a horizon is a
chain tree: nodes (stages) joined by dynamics edges.  Its edge table lists
``(parent, child, dyn)`` in multiplier order, ``(n, n+1, _dyn[n])`` for an
OCP and ``(parents[m], m, _dyn[m])`` for a tree, so ``pi`` holds one block
per edge in that order for both types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonPositiveIterate
from .qp_data import DenseQp, OcpQp, TreeOcpQp

__all__ = [
    "QpSolution",
    "QpResiduals",
    "make_view",
    "compute_residuals",
    "objective",
    "full_kkt_system",
    "solve_full_kkt",
]


@dataclass
class ConBlock:
    """One stage/node (or the whole dense QP) worth of inequality rows."""

    w_off: int            # start of the block's variable window in v
    nw: int               # window width (nu + nx for stages, nv for dense)
    nb: int
    ng: int
    ns: int
    idxb: np.ndarray      # (nb,) component indices into the window
    Jg: np.ndarray        # (ng, nw) general-constraint rows
    d_lo: np.ndarray      # (nb+ng,) lower bounds (box rows first)
    d_up: np.ndarray      # (nb+ng,) upper bounds
    act_lo: np.ndarray    # (nb+ng,) bool, lower side active
    act_up: np.ndarray
    idxs: np.ndarray      # (ns,) soft row indices into 0..nb+ng
    slack_of_row: np.ndarray  # (nb+ng,) slack index or -1
    Zl: np.ndarray
    Zu: np.ndarray
    zl: np.ndarray
    zu: np.ndarray
    sl_lb: np.ndarray
    su_lb: np.ndarray
    act_slo: np.ndarray   # (ns,) bool
    act_sup: np.ndarray
    s_off: int            # block start in the flat slack vectors
    c_off: int            # block start in lam/t

    @property
    def m(self):
        return self.nb + self.ng

    @property
    def nc(self):
        return 2 * self.m + 2 * self.ns

    def rows_w(self, w):
        """Box+general row values Jc @ w of the window vector."""
        out = np.empty(self.m)
        out[: self.nb] = w[self.idxb]
        if self.ng:
            out[self.nb:] = self.Jg @ w
        return out

    def rows_w_t(self, coeff):
        """Jc' @ coeff accumulated into a window-sized vector."""
        out = np.zeros(self.nw)
        np.add.at(out, self.idxb, coeff[: self.nb])
        if self.ng:
            out += self.Jg.T @ coeff[self.nb:]
        return out


def _block_from_stage(st, nu, nx, w_off, s_off, c_off):
    nb = st["idxb"].shape[0]
    ng = st["lg"].shape[0]
    ns = st["idxs"].shape[0]
    nw = nu + nx
    Jg = np.hstack([st["D"], st["C"]]) if ng else np.zeros((0, nw))
    d_lo = np.concatenate([st["lb"], st["lg"]])
    d_up = np.concatenate([st["ub"], st["ug"]])
    act_lo = (st["maskl"] != 0.0) & np.isfinite(d_lo)
    act_up = (st["masku"] != 0.0) & np.isfinite(d_up)
    slack_of_row = np.full(nb + ng, -1, dtype=int)
    slack_of_row[st["idxs"]] = np.arange(ns)
    return ConBlock(
        w_off=w_off, nw=nw, nb=nb, ng=ng, ns=ns,
        idxb=st["idxb"], Jg=Jg, d_lo=d_lo, d_up=d_up,
        act_lo=act_lo, act_up=act_up,
        idxs=st["idxs"], slack_of_row=slack_of_row,
        Zl=st["Zl"], Zu=st["Zu"], zl=st["zl"], zu=st["zu"],
        sl_lb=st["sl_lb"], su_lb=st["su_lb"],
        act_slo=np.isfinite(st["sl_lb"]), act_sup=np.isfinite(st["su_lb"]),
        s_off=s_off, c_off=c_off,
    )


def _block_cy(cb, v, sl, su):
    w = v[cb.w_off: cb.w_off + cb.nw]
    base = cb.rows_w(w)
    slb = sl[cb.s_off: cb.s_off + cb.ns]
    sub = su[cb.s_off: cb.s_off + cb.ns]
    lo = base.copy()
    up = -base
    if cb.ns:
        lo[cb.idxs] += slb
        up[cb.idxs] += sub
    return np.concatenate([lo, up, slb, sub])


def _block_ct_lam(cb, lam_blk, out_v, out_sl, out_su):
    m, ns = cb.m, cb.ns
    lam_lo = lam_blk[:m]
    lam_up = lam_blk[m: 2 * m]
    coeff = lam_lo - lam_up
    out_v[cb.w_off: cb.w_off + cb.nw] += cb.rows_w_t(coeff)
    if ns:
        out_sl[cb.s_off: cb.s_off + ns] += lam_lo[cb.idxs] + lam_blk[2 * m: 2 * m + ns]
        out_su[cb.s_off: cb.s_off + ns] += lam_up[cb.idxs] + lam_blk[2 * m + ns:]


def _block_d(cb):
    return np.concatenate([cb.d_lo, -cb.d_up, cb.sl_lb, cb.su_lb])


def _block_act(cb):
    return np.concatenate([cb.act_lo, cb.act_up, cb.act_slo, cb.act_sup])


class ProblemView:
    """Layout tables and flat-vector operators for one QP instance."""

    def __init__(self, qp):
        self.qp = qp
        self.kind = qp.kind
        self._build()
        self.ny = self.nv + 2 * self.ns_tot
        self.nc = sum(cb.nc for cb in self.blocks)
        self.act = (
            np.concatenate([_block_act(cb) for cb in self.blocks])
            if self.blocks and self.nc
            else np.zeros(0, dtype=bool)
        )
        self.n_act = int(np.sum(self.act))
        d = (
            np.concatenate([_block_d(cb) for cb in self.blocks])
            if self.blocks and self.nc
            else np.zeros(0)
        )
        self.d = np.where(self.act, d, 0.0)

    # -- constraint machinery shared by all types ------------------------

    def cy(self, y):
        """Row values C @ y of all inequality rows (unmasked)."""
        v = y[: self.nv]
        sl = y[self.nv: self.nv + self.ns_tot]
        su = y[self.nv + self.ns_tot:]
        if not self.nc:
            return np.zeros(0)
        return np.concatenate([_block_cy(cb, v, sl, su) for cb in self.blocks])

    def ct_lam(self, lam):
        """C' @ lam over the primal vector, masked sides excluded."""
        lam = np.where(self.act, lam, 0.0)
        out_v = np.zeros(self.nv)
        out_sl = np.zeros(self.ns_tot)
        out_su = np.zeros(self.ns_tot)
        for cb in self.blocks:
            _block_ct_lam(cb, lam[cb.c_off: cb.c_off + cb.nc], out_v, out_sl, out_su)
        return np.concatenate([out_v, out_sl, out_su])

    def slack_diag(self):
        """Diagonal of the soft-slack Hessian blocks, flat (2*ns_tot,)."""
        if not self.ns_tot:
            return np.zeros(0)
        zl = np.concatenate([cb.Zl for cb in self.blocks])
        zu = np.concatenate([cb.Zu for cb in self.blocks])
        return np.concatenate([zl, zu])

    def hess_y(self, y):
        out = np.empty(self.ny)
        out[: self.nv] = self._hess_v(y[: self.nv])
        out[self.nv:] = self.slack_diag() * y[self.nv:]
        return out

    def grad(self):
        g = np.empty(self.ny)
        g[: self.nv] = self._grad_v()
        if self.ns_tot:
            g[self.nv: self.nv + self.ns_tot] = np.concatenate(
                [cb.zl for cb in self.blocks]
            )
            g[self.nv + self.ns_tot:] = np.concatenate([cb.zu for cb in self.blocks])
        return g

    # -- oracle-grade dense assemblies -----------------------------------

    def con_matrix(self):
        """Full inequality matrix C (nc, ny); deactivated rows are zero."""
        C = np.zeros((self.nc, self.ny))
        for cb in self.blocks:
            m, ns = cb.m, cb.ns
            base = np.zeros((m, self.ny))
            for i, k in enumerate(cb.idxb):
                base[i, cb.w_off + k] = 1.0
            if cb.ng:
                base[cb.nb:, cb.w_off: cb.w_off + cb.nw] = cb.Jg
            lo = base.copy()
            up = -base
            if ns:
                sl_cols = self.nv + cb.s_off + np.arange(ns)
                su_cols = self.nv + self.ns_tot + cb.s_off + np.arange(ns)
                lo[cb.idxs, sl_cols] = 1.0
                up[cb.idxs, su_cols] = 1.0
            r0 = cb.c_off
            C[r0: r0 + m] = lo
            C[r0 + m: r0 + 2 * m] = up
            if ns:
                C[r0 + 2 * m + np.arange(ns), sl_cols] = 1.0
                C[r0 + 2 * m + ns + np.arange(ns), su_cols] = 1.0
        C[~self.act] = 0.0
        return C

    def hess_matrix(self):
        H = np.zeros((self.ny, self.ny))
        H[: self.nv, : self.nv] = self._hess_v_matrix()
        if self.ns_tot:
            idx = np.arange(self.nv, self.ny)
            H[idx, idx] = self.slack_diag()
        return H

    # -- residuals --------------------------------------------------------

    def residuals(self, sol):
        if sol.y.shape[0] != self.ny or sol.lam.shape[0] != self.nc:
            raise DimensionMismatch("solution does not match QP dimensions")
        if sol.pi.shape[0] != self.ne:
            raise DimensionMismatch("equality multiplier length mismatch")
        lam = np.where(self.act, sol.lam, 0.0)
        t = np.where(self.act, sol.t, 0.0)
        r_g = self.hess_y(sol.y) + self.grad() - self.at_pi(sol.pi) - self.ct_lam(lam)
        r_b = -self.a_y(sol.y) + self.b()
        r_d = np.where(self.act, -self.cy(sol.y) + self.d + t, 0.0)
        r_m = np.where(self.act, lam * t, 0.0)
        mu = float(lam @ t) / self.n_act if self.n_act else 0.0
        return QpResiduals(
            r_g=r_g, r_b=r_b, r_d=r_d, r_m=r_m,
            res_g=_inf_norm(r_g), res_b=_inf_norm(r_b),
            res_d=_inf_norm(r_d), res_m=_inf_norm(r_m), mu=mu,
        )


def _inf_norm(v):
    return float(np.max(np.abs(v))) if v.size else 0.0


class DenseView(ProblemView):
    def _build(self):
        qp = self.qp
        self.nv = qp.nv
        self.ns_tot = qp.ns
        self.ne = qp.ne
        # dense QP: single window covering all of v, Jg = C
        stage = dict(qp._data)
        stage["D"] = np.zeros((qp.ng, 0))
        self.blocks = [_block_from_stage(stage, 0, qp.nv, 0, 0, 0)]
        self._H = qp._data["H"]
        self._g = qp._data["g"]
        self._A = qp._data["A"]
        self._b = qp._data["b"]

    def _hess_v(self, v):
        return self._H @ v

    def _hess_v_matrix(self):
        return self._H.copy()

    def _grad_v(self):
        return self._g.copy()

    def at_pi(self, pi):
        out = np.zeros(self.ny)
        if self.ne:
            out[: self.nv] = self._A.T @ pi
        return out

    def a_y(self, y):
        return self._A @ y[: self.nv] if self.ne else np.zeros(0)

    def b(self):
        return self._b.copy()

    def eq_matrix(self):
        E = np.zeros((self.ne, self.ny))
        E[:, : self.nv] = self._A
        return E


class StageView(ProblemView):
    """View of an OCP or tree QP: parents-first nodes joined by dynamics edges.

    ``edges`` lists ``(parent, child, dyn)`` in multiplier order (see the
    module docstring); ``out_edges[n]`` lists ``(child, dyn, pi_off)`` for
    the edges leaving node n, in the same order.
    """

    def __init__(self, qp, edges):
        self.edges = edges
        super().__init__(qp)

    def _build(self):
        qp = self.qp
        d = qp.dim
        self._st = qp._stages
        self.n_node = len(self._st)
        u_off, x_off = [], []
        v = s = c = 0
        self.blocks = []
        for n in range(self.n_node):
            u_off.append(v)
            x_off.append(v + d.nu[n])
            cb = _block_from_stage(self._st[n], d.nu[n], d.nx[n], v, s, c)
            self.blocks.append(cb)
            v += d.nu[n] + d.nx[n]
            s += d.ns[n]
            c += cb.nc
        self.pi_off = []
        self.out_edges = [[] for _ in range(self.n_node)]
        # per edge: dyn and the parent u, parent x, child x, multiplier slices
        self._edge_sl = []
        p = 0
        for par, m, dyn in self.edges:
            self.pi_off.append(p)
            self.out_edges[par].append((m, dyn, p))
            self._edge_sl.append((
                dyn,
                slice(u_off[par], u_off[par] + d.nu[par]),
                slice(x_off[par], x_off[par] + d.nx[par]),
                slice(x_off[m], x_off[m] + d.nx[m]),
                slice(p, p + d.nx[m]),
            ))
            p += d.nx[m]
        self.nv = v
        self.ns_tot = s
        self.ne = p
        self.u_off = u_off
        self.x_off = x_off

    def _hess_v(self, v):
        d = self.qp.dim
        out = np.empty(self.nv)
        for n in range(self.n_node):
            st = self._st[n]
            u = v[self.u_off[n]: self.u_off[n] + d.nu[n]]
            x = v[self.x_off[n]: self.x_off[n] + d.nx[n]]
            out[self.u_off[n]: self.u_off[n] + d.nu[n]] = st["R"] @ u + st["S"] @ x
            out[self.x_off[n]: self.x_off[n] + d.nx[n]] = st["S"].T @ u + st["Q"] @ x
        return out

    def _hess_v_matrix(self):
        d = self.qp.dim
        H = np.zeros((self.nv, self.nv))
        for n in range(self.n_node):
            st = self._st[n]
            uo, xo = self.u_off[n], self.x_off[n]
            nu, nx = d.nu[n], d.nx[n]
            H[uo: uo + nu, uo: uo + nu] = st["R"]
            H[uo: uo + nu, xo: xo + nx] = st["S"]
            H[xo: xo + nx, uo: uo + nu] = st["S"].T
            H[xo: xo + nx, xo: xo + nx] = st["Q"]
        return H

    def _grad_v(self):
        d = self.qp.dim
        g = np.empty(self.nv)
        for n in range(self.n_node):
            g[self.u_off[n]: self.u_off[n] + d.nu[n]] = self._st[n]["r"]
            g[self.x_off[n]: self.x_off[n] + d.nx[n]] = self._st[n]["q"]
        return g

    def at_pi(self, pi):
        out = np.zeros(self.ny)
        for dyn, su, sx, sxm, sp in self._edge_sl:
            p = pi[sp]
            out[su] -= dyn["B"].T @ p
            out[sx] -= dyn["A"].T @ p
            out[sxm] += p
        return out

    def a_y(self, y):
        out = np.empty(self.ne)
        for dyn, su, sx, sxm, sp in self._edge_sl:
            out[sp] = y[sxm] - dyn["A"] @ y[sx] - dyn["B"] @ y[su]
        return out

    def b(self):
        if not self.ne:
            return np.zeros(0)
        return np.concatenate([dyn["b"] for _, _, dyn in self.edges])

    def eq_matrix(self):
        E = np.zeros((self.ne, self.ny))
        for dyn, su, sx, sxm, sp in self._edge_sl:
            E[sp, su] = -dyn["B"]
            E[sp, sx] = -dyn["A"]
            E[np.arange(sp.start, sp.stop), np.arange(sxm.start, sxm.stop)] = 1.0
        return E


def make_view(qp):
    """Build (or fetch the cached) flat view of a QP."""
    cached = getattr(qp, "_view_cache", None)
    if cached is not None and cached[0] == qp._rev:
        return cached[1]
    if isinstance(qp, DenseQp):
        view = DenseView(qp)
    elif isinstance(qp, OcpQp):
        view = StageView(qp, [(n, n + 1, qp._dyn[n]) for n in range(qp.dim.N)])
    elif isinstance(qp, TreeOcpQp):
        par = qp.dim.parents
        view = StageView(
            qp, [(par[m], m, qp._dyn[m]) for m in range(1, qp.dim.n_node)]
        )
    else:
        raise TypeError(f"not a QP container: {type(qp)!r}")
    qp._view_cache = (qp._rev, view)
    return view


class QpSolution:
    """Primal-dual point; doubles as the interior point iterate.

    Attributes ``y``, ``pi``, ``lam``, ``t`` are the flat arrays described in
    the module docstring.  The stage accessors return numpy views into the
    flat storage, so writing to them updates the solution (used when
    assembling warm-start guesses).
    """

    def __init__(self, view, y=None, pi=None, lam=None, t=None):
        self._view = view
        self.y = np.zeros(view.ny) if y is None else y
        self.pi = np.zeros(view.ne) if pi is None else pi
        self.lam = np.zeros(view.nc) if lam is None else lam
        self.t = np.zeros(view.nc) if t is None else t

    @property
    def kind(self):
        return self._view.kind

    @property
    def v(self):
        return self.y[: self._view.nv]

    @property
    def sl_all(self):
        return self.y[self._view.nv: self._view.nv + self._view.ns_tot]

    @property
    def su_all(self):
        return self.y[self._view.nv + self._view.ns_tot:]

    def u(self, n):
        vw = self._view
        return self.y[vw.u_off[n]: vw.u_off[n] + vw.qp.dim.nu[n]]

    def x(self, n):
        vw = self._view
        return self.y[vw.x_off[n]: vw.x_off[n] + vw.qp.dim.nx[n]]

    def sl(self, n):
        cb = self._view.blocks[n]
        return self.sl_all[cb.s_off: cb.s_off + cb.ns]

    def su(self, n):
        cb = self._view.blocks[n]
        return self.su_all[cb.s_off: cb.s_off + cb.ns]

    def pi_stage(self, n):
        """Dynamics multiplier of stage n (OCP) or of the edge into node n (tree)."""
        vw = self._view
        e = n - 1 if vw.kind == "tree" else n
        if not 0 <= e < len(vw.edges):
            raise IndexOutOfRange(f"no dynamics multiplier at {n}")
        off = vw.pi_off[e]
        return self.pi[off: off + vw.qp.dim.nx[vw.edges[e][1]]]

    def lam_stage(self, n):
        cb = self._view.blocks[n]
        return self.lam[cb.c_off: cb.c_off + cb.nc]

    def t_stage(self, n):
        cb = self._view.blocks[n]
        return self.t[cb.c_off: cb.c_off + cb.nc]

    def copy(self):
        return QpSolution(
            self._view, self.y.copy(), self.pi.copy(),
            self.lam.copy(), self.t.copy(),
        )

    def diff(self, other):
        """Componentwise self - other as a new solution object."""
        return QpSolution(
            self._view,
            self.y - other.y, self.pi - other.pi,
            self.lam - other.lam, self.t - other.t,
        )

    def flat(self):
        return np.concatenate([self.y, self.pi, self.lam, self.t])

    @classmethod
    def from_flat(cls, view, vec):
        ny, ne, nc = view.ny, view.ne, view.nc
        return cls(
            view,
            vec[:ny].copy(),
            vec[ny: ny + ne].copy(),
            vec[ny + ne: ny + ne + nc].copy(),
            vec[ny + ne + nc:].copy(),
        )

    def isfinite(self):
        return (
            bool(np.all(np.isfinite(self.y)))
            and bool(np.all(np.isfinite(self.pi)))
            and bool(np.all(np.isfinite(self.lam)))
            and bool(np.all(np.isfinite(self.t)))
        )


@dataclass
class QpResiduals:
    """KKT residual blocks, their infinity norms, and the duality measure."""

    r_g: np.ndarray
    r_b: np.ndarray
    r_d: np.ndarray
    r_m: np.ndarray
    res_g: float
    res_b: float
    res_d: float
    res_m: float
    mu: float

    def max_norm(self):
        return max(self.res_g, self.res_b, self.res_d, self.res_m)

    def isfinite(self):
        return all(
            np.isfinite(x) for x in (self.res_g, self.res_b, self.res_d, self.res_m)
        )


def compute_residuals(qp, sol):
    """Evaluate the KKT residuals of ``sol`` for ``qp``.

    Deactivated constraint sides contribute zero to r_d and r_m, and the
    duality measure ``mu = lam' t / n_c`` averages over active sides only.
    Complementarity is measured against the unrelaxed conditions (no
    centering term).
    """
    return make_view(qp).residuals(sol)


def objective(qp, sol):
    """Objective value including the soft-penalty terms."""
    vw = make_view(qp)
    y = sol.y
    quad = 0.5 * float(y @ vw.hess_y(y))
    return quad + float(vw.grad() @ y)


def full_kkt_system(qp, iterate, tau=0.0):
    """Materialize the Newton KKT matrix and right-hand side at an iterate.

    Returns ``(K, rhs)`` such that ``K @ delta = rhs`` yields the Newton step
    ``delta = [dy, dpi, dlam, dt]``; ``rhs`` is the negated residual vector
    with the complementarity block relaxed by ``tau``.  Deactivated rows are
    replaced by identity rows pinning their dlam/dt to zero.  This is the
    reference oracle for the structure-exploiting solvers: it is solved with
    a generic dense method and makes no use of the elimination order.
    """
    vw = make_view(qp)
    lam = np.where(vw.act, iterate.lam, 0.0)
    t = np.where(vw.act, iterate.t, 0.0)
    if vw.n_act and (np.any(lam[vw.act] <= 0.0) or np.any(t[vw.act] <= 0.0)):
        raise NonPositiveIterate("iterate must have lam, t > 0 on active rows")
    ny, ne, nc = vw.ny, vw.ne, vw.nc
    ntot = ny + ne + 2 * nc
    K = np.zeros((ntot, ntot))
    H = vw.hess_matrix()
    A = vw.eq_matrix()
    C = vw.con_matrix()
    K[:ny, :ny] = H
    K[:ny, ny: ny + ne] = -A.T
    K[:ny, ny + ne: ny + ne + nc] = -C.T
    K[ny: ny + ne, :ny] = -A
    K[ny + ne: ny + ne + nc, :ny] = -C
    ii = np.arange(nc)
    K[ny + ne + ii, ny + ne + nc + ii] = 1.0          # dt coefficient in row 3
    lam_rows = ny + ne + nc + ii
    K[lam_rows, ny + ne + ii] = np.where(vw.act, t, 1.0)       # T dlam (or pin)
    K[lam_rows, ny + ne + nc + ii] = np.where(vw.act, lam, 0.0)  # Lambda dt
    res = vw.residuals(iterate)
    r_m = np.where(vw.act, lam * t - tau, 0.0)
    rhs = -np.concatenate([res.r_g, res.r_b, res.r_d, r_m])
    return K, rhs


def solve_full_kkt(qp, iterate, r_g, r_b, r_d, r_m):
    """Reference Newton step for an arbitrary 4-block right-hand side."""
    vw = make_view(qp)
    K, _ = full_kkt_system(qp, iterate)
    r_d = np.where(vw.act, r_d, 0.0)
    r_m = np.where(vw.act, r_m, 0.0)
    rhs = -np.concatenate([r_g, r_b, r_d, r_m])
    delta = np.linalg.solve(K, rhs)
    return QpSolution.from_flat(vw, delta)
