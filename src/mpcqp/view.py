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

A :class:`QpSolution` holds the four in one contiguous buffer
``[y | pi | lam | t]``, of which they are views, so that copies, differences,
finiteness tests and the iterate update are one operation each.

A deactivated constraint side (mask 0, or an infinite bound) keeps its slot
in ``lam``/``t`` but is pinned to zero and excluded from residuals, duality
measure and multiplier updates.  Every interior point iterate and every
Newton step holds exact zeros there (see :mod:`solver`), so the vector work
of the loop runs over whole arrays without the activity mask; the float
mask ``act_float`` (1.0 on active sides, 0.0 elsewhere) is what carries the
centering term.  :meth:`ProblemView.residuals` still masks its input,
because it also evaluates arbitrary points.

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

Each view builds these operators once, over the variables v:

* ``H``  (nv, nv) Hessian; the slack block of the Hessian is the diagonal
         ``slack_diag``;
* ``E``  (ne, nv) equality matrix, ``A y = E v``;
* ``G``  the general rows of every constraint block, stacked in block order;

and two index tables: ``box_col``, the column of v that each box row
selects, and the positions in ``lam``/``t`` of the lower, upper and
slack-bound side of every row.  The products ``hess_y``, ``at_pi``,
``a_y``, ``cy`` and ``ct_lam`` are written once for all three QP types:
matrix products with H, E and G, one gather for the box rows and one
``np.bincount`` scatter back; a view without general rows makes no product
with G.  ``hess_matrix``, ``eq_matrix`` and ``con_matrix`` are dense copies
of the same operators.  The vectors g, b and d are constants of the view as
well.

:meth:`ProblemView.residuals` and the KKT matrix action
(:func:`kkt_common.kkt_apply_vec`) need all of these products at once:
the linear part of the KKT system over ``z = [y | pi | lam]``, the first
three blocks of a solution buffer,

    K z = [H y - A' pi - C' lam ; -A y ; -C y]      (C unmasked),

followed by a few elementwise passes.  A view type makes that product in
its :meth:`ProblemView.kkt_product`.

A view type supplies only its layout and its blocks, and the QP type decides
the storage.  The dense type uses its QP's own ``H``, ``A`` and ``C`` arrays:
they are dense already, and copying them would cost every condensed solve;
its ``kkt_product`` makes the separate dense products above, whose order
fixes the condensed solve's bits.  The stage type assembles its node
Hessians, its edges' ``-[B A]`` and ``I`` and its nodes' ``[D C]`` into
``scipy.sparse`` CSR, without the zeros the dense blocks hold, so that each
product is one call whatever the number of nodes, and places their entries, with the slack diagonal, the box rows'
unit entries and the slack columns, into one CSR ``K`` by index arithmetic:
its ``kkt_product`` is one sparse product, where the separate products
would be three sparse products plus the box rows' gather and scatter.  It
builds ``H``, ``E`` and ``K`` on first use, so that a view that serves only
its row table, ``hess0`` and ``G`` never builds them: an OCP's view as
:func:`condensing.condense` and :func:`condensing.partial_condense` read
it, and as their expansions read it (``ct_lam``).

OCP and tree QPs share one view, :class:`StageView`, because a horizon is a
chain tree: nodes (stages) joined by dynamics edges.  The edges come from
the container's edge table ``dim.edges`` (see :mod:`qp_data`): the view
lists ``(parent, child, _dyn[i])`` for every dynamics block i in multiplier
order, so ``pi`` holds one block per edge in that order for both types.

A view holds its QP's storage, never the QP itself: the dimension record
(``dim``, stage type only), the stage list or the dense QP's field dict
(``_stages``), and the counts.  The QP's constructor makes these containers
once and ``set_field`` replaces entries inside them, so a view reads the
current fields whenever it reads them.  A view is cached on its QP (see
:func:`make_view`), and because the view does not point back, the QP and
its view make no reference cycle: a dropped QP is freed, by reference
counting, together with its view, operators, Riccati band and workspaces
as soon as the last solution on the view goes, and a solution that
outlives its QP still has everything it reads.  A write to a field
that feeds only the bound vector d and the activity mask (``lb``, ``ub``,
``lg``, ``ug``, the slack bounds, the masks and the virtual box fields,
marked ``bound`` in the field catalog) keeps it: the next ``make_view``
returns a copy with d, ``act`` and ``n_act`` recomputed that shares
everything else, so an MPC step's initial-state writes cost one pass over
the bounds.  Any other write, or any other change of the QP's revision,
builds a new view.  The view therefore also holds the per-QP constants of
the KKT backends: the base Hessian of every block, flattened into one array
``hess0`` with the positions of its blocks, box-row diagonal entries and
diagonals (the layout of the one-pass reduced Hessian) and each node's
symmetrized base Hessian ``[[R S] [S' Q]]`` as a view of it are built once
per view, not once per factorization; :mod:`kkt_ocp` keeps the Riccati
recursion's band layout and level schedule on the view as well (``band``,
built by its first factorization).  The stage type's ``H`` and ``K`` are
made of the same symmetrized node Hessians, and ``make_view`` builds the
operators before it copies a view, so that every copy shares them.  This
is the package's only module that builds ``scipy.sparse`` matrices: the
stage type's ``H``, ``E``, ``G`` and ``K``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IndexOutOfRange, NonPositiveIterate, UnknownField
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
    idxs: np.ndarray      # (ns,) soft row indices into 0..nb+ng
    s_off: int            # block start in the flat slack vectors
    c_off: int            # block start in lam/t

    @property
    def m(self):
        return self.nb + self.ng

    @property
    def nc(self):
        return 2 * self.m + 2 * self.ns


def _block_from_stage(st, Jg, w_off, s_off, c_off):
    return ConBlock(
        w_off=w_off, nw=Jg.shape[1], nb=st["idxb"].shape[0], ng=Jg.shape[0],
        ns=st["idxs"].shape[0], idxb=st["idxb"], Jg=Jg, idxs=st["idxs"],
        s_off=s_off, c_off=c_off,
    )


def _node_hessian(st, nu, nx):
    M = np.zeros((nu + nx, nu + nx))
    M[:nu, :nu] = st["R"]
    M[:nu, nu:] = st["S"]
    M[nu:, :nu] = st["S"].T
    M[nu:, nu:] = st["Q"]
    return 0.5 * (M + M.T)


def _ranges(starts, lens):
    """Concatenation of ``arange(s, s + l)`` over the pairs (s, l)."""
    ends = lens.cumsum()
    return (starts - ends + lens).repeat(lens) + np.arange(ends[-1] if ends.size else 0)


def _csr(mats, offs, n_col, tail=None):
    """CSR matrix of the dense blocks ``mats`` stacked top to bottom.

    Block k spans the columns from ``offs[k]`` on.  With ``tail``, row i
    also holds a 1 in column ``tail[i]``, after its block entries.  The
    blocks' zero entries are not stored: a product then skips them and, on
    finite vectors, keeps its bits.
    """
    if not mats:
        return sp.csr_array((0, n_col))
    rows = np.array([M.shape[0] for M in mats], dtype=np.intp)
    row_len = np.repeat([M.shape[1] for M in mats], rows)
    indices = _ranges(np.repeat(offs, rows), row_len)
    data = np.concatenate([M.ravel() for M in mats])
    if tail is not None:
        ends = np.cumsum(row_len)
        indices = np.insert(indices, ends, tail)
        data = np.insert(data, ends, 1.0)
        row_len = row_len + 1
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    keep = data != 0.0      # not the zeros the dense blocks hold
    indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
    return sp.csr_array((data[keep], indices[keep], indptr),
                        shape=(row_len.shape[0], n_col))


def _dense(M):
    return M.toarray() if sp.issparse(M) else M


class ProblemView:
    """Layout tables and flat-vector operators for one QP instance.

    A view type's ``_build(qp)`` keeps what the view reads of its QP:
    ``_stages``, the row data of every block (the QP's own stage list, or
    a list holding the dense QP's field dict), and a stage view's ``dim``;
    it keeps no reference to the QP itself.  It sets the layout (``nv``,
    ``ns_tot``, ``ne``, ``blocks``) and ``hess0``, the base Hessian of every
    block flattened row-major and concatenated in block order, and returns
    the gradient over v and the equality right-hand side, and sets or
    provides the operators ``H``, ``E`` and ``G`` over v (a stage view
    builds ``H``, ``E`` and its KKT operator ``K`` on first use; ``_lazy``
    names what a type builds on first use).  A view type also supplies
    :meth:`kkt_product`, the one product :meth:`residuals` and
    :func:`kkt_common.kkt_apply_vec` make.  Everything else is built
    here, once per view, including the row table and the flat layout of the
    blocks' reduced Hessians (see :func:`kkt_common.reduced_hessian`).

    The row table is the one description of the ``lam``/``t`` layout that
    other modules read, in place of recomputing it from block offsets.  The
    rows are numbered box rows of every block first, then general rows:

    * ``_rows``      the ``lam``/``t`` position of every row's lower side,
                     then of every row's upper side, then of the lower and
                     upper slack-bound rows in slack order ``[sl | su]``;
    * ``_soft``      the positions of the lower and upper sides of the
                     softened rows, in slack order;
    * ``_m``, ``_nb``  the number of rows and of box rows.

    :mod:`kkt_common` reads it for the scalings and the row coefficients,
    and :mod:`condensing` routes the dense QP's rows, multipliers and
    slacks through it.  The flat layout of the reduced Hessians:

    * ``hess_off``   block n's (nw, nw) Hessian spans
                     ``hess_off[n]:hess_off[n + 1]`` of a buffer laid out
                     like ``hess0``;
    * ``hess_box``   the buffer position of every box row's diagonal entry,
                     in row order (the order of ``box_col``);
    * ``hess_diag``  the buffer positions of every block's diagonal;
    * ``hess_gen``   ``(block, offset, first row)`` of every block with
                     general rows: its ``hess_off`` entry and the index of
                     its first general row among all general rows.
    """

    def __init__(self, qp):
        self.kind = qp.kind
        g_v, b = self._build(qp)
        stages = self._stages
        self.ny = self.nv + 2 * self.ns_tot
        self.nc = sum(cb.nc for cb in self.blocks)
        self._Gt = self.G.T
        # per-view constants, read-only because every solve shares them
        self.g = np.concatenate(
            [g_v] + [st["zl"] for st in stages] + [st["zu"] for st in stages]
        )
        self.b = np.array(b, dtype=float)
        self.slack_diag = np.concatenate(
            [st["Zl"] for st in stages] + [st["Zu"] for st in stages]
        )
        for const in (self.g, self.b, self.slack_diag):
            const.flags.writeable = False
        # row tables: the rows are numbered box rows of every block first,
        # then general rows, the order of [v[box_col], G @ v]
        c, nb, ng, ns = np.array(
            [(cb.c_off, cb.nb, cb.ng, cb.ns) for cb in self.blocks], dtype=np.intp
        ).T
        m = nb + ng
        self._nb = int(nb.sum())
        self._m = int(m.sum())
        self.box_col = np.concatenate(
            [cb.w_off + cb.idxb for cb in self.blocks]
        ).astype(np.intp)
        # positions in lam/t of every row's lower side, upper side, then of
        # the lower and upper slack-bound rows; a permutation of 0..nc-1
        self._rows = _ranges(
            np.concatenate([c, c + nb, c + m, c + m + nb, c + 2 * m, c + 2 * m + ns]),
            np.concatenate([nb, ng, nb, ng, ns, ns]),
        )
        # positions of the lower and upper sides of the softened rows, in
        # the order of the slacks [sl | su]
        soft_lo = np.repeat(c, ns) + np.concatenate(
            [cb.idxs for cb in self.blocks]
        ).astype(np.intp)
        self._soft = np.concatenate([soft_lo, soft_lo + np.repeat(m, ns)])
        # positions of every block's [maskl | masku] and of the upper sides,
        # whose entries of d are the negated bounds
        self._mask_pos = _ranges(c, 2 * m)
        self._upper = np.zeros(self.nc, dtype=bool)
        self._upper[_ranges(c + m, m)] = True
        nw = np.array([cb.nw for cb in self.blocks], dtype=np.intp)
        self.hess_off = np.concatenate([[0], np.cumsum(nw * nw)])
        start = self.hess_off[:-1]
        self.hess_box = np.repeat(start, nb) + np.concatenate(
            [cb.idxb for cb in self.blocks]
        ).astype(np.intp) * np.repeat(nw + 1, nb)
        self.hess_diag = np.repeat(start, nw) + _ranges(
            np.zeros_like(nw), nw) * np.repeat(nw + 1, nw)
        first = np.cumsum(ng) - ng
        self.hess_gen = [(cb, int(lo), int(k))
                         for cb, lo, k in zip(self.blocks, start, first) if cb.ng]
        self._set_bounds()

    def _set_bounds(self):
        """Set the bound tables from the QP's bound fields.

        The one place they are computed: a build calls it, and so does
        :func:`make_view` on a copy of the cached view after bound writes.
        All are laid out like ``lam`` and read-only:

        * ``_bnd``     the bounds as stored: ``lb``/``lg`` on lower sides,
                       ``ub``/``ug`` (not negated) on upper sides and the
                       slack lower bounds on the slack-bound rows;
        * ``_on``      ``maskl``/``masku`` on the sides of the box and
                       general rows and 1.0 elsewhere;
        * ``d``        the bounds with the upper sides negated, 0.0 on
                       inactive rows;
        * ``act``      the active rows (side mask on, bound finite), with
                       ``act_float`` its 0.0/1.0 copy, ``n_act`` its count
                       and ``_inact`` the positions of the inactive rows;
        * ``_act_where`` the ``where=`` argument of the masked ufuncs over
                       rows (:mod:`kkt_common`, the iterate update and
                       start): ``act``, or ``True`` when every row is
                       active, which gives the same bits without the cost
                       of a masked call.

        Two more go with them, for :meth:`residuals`: ``_act_buf``, laid out
        like a solution buffer, keeps all of ``y`` and ``pi`` and the active
        rows of ``lam`` and ``t`` (``True`` as well when every row is
        active), and ``_shift`` is ``[g | b | d]``, the residuals' constant
        part, laid out like ``K z``.
        """
        stages = self._stages
        self._bnd = np.concatenate([
            a for st in stages
            for a in (st["lb"], st["lg"], st["ub"], st["ug"],
                      st["sl_lb"], st["su_lb"])
        ])
        self._on = np.ones(self.nc)
        self._on[self._mask_pos] = np.concatenate(
            [a for st in stages for a in (st["maskl"], st["masku"])]
        )
        d = np.where(self._upper, -self._bnd, self._bnd)
        self.act = (self._on != 0.0) & np.isfinite(d)
        self.act_float = self.act.astype(float)
        self.n_act = int(np.count_nonzero(self.act))
        self._inact = np.flatnonzero(~self.act)
        act_buf = np.concatenate(
            [np.ones(self.ny + self.ne, dtype=bool), self.act, self.act])
        self.d = np.where(self.act, d, 0.0)
        self._shift = np.concatenate([self.g, self.b, self.d])
        for const in (self._bnd, self._on, self.act, self.act_float, self._inact,
                      act_buf, self.d, self._shift):
            const.flags.writeable = False
        self._act_where = True if self.n_act == self.nc else self.act
        self._act_buf = True if self._act_where is True else act_buf

    # the operators built on first use; make_view builds them before it
    # copies a view, so that every copy shares them
    _lazy = ("_Et",)

    @cached_property
    def _Et(self):
        return self.E.T

    # -- products ----------------------------------------------------------

    def hess_y(self, y):
        return np.concatenate([self.H @ y[: self.nv], self.slack_diag * y[self.nv:]])

    def at_pi(self, pi):
        """A' @ pi over the primal vector."""
        return np.concatenate([self._Et @ pi, np.zeros(2 * self.ns_tot)])

    def a_y(self, y):
        """Equality row values A @ y."""
        return self.E @ y[: self.nv]

    def cy(self, y):
        """Row values C @ y of all inequality rows (unmasked)."""
        v = y[: self.nv]
        base = v[self.box_col]
        if self._m > self._nb:
            base = np.concatenate([base, self.G @ v])
        out = np.empty(self.nc)
        out[self._rows] = np.concatenate([base, -base, y[self.nv:]])
        out[self._soft] += y[self.nv:]
        return out

    def rows_t(self, c):
        """Box and general rows' part of C' @ c: ``J' (c_lo - c_up)`` over v.

        ``c`` is laid out like ``lam``; its slack-bound entries are not read.
        """
        m, nb = self._m, self._nb
        side = c[self._rows[: 2 * m]]
        coeff = side[:m] - side[m:]
        # bincount counts in int64 when there is no box row at all
        out = np.bincount(self.box_col, weights=coeff[:nb],
                          minlength=self.nv).astype(float, copy=False)
        if m > nb:
            out = out + self._Gt @ coeff[nb:]
        return out

    def ct_lam(self, lam):
        """C' @ lam over the primal vector, masked sides excluded."""
        return np.concatenate(self._ct_parts(np.where(self.act, lam, 0.0)))

    def _ct_parts(self, lam):
        """C' @ lam over v and over the slacks, for ``lam`` already masked."""
        return self.rows_t(lam), lam[self._soft] + lam[self._rows[2 * self._m:]]

    def kkt_product(self, z, out, shift=None):
        """``out = K z (+ shift)`` for ``z = [y | pi | lam]``; returns ``out``.

        ``z``, ``out`` and ``shift`` have length ``ny + ne + nc``.  K is the
        linear part of the KKT system (see the module docstring), with no
        row of C zeroed; ``lam`` must be 0 on masked sides.  A stage view
        makes one sparse product with :attr:`StageView.K`, the dense view
        the separate dense products with its QP's arrays.
        """
        raise NotImplementedError

    # -- oracle-grade dense copies ---------------------------------------

    def hess_matrix(self):
        H = np.zeros((self.ny, self.ny))
        H[: self.nv, : self.nv] = _dense(self.H)
        idx = np.arange(self.nv, self.ny)
        H[idx, idx] = self.slack_diag
        return H

    def eq_matrix(self):
        E = np.zeros((self.ne, self.ny))
        E[:, : self.nv] = _dense(self.E)
        return E

    def row_matrix(self):
        """Dense (nb_tot + ng_tot, nv) matrix of the box rows, then the general rows."""
        J = np.zeros((self._m, self.nv))
        J[np.arange(self._nb), self.box_col] = 1.0
        J[self._nb:] = _dense(self.G)
        return J

    def con_matrix(self):
        """Full inequality matrix C (nc, ny); deactivated rows are zero."""
        m, nv = self._m, self.nv
        J = self.row_matrix()
        C = np.zeros((self.nc, self.ny))
        C[self._rows[:m], :nv] = J
        C[self._rows[m: 2 * m], :nv] = -J
        slack_cols = np.arange(nv, self.ny)
        C[self._rows[2 * m:], slack_cols] = 1.0
        C[self._soft, slack_cols] = 1.0
        C[~self.act] = 0.0
        return C

    # -- residuals --------------------------------------------------------

    def residuals(self, sol):
        """KKT residuals of any point ``sol`` (a :class:`QpSolution`); its
        masked sides are ignored.

        One masked copy of the point's buffer, one :meth:`kkt_product` with
        the constant ``[g | b | d]`` added, then ``+ t`` and the mask on
        ``r_d`` and ``r_m = lam t``.  The four blocks are views of one
        buffer laid out like a solution, and their max norms are one
        reduction over it when no block is empty.  Each part of ``sol``
        is checked against the view's sizes first.
        """
        ny, ne, nc = self.ny, self.ne, self.nc
        for name, n in (("y", ny), ("pi", ne), ("lam", nc), ("t", nc)):
            if getattr(sol, name).shape != (n,):
                raise DimensionMismatch(
                    f"solution {name} has shape {getattr(sol, name).shape}, "
                    f"the QP needs ({n},)"
                )
        k = ny + ne + nc
        buf = np.zeros(k + nc)
        np.copyto(buf, sol.flat(), where=self._act_buf)
        lam, t = buf[ny + ne: k], buf[k:]
        out = np.empty(k + nc)
        self.kkt_product(buf[:k], out[:k], self._shift)
        r_g, r_b, r_d, r_m = split_flat(out, ny, ne, nc)
        r_d += t
        r_d[self._inact] = 0.0
        np.multiply(lam, t, out=r_m)
        mu = float(lam @ t) / self.n_act if self.n_act else 0.0
        a = np.abs(out)
        res_g, res_b, res_d, res_m = (
            np.maximum.reduceat(a, [0, ny, ny + ne, ny + ne + nc]).tolist()
            if ny and ne and nc else
            [float(p.max(initial=0.0)) for p in split_flat(a, ny, ne, nc)])
        return QpResiduals(
            r_g=r_g, r_b=r_b, r_d=r_d, r_m=r_m,
            res_g=res_g, res_b=res_b, res_d=res_d, res_m=res_m, mu=mu,
        )


def split_flat(vec, ny, ne, nc):
    """The ``[y | pi | lam | t]`` blocks of a flat vector, as views."""
    return (vec[:ny], vec[ny: ny + ne], vec[ny + ne: ny + ne + nc],
            vec[ny + ne + nc:])


class DenseView(ProblemView):
    """View of a dense QP: one block over all of v, the QP's own arrays as operators."""

    def _build(self, qp):
        data = qp._data
        self._stages = [data]
        self.nv = qp.nv
        self.ns_tot = qp.ns
        self.ne = qp.ne
        self.blocks = [_block_from_stage(data, data["C"], 0, 0, 0)]
        self.H = data["H"]
        self.hess0 = data["H"].ravel()
        self.hess0.flags.writeable = False
        self.E = data["A"]
        self.G = data["C"]
        return data["g"], data["b"]

    def kkt_product(self, z, out, shift=None):
        # separate products with the QP's own arrays, summed in the order
        # hess_y(y) + g - at_pi(pi) - ct_lam(lam), which condensed solves'
        # results depend on
        ny, ne, nv = self.ny, self.ne, self.nv
        y, pi, lam = z[:ny], z[ny: ny + ne], z[ny + ne:]
        o_g, o_b, o_d = out[:ny], out[ny: ny + ne], out[ny + ne:]
        o_g[:nv] = self.H @ y[:nv]
        np.multiply(self.slack_diag, y[nv:], out=o_g[nv:])
        if shift is not None:
            o_g += shift[:ny]
        if ne:
            o_g[:nv] -= self._Et @ pi
        ct_v, ct_s = self._ct_parts(lam)
        o_g[:nv] -= ct_v
        o_g[nv:] -= ct_s
        if shift is None:
            np.negative(self.a_y(y), out=o_b)
            np.negative(self.cy(y), out=o_d)
        else:
            np.subtract(shift[ny: ny + ne], self.a_y(y), out=o_b)
            np.subtract(shift[ny + ne:], self.cy(y), out=o_d)
        return out


class StageView(ProblemView):
    """View of an OCP or tree QP: parents-first nodes joined by dynamics edges.

    ``edges`` lists ``(parent, child, dyn)`` in multiplier order (see the
    module docstring); ``out_edges[n]`` lists ``(child, dyn, pi_off)``
    for the edges leaving node n, in the same order.  ``node_hess[n]`` is
    the symmetrized base Hessian ``[[R S] [S' Q]]`` of node n over its
    (u, x) window, a view of ``hess0``.  ``H`` holds the node Hessians,
    ``E`` the rows ``[-B -A I]`` of every edge and ``G`` the rows ``[D C]``
    of every node.
    """

    _lazy = ("H", "E", "_Et", "K")

    def __init__(self, qp, edges):
        self.edges = edges
        super().__init__(qp)

    def _build(self, qp):
        self.dim = d = qp.dim
        self._stages = stages = qp._stages
        self.n_node = len(stages)
        self.blocks = []
        self.node_hess = []
        self.u_off = []
        self.x_off = []
        v = s = c = 0
        for n, st in enumerate(stages):
            cb = _block_from_stage(st, np.hstack([st["D"], st["C"]]), v, s, c)
            self.blocks.append(cb)
            self.node_hess.append(_node_hessian(st, d.nu[n], d.nx[n]))
            self.u_off.append(v)
            self.x_off.append(v + d.nu[n])
            v += cb.nw
            s += cb.ns
            c += cb.nc
        self.pi_off = []
        self.out_edges = [[] for _ in range(self.n_node)]
        p = 0
        for par, m, dyn in self.edges:
            self.pi_off.append(p)
            self.out_edges[par].append((m, dyn, p))
            p += d.nx[m]
        self.nv = v
        self.ns_tot = s
        self.ne = p
        self.hess0 = np.concatenate([M.ravel() for M in self.node_hess])
        self.hess0.flags.writeable = False
        off = 0
        for n, M in enumerate(self.node_hess):
            self.node_hess[n] = self.hess0[off: off + M.size].reshape(M.shape)
            off += M.size
        self.G = _csr([cb.Jg for cb in self.blocks], self.u_off, v)
        g_v = np.concatenate([a for st in stages for a in (st["r"], st["q"])])
        b = [dyn["b"] for _, _, dyn in self.edges]
        return g_v, np.concatenate(b) if b else np.zeros(0)

    # H and E are built on first use: condensing, full or partial, reads
    # only the row table and hess0, and expansion only G as well

    @cached_property
    def H(self):
        return _csr(self.node_hess, self.u_off, self.nv)

    @cached_property
    def E(self):
        # edge row i: -[B A] over the parent's window, then 1 at the child's x_i
        nx = self.dim.nx
        par = np.array([e[0] for e in self.edges], dtype=np.intp)
        child = np.array([e[1] for e in self.edges], dtype=np.intp)
        neg_BA = [-np.hstack([dyn["B"], dyn["A"]]) for _, _, dyn in self.edges]
        return _csr(neg_BA, np.take(self.u_off, par), self.nv,
                    tail=_ranges(np.take(self.x_off, child), nx[child]))

    @cached_property
    def K(self):
        """The KKT matrix's linear part over ``z = [y | pi | lam]``, one CSR.

        ``K @ z`` is ``[H y - A' pi - C' lam; -A y; -C y]`` with C unmasked:
        the entries of H, E and G placed by index arithmetic, with the slack
        diagonal, the box rows' unit entries and the slack columns.
        """
        ny, ne, nv, nb, m = self.ny, self.ne, self.nv, self._nb, self._m
        H, E = self.H.tocoo(), self.E.tocoo()
        # C over y as triplets: the rows J = [box; G] on their lower and
        # upper sides, then every slack column's slack-bound and soft side
        j_row, j_col, j_val = np.arange(nb), self.box_col, np.ones(nb)
        if m > nb:      # as in cy, a view without general rows never reads G
            G = self.G.tocoo()
            j_row, j_col, j_val = (np.concatenate(pair) for pair in (
                (j_row, nb + G.row), (j_col, G.col), (j_val, G.data)))
        s = np.arange(nv, ny)
        c_row = ny + ne + np.concatenate([self._rows[j_row], self._rows[m + j_row],
                                          self._rows[2 * m:], self._soft])
        c_col = np.concatenate([j_col, j_col, s, s])
        c_val = np.concatenate([-j_val, j_val, -np.ones(2 * s.size)])
        e_row = E.row + ny
        row = np.concatenate([H.row, s, E.col, e_row, c_col, c_row])
        col = np.concatenate([H.col, s, e_row, E.col, c_row, c_col])
        val = np.concatenate([H.data, self.slack_diag, -E.data, -E.data, c_val, c_val])
        return sp.csr_array((val, (row, col)), shape=(ny + ne + self.nc,) * 2)

    def kkt_product(self, z, out, shift=None):
        return np.add(self.K @ z, 0.0 if shift is None else shift, out=out)


def make_view(qp):
    """Build (or fetch the cached) flat view of a QP.

    A view is cached on its QP with the QP's revision.  After writes only to
    bound fields (see :class:`qp_data._FieldAccess`) the cached view comes
    back as a shallow copy with its bound tables recomputed (see
    :meth:`ProblemView._set_bounds`) from the QP's field storage, which the
    view holds in place of the QP, so it shares every other constant,
    the Riccati constants that :mod:`kkt_ocp` keeps on it (``band``)
    included; the cached view itself is never modified, because earlier
    solutions hold it.  The view holds no reference to the QP, so the
    cache makes no cycle: a dropped QP is freed with its view by reference
    counting, without waiting for the cyclic collector.
    """
    cached = getattr(qp, "_view_cache", None)
    if cached is not None and cached[0] == qp._rev:
        rev, view, fresh = cached
        if not fresh:
            # the operators, built on first use, once for all the copies
            for name in view._lazy:
                getattr(view, name)
            view = copy.copy(view)
            view._set_bounds()
            qp._view_cache = (rev, view, True)
        return view
    if isinstance(qp, DenseQp):
        view = DenseView(qp)
    elif isinstance(qp, (OcpQp, TreeOcpQp)):
        edges = qp.dim.edges.items()
        view = StageView(qp, [(p, c, qp._dyn[i]) for i, (p, c) in edges])
    else:
        raise TypeError(f"not a QP container: {type(qp)!r}")
    qp._view_cache = (qp._rev, view, True)
    return view


class QpSolution:
    """Primal-dual point; doubles as the interior point iterate and its steps.

    The point lives in one contiguous buffer ``[y | pi | lam | t]`` of
    length ``ny + ne + 2 nc``.  Attributes ``y``, ``pi``, ``lam``, ``t``
    (the flat arrays described in the module docstring) and ``lt``, the
    ``[lam | t]`` half, are views of it; write through them (``sol.y[:] =
    ...``), never rebind them.  :meth:`flat` returns the buffer itself,
    :meth:`from_flat` copies a vector into a new one, and :meth:`copy`,
    :meth:`diff` and :meth:`isfinite` are one array operation each.  The
    stage accessors return views as well, so writing to them updates the
    solution (used when assembling warm-start guesses).

    The constructor allocates a zeroed buffer and copies in the parts it is
    given; a part of the wrong shape raises :class:`DimensionMismatch`.
    """

    def __init__(self, view, y=None, pi=None, lam=None, t=None):
        self._attach(view, np.zeros(view.ny + view.ne + 2 * view.nc))
        for name, part in (("y", y), ("pi", pi), ("lam", lam), ("t", t)):
            if part is not None:
                dst = getattr(self, name)
                if np.shape(part) != dst.shape:
                    raise DimensionMismatch(
                        f"{name} has shape {np.shape(part)}, the QP needs "
                        f"{dst.shape}"
                    )
                dst[:] = part

    def _attach(self, view, buf):
        self._view = view
        self._buf = buf
        self.y, self.pi, self.lam, self.t = split_flat(buf, view.ny, view.ne, view.nc)
        self.lt = buf[view.ny + view.ne:]

    @classmethod
    def _wrap(cls, view, buf):
        """Solution over ``buf`` itself (no copy, no check)."""
        sol = cls.__new__(cls)
        sol._attach(view, buf)
        return sol

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

    def _block(self, n):
        blocks = self._view.blocks
        if not 0 <= n < len(blocks):
            raise IndexOutOfRange(f"no stage {n}: stages are 0..{len(blocks) - 1}")
        return blocks[n]

    def _stage_block(self, n):
        if self._view.kind == "dense":
            raise UnknownField("a dense QP has no stage inputs or states")
        return self._block(n)

    def u(self, n):
        self._stage_block(n)
        return self.y[self._view.u_off[n]: self._view.x_off[n]]

    def x(self, n):
        cb = self._stage_block(n)
        return self.y[self._view.x_off[n]: cb.w_off + cb.nw]

    def sl(self, n):
        cb = self._block(n)
        return self.sl_all[cb.s_off: cb.s_off + cb.ns]

    def su(self, n):
        cb = self._block(n)
        return self.su_all[cb.s_off: cb.s_off + cb.ns]

    def pi_stage(self, n):
        """Dynamics multiplier of stage n (OCP) or of the edge into node n (tree)."""
        vw = self._view
        try:
            child = vw.dim.edges[n][1]
        except KeyError:
            raise IndexOutOfRange(f"no dynamics multiplier at {n}") from None
        off = vw.pi_off[child - 1]    # the edge into node c is edge c - 1
        return self.pi[off: off + vw.dim.nx[child]]

    def lam_stage(self, n):
        cb = self._block(n)
        return self.lam[cb.c_off: cb.c_off + cb.nc]

    def t_stage(self, n):
        cb = self._block(n)
        return self.t[cb.c_off: cb.c_off + cb.nc]

    def copy(self):
        return QpSolution._wrap(self._view, self._buf.copy())

    def diff(self, other):
        """Componentwise self - other as a new solution object."""
        return QpSolution._wrap(self._view, self._buf - other._buf)

    def flat(self):
        """The buffer ``[y | pi | lam | t]`` itself (not a copy)."""
        return self._buf

    @classmethod
    def from_flat(cls, view, vec):
        """New solution holding a copy of the flat vector ``vec``."""
        n = view.ny + view.ne + 2 * view.nc
        if np.shape(vec) != (n,):
            raise DimensionMismatch(
                f"flat vector has shape {np.shape(vec)}, the QP needs ({n},)"
            )
        return cls._wrap(view, np.array(vec, dtype=float))

    def isfinite(self):
        return bool(np.isfinite(self._buf).all())


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
        return all(map(math.isfinite,
                       (self.res_g, self.res_b, self.res_d, self.res_m)))


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
    return quad + float(vw.g @ y)


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
