"""Riccati recursion of stage-structured KKT systems: a horizon is a chain tree.

After the stage-wise inequality/slack elimination (shared with the dense
backend), the remaining system is the KKT system of an equality-constrained
linear-quadratic problem on a tree of nodes joined by dynamics edges.  An
optimal-control horizon is the chain tree 0 -> 1 -> ... -> N; a scenario
tree branches.  Both are factorized by one backward (leaves-to-root) Riccati
recursion over the node matrices

    G[n] = M[n] + sum over edges n -> m of [B_m A_m]' P[m] [B_m A_m],

    G = [G_uu  G_ux]
        [G_ux' G_xx]

with ``M[n]`` the augmented node Hessian over (u, x).  The input block is
eliminated through ``L_uu = chol(G_uu)`` and ``X = L_uu^-1 G_ux`` (so
``L_xu = X'``), and the cost-to-go matrix ``P[n] = G_xx - X'X`` propagates
toward the root; leaves have no successor contribution.  When G is positive
definite, these are the blocks of its Cholesky factor
``[[L_uu 0] [L_xu L_xx]]``, with ``P[n] = L_xx L_xx'``.  The sweep visits
the nodes by depth, deepest first, so it reaches every node after all of
its children; child contributions are summed in multiplier order so
results are reproducible.  Cost per node is cubic in
nu + nx, so the sweep is linear in the horizon length or node count; no
fill-in appears outside the data blocks.

The sweep walks a level schedule (``RiccatiBand.levels``, see
:class:`RiccatiLevel`): the nodes of one depth that share ``nu``, ``nx``
and the ``nx`` of their children form a level, and a level of k nodes is
one step with one call per kernel on (k, ., .) stacks.  A chain is a tree
with one node per level, so its steps have k = 1 and call LAPACK on the
node's own blocks; a scenario tree's levels stack its branches.  The
schedule and the band layout of the vector solve are constants of the
view: :class:`RiccatiBand` is built on the first factorization of a view
and kept on it as ``band``, so that the view's bound-write copies share it.
Everything else is done once per factorization or once per view:

* the augmented node Hessians ``M[n]`` of all nodes are formed in one pass
  over a flat buffer (:func:`kkt_common.reduced_hessian`): a copy of the
  view's symmetrized base Hessians ``[[R S] [S' Q]]``, one scatter of the
  box rows' coefficients, the general rows' Gram terms and the primal
  regularization.  A level reads its nodes' blocks as one (k, w, w) stack,
  a view of the buffer where the nodes are numbered consecutively
  (breadth-first), and never writes them;
* the schedule, its slices and index arrays, and the edges' ``[B A]``
  stacked per level and out-edge slot are built once per QP revision;
* a level writes its nodes' factor columns ``[L_uu; L_xu]`` in one
  assignment into the value buffer from which the band matrix of the
  vector solve is filled, and their cost-to-go blocks (``P[n]``, or
  ``chol(P[n])`` on the square-root and QR routes) in one assignment into
  their slots of one stacked buffer (:attr:`RiccatiFactor.p_blocks`, laid
  out by ``RiccatiBand.p_dim``), from which its parents' level reads them;
* the gains ``K[n] = -L_uu^-T L_xu'`` are not needed by the solve and are
  formed when :attr:`RiccatiFactor.K` is first read (``feedback_gains``,
  tests); their triangular solves are counted then;
* the flops are counted once per factorization, from the per-route totals
  of the schedule (``RiccatiBand.flops``).

A classical step makes, per edge slot, one stacked ``P BA`` product and
one ``BA'(.)`` product, then one Cholesky factorization of the whole blocks
(:func:`linalg.cholesky_stack`) and one product ``P = L_xx L_xx'``, which
is symmetric as formed.  Only when a block of the level is not positive
definite does the step fall back to the input blocks: one Cholesky
factorization of the ``G_uu`` blocks with the triangular solve for X
(:func:`linalg.cholesky_solve_stack`), one product for ``X'X``, and P
symmetrized.  Both count the same nominal flops.  The square-root step
makes, per edge slot, ``W = chol(P_m)' BA`` and ``G += W'W``, then one
Cholesky factorization of the whole blocks (:func:`linalg.cholesky_stack`);
the QR step one of the ``M[n]`` blocks and one QR-Cholesky of the stacks
``[chol(M)' ; W ...]`` (:func:`linalg.qr_cholesky_stack`, which holds the
rank test and the sign normalization).  These :mod:`linalg` kernels make
one LAPACK call per level where they can and count no flops; the step
counts those of the per-node kernels they stand in for.

Two variants:

* ``classical``     P is propagated explicitly.  The whole (nu+nx) block
                    of G is factorized, and ``P = L_xx L_xx'``; a level with
                    a block that is not positive definite factors only the
                    G_uu blocks instead, so the full-space node Hessian may
                    be indefinite as long as every reduced block is positive
                    definite.  The counted flops are those of the G_uu
                    route either way.
* ``square_root``   the whole (nu+nx) block of G is factorized; its trailing
                    triangle is exactly chol(P[n]), so P is propagated in
                    factored form.  Requires positive definite node
                    Hessians.  In QR mode the node factor is obtained by
                    triangularizing the stack [chol(M)' ; chol(P_m)' [B_m A_m]
                    per child] without ever forming G (the array algorithm),
                    which avoids squaring the condition number.

Factorization failures carry the offending stage (node) index.  When a
stacked step fails, its level's nodes are rerun one at a time in
descending order, so the failing node and the flops counted up to the
failure are those of a node-by-node sweep in that order.  A factor
call makes one attempt on the route it is given (Cholesky or QR, with or
without regularization); retrying on another route is the solver's
decision.

The vector solve is two banded triangular solves over the flat vectors.
After the factorization both sweeps of a node-by-node solve are linear
recurrences with fixed matrices.  In the cost-to-go vectors ``p_n`` and
``l_n = L_uu^-1 rr_n`` (``rr_n`` the input part of node n's folded
right-hand side ``rhat_n`` plus its children's terms) the backward sweep
reads

    [L_uu 0; L_xu I] [l_n; p_n] - sum over edges n -> m of [B_m'; A_m'] e_m
        = rhat_n,        e_m = p_m + P_m b_m,

and the forward sweep ``L_uu' u_n = -(L_xu' x_n + l_n)``,
``x_m = A_m x_n + B_m u_n + b_m``.  In the unknowns ``s_m = e_m`` (the
child's own row then carries ``P_m b_m`` on its right-hand side) and
``s_0 = L_P0^-1 p_0`` at the root, with ``L_P0 L_P0' = P_0``, the backward
sweep is one lower triangular system T, and the forward sweep is its
transpose: ``T' [u; x] = [-l; b]`` with ``-s_0`` in the root's slot.  Each
factorization writes its ``L_uu``, ``L_xu`` and ``L_P0`` into T, held in
LAPACK band storage; the layout, the bandwidth (taken from the edge table:
about ``2 nx + nu`` on a chain) and the coupling entries ``-[B A]'`` are
constants of the view (:class:`RiccatiBand`).  On a tree a parent sits a
level's width of nodes from its children, so the bandwidth grows with the
widest level: 37 on the 31-node scenario tree of the benchmark against 13
on a chain of the same stages, 1029 on a 639-node tree.  The band solves
cost about ``2 nv kd`` flops each, so unlike the factor sweep a tree's
vector solve is not linear in the node count.  A vector solve then
folds the right-hand side over the flat vectors, forms ``P b`` with one
stacked product over the edges' cost-to-go blocks (two with the factors on
the square-root routes), runs the two band solves, forms
``pi_m = P_m (x_m - b_m) + e_m`` with a second product and recovers the
slack and inequality components over the flat vectors.  Dual
regularization is not applied on this backend (the equality block stays
exact); primal regularization plus iterative refinement covers
ill-conditioned cases.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import FactorizationFailed, NotPositiveDefinite, RankDeficient
from .ipm_core import RICCATI_VARIANTS, IpmArg
from .kkt_common import fold_rhs, recover, reduced_hessian, view_scales
from .linalg import (
    cholesky_solve_stack,
    cholesky_stack,
    count_flops,
    qr_cholesky_stack,
    solve_banded_triangular,
    solve_triangular,
)
from .view import QpSolution, _ranges, make_view, split_flat

__all__ = [
    "RiccatiFactor",
    "riccati_factor",
    "riccati_solve",
    "feedback_gains",
]


class RiccatiFactor:
    """Backward Riccati factorization of one OCP or tree QP at one iterate.

    The factorization writes two buffers: ``vals``, every node's factor
    columns ``[L_uu; L_xu]`` column-major and then the root block (laid out
    by ``RiccatiBand.val_off``), and ``p_blocks``, every node's P, or
    chol(P) if ``sqrt``, at the top left of its slot (see
    ``RiccatiBand.p_dim``).  The per-node lists ``L_uu`` and ``L_xu`` are
    views of ``vals``, made on first read.
    """

    def __init__(self, qp, view, iterate):
        self.qp = qp
        self.view = view
        self.scales = view_scales(view, iterate.lam, iterate.t)
        self.vals = np.empty(view.band.val_off[-1])
        p = view.band.p_dim
        self.p_blocks = np.zeros((view.n_node, p, p))
        self.ab = None               # band storage of the solve matrix T
        self.sqrt = False

    @cached_property
    def _cols(self):
        """Every node's factor columns ``[L_uu; L_xu]``, views of ``vals``."""
        d, off = self.qp.dim, self.view.band.val_off
        return [self.vals[off[n]: off[n + 1]].reshape(nu, nu + nx).T
                for n, (nu, nx) in enumerate(zip(d.nu.tolist(), d.nx.tolist()))]

    @cached_property
    def L_uu(self):
        return [col[: col.shape[1]] for col in self._cols]

    @cached_property
    def L_xu(self):
        return [col[col.shape[1]:] for col in self._cols]

    @cached_property
    def K(self):
        """Feedback gains ``K[n] = -L_uu^-T L_xu'``, formed on first read."""
        return [-solve_triangular(L, L_xu.T, transpose=True)
                for L, L_xu in zip(self.L_uu, self.L_xu)]

    def p_matrix(self, n):
        """The cost-to-go matrix P[n]."""
        nx = self.qp.dim.nx[n]
        B = self.p_blocks[n, :nx, :nx]
        return B @ B.T if self.sqrt else B.copy()

    def solve(self, r_g, r_b, r_d, r_m):
        return riccati_solve(self, r_g, r_b, r_d, r_m)

    def solve_flat(self, rhs_flat):
        vw = self.view
        return self.solve(*split_flat(rhs_flat, vw.ny, vw.ne, vw.nc)).flat()


def riccati_factor(qp, iterate, arg=None, use_qr=False):
    """Run the backward factor sweep and return a reusable factor object.

    Works on an :class:`OcpQp` (a chain) and on a :class:`TreeOcpQp` alike.
    The route is ``arg.riccati_variant``; ``use_qr`` switches every node to
    the QR array algorithm (which implies the square-root algebra).  The
    sweep walks the view's level schedule (``RiccatiBand.levels``) and
    counts its flops in one call.

    Raises
    ------
    FactorizationFailed
        With the failing stage (node) index; the classical variant fails
        when a reduced input block is not positive definite, the square-root
        variant when a full node block is not, the QR route when a node
        Hessian before the successor terms is not or its stack is rank
        deficient.
    ValueError
        For an unknown ``arg.riccati_variant``.
    """
    arg = arg or IpmArg()
    if arg.riccati_variant not in RICCATI_VARIANTS:
        raise ValueError(f"unknown riccati_variant '{arg.riccati_variant}'")
    vw = make_view(qp)
    band = _band(vw)
    fac = RiccatiFactor(qp, vw, iterate)
    route = "qr" if use_qr else arg.riccati_variant
    fac.sqrt = sqrt_mode = route != "classical"
    hess = reduced_hessian(vw, fac.scales, arg.reg_prim)
    vals, P = fac.vals, fac.p_blocks
    done = band.flops[route]
    for i, lv in enumerate(band.levels):
        try:
            L_P = _level_step(lv, route, hess, vals, P)
        except (NotPositiveDefinite, RankDeficient) as exc:
            L_P = None
            _level_failed(vw, lv, route, hess, vals, P, done[i], exc)
    # the last level is the root's; unless a classical root fell back to
    # its input block, its trailing factor is chol(P[0])
    nx0 = int(qp.dim.nx[0])
    root = vals[band.val_off[-2]:].reshape(nx0, nx0).T
    count_flops(done[-1] if sqrt_mode else done[-1] + nx0 ** 3 // 3)
    if L_P is not None:
        root[...] = L_P[0]
    elif nx0:
        try:
            root[...] = cholesky_stack(P[None, 0, :nx0, :nx0])[0]
        except NotPositiveDefinite as exc:
            raise FactorizationFailed(
                f"cost-to-go matrix not positive definite at stage 0: {exc}",
                stage=0,
            ) from None
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = vals[band.src]
    fac.ab = ab.T
    return fac


def _level_step(lv, route, hess, vals, P):
    """Factor the k nodes of one level: one call per kernel on (k, ., .) stacks.

    Reads the nodes' reduced Hessians from ``hess`` (never written) and
    their children's blocks from ``P``; writes the nodes' factor columns
    into ``vals`` and their P (classical) or chol(P) blocks into ``P``.
    Returns the nodes' chol(P) blocks, or None where a classical level fell
    back to its input blocks.

    * classical: per edge slot ``BA'(P BA)``, then one Cholesky of the whole
      blocks and ``P = L_xx L_xx'``.  If a block is not positive definite,
      :func:`_reduced_step` factors the level's ``G_uu`` blocks instead.
      Flops are counted by the caller, nominally, on either path;
    * square root: per edge slot ``W = chol(P)' BA`` and ``G += W'W``, then
      one Cholesky of the whole blocks, whose trailing blocks are chol(P);
    * QR: one Cholesky of the node Hessians and one QR-Cholesky of the
      stacks ``[chol(G)'; W ...]``.

    Raises
    ------
    NotPositiveDefinite, RankDeficient
        From the :mod:`linalg` stacked kernels.
    """
    k, nu, w = lv.k, lv.nu, lv.w
    nx = w - nu
    G = hess[lv.hess].reshape(k, w, w)
    if route == "classical":
        for sel, c, BA in lv.edges:
            G = G + BA.transpose(0, 2, 1) @ (P[sel, :c, :c] @ BA)
        try:
            L = cholesky_stack(G)
        except NotPositiveDefinite:
            _reduced_step(lv, G, vals, P)
            return None
    else:
        W = [P[sel, :c, :c].transpose(0, 2, 1) @ BA for sel, c, BA in lv.edges]
        if route == "qr":
            L_M = cholesky_stack(G)
            S = np.concatenate([L_M.transpose(0, 2, 1)] + W, axis=1)
            L = qr_cholesky_stack(S).transpose(0, 2, 1)
        else:
            for W_m in W:
                G = G + W_m.transpose(0, 2, 1) @ W_m
            L = cholesky_stack(G)
    vals[lv.vals] = L[:, :, :nu].transpose(0, 2, 1).ravel()
    L_P = L[:, nu:, nu:]
    P[lv.p, :nx, :nx] = (L_P @ L_P.transpose(0, 2, 1) if route == "classical"
                         else L_P)
    return L_P


def _reduced_step(lv, G, vals, P):
    """The classical step on whole blocks ``G`` that are not positive
    definite: one Cholesky of the ``G_uu`` blocks with the triangular solve
    for ``X = L_uu^-1 G_ux``, one ``X'X`` and ``P = G_xx - X'X``, symmetrized.

    Raises
    ------
    NotPositiveDefinite
        If a ``G_uu`` block is not positive definite.
    """
    nu = lv.nu
    nx = lv.w - nu
    if nu:
        L, X = cholesky_solve_stack(G[:, :nu, :nu], G[:, :nu, nu:])
        G = G[:, nu:, nu:] - X.transpose(0, 2, 1) @ X
        vals[lv.vals] = np.concatenate(
            [L.transpose(0, 2, 1), X], axis=2).ravel()
    P[lv.p, :nx, :nx] = 0.5 * (G + G.transpose(0, 2, 1))


def _level_failed(view, lv, route, hess, vals, P, counted, exc):
    """Raise :class:`FactorizationFailed` for a level whose step failed.

    A one-node level names its node.  A stacked level reruns its nodes one
    at a time in descending order, as the node-by-node sweep would, and
    names the first that fails; should none fail on its own, the sweep goes
    on.  The flops counted are ``counted`` (the levels before), the nodes
    rerun and the failing node's count up to the failing call.
    """
    if lv.k > 1:
        for n in lv.nodes[::-1]:
            one = RiccatiLevel(view, [n], view.band.val_off)
            try:
                _level_step(one, route, hess, vals, P)
            except (NotPositiveDefinite, RankDeficient) as one_exc:
                lv, exc = one, one_exc
                break
            counted += one.flops[route][0]
        else:
            return
    n = lv.nodes[0]
    at_chol = isinstance(exc, NotPositiveDefinite)
    count_flops(counted + lv.flops[route][at_chol])
    raise FactorizationFailed(
        f"Riccati factorization failed at stage {n}: {exc}", stage=n
    ) from None


def _band(view):
    """The view's :class:`RiccatiBand`, built on first use and kept on it as
    ``band``; the view's bound-write copies (see :func:`view.make_view`)
    share it."""
    band = getattr(view, "band", None)
    if band is None:
        band = view.band = RiccatiBand(view)
    return band


class RiccatiBand:
    """The Riccati recursion's constants: its factor sweep's level schedule
    and the band layout of its vector-solve matrix T.

    The nodes are laid out in reverse order (every child before its parent),
    each node n as ``[l_n | s_n]`` over its window ``(u_n, x_n)``, so that T
    is lower triangular.  Its diagonal block is ``[[L_uu 0] [L_xu D_n]]``
    with ``D_n = I`` except at the root; the edge into a child m couples the
    parent's rows to ``s_m`` through ``-[B_m A_m]'``.  The coupling and the
    identities are constants of the view, filled from the edge table (the
    levels' ``[B A]`` stacks); a factorization writes only the factor
    columns ``[L_uu; L_xu]`` of every node and the root block.

    * ``vpos``     v index k sits at band position ``vpos[k]``;
    * ``pi_pos``   band position of the child state each pi entry pairs with;
    * ``kd``       number of subdiagonals, from the edge table;
    * ``ab0``      (nv, kd + 1) C-ordered constant part; its transpose is
                   LAPACK lower band storage;
    * ``val_off``  the factor values are every node's ``[L_uu; L_xu]``, in
                   node order, and then the root block, each flattened
                   column-major and concatenated; block n (the root is
                   block ``n_node``) spans ``val_off[n]:val_off[n + 1]``;
    * ``dst``/``src``  flat positions in ``ab0`` of the factor entries and
                   their positions among the factor values;
    * ``levels``   the factor sweep's level schedule, deepest level first:
                   one :class:`RiccatiLevel` per group of nodes of equal
                   depth, ``nu``, ``nx`` and out-edge child ``nx``; a chain
                   has one one-node level per stage;
    * ``flops``    the sweep's nominal flop counts, per route (``classical``,
                   ``square_root``, ``qr``): entry i is the count of
                   levels 0..i-1, so the last entry is the whole sweep's
                   (the classical root factor excluded);
    * ``p_dim``    the largest nx over the nodes: a factorization writes
                   every node's cost-to-go block (``P_n``, or ``chol(P_n)``
                   on the square-root and QR routes) at the top left of slot
                   n of one zeroed (n_node, p_dim, p_dim) buffer, so the
                   blocks of the edges, edge e leading into node e + 1, are
                   its slots 1 on, and each product over pi is one stacked
                   ``matmul``;
    * ``p_pos``    positions of the pi entries in a vector of the edges'
                   padded (n_node - 1, p_dim) blocks: a slice when every
                   non-root node has ``nx = p_dim``, else an index array.
    """

    def __init__(self, view):
        d = view.qp.dim
        n_node = view.n_node
        nu = np.asarray(d.nu, dtype=np.intp)
        nx = np.asarray(d.nx, dtype=np.intp)
        w = nu + nx
        start = np.cumsum(w[::-1])[::-1] - w
        x_pos = start + nu        # band position of every node's x block
        self.vpos = _ranges(start, w)
        child = np.array([m for _, m, _ in view.edges], dtype=np.intp)
        self.pi_pos = _ranges(x_pos[child], nx[child])
        self.p_dim = p = int(nx.max())
        self.p_pos = (slice(None) if np.all(nx[child] == p)
                      else _ranges(np.arange(child.size, dtype=np.intp) * p,
                                   nx[child]))
        # the factor entries: every node's (w_n, nu_n) column block, then the
        # root's (nx_0, nx_0) block, each column-major and on the diagonal
        h = np.append(w, nx[0])
        width = np.append(nu, nx[0])
        first = np.append(start, start[0] + nu[0])
        count = h * width
        self.val_off = np.concatenate([[0], np.cumsum(count)])
        k = _ranges(np.zeros(n_node + 1, dtype=np.intp), count)
        h_k = np.maximum(h.repeat(count), 1)
        c, r = k // h_k, k % h_k
        low = r >= c
        r, c = r[low], c[low]
        depth = np.zeros(n_node, dtype=np.intp)
        for par, m, _ in view.edges:
            depth[m] = depth[par] + 1
        groups = {}
        for n in range(n_node):
            key = (depth[n], nu[n], nx[n],
                   tuple(nx[m] for m, _, _ in view.out_edges[n]))
            # a node without state is never stacked
            groups.setdefault(key if nx[n] else (n,), []).append(n)
        self.levels = [
            RiccatiLevel(view, nodes, self.val_off)
            for nodes in sorted(groups.values(),
                                key=lambda g: (-depth[g[0]], -g[-1]))
        ]
        # the coupling entries -[B A]' of every edge: T's column of child
        # state i, its row of parent variable j, as (column, offset, value)
        coupling = []
        for lv in self.levels:
            row = start[lv.nodes][:, None, None] + np.arange(lv.w)
            for sel, nxc, BA in lv.edges:
                col = x_pos[sel][:, None, None] + np.arange(nxc)[:, None]
                coupling.append((col, row - col, BA))
        self.kd = kd = int(max([np.max(r - c, initial=0)]
                               + [np.max(off, initial=0) for _, off, _ in coupling]))
        ab0 = np.zeros((view.nv, kd + 1))
        ab0[self.pi_pos, 0] = 1.0
        for col, off, BA in coupling:
            ab0[col, off] = -BA
        ab0.flags.writeable = False   # every factorization writes a copy
        self.ab0 = ab0
        self.dst = (first.repeat(count)[low] + c) * (kd + 1) + r - c
        self.src = np.flatnonzero(low)
        self.flops = {}
        for route in ("classical", "square_root", "qr"):
            cum = [0]
            for lv in self.levels:
                cum.append(cum[-1] + lv.k * lv.flops[route][0])
            self.flops[route] = cum


def _sel(ids):
    """``ids`` as a slice when evenly spaced and ascending, else an index array."""
    step = ids[1] - ids[0] if len(ids) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(ids, ids[1:])):
        return slice(ids[0], ids[-1] + 1, step)
    return np.array(ids, dtype=np.intp)


class RiccatiLevel:
    """Nodes of one depth and one shape: one step of the factor sweep.

    A level's k nodes share ``nu``, ``w = nu + nx`` and the ``nx`` of the
    children of every out-edge slot, so :func:`_level_step` factors them
    with one call per kernel on (k, ., .) stacks.  Selectors are slices
    where the node numbering allows (consecutive nodes, evenly spaced
    children, as in a breadth-first numbering) and index arrays otherwise.

    * ``nodes``    the node indices, ascending; ``k`` their number;
    * ``hess``     the nodes' (w, w) blocks in the flat reduced-Hessian
                   buffer (:func:`kkt_common.reduced_hessian`);
    * ``vals``     the nodes' factor columns among the band's factor
                   values, each column-major, that is an (nu, w) block;
    * ``p``        the nodes' slots in the stacked cost-to-go buffer;
    * ``edges``    per out-edge slot ``(children, nx_child, BA)``: the
                   children's slots and the (k, nx_child, w) stack of the
                   edges' ``[B A]``;
    * ``flops``    nominal counts per node and route, ``(full, at a
                   Cholesky failure)``: those of the :mod:`linalg` kernels
                   the step's calls stand in for.  A failed rank test comes
                   at the last counted kernel, so it counts in full.
    """

    __slots__ = ("nodes", "k", "nu", "w", "hess", "vals", "p", "edges", "flops")

    def __init__(self, view, nodes, val_off):
        d = view.qp.dim
        n0 = nodes[0]
        self.nodes = nodes
        self.k = k = len(nodes)
        self.nu = nu = int(d.nu[n0])
        nx = int(d.nx[n0])
        self.w = w = nu + nx
        h0, v0 = int(view.hess_off[n0]), int(val_off[n0])
        if nodes[-1] - n0 == k - 1:
            self.hess = slice(h0, h0 + k * w * w)
            self.vals = slice(v0, v0 + k * w * nu)
        else:
            ids = np.array(nodes, dtype=np.intp)
            self.hess = _ranges(view.hess_off[ids], np.full(k, w * w))
            self.vals = _ranges(val_off[ids], np.full(k, w * nu))
        self.p = _sel(nodes)
        out = [view.out_edges[n] for n in nodes]
        self.edges = []
        for j, (m, _, _) in enumerate(out[0]):
            BA = np.empty((k, int(d.nx[m]), w))
            for i, o in enumerate(out):
                BA[i, :, :nu] = o[j][1]["B"]
                BA[i, :, nu:] = o[j][1]["A"]
            BA.flags.writeable = False
            self.edges.append((_sel([o[j][0] for o in out]), int(d.nx[m]), BA))
        c = [e[1] for e in self.edges]
        edge_cl = sum(2 * ci * w * (ci + w) for ci in c)
        edge_sq = sum(2 * ci * ci * w for ci in c) + w ** 3 // 3
        m = w + sum(c)
        self.flops = {
            "classical": (edge_cl + nu ** 3 // 3 + nu * nu * nx + 2 * nx * nx * nu,
                          edge_cl + nu ** 3 // 3),
            "square_root": (edge_sq + sum(2 * w * w * ci for ci in c),) * 2,
            "qr": (edge_sq + max(0, 2 * m * w * w - (2 * w ** 3) // 3), edge_sq),
        }


def _p_apply(fac, vec):
    """``P_m @ vec_m`` for every edge block of a vector laid out like pi.

    One stacked product over the edges' slots of ``p_blocks``, two with
    ``chol(P_m)`` and its transpose on the square-root routes.
    """
    band = fac.view.band
    P = fac.p_blocks[1:]
    v = np.zeros(P.shape[0] * band.p_dim)
    v[band.p_pos] = vec
    v = v.reshape(P.shape[0], band.p_dim, 1)
    if fac.sqrt:
        v = P.transpose(0, 2, 1) @ v
    return (P @ v).ravel()[band.p_pos]


def riccati_solve(fac, r_g, r_b, r_d, r_m):
    """Full-space Newton solution from a current factor and a 4-block RHS.

    Two band solves with the factor's matrix T, backward then forward (see
    the module docstring), between the flat fold of the right-hand side and
    the flat recovery of the slack and inequality components.  The step's
    v and pi parts go straight into one zeroed solution buffer, which the
    recovery completes.
    """
    vw = fac.view
    band = vw.band
    rhat, fold = fold_rhs(vw, fac.scales, r_g, r_d, r_m)
    f = np.empty(vw.nv)
    f[band.vpos] = rhat
    f[band.pi_pos] += _p_apply(fac, r_b)
    s = solve_banded_triangular(fac.ab, f)
    f = -s
    f[band.pi_pos] = r_b
    w = solve_banded_triangular(fac.ab, f, transpose=True)
    step = QpSolution(vw)
    np.add(_p_apply(fac, w[band.pi_pos] - r_b), s[band.pi_pos], out=step.pi)
    np.take(w, band.vpos, out=step.v)
    return recover(vw, fac.scales, fold, r_d, step)


def feedback_gains(fac):
    """Stage feedback gain matrices K[0..N-1] of a factored OCP recursion.

    For an unconstrained problem at any iterate these are the familiar
    discrete-time linear-quadratic regulator gains; with constraints they are
    the gains of the inequality-augmented stage Hessians.

    Raises
    ------
    ValueError
        For the factor of a tree QP, whose nodes have no stage order: the
        per-node gains are ``fac.K``.
    """
    if fac.view.kind == "tree":
        raise ValueError("feedback_gains is defined for OCP factors only")
    return [K.copy() for K in fac.K[:-1]]
