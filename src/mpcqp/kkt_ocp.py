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
one step with one kernel call on its (k, w, w) stack and its nodes'
operands, views prepared once per workspace.  Slices select a level's
nodes and children, as a breadth-first numbering allows; where they
cannot (a tree numbered depth first), each node of the group is a level
of its own.  A chain is a tree with one node per level, so its steps
have k = 1; a scenario tree's levels stack its branches.
The schedule, the band layout of the vector solve and the sweep's
workspace are constants of the view: :class:`RiccatiBand` is built on the
first factorization of a view and kept on it as ``band``, so that the
view's bound-write copies share it.  Everything else is done once per
factorization or once per view:

* the augmented node Hessians ``M[n]`` of all nodes are formed in one pass
  over a flat buffer (:func:`kkt_common.reduced_hessian`): a copy of the
  view's symmetrized base Hessians ``[[R S] [S' Q]]``, one scatter of the
  box rows' coefficients, the general rows' Gram terms and the primal
  regularization.  The sweep copies the buffer once into the work buffer
  of its workspace and keeps the original for its fallbacks;
* the schedule, its slices, and the edges' ``[B A]`` stacked per level
  and out-edge slot are built once per QP revision;
* the workspace (:class:`RiccatiWorkspace`) is built on the view's first
  factorization and checked out by each sweep: the work buffer, one
  stacked cost-to-go buffer, the QR route's scratch, and every level's
  step arguments (:meth:`RiccatiLevel.args`) prepared once as views of
  the three.  On every level, a chain's one-node levels included, these
  are every node's operands (:func:`linalg.update_operands`): its
  Fortran-ordered work block with its children's cost-to-go and
  ``[B A]`` blocks, and for the QR route the level's copy of M, its W
  rows and every node's views of both, so that a sweep makes no view,
  list or array per node.  A factorization that finds the workspace
  checked out (nested or concurrent, on the same view) builds its own;
* a level overwrites its nodes' blocks of the work buffer with their
  Cholesky factors, each column-major: it reads them as one (k, w, w)
  stack of Fortran-ordered blocks.  Node n's factor columns ``[L_uu;
  L_xu]`` are then the first ``nu w`` entries of its block, and the root
  block's trailing triangle is ``chol(P[0])``.  The level writes its
  nodes' cost-to-go blocks (``P[n]``, or ``chol(P[n])`` on the square-root
  and QR routes) in one assignment into their slots of the stacked buffer
  (laid out by ``RiccatiBand.p_dim``), from which its parents' level reads
  them.  After the sweep the factor takes its own copies of both buffers
  (:attr:`RiccatiFactor.work`, :attr:`RiccatiFactor.p_blocks`), so that no
  two factors share memory, and the band matrix of the vector solve is
  filled from the factor blocks in one gather;
* the gains ``K[n] = -L_uu^-T L_xu'`` are not needed by the solve and are
  formed when :attr:`RiccatiFactor.K` is first read (``feedback_gains``,
  tests); their triangular solves are counted then;
* the flops are counted once per factorization, from the per-route totals
  of the schedule (``RiccatiBand.flops``).

A level step makes one call of its route's update-and-factor kernel in
:mod:`linalg`, which factors the level's whole (nu+nx) node blocks:
:func:`linalg.cholesky_update` (classical, ``chol(M + [B A]' P [B A])``),
:func:`linalg.cholesky_sqrt_update` (square root, ``chol(M + W'W)`` with
``W = chol(P)' [B A]``) and :func:`linalg.qr_cholesky_update` (QR, the
triangle of ``[chol(M)' ; W ...]``, which holds the rank test and the sign
normalization).  The Cholesky routes go node by node: for each node of
the level the kernel calls BLAS and LAPACK on the node's prepared blocks,
with the ``[B A]`` blocks stored column-major once per view so that they
reach BLAS uncopied, and with no helper call in between: ``dsymm``,
``dgemm`` and ``dpotrf`` (classical) and ``dtrmm``, ``dsyrk`` and
``dpotrf`` (square root) work in the node's work block itself, so that
no copy of M and no new factor array is made; a level of k nodes makes
the calls of k chain levels.  The QR route forms the rows W of all the
level's nodes with one stacked product per out-edge slot into the
prepared rows, then runs the upper ``dpotrf`` and one ``dtpqrt`` per
node in place on the prepared copy of M, which is written back in one
assignment.  A node without children (a leaf, a chain's last stage) has
nothing to triangularize: the QR route takes ``chol(M)`` as its factor,
by the lower ``dpotrf`` of every node's work block in place.  A
classical step then forms ``P = L_xx L_xx'``, symmetric as formed.  A
kernel raises when a block is not positive definite (or, on the QR
route, fails the rank test), and one function takes every such failure
over
(:func:`_level_failed`): it redoes the level node by node from the kept
reduced Hessians, and a classical node whose whole block is not positive
definite takes the input-block step on that block, with G formed again
from the kept reduced Hessians: one Cholesky factorization of ``G_uu``
with the triangular solve for X (:func:`linalg.cholesky_solve`), one
product for ``X'X``, and P symmetrized; at the root, chol(P[0]) follows,
one ``dpotrf`` of a copy of P[0] written into the root block's trailing
triangle.  The kernels count no flops; the sweep counts those of the
per-node kernels they stand in for, the same on every path.

Two variants:

* ``classical``     P is propagated explicitly.  The whole (nu+nx) block
                    of G is factorized, and ``P = L_xx L_xx'``; a node whose
                    block is not positive definite factors only its G_uu
                    block instead, so the full-space node Hessian may be
                    indefinite as long as every reduced block is positive
                    definite.  The counted flops are those of the G_uu
                    route either way.
* ``square_root``   the whole (nu+nx) block of G is factorized; its trailing
                    triangle is exactly chol(P[n]), so P is propagated in
                    factored form.  Requires positive definite node
                    Hessians.  In QR mode the node factor is obtained by
                    triangularizing the stack [chol(M)' ; chol(P_m)' [B_m A_m]
                    per child] without ever forming G (the array algorithm),
                    which avoids squaring the condition number.

Factorization failures carry the offending stage (node) index.  A failed
level is redone one node at a time in descending order, so the failing
node and the flops counted up to the failure are those of a node-by-node
sweep in the schedule's order (descending on a chain).  A classical
root whose P[0] is not positive definite fails there too, at stage 0,
with the whole sweep's flops counted.  A factor call makes one attempt on
the route it is given (Cholesky or QR, with or without regularization);
retrying on another route is the solver's decision.

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
factorization gathers its ``L_uu``, ``L_xu`` and ``L_P0`` from its work
buffer into T, held in LAPACK band storage; the layout, the bandwidth
(taken from the edge table: about ``2 nx + nu`` on a chain) and the
coupling entries ``-[B A]'`` are constants of the view
(:class:`RiccatiBand`).  On a tree a parent sits a
level's width of nodes from its children, so the bandwidth grows with the
widest level: 37 on the 31-node scenario tree of the benchmark against 13
on a chain of the same stages, 1029 on a 639-node tree.  The band solves
cost about ``2 nv kd`` flops each, so unlike the factor sweep a tree's
vector solve is not linear in the node count.  A vector solve then
folds the right-hand side over the flat vectors, forms ``P b`` with one
stacked product over the edges' cost-to-go blocks (two with the factors on
the square-root routes), or reuses the factor's last ``P b`` when ``b``
is the very array of its last solve (the interior point loop's predictor
and corrector solves share their ``r_b``), runs the two band solves, forms
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
    cholesky_solve,
    cholesky_sqrt_update,
    cholesky_update,
    count_flops,
    qr_cholesky_update,
    solve_banded_triangular,
    solve_triangular,
    update_operands,
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

    It holds its own copies of the two buffers of the sweep's workspace
    (:class:`RiccatiWorkspace`), taken after the sweep, so that a later
    factorization of the view leaves it alone: ``work``, laid out like the
    reduced Hessians (``view.hess_off``), where every node's (w, w) block
    holds its Cholesky factor column-major, so that its factor columns
    ``[L_uu; L_xu]`` are the block's first ``nu w`` entries and the root
    block's trailing triangle is chol(P[0]); and ``p_blocks``, every node's
    P, or chol(P) if ``sqrt``, at the top left of its slot (see
    ``RiccatiBand.p_dim``).  The per-node lists ``L_uu`` and ``L_xu`` are
    views of ``work``, made on first read.
    """

    def __init__(self, qp, view, iterate):
        self.qp = qp
        self.view = view
        self.scales = view_scales(view, iterate.lam, iterate.t)
        self.work = None             # the factored node blocks
        self.p_blocks = None         # the cost-to-go blocks
        self.ab = None               # band storage of the solve matrix T
        self.sqrt = False
        self._pb = (None, None)      # the last solve's r_b and its P r_b

    @cached_property
    def _cols(self):
        """Every node's factor columns ``[L_uu; L_xu]``, views of ``work``."""
        d, off = self.qp.dim, self.view.hess_off
        return [self.work[off[n]: off[n] + nu * (nu + nx)].reshape(nu, nu + nx).T
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
    sweep checks the view's workspace out (``RiccatiBand.spare``; a new
    one if none is spare) and hands it back when done, also on a failure;
    it walks the level schedule (``RiccatiBand.levels``) on the arguments
    prepared in the workspace, hands a failed step to :func:`_level_failed`
    and counts its flops in one call.

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
    fac.sqrt = route != "classical"
    hess = reduced_hessian(vw, fac.scales, arg.reg_prim)
    # check the view's workspace out for this sweep; a nested or concurrent
    # factorization of the view finds none spare and builds its own
    try:
        ws = band.spare.pop()
    except IndexError:
        ws = RiccatiWorkspace(vw, band)
    try:
        work, P = ws.work, ws.p
        np.copyto(work, hess)
        done = band.flops[route]
        for i, args in enumerate(ws.steps):
            try:
                _level_step(route, args)
            except (NotPositiveDefinite, RankDeficient) as exc:
                _level_failed(vw, band.levels[i], route, hess, work, P, done[i],
                              exc)
        count_flops(done[-1])
        fac.work, fac.p_blocks = work.copy(), P.copy()
    finally:
        band.spare.append(ws)
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = fac.work[band.src]
    fac.ab = ab.T
    return fac


def _level_step(route, args):
    """Factor the k nodes of one level: one call of the route's update kernel.

    ``args`` are the level's arguments on the sweep's buffers
    (:meth:`RiccatiLevel.args`), views prepared in the workspace.  The step
    overwrites the nodes' blocks of the work buffer, a copy of the reduced
    Hessians on entry, with their Cholesky factors, each column-major, and
    writes their P (classical) or chol(P) blocks into the cost-to-go
    buffer, from which it reads their children's.  A step is its kernel's
    BLAS and LAPACK calls and, on the classical route, one stacked product
    into the nodes' slots.  The flops are counted by the caller.

    * classical: :func:`linalg.cholesky_update`, the Cholesky factors of the
      whole blocks ``M + sum BA' P BA``, then ``P = L_xx L_xx'``;
    * square root: :func:`linalg.cholesky_sqrt_update`, the Cholesky
      factors of ``M + sum W'W`` with ``W = chol(P)' BA``, whose trailing
      blocks are chol(P);
    * QR: :func:`linalg.qr_cholesky_update`, the QR-Cholesky factors of the
      stacks ``[chol(M)'; W ...]``.

    Raises
    ------
    NotPositiveDefinite, RankDeficient
        From the :mod:`linalg` update kernels; :func:`_level_failed` takes
        them over.
    """
    M, terms, L_P, L_Pt, P_n = args
    if route == "classical":
        cholesky_update(M, terms)
        np.matmul(L_P, L_Pt, out=P_n)
    else:
        (qr_cholesky_update if route == "qr" else cholesky_sqrt_update)(M, terms)
        P_n[...] = L_P


def _input_block_step(lv, hess, args):
    """The classical step on a one-node level whose whole block
    ``G = M + sum BA' P BA`` is not positive definite: G formed again from
    the node's reduced Hessian in ``hess``, one Cholesky of ``G_uu`` with
    the triangular solve for ``X = L_uu^-1 G_ux`` (:func:`linalg.cholesky_solve`),
    ``P = G_xx - X'X``, symmetrized.  ``args`` are the level's
    (:meth:`RiccatiLevel.args`); the factor columns ``[L_uu; X']`` go into
    the first nu columns of the node's work block, and P into its
    cost-to-go block.

    Raises
    ------
    NotPositiveDefinite
        If ``G_uu`` is not positive definite.
    """
    _, (nodes, _), _, _, P_n = args
    (M, node_terms), = nodes
    nu = lv.nu
    G = hess[lv.hess].reshape(lv.w, lv.w)
    for Pt, BA in node_terms:
        G = G + BA.T @ (Pt.T @ BA)
    if nu:
        L, X = cholesky_solve(G[:nu, :nu], G[:nu, nu:])
        G = G[nu:, nu:] - X.T @ X
        M[:, :nu] = np.concatenate([L, X.T])
    P_n[...] = 0.5 * (G + G.T)


def _level_failed(view, lv, route, hess, work, P, counted, exc):
    """Finish the level whose step raised ``exc``, or raise
    :class:`FactorizationFailed` naming the first node that fails.

    The level is redone node by node, in descending order, as the
    node-by-node sweep would.  The Cholesky kernels, and the QR kernel on a
    leaf level, factor a stack block by block in place, so they have
    overwritten the blocks before the failing one: the level's blocks are
    first copied back from the reduced Hessians ``hess``, and each node of
    a stacked level then runs its own step on a one-node level's operands
    (with QR scratch of its own); a one-node level's node has failed its
    step already.  On the classical route a node whose step fails takes the
    input-block step (:func:`_input_block_step`), and at the root then
    chol(P[0]), the trailing triangle of its factor: an update kernel
    without terms on a Fortran-ordered copy of P[0], one ``dpotrf``.  The
    flops counted at a failure are ``counted`` (the levels before), the
    nodes redone and the failing node's count up to the failing call; at
    chol(P[0]) they are the whole sweep's.
    """
    work[lv.hess] = hess[lv.hess]
    for n in lv.nodes[::-1]:
        one = lv if lv.k == 1 else RiccatiLevel(view, [n])
        _, _, L_P, _, P_n = args = one.args(work, P)
        full, at_chol = one.flops[route]
        if one is not lv:
            try:
                _level_step(route, args)
                counted += full
                continue
            except (NotPositiveDefinite, RankDeficient) as node_exc:
                exc = node_exc
        what = f"Riccati factorization failed at stage {n}"
        flops = counted + (at_chol if isinstance(exc, NotPositiveDefinite) else full)
        if route == "classical":
            try:
                _input_block_step(one, hess, args)
                if n == 0 and P_n.size:
                    what = "cost-to-go matrix not positive definite at stage 0"
                    flops = counted + full
                    # chol(P[0]): an update kernel's one-block dpotrf,
                    # with no terms, on a Fortran-ordered copy
                    L = P_n.copy(order="F")
                    L_P[...] = cholesky_sqrt_update(L, update_operands(L, []))
                counted += full
                continue
            except NotPositiveDefinite as node_exc:
                exc = node_exc
        count_flops(flops)
        raise FactorizationFailed(f"{what}: {exc}", stage=n) from None


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
    and workspace, and the band layout of its vector-solve matrix T.

    The nodes are laid out in reverse order (every child before its parent),
    each node n as ``[l_n | s_n]`` over its window ``(u_n, x_n)``, so that T
    is lower triangular.  Its diagonal block is ``[[L_uu 0] [L_xu D_n]]``
    with ``D_n = I`` except at the root; the edge into a child m couples the
    parent's rows to ``s_m`` through ``-[B_m A_m]'``.  The coupling and the
    identities are constants of the view, filled from the edge table (the
    levels' ``[B A]`` stacks); a factorization writes only the factor
    columns ``[L_uu; L_xu]`` of every node and the root block, gathered
    from its factored node blocks (:attr:`RiccatiFactor.work`).

    * ``vpos``     v index k sits at band position ``vpos[k]``;
    * ``pi_pos``   band position of the child state each pi entry pairs with;
    * ``kd``       number of subdiagonals, from the edge table;
    * ``ab0``      (nv, kd + 1) C-ordered constant part; its transpose is
                   LAPACK lower band storage;
    * ``dst``/``src``  flat positions in ``ab0`` of the factor entries and
                   their positions in a factorization's ``work`` buffer:
                   node n's ``[L_uu; L_xu]`` are the first ``nu w`` entries
                   of its block, column-major, and the root block is the
                   trailing (nx_0, nx_0) triangle of node 0's;
    * ``levels``   the factor sweep's level schedule, deepest level first:
                   one :class:`RiccatiLevel` per group of nodes of equal
                   depth, ``nu``, ``nx`` and out-edge child ``nx`` where
                   slices select the group's nodes and their children, else
                   one per node of the group, in descending order; a chain
                   has one one-node level per stage;
    * ``flops``    the sweep's nominal flop counts, per route (``classical``,
                   ``square_root``, ``qr``): entry i is the count of
                   levels 0..i-1, so the last entry is the whole sweep's;
    * ``p_dim``    the largest nx over the nodes: a factorization writes
                   every node's cost-to-go block (``P_n``, or ``chol(P_n)``
                   on the square-root and QR routes) at the top left of slot
                   n of one zeroed (n_node, p_dim, p_dim) buffer, so the
                   blocks of the edges, edge e leading into node e + 1, are
                   its slots 1 on, and each product over pi is one stacked
                   ``matmul``;
    * ``p_pos``    positions of the pi entries in a vector of the edges'
                   padded (n_node - 1, p_dim) blocks: a slice when every
                   non-root node has ``nx = p_dim``, else an index array;
    * ``spare``    the :class:`RiccatiWorkspace` objects not checked out by
                   a sweep: the one built on the view's first factorization,
                   reused by every later one.
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
        # root's (nx_0, nx_0) block, each column-major and on the diagonal;
        # in the work buffer each starts at src0 with leading dimension w
        h = np.append(w, nx[0])
        width = np.append(nu, nx[0])
        first = np.append(start, start[0] + nu[0])
        src0 = np.append(view.hess_off[:-1], nu[0] * (w[0] + 1))
        count = h * width
        k = _ranges(np.zeros(n_node + 1, dtype=np.intp), count)
        h_k = np.maximum(h.repeat(count), 1)
        c, r = k // h_k, k % h_k
        low = r >= c
        self.src = (src0.repeat(count) + c * np.append(w, w[0]).repeat(count) + r)[low]
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
        self.levels = []
        for nodes in sorted(groups.values(), key=lambda g: (-depth[g[0]], -g[-1])):
            # stacked where slices select the nodes and, per out-edge slot,
            # their children, as in a breadth-first numbering; else one
            # level per node, in descending order
            out = [view.out_edges[n] for n in nodes]
            children = ([o[j][0] for o in out] for j in range(len(out[0])))
            if nodes[-1] - nodes[0] == len(nodes) - 1 and all(
                    _sel(c) is not None for c in children):
                self.levels.append(RiccatiLevel(view, nodes))
            else:
                self.levels += [RiccatiLevel(view, [n]) for n in nodes[::-1]]
        # the coupling entries -[B A]' of every edge: T's column of child
        # state i, its row of parent variable j, as (column, offset, value)
        coupling = []
        for lv in self.levels:
            row = start[lv.nodes][:, None, None] + np.arange(lv.w)
            for sel, nxc, BA in lv.edges:
                col = x_pos[sel].reshape(-1, 1, 1) + np.arange(nxc)[:, None]
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
        self.flops = {}
        for route in ("classical", "square_root", "qr"):
            cum = [0]
            for lv in self.levels:
                cum.append(cum[-1] + lv.k * lv.flops[route][0])
            self.flops[route] = cum
        self.spare = _Spare()


class _Spare(list):
    """A band's spare :class:`RiccatiWorkspace` objects.  Copies and pickles
    of it are empty: copying a workspace would detach its prepared views
    from its buffers."""

    def __reduce__(self):
        return _Spare, ()


class RiccatiWorkspace:
    """The buffers of one factor sweep, and every level's step arguments
    prepared on them.

    * ``work``   laid out like the reduced Hessians (``view.hess_off``);
    * ``p``      the stacked cost-to-go blocks, laid out like
                 :attr:`RiccatiFactor.p_blocks` (zero outside them);
    * ``qr``     the QR route's scratch: ``RiccatiLevel.scratch`` entries
                 per level, one after the other;
    * ``steps``  per level, :meth:`RiccatiLevel.args` on the three
                 buffers: views of them, built once.
    """

    __slots__ = ("work", "p", "qr", "steps")

    def __init__(self, view, band):
        self.work = np.empty(int(view.hess_off[-1]))
        self.p = np.zeros((view.n_node, band.p_dim, band.p_dim))
        size = [lv.scratch for lv in band.levels]
        self.qr = np.empty(sum(size))
        end = np.cumsum(size).tolist()
        self.steps = [lv.args(self.work, self.p, self.qr[e - n: e])
                      for lv, n, e in zip(band.levels, size, end)]


def _sel(ids):
    """``ids`` as a slice when evenly spaced and ascending, else None."""
    step = ids[1] - ids[0] if len(ids) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(ids, ids[1:])):
        return slice(ids[0], ids[-1] + 1, step)
    return None


class RiccatiLevel:
    """Nodes of one depth and one shape: one step of the factor sweep.

    A level's k nodes share ``nu``, ``w = nu + nx`` and the ``nx`` of the
    children of every out-edge slot, so :func:`_level_step` factors them
    with one kernel call on their (k, w, w) stack and prepared per-node
    operands; a chain's levels are stacks of one.  Its selectors are
    slices: the nodes are consecutive and each slot's children evenly
    spaced (see ``RiccatiBand.levels``), so the step's arguments on a
    sweep's buffers (:meth:`args`) are views of them, prepared once per
    workspace.

    * ``nodes``    the node indices, ascending; ``k`` their number;
    * ``hess``     the nodes' (w, w) blocks in the flat reduced-Hessian
                   buffer (:func:`kkt_common.reduced_hessian`), and in the
                   factorization's work buffer, its copy, which the step
                   overwrites with the nodes' factors;
    * ``p``        the index of the nodes' (nx, nx) blocks in the stacked
                   cost-to-go buffer: their slots and the slots' top-left
                   corner;
    * ``edges``    per out-edge slot ``(children, nx_child, BA)``: the
                   children's slots and the (k, nx_child, w) stack of the
                   edges' ``[B A]``, each block column-major;
    * ``scratch``  the size of the QR route's copy of M and W rows on a
                   level with children, ``k w (w + sum nx_child)``; 0 on
                   the others;
    * ``flops``    nominal counts per node and route, ``(full, at a
                   Cholesky failure)``: those of the :mod:`linalg` kernels
                   the step's calls stand in for; the root's full classical
                   count includes its chol(P[0]).  A failed rank test comes
                   at the last counted kernel, so it counts in full.
    """

    __slots__ = ("nodes", "k", "nu", "w", "hess", "p", "edges", "scratch",
                 "flops")

    def __init__(self, view, nodes):
        d = view.qp.dim
        n0 = nodes[0]
        self.nodes = nodes
        self.k = k = len(nodes)
        self.nu = nu = int(d.nu[n0])
        nx = int(d.nx[n0])
        self.w = w = nu + nx
        h0 = int(view.hess_off[n0])
        self.hess = slice(h0, h0 + k * w * w)
        self.p = (slice(n0, n0 + k), slice(nx), slice(nx))
        out = [view.out_edges[n] for n in nodes]
        self.edges = []
        for j, (m, _, _) in enumerate(out[0]):
            # each block column-major, as BLAS takes it
            BA = np.empty((k, w, int(d.nx[m]))).transpose(0, 2, 1)
            for i, o in enumerate(out):
                BA[i, :, :nu] = o[j][1]["B"]
                BA[i, :, nu:] = o[j][1]["A"]
            BA.flags.writeable = False
            self.edges.append((_sel([o[j][0] for o in out]), int(d.nx[m]), BA))
        c = [e[1] for e in self.edges]
        self.scratch = k * w * (w + sum(c)) if any(c) else 0
        edge_cl = sum(2 * ci * w * (ci + w) for ci in c)
        edge_sq = sum(2 * ci * ci * w for ci in c) + w ** 3 // 3
        m = w + sum(c)
        # the root's full classical count includes its chol(P[0])
        root = nx ** 3 // 3 if n0 == 0 else 0
        self.flops = {
            "classical": (edge_cl + nu ** 3 // 3 + nu * nu * nx + 2 * nx * nx * nu
                          + root, edge_cl + nu ** 3 // 3),
            "square_root": (edge_sq + sum(2 * w * w * ci for ci in c),) * 2,
            "qr": (edge_sq + max(0, 2 * m * w * w - (2 * w ** 3) // 3), edge_sq),
        }

    def args(self, work, P, scratch=None):
        """The step's arguments on a sweep's buffers: ``(M, terms, L_P,
        L_P', P_n)``, the nodes' (k, w, w) stack of ``work`` with
        Fortran-ordered blocks, the operands of every node prepared for
        the :mod:`linalg` update kernels (:func:`linalg.update_operands` of
        M and, per out-edge slot, the children's blocks of ``P`` and the
        ``[B A]`` stack, with the QR route's copy of M and W rows in
        ``scratch``, ``self.scratch`` entries, or in a buffer of their own
        when None), the blocks' trailing (nx, nx) factors and their
        transposes, and the nodes' blocks of ``P``, all views of the
        buffers.
        """
        M = work[self.hess].reshape(self.k, self.w, self.w).swapaxes(-1, -2)
        L_P = M[:, self.nu:, self.nu:]
        terms = update_operands(
            M, [(P[sel, :c, :c], BA) for sel, c, BA in self.edges], scratch)
        return (M, terms, L_P, L_P.swapaxes(-1, -2), P[self.p])


def _p_apply(fac, vec):
    """``P_m @ vec_m`` for every edge block of a vector laid out like pi.

    One stacked product over the edges' slots of ``p_blocks``, two with
    ``chol(P_m)`` and its transpose on the square-root routes.
    """
    band = fac.view.band
    P = fac.p_blocks[1:]
    # with every edge block full, vec is the blocks as it is
    v = vec
    if not isinstance(band.p_pos, slice):
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
    recovery completes.  ``P r_b`` is formed once for consecutive solves
    given the same ``r_b`` array, which they must not write in between.
    """
    vw = fac.view
    band = vw.band
    rhat, fold = fold_rhs(vw, fac.scales, r_g, r_d, r_m)
    if fac._pb[0] is not r_b:
        fac._pb = (r_b, _p_apply(fac, r_b))
    f = np.empty(vw.nv)
    f[band.vpos] = rhat
    f[band.pi_pos] += fac._pb[1]
    s = solve_banded_triangular(fac.ab, f)
    f = -s
    f[band.pi_pos] = r_b
    w = solve_banded_triangular(fac.ab, f, transpose=True)
    step = QpSolution._wrap(vw, np.zeros(vw.ny + vw.ne + 2 * vw.nc))
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
