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
toward the root; leaves have no successor contribution.  The sweep visits
the nodes by depth, deepest first, so it reaches every node after all of
its children; child contributions are summed in multiplier order so
results are reproducible.  Cost per node is cubic in
nu + nx, so the sweep is linear in the horizon length or node count; no
fill-in appears outside the data blocks.

The sweep walks a level schedule, a constant of the view
(``RiccatiBand.levels``, see :class:`view.RiccatiLevel`): the nodes of one
depth that share ``nu``, ``nx`` and the ``nx`` of their children form a
level, and a level of k nodes is one step with one call per kernel on
(k, ., .) stacks.  A chain is a tree with one node per level, so its steps
have k = 1 and call LAPACK on the node's own blocks; a scenario tree's
levels stack its branches.  Everything else is done once per factorization
or once per view:

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
one ``BA'(.)`` product, then one ``dpotrf`` of the ``G_uu`` blocks, one
``dtrtrs`` for X and one product for ``X'X``, and symmetrizes P.  The
square-root step makes, per edge slot, ``W = chol(P_m)' BA`` and
``G += W'W``, then one ``dpotrf`` of the whole blocks; the QR step one
``dpotrf`` of the ``M[n]`` blocks and one QR (``dgeqrf``) per node of the
stacks ``[chol(M)' ; W ...]``, with the rank test and the sign
normalization of :func:`linalg.qr_cholesky` run once over the level.  With
k > 1 each ``dpotrf`` and ``dtrtrs`` works on the level's block-diagonal
matrix: one LAPACK call in place of k.  The flop counts are those of the
:mod:`linalg` kernels these calls stand in for, per node.

Two variants:

* ``classical``     P is propagated explicitly and only G_uu is factorized;
                    the full-space node Hessian may be indefinite as long as
                    every reduced block is positive definite.
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
about ``2 nx + nu`` on a chain) and the coupling entries, which are E's, are
constants of the view (:class:`view.RiccatiBand`).  A vector solve then
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
from scipy.linalg.lapack import dgeqrf as _geqrf
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dtrtrs as _trtrs

from .errors import FactorizationFailed
from .ipm_core import RICCATI_VARIANTS, IpmArg
from .kkt_common import fold_rhs, recover, reduced_hessian, view_scales
from .linalg import (
    _EPS,
    _qr_lwork,
    _upper,
    count_flops,
    solve_banded_triangular,
    solve_triangular,
)
from .view import QpSolution, RiccatiLevel, make_view, split_flat

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
    ``view.RiccatiBand.p_dim``).  The per-node lists ``L_uu`` and ``L_xu``
    are views of ``vals``, made on first read.
    """

    def __init__(self, qp, view, variant, iterate):
        self.qp = qp
        self.view = view
        self.variant = variant
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
        return riccati_solve(self, self.qp, r_g, r_b, r_d, r_m)

    def solve_flat(self, rhs_flat):
        vw = self.view
        return self.solve(*split_flat(rhs_flat, vw.ny, vw.ne, vw.nc)).flat()


def riccati_factor(qp, iterate, variant=None, arg=None, use_qr=False):
    """Run the backward factor sweep and return a reusable factor object.

    Works on an :class:`OcpQp` (a chain) and on a :class:`TreeOcpQp` alike.
    ``use_qr`` switches every node to the QR array algorithm (which implies
    the square-root algebra).  The sweep walks the view's level schedule
    (``RiccatiBand.levels``) and counts its flops in one call.

    Raises
    ------
    FactorizationFailed
        With the failing stage (node) index; the classical variant fails
        when a reduced input block is not positive definite, the square-root
        variant when a full node block is not, the QR route when a node
        Hessian before the successor terms is not or its stack is rank
        deficient.
    """
    arg = arg or IpmArg()
    variant = variant or arg.riccati_variant
    if variant not in RICCATI_VARIANTS:
        raise ValueError(f"unknown Riccati variant '{variant}'")
    vw = make_view(qp)
    fac = RiccatiFactor(qp, vw, variant, iterate)
    route = "qr" if use_qr else variant
    fac.sqrt = sqrt_mode = route != "classical"
    hess = reduced_hessian(vw, fac.scales, arg.reg_prim)
    band = vw.band
    vals, P = fac.vals, fac.p_blocks
    done = band.flops[route]
    for i, lv in enumerate(band.levels):
        try:
            _level_step(lv, route, hess, vals, P)
        except _LevelFailed as exc:
            _level_failed(vw, lv, route, hess, vals, P, done[i], exc)
    nx0 = int(qp.dim.nx[0])
    root = vals[band.val_off[-2]:].reshape(nx0, nx0).T
    if sqrt_mode:
        count_flops(done[-1])
        root[...] = P[0, :nx0, :nx0]
    else:
        count_flops(done[-1] + nx0 ** 3 // 3)
        if nx0:
            L, info = _potrf(P[0, :nx0, :nx0], lower=1, clean=1)
            if info:
                raise FactorizationFailed(
                    "cost-to-go matrix not positive definite at stage 0: "
                    f"{info}-th leading minor of the array is not positive "
                    "definite", stage=0,
                )
            root[...] = L
    ab = band.ab0.copy()
    ab.ravel()[band.dst] = vals[band.src]
    fac.ab = ab.T
    return fac


def _level_step(lv, route, hess, vals, P):
    """Factor the k nodes of one level: one call per kernel on (k, ., .) stacks.

    Reads the nodes' reduced Hessians from ``hess`` (never written) and
    their children's blocks from ``P``; writes the nodes' factor columns
    into ``vals`` and their P (classical) or chol(P) blocks into ``P``.

    * classical: per edge slot ``BA'(P BA)``; one Cholesky of the ``G_uu``
      blocks, one triangular solve for ``X = L_uu^-1 G_ux``, one ``X'X``
      and ``P = G_xx - X'X``, symmetrized;
    * square root: per edge slot ``W = chol(P)' BA`` and ``G += W'W``, then
      one Cholesky of the whole blocks, whose trailing blocks are chol(P);
    * QR: one Cholesky of the node Hessians and one QR of the stacks
      ``[chol(G)'; W ...]``.

    With k = 1 the Cholesky and triangular-solve calls take the node's
    blocks directly; with k > 1 they take the level's block-diagonal
    matrix (:func:`view._blocks`), one LAPACK call for the level.

    Raises
    ------
    _LevelFailed
        When a Cholesky factorization or the QR rank test fails.
    """
    k, nu, w = lv.k, lv.nu, lv.w
    nx = w - nu
    G = hess[lv.hess].reshape(k, w, w)
    if route == "classical":
        for sel, c, BA in lv.edges:
            G = G + BA.transpose(0, 2, 1) @ (P[sel, :c, :c] @ BA)
        if nu:
            L, X = _chol_solve(lv, G)
            G = G[:, nu:, nu:] - X.transpose(0, 2, 1) @ X
            vals[lv.vals] = np.concatenate(
                [L.transpose(0, 2, 1), X], axis=2).ravel()
        P[lv.p, :nx, :nx] = 0.5 * (G + G.transpose(0, 2, 1))
        return
    W = [P[sel, :c, :c].transpose(0, 2, 1) @ BA for sel, c, BA in lv.edges]
    if route == "qr":
        L_M = _chol_stack(lv, G, 1)
        L = _qr_lower(np.concatenate([L_M.transpose(0, 2, 1)] + W, axis=1))
    else:
        for W_m in W:
            G = G + W_m.transpose(0, 2, 1) @ W_m
        L = _chol_stack(lv, G, 0)
    vals[lv.vals] = L[:, :, :nu].transpose(0, 2, 1).ravel()
    P[lv.p, :nx, :nx] = L[:, nu:, nu:]


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
            except _LevelFailed as one_exc:
                lv, exc = one, one_exc
                break
            counted += one.flops[route][0]
        else:
            return
    n = lv.nodes[0]
    count_flops(counted + lv.flops[route][exc.partial])
    raise FactorizationFailed(
        f"Riccati factorization failed at stage {n}: {exc}", stage=n
    ) from None


class _LevelFailed(Exception):
    """A level's kernel failed.

    ``partial`` indexes the level's per-node counts ``(full, at failure)``
    (see :class:`view.RiccatiLevel`): 1 when the failing call comes before
    the node's last counted kernel, 0 when the whole node is counted.
    """

    def __init__(self, msg, partial):
        super().__init__(msg)
        self.partial = partial


def _chol(A, partial, overwrite=0):
    """Lower Cholesky factor of the matrix A by one ``dpotrf``."""
    L, info = _potrf(A, lower=1, clean=1, overwrite_a=overwrite)
    if info:
        raise _LevelFailed(f"{info}-th leading minor of the array is not "
                           "positive definite", partial)
    return L


def _block_diag(A, blk):
    """The (k, b, b) stack A on the diagonal of a zero matrix, Fortran-ordered.

    ``blk`` holds the blocks' positions (see :func:`view._blocks`); the
    blocks of a factor computed in place are ``L.ravel(order="F")[blk]``.
    """
    kb = blk.shape[0] * blk.shape[1]
    buf = np.zeros(kb * kb)
    buf[blk] = A
    return buf.reshape(kb, kb).T


def _chol_stack(lv, A, partial):
    """Lower Cholesky factors of the level's (k, w, w) stack A: one ``dpotrf``."""
    if lv.k == 1:
        return _chol(A[0], partial)[None]
    L = _chol(_block_diag(A, lv.blk_w), partial, overwrite=1)
    return L.ravel(order="F")[lv.blk_w]


def _chol_solve(lv, G):
    """``(L_uu, X)`` stacks of a classical step: one ``dpotrf``, one ``dtrtrs``.

    ``L_uu = chol(G_uu)`` and ``X = L_uu^-1 G_ux``.  L has a positive
    diagonal, so ``dtrtrs`` cannot fail.
    """
    k, nu = lv.k, lv.nu
    if k == 1:
        L = _chol(G[0, :nu, :nu], 1)
        X, _ = _trtrs(L, G[0, :nu, nu:], lower=1)
        return L[None], X[None]
    L = _chol(_block_diag(G[:, :nu, :nu], lv.blk_u), 1, overwrite=1)
    # the right-hand sides [G_ux; ...] as the transpose of a C-ordered
    # (nx, k nu) copy, which dtrtrs overwrites with X
    T = G[:, :nu, nu:].transpose(2, 0, 1).copy()
    _trtrs(L, T.reshape(-1, k * nu).T, lower=1, overwrite_b=1)
    return L.ravel(order="F")[lv.blk_u], T.transpose(1, 2, 0)


def _qr_lower(S):
    """``R'`` of the QRs of the (k, m, w) stack S, as :func:`linalg.qr_cholesky`.

    One ``dgeqrf`` per node (a stacked ``numpy.linalg.qr`` costs more at
    these sizes); the rank test (a diagonal entry at or below
    ``max(m, w) eps max|R_ii|``) and the sign normalization (a nonnegative
    diagonal) run once over the stack.
    """
    k, m, w = S.shape
    if not w:
        return np.zeros((k, 0, 0))
    lwork = _qr_lwork(m, w)
    R = np.empty((k, w, w))
    for i in range(k):
        R[i] = _geqrf(S[i], lwork=lwork)[0][:w]
    R = np.where(_upper(w), R, 0.0)
    d = R.diagonal(axis1=1, axis2=2)
    size = np.abs(d)
    tol = max(m, w) * _EPS * size.max(axis=1, keepdims=True)
    if (size <= tol).any():
        raise _LevelFailed(f"diagonal entry {size.min():.3e} at or below "
                           f"{tol.min():.3e}", 0)
    R *= np.copysign(1.0, d)[:, :, None]
    return R.transpose(0, 2, 1)


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


def riccati_solve(fac, qp, r_g, r_b, r_d, r_m):
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
