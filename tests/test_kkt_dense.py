from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import mpcqp.kkt_dense as kd
from mpcqp import (
    DenseQp,
    FactorizationFailed,
    IpmArg,
    Status,
    compute_residuals,
    flop_counter,
    mode_preset,
    solve_dense_qp,
)
from mpcqp.errors import SingularSlackBlock
from mpcqp.ipm_core import iterative_refinement
from mpcqp.kkt_common import (
    kkt_apply_vec,
    kkt_rhs_flat,
    reduced_hessian,
    row_coef,
    view_scales,
)
from mpcqp.view import QpSolution, make_view, solve_full_kkt

from conftest import kkt_apply_blocks, rand_dense_qp, rand_iterate


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


def _reduced_hessian(qp, it):
    """Dense Hessian after eliminating t, lam and the soft slacks at the
    iterate ``it``."""
    vw = make_view(qp)
    sc = view_scales(vw, it.lam, it.t)
    return reduced_hessian(vw, sc).reshape(vw.nv, vw.nv)


def _numeric_full_matrix(qp, it):
    from mpcqp.view import full_kkt_system

    K, _ = full_kkt_system(qp, it)
    return K


class TestEliminateIneq:
    def test_no_constraints(self, rng):
        qp = rand_dense_qp(rng, nb=0, ng=0, ns=0, ne=0)
        it = rand_iterate(rng, qp)
        Hv = _reduced_hessian(qp, it)
        assert np.array_equal(Hv, qp.get_field("H"))

    def test_single_box_row_diagonal_update(self):
        qp = DenseQp(nv=2, nb=1)
        qp.set_field("H", np.eye(2))
        qp.set_field("lb", [-1.0])
        qp.set_field("ub", [1.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = [4.0, 8.0]
        it.t[:] = [1.0, 2.0]   # gammas: lower 4, upper 4
        Hv = _reduced_hessian(qp, it)
        assert Hv[0, 0] == pytest.approx(1.0 + 4.0 + 4.0)
        assert Hv[1, 1] == 1.0
        assert Hv[0, 1] == 0.0

    def test_all_rows_masked(self, rng):
        qp = rand_dense_qp(rng, ns=0)
        m = qp.nb + qp.ng
        qp.set_field("maskl", np.zeros(m))
        qp.set_field("masku", np.zeros(m))
        it = rand_iterate(rng, qp)
        Hv = _reduced_hessian(qp, it)
        assert np.array_equal(Hv, qp.get_field("H"))

    def test_matches_numeric_block_elimination(self, rng):
        # eliminate dt, dlam, then the soft slacks from the assembled full
        # matrix numerically; compare against the structured reduction
        qp = rand_dense_qp(rng, nv=5, ne=0, nb=3, ng=2, ns=2)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        K = _numeric_full_matrix(qp, it)
        ny, nc = vw.ny, vw.nc
        # keep (y); eliminate (dlam, dt) jointly, then the slack columns
        keep = np.arange(ny)
        drop = np.arange(ny, ny + 2 * nc)
        Kkk = K[np.ix_(keep, keep)]
        Kkd = K[np.ix_(keep, drop)]
        Kdk = K[np.ix_(drop, keep)]
        Kdd = K[np.ix_(drop, drop)]
        Hfull = Kkk - Kkd @ np.linalg.solve(Kdd, Kdk)
        nv = vw.nv
        Hvv = Hfull[:nv, :nv]
        Hvs = Hfull[:nv, nv:]
        Hss = Hfull[nv:, nv:]
        Hred_num = Hvv - Hvs @ np.linalg.solve(Hss, Hvs.T)
        Hred = _reduced_hessian(qp, it)
        scale = np.max(np.abs(Hred_num))
        assert np.max(np.abs(Hred - Hred_num)) <= 1e-12 * scale

    def test_soft_row_series_combination(self):
        # one soft box row: reduced diagonal adds the series combination of
        # the constraint scaling and the slack stiffness
        qp = DenseQp(nv=1, nb=1, ns=1)
        qp.set_field("H", [[1.0]])
        qp.set_field("lb", [-1.0])
        qp.set_field("ub", [np.inf])
        qp.set_field("Zl", [3.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = np.where(vw.act, 2.0, 0.0)
        it.t[:] = np.where(vw.act, 1.0, 0.0)
        # gamma_lo = 2, slack-bound gamma = 2, D_l = 3 + 2 + 2 = 7
        # effective = gamma * (Zl + g_bnd) / D = 2 * 5 / 7
        Hred = _reduced_hessian(qp, it)
        assert Hred[0, 0] == pytest.approx(1.0 + 2.0 * 5.0 / 7.0)
        series = 1.0 / (1.0 / 2.0 + 1.0 / (3.0 + 2.0))
        assert Hred[0, 0] == pytest.approx(1.0 + series)

    def test_singular_slack_block(self):
        qp = DenseQp(nv=1, nb=1, ns=1)
        qp.set_field("H", [[1.0]])
        qp.set_field("lb", [-1.0])
        qp.set_field("ub", [1.0])
        qp.set_field("maskl", [0.0])          # soft row's lower side off,
        qp.set_field("sl_lb", [-np.inf])      # no slack bound, Zl = 0:
        vw = make_view(qp)                    # lower-slack diagonal is 0
        it = QpSolution(vw)
        it.lam[:] = np.where(vw.act, 1.0, 0.0)
        it.t[:] = np.where(vw.act, 1.0, 0.0)
        with pytest.raises(SingularSlackBlock):
            _reduced_hessian(qp, it)


class TestFactorSolve:
    def test_identity_unconstrained(self, rng):
        qp = DenseQp(nv=3)
        qp.set_field("H", np.eye(3))
        it = QpSolution(make_view(qp))
        fac = kd.factor(qp, it, IpmArg())
        step = fac.solve(np.ones(3), np.zeros(0), np.zeros(0), np.zeros(0))
        assert np.allclose(step.y, -np.ones(3))

    def test_zero_hessian_fails(self):
        qp = DenseQp(nv=2)
        it = QpSolution(make_view(qp))
        with pytest.raises(FactorizationFailed):
            kd.factor(qp, it, IpmArg(reg_prim=0.0))

    def test_zero_rhs_zero_step(self, rng):
        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        fac = kd.factor(qp, it, IpmArg())
        step = fac.solve(np.zeros(vw.ny), np.zeros(vw.ne),
                         np.zeros(vw.nc), np.zeros(vw.nc))
        assert np.max(np.abs(step.flat())) == 0.0

    @pytest.mark.parametrize("method,use_qr", [
        ("schur", False), ("schur", True), ("null_space", False),
        ("null_space", True),
    ])
    def test_matches_oracle(self, rng, method, use_qr):
        for trial in range(8):
            qp = rand_dense_qp(rng, nv=6, ne=2, nb=3, ng=2, ns=2)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
            fac = kd.factor(qp, it, IpmArg(kkt_method=method), use_qr=use_qr)
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            err = np.max(np.abs(step.flat() - ref.flat()))
            assert err <= 1e-9 * (1.0 + np.max(np.abs(ref.flat())))

    def test_schur_vs_null_space(self, rng):
        qp = rand_dense_qp(rng, nv=8, ne=3, nb=4, ng=2, ns=2)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        s1 = kd.factor(qp, it, IpmArg(kkt_method="schur")).solve(
            res.r_g, res.r_b, res.r_d, rm)
        s2 = kd.factor(qp, it, IpmArg(kkt_method="null_space")).solve(
            res.r_g, res.r_b, res.r_d, rm)
        assert np.max(np.abs(s1.flat() - s2.flat())) <= 1e-8 * (
            1.0 + np.max(np.abs(s1.flat())))

    @pytest.mark.parametrize("mode", ["speed", "balance", "robust"])
    def test_null_space_needs_convexity_on_null_a_only(self, mode):
        # H is indefinite but positive definite on null(A) = span(e_1): the
        # null-space method factors only Z' Hred Z, the Schur one Hred
        qp = DenseQp(2, ne=1)
        qp.set_field("H", np.diag([1.0, -1.0]))
        qp.set_field("g", [1.0, 0.5])
        qp.set_field("A", [[0.0, 1.0]])
        qp.set_field("b", [0.3])
        arg = mode_preset(mode)
        rep = solve_dense_qp(qp, replace(arg, kkt_method="null_space"))
        assert rep.status is Status.Success
        assert np.max(np.abs(rep.solution.v - [-1.0, 0.3])) <= 1e-8
        rep = solve_dense_qp(qp, replace(arg, kkt_method="schur"))
        assert rep.status is Status.Failure

    def test_absolute_rhs_matches_delta_plus_iterate(self, rng):
        qp = rand_dense_qp(rng, nv=4, ne=1, nb=2, ng=1, ns=1)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = kd.factor(qp, it, IpmArg())
        delta = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        g = vw.g
        b = vw.b
        d = vw.d
        rm_abs = rm - 2.0 * np.where(vw.act, it.lam * it.t, 0.0)
        absolute = fac.solve(g, b, d, rm_abs)
        expect = it.flat() + delta.flat()
        assert np.max(np.abs(absolute.flat() - expect)) <= 1e-12 * (
            1.0 + np.max(np.abs(expect)))


class TestKktApply:
    def test_zero(self, rng):
        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        out = kkt_apply_blocks(qp, it, QpSolution(make_view(qp)))
        assert all(np.max(np.abs(blk)) == 0.0 for blk in out if blk.size)

    def test_solve_apply_consistency(self, rng):
        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = kd.factor(qp, it, IpmArg())
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        ag, ab, ad, am = kkt_apply_blocks(qp, it, step)
        rd = np.where(vw.act, res.r_d, 0.0)
        worst = max(
            np.max(np.abs(ag + res.r_g)),
            np.max(np.abs(ab + res.r_b)) if ab.size else 0.0,
            np.max(np.abs(ad + rd)),
            np.max(np.abs(am + rm)),
        )
        assert worst <= 1e-10 * (1.0 + np.max(np.abs(step.flat())))

    def test_identity_hessian_basis_vector(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", np.eye(2))
        vw = make_view(qp)
        step = QpSolution(vw)
        step.v[:] = [1.0, 0.0]
        ag, _, _, _ = kkt_apply_blocks(qp, QpSolution(vw), step)
        assert np.allclose(ag, [1.0, 0.0])


class TestRegularizationAndRefinement:
    def test_refinement_reduces_regularized_error(self, rng):
        for _ in range(5):
            qp = rand_dense_qp(rng, nv=6, ne=2, nb=3, ng=1, ns=1)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            fac = kd.factor(qp, it, IpmArg(reg_prim=1e-6))
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            lam_m = np.where(vw.act, it.lam, 0.0)
            t_m = np.where(vw.act, it.t, 0.0)
            rhs = kkt_rhs_flat(vw, res.r_g, res.r_b, res.r_d, rm)
            apply = lambda x: kkt_apply_vec(vw, lam_m, t_m, x)
            n0 = np.max(np.abs(apply(step.flat()) + rhs))
            refined, n1, _ = iterative_refinement(
                fac.solve_flat, apply, rhs, step.flat(), 1, 0.0
            )
            assert n1 < n0
            ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
            e0 = np.max(np.abs(step.flat() - ref.flat()))
            e1 = np.max(np.abs(refined - ref.flat()))
            assert e1 < e0

    def test_retry_policy_reaches_failure_status(self, rng):
        # a Hessian that no reasonable regularization rescues reports
        # FactorizationFailed from the backend; the solver maps it to a
        # Failure status (tested at solver level); here the raw raise
        qp = DenseQp(nv=2)
        qp.set_field("H", np.diag([-1.0, -1.0]))
        it = QpSolution(make_view(qp))
        with pytest.raises(FactorizationFailed):
            kd.factor(qp, it, IpmArg())


@st.composite
def dense_qps(draw):
    """Dense QPs with box, general and soft rows, masked sides, infinite
    bounds and rows whose coefficient is zero (both sides off), with an
    exactly symmetric Hessian and an iterate."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nv = draw(st.integers(1, 7))
    nb = draw(st.integers(0, nv))
    ng = draw(st.integers(0, 4))
    ns = draw(st.integers(0, nb + ng))
    qp = rand_dense_qp(rng, nv=nv, ne=draw(st.integers(0, 2)), nb=nb, ng=ng,
                       ns=ns, mask_first=False)
    H = qp.get_field("H")
    qp.set_field("H", 0.5 * (H + H.T))
    m = nb + ng
    if m:
        for name in ("maskl", "masku"):
            qp.set_field(name, (rng.uniform(size=m) < 0.8).astype(float))
        for lo, up, k in (("lb", "ub", nb), ("lg", "ug", ng)):
            for name, inf in ((lo, -np.inf), (up, np.inf)):
                if k:
                    v = qp.get_field(name)
                    qp.set_field(name, np.where(rng.uniform(size=k) < 0.2, inf, v))
    return qp, rand_iterate(rng, qp), draw(st.sampled_from([0.0, 1e-6]))


def _coefficients(qp, it):
    vw = make_view(qp)
    sc = view_scales(vw, it.lam, it.t)
    return vw, sc, row_coef(vw, sc)


class TestDenseKernelProperties:
    @given(dense_qps())
    def test_qr_route_factors_the_reduced_hessian(self, case):
        qp, it, reg = case
        vw, _, coef = _coefficients(qp, it)
        J = vw.row_matrix()
        want = (qp.get_field("H") + reg * np.eye(vw.nv)
                + J.T @ (coef[:, None] * J))
        L = kd.factor(qp, it, IpmArg(reg_prim=reg), use_qr=True)._Lred
        assert np.max(np.abs(L @ L.T - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(np.diag(L) >= 0.0)

    @given(dense_qps())
    def test_reduced_hessian_exactly_symmetric(self, case):
        qp, it, reg = case
        vw, sc, _ = _coefficients(qp, it)
        Hred = reduced_hessian(vw, sc, reg).reshape(vw.nv, vw.nv)
        assert np.array_equal(Hred, Hred.T)

    @given(dense_qps(), st.data())
    def test_rank_deficient_stack_fails(self, case, data):
        # column j gets curvature 1e-40 and no constraint row touches it:
        # chol(H) exists, the QR of the stack is rank deficient (the rank
        # test is relative to the largest pivot, so another column is needed)
        qp = case[0]
        vw = make_view(qp)
        assume(vw.nv > 1)
        j = data.draw(st.integers(0, vw.nv - 1))
        H = qp.get_field("H")
        H[j, :] = H[:, j] = 0.0
        H[j, j] = 1e-40
        qp.set_field("H", H)
        if qp.ng:
            C = qp.get_field("C")
            C[:, j] = 0.0
            qp.set_field("C", C)
        if qp.nb:
            on = (qp.get_field("idxb") != j).astype(float)
            for name in ("maskl", "masku"):
                qp.set_field(name, np.concatenate(
                    [qp.get_field(name)[: qp.nb] * on, qp.get_field(name)[qp.nb:]]))
        it = rand_iterate(np.random.default_rng(j), qp)
        with pytest.raises(FactorizationFailed, match="at or below"):
            kd.factor(qp, it, IpmArg(reg_prim=0.0), use_qr=True)


def _chol(n):
    return n ** 3 // 3


def _qr(m, n):
    return 2 * m * n * n - (2 * n ** 3) // 3


class TestDenseFlops:
    """The counted flops of a factorization are its kernels' textbook counts."""

    @staticmethod
    def _case(rng):
        qp = rand_dense_qp(rng, nv=7, ne=2, nb=3, ng=4, ns=2)
        maskl, masku = qp.get_field("maskl"), qp.get_field("masku")
        maskl[[0, 5]] = masku[[0, 5]] = 0.0   # box row 0, general row 2 off
        masku[4] = 0.0                        # general row 1: lower side only
        qp.set_field("maskl", maskl)
        qp.set_field("masku", masku)
        return qp, rand_iterate(rng, qp)

    def _count(self, qp, it, **kw):
        with flop_counter() as fc:
            kd.factor(qp, it, **kw)
        return fc.flops

    def test_cholesky_route(self, rng):
        qp, it = self._case(rng)
        nv, ne, ng = qp.nv, qp.ne, qp.ng
        # the Gram kernel over all general rows, chol(Hred), W = L^-1 A',
        # W'W by the Gram kernel and its Cholesky
        want = (ng * nv * (nv + 1) + _chol(nv) + nv * nv * ne
                + nv * ne * (ne + 1) + _chol(ne))
        for _ in range(2):
            assert self._count(qp, it, arg=IpmArg(reg_prim=1e-6)) == want

    def test_qr_route_counts_chol_h_once_per_view_and_reg(self, rng):
        qp, it = self._case(rng)
        _, _, coef = _coefficients(qp, it)
        nv, ne, nb = qp.nv, qp.ne, qp.nb
        p = np.count_nonzero(coef[nb:] > 0.0)
        assert p == 3
        # the triangular-pentagonal QR, W = L^-1 A' and the QR of W
        rest = (2 * p * nv * nv + (2 * nv ** 3) // 3 + nv * nv * ne
                + _qr(nv, ne))
        kw = dict(arg=IpmArg(reg_prim=1e-6), use_qr=True)
        assert self._count(qp, it, **kw) == _chol(nv) + rest
        assert self._count(qp, it, **kw) == rest
        # a bound write keeps the view's constants, chol(H + reg I) included
        qp.set_field("lb", qp.get_field("lb") - 0.1)
        assert self._count(qp, it, **kw) == rest
        kw_reg = dict(arg=IpmArg(reg_prim=2e-6), use_qr=True)
        assert self._count(qp, it, **kw_reg) == _chol(nv) + rest
        assert self._count(qp, it, **kw_reg) == rest
        # any other write builds a new view
        qp.set_field("g", qp.get_field("g") + 0.1)
        assert self._count(qp, it, **kw) == _chol(nv) + rest

    def test_failed_chol_h_is_kept_too(self):
        qp = DenseQp(nv=3)
        qp.set_field("H", np.diag([1.0, -1.0, 1.0]))
        it = QpSolution(make_view(qp))
        for want in (_chol(3), 0):
            with flop_counter() as fc, pytest.raises(FactorizationFailed):
                kd.factor(qp, it, IpmArg(reg_prim=0.0), use_qr=True)
            assert fc.flops == want

    def test_null_space_route(self, rng):
        qp, it = self._case(rng)
        nv, ne, ng = qp.nv, qp.ne, qp.ng
        nz = nv - ne
        # Hred as on the Cholesky route but not factored, the full QR of
        # A', Z'(Hred Z) and its Cholesky
        want = (ng * nv * (nv + 1) + _qr(nv, ne)
                + 4 * nv * nv * ne - 4 * nv * ne * ne + (4 * ne ** 3) // 3
                + 2 * nz * nz * nv + _chol(nz))
        arg = IpmArg(kkt_method="null_space", reg_prim=1e-6)
        assert self._count(qp, it, arg=arg) == want

    def test_null_space_with_more_rows_than_variables_fails(self, rng):
        qp = rand_dense_qp(rng, nv=2, ne=3, nb=1, ng=1, ns=0)
        it = rand_iterate(rng, qp)
        with pytest.raises(FactorizationFailed, match="more equality"):
            kd.factor(qp, it, IpmArg(kkt_method="null_space"))
