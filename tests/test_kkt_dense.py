import numpy as np
import pytest

import mpcqp.kkt_dense as kd
from mpcqp import DenseQp, FactorizationFailed, IpmArg, compute_residuals
from mpcqp.errors import SingularSlackBlock
from mpcqp.ipm_core import iterative_refinement
from mpcqp.kkt_common import kkt_apply_vec, kkt_rhs_flat
from mpcqp.view import QpSolution, make_view, solve_full_kkt

from conftest import kkt_apply_blocks, rand_dense_qp, rand_iterate


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


def _numeric_full_matrix(qp, it):
    from mpcqp.view import full_kkt_system

    K, _ = full_kkt_system(qp, it)
    return K


class TestEliminateIneq:
    def test_no_constraints(self, rng):
        qp = rand_dense_qp(rng, nb=0, ng=0, ns=0, ne=0)
        it = rand_iterate(rng, qp)
        aug = kd.eliminate_ineq(qp, it)
        assert np.array_equal(aug.Hv, qp.get_field("H"))

    def test_single_box_row_diagonal_update(self):
        qp = DenseQp(nv=2, nb=1)
        qp.set_field("H", np.eye(2))
        qp.set_field("lb", [-1.0])
        qp.set_field("ub", [1.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = [4.0, 8.0]
        it.t[:] = [1.0, 2.0]   # gammas: lower 4, upper 4
        aug = kd.eliminate_ineq(qp, it)
        assert aug.Hv[0, 0] == pytest.approx(1.0 + 4.0 + 4.0)
        assert aug.Hv[1, 1] == 1.0
        assert aug.Hv[0, 1] == 0.0

    def test_all_rows_masked(self, rng):
        qp = rand_dense_qp(rng, ns=0)
        m = qp.nb + qp.ng
        qp.set_field("maskl", np.zeros(m))
        qp.set_field("masku", np.zeros(m))
        it = rand_iterate(rng, qp)
        aug = kd.eliminate_ineq(qp, it)
        assert np.array_equal(aug.Hv, qp.get_field("H"))

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
        Hred = kd.eliminate_slacks(qp, it)
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
        Hred = kd.eliminate_slacks(qp, it)
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
            kd.eliminate_ineq(qp, it)


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

    def test_absolute_rhs_matches_delta_plus_iterate(self, rng):
        qp = rand_dense_qp(rng, nv=4, ne=1, nb=2, ng=1, ns=1)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = kd.factor(qp, it, IpmArg())
        delta = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        g = vw.grad()
        b = vw.b()
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
