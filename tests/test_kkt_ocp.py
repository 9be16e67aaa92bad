import numpy as np
import pytest

import mpcqp.kkt_ocp as ko
from mpcqp import (
    DenseQp,
    FactorizationFailed,
    IpmArg,
    OcpQp,
    OcpQpDim,
    compute_residuals,
    flop_counter,
)
from mpcqp.view import QpSolution, make_view, solve_full_kkt

from conftest import kkt_apply_blocks, rand_iterate, rand_ocp_qp


def scalar_lqr():
    qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0]))
    qp.set_field("Q", 0, [[1.0]])
    qp.set_field("R", 0, [[1.0]])
    qp.set_field("Q", 1, [[1.0]])
    qp.set_field("A", 0, [[1.0]])
    qp.set_field("B", 0, [[1.0]])
    return qp


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


class TestFactor:
    @pytest.mark.parametrize("variant", ["classical", "square_root"])
    def test_scalar_lqr_values(self, variant):
        qp = scalar_lqr()
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)), variant=variant)
        assert abs(fac.p_matrix(1)[0, 0] - 1.0) <= 1e-12
        assert abs(fac.K[0][0, 0] - (-0.5)) <= 1e-12
        assert abs(fac.p_matrix(0)[0, 0] - 1.5) <= 1e-12

    def test_decoupled_stages(self):
        qp = OcpQp(OcpQpDim(3, nx=[2] * 4, nu=[1] * 3 + [0]))
        for n in range(4):
            qp.set_field("Q", n, np.eye(2))
            if n < 3:
                qp.set_field("R", n, np.eye(1))
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        for n in range(4):
            assert np.allclose(fac.p_matrix(n), np.eye(2))
            assert np.allclose(fac.K[n], 0.0)

    def test_indefinite_square_root_fails_with_stage(self):
        qp = scalar_lqr()
        qp.set_field("R", 0, [[-1.0]])
        with pytest.raises(FactorizationFailed) as ei:
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              variant="square_root")
        assert ei.value.stage == 0

    def test_classical_tolerates_indefinite_full_space(self):
        # indefinite stage Hessian at stage 0, compensated by the successor
        # cost-to-go: the classical recursion (and the plain square-root,
        # which factors the successor-augmented block) go through, while the
        # QR array path needs the raw stage Hessian factored and fails
        qp = scalar_lqr()
        qp.set_field("Q", 0, [[-0.2]])
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)),
                                variant="classical")
        assert fac.p_matrix(0)[0, 0] == pytest.approx(-0.2 + 1.0 - 0.5)
        with pytest.raises(FactorizationFailed):
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              variant="square_root", use_qr=True,
                              stage_qr_fallback=False)

    def test_positive_semidefinite_cost_to_go(self, rng):
        qp = rand_ocp_qp(rng, N=6, nx=4, nu=2)
        it = rand_iterate(rng, qp)
        fac = ko.riccati_factor(qp, it)
        for n in range(7):
            w = np.linalg.eigvalsh(fac.p_matrix(n))
            assert np.min(w) >= -1e-10 * max(1.0, np.max(np.abs(w)))


class TestSolve:
    def test_zero_rhs(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(np.zeros(vw.ny), np.zeros(vw.ne),
                         np.zeros(vw.nc), np.zeros(vw.nc))
        assert np.max(np.abs(step.flat())) == 0.0

    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    def test_matches_dense_oracle(self, rng, variant, use_qr):
        for _ in range(6):
            qp = rand_ocp_qp(rng, N=5, nx=4, nu=2)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
            fac = ko.riccati_factor(qp, it, variant=variant, use_qr=use_qr)
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            err = np.max(np.abs(step.flat() - ref.flat()))
            assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))

    def test_variants_agree(self, rng):
        qp = rand_ocp_qp(rng, N=6, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        s1 = ko.riccati_factor(qp, it, variant="classical").solve(
            res.r_g, res.r_b, res.r_d, rm)
        s2 = ko.riccati_factor(qp, it, variant="square_root").solve(
            res.r_g, res.r_b, res.r_d, rm)
        assert np.max(np.abs(s1.flat() - s2.flat())) <= 1e-8 * (
            1.0 + np.max(np.abs(s1.flat())))

    def test_fixed_x0_lqr_ratio(self):
        qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[1, 0]))
        qp.set_field("Q", 0, [[1.0]])
        qp.set_field("R", 0, [[1.0]])
        qp.set_field("Q", 1, [[1.0]])
        qp.set_field("A", 0, [[1.0]])
        qp.set_field("B", 0, [[1.0]])
        qp.set_field("idxb", 0, [1])
        qp.set_field("lb", 0, [3.0])
        qp.set_field("ub", 0, [3.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = np.where(vw.act, 1e-3, 0.0)   # loose-constraint iterate
        it.t[:] = np.where(vw.act, 1e3, 0.0)
        res = compute_residuals(qp, it)
        rm = np.where(vw.act, it.lam * it.t, 0.0)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        du = step.y[0]
        dx0 = step.y[1]
        assert abs(du / dx0 - (-0.5)) <= 1e-6


class TestGains:
    def test_scalar_gain(self):
        qp = scalar_lqr()
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        K = ko.feedback_gains(fac)
        assert len(K) == 1
        assert abs(K[0][0, 0] + 0.5) <= 1e-12

    def test_gain_zero_without_coupling(self):
        qp = OcpQp(OcpQpDim(2, nx=[2] * 3, nu=[1, 1, 0]))
        for n in range(3):
            qp.set_field("Q", n, np.eye(2))
            if n < 2:
                qp.set_field("R", n, np.eye(1))
                qp.set_field("B", n, np.ones((2, 1)))
                # A = 0 and S = 0: K reduces to zero
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        for K in ko.feedback_gains(fac):
            assert np.allclose(K, 0.0)

    def test_long_horizon_stationary_gain(self):
        # time-invariant system: K[0] approaches the fixed point of the
        # Riccati map computed by plain iteration (independent oracle)
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        B = np.array([[0.0], [0.1]])
        Q = np.eye(2)
        R = np.eye(1)
        N = 100
        qp = OcpQp(OcpQpDim(N, nx=[2] * (N + 1), nu=[1] * N + [0]))
        for n in range(N + 1):
            qp.set_field("Q", n, Q)
            if n < N:
                qp.set_field("R", n, R)
                qp.set_field("A", n, A)
                qp.set_field("B", n, B)
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        P = Q.copy()
        for _ in range(2000):
            Guu = R + B.T @ P @ B
            Gux = B.T @ P @ A
            K = -np.linalg.solve(Guu, Gux)
            P = Q + A.T @ P @ A + Gux.T @ K
            P = 0.5 * (P + P.T)
        assert np.max(np.abs(ko.feedback_gains(fac)[0] - K)) <= 1e-6


class TestApplyAndFlops:
    def test_apply_zero(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=1)
        it = rand_iterate(rng, qp)
        out = kkt_apply_blocks(qp, it, QpSolution(make_view(qp)))
        assert all(np.max(np.abs(b)) == 0.0 for b in out if b.size)

    def test_solve_apply_consistency(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        ag, ab, ad, am = kkt_apply_blocks(qp, it, step)
        rd = np.where(vw.act, res.r_d, 0.0)
        worst = max(np.max(np.abs(ag + res.r_g)), np.max(np.abs(ab + res.r_b)),
                    np.max(np.abs(ad + rd)), np.max(np.abs(am + rm)))
        assert worst <= 1e-9 * (1.0 + np.max(np.abs(step.flat())))

    def test_single_stage_matches_dense_backend(self, rng):
        # an N = 0 problem is exactly a dense QP on (u, x)
        import mpcqp.kkt_dense as kd

        qp = OcpQp(OcpQpDim(0, nx=[3], nu=[2], nb=[3], ng=[1], ns=[1]))
        G = rng.standard_normal((5, 5))
        M0 = G @ G.T + np.eye(5)
        qp.set_field("R", 0, M0[:2, :2])
        qp.set_field("S", 0, M0[:2, 2:])
        qp.set_field("Q", 0, M0[2:, 2:])
        qp.set_field("r", 0, rng.standard_normal(2))
        qp.set_field("q", 0, rng.standard_normal(3))
        qp.set_field("idxb", 0, [0, 2, 4])
        qp.set_field("lb", 0, [-1.0, -1.0, -1.0])
        qp.set_field("ub", 0, [1.0, 1.0, 1.0])
        qp.set_field("C", 0, rng.standard_normal((1, 3)))
        qp.set_field("D", 0, rng.standard_normal((1, 2)))
        qp.set_field("lg", 0, [-2.0])
        qp.set_field("ug", 0, [2.0])
        qp.set_field("idxs", 0, [1])
        qp.set_field("Zl", 0, [1.0])
        qp.set_field("Zu", 0, [2.0])
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        step = ko.riccati_factor(qp, it).solve(res.r_g, res.r_b, res.r_d, rm)

        dqp = DenseQp(5, 0, qp.dim.nb[0], qp.dim.ng[0], qp.dim.ns[0])
        M = np.zeros((5, 5))
        M[:2, :2] = qp.get_field("R", 0)
        M[:2, 2:] = qp.get_field("S", 0)
        M[2:, :2] = qp.get_field("S", 0).T
        M[2:, 2:] = qp.get_field("Q", 0)
        dqp.set_field("H", M)
        dqp.set_field("g", np.concatenate(
            [qp.get_field("r", 0), qp.get_field("q", 0)]))
        for name in ("idxb", "lb", "ub", "lg", "ug", "idxs",
                     "Zl", "Zu", "zl", "zu", "sl_lb", "su_lb",
                     "maskl", "masku"):
            dqp.set_field(name, qp.get_field(name, 0))
        dqp.set_field("C", np.hstack(
            [qp.get_field("D", 0), qp.get_field("C", 0)]))
        dit = QpSolution(make_view(dqp), it.y.copy(), it.pi.copy(),
                         it.lam.copy(), it.t.copy())
        dres = compute_residuals(dqp, dit)
        dstep = kd.factor(dqp, dit, IpmArg()).solve(
            dres.r_g, dres.r_b, dres.r_d, rm)
        # both flats are [y, (empty pi), lam, t] with identical layouts
        assert np.max(np.abs(step.flat() - dstep.flat())) <= 1e-10 * (
            1.0 + np.max(np.abs(step.flat())))

    def test_factor_flops_linear_in_horizon(self, rng):
        def count(N):
            qp = rand_ocp_qp(rng, N=N, nx=4, nu=2)
            it = rand_iterate(rng, qp)
            with flop_counter() as fc:
                ko.riccati_factor(qp, it)
            return fc.flops

        c8, c16, c32 = count(8), count(16), count(32)
        assert 1.9 <= c16 / c8 <= 2.1
        assert 1.9 <= c32 / c16 <= 2.1
