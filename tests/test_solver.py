from dataclasses import replace

import numpy as np
import pytest

from mpcqp import (
    DenseQp,
    OcpQp,
    OcpQpDim,
    Status,
    compute_residuals,
    mode_preset,
    solve_dense_qp,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.view import QpSolution, make_view

from conftest import (
    maxabs,
    ocp_chain_as_tree,
    rand_dense_qp,
    rand_iterate,
    rand_ocp_qp,
    rand_tree_qp,
)

MODES = ("speed_abs", "speed", "balance", "robust")


def box_qp():
    qp = DenseQp(nv=1, nb=1)
    qp.set_field("H", [[1.0]])
    qp.set_field("g", [-10.0])
    qp.set_field("lb", [0.0])
    qp.set_field("ub", [2.0])
    return qp


class TestDense:
    def test_unconstrained_two_vars(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", np.eye(2))
        qp.set_field("g", [1.0, -2.0])
        rep = solve_dense_qp(qp, mode_preset("speed").with_tol(1e-8))
        assert rep.status is Status.Success
        assert rep.iterations <= 2
        assert np.allclose(rep.solution.v, [-1.0, 2.0])

    @pytest.mark.parametrize("mode", MODES)
    def test_active_upper_bound(self, mode):
        rep = solve_dense_qp(box_qp(), mode_preset(mode).with_tol(1e-6))
        assert rep.status is Status.Success
        assert rep.iterations <= 10
        assert abs(rep.solution.v[0] - 2.0) <= 1e-6
        assert abs(rep.solution.lam[1] - 8.0) <= 1e-5
        res = compute_residuals(box_qp(), rep.solution)
        if mode != "speed_abs":
            assert res.max_norm() <= 1e-6

    @pytest.mark.parametrize("mode", MODES)
    def test_infeasible_never_success(self, mode):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("H", [[1.0]])
        qp.set_field("lb", [1.0])
        qp.set_field("ub", [0.0])
        rep = solve_dense_qp(qp, mode_preset(mode).with_tol(1e-6))
        assert rep.status in (Status.MinStep, Status.MaxIter)

    def test_equality_only_single_newton(self):
        qp = DenseQp(nv=3, ne=1)
        qp.set_field("H", np.diag([1.0, 2.0, 3.0]))
        qp.set_field("g", [1.0, 1.0, 1.0])
        qp.set_field("A", [[1.0, 1.0, 1.0]])
        qp.set_field("b", [3.0])
        rep = solve_dense_qp(qp, mode_preset("speed").with_tol(1e-8))
        assert rep.status is Status.Success
        assert rep.iterations <= 2
        assert abs(np.sum(rep.solution.v) - 3.0) <= 1e-10

    def test_failure_status_for_unfactorable(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", np.diag([-1.0, -1.0]))  # caught by solver policy
        qp.set_field("g", [1.0, 1.0])
        rep = solve_dense_qp(qp, mode_preset("speed"))
        assert rep.status is Status.Failure

    def test_success_implies_reevaluated_residuals(self, rng):
        for _ in range(5):
            qp = rand_dense_qp(rng)
            arg = mode_preset("balance").with_tol(1e-7)
            rep = solve_dense_qp(qp, arg)
            assert rep.status is Status.Success
            res = compute_residuals(qp, rep.solution)
            assert res.max_norm() <= 1e-7
            assert res.mu <= 1e-7


class TestOcp:
    def test_scalar_lqr_with_wide_bounds(self):
        qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[2, 1]))
        qp.set_field("Q", 0, [[1.0]])
        qp.set_field("R", 0, [[1.0]])
        qp.set_field("Q", 1, [[1.0]])
        qp.set_field("A", 0, [[1.0]])
        qp.set_field("B", 0, [[1.0]])
        qp.set_field("idxb", 0, [0, 1])
        qp.set_field("lb", 0, [-50.0, 3.0])
        qp.set_field("ub", 0, [50.0, 3.0])
        qp.set_field("idxb", 1, [0])
        qp.set_field("lb", 1, [-50.0])
        qp.set_field("ub", 1, [50.0])
        for mode in MODES:
            rep = solve_ocp_qp(qp, mode_preset(mode).with_tol(1e-8))
            assert rep.status is Status.Success
            assert abs(rep.solution.u(0)[0] + 1.5) <= 1e-8

    def test_mode_agreement(self, rng):
        # non-degenerate instances at a tight tolerance: the solution error
        # scales with the conditioning times the residual tolerance
        for _ in range(4):
            qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=False)
            sols = {}
            for mode in MODES:
                rep = solve_ocp_qp(qp, mode_preset(mode).with_tol(1e-8))
                assert rep.status is Status.Success, mode
                sols[mode] = rep.solution.y.copy()
            for a in ("speed", "balance", "robust"):
                for b in ("speed", "balance", "robust"):
                    assert maxabs(sols[a] - sols[b]) <= 1e-6
            assert maxabs(sols["speed_abs"] - sols["balance"]) <= 1e-5

    def test_warm_start_from_perturbed_solution(self, rng):
        qp = rand_ocp_qp(rng, N=5, nx=3, nu=2, fix_x0=True)
        arg = mode_preset("speed").with_tol(1e-7)
        cold = solve_ocp_qp(qp, arg)
        assert cold.status is Status.Success
        # perturb the linear cost by 1% and re-solve warm vs cold
        qp2 = rand_ocp_qp(rng, N=5, nx=3, nu=2, fix_x0=True)
        for n in range(6):
            for f in ("Q", "R", "S", "A", "B", "b", "idxb", "lb", "ub", "C",
                      "D", "lg", "ug", "idxs", "Zl", "Zu", "zl", "zu",
                      "sl_lb", "su_lb", "maskl", "masku"):
                if f in ("A", "B", "b") and n == 5:
                    continue
                qp2.set_field(f, n, qp.get_field(f, n))
            qp2.set_field("q", n, qp.get_field("q", n) * 1.01)
            qp2.set_field("r", n, qp.get_field("r", n) * 1.01)
        cold2 = solve_ocp_qp(qp2, arg)
        warm2 = solve_ocp_qp(qp2, replace(arg, warm_start="primal_dual"),
                             cold.solution)
        assert warm2.status is Status.Success
        assert warm2.iterations <= cold2.iterations

    def test_determinism_bit_identical(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        arg = mode_preset("balance").with_tol(1e-8)
        r1 = solve_ocp_qp(qp, arg)
        r2 = solve_ocp_qp(qp, arg)
        assert np.array_equal(r1.solution.flat(), r2.solution.flat())
        assert r1.iterations == r2.iterations
        assert r1.stats.flops == r2.stats.flops
        t1 = [(t.mu, t.alpha, t.sigma) for t in r1.stats.trace]
        t2 = [(t.mu, t.alpha, t.sigma) for t in r2.stats.trace]
        assert t1 == t2


class TestTree:
    def test_chain_matches_ocp(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        tqp = ocp_chain_as_tree(qp)
        arg = mode_preset("speed").with_tol(1e-8)
        r1 = solve_ocp_qp(qp, arg)
        r2 = solve_tree_ocp_qp(tqp, arg)
        assert r1.status is Status.Success and r2.status is Status.Success
        assert maxabs(r1.solution.y - r2.solution.y) <= 1e-10

    def test_symmetric_scenarios_identical_branches(self, rng):
        qp = rand_tree_qp(rng, [-1, 0, 0])
        for f in ("Q", "R", "S", "q", "r", "idxb", "lb", "ub", "C", "D",
                  "lg", "ug", "idxs", "Zl", "Zu", "zl", "zu",
                  "sl_lb", "su_lb", "maskl", "masku", "A", "B", "b"):
            qp.set_field(f, 2, qp.get_field(f, 1))
        rep = solve_tree_ocp_qp(qp, mode_preset("balance").with_tol(1e-8))
        assert rep.status is Status.Success
        s = rep.solution
        assert maxabs(s.x(1) - s.x(2)) <= 1e-9
        assert maxabs(s.u(1) - s.u(2)) <= 1e-9

    def test_single_node_equals_dense(self, rng):
        qp = rand_tree_qp(rng, [-1], nx=2, nu=1, nb=2, ng=1, ns=1)
        rep = solve_tree_ocp_qp(qp, mode_preset("speed").with_tol(1e-8))
        dqp = DenseQp(3, 0, 2, 1, 1)
        M = np.zeros((3, 3))
        M[:1, :1] = qp.get_field("R", 0)
        M[:1, 1:] = qp.get_field("S", 0)
        M[1:, :1] = qp.get_field("S", 0).T
        M[1:, 1:] = qp.get_field("Q", 0)
        dqp.set_field("H", M)
        dqp.set_field("g", np.concatenate(
            [qp.get_field("r", 0), qp.get_field("q", 0)]))
        dqp.set_field("C", np.hstack(
            [qp.get_field("D", 0), qp.get_field("C", 0)]))
        for f in ("idxb", "lb", "ub", "lg", "ug", "idxs", "Zl", "Zu",
                  "zl", "zu", "sl_lb", "su_lb", "maskl", "masku"):
            dqp.set_field(f, qp.get_field(f, 0))
        drep = solve_dense_qp(dqp, mode_preset("speed").with_tol(1e-8))
        assert maxabs(rep.solution.y - drep.solution.y) <= 1e-8


class TestFactorPolicy:
    def test_fallback_ladder_order(self, rng):
        from mpcqp.errors import FactorizationFailed
        from mpcqp.solver import _factor_with_policy

        calls = []

        def factor(qp, iterate, arg, use_qr):
            calls.append((use_qr, arg.reg_prim))
            if len(calls) < 3:
                raise FactorizationFailed("nope")
            return "factor"

        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        arg = mode_preset("balance")   # QR fallback enabled, reg 0
        fac, used_qr = _factor_with_policy(factor, qp, it, arg)
        assert fac == "factor"
        # plain Cholesky, then QR, then the regularized retry (floor 1e-8)
        assert calls == [(False, 0.0), (True, 0.0), (True, 1e-8)]
        assert used_qr

    def test_exhausted_ladder_returns_none(self, rng):
        from mpcqp.errors import FactorizationFailed
        from mpcqp.solver import _factor_with_policy

        def factor(qp, iterate, arg, use_qr):
            raise FactorizationFailed("always")

        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        fac, _ = _factor_with_policy(factor, qp, it, mode_preset("speed"))
        assert fac is None


class TestStatsAndTrace:
    def test_iterations_bounded_and_trace_shape(self, rng):
        qp = rand_dense_qp(rng)
        arg = mode_preset("speed").with_tol(1e-8)
        rep = solve_dense_qp(qp, arg)
        assert rep.iterations <= arg.iter_max
        assert len(rep.stats.trace) == rep.iterations
        for rec in rep.stats.trace:
            assert 0.0 <= rec.alpha <= 1.0
            assert rec.mu >= 0.0

    def test_guess_dimension_mismatch(self, rng):
        from mpcqp import DimensionMismatch

        qp = rand_dense_qp(rng)
        other = rand_dense_qp(rng, nv=3, ne=0, nb=1, ng=0, ns=0)
        guess = QpSolution(make_view(other))
        with pytest.raises(DimensionMismatch):
            solve_dense_qp(qp, replace(mode_preset("speed"),
                                       warm_start="primal"), guess)
