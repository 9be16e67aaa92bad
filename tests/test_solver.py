from dataclasses import replace

import numpy as np
import pytest

from mpcqp import (
    DenseQp,
    InvalidConfig,
    MassSpringConfig,
    OcpQp,
    OcpQpDim,
    Status,
    compute_residuals,
    gen_mass_spring,
    mode_preset,
    partial_condense,
    solve_dense_qp,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.solver import solve_path
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


class TestNoInequalityRows:
    """With no active row the duality measure is 0 from the start; every
    mode must still take a step before it reports Success."""

    @staticmethod
    def _check(qp, rep, arg):
        assert rep.status is Status.Success
        assert rep.iterations >= 1
        res = compute_residuals(qp, rep.solution)
        assert res.res_g <= arg.tol_stat
        assert res.res_b <= arg.tol_eq
        assert res.res_d <= arg.tol_ineq
        assert res.res_m <= arg.tol_comp

    @pytest.mark.parametrize("mode", MODES)
    def test_dense_equality_only(self, mode):
        qp = DenseQp(nv=2, ne=1)
        qp.set_field("H", np.eye(2))
        qp.set_field("g", [1.0, 1.0])
        qp.set_field("A", [[1.0, -1.0]])
        qp.set_field("b", [0.5])
        arg = mode_preset(mode).with_tol(1e-8)
        rep = solve_dense_qp(qp, arg)
        self._check(qp, rep, arg)
        assert np.allclose(rep.solution.v, [-0.75, -1.25])

    @pytest.mark.parametrize("mode", MODES)
    def test_ocp_without_rows(self, rng, mode):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, nb=0, ng=0, ns=0)
        assert sum(qp.dim.nb) == sum(qp.dim.ng) == 0
        arg = mode_preset(mode).with_tol(1e-8)
        self._check(qp, solve_ocp_qp(qp, arg), arg)


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

    @pytest.mark.parametrize("path", ["ocp", "condense", "partial:4"])
    @pytest.mark.parametrize("mode", MODES)
    def test_determinism_bit_identical(self, rng, mode, path):
        qp = rand_ocp_qp(rng, N=8, nx=3, nu=2)
        arg = mode_preset(mode).with_tol(1e-8)
        r1, s1 = solve_path(qp, path, arg)
        r2, s2 = solve_path(qp, path, arg)
        assert np.array_equal(s1.flat(), s2.flat())
        assert r1.status is r2.status
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
    @staticmethod
    def _walk(rng, arg, succeed_at=None):
        """Walk the ladder; the fake factor succeeds only on call ``succeed_at``."""
        from mpcqp.errors import FactorizationFailed
        from mpcqp.solver import _factorize

        calls = []

        def factor(qp, iterate, arg, use_qr):
            calls.append((use_qr, arg.reg_prim))
            if len(calls) != succeed_at:
                raise FactorizationFailed("nope")
            return "factor"

        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        return _factorize(factor, qp, it, arg), calls

    def test_fallback_ladder_order(self, rng):
        arg = mode_preset("balance")   # chol_qr policy, reg 0
        (fac, route), calls = self._walk(rng, arg, succeed_at=3)
        assert fac == "factor"
        # plain Cholesky, then QR, then the regularized retry (floor 1e-8)
        assert calls == [(False, 0.0), (True, 0.0), (True, 1e-8)]
        assert route == "qr+reg"

    @pytest.mark.parametrize("mode,order", [
        ("speed", [("chol", False, 0.0), ("chol+reg", False, 1e-8)]),
        ("balance", [("chol", False, 0.0), ("qr", True, 0.0),
                     ("qr+reg", True, 1e-8)]),
        ("robust", [("qr", True, 0.0), ("chol", False, 0.0),
                    ("chol+reg", False, 1e-8)]),
    ])
    def test_each_policy_route_order(self, rng, mode, order):
        arg = mode_preset(mode)
        attempts = [(use_qr, reg) for _, use_qr, reg in order]
        for k, (route, _, _) in enumerate(order, start=1):
            (fac, got), calls = self._walk(rng, arg, succeed_at=k)
            assert (fac, got) == ("factor", route)
            assert calls == attempts[:k]
        assert self._walk(rng, arg) == ((None, None), attempts)

    def test_regularized_rung_doubles_reg_prim(self, rng):
        arg = replace(mode_preset("speed"), reg_prim=1e-6)
        (_, route), calls = self._walk(rng, arg, succeed_at=2)
        assert route == "chol+reg"
        assert calls == [(False, 1e-6), (False, 2e-6)]

    def test_exhausted_ladder_returns_none(self, rng):
        (fac, route), _ = self._walk(rng, mode_preset("speed"))
        assert fac is None and route is None


def indefinite_dense_qp(rescued):
    """Dense QP with an indefinite Hessian.

    With ``rescued`` the negative-curvature variable has a box whose barrier
    terms keep the reduced Hessian positive definite at every iterate;
    without it no route can factor the reduced system.
    """
    qp = DenseQp(nv=3, ne=1, nb=2 if rescued else 1)
    qp.set_field("H", [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, -0.5]])
    qp.set_field("g", [0.3, -0.2, -1.0])
    qp.set_field("A", [[1.0, 1.0, 0.0]])
    qp.set_field("b", [0.5])
    qp.set_field("idxb", [0, 2] if rescued else [0])
    qp.set_field("lb", [-2.0, -1.0] if rescued else [-2.0])
    qp.set_field("ub", [2.0, 1.0] if rescued else [2.0])
    return qp


def spy_factor(monkeypatch, module, name, fail_chol=False):
    """Record the ``use_qr`` of every call to ``module.name``.

    With ``fail_chol`` the Cholesky route raises instead of factoring.
    """
    from mpcqp.errors import FactorizationFailed

    real = getattr(module, name)
    calls = []

    def factor(qp, iterate, arg=None, use_qr=False):
        calls.append(use_qr)
        if fail_chol and not use_qr:
            raise FactorizationFailed("Cholesky route disabled")
        return real(qp, iterate, arg=arg, use_qr=use_qr)

    monkeypatch.setattr(module, name, factor)
    return calls


class TestRouteLadder:
    """Every rung of the factorization ladder on real QPs, seen in the trace."""

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_qr_fallback_when_cholesky_fails(self, rng, monkeypatch, kind):
        from mpcqp import kkt_ocp

        if kind == "ocp":
            qp, solve = rand_ocp_qp(rng, N=4, nx=3, nu=2), solve_ocp_qp
        else:
            qp, solve = rand_tree_qp(rng, [-1, 0, 0, 1, 2]), solve_tree_ocp_qp
        ref = solve(qp, mode_preset("balance").with_tol(1e-8))
        calls = spy_factor(monkeypatch, kkt_ocp, "riccati_factor",
                           fail_chol=True)
        rep = solve(qp, mode_preset("balance").with_tol(1e-8))
        assert rep.status is Status.Success
        assert [r.route for r in rep.stats.trace] == ["qr"] * rep.iterations
        assert calls == [False, True] * rep.iterations
        assert maxabs(rep.solution.y - ref.solution.y) <= 1e-6

    def test_balance_keeps_cholesky_when_refinement_meets_target(self, rng):
        rep = solve_dense_qp(rand_dense_qp(rng),
                             mode_preset("balance").with_tol(1e-8))
        assert rep.status is Status.Success
        assert {r.route for r in rep.stats.trace} == {"chol"}

    def test_robust_solves_indefinite_hessian_through_cholesky(self, monkeypatch):
        from mpcqp import kkt_dense

        ref = solve_dense_qp(indefinite_dense_qp(True),
                             mode_preset("speed").with_tol(1e-8))
        assert ref.status is Status.Success
        calls = spy_factor(monkeypatch, kkt_dense, "factor")
        rep = solve_dense_qp(indefinite_dense_qp(True),
                             mode_preset("robust").with_tol(1e-8))
        assert rep.status is Status.Success
        # the QR route needs a positive definite H and fails every time
        assert calls == [True, False] * rep.iterations
        assert [r.route for r in rep.stats.trace] == ["chol"] * rep.iterations
        assert maxabs(rep.solution.y - ref.solution.y) <= 1e-6

    @pytest.mark.parametrize("mode", MODES)
    def test_exhausted_ladder_is_failure(self, monkeypatch, mode):
        from mpcqp import kkt_dense

        calls = spy_factor(monkeypatch, kkt_dense, "factor")
        rep = solve_dense_qp(indefinite_dense_qp(False), mode_preset(mode))
        assert rep.status is Status.Failure
        assert rep.iterations == 0 and rep.stats.trace == []
        routes = {"chol": [False, False], "chol_qr": [False, True, True],
                  "qr": [True, False, False]}
        assert calls == routes[mode_preset(mode).factorization]


def singular_dense_qp():
    """Dense QP whose Hessian ``diag(1, 0)`` is singular on the free v1:
    no route factors it without regularization."""
    qp = DenseQp(nv=2, nb=1)
    qp.set_field("H", np.diag([1.0, 0.0]))
    qp.set_field("g", [1.0, 0.0])
    qp.set_field("idxb", [0])
    qp.set_field("lb", [-1.0])
    qp.set_field("ub", [1.0])
    return qp


def decoupled_input_qp():
    """M3 N10 mass-spring whose second input of stage 4 is decoupled: a zero
    column of ``B``, a zero row and column of ``R`` and a zero row of ``S``,
    with its box sides masked, so that its reduced Hessian is singular."""
    qp = gen_mass_spring(MassSpringConfig(masses=3, horizon=10))
    for name, zero in (("B", np.s_[:, 1]), ("R", np.s_[1, :]), ("R", np.s_[:, 1]),
                       ("S", np.s_[1, :]), ("maskl", np.s_[1]),
                       ("masku", np.s_[1])):
        X = qp.get_field(name, 4)
        X[zero] = 0.0
        qp.set_field(name, 4, X)
    return qp


class TestRegularizedRungs:
    """The ladder's ``+reg`` rungs rescue real QPs whose reduced Hessian is
    singular: without them each solve fails at its first factorization.
    ``speed_abs`` is left out: its mu-only exit passes a residual above the
    tolerance (ROADMAP item 4)."""

    ROUTES = {"speed": "chol+reg", "balance": "qr+reg", "robust": "chol+reg"}
    CASES = {"dense": (singular_dense_qp, solve_dense_qp, 1e-8),
             "ocp": (decoupled_input_qp, solve_ocp_qp, 1e-6)}

    @pytest.mark.parametrize("kind", ["dense", "ocp"])
    @pytest.mark.parametrize("mode", ["speed", "balance", "robust"])
    def test_regularized_rung_solves(self, monkeypatch, kind, mode):
        from mpcqp import solver

        make, solve, tol = self.CASES[kind]
        arg = mode_preset(mode).with_tol(tol)
        qp = make()
        rep = solve(qp, arg)
        assert rep.status is Status.Success
        assert [r.route for r in rep.stats.trace] == [self.ROUTES[mode]] * rep.iterations
        r = compute_residuals(qp, rep.solution)
        assert max(r.res_g, r.res_b, r.res_d, r.res_m) <= tol
        unregularized = {k: tuple(x for x in v if not x.endswith("+reg"))
                         for k, v in solver.FACTOR_ROUTES.items()}
        monkeypatch.setattr(solver, "FACTOR_ROUTES", unregularized)
        rep = solve(make(), arg)
        assert rep.status is Status.Failure and rep.iterations == 0


class TestRefinementRescues:
    """Iterative refinement rescues real QPs: at tol 1e-10 with the clips at
    1e-16, ``balance`` and ``robust`` succeed with it and end in ``Failure``
    without it (``itref_corr_max=0``).  Of the seeds 0-399 of this QP family,
    19 behave so in both modes and 4 more in one; 14 and 40 are two of the
    19."""

    @pytest.mark.parametrize("seed", [14, 40])
    @pytest.mark.parametrize("mode", ["balance", "robust"])
    def test_refinement_rescues(self, mode, seed):
        tol = 1e-10
        arg = replace(mode_preset(mode).with_tol(tol), lam_min=1e-16,
                      t_min=1e-16)

        def make():
            return rand_ocp_qp(np.random.default_rng(seed), N=6, nx=4, nu=2)

        qp = make()
        rep = solve_ocp_qp(qp, arg)
        assert rep.status is Status.Success
        assert any(r.refine_steps for r in rep.stats.trace)
        r = compute_residuals(qp, rep.solution)
        assert max(r.res_g, r.res_b, r.res_d, r.res_m) <= tol
        rep = solve_ocp_qp(make(), replace(arg, itref_corr_max=0))
        assert rep.status is not Status.Success


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

    @pytest.mark.parametrize("corr_ratio,pred_corr,used", [
        (1e300, True, True),
        (0.0, True, False),      # every corrector is rejected
        (1.5, False, False),
    ])
    def test_trace_records_corrector(self, rng, monkeypatch, corr_ratio,
                                     pred_corr, used):
        from mpcqp import solver

        monkeypatch.setattr(solver, "CORR_RATIO", corr_ratio)
        rep = solve_dense_qp(rand_dense_qp(rng), replace(
            mode_preset("speed").with_tol(1e-8), pred_corr=pred_corr))
        assert rep.status is Status.Success
        assert [r.corrector for r in rep.stats.trace] == [used] * rep.iterations

    def test_trace_tells_refinement_met_target_from_ran_out(self, rng,
                                                           monkeypatch):
        # read from the trace alone: a refinement that met ITREF_STOP_RATIO
        # ends at or below it, one that ran out took every allowed step
        from mpcqp import solver

        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        arg = mode_preset("balance").with_tol(1e-8)
        monkeypatch.setattr(solver, "ITREF_STOP_RATIO", 1e-6)
        met = solve_ocp_qp(qp, arg)
        monkeypatch.setattr(solver, "ITREF_STOP_RATIO", 0.0)
        out = solve_ocp_qp(qp, arg)
        for rep in (met, out):
            assert rep.status is Status.Success
        assert all(r.refine_ratio <= 1e-6 for r in met.stats.trace)
        assert all(0.0 < r.refine_ratio and r.refine_steps == arg.itref_corr_max
                   for r in out.stats.trace)
        # without refinement nothing is recorded
        plain = solve_ocp_qp(qp, mode_preset("speed").with_tol(1e-8))
        assert all(r.refine_steps == 0 and np.isnan(r.refine_ratio)
                   for r in plain.stats.trace)

    @pytest.mark.parametrize("stop_ratio,steps", [(1.0, 0), (0.0, 2)])
    def test_refinement_returns_its_input_when_no_step_ran(self, rng, stop_ratio,
                                                          steps):
        # a refinement that meets its target at once hands back the
        # direction it was given, bit for bit; its ratio is the residual
        # norm of that direction over max(1, ||rhs||)
        import mpcqp.kkt_ocp as ko
        from mpcqp.kkt_common import kkt_apply_vec, kkt_rhs_flat
        from mpcqp.solver import _refine

        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        rhs = (rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
               rng.standard_normal(vw.nc),
               np.where(vw.act, rng.standard_normal(vw.nc), 0.0))
        fac = ko.riccati_factor(qp, it)
        sol = fac.solve(*rhs)
        before = sol.flat().copy()
        rhs_flat = kkt_rhs_flat(vw, *rhs)
        rhs_norm = float(np.max(np.abs(rhs_flat)))
        out, norm, n = _refine(vw, fac, it, *rhs, rhs_norm, sol, 2, stop_ratio)
        assert n == steps
        if steps:
            assert norm <= np.max(np.abs(
                kkt_apply_vec(vw, it.lam, it.t, before) + rhs_flat))
        else:
            assert out is sol and np.array_equal(out.flat(), before)
            want = np.max(np.abs(kkt_apply_vec(vw, it.lam, it.t, before) + rhs_flat))
            assert norm / max(1.0, rhs_norm) == want / max(1.0, rhs_norm)

    @pytest.mark.parametrize("mode", ["balance", "speed_abs"])
    def test_loop_hands_refinement_the_rhs_norm(self, rng, monkeypatch, mode):
        # the loop takes ||rhs||_inf from the norms it already has (the
        # residuals', or the absolute form's data) and that of rm
        import mpcqp.solver as solver
        from mpcqp.kkt_common import kkt_rhs_flat

        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        vw = make_view(qp)
        seen, real = [], solver._refine

        def refine(view, factor, iterate, rg, rb, rd, rm, rhs_norm, *rest):
            flat = kkt_rhs_flat(view, rg, rb, rd, rm)
            seen.append((rhs_norm, float(np.max(np.abs(flat)))))
            return real(view, factor, iterate, rg, rb, rd, rm, rhs_norm, *rest)

        monkeypatch.setattr(solver, "_refine", refine)
        arg = replace(mode_preset(mode).with_tol(1e-8), itref_corr_max=2)
        rep = solver.solve_ocp_qp(qp, arg)
        assert rep.status is Status.Success and vw.nc
        assert len(seen) >= rep.iterations
        assert all(got == want for got, want in seen)

    @pytest.mark.parametrize("mode", ["speed", "speed_abs"])
    def test_delta_form_hands_the_solve_its_complementarity(self, rng,
                                                           monkeypatch, mode):
        # the delta form subtracts no zero shift: the predictor's rm is the
        # residuals' r_m itself; the absolute form's is comp - 2 comp
        from mpcqp.kkt_ocp import RiccatiFactor
        from mpcqp.view import ProblemView

        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        res, rms = [], []
        real_res, real_solve = ProblemView.residuals, RiccatiFactor.solve

        def residuals(view, sol):
            res.append(real_res(view, sol))
            return res[-1]

        def solve(fac, r_g, r_b, r_d, r_m):
            rms.append((r_m, fac.scales.lam * fac.scales.t))
            return real_solve(fac, r_g, r_b, r_d, r_m)

        monkeypatch.setattr(ProblemView, "residuals", residuals)
        monkeypatch.setattr(RiccatiFactor, "solve", solve)
        arg = replace(mode_preset(mode).with_tol(1e-8), pred_corr=False)
        rep = solve_ocp_qp(qp, arg)
        assert rep.status is Status.Success
        # predictor and direction solve per iteration
        predictors = [rm for rm, _ in rms[::2]]
        assert len(predictors) == rep.iterations
        if mode == "speed":
            assert all(rm is r.r_m for rm, r in zip(predictors, res, strict=False))
        else:
            for rm, comp in rms[::2]:
                assert np.array_equal(rm, comp - 2.0 * comp)

    @pytest.mark.parametrize("mode", MODES)
    def test_final_residuals_reuse_the_loop_evaluation(self, rng, monkeypatch, mode):
        from mpcqp.view import ProblemView

        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        calls = []
        real = ProblemView.residuals

        def spy(view, sol):
            calls.append(sol)
            return real(view, sol)

        monkeypatch.setattr(ProblemView, "residuals", spy)
        rep = solve_ocp_qp(qp, mode_preset(mode).with_tol(1e-8))
        # one evaluation per loop head, the exit's included; speed_abs
        # evaluates only once, before returning
        assert len(calls) == (1 if mode == "speed_abs" else rep.iterations + 1)
        fresh = real(make_view(qp), rep.solution)
        for name in ("res_g", "res_b", "res_d", "res_m", "mu"):
            assert getattr(rep.residuals, name) == getattr(fresh, name)
            assert getattr(rep.stats, name) == getattr(fresh, name)
        assert np.array_equal(rep.residuals.r_g, fresh.r_g)

    def test_guess_dimension_mismatch(self, rng):
        from mpcqp import DimensionMismatch

        qp = rand_dense_qp(rng)
        other = rand_dense_qp(rng, nv=3, ne=0, nb=1, ng=0, ns=0)
        guess = QpSolution(make_view(other))
        with pytest.raises(DimensionMismatch):
            solve_dense_qp(qp, replace(mode_preset("speed"),
                                       warm_start="primal"), guess)
        # equal y and lam lengths, but pi built for another equality count:
        # ne=1 would broadcast into ne=2, ne=0 would fail inside numpy
        qp = rand_dense_qp(rng, nv=3, ne=2, nb=1, ng=0, ns=0)
        for ne in (1, 0):
            other = rand_dense_qp(rng, nv=3, ne=ne, nb=1, ng=0, ns=0)
            guess = QpSolution(make_view(other))
            with pytest.raises(DimensionMismatch):
                solve_dense_qp(qp, replace(mode_preset("speed"),
                                           warm_start="primal_dual"), guess)


def spy_validate(monkeypatch):
    """Record every QP the solver validates."""
    import mpcqp.solver as solver

    calls = []
    real = solver.validate

    def spy(qp):
        calls.append(qp)
        return real(qp)

    monkeypatch.setattr(solver, "validate", spy)
    return calls


class TestValidationVerdict:
    """A passed validation is kept across writes that no blocking check reads."""

    def test_bound_writes_keep_the_verdict(self, rng, monkeypatch):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        calls = spy_validate(monkeypatch)
        solve_ocp_qp(qp)
        assert calls == [qp]
        for name, value in (("lbx", qp.get_field("lbx", 0) - 0.1),
                            ("ubx", qp.get_field("ubx", 0) + 0.1),
                            ("q", qp.get_field("q", 2) + 0.1),
                            ("b", qp.get_field("b", 1) + 0.1)):
            qp.set_field(name, 0 if name in ("lbx", "ubx") else 2, value)
            rep = solve_ocp_qp(qp)
            assert rep.status == Status.Success
            assert calls == [qp]
        # a write that a blocking check reads validates again, even if valid
        qp.set_field("Q", 1, qp.get_field("Q", 1))
        solve_ocp_qp(qp)
        assert calls == [qp, qp]

    @pytest.mark.parametrize("field", ["Q", "Zl"])
    def test_bad_write_after_a_solve_raises(self, rng, field):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        solve_ocp_qp(qp)
        qp.set_field("lb", 1, qp.get_field("lb", 1) - 0.1)
        solve_ocp_qp(qp)
        if field == "Q":
            bad = qp.get_field("Q", 2) + np.triu(np.ones((3, 3)), 1)
        else:
            bad = -np.ones(qp.dim.ns[2])
        qp.set_field(field, 2, bad)
        with pytest.raises(ValueError, match="fails validation"):
            solve_ocp_qp(qp)

    def test_dense_asymmetric_hessian_after_a_solve_raises(self, rng):
        qp = rand_dense_qp(rng)
        solve_dense_qp(qp)
        H = qp.get_field("H")
        H[0, 1] += 1.0
        qp.set_field("H", H)
        with pytest.raises(ValueError, match="fails validation"):
            solve_dense_qp(qp)

    def test_other_changes_validate_afresh(self, rng, monkeypatch):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        calls = spy_validate(monkeypatch)
        solve_ocp_qp(qp)
        # partial condensing builds its QP with set_field alone
        qp_p, _ = partial_condense(qp, 2)
        solve_ocp_qp(qp_p)
        solve_ocp_qp(qp_p)
        assert calls == [qp, qp_p]
        # a revision bump outside set_field drops the verdict
        qp._rev += 1
        solve_ocp_qp(qp)
        assert calls == [qp, qp_p, qp]


class TestSolvePath:
    @pytest.mark.parametrize("path", ["partial:abc", "partial:", "partial:1.5"])
    def test_malformed_block_size_is_invalid_config(self, rng, path):
        qp = rand_ocp_qp(rng, N=4, nx=2, nu=1)
        with pytest.raises(InvalidConfig, match=f"solve path '{path}'"):
            solve_path(qp, path)

    def test_partial_path_solves(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=2, nu=1)
        rep, sol = solve_path(qp, "partial:2")
        assert rep.status == Status.Success
        assert compute_residuals(qp, sol).max_norm() <= 1e-5


class TestFixedIterations:
    """Exit tolerances at the smallest positive double: no solve converges,
    so each runs exactly ``iter_max`` iterations and its flop count is the
    cost of that many iterations."""

    @staticmethod
    def solve(masses, horizon, mode, path="ocp"):
        qp = gen_mass_spring(MassSpringConfig(masses=masses, horizon=horizon))
        arg = replace(mode_preset(mode).with_tol(5e-324), iter_max=10)
        return solve_path(qp, path, arg)[0]

    @pytest.mark.parametrize("path", ["ocp", "condense", "partial:4"])
    @pytest.mark.parametrize("mode", MODES)
    def test_runs_exactly_iter_max(self, mode, path):
        rep = self.solve(2, 10, mode, path)
        assert rep.status is Status.MaxIter
        assert rep.iterations == 10

    def test_riccati_flops_linear_in_horizon(self):
        ratio = self.solve(2, 40, "speed").stats.flops \
            / self.solve(2, 10, "speed").stats.flops
        assert 3.6 <= ratio <= 4.4

    @pytest.mark.parametrize("path", ["ocp", "condense", "partial:4"])
    def test_robust_costs_more_than_speed(self, path):
        assert (self.solve(2, 10, "robust", path).stats.flops
                > self.solve(2, 10, "speed", path).stats.flops)
