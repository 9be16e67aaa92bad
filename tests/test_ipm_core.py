from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcqp import (
    DenseQp,
    MassSpringConfig,
    compute_residuals,
    gen_mass_spring,
    mode_preset,
    solve_dense_qp,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.ipm_core import (
    IpmArg,
    Status,
    centering,
    check_termination,
    corrector_acceptance,
    duality_measure,
    iterative_refinement,
    max_step,
    recover_step_absolute,
    update_iterate_delta,
)
from mpcqp.kkt_dense import factor
from mpcqp.kkt_ocp import riccati_factor
from mpcqp.solver import _init_iterate
from mpcqp.view import QpSolution, make_view

from conftest import (
    duality_measure_ref,
    max_step_ref,
    rand_dense_qp,
    rand_iterate,
    rand_ocp_qp,
    rand_tree_qp,
    update_iterate_delta_ref,
)


def _lt(lam, t):
    return np.concatenate([lam, t])


class TestDualityMeasure:
    def test_simple_average(self):
        assert duality_measure(_lt([1.0, 2.0], [2.0, 1.0]), 2) == 2.0

    def test_zero_vectors(self):
        assert duality_measure(np.zeros(6), 3) == 0.0

    def test_masked_row_excluded(self):
        # a masked row holds zeros and is left out of the count
        mu = duality_measure(_lt([1.0, 0.0], [1.0, 0.0]), 1)
        assert mu == 1.0

    def test_empty_active_set_returns_zero(self):
        assert duality_measure(np.zeros(0), 0) == 0.0
        assert duality_measure(np.zeros(4), 0) == 0.0

    def test_permutation_invariance(self, rng):
        lam = rng.uniform(0.1, 2.0, 17)
        t = rng.uniform(0.1, 2.0, 17)
        perm = rng.permutation(17)
        assert duality_measure(_lt(lam, t), 17) == pytest.approx(
            duality_measure(_lt(lam[perm], t[perm]), 17), rel=1e-15
        )


class TestMaxStep:
    def test_zero_direction(self):
        assert max_step(np.ones(4), np.zeros(4)) == 1.0

    def test_single_blocking(self):
        assert max_step(_lt([1.0], [1.0]), _lt([-2.0], [0.0])) == 0.5

    def test_tightest_ratio(self):
        a = max_step(_lt([1.0, 1.0], [1.0, 1.0]), _lt([-4.0, -2.0], np.zeros(2)))
        assert a == 0.25

    def test_nonnegativity_after_step(self, rng):
        for _ in range(25):
            lt = rng.uniform(0.01, 5.0, 24)
            dlt = rng.standard_normal(24)
            a = max_step(lt, dlt)
            assert np.all(lt + a * dlt >= -1e-15)
            a995 = max_step(lt, dlt, ftb=0.995)
            assert np.all(lt + a995 * dlt > 0.0)


class TestCenteringAndCorrector:
    def test_cube(self):
        assert centering(1.0, 0.5) == 0.125

    def test_zero_affine(self):
        assert centering(1.0, 0.0) == 0.0

    def test_no_progress(self):
        assert centering(1.0, 1.0) == 1.0

    def test_corrector_accept(self):
        assert corrector_acceptance(1.0, 1.0, threshold=1.5)
        assert not corrector_acceptance(2.0, 1.0, threshold=1.5)
        assert corrector_acceptance(0.0, 0.0, threshold=1.5)


class TestIterateUpdate:
    def _pair(self, rng, qp):
        vw = make_view(qp)
        it = rand_iterate(rng, qp)
        step = QpSolution(vw)
        return vw, it, step

    def test_zero_step_identity(self, rng):
        qp = rand_dense_qp(rng)
        vw, it, step = self._pair(rng, qp)
        before = it.copy()
        update_iterate_delta(it, step, 1.0, 1e-12, 1e-12)
        assert np.array_equal(it.y, before.y)
        assert np.array_equal(it.lam, before.lam)

    def test_partial_step(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("lb", [0.0])
        qp.set_field("ub", [1.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = 1.0
        it.t[:] = 1.0
        step = QpSolution(vw)
        step.lam[:] = [-1.0, 0.0]
        update_iterate_delta(it, step, 0.9, 1e-12, 1e-12)
        assert it.lam[0] == pytest.approx(0.1)

    def test_clipping_floor(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("lb", [0.0])
        qp.set_field("ub", [1.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = 1e-13
        it.t[:] = 1.0
        update_iterate_delta(it, QpSolution(vw), 1.0, 1e-12, 1e-12)
        assert np.all(it.lam == 1e-12)

    def test_masked_rows_untouched(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("lb", [0.0])  # upper side stays infinite -> inactive
        vw = make_view(qp)
        it = QpSolution(vw)
        update_iterate_delta(it, QpSolution(vw), 1.0, 1e-12, 1e-12)
        assert it.lam[1] == 0.0 and it.t[1] == 0.0


class TestRecoverAbsolute:
    def test_identity(self, rng):
        qp = rand_dense_qp(rng)
        it = rand_iterate(rng, qp)
        step = recover_step_absolute(it, it.copy())
        assert np.all(step.y == 0.0) and np.all(step.lam == 0.0)

    def test_difference(self, rng):
        qp = rand_dense_qp(rng)
        a = rand_iterate(rng, qp)
        b = a.copy()
        b.y += 2.0
        assert np.allclose(recover_step_absolute(a, b).y, 2.0)

    def test_cancellation_at_machine_precision(self, rng):
        qp = rand_dense_qp(rng)
        a = rand_iterate(rng, qp)
        b = a.copy()
        b.y[:] = a.y + 1e-16 * np.abs(a.y)  # below double resolution at 1.0
        step = recover_step_absolute(a, b)
        # documents the cancellation hazard: the tiny increment is lost
        assert np.max(np.abs(step.y)) <= 4e-16 * max(1.0, np.max(np.abs(a.y)))


class _FakeRes:
    def __init__(self, g, b, d, m):
        self.res_g, self.res_b, self.res_d, self.res_m = g, b, d, m

    def isfinite(self):
        return all(np.isfinite(v)
                   for v in (self.res_g, self.res_b, self.res_d, self.res_m))


class TestTermination:
    def test_success_speed(self):
        arg = mode_preset("speed").with_tol(1e-6)
        res = _FakeRes(1e-9, 1e-9, 1e-9, 1e-9)
        assert check_termination(res, 1e-9, 1.0, 3, arg) is Status.Success

    def test_max_iterations(self):
        arg = mode_preset("speed").with_tol(1e-6)
        res = _FakeRes(1.0, 1.0, 1.0, 1.0)
        assert check_termination(res, 1.0, 1.0, arg.iter_max, arg) is Status.MaxIter

    def test_min_step(self):
        arg = mode_preset("speed").with_tol(1e-6)
        res = _FakeRes(1.0, 1.0, 1.0, 1.0)
        assert check_termination(res, 1.0, 1e-12, 2, arg) is Status.MinStep

    def test_nan_detected(self):
        arg = mode_preset("speed").with_tol(1e-6)
        res = _FakeRes(np.nan, 1.0, 1.0, 1.0)
        assert check_termination(res, 1.0, 1.0, 0, arg) is Status.NaNDetected

    def test_speed_abs_mu_only(self):
        arg = mode_preset("speed_abs").with_tol(1e-6)
        assert check_termination(None, 1e-9, 1.0, 2, arg) is Status.Success
        assert check_termination(None, 1e-3, 1.0, 2, arg) is None

    def test_speed_abs_needs_a_step(self):
        # mu = 0 before any step (no active row) is not convergence
        arg = mode_preset("speed_abs").with_tol(1e-6)
        assert check_termination(None, 0.0, 1.0, 0, arg) is None
        assert check_termination(None, 0.0, 1.0, 1, arg) is Status.Success

    @pytest.mark.parametrize("mode", ["speed_abs", "speed"])
    def test_residuals_gate_success_whatever_the_mode(self, mode):
        # a delta-formulation arg has residuals, and they must meet their
        # tolerances: the mode name does not pick the mu-only exit
        arg = replace(mode_preset(mode), abs_form=False).with_tol(1e-6)
        res = _FakeRes(1e-3, 1e-3, 1e-3, 1e-9)
        assert check_termination(res, 1e-9, 1.0, 3, arg) is None


class TestIterativeRefinement:
    def test_exact_factor_zero_corrections(self, rng):
        M = np.array([[2.0, 0.3], [0.3, 1.5]])
        Minv = np.linalg.inv(M)
        rhs = np.array([1.0, -2.0])
        d0 = -Minv @ rhs
        d, norm, steps = iterative_refinement(
            lambda r: -Minv @ r, lambda x: M @ x, rhs, d0, 2, 1e-12
        )
        assert steps == 0
        assert np.array_equal(d, d0)

    def test_perturbed_factor_contracts(self):
        M = np.array([[2.0, 0.3], [0.3, 1.5]])
        delta = 1e-4
        Mfact_inv = np.linalg.inv(M + delta * np.eye(2))
        rhs = np.array([1.0, -2.0])
        d0 = -Mfact_inv @ rhs
        norms = [np.max(np.abs(M @ d0 + rhs))]
        d = d0
        for _ in range(3):
            d, n, _ = iterative_refinement(
                lambda r: -Mfact_inv @ r, lambda x: M @ x, rhs, d, 1, 0.0
            )
            norms.append(n)
        contraction = delta * np.max(np.abs(np.linalg.inv(M)))
        for a, b in zip(norms, norms[1:]):
            if a > 1e-11:  # above the double-precision floor of the residual
                assert b <= 3.0 * contraction * a
        assert all(b <= a for a, b in zip(norms, norms[1:]))

    def test_zero_rhs_keeps_zero(self):
        M = np.eye(2)
        d, norm, _ = iterative_refinement(
            lambda r: -r, lambda x: M @ x, np.zeros(2), np.zeros(2), 3, 1e-12
        )
        assert np.array_equal(d, np.zeros(2))
        assert norm == 0.0

    def test_never_worse_than_input(self, rng):
        M = np.diag([1.0, 1e-6])
        bad_inv = np.linalg.inv(M + 1e-2 * np.eye(2))
        rhs = rng.standard_normal(2)
        d0 = -bad_inv @ rhs
        n0 = np.max(np.abs(M @ d0 + rhs))
        _, n, _ = iterative_refinement(
            lambda r: -bad_inv @ r, lambda x: M @ x, rhs, d0, 5, 1e-14
        )
        assert n <= n0

    def test_divergence_guard_returns_best(self, rng):
        # a grossly wrong "factorization" (opposite sign) makes every
        # correction worse; the guard stops and the best iterate is kept
        M = np.eye(2)
        rhs = np.array([1.0, 1.0])
        d0 = -rhs  # exact would be -rhs; perturb slightly
        d0 = d0 + 0.1
        n0 = np.max(np.abs(M @ d0 + rhs))
        d, n, steps = iterative_refinement(
            lambda r: +2.0 * r, lambda x: M @ x, rhs, d0, 10, 1e-16
        )
        assert steps <= 3
        assert n <= n0


class TestModePresets:
    def test_speed_abs(self):
        arg = mode_preset("speed_abs")
        assert arg.abs_form
        assert arg.itref_corr_max == 0

    def test_robust(self):
        assert mode_preset("robust").factorization == "qr"

    def test_speed_has_no_refinement(self):
        assert mode_preset("speed").itref_corr_max == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mode_preset("turbo")

    def test_defaults_are_the_speed_preset(self):
        assert IpmArg() == mode_preset("speed")
        assert len(fields(IpmArg)) == 19

    def test_speed_equals_balance_without_safeguards(self, rng):
        # disabling refinement, QR fallback and the tighter floors turns the
        # balance preset into the speed algorithm: identical iterates
        from mpcqp import solve_dense_qp
        from dataclasses import replace

        qp = rand_dense_qp(rng, ns=0)
        a_speed = mode_preset("speed").with_tol(1e-8)
        a_bal = replace(
            mode_preset("balance").with_tol(1e-8),
            itref_corr_max=0, factorization="chol",
            lam_min=a_speed.lam_min, t_min=a_speed.t_min,
        )
        r1 = solve_dense_qp(qp, a_speed)
        r2 = solve_dense_qp(qp, a_bal)
        assert np.array_equal(r1.solution.y, r2.solution.y)
        assert r1.iterations == r2.iterations

    def test_validate_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            IpmArg(tol_comp=0.0).validate()

    @pytest.mark.parametrize("name, value", [
        ("ftb", 1.5), ("ftb", 0.0), ("ftb", -0.5), ("iter_max", -1),
        ("reg_prim", -1.0), ("itref_corr_max", -1), ("corr_ratio", -0.1),
        ("itref_stop_ratio", -1e-12), ("qr_fallback_ratio", -1e-6),
    ])
    def test_validate_rejects_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            replace(IpmArg(), **{name: value}).validate()

    @pytest.mark.parametrize("name, value", [
        ("ftb", 1.0), ("iter_max", 0), ("reg_prim", 0.0),
        ("itref_corr_max", 0), ("corr_ratio", 0.0),
        ("itref_stop_ratio", 0.0), ("qr_fallback_ratio", 0.0),
    ])
    def test_validate_accepts_range_ends(self, name, value):
        replace(IpmArg(), **{name: value}).validate()

    @pytest.mark.parametrize("mode", ["speed_abs", "speed", "balance", "robust"])
    def test_either_formulation_solves_every_preset(self, mode):
        # the formulation alone decides whether the loop has residuals
        qp = gen_mass_spring(MassSpringConfig(masses=2, horizon=10))
        p = mode_preset(mode).with_tol(1e-6)
        rep = solve_ocp_qp(qp, replace(p, abs_form=not p.abs_form))
        assert rep.status is Status.Success

    def test_validate_rejects_unknown_factorization(self):
        for policy in ("chol", "chol_qr", "qr"):
            IpmArg(factorization=policy).validate()
        with pytest.raises(ValueError, match="factorization"):
            IpmArg(factorization="lq").validate()

    def test_validate_rejects_unknown_kkt_method_and_variant(self, rng):
        for method in ("schur", "null_space"):
            for variant in ("classical", "square_root"):
                IpmArg(kkt_method=method, riccati_variant=variant).validate()
        with pytest.raises(ValueError, match="kkt_method"):
            IpmArg(kkt_method="nullspace").validate()
        with pytest.raises(ValueError, match="riccati_variant"):
            IpmArg(riccati_variant="sqrt").validate()
        # the solvers reject them before any factorization, and so do the
        # backends when called directly
        qp = rand_dense_qp(rng)
        with pytest.raises(ValueError, match="kkt_method"):
            solve_dense_qp(qp, IpmArg(kkt_method="nullspace"))
        with pytest.raises(ValueError, match="kkt_method"):
            factor(qp, rand_iterate(rng, qp), IpmArg(kkt_method="nullspace"))
        with pytest.raises(ValueError, match="riccati_variant"):
            solve_ocp_qp(rand_ocp_qp(rng), IpmArg(riccati_variant="sqrt"))


class TestLinearResidualContraction:
    def test_one_iteration_scales_linear_residuals(self, rng):
        # one delta-formulation iteration with sigma = 0 and no corrector
        # scales r_g, r_b, r_d by exactly (1 - alpha)
        for trial in range(5):
            qp = rand_dense_qp(rng, nv=5, ne=1, nb=3, ng=1, ns=1)
            vw = make_view(qp)
            it = rand_iterate(rng, qp)
            res = compute_residuals(qp, it)
            fac = factor(qp, it, IpmArg())
            rm = np.where(vw.act, it.lam * it.t, 0.0)
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            alpha = 0.5 * max_step(it.lt, step.lt)
            update_iterate_delta(it, step, alpha, 0.0, 0.0)
            res2 = compute_residuals(qp, it)
            scale = 1.0 - alpha
            ref = max(res.res_g, res.res_b, res.res_d)
            assert np.max(np.abs(res2.r_g - scale * res.r_g)) <= 1e-10 * ref
            assert np.max(np.abs(res2.r_b - scale * res.r_b)) <= 1e-10 * ref
            assert np.max(np.abs(res2.r_d - scale * res.r_d)) <= 1e-10 * ref


@st.composite
def masked_qps(draw):
    """Convex dense, OCP and tree QPs with soft rows, whose bound writes open
    about a third of the bounds to infinity and mask about a third of the sides."""
    kind = draw(st.sampled_from(["dense", "ocp", "tree"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        qp, stages = rand_dense_qp(rng, nv=6, ne=2, nb=3, ng=2, ns=2), [()]
    elif kind == "ocp":
        qp, stages = rand_ocp_qp(rng, N=4, nx=3, nu=2), [(n,) for n in range(5)]
    else:
        qp = rand_tree_qp(rng, [-1, 0, 0, 1, 2])
        stages = [(n,) for n in range(5)]
    for at in stages:
        for name, side in (("lb", -1.0), ("ub", 1.0), ("lg", -1.0), ("ug", 1.0),
                           ("sl_lb", -1.0), ("su_lb", -1.0)):
            v = np.array(qp.get_field(name, *at), dtype=float)
            v[rng.random(v.shape) < 0.3] = side * np.inf
            qp.set_field(name, *at, v)
        for name in ("maskl", "masku"):
            v = np.array(qp.get_field(name, *at), dtype=float)
            v[rng.random(v.shape) < 0.3] = 0.0
            qp.set_field(name, *at, v)
    return qp


def _factor_fn(qp):
    return factor if qp.kind == "dense" else riccati_factor


def _start(qp, warm, seed):
    """View, argument, guess and first iterate; a guess is nonzero everywhere."""
    vw = make_view(qp)
    arg = replace(mode_preset("balance").with_tol(1e-8), warm_start=warm)
    guess = None
    if warm != "none":
        rng = np.random.default_rng(seed)
        guess = QpSolution(vw, rng.standard_normal(vw.ny),
                           rng.standard_normal(vw.ne),
                           rng.uniform(0.1, 2.0, vw.nc), rng.uniform(0.1, 2.0, vw.nc))
    return vw, arg, guess, _init_iterate(vw, arg, guess)


def _masked_part(vw, sol):
    return sol.lt.reshape(2, -1)[:, ~vw.act]


class TestFlatIterate:
    """The loop's invariant, and the flat kernels against the masked ones."""

    @given(masked_qps(), st.sampled_from(["none", "primal_dual"]),
           st.integers(0, 2**32 - 1))
    def test_masked_rows_hold_exact_zeros(self, qp, warm, seed):
        vw, arg, guess, it = _start(qp, warm, seed)
        assert np.all(_masked_part(vw, it) == 0.0)
        res = vw.residuals(it)
        comp = it.lam * it.t
        steps = []
        for use_qr in (False, True):
            fac = _factor_fn(qp)(qp, it, arg=IpmArg(), use_qr=use_qr)
            steps += [
                fac.solve(res.r_g, res.r_b, res.r_d, comp),
                fac.solve(res.r_g, res.r_b, res.r_d, comp - 0.1 * vw.act_float),
                fac.solve(vw.g, vw.b, vw.d, -comp),     # absolute formulation
            ]
        for step in steps:
            assert np.all(_masked_part(vw, step) == 0.0)
        for step in steps:
            alpha = max_step(it.lt, step.lt, ftb=0.995)
            update_iterate_delta(it, step, alpha, arg.lam_min, arg.t_min)
            assert np.all(_masked_part(vw, it) == 0.0)
        solve = {"dense": solve_dense_qp, "ocp": solve_ocp_qp,
                 "tree": solve_tree_ocp_qp}[qp.kind]
        rep = solve(qp, arg, guess)
        assert np.all(_masked_part(vw, rep.solution) == 0.0)

    @given(masked_qps(), st.sampled_from(["none", "primal_dual"]),
           st.integers(0, 2**32 - 1))
    def test_step_length_and_update_equal_masked_references(self, qp, warm, seed):
        vw, arg, _, it = _start(qp, warm, seed)
        res = vw.residuals(it)
        fac = _factor_fn(qp)(qp, it, arg=IpmArg())
        step = fac.solve(res.r_g, res.r_b, res.r_d, it.lam * it.t)
        for scale in (1.0, 1e3, -1e3):      # scaled copies reach the boundary
            dir_ = QpSolution.from_flat(vw, scale * step.flat())
            for ftb in (1.0, arg.ftb):
                alpha = max_step(it.lt, dir_.lt, ftb=ftb)
                assert alpha == max_step_ref(it.lam, it.t, dir_.lam, dir_.t,
                                             vw.act, ftb=ftb)
            new, ref = it.copy(), it.copy()
            update_iterate_delta(new, dir_, alpha, arg.lam_min, arg.t_min)
            update_iterate_delta_ref(ref, dir_, alpha, vw.act,
                                     arg.lam_min, arg.t_min)
            assert np.array_equal(new.flat(), ref.flat())
            assert duality_measure(new.lt, vw.n_act) == pytest.approx(
                duality_measure_ref(new.lam, new.t, vw.act), rel=1e-14, abs=0.0)
