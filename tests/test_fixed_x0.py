"""A fully fixed initial state is eliminated; vector writes refresh views.

The ``ocp``, ``partial:k`` and tree paths solve a QP whose initial state
equal-bound box rows fix completely with that state folded into the data
(:mod:`mpcqp.fixed_x0`), and the caller sees its own layout only.  Vector
writes (gradients, right-hand sides, bounds) refresh the cached views, the
reduced QP's included, and a solve after them is bit for bit the solve of
a freshly built QP with the same data.
"""

import importlib.util
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpcqp import (
    DenseQp,
    MassSpringConfig,
    Status,
    compute_residuals,
    gen_mass_spring,
    mode_preset,
    solve_dense_qp,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.fixed_x0 import detect_fixed_x0
from mpcqp.solver import solve_path
from mpcqp.view import QpSolution, make_view

from conftest import rand_dense_qp, rand_ocp_qp, rand_tree_qp

ROOT = Path(__file__).resolve().parents[1]


def _scenario_tree():
    """The first tree of the benchmark's ``scenario_tree`` workload, seed 1,
    from its generator (the file is only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    wl = module.ScenarioTree
    return module.scenario_tree(np.random.default_rng([1, 3]), wl.masses,
                                wl.horizon, wl.branch_levels, ts=0.5,
                                ts_spread=0.1)


def _mass_spring(M, N):
    return gen_mass_spring(MassSpringConfig(masses=M, horizon=N))


# (QP builder, path): the chains on the Riccati and the partially condensed
# path, the tree on its own
TOL8_CASES = {
    "M2N10-ocp": (lambda: _mass_spring(2, 10), "ocp"),
    "M2N10-partial:4": (lambda: _mass_spring(2, 10), "partial:4"),
    "M4N20-ocp": (lambda: _mass_spring(4, 20), "ocp"),
    "M4N20-partial:4": (lambda: _mass_spring(4, 20), "partial:4"),
    "tree": (_scenario_tree, "ocp"),
}


class TestEliminatedInitialState:
    @pytest.mark.parametrize("mode", ["balance", "robust"])
    @pytest.mark.parametrize("case", list(TOL8_CASES))
    def test_tol_1e8_succeeds_on_every_path(self, case, mode):
        # kept as equal-bound pairs, the initial-state rows stall the
        # complementarity residual at the clips times their multipliers
        build, path = TOL8_CASES[case]
        qp = build()
        assert detect_fixed_x0(qp)[0]
        arg = mode_preset(mode).with_tol(1e-8)
        rep, sol = solve_path(qp, path, arg)
        assert rep.status is Status.Success, (case, mode, rep.iterations)
        res = compute_residuals(qp, sol)
        assert res.res_g <= arg.tol_stat and res.res_b <= arg.tol_eq
        assert res.res_d <= arg.tol_ineq and res.res_m <= arg.tol_comp

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_solution_is_on_the_callers_layout(self, kind):
        qp = _mass_spring(3, 8) if kind == "ocp" else _scenario_tree()
        solve = solve_ocp_qp if kind == "ocp" else solve_tree_ocp_qp
        rep = solve(qp, mode_preset("balance").with_tol(1e-8))
        vw = make_view(qp)
        sol = rep.solution
        assert sol._view is vw
        _, x0hat, fix_rows = detect_fixed_x0(qp)
        assert np.array_equal(sol.x(0), x0hat)
        cb = vw.blocks[0]
        t0, lam0 = sol.t_stage(0), sol.lam_stage(0)
        assert not t0[fix_rows].any() and not t0[cb.m + fix_rows].any()
        # one side of every fixing row carries its multiplier
        assert not (lam0[fix_rows] * lam0[cb.m + fix_rows]).any()
        # the report's residuals are the caller's own
        fresh = compute_residuals(qp, sol)
        for name in ("res_g", "res_b", "res_d", "res_m", "mu"):
            assert getattr(rep.residuals, name) == getattr(fresh, name)
            assert getattr(rep.stats, name) == getattr(fresh, name)
        assert np.array_equal(rep.residuals.r_g, fresh.r_g)

    def test_guess_is_restricted_and_checked(self):
        qp = _mass_spring(2, 6)
        arg = mode_preset("balance").with_tol(1e-8)
        cold = solve_ocp_qp(qp, arg)
        warm = solve_ocp_qp(qp, replace(arg, warm_start="primal_dual"),
                            cold.solution)
        assert warm.status is Status.Success
        assert warm.iterations < cold.iterations
        other = QpSolution(make_view(_mass_spring(2, 5)))
        with pytest.raises(ValueError, match="guess"):
            solve_ocp_qp(qp, replace(arg, warm_start="primal"), other)

    def test_partly_fixed_state_stays_pairs(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        ub = qp.get_field("ubx", 0)
        ub[1] += 0.5
        qp.set_field("ubx", 0, ub)
        all_fixed, x0hat, fix_rows = detect_fixed_x0(qp)
        assert not all_fixed and fix_rows.size == 2 and np.isnan(x0hat[1])
        rep = solve_ocp_qp(qp)
        assert rep.status is Status.Success
        assert qp._reduced[1] is None
        assert make_view(qp).band is not None    # the QP itself was factored

    def test_soft_row_does_not_fix(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=2, nu=1, fix_x0=True, ns=0)
        assert detect_fixed_x0(qp)[0]
        qp2 = rand_ocp_qp(np.random.default_rng(5), N=3, nx=2, nu=1,
                          fix_x0=True, ns=1)
        qp2.set_field("idxs", 0, [2])    # the second state's fixing row
        all_fixed, _, fix_rows = detect_fixed_x0(qp2)
        assert not all_fixed and fix_rows.tolist() == [1]

    def test_reduced_qp_is_freed_with_its_qp(self):
        qp = _mass_spring(3, 8)
        sol = solve_ocp_qp(qp).solution
        red = weakref.ref(qp._reduced[1].qp)
        red_view = weakref.ref(make_view(red()))
        del qp
        assert red() is None and red_view() is None
        assert sol.x(0).size == 6

    def test_writes_past_the_root_reach_the_reduced_qp(self):
        # the reduced QP shares the caller's stages past the root: a matrix
        # write there rebuilds its view, a vector write refreshes it
        qp = _mass_spring(2, 6)
        arg = mode_preset("balance").with_tol(1e-8)
        solve_ocp_qp(qp, arg)
        red = qp._reduced[1]
        old = make_view(red.qp)
        qp.set_field("q", 3, np.full(4, 0.1))
        solve_ocp_qp(qp, arg)
        assert qp._reduced[1] is red and make_view(red.qp).K is old.K
        qp.set_field("Q", 3, 2.0 * np.eye(4))
        rep = solve_ocp_qp(qp, arg)
        assert qp._reduced[1] is red and make_view(red.qp).K is not old.K
        assert rep.status is Status.Success
        fresh = solve_ocp_qp(_clone(qp), arg)
        assert rep.solution.flat().tobytes() == fresh.solution.flat().tobytes()
        # a matrix write at the root derives the reduced QP again
        qp.set_field("R", 0, 2.0 * np.eye(1))
        solve_ocp_qp(qp, arg)
        assert qp._reduced[1] is not red


# -- vector writes refresh the cached views -------------------------------

MODES = ("speed_abs", "speed", "balance", "robust")


def _clone(qp):
    """A freshly built QP with the data of ``qp``, field by field."""
    if qp.kind == "dense":
        out = DenseQp(qp.nv, qp.ne, qp.nb, qp.ng, qp.ns)
        for name in DenseQp._FIELDS:
            out.set_field(name, qp.get_field(name))
        return out
    out = type(qp)(qp.dim)
    for name, f in qp._FIELDS.items():
        for n in (qp.dim.edges if f.dyn else range(len(qp.dim.nx))):
            out.set_field(name, n, qp.get_field(name, n))
    return out


def _fixed_root_tree(rng):
    qp = rand_tree_qp(rng, [-1, 0, 0, 1, 2, 2, 3], nb=3)
    x0 = solve_tree_ocp_qp(qp).solution.x(0).copy()
    qp.set_field("lbx", 0, x0)
    qp.set_field("ubx", 0, x0)
    return qp


# (builder, solve, vector writes as (field, index)); each write adds a
# small offset to the stored values
PARITY_CASES = {
    "dense": (rand_dense_qp, solve_dense_qp,
              [("b", None), ("g", None), ("lb", None), ("ug", None)]),
    "ocp": (lambda rng: rand_ocp_qp(rng, N=5, nx=3, nu=2),
            solve_ocp_qp, [("b", 1), ("r", 2), ("q", 3), ("lb", 2), ("ug", 4)]),
    "ocp-fixed-x0": (lambda rng: rand_ocp_qp(rng, N=5, nx=3, nu=2, fix_x0=True),
                     solve_ocp_qp, [("b", 0), ("b", 2), ("r", 0), ("q", 3),
                                    ("lbx", 0), ("ubx", 0), ("ub", 2)]),
    "tree": (lambda rng: rand_tree_qp(rng, [-1, 0, 0, 1, 2, 2, 3]),
             solve_tree_ocp_qp, [("b", 2), ("r", 1), ("q", 4), ("ub", 3)]),
    "tree-fixed-root": (_fixed_root_tree, solve_tree_ocp_qp,
                        [("b", 1), ("b", 4), ("r", 0), ("q", 2), ("lbx", 0),
                         ("ubx", 0), ("lb", 5)]),
}


def _offset(qp, field, n, delta):
    args = () if n is None else (n,)
    cur = qp.get_field(field, *args)
    if field in ("lb", "lg"):
        delta = -abs(delta)
    elif field in ("ub", "ug"):
        delta = abs(delta)
    qp.set_field(field, *args, cur + delta)


class TestVectorWriteParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_refreshed_solve_is_the_fresh_solve(self, rng, case, mode):
        build, solve, writes = PARITY_CASES[case]
        qp = build(rng)
        arg = mode_preset(mode).with_tol(1e-8)
        solve(qp, arg)
        views = [make_view(qp)]
        if getattr(qp, "_reduced", None) and qp._reduced[1] is not None:
            views.append(make_view(qp._reduced[1].qp))
        for k, (field, n) in enumerate(writes):
            # fixing rows move together, so the initial state stays fixed
            _offset(qp, field, n, 0.01 * (k + 1) if field not in (
                "lbx", "ubx") else 0.02)
        rep = solve(qp, arg)
        # the fresh QP solved once before, so that the constants a view
        # keeps from its first solve (a dense view's chol(H + reg I)) are
        # counted by neither solve
        clone = _clone(qp)
        solve(clone, arg)
        fresh = solve(clone, arg)
        # the operators were kept: every view was refreshed, none rebuilt
        for old in views:
            new = make_view(qp) if old is views[0] else make_view(
                qp._reduced[1].qp)
            assert new is not old and new.hess0 is old.hess0
        assert rep.status is fresh.status
        assert rep.iterations == fresh.iterations
        assert rep.stats.flops == fresh.stats.flops
        assert rep.solution.flat().tobytes() == fresh.solution.flat().tobytes()

    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_matrix_write_builds_a_new_view(self, rng, case):
        build, solve, _ = PARITY_CASES[case]
        qp = build(rng)
        solve(qp)
        old = make_view(qp)
        if qp.kind == "dense":
            qp.set_field("H", qp.get_field("H") + np.eye(qp.nv))
        else:
            qp.set_field("Q", 2, qp.get_field("Q", 2) + np.eye(qp.dim.nx[2]))
        vw = make_view(qp)
        assert vw.hess0 is not old.hess0 and vw.H is not old.H
        rep = solve(qp)
        fresh = solve(_clone(qp))
        assert rep.solution.flat().tobytes() == fresh.solution.flat().tobytes()


# -- non-finite matrices are blocking validation errors --------------------

class TestNonFiniteMatrices:
    def test_infinite_hessian_blocks_the_solve(self):
        qp = DenseQp(2)
        qp.set_field("H", [[np.inf, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="H: matrix has non-finite"):
                solve_dense_qp(qp)

    def test_nan_hessian_is_called_non_finite(self):
        qp = DenseQp(2)
        qp.set_field("H", [[np.nan, 0.0], [0.0, 1.0]])
        from mpcqp import validate

        assert [(v.field, v.message) for v in validate(qp)] == [
            ("H", "matrix has non-finite entries")]

    @pytest.mark.parametrize("field", ["H", "A", "C"])
    def test_dense_matrix_fields(self, rng, field):
        qp = rand_dense_qp(rng)
        solve_dense_qp(qp)
        M = qp.get_field(field)
        M[0, -1] = np.nan
        qp.set_field(field, M)
        with pytest.raises(ValueError, match=f"{field}: matrix has non-finite"):
            solve_dense_qp(qp)

    @pytest.mark.parametrize("field,n", [("Q", 1), ("R", 0), ("S", 2), ("C", 3),
                                         ("D", 1), ("A", 2), ("B", 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stage_matrix_fields(self, rng, field, n, value):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        solve_ocp_qp(qp)
        M = qp.get_field(field, n)
        M[-1, 0] = value
        if field in ("Q", "R"):
            M[0, -1] = value
        qp.set_field(field, n, M)
        with pytest.raises(ValueError,
                           match=rf"{field} \[stage {n}\]: matrix has non-finite"):
            solve_ocp_qp(qp)
