"""Interior point solver drivers for the three QP types.

One shared predictor-corrector loop wires the type-agnostic vector
machinery (:mod:`ipm_core`) to the type-specific KKT backend:

1. residuals (skipped per iteration in speed_abs mode) and termination test;
2. factorization of the reduced KKT system with the mode's retry policy
   (QR fallback and/or one regularization retry on failure);
3. affine prediction, step length probe, centering parameter;
4. corrector direction, accepted only if it does not blow up the duality
   measure (otherwise one predictor-centering resolve with the same factor);
5. optional iterative refinement of the combined direction, with the
   balance-mode switch to the QR factorization when refinement cannot reach
   the requested accuracy;
6. fraction-to-boundary step length, iterate update with multiplier/slack
   lower bounds.

Numerical trouble never raises: it lands in ``SolverStats.status``.  The
final report always carries independently recomputed residuals, also in
speed_abs mode (which computes them only once, before returning).

Warm starts: ``primal`` takes the primal variables from the guess and
derives the inequality slacks from the constraint values; ``primal_dual``
additionally takes the multipliers (clipped away from zero).  Cold starts
put ``lam_i t_i = mu0`` on every active row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import kkt_dense, kkt_ocp
from .errors import DimensionMismatch, FactorizationFailed
from .ipm_core import (
    IpmArg,
    IterRecord,
    SolverStats,
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
from .kkt_common import kkt_apply_vec, kkt_rhs_flat
from .linalg import flop_counter
from .qp_data import errors_only, validate
from .view import QpSolution, make_view

__all__ = ["SolveReport", "solve_dense_qp", "solve_ocp_qp", "solve_tree_ocp_qp"]

logger = logging.getLogger("mpcqp")

_WARM_FLOOR = 1e-8  # lam/t floor when starting from a primal-dual guess


@dataclass
class SolveReport:
    """Solution, statistics and independently evaluated final residuals."""

    solution: QpSolution
    stats: SolverStats
    residuals: object

    @property
    def status(self):
        return self.stats.status

    @property
    def iterations(self):
        return self.stats.iterations


# The factor functions are looked up on their modules at call time, so a
# wrapper installed on a module (a profiler, a test double) sees every call.
def solve_dense_qp(qp, arg=None, guess=None):
    """Solve a dense QP; see the module docstring for the loop layout."""
    return _solve(qp, kkt_dense.factor, arg, guess)


def solve_ocp_qp(qp, arg=None, guess=None):
    """Solve an optimal-control QP through the Riccati backend."""
    return _solve(qp, kkt_ocp.riccati_factor, arg, guess)


def solve_tree_ocp_qp(qp, arg=None, guess=None):
    """Solve a tree-structured optimal-control QP through the same backend."""
    return _solve(qp, kkt_ocp.riccati_factor, arg, guess)


def _init_iterate(view, arg, guess):
    iterate = QpSolution(view)
    warm = arg.warm_start if guess is not None else "none"
    if guess is not None:
        if guess.y.shape[0] != view.ny or guess.lam.shape[0] != view.nc:
            raise DimensionMismatch("guess does not match QP dimensions")
    if warm in ("primal", "primal_dual"):
        iterate.y[:] = guess.y
    if warm == "primal_dual":
        iterate.pi[:] = guess.pi
    act = view.act
    cy = view.cy(iterate.y)
    if warm == "primal_dual":
        # leave room proportional to the guess's infeasibility: starting at
        # the boundary of an infeasible point blocks the first Newton step
        gap_d = (
            float(np.max(np.where(act, view.d - cy, 0.0), initial=0.0))
            if view.nc else 0.0
        )
        r_b = -view.a_y(iterate.y) + view.b()
        gap_b = float(np.max(np.abs(r_b))) if r_b.size else 0.0
        floor = max(_WARM_FLOOR, arg.t_min, min(1.0, max(gap_d, gap_b)))
        t = np.maximum(cy - view.d, floor)
        lam = np.maximum(guess.lam, max(_WARM_FLOOR, arg.lam_min))
    else:
        t = np.maximum(cy - view.d, arg.t0)
        lam = arg.mu0 / t
    iterate.t[:] = np.where(act, t, 0.0)
    iterate.lam[:] = np.where(act, lam, 0.0)
    return iterate


def _factor_with_policy(factor_fn, qp, iterate, arg):
    """Factorization with the mode's fallback ladder; None means Failure."""
    use_qr = arg.use_qr_always
    try:
        return factor_fn(qp, iterate, arg=arg, use_qr=use_qr), use_qr
    except FactorizationFailed as exc:
        logger.debug("factorization failed (%s)", exc)
    if arg.use_qr_fallback and not use_qr:
        try:
            return factor_fn(qp, iterate, arg=arg, use_qr=True), True
        except FactorizationFailed as exc:
            logger.debug("QR factorization failed (%s)", exc)
        use_qr = True
    reg = 2.0 * arg.reg_prim if arg.reg_prim > 0.0 else 1e-8
    arg_retry = replace(arg, reg_prim=reg)
    try:
        return factor_fn(qp, iterate, arg=arg_retry, use_qr=use_qr), use_qr
    except FactorizationFailed as exc:
        logger.debug("regularized retry failed (%s)", exc)
        return None, use_qr


def _solve(qp, factor_fn, arg, guess):
    arg = (arg or IpmArg()).validate()
    bad = errors_only(validate(qp))
    if bad:
        raise ValueError(
            "QP fails validation: " + "; ".join(str(v) for v in bad)
        )
    with flop_counter() as fc:
        report = _ipm_loop(qp, factor_fn, arg, guess)
    report.stats.flops = fc.flops
    return report


def _ipm_loop(qp, factor_fn, arg, guess):
    view = make_view(qp)
    iterate = _init_iterate(view, arg, guess)
    act = view.act
    lam_m = np.where(act, iterate.lam, 0.0)   # masked views for products
    g_full = view.grad()
    b_vec = view.b()
    d_vec = view.d
    trace = []
    alpha_last = 1.0
    status = None
    it = 0
    while True:
        res = view.residuals(iterate) if arg.comp_res_pred else None
        mu = res.mu if res is not None else duality_measure(
            iterate.lam, iterate.t, act
        )
        if res is None and not iterate.isfinite():
            status = Status.NaNDetected
            break
        status = check_termination(res, mu, alpha_last, it, arg)
        if status is not None:
            break
        factor, used_qr = _factor_with_policy(factor_fn, qp, iterate, arg)
        if factor is None:
            status = Status.Failure
            break
        lam_m = np.where(act, iterate.lam, 0.0)
        t_m = np.where(act, iterate.t, 0.0)
        comp = lam_m * t_m
        if arg.abs_form:
            rg, rb, rd = g_full, b_vec, d_vec
            rm_aff = -comp
        else:
            rg, rb, rd = res.r_g, res.r_b, res.r_d
            rm_aff = comp
        sol_aff = factor.solve(rg, rb, rd, rm_aff)
        if arg.itref_pred_max > 0:
            sol_aff = _refine(view, factor, lam_m, t_m,
                              rg, rb, rd, rm_aff, sol_aff,
                              arg.itref_pred_max, arg.itref_stop_ratio)[0]
        step_aff = (
            recover_step_absolute(iterate, sol_aff) if arg.abs_form else sol_aff
        )
        if not step_aff.isfinite():
            status = Status.NaNDetected
            break
        alpha_aff = max_step(iterate.lam, iterate.t,
                             step_aff.lam, step_aff.t, act)
        mu_aff = duality_measure(
            iterate.lam + alpha_aff * step_aff.lam,
            iterate.t + alpha_aff * step_aff.t, act,
        )
        sigma = centering(mu, mu_aff)
        tau = sigma * mu
        rm_center = comp - np.where(act, tau, 0.0)
        if arg.pred_corr:
            rm_dir = rm_center + np.where(act, step_aff.lam * step_aff.t, 0.0)
        else:
            rm_dir = rm_center
        if arg.abs_form:
            rm_dir = rm_dir - 2.0 * comp
        sol_dir = factor.solve(rg, rb, rd, rm_dir)
        step = (
            recover_step_absolute(iterate, sol_dir) if arg.abs_form else sol_dir
        )
        if arg.pred_corr and arg.cond_pred_corr:
            a_t = max_step(iterate.lam, iterate.t, step.lam, step.t, act)
            mu_t = duality_measure(
                iterate.lam + a_t * step.lam,
                iterate.t + a_t * step.t, act,
            )
            if not corrector_acceptance(mu_t, mu_aff, arg.corr_ratio):
                rm_dir = rm_center - 2.0 * comp if arg.abs_form else rm_center
                sol_dir = factor.solve(rg, rb, rd, rm_dir)
                step = (
                    recover_step_absolute(iterate, sol_dir)
                    if arg.abs_form else sol_dir
                )
        if arg.itref_corr_max > 0:
            sol_dir, ir_norm = _refine(
                view, factor, lam_m, t_m, rg, rb, rd, rm_dir, sol_dir,
                arg.itref_corr_max, arg.itref_stop_ratio,
            )
            if (
                arg.use_qr_fallback
                and not used_qr
                and ir_norm > arg.qr_fallback_ratio
                * max(1.0, _rhs_norm(view, rg, rb, rd, rm_dir))
            ):
                try:
                    factor = factor_fn(qp, iterate, arg=arg, use_qr=True)
                    used_qr = True
                    sol_dir = factor.solve(rg, rb, rd, rm_dir)
                    sol_dir, ir_norm = _refine(
                        view, factor, lam_m, t_m, rg, rb, rd, rm_dir, sol_dir,
                        arg.itref_corr_max, arg.itref_stop_ratio,
                    )
                except FactorizationFailed:
                    pass
            step = (
                recover_step_absolute(iterate, sol_dir)
                if arg.abs_form else sol_dir
            )
        if not step.isfinite():
            status = Status.NaNDetected
            break
        alpha = max_step(iterate.lam, iterate.t, step.lam, step.t, act,
                         ftb=arg.ftb)
        update_iterate_delta(iterate, step, alpha, act,
                             arg.lam_min, arg.t_min)
        trace.append(IterRecord(
            it=it, alpha_aff=alpha_aff, alpha=alpha, mu=mu, sigma=sigma,
            res_g=res.res_g if res else np.nan,
            res_b=res.res_b if res else np.nan,
            res_d=res.res_d if res else np.nan,
            res_m=res.res_m if res else np.nan,
        ))
        alpha_last = alpha
        it += 1
    final = view.residuals(iterate)
    _log_mu_trace(trace)
    stats = SolverStats(
        status=status, iterations=it,
        res_g=final.res_g, res_b=final.res_b,
        res_d=final.res_d, res_m=final.res_m,
        mu=final.mu, trace=trace,
    )
    return SolveReport(solution=iterate, stats=stats, residuals=final)


def _refine(view, factor, lam_m, t_m, rg, rb, rd, rm, sol, max_steps, stop_ratio):
    rhs_flat = kkt_rhs_flat(view, rg, rb, rd, rm)
    flat, norm, _ = iterative_refinement(
        factor.solve_flat,
        lambda x: kkt_apply_vec(view, lam_m, t_m, x),
        rhs_flat,
        sol.flat(),
        max_steps,
        stop_ratio,
    )
    return QpSolution.from_flat(view, flat), norm


def _rhs_norm(view, rg, rb, rd, rm):
    v = kkt_rhs_flat(view, rg, rb, rd, rm)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _log_mu_trace(trace):
    # soft monotonicity check: mu should contract by ~0.9 per iteration on
    # nondegenerate problems; log only, never fail
    for prev, cur in zip(trace, trace[1:]):
        if prev.mu > 0 and cur.mu > 0.9 * prev.mu:
            logger.debug(
                "slow duality-measure progress at iteration %d: %.3e -> %.3e",
                cur.it, prev.mu, cur.mu,
            )
