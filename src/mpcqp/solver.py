"""Interior point solver drivers for the three QP types.

One shared predictor-corrector loop wires the type-agnostic vector
machinery (:mod:`ipm_core`) to the type-specific KKT backend:

1. residuals (skipped per iteration in the absolute formulation) and
   termination test;
2. factorization of the reduced KKT system by the first route of the
   policy's ladder that succeeds (:class:`IpmArg`), recorded in the trace;
   only this ladder retries, each backend call is one attempt;
3. affine prediction, step length probe, centering parameter;
4. corrector direction, accepted only if it does not blow up the duality
   measure (otherwise one predictor-centering resolve with the same factor);
   the trace records whether it was used;
5. optional iterative refinement of the direction taken, against the
   unfactorized KKT operator with the factor of step 2;
6. fraction-to-boundary step length, iterate update with multiplier/slack
   lower bounds.  When the step taken is the accepted corrector's, as it
   came from the solve (no refinement correction), the step length is the
   fraction of the ratio that the acceptance test's ratio pass found, so
   an iteration makes two ratio passes, not three.

The iterate and every step are :class:`view.QpSolution` buffers
``[y | pi | lam | t]``.  :func:`_init_iterate` puts exact zeros on the masked
constraint rows of the iterate, the backends' recovery keeps them in every
step and :func:`ipm_core.update_iterate_delta` in every update, so the loop
itself holds no activity mask: complementarity is ``lam * t``, the centering
term is ``tau`` times the view's float mask ``act_float``, the corrector
term is ``dlam * dt``, and step length, duality measure and update are
single passes over the flat arrays (see :mod:`ipm_core`).

Numerical trouble never raises: it lands in ``SolverStats.status``.  The
final report always carries residuals of the returned iterate: those the
last loop test evaluated, since every exit taken after them leaves the
iterate unchanged, or in the absolute formulation (which skips them in the
loop) one evaluation before returning.  The trace records per iteration the
factorization route, the corrector decision and the refinement steps and
residual ratio of the direction taken.

A QP with a blocking :func:`qp_data.validate` error raises before the loop.
A passed verdict is kept on the QP for its revision, and ``set_field``
carries it forward across writes that no blocking check reads (bounds,
gradients, dynamics), so a closed loop that rewrites only the initial-state
bounds validates once; any other write or change drops it.  The view is
kept the same way across bound writes (:func:`view.make_view`): such a
loop builds its operators and the Riccati band layout once and refreshes
only the bound vector and the activity mask per step.

:func:`solve_path` picks the route for an optimal-control QP: the Riccati
backend directly, or a dense/Riccati solve of its (partially) condensed
form expanded back.

Warm starts: ``primal`` takes the primal variables from the guess and
derives the inequality slacks from the constraint values, as a cold start
does.  ``primal_dual`` keeps the guess's ``y`` and ``pi``, its slacks
``C y - d`` and its multipliers ``lam``, and raises each pair side to one
floor: ``_WARM_ROOM`` times the guess's largest inequality or equality
violation ``gap`` (capped at 1), never below ``lam_min``, ``t_min`` or
``_WARM_FLOOR``.  It then centers the floored point on its dual side: every
active multiplier is raised to at least ``_WARM_ROOM * min(mu_g, gap) / t``,
where ``mu_g`` is the floored point's mean ``lam * t``, so no pair starts
far below the others; the slacks are not moved.  Pairs above that target
keep the guess's complementarity, and the target vanishes with ``gap``, so
an exact guess is kept as it is (up to the absolute floor), bit for bit.
Cold starts put ``lam_i t_i = ipm_core.MU0`` on every active row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import condensing, kkt_dense, kkt_ocp
from .errors import DimensionMismatch, FactorizationFailed, InvalidConfig
from .ipm_core import (
    CORR_RATIO,
    FACTOR_ROUTES,
    FTB,
    ITREF_STOP_RATIO,
    MU0,
    T0,
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
    _step_ratio,
    _vec_norm,
    recover_step_absolute,
    update_iterate_delta,
)
from .kkt_common import kkt_apply_vec, kkt_rhs_flat
from .linalg import flop_counter
from .qp_data import errors_only, validate
from .view import QpSolution, make_view

__all__ = ["SolveReport", "solve_dense_qp", "solve_ocp_qp", "solve_tree_ocp_qp",
           "solve_path"]

# a primal-dual warm point floors lam and t at _WARM_ROOM times the guess's
# infeasibility, never below _WARM_FLOOR, and lifts each lam so that its
# pair holds at least _WARM_ROOM times the smaller of the floored point's
# mean complementarity and that infeasibility (see _init_iterate).  On
# disturbed mass-spring loops 0.1 is a shallow optimum: with the floor at
# 0.1, lifting to 0.03 or 0.3 of that smaller value costs 0.1 to 0.2
# iterations per warm solve and to all of it about 0.35; moving floor and
# lift together to 0.03 costs about 0.13, to 0.3 about 0.45.
_WARM_FLOOR = 1e-8
_WARM_ROOM = 0.1


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


def solve_path(qp, path="ocp", arg=None):
    """Solve ``qp`` along ``path``; returns ``(report, solution on qp)``.

    ``ocp`` solves any QP type directly.  An optimal-control QP can also go
    through ``condense`` (dense solve of the fully condensed QP) or
    ``partial:<N1>`` (Riccati solve of the QP condensed in blocks of N1
    stages); the report is then that of the condensed solve and the
    solution is expanded back onto ``qp``.
    """
    solve = {"dense": solve_dense_qp, "ocp": solve_ocp_qp,
             "tree": solve_tree_ocp_qp}.get(getattr(qp, "kind", None))
    if solve is None:
        raise InvalidConfig("unsupported QP type")
    if path == "ocp":
        rep = solve(qp, arg)
        return rep, rep.solution
    if qp.kind != "ocp":
        raise InvalidConfig(f"{qp.kind} QPs support only the ocp path (direct)")
    if path == "condense":
        dense, cmap = condensing.condense(qp)
        rep = solve_dense_qp(dense, arg)
        return rep, condensing.expand_solution(rep.solution, cmap, qp)
    if path.startswith("partial:"):
        try:
            N1 = int(path.split(":", 1)[1])
        except ValueError:
            raise InvalidConfig(
                f"solve path '{path}': the block size after 'partial:' "
                "must be an integer"
            ) from None
        qp_p, pmap = condensing.partial_condense(qp, N1)
        rep = solve_ocp_qp(qp_p, arg)
        return rep, condensing.partial_expand(rep.solution, pmap, qp)
    raise InvalidConfig(f"unknown solve path '{path}'")


def _init_iterate(view, arg, guess):
    """First iterate; exact zeros on masked rows, whatever the guess holds there.

    A ``primal_dual`` guess keeps ``y``, ``pi``, ``t = C y - d`` and ``lam``
    above one floor, then each active ``lam`` is lifted to
    ``_WARM_ROOM * min(mu_g, gap) / t`` if it is below: ``mu_g`` is the
    floored point's mean complementarity and ``gap`` the guess's violation.
    A guess with no violation is kept as it is, up to the absolute floor.
    """
    iterate = QpSolution(view)
    warm = arg.warm_start if guess is not None else "none"
    if guess is not None:
        if (guess.y.shape[0], guess.pi.shape[0], guess.lam.shape[0],
                guess.t.shape[0]) != (view.ny, view.ne, view.nc, view.nc):
            raise DimensionMismatch("guess does not match QP dimensions")
    if warm in ("primal", "primal_dual"):
        iterate.y[:] = guess.y
    if warm == "primal_dual":
        iterate.pi[:] = guess.pi
    act = view._act_where
    cy = view.cy(iterate.y)
    if warm == "primal_dual":
        # the room a step needs is of the order of the guess's violation: a
        # pair at the boundary of a violated row blocks the first Newton
        # step, and a floor far above the violation throws away the
        # complementarity that the guess got right.  Slacks above the floor
        # are kept, and so are multipliers unless the centering below lifts
        # them, so a guess with no violation starts where it stands (up to
        # the absolute floor).
        gap_d = (
            float(np.max(np.where(act, view.d - cy, 0.0), initial=0.0))
            if view.nc else 0.0
        )
        r_b = -view.a_y(iterate.y) + view.b
        gap_b = float(np.max(np.abs(r_b))) if r_b.size else 0.0
        gap = min(1.0, max(gap_d, gap_b))
        floor = max(_WARM_FLOOR, arg.t_min, arg.lam_min, _WARM_ROOM * gap)
        t = np.maximum(cy - view.d, floor)
        lam = np.maximum(guess.lam, floor)
        # a pair far below the mean product blocks the first step as a pair
        # at the boundary does; lifting lam alone keeps the guess's slacks
        if view.n_act:
            mu_g = float(np.sum(np.where(act, lam * t, 0.0))) / view.n_act
            lam = np.maximum(lam, _WARM_ROOM * min(mu_g, gap) / t)
    else:
        t = np.maximum(cy - view.d, T0)
        lam = MU0 / t
    np.copyto(iterate.t, t, where=act)
    np.copyto(iterate.lam, lam, where=act)
    return iterate


def _factorize(factor_fn, qp, iterate, arg):
    """Walk the policy's route ladder.

    Returns ``(factor, route)`` for the first route that factors, or
    ``(None, None)`` once every route has failed.
    """
    for route in FACTOR_ROUTES[arg.factorization]:
        arg_route = arg
        if route.endswith("+reg"):
            reg = 2.0 * arg.reg_prim if arg.reg_prim > 0.0 else 1e-8
            arg_route = replace(arg, reg_prim=reg)
        try:
            fac = factor_fn(qp, iterate, arg=arg_route,
                            use_qr=route.startswith("qr"))
        except FactorizationFailed:
            continue
        return fac, route
    return None, None


def _solve(qp, factor_fn, arg, guess):
    arg = (arg or IpmArg()).validate()
    if qp._valid_rev != qp._rev:
        bad = errors_only(validate(qp))
        if bad:
            raise ValueError(
                "QP fails validation: " + "; ".join(str(v) for v in bad)
            )
        qp._valid_rev = qp._rev
    with flop_counter() as fc:
        report = _ipm_loop(qp, factor_fn, arg, guess)
    report.stats.flops = fc.flops
    return report


def _ipm_loop(qp, factor_fn, arg, guess):
    view = make_view(qp)
    iterate = _init_iterate(view, arg, guess)
    lt = iterate.lt
    n_act = view.n_act
    trace = []
    alpha_last = 1.0
    status = None
    it = 0
    if arg.abs_form:
        def step_of(sol):
            return recover_step_absolute(iterate, sol)
        # the infinity norm of the right-hand side's constant [g | b | d]
        data_norm = max(map(_vec_norm, (view.g, view.b, view.d)))
    else:
        def step_of(sol):
            return sol
    while True:
        # the absolute form solves for the next iterate: data on the right,
        # 2 comp off the complementarity rows, no residuals in the loop; the
        # delta form takes nothing off them (shift None), and skips the pass
        if arg.abs_form:
            res = None
            comp = iterate.lam * iterate.t
            rg, rb, rd, shift = view.g, view.b, view.d, 2.0 * comp
            rhs_norm = data_norm
        else:
            res = view.residuals(iterate)
            comp = res.r_m
            rg, rb, rd, shift = res.r_g, res.r_b, res.r_d, None
            rhs_norm = max(res.res_g, res.res_b, res.res_d)
        mu = res.mu if res is not None else duality_measure(lt, n_act)
        if res is None and not iterate.isfinite():
            status = Status.NaNDetected
            break
        status = check_termination(res, mu, alpha_last, it, arg)
        if status is not None:
            break
        factor, route = _factorize(factor_fn, qp, iterate, arg)
        if factor is None:
            status = Status.Failure
            break
        rm_aff = comp if shift is None else comp - shift
        step_aff = step_of(factor.solve(rg, rb, rd, rm_aff))
        if not step_aff.isfinite():
            status = Status.NaNDetected
            break
        alpha_aff = max_step(lt, step_aff.lt)
        mu_aff = duality_measure(lt + alpha_aff * step_aff.lt, n_act)
        sigma = centering(mu, mu_aff)
        rm_center = comp - (sigma * mu) * view.act_float
        corrector = arg.pred_corr
        if corrector:
            rm_dir = rm_center + step_aff.lam * step_aff.t
            if shift is not None:
                rm_dir -= shift
            sol_corr = sol_dir = factor.solve(rg, rb, rd, rm_dir)
            step = step_of(sol_dir)
            ratio = _step_ratio(lt, step.lt)
            mu_t = duality_measure(lt + min(1.0, ratio) * step.lt, n_act)
            corrector = corrector_acceptance(mu_t, mu_aff, CORR_RATIO)
        if not corrector:
            rm_dir = rm_center if shift is None else rm_center - shift
            sol_dir = factor.solve(rg, rb, rd, rm_dir)
            step = step_of(sol_dir)
        refine_steps, refine_ratio = 0, np.nan
        if arg.itref_corr_max > 0:
            # ||[rg | rb | rd | rm_dir]||_inf, from the norms already taken
            rhs_norm = max(rhs_norm, _vec_norm(rm_dir))
            sol_dir, ir_norm, refine_steps = _refine(
                view, factor, iterate, rg, rb, rd, rm_dir, rhs_norm, sol_dir,
                arg.itref_corr_max, ITREF_STOP_RATIO,
            )
            refine_ratio = ir_norm / max(1.0, rhs_norm)
            step = step_of(sol_dir)
        if not step.isfinite():
            status = Status.NaNDetected
            break
        # the accepted corrector's step as solved has its ratio already
        if corrector and sol_dir is sol_corr:
            alpha = min(1.0, FTB * ratio)
        else:
            alpha = max_step(lt, step.lt, ftb=FTB)
        update_iterate_delta(iterate, step, alpha, arg.lam_min, arg.t_min)
        trace.append(IterRecord(
            it=it, alpha_aff=alpha_aff, alpha=alpha, mu=mu, sigma=sigma,
            res_g=res.res_g if res else np.nan,
            res_b=res.res_b if res else np.nan,
            res_d=res.res_d if res else np.nan,
            res_m=res.res_m if res else np.nan,
            route=route, corrector=corrector,
            refine_steps=refine_steps, refine_ratio=refine_ratio,
        ))
        alpha_last = alpha
        it += 1
    # every exit taken with residuals leaves the iterate as they saw it
    final = res if res is not None else view.residuals(iterate)
    stats = SolverStats(
        status=status, iterations=it,
        res_g=final.res_g, res_b=final.res_b,
        res_d=final.res_d, res_m=final.res_m,
        mu=final.mu, trace=trace,
    )
    return SolveReport(solution=iterate, stats=stats, residuals=final)


def _refine(view, factor, iterate, rg, rb, rd, rm, rhs_norm, sol, max_steps,
            stop_ratio):
    """Refined solution, its KKT residual norm and the steps taken.

    ``rhs_norm`` is the infinity norm of the right-hand side
    ``[rg | rb | rd | rm]``, which the loop has from its residual norms.
    When no correction improved on ``sol``, ``sol`` itself is returned.
    """
    rhs_flat = kkt_rhs_flat(view, rg, rb, rd, rm)
    start = sol.flat()
    flat, norm, steps = iterative_refinement(
        factor.solve_flat,
        lambda x: kkt_apply_vec(view, iterate.lam, iterate.t, x),
        rhs_flat,
        start,
        max_steps,
        stop_ratio,
        rhs_norm=rhs_norm,
    )
    if flat is not start:
        sol = QpSolution.from_flat(view, flat)
    return sol, norm, steps
