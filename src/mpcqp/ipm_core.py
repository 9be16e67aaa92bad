"""QP-type-agnostic interior point machinery.

The solvers in this package are infeasible-start predictor-corrector primal
dual interior point methods.  Everything here is independent of the QP type
and of how the KKT systems are factorized: it works on the one flat buffer
``[y | pi | lam | t]`` of an iterate or a step (:class:`view.QpSolution`)
and on its ``[lam | t]`` half ``lt``.  Every iterate and every step holds
exact zeros on masked constraint rows, so these kernels take no activity
mask: the duality measure is ``lam' t / n_act`` over the whole vectors, the
step length is one ratio pass over ``lt`` (a zero step entry never blocks)
and the update is one axpy over the buffer plus one floor clip of ``lt`` on
the active rows, which keeps the masked rows at zero.

Two formulations of the Newton system are supported, selected by
``IpmArg.abs_form``:

* delta formulation: the linear system is assembled with the current KKT
  residuals on the right-hand side and its solution is the Newton step;
* absolute formulation: the linearity of the stationarity, equality and
  inequality rows is exploited to put the raw problem data (g, b, d) on the
  right-hand side, the solution is the full-step candidate iterate, and the
  step is recovered by differencing.  This saves the residual matrix-vector
  products per iteration but suffers cancellation once the step becomes small
  relative to the iterate, which is why it is confined to the fastest mode.

Residuals follow the formulation: the delta form evaluates them every
iteration (its right-hand side) and exits on them, the absolute form skips
them in the loop and exits on the duality measure alone.  Mode presets trade
speed for robustness:

=========  ===========  =========  ==========  =============
mode       formulation  residuals  refinement  factorization
=========  ===========  =========  ==========  =============
speed_abs  absolute     at return  none        ``chol``
speed      delta        each iter  none        ``chol``
balance    delta        each iter  on demand   ``chol_qr``
robust     delta        each iter  on demand   ``qr``
=========  ===========  =========  ==========  =============

Constants shared by every mode: a step length below ``ALPHA_MIN`` ends the
solve with ``MinStep``, and a cold start puts the slacks at
``max(C y - d, T0)`` and the multipliers at ``MU0 / t``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "IpmArg",
    "Status",
    "SolverStats",
    "IterRecord",
    "mode_preset",
    "duality_measure",
    "max_step",
    "centering",
    "corrector_acceptance",
    "update_iterate_delta",
    "recover_step_absolute",
    "check_termination",
    "iterative_refinement",
]


class Status(enum.Enum):
    """Terminal state of a solve; numerical trouble is a status, not a raise."""

    Success = "Success"
    MaxIter = "MaxIter"
    MinStep = "MinStep"
    NaNDetected = "NaNDetected"
    Failure = "Failure"


# route ladder of each factorization policy (``qr``: the array algorithms
# on stacked factors); the solver walks it, see IpmArg
FACTOR_ROUTES = {
    "chol": ("chol", "chol+reg"),
    "chol_qr": ("chol", "qr", "qr+reg"),
    "qr": ("qr", "chol", "chol+reg"),
}


# node algebra of the Riccati backend and equality handling of the dense one
RICCATI_VARIANTS = ("classical", "square_root")
KKT_METHODS = ("schur", "null_space")

ALPHA_MIN = 1e-8  # shortest step length before the solve ends in MinStep
MU0 = 1e2         # lam_i t_i of every active row at a cold start
T0 = 1.0          # slack floor at a cold start


@dataclass
class IpmArg:
    """Full algorithmic configuration of one solve.

    Build via :func:`mode_preset` and override fields as needed; the
    defaults are the ``speed`` preset.  Tolerances must be positive;
    ``tol_comp`` bounds the duality measure, the other three bound the
    stationarity / equality / inequality residual infinity norms (ignored
    in the absolute formulation, ``abs_form``, which skips residuals in the
    loop and exits on the duality measure only).

    ``lam_min``/``t_min`` clip the multipliers and slacks from below after
    every update, bounding the late-iteration ill-conditioning of the KKT
    system.  They also put a floor of roughly ``lam_min * max(t)`` under the
    reachable duality measure, so a ``tol_comp`` below that needs smaller
    clip values than the balance/robust presets use.

    ``factorization`` selects the routes (``FACTOR_ROUTES``) the solver
    tries in order each iteration: the preferred one, the other one if the
    policy allows it, then the last one with primal regularization
    (``2 * reg_prim``, or 1e-8).  Under ``chol_qr`` a ``chol`` step whose
    refined residual exceeds ``qr_fallback_ratio * max(1, ||rhs||)`` is
    recomputed from the ``qr`` rungs.

    With ``pred_corr`` the Mehrotra corrector is kept only when its trial
    duality measure stays within ``corr_ratio`` times the affine one.  The
    minimum step length and the cold-start point are the module constants
    ``ALPHA_MIN``, ``MU0`` and ``T0``.
    """

    iter_max: int = 30
    tol_stat: float = 1e-8
    tol_eq: float = 1e-8
    tol_ineq: float = 1e-8
    tol_comp: float = 1e-8
    reg_prim: float = 0.0
    lam_min: float = 1e-16
    t_min: float = 1e-16
    warm_start: str = "none"          # none | primal | primal_dual
    pred_corr: bool = True
    corr_ratio: float = 1.5           # corrector acceptance threshold
    itref_corr_max: int = 0           # refinement steps on the combined direction
    itref_stop_ratio: float = 1e-12   # target residual/rhs ratio for refinement
    qr_fallback_ratio: float = 1e-6   # refinement residual ratio that triggers QR
    factorization: str = "chol"       # chol | chol_qr | qr
    abs_form: bool = False            # absolute formulation, no loop residuals
    ftb: float = 0.995                # fraction-to-boundary factor
    kkt_method: str = "schur"         # dense equality handling: schur | null_space
    # classical factors each whole node block and keeps P explicit; a level
    # with a block that is not positive definite falls back to factoring its
    # input blocks only, so it needs only the reduced blocks positive
    # definite.  square_root needs every whole block positive definite.
    # Either counts its route's nominal flops, fallback or not.
    riccati_variant: str = "classical"  # classical | square_root

    def with_tol(self, tol):
        """Copy with all four exit tolerances set to ``tol``."""
        return replace(
            self, tol_stat=tol, tol_eq=tol, tol_ineq=tol, tol_comp=tol
        )

    def validate(self):
        for name in ("tol_stat", "tol_eq", "tol_ineq", "tol_comp"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.ftb <= 1.0:
            raise ValueError("ftb must lie in (0, 1]")
        for name in ("iter_max", "reg_prim", "itref_corr_max", "corr_ratio",
                     "itref_stop_ratio", "qr_fallback_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.lam_min < 0.0 or self.t_min < 0.0:
            raise ValueError("lam_min and t_min must be >= 0")
        if self.warm_start not in ("none", "primal", "primal_dual"):
            raise ValueError(f"unknown warm_start '{self.warm_start}'")
        if self.factorization not in FACTOR_ROUTES:
            raise ValueError(f"unknown factorization '{self.factorization}'")
        if self.kkt_method not in KKT_METHODS:
            raise ValueError(f"unknown kkt_method '{self.kkt_method}'")
        if self.riccati_variant not in RICCATI_VARIANTS:
            raise ValueError(f"unknown riccati_variant '{self.riccati_variant}'")
        return self


_PRESETS = {
    # speed_abs: everything geared to the lowest per-iteration cost.
    "speed_abs": dict(
        abs_form=True,
        itref_corr_max=0,
        factorization="chol",
        lam_min=1e-16, t_min=1e-16,
    ),
    "speed": dict(
        abs_form=False,
        itref_corr_max=0,
        factorization="chol",
        lam_min=1e-16, t_min=1e-16,
    ),
    "balance": dict(
        abs_form=False,
        itref_corr_max=2,
        factorization="chol_qr",
        lam_min=1e-10, t_min=1e-10,
    ),
    "robust": dict(
        abs_form=False,
        itref_corr_max=4,
        factorization="qr",
        lam_min=1e-10, t_min=1e-10,
    ),
}


def mode_preset(mode):
    """Pre-defined argument set for one of the four solver modes.

    ``mode`` only selects the preset; the returned :class:`IpmArg` does
    not record it.
    """
    try:
        overrides = _PRESETS[mode]
    except KeyError:
        raise ValueError(
            f"unknown mode '{mode}'; expected one of {sorted(_PRESETS)}"
        ) from None
    return IpmArg(**overrides)


@dataclass
class IterRecord:
    """One row of the per-iteration trace."""

    it: int
    alpha_aff: float
    alpha: float
    mu: float
    sigma: float
    res_g: float
    res_b: float
    res_d: float
    res_m: float
    route: str          # factorization route: chol | qr | chol+reg | qr+reg
    corrector: bool     # the corrector term was used in the step direction
    escalated: bool     # refinement missed its target and the direction was
                        # recomputed from the ladder's qr rungs
    refine_steps: int   # corrections refinement applied to the direction
                        # the step took (0 without refinement)
    refine_ratio: float  # KKT residual it reached over max(1, ||rhs||), the
                         # scale of itref_stop_ratio (nan without refinement)


@dataclass
class SolverStats:
    """Outcome summary of one solve."""

    status: Status
    iterations: int
    res_g: float = np.nan
    res_b: float = np.nan
    res_d: float = np.nan
    res_m: float = np.nan
    mu: float = np.nan
    flops: int = 0
    trace: list = field(default_factory=list)


def duality_measure(lt, n_act):
    """Average complementarity ``lam' t / n_act`` of a ``[lam | t]`` vector.

    Masked rows hold zeros (the iterate invariant), so the dot product over
    all rows is the sum over the ``n_act`` active ones.  Returns 0.0 for an
    empty active set (the problem is then equality constrained only and the
    caller should treat complementarity as satisfied); no exception is
    raised for that case.
    """
    if not n_act:
        return 0.0
    nc = lt.shape[0] // 2
    return float(lt[:nc] @ lt[nc:]) / n_act


def max_step(lt, dlt, ftb=1.0):
    """Largest alpha in (0, 1] keeping ``lt + alpha dlt >= 0``.

    One ratio pass over the ``[lam | t]`` half of the iterate and of the
    step.  Masked rows of a step are zero, so they never block.  ``ftb``
    scales the blocking ratio (fraction-to-boundary); it multiplies the
    ratio before the cap at 1, so an unblocked direction still yields a
    unit step.
    """
    neg = dlt < 0.0
    # the blocking ratios -lt/dlt are the negated quotients where dlt < 0;
    # every other entry reads -inf, so an unblocked direction gives inf
    q = np.divide(lt, dlt, out=np.full(lt.shape, -np.inf), where=neg)
    return min(1.0, ftb * -float(q.max(initial=-np.inf)))


def centering(mu, mu_aff):
    """Centering parameter sigma = (mu_aff / mu)^3 clipped to [0, 1]."""
    if mu <= 0.0:
        return 0.0
    return min(1.0, max(0.0, (mu_aff / mu) ** 3))


def corrector_acceptance(mu_pcc, mu_aff, threshold=1.5):
    """Keep the corrected direction only if it does not inflate complementarity.

    True iff the trial duality measure after the full
    predictor-centering-corrector step stays within ``threshold`` times the
    affine one.
    """
    return mu_pcc <= threshold * mu_aff


def update_iterate_delta(iterate, step, alpha, lam_min=0.0, t_min=0.0):
    """In-place iterate += alpha * step, clipping active lam/t from below.

    One axpy over the whole buffer, then one floor clip of ``lt`` on the
    active rows.  The lower bounds keep late-iteration multiplier/slack
    ratios bounded and with them the conditioning of the KKT system.  The
    step is zero on masked rows, so they stay at zero.
    """
    buf = iterate.flat()
    buf += alpha * step.flat()
    lt = iterate.lt.reshape(2, -1)
    np.maximum(lt, [[lam_min], [t_min]], out=lt, where=iterate._view.act)
    return iterate


def recover_step_absolute(iterate, iterate_full):
    """Newton step from the absolute formulation: componentwise difference.

    Cancellation warning: once the two points nearly coincide the difference
    loses relative accuracy at machine precision; this is inherent to the
    absolute formulation and the reason the delta formulation is preferred in
    the accurate modes.
    """
    return iterate_full.diff(iterate)


def check_termination(res, mu, alpha_last, it, arg):
    """Return a terminal Status or None to continue.

    Without residuals (``res is None``: the absolute formulation skips
    them in the loop) the exit tests are the duality measure, the iteration
    cap and the minimum step length only; with them, success additionally
    requires the stationarity / equality / inequality residual norms to
    meet their tolerances.  Without residuals the duality measure is
    evidence of convergence only once a step has been taken: before the
    first one it describes the starting point (and is 0 when no inequality
    row is active), so a residual-free test never succeeds at ``it == 0``.
    """
    if res is not None and not res.isfinite():
        return Status.NaNDetected
    if not np.isfinite(mu):
        return Status.NaNDetected
    # a collapsed step length means stalling, not convergence: it outranks
    # the tolerance test (success demands alpha >= ALPHA_MIN throughout)
    if alpha_last < ALPHA_MIN:
        return Status.MinStep
    if mu <= arg.tol_comp:
        if res is None:
            if it > 0:
                return Status.Success
        elif (
            res.res_g <= arg.tol_stat
            and res.res_b <= arg.tol_eq
            and res.res_d <= arg.tol_ineq
            and res.res_m <= arg.tol_comp
        ):
            return Status.Success
    if it >= arg.iter_max:
        return Status.MaxIter
    return None


def iterative_refinement(solve, apply_kkt, rhs, delta0, max_steps, stop_ratio):
    """Refine a linear-system solution against the unfactorized matrix.

    ``solve(r)`` must return x with K_fact @ x = -r (the factorization's
    solve convention), ``apply_kkt(x)`` must return K @ x for the exact,
    unregularized matrix, and ``delta0`` should satisfy
    K_fact @ delta0 = -rhs approximately.  The refinement residual is
    ``K @ delta + rhs``; each step solves the factorized system against it
    and adds the correction.

    Stops after ``max_steps`` corrections, or as soon as the residual norm is
    at most ``stop_ratio * max(1, ||rhs||_inf)``, or (divergence guard) when
    the residual norm grows for two consecutive corrections.  The best
    iterate seen is returned, so the result never has a larger residual norm
    than ``delta0``.

    Returns ``(delta, final_norm, steps_applied)``.
    """
    scale = max(1.0, _vec_norm(rhs))
    best = delta0
    res = apply_kkt(delta0) + rhs
    best_norm = _vec_norm(res)
    if max_steps <= 0 or best_norm <= stop_ratio * scale:
        return best, best_norm, 0
    delta = delta0
    norm = best_norm
    grew = 0
    steps = 0
    for _ in range(max_steps):
        corr = solve(res)
        delta = delta + corr
        steps += 1
        res = apply_kkt(delta) + rhs
        new_norm = _vec_norm(res)
        if new_norm < best_norm:
            best, best_norm = delta, new_norm
        grew = grew + 1 if new_norm >= norm else 0
        norm = new_norm
        if new_norm <= stop_ratio * scale:
            break
        if grew >= 2:
            break
    return best, best_norm, steps


def _vec_norm(v):
    return float(np.max(np.abs(v))) if v.size else 0.0
