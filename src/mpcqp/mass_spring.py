"""Scalable mass-spring benchmark: problem generator and MPC drivers.

The plant is a horizontal chain of M unit masses connected to each other and
to walls at both ends by unit springs; the first M - 1 masses are actuated
by forces.  With positions p and velocities v the continuous-time dynamics
are

    d/dt [p; v] = [[0, I], [T, 0]] [p; v] + [[0], [E]] u

where T is the tridiagonal stiffness matrix (-2 on the diagonal, +1 off) and
E selects the actuated masses.  The state dimension is nx = 2M, the input
dimension nu = M - 1, and with box constraints on all states and inputs each
stage carries nb = nx + nu = 3M - 1 box rows (the terminal stage has no
inputs).  Discretization is exact through the matrix exponential of the
augmented system, which keeps the marginally stable oscillator on the unit
circle regardless of the sampling time.

Benchmark defaults (configuration, not physics): sampling time 0.5 s, input
bounds |u| <= 0.5, state bounds |x| <= 4, unit quadratic weights, and an
alternating-position initial state of amplitude 0.6.  The initial state is
imposed through equal lower and upper bounds on the stage-0 state box rows.

``run_closed_loop`` simulates MPC on the exact discrete plant with solution
shifting and warm starts; ``run_scaling`` measures runtimes and
deterministic kernel flop counts over a grid of sizes, modes and solve
paths, running a fixed iteration count per solve (early exits disabled by
tolerances set to the smallest positive float).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import ClosedLoopFailed, InvalidConfig
from .ipm_core import Status, mode_preset
from .qp_data import OcpQp, OcpQpDim
from .solver import solve_ocp_qp, solve_path
from .view import QpSolution, make_view

__all__ = [
    "MassSpringConfig",
    "gen_mass_spring",
    "mass_spring_dynamics",
    "default_x0",
    "run_closed_loop",
    "run_scaling",
    "ClosedLoopResult",
]


@dataclass
class MassSpringConfig:
    """Benchmark configuration; see the module docstring for the model."""

    masses: int = 2
    horizon: int = 10
    ts: float = 0.5
    x0: object = None          # defaults to default_x0(masses)
    u_bound: float = 0.5
    x_bound: float = 4.0

    def validate(self):
        if self.masses < 2:
            raise InvalidConfig("need at least 2 masses")
        if self.horizon < 1:
            raise InvalidConfig("horizon must be >= 1")
        if self.ts <= 0.0:
            raise InvalidConfig("sampling time must be > 0")
        if self.u_bound <= 0.0 or self.x_bound <= 0.0:
            raise InvalidConfig("bounds must be > 0")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (2 * self.masses,):
                raise InvalidConfig(
                    f"x0 must have {2 * self.masses} entries, got {x0.shape}"
                )
            if np.any(np.abs(x0) > self.x_bound):
                raise InvalidConfig("x0 violates the state bounds")
        return self


def default_x0(masses):
    """Alternating-position rest state used when no initial state is given.

    Amplitude 0.6 displaces every mass against its neighbors, saturates the
    input bounds during the transient, and keeps the zero-input trajectory
    well inside the state bounds.
    """
    x0 = np.zeros(2 * masses)
    x0[:masses] = 0.6 * (-1.0) ** np.arange(masses)
    return x0


def mass_spring_dynamics(masses, ts):
    """Exactly discretized (A, B) of the chain for one sampling interval."""
    M = masses
    T = -2.0 * np.eye(M) + np.diag(np.ones(M - 1), 1) + np.diag(np.ones(M - 1), -1)
    nx = 2 * M
    nu = M - 1
    Ac = np.zeros((nx, nx))
    Ac[:M, M:] = np.eye(M)
    Ac[M:, :M] = T
    Bc = np.zeros((nx, nu))
    Bc[M:, :nu] = np.eye(M)[:, :nu]
    aug = np.zeros((nx + nu, nx + nu))
    aug[:nx, :nx] = Ac
    aug[:nx, nx:] = Bc
    E = scipy.linalg.expm(aug * ts)
    return E[:nx, :nx], E[:nx, nx:]


def gen_mass_spring(cfg):
    """Build the benchmark OCP QP for one configuration."""
    cfg.validate()
    M, N = cfg.masses, cfg.horizon
    nx, nu = 2 * M, M - 1
    A, B = mass_spring_dynamics(M, cfg.ts)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else default_x0(M)
    dim = OcpQpDim(
        N,
        nx=[nx] * (N + 1),
        nu=[nu] * N + [0],
        nb=[nu + nx] * N + [nx],
        ng=[0] * (N + 1),
        ns=[0] * (N + 1),
    )
    qp = OcpQp(dim)
    for n in range(N):
        qp.set_field("A", n, A)
        qp.set_field("B", n, B)
        qp.set_field("Q", n, np.eye(nx))
        qp.set_field("R", n, np.eye(nu))
        qp.set_field("idxb", n, np.arange(nu + nx))
        lb = np.concatenate([-cfg.u_bound * np.ones(nu), -cfg.x_bound * np.ones(nx)])
        ub = -lb
        qp.set_field("lb", n, lb)
        qp.set_field("ub", n, ub)
    qp.set_field("Q", N, np.eye(nx))
    qp.set_field("idxb", N, np.arange(nx))
    qp.set_field("lb", N, -cfg.x_bound * np.ones(nx))
    qp.set_field("ub", N, cfg.x_bound * np.ones(nx))
    qp.set_field("lbx", 0, x0)
    qp.set_field("ubx", 0, x0)
    return qp


def _shift_guess(qp, view, sol, N):
    """One-stage shift of a solution, repeating the last input.

    The terminal state is rolled once more through the dynamics so the
    shifted trajectory satisfies every dynamics row exactly; only the
    repeated last input and the stale tail multipliers are approximate.
    """
    g = QpSolution(view)
    g.y[:] = sol.y
    g.pi[:] = sol.pi
    g.lam[:] = sol.lam
    g.t[:] = sol.t
    for n in range(N - 1):
        g.x(n)[:] = sol.x(n + 1)
        if g.u(n).shape == sol.u(n + 1).shape:
            g.u(n)[:] = sol.u(n + 1)
        g.pi_stage(n)[:] = sol.pi_stage(n + 1)
        if g.lam_stage(n).shape == sol.lam_stage(n + 1).shape:
            g.lam_stage(n)[:] = sol.lam_stage(n + 1)
            g.t_stage(n)[:] = sol.t_stage(n + 1)
    g.x(N - 1)[:] = sol.x(N)
    dyn = qp._dyn[N - 1]
    g.x(N)[:] = dyn["A"] @ g.x(N - 1) + dyn["B"] @ g.u(N - 1) + dyn["b"]
    # the initial-state equal-bound rows carry the initial-state dual; the
    # shifted stage-1 values say nothing about it, so rebuild those
    # multipliers from the stage-0 stationarity gap
    cb = view.blocks[0]
    nu0 = qp.dim.nu[0]
    xrows = [(i, k - nu0) for i, k in enumerate(cb.idxb) if k >= nu0]
    if xrows:
        lam0 = g.lam_stage(0)
        t0 = g.t_stage(0)
        for i, _ in xrows:
            lam0[i] = 0.0
            lam0[cb.m + i] = 0.0
        gap = view.residuals(g).r_g[view.x_off[0]: view.x_off[0] + qp.dim.nx[0]]
        for i, c in xrows:
            if gap[c] >= 0.0:
                lam0[i] = gap[c]
            else:
                lam0[cb.m + i] = -gap[c]
            t0[i] = 0.0
            t0[cb.m + i] = 0.0
    return g


@dataclass
class StepRecord:
    step: int
    status: str
    iterations: int
    cold_iterations: object = None


@dataclass
class ClosedLoopResult:
    records: list
    states: np.ndarray     # (steps + 1, nx)
    inputs: np.ndarray     # (steps, nu)

    @property
    def total_iterations(self):
        return sum(r.iterations for r in self.records)

    @property
    def total_cold_iterations(self):
        vals = [r.cold_iterations for r in self.records]
        return None if any(v is None for v in vals) else sum(vals)


def run_closed_loop(cfg, steps, arg=None, warm_start="primal_dual",
                    compare_cold=False):
    """Closed-loop MPC on the exact discrete plant with shifted warm starts.

    At every step the OCP QP is solved for the current state, the first
    input is applied to the plant, and the shifted solution seeds the next
    solve.  With ``compare_cold`` the same QP is additionally solved cold
    (without affecting the trajectory) for paired iteration counts.

    Raises :class:`ClosedLoopFailed` with the failing step index if any
    controller solve does not succeed.
    """
    cfg.validate()
    if steps < 1:
        raise InvalidConfig("steps must be >= 1")
    arg = arg or mode_preset("balance").with_tol(1e-6)
    M, N = cfg.masses, cfg.horizon
    nx, nu = 2 * M, M - 1
    A, B = mass_spring_dynamics(M, cfg.ts)
    x = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else default_x0(M)
    qp = gen_mass_spring(replace(cfg, x0=x))
    states = np.zeros((steps + 1, nx))
    inputs = np.zeros((steps, nu))
    states[0] = x
    records = []
    guess = None
    for k in range(steps):
        qp.set_field("lbx", 0, x)
        qp.set_field("ubx", 0, x)
        view = make_view(qp)
        step_arg = replace(arg, warm_start=warm_start if guess is not None
                           else "none")
        rep = solve_ocp_qp(qp, step_arg, guess)
        cold_iters = None
        if compare_cold:
            cold_rep = solve_ocp_qp(qp, replace(arg, warm_start="none"))
            cold_iters = cold_rep.iterations
        records.append(StepRecord(
            step=k, status=rep.status.value, iterations=rep.iterations,
            cold_iterations=cold_iters,
        ))
        if rep.status is not Status.Success:
            raise ClosedLoopFailed(
                f"controller solve failed at step {k} "
                f"with status {rep.status.value}", step=k,
            )
        u0 = rep.solution.u(0).copy()
        inputs[k] = u0
        x = A @ x + B @ u0
        states[k + 1] = x
        guess = _shift_guess(qp, view, rep.solution, N)
    return ClosedLoopResult(records=records, states=states, inputs=inputs)


@dataclass
class ScalingCell:
    masses: int
    horizon: int
    mode: str
    path: str
    reps: int
    iterations: int
    status: str
    flops: int
    median_seconds: float


def run_scaling(masses, horizons, modes, reps=3, paths=("ocp",), iter_max=10):
    """Runtime / flop table over a grid of sizes, modes and solve paths.

    Every solve runs exactly ``iter_max`` iterations (exit tolerances are
    dropped to the smallest positive double so the tolerance tests never
    fire), mirroring fixed-iteration timing protocols.  Flop counts come
    from the deterministic kernel counters and are identical across
    repetitions; wall times are medians over ``reps`` runs.
    """
    if not masses or not horizons or not modes:
        raise InvalidConfig("masses, horizons and modes must be nonempty")
    if reps < 1:
        raise InvalidConfig("reps must be >= 1")
    tiny = 5e-324
    cells = []
    for M in masses:
        for N in horizons:
            cfg = MassSpringConfig(masses=M, horizon=N)
            qp = gen_mass_spring(cfg)
            for mode in modes:
                arg = replace(
                    mode_preset(mode), iter_max=iter_max,
                    tol_stat=tiny, tol_eq=tiny, tol_ineq=tiny, tol_comp=tiny,
                )
                for path in paths:
                    times = []
                    flops = None
                    rep = None
                    for _ in range(reps):
                        t0 = time.perf_counter()
                        rep = solve_path(qp, path, arg)[0]
                        times.append(time.perf_counter() - t0)
                        if flops is None:
                            flops = rep.stats.flops
                        elif flops != rep.stats.flops:
                            raise RuntimeError(
                                "nondeterministic flop count across repetitions"
                            )
                    cells.append(ScalingCell(
                        masses=M, horizon=N, mode=mode, path=path, reps=reps,
                        iterations=rep.iterations, status=rep.status.value,
                        flops=flops,
                        median_seconds=float(np.median(times)),
                    ))
    return cells
