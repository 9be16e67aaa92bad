"""The benchmark's workloads: seeded inputs, timed solves and the gate.

A workload object is built from a seed (that construction is the set-up the
benchmark times) and owns every generated QP.  The package only ever sees
those QPs.  ``solve(item, clock)`` runs one timed solve: ``clock.start()``
and ``clock.stop()`` bracket exactly the span the workload defines, and the
correctness gate runs after ``clock.stop()``, outside the timed span.

Items are grouped into units (an MPC episode, or one whole cycle over the
input set).  A run always stops at a unit boundary, so the mix of solves it
times does not depend on where the clock ran out.

Solver modules are called through their module attributes
(``solver.solve_ocp_qp``, ``condensing.condense``), so that the wrappers of
a traced run see the calls; an untraced run installs no wrappers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mpcqp import (
    MassSpringConfig,
    Status,
    TreeOcpQp,
    TreeOcpQpDim,
    compute_residuals,
    default_x0,
    gen_mass_spring,
    mass_spring_dynamics,
    mode_preset,
    qp_write,
)
from mpcqp import condensing, solver
from mpcqp.mass_spring import _shift_guess
from mpcqp.view import make_view

TOL = 1e-6
MODES = ("speed_abs", "speed", "balance", "robust")


@dataclass
class Outcome:
    """One timed solve: its time, iteration count and gate verdict."""

    seconds: float
    iterations: int
    status: str
    passed: bool
    known_defect: bool
    norms: tuple
    label: str
    item: tuple


def gate(report, qp, solution, mode, seconds, label, item):
    """Correctness gate: ``Success`` and all four recomputed norms <= TOL.

    Residuals are recomputed with ``compute_residuals`` on the original QP
    (after expansion, for a condensed solve).  A failing solve is returned
    as failed, never retried.  ``known_defect`` marks the one failure kind
    the seed is known to produce: ``speed_abs`` exits on the mean
    complementarity, so it reports ``Success`` while the largest
    complementarity product is above the tolerance.
    """
    r = compute_residuals(qp, solution)
    norms = (r.res_g, r.res_b, r.res_d, r.res_m)
    success = report.status is Status.Success
    passed = success and all(v <= TOL for v in norms)
    known = (
        not passed and success and mode == "speed_abs"
        and all(v <= TOL for v in norms[:3])
    )
    return Outcome(seconds, report.iterations, report.status.value,
                   passed, known, norms, label, item)


def _fingerprint(qps, extra, scratch):
    """SHA-256 over the text form of every QP plus extra arrays."""
    h = hashlib.sha256()
    for qp in qps:
        qp_write(scratch, qp)
        h.update(Path(scratch).read_bytes())
    for arr in extra:
        h.update(np.ascontiguousarray(arr).tobytes())
    Path(scratch).unlink()
    return h.hexdigest()


class MpcLoop:
    """Receding-horizon MPC, M=4 N=20, ``balance`` mode, shifted warm starts.

    The measured states come from the seed, never from the solver: each
    episode starts near the alternating rest state and follows the plant
    under a damping feedback plus a seeded bounded input and small
    disturbances, clipped to half the state bound.  The first step of an
    episode is a cold solve; every later step warm-starts primal-dual from
    the previous solution shifted by one stage, as ``run_closed_loop`` does.
    A timed solve spans the ``lbx``/``ubx`` writes through the returned
    report.
    """

    name = "mpc_loop"
    masses, horizon, episodes, steps = 4, 20, 32, 16
    trace_units = 3

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        M = self.masses
        nx, nu = 2 * M, M - 1
        cfg = MassSpringConfig(masses=M, horizon=self.horizon)
        A, B = mass_spring_dynamics(M, cfg.ts)
        states = np.empty((self.episodes, self.steps, nx))
        for e in range(self.episodes):
            x = rng.uniform(0.3, 1.0) * default_x0(M) + rng.uniform(-0.1, 0.1, nx)
            for k in range(self.steps):
                states[e, k] = x
                u = np.clip(-0.3 * x[M: M + nu] + rng.uniform(-0.3, 0.3, nu),
                            -cfg.u_bound, cfg.u_bound)
                x = A @ x + B @ u + rng.normal(0.0, 0.02, nx)
                x = np.clip(x, -0.5 * cfg.x_bound, 0.5 * cfg.x_bound)
        self.states = states
        self.qp = gen_mass_spring(replace(cfg, x0=states[0, 0]))
        self.cold_arg = mode_preset("balance").with_tol(TOL)
        self.warm_arg = replace(self.cold_arg, warm_start="primal_dual")
        self.units = [
            [(e, k) for k in range(self.steps)] for e in range(self.episodes)
        ]
        self._guess = None

    def solve(self, item, clock):
        e, k = item
        x = self.states[e, k]
        qp = self.qp
        guess = self._guess if k else None
        arg = self.warm_arg if guess is not None else self.cold_arg
        clock.start()
        qp.set_field("lbx", 0, x)
        qp.set_field("ubx", 0, x)
        rep = solver.solve_ocp_qp(qp, arg, guess)
        seconds = clock.stop()
        out = gate(rep, qp, rep.solution, "balance", seconds, f"ep{e} step{k}",
                   item)
        self._guess = _shift_guess(qp, make_view(qp), rep.solution,
                                   self.horizon)
        return out

    def fingerprint(self, scratch):
        return _fingerprint([self.qp], [self.states], scratch)


class ColdCondense:
    """Cold solves through full condensing over sizes and all four modes.

    Every M in {2,4,8} x N in {10,20,40} cell gets two mass-spring QPs with
    seeded initial-state scales; each QP is solved once per mode.  A timed
    solve spans ``condense`` -> ``solve_dense_qp`` -> ``expand_solution``.
    """

    name = "cold_condense"
    sizes = [(M, N) for M in (2, 4, 8) for N in (10, 20, 40)]
    scales_per_size = 2
    trace_units = 1

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.qps = []
        self.scales = []
        for M, N in self.sizes:
            for _ in range(self.scales_per_size):
                s = rng.uniform(0.5, 1.5)
                self.scales.append(s)
                self.qps.append(gen_mass_spring(MassSpringConfig(
                    masses=M, horizon=N, x0=s * default_x0(M))))
        self.args = {m: mode_preset(m).with_tol(TOL) for m in MODES}
        self.units = [[(i, m) for i in range(len(self.qps)) for m in MODES]]

    def solve(self, item, clock):
        i, mode = item
        qp = self.qps[i]
        clock.start()
        dense, cmap = condensing.condense(qp)
        rep = solver.solve_dense_qp(dense, self.args[mode])
        sol = condensing.expand_solution(rep.solution, cmap, qp)
        seconds = clock.stop()
        M, N = self.sizes[i // self.scales_per_size]
        return gate(rep, qp, sol, mode, seconds,
                    f"M{M} N{N} x{self.scales[i]:.3f} {mode}", item)

    def fingerprint(self, scratch):
        return _fingerprint(self.qps, [], scratch)


def scenario_tree(rng, masses, horizon, branch_levels, ts, ts_spread):
    """Robust-MPC scenario tree on mass-spring dynamics.

    Every node above ``branch_levels`` has two children, later nodes one.
    Each node created by a branching draws its own sampling time
    ``ts * (1 + U(-ts_spread, ts_spread))``, which the chain below it
    inherits; stage costs are weighted by the node's probability.  The root
    state is the alternating rest state.
    """
    parents, ts_of, prob, level = [-1], [ts], [1.0], [0]
    frontier = [0]
    for lev in range(1, horizon + 1):
        nxt = []
        for p in frontier:
            k = 2 if lev <= branch_levels else 1
            for _ in range(k):
                nxt.append(len(parents))
                parents.append(p)
                level.append(lev)
                prob.append(prob[p] / k)
                ts_of.append(ts * (1.0 + rng.uniform(-ts_spread, ts_spread))
                             if k == 2 else ts_of[p])
        frontier = nxt
    M = masses
    nx, nu_full = 2 * M, M - 1
    n_node = len(parents)
    nu = [0 if level[m] == horizon else nu_full for m in range(n_node)]
    dim = TreeOcpQpDim(parents, nx=[nx] * n_node, nu=nu,
                       nb=[nu[m] + nx for m in range(n_node)])
    qp = TreeOcpQp(dim)
    cfg = MassSpringConfig(masses=M)
    dynamics = {}
    for m in range(n_node):
        qp.set_field("Q", m, prob[m] * np.eye(nx))
        if nu[m]:
            qp.set_field("R", m, prob[m] * np.eye(nu[m]))
        qp.set_field("idxb", m, np.arange(nu[m] + nx))
        lb = np.concatenate([-cfg.u_bound * np.ones(nu[m]),
                             -cfg.x_bound * np.ones(nx)])
        qp.set_field("lb", m, lb)
        qp.set_field("ub", m, -lb)
        if m:
            if ts_of[m] not in dynamics:
                dynamics[ts_of[m]] = mass_spring_dynamics(M, ts_of[m])
            A, B = dynamics[ts_of[m]]
            qp.set_field("A", m, A)
            qp.set_field("B", m, B)
    qp.set_field("lbx", 0, default_x0(M))
    qp.set_field("ubx", 0, default_x0(M))
    return qp


class ScenarioTree:
    """Cold solves of binary scenario trees, alternating speed and robust.

    24 trees (M=3, N=8, binary branching over the first two stages:
    31 nodes), each with seeded per-branch sampling times, solved through
    ``solve_tree_ocp_qp``.  The initial state is fixed: a seeded scale made
    the iteration count, and with it the median, drift from seed to seed.
    """

    name = "scenario_tree"
    trees, masses, horizon, branch_levels = 24, 3, 8, 2
    modes = ("speed", "robust")
    trace_units = 1

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.qps = [
            scenario_tree(rng, self.masses, self.horizon, self.branch_levels,
                          ts=0.5, ts_spread=0.1)
            for _ in range(self.trees)
        ]
        self.args = {m: mode_preset(m).with_tol(TOL) for m in self.modes}
        self.units = [[(i, m) for i in range(self.trees) for m in self.modes]]

    def solve(self, item, clock):
        i, mode = item
        qp = self.qps[i]
        clock.start()
        rep = solver.solve_tree_ocp_qp(qp, self.args[mode])
        seconds = clock.stop()
        return gate(rep, qp, rep.solution, mode, seconds, f"tree{i} {mode}",
                    item)

    def fingerprint(self, scratch):
        return _fingerprint(self.qps, [], scratch)


WORKLOADS = {cls.name: cls for cls in (MpcLoop, ColdCondense, ScenarioTree)}
