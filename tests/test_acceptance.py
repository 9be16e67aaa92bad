"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Expected values come from hand computations, from the dense
full-system Newton oracle, or from independent reconstructions (prediction
matrices, plain fixed-point iteration, explicit-slack reformulations); no
criterion checks an implementation against itself.
"""

from pathlib import Path

import numpy as np
import pytest

import mpcqp.kkt_dense as kkt_dense
import mpcqp.kkt_ocp as kkt_ocp
from mpcqp import (
    DenseQp,
    IpmArg,
    MassSpringConfig,
    OcpQp,
    OcpQpDim,
    Status,
    compute_residuals,
    condense,
    expand_solution,
    flop_counter,
    gen_mass_spring,
    mode_preset,
    objective,
    partial_condense,
    partial_expand,
    qp_read,
    qp_write,
    run_closed_loop,
    solve_dense_qp,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.ipm_core import iterative_refinement
from mpcqp.kkt_common import kkt_apply_vec, kkt_rhs_flat
from mpcqp.view import QpSolution, make_view, solve_full_kkt

from conftest import (
    maxabs,
    ocp_chain_as_tree,
    rand_dense_qp,
    rand_iterate,
    rand_ocp_qp,
    rand_tree_qp,
    soft_as_hard_dense,
)


def _ok(num, desc):
    print(f"[criterion {num:2d}] PASS  {desc}")


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


# ---------------------------------------------------------------------------
# 1. KKT-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_kkt_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        nv = int(rng.integers(3, 21))
        ne = int(rng.integers(0, min(6, nv)))
        nb = int(rng.integers(1, min(nv, 9) + 1))
        ng = int(rng.integers(0, 7))
        ns = int(rng.integers(0, min(nb + ng, 6)))
        qp = rand_dense_qp(rng, nv=nv, ne=ne, nb=nb, ng=ng, ns=ns)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = kkt_dense.factor(qp, it, IpmArg()).solve(
            res.r_g, res.r_b, res.r_d, rm)
        err = maxabs(step.flat() - ref.flat()) / (1.0 + maxabs(ref.flat()))
        worst = max(worst, err)
        assert err <= 1e-8
    for _ in range(50):
        N = int(rng.integers(1, 9))
        nx = int(rng.integers(2, 7))
        nu = int(rng.integers(1, 4))
        qp = rand_ocp_qp(rng, N=N, nx=nx, nu=nu,
                         fix_x0=bool(rng.integers(0, 2)))
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = kkt_ocp.riccati_factor(qp, it).solve(
            res.r_g, res.r_b, res.r_d, rm)
        err = maxabs(step.flat() - ref.flat()) / (1.0 + maxabs(ref.flat()))
        worst = max(worst, err)
        assert err <= 1e-8
    _ok(1, f"dense/Riccati Newton steps vs full-system oracle "
           f"(100 instances, worst rel err {worst:.2e} <= 1e-8)")


# ---------------------------------------------------------------------------
# 2. Riccati hand-check
# ---------------------------------------------------------------------------

def test_criterion_02_riccati_hand_check():
    qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0]))
    qp.set_field("Q", 0, [[1.0]])
    qp.set_field("R", 0, [[1.0]])
    qp.set_field("Q", 1, [[1.0]])
    qp.set_field("A", 0, [[1.0]])
    qp.set_field("B", 0, [[1.0]])
    fac = kkt_ocp.riccati_factor(qp, QpSolution(make_view(qp)))
    assert abs(fac.p_matrix(0)[0, 0] - 1.5) <= 1e-12
    assert abs(fac.K[0][0, 0] + 0.5) <= 1e-12
    x0 = 3.0
    u0 = fac.K[0][0, 0] * x0
    assert abs(u0 + 0.5 * x0) <= 1e-12
    _ok(2, "scalar one-stage regulator: P0 = 1.5, K0 = -0.5, "
           "u0 = -0.5 x0 to 1e-12")


# ---------------------------------------------------------------------------
# 3. IPM convergence on the mass-spring benchmark
# ---------------------------------------------------------------------------

def test_criterion_03_benchmark_convergence():
    lines = []
    for M in (2, 4):
        qp = gen_mass_spring(MassSpringConfig(masses=M, horizon=10))
        assert qp.dim.nx[0] == 2 * M
        assert qp.dim.nu[0] == M - 1
        assert qp.dim.nb[0] == 3 * M - 1
        for mode in ("speed", "balance", "robust"):
            rep = solve_ocp_qp(qp, mode_preset(mode).with_tol(1e-6))
            assert rep.status is Status.Success, (M, mode)
            assert rep.iterations <= 15, (M, mode, rep.iterations)
            res = compute_residuals(qp, rep.solution)
            assert res.max_norm() <= 1e-6, (M, mode)
            lines.append(f"M={M}/{mode}:{rep.iterations}")
        rep = solve_ocp_qp(qp, mode_preset("speed_abs").with_tol(1e-6))
        assert rep.status is Status.Success
        assert rep.iterations <= 15
        assert rep.residuals.mu <= 1e-6
        lines.append(f"M={M}/speed_abs:{rep.iterations}")
    _ok(3, "mass-spring M in {2,4}, N=10 within 15 iterations at 1e-6 "
           f"({', '.join(lines)})")


# ---------------------------------------------------------------------------
# 4. Condensing equivalence
# ---------------------------------------------------------------------------

def test_criterion_04_condensing_equivalence():
    rng = np.random.default_rng(104)
    arg = mode_preset("speed").with_tol(1e-9)
    for trial in range(12):
        qp = rand_ocp_qp(rng, N=int(rng.integers(2, 8)), nx=3, nu=2,
                         fix_x0=bool(trial % 2))
        direct = solve_ocp_qp(qp, arg)
        dense, cmap = condense(qp)
        rep = solve_dense_qp(dense, arg)
        esol = expand_solution(rep.solution, cmap, qp)
        for n in range(qp.dim.N):
            assert maxabs(direct.solution.u(n) - esol.u(n)) <= 1e-6
            assert maxabs(direct.solution.x(n) - esol.x(n)) <= 1e-6
        dobj = abs(objective(qp, direct.solution) - objective(qp, esol))
        assert dobj <= 1e-8 * (1.0 + abs(objective(qp, esol)))
    # block size one: solution identity
    qp = rand_ocp_qp(rng, N=6, nx=3, nu=2, fix_x0=True)
    qp1, pmap1 = partial_condense(qp, 1)
    r0 = solve_ocp_qp(qp, arg)
    r1 = solve_ocp_qp(qp1, arg)
    e1 = partial_expand(r1.solution, pmap1, qp)
    assert maxabs(e1.flat() - r0.solution.flat()) <= 1e-12 * (
        1.0 + maxabs(r0.solution.flat()))
    # full-horizon block matches full condensing
    qpN, pmapN = partial_condense(qp, qp.dim.N)
    rN = solve_ocp_qp(qpN, arg)
    eN = partial_expand(rN.solution, pmapN, qp)
    denseF, cmapF = condense(qp, keep_x0=True)
    rF = solve_dense_qp(denseF, arg)
    eF = expand_solution(rF.solution, cmapF, qp)
    for n in range(qp.dim.N):
        assert maxabs(eN.u(n) - eF.u(n)) <= 1e-6
    # horizon arithmetic
    qp40 = rand_ocp_qp(rng, N=40, nx=2, nu=1, ng=0, ns=0)
    qp5, _ = partial_condense(qp40, 8)
    assert qp5.dim.N == 5
    _ok(4, "direct vs condensed solves agree (primal 1e-6, objective 1e-8); "
           "block size 1 is the identity; N=40/N1=8 gives horizon 5")


# ---------------------------------------------------------------------------
# 5. Tree correctness
# ---------------------------------------------------------------------------

def test_criterion_05_tree_correctness():
    rng = np.random.default_rng(105)
    arg = mode_preset("speed").with_tol(1e-8)
    # chain tree vs plain horizon solve
    for _ in range(3):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        tqp = ocp_chain_as_tree(qp)
        r1 = solve_ocp_qp(qp, arg)
        r2 = solve_tree_ocp_qp(tqp, arg)
        assert r1.status is Status.Success and r2.status is Status.Success
        assert maxabs(r1.solution.y - r2.solution.y) <= 1e-10
    # binary trees up to depth 3 vs the dense oracle
    for depth in (2, 3):
        parents = [-1] + [(m - 1) // 2 for m in range(1, 2 ** (depth + 1) - 1)]
        qp = rand_tree_qp(rng, parents)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = kkt_ocp.riccati_factor(qp, it).solve(
            res.r_g, res.r_b, res.r_d, rm)
        err = maxabs(step.flat() - ref.flat()) / (1.0 + maxabs(ref.flat()))
        assert err <= 1e-8
    # symmetric branches give identical branch solutions
    qp = rand_tree_qp(rng, [-1, 0, 0])
    for f in ("Q", "R", "S", "q", "r", "idxb", "lb", "ub", "C", "D",
              "lg", "ug", "idxs", "Zl", "Zu", "zl", "zu",
              "sl_lb", "su_lb", "maskl", "masku", "A", "B", "b"):
        qp.set_field(f, 2, qp.get_field(f, 1))
    rep = solve_tree_ocp_qp(qp, arg)
    assert rep.status is Status.Success
    assert maxabs(rep.solution.x(1) - rep.solution.x(2)) == 0.0
    assert maxabs(rep.solution.u(1) - rep.solution.u(2)) == 0.0
    _ok(5, "chain tree equals horizon solve to 1e-10; binary-tree steps "
           "match the oracle to 1e-8; symmetric branches are identical")


# ---------------------------------------------------------------------------
# 6. Soft-constraint elimination
# ---------------------------------------------------------------------------

def test_criterion_06_soft_constraint_elimination():
    rng = np.random.default_rng(106)
    arg = mode_preset("speed").with_tol(1e-9)
    for _ in range(8):
        qp = rand_dense_qp(rng, nv=6, ne=1, nb=3, ng=2, ns=2,
                           mask_first=False)
        hard, rowmap = soft_as_hard_dense(qp)
        r_soft = solve_dense_qp(qp, arg)
        r_hard = solve_dense_qp(hard, arg)
        assert r_soft.status is Status.Success
        assert r_hard.status is Status.Success
        nv, ns = qp.nv, qp.ns
        # primal: v, then the slacks as ordinary variables
        assert maxabs(r_soft.solution.v - r_hard.solution.v[:nv]) <= 1e-7
        assert maxabs(r_soft.solution.sl_all
                      - r_hard.solution.v[nv: nv + ns]) <= 1e-7
        assert maxabs(r_soft.solution.su_all
                      - r_hard.solution.v[nv + ns:]) <= 1e-7
        assert maxabs(r_soft.solution.pi - r_hard.solution.pi) <= 1e-7
        # multipliers row by row
        m1 = qp.nb + qp.ng
        m2 = hard.nb + hard.ng
        lam_s, lam_h = r_soft.solution.lam, r_hard.solution.lam
        for i, pos in rowmap["hard_box"].items():
            assert abs(lam_s[i] - lam_h[pos]) <= 1e-7
            assert abs(lam_s[m1 + i] - lam_h[m2 + pos]) <= 1e-7
        for i, pos in rowmap["hard_gen"].items():
            assert abs(lam_s[i] - lam_h[hard.nb + pos]) <= 1e-7
            assert abs(lam_s[m1 + i] - lam_h[m2 + hard.nb + pos]) <= 1e-7
        for i, (j, lo_pos, up_pos) in rowmap["soft"].items():
            assert abs(lam_s[i] - lam_h[hard.nb + lo_pos]) <= 1e-7
            assert abs(lam_s[m1 + i] - lam_h[m2 + hard.nb + up_pos]) <= 1e-7
        for j, (sl_pos, su_pos) in rowmap["slack_bnd"].items():
            assert abs(lam_s[2 * m1 + j] - lam_h[sl_pos]) <= 1e-7
            assert abs(lam_s[2 * m1 + ns + j] - lam_h[su_pos]) <= 1e-7
    _ok(6, "soft-constraint elimination path matches the explicit-slack "
           "reformulation to 1e-7 in primal and multipliers (8 instances)")


# ---------------------------------------------------------------------------
# 7. Complexity by operation counting
# ---------------------------------------------------------------------------

def test_criterion_07_complexity_counting():
    rng = np.random.default_rng(107)

    def horizon_count(N):
        qp = rand_ocp_qp(rng, N=N, nx=4, nu=2)
        it = rand_iterate(rng, qp)
        with flop_counter() as fc:
            kkt_ocp.riccati_factor(qp, it)
        return fc.flops

    c8, c16, c32 = horizon_count(8), horizon_count(16), horizon_count(32)
    assert 0.9 * 2 <= c16 / c8 <= 1.1 * 2
    assert 0.9 * 2 <= c32 / c16 <= 1.1 * 2

    def tree_count(depth):
        parents = [-1] + [(m - 1) // 2 for m in range(1, 2 ** (depth + 1) - 1)]
        qp = rand_tree_qp(rng, parents)
        it = rand_iterate(rng, qp)
        with flop_counter() as fc:
            kkt_ocp.riccati_factor(qp, it)
        return fc.flops, len(parents)

    (f3, n3), (f4, n4) = tree_count(3), tree_count(4)
    assert abs(f4 / f3 - n4 / n3) <= 0.1 * (n4 / n3)
    _ok(7, f"factor-sweep flops double with the horizon "
           f"({c16 / c8:.3f}, {c32 / c16:.3f}) and scale with the node count "
           f"({f4 / f3:.3f} vs {n4 / n3:.3f})")


# ---------------------------------------------------------------------------
# 8. Mode robustness ordering on a curated ill-conditioned set
# ---------------------------------------------------------------------------

def _illcond_instance(rng, nv, spectrum, active, equal=(), degen=(),
                      dup_row=False):
    """Dense QP with a verified analytic optimality point (certificate)."""
    Q, _ = np.linalg.qr(rng.standard_normal((nv, nv)))
    H = (Q * spectrum) @ Q.T
    H = 0.5 * (H + H.T)
    vstar = rng.standard_normal(nv)
    ng = 1 if dup_row else 0
    qp = DenseQp(nv, 0, nv, ng, 0)
    qp.set_field("H", H)
    lb = vstar - rng.uniform(1.0, 2.0, nv)
    ub = vstar + rng.uniform(1.0, 2.0, nv)
    lam_lo = np.zeros(nv + ng)
    lam_up = np.zeros(nv + ng)
    for k, (side, lam) in active.items():
        if side == "lo":
            lb[k] = vstar[k]
            lam_lo[k] = lam
        else:
            ub[k] = vstar[k]
            lam_up[k] = lam
    for k in equal:
        lb[k] = ub[k] = vstar[k]
        nu_val = rng.standard_normal()
        lam_lo[k] = max(nu_val, 0.0)
        lam_up[k] = max(-nu_val, 0.0)
    for k in degen:
        lb[k] = vstar[k]    # active at the optimum with zero multiplier
    qp.set_field("idxb", np.arange(nv))
    qp.set_field("lb", lb)
    qp.set_field("ub", ub)
    g = -H @ vstar + lam_lo[:nv] - lam_up[:nv]
    if dup_row:
        crow = np.zeros(nv)
        crow[0] = 1.0
        crow[1] = 1e-9   # nearly identical to the first box row
        qp.set_field("C", crow.reshape(1, -1))
        qp.set_field("lg", [crow @ vstar])
        qp.set_field("ug", [crow @ vstar + 3.0])
        lam_lo[nv] = 0.7
        g += crow * lam_lo[nv]
    qp.set_field("g", g)
    vw = make_view(qp)
    sol = QpSolution(vw)
    sol.v[:] = vstar
    m = nv + ng
    cy = vw.cy(sol.y)
    sol.t[:] = np.clip(np.where(vw.act, cy - vw.d, 0.0), 0.0, None)
    sol.lam[:m] = lam_lo
    sol.lam[m: 2 * m] = lam_up
    cert = compute_residuals(qp, sol).max_norm()
    return qp, cert


def test_criterion_08_mode_robustness_ordering():
    rng = np.random.default_rng(99)
    instances = []
    for c in (-10, -11, -12):
        instances.append(_illcond_instance(
            rng, 6, np.logspace(0, c, 6), {}))
    for c in (-10, -10, -11):
        instances.append(_illcond_instance(
            rng, 6, np.logspace(0, c, 6), {0: ("lo", 1.3), 3: ("up", 0.4)}))
    for c in (-8, -10, -10):
        instances.append(_illcond_instance(
            rng, 8, np.logspace(0, c, 8), {1: ("lo", 2.0)}, equal=(2, 5)))
    for c in (-10, -6):
        instances.append(_illcond_instance(
            rng, 6, np.logspace(0, c, 6), {}, degen=(0, 2)))
    instances.append(_illcond_instance(
        rng, 6, np.logspace(0, -10, 6), {0: ("lo", 0.5)}, dup_row=True))
    assert len(instances) >= 10
    certified = []
    for qp, cert in instances:
        assert cert <= 1e-9   # analytic optimality point verifies
        certified.append(qp)
    counts = {}
    robust_solved_all = True
    for mode in ("speed_abs", "speed", "balance", "robust"):
        arg = mode_preset(mode).with_tol(1e-6)
        arg.iter_max = 50
        n_ok = 0
        for qp in certified:
            rep = solve_dense_qp(qp, arg)
            # success must survive an independent residual evaluation (the
            # duality-measure-only exit of speed_abs may report success on a
            # point whose true residuals are inaccurate)
            ok = (rep.status is Status.Success
                  and compute_residuals(qp, rep.solution).max_norm() <= 1e-6)
            n_ok += ok
            if mode == "robust" and not ok:
                robust_solved_all = False
        counts[mode] = n_ok
    assert counts["robust"] >= counts["balance"] >= counts["speed"] \
        >= counts["speed_abs"]
    assert robust_solved_all
    assert counts["speed_abs"] < len(certified)  # the fragile mode does fail
    _ok(8, f"verified-success counts on {len(certified)} ill-conditioned "
           f"instances: robust {counts['robust']} >= balance "
           f"{counts['balance']} >= speed {counts['speed']} >= speed_abs "
           f"{counts['speed_abs']}; robust solved every certified instance")


# ---------------------------------------------------------------------------
# 9. Iterative refinement efficacy
# ---------------------------------------------------------------------------

def test_criterion_09_refinement_efficacy():
    rng = np.random.default_rng(109)
    checked = 0
    for kind in ("dense", "ocp"):
        for _ in range(5):
            if kind == "dense":
                qp = rand_dense_qp(rng, nv=7, ne=2, nb=3, ng=2, ns=1)
                fac_fun = lambda q, i, a: kkt_dense.factor(q, i, a)
            else:
                qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
                fac_fun = lambda q, i, a: kkt_ocp.riccati_factor(q, i, arg=a)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            fac = fac_fun(qp, it, IpmArg(reg_prim=1e-6))
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            lam_m = np.where(vw.act, it.lam, 0.0)
            t_m = np.where(vw.act, it.t, 0.0)
            rhs = kkt_rhs_flat(vw, res.r_g, res.r_b, res.r_d, rm)
            apply = lambda x: kkt_apply_vec(vw, lam_m, t_m, x)
            n0 = maxabs(apply(step.flat()) + rhs)
            _, n1, _ = iterative_refinement(
                fac.solve_flat, apply, rhs, step.flat(), 1, 0.0)
            _, n3, _ = iterative_refinement(
                fac.solve_flat, apply, rhs, step.flat(), 3, 0.0)
            assert n1 < n0     # one step strictly reduces the residual
            assert n3 <= n1    # more steps never increase it
            checked += 1
    _ok(9, f"with reg 1e-6 the refined step strictly reduces the KKT "
           f"residual on all {checked} instances and never increases it")


# ---------------------------------------------------------------------------
# 10. Warm starts in the closed loop
# ---------------------------------------------------------------------------

def test_criterion_10_warm_start_closed_loop():
    cfg = MassSpringConfig(masses=2, horizon=10)
    res = run_closed_loop(cfg, 50, mode_preset("speed").with_tol(1e-6),
                          compare_cold=True)
    warm = [r.iterations for r in res.records]
    cold = [r.cold_iterations for r in res.records]
    assert all(w <= c for w, c in zip(warm, cold))
    assert sum(warm) < sum(cold)
    _ok(10, f"50-step closed loop: warm-start iterations <= cold at every "
            f"step, totals {sum(warm)} < {sum(cold)}")


# ---------------------------------------------------------------------------
# 11. Determinism and file round-trip
# ---------------------------------------------------------------------------

def test_criterion_11_determinism_and_roundtrip(tmp_path):
    from mpcqp.cli import main as cli_main

    qpf = str(tmp_path / "ms.qp")
    cli_main(["gen-mass-spring", "--masses", "3", "--horizon", "10",
              "--out", qpf])
    r1 = str(tmp_path / "r1.txt")
    r2 = str(tmp_path / "r2.txt")
    assert cli_main(["solve", "--qp", qpf, "--mode", "balance",
                     "--report", r1]) == 0
    assert cli_main(["solve", "--qp", qpf, "--mode", "balance",
                     "--report", r2]) == 0
    assert Path(r1).read_bytes() == Path(r2).read_bytes()
    rng = np.random.default_rng(111)
    qps = [
        rand_dense_qp(rng),
        rand_ocp_qp(rng, N=3, nx=3, nu=2, fix_x0=True),
        rand_tree_qp(rng, [-1, 0, 0, 1]),
    ]
    for i, qp in enumerate(qps):
        path = str(tmp_path / f"rt{i}.qp")
        qp_write(path, qp)
        qp2 = qp_read(path)
        path2 = str(tmp_path / f"rt{i}b.qp")
        qp_write(path2, qp2)
        assert Path(path).read_bytes() == Path(path2).read_bytes()
    _ok(11, "bit-identical solve reports on identical runs; lossless QP "
            "file round-trips for all three problem kinds")
