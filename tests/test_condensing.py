import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcqp import (
    CondenseError,
    InvalidBlockSize,
    MassSpringConfig,
    OcpQp,
    OcpQpDim,
    QpSolution,
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
    solve_dense_qp,
    solve_ocp_qp,
)
from mpcqp import view
from mpcqp.condensing import _runs
from mpcqp.qp_data import ROW_FIELDS
from mpcqp.view import make_view

from conftest import (
    condense_ref,
    expand_ref,
    maxabs,
    prediction_matrix_hessian,
    rand_iterate,
    rand_mixed_ocp_qp,
    rand_ocp_qp,
    ref_sub_qp,
)


def scalar_example():
    qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[1, 0]))
    qp.set_field("Q", 0, [[1.0]])
    qp.set_field("R", 0, [[1.0]])
    qp.set_field("Q", 1, [[1.0]])
    qp.set_field("A", 0, [[1.0]])
    qp.set_field("B", 0, [[1.0]])
    qp.set_field("idxb", 0, [1])
    qp.set_field("lb", 0, [1.0])
    qp.set_field("ub", 0, [1.0])
    return qp


STAGE_FIELDS = ("Q", "S", "R", "q", "r", "idxb", "lb", "ub", "C", "D", "lg",
                "ug", "idxs", "Zl", "Zu", "zl", "zu", "sl_lb", "su_lb",
                "maskl", "masku")


def empty_terminal(qp):
    """The same QP with a cost-free terminal stage that has no rows."""
    d = qp.dim
    N = d.N
    out = OcpQp(OcpQpDim(N, d.nx, d.nu, list(d.nb[:N]) + [0],
                         list(d.ng[:N]) + [0], list(d.ns[:N]) + [0]))
    for n in range(N):
        for f in STAGE_FIELDS:
            out.set_field(f, n, qp.get_field(f, n))
        for f in ("A", "B", "b"):
            out.set_field(f, n, qp.get_field(f, n))
    return out


def terminal_input_qp(rng, N, nx=2, nu=2, fix_x0=False):
    """Feasible OCP with inputs at every stage, the terminal one included."""
    nw = nu + nx
    dim = OcpQpDim(N, [nx] * (N + 1), [nu] * (N + 1), [nw] * (N + 1),
                   [1] * (N + 1), [1] * (N + 1))
    qp = OcpQp(dim)
    us = [rng.uniform(-1.0, 1.0, nu) for _ in range(N + 1)]
    xs = [rng.uniform(-1.0, 1.0, nx)]
    for n in range(N):
        A, B = 0.5 * rng.standard_normal((nx, nx)), rng.standard_normal((nx, nu))
        b = rng.uniform(-0.2, 0.2, nx)
        for f, value in (("A", A), ("B", B), ("b", b)):
            qp.set_field(f, n, value)
        xs.append(A @ xs[n] + B @ us[n] + b)
    for n in range(N + 1):
        G = rng.standard_normal((nw, nw))
        M = G @ G.T + np.eye(nw)
        w = np.concatenate([us[n], xs[n]])
        lo = w - rng.uniform(0.5, 2.0, nw)
        up = w + rng.uniform(0.5, 2.0, nw)
        if fix_x0 and n == 0:
            lo[nu:] = up[nu:] = xs[0]
        C, D = rng.standard_normal((1, nx)), rng.standard_normal((1, nu))
        cw = D @ us[n] + C @ xs[n]
        for f, value in (("R", M[:nu, :nu]), ("S", M[:nu, nu:]),
                         ("Q", M[nu:, nu:]), ("r", rng.standard_normal(nu)),
                         ("q", rng.standard_normal(nx)), ("lb", lo),
                         ("ub", up), ("C", C), ("D", D), ("lg", cw - 1.0),
                         ("ug", cw + 1.0), ("idxs", [nw]), ("Zl", [1.0]),
                         ("Zu", [1.0])):
            qp.set_field(f, n, value)
    return qp


def open_sides(rng, qp, fix_x0):
    """Make one lower and one upper side infinite at random rows past the fixing ones."""
    d = qp.dim
    for f_box, f_gen, value in (("lb", "lg", -np.inf), ("ub", "ug", np.inf)):
        n = int(rng.integers(1 if fix_x0 else 0, d.N + 1))
        i = int(rng.integers(d.nb[n] + d.ng[n]))
        f, j = (f_box, i) if i < d.nb[n] else (f_gen, i - d.nb[n])
        bound = qp.get_field(f, n)
        bound[j] = value
        qp.set_field(f, n, bound)


def ocp_row_gaps(qp, sol):
    """Row value minus lower bound and upper bound minus row value, laid out like lam."""
    vw = make_view(qp)
    out = np.zeros(vw.nc)
    for n, cb in enumerate(vw.blocks):
        u, x = sol.u(n), sol.x(n)
        val = np.concatenate([np.concatenate([u, x])[cb.idxb],
                              qp.get_field("D", n) @ u + qp.get_field("C", n) @ x])
        lo = np.concatenate([qp.get_field("lb", n), qp.get_field("lg", n)])
        up = np.concatenate([qp.get_field("ub", n), qp.get_field("ug", n)])
        out[cb.c_off: cb.c_off + 2 * cb.m] = np.concatenate([val - lo, up - val])
    return out


# tight-tolerance solves use the speed preset: its multiplier floors do not
# cap the reachable duality measure the way the balance/robust ones do
ARG = mode_preset("speed").with_tol(1e-9)


class TestFullCondense:
    def test_scalar_hand_example(self):
        qp = scalar_example()
        dense, cmap = condense(qp, keep_x0=False)
        assert np.allclose(dense.get_field("H"), [[2.0]])
        assert np.allclose(dense.get_field("g"), [1.0])
        rep = solve_dense_qp(dense, ARG)
        assert abs(rep.solution.v[0] + 0.5) <= 1e-9

    def test_no_state_propagation_block_diagonal(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=2, nu=2, ns=0, ng=0)
        for n in range(4):
            qp.set_field("A", n, np.zeros((2, 2)))
        for n in range(5):  # no input-state cost coupling either
            qp.set_field("S", n, np.zeros(qp.get_field("S", n).shape))
        dense, cmap = condense(qp, keep_x0=True)
        H = dense.get_field("H")
        # inputs at different stages decouple entirely
        for i in range(4):
            for j in range(i + 1, 4):
                oi, oj = cmap.u_off[i], cmap.u_off[j]
                assert np.allclose(H[oi: oi + 2, oj: oj + 2], 0.0)

    def test_unconstrained_has_no_rows(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=2, nu=1, nb=0, ng=0, ns=0)
        # remove the default box rows by rebuilding with nb = 0
        dense, _ = condense(qp, keep_x0=True)
        assert dense.nb == 0 and dense.ng == 0

    def test_matches_prediction_matrix_oracle(self, rng):
        for keep in (True, False):
            qp = rand_ocp_qp(rng, N=6, nx=3, nu=2, fix_x0=True)
            dense, _ = condense(qp, keep_x0=keep)
            H = dense.get_field("H")
            H_oracle = prediction_matrix_hessian(qp, keep)
            assert maxabs(H - H_oracle) <= 1e-10 * max(1.0, maxabs(H_oracle))
            assert maxabs(H - H.T) <= 1e-12 * max(1.0, maxabs(H))

    def test_keep_x0_required_when_free(self, rng):
        qp = rand_ocp_qp(rng, N=2, nx=2, nu=1, fix_x0=False)
        with pytest.raises(CondenseError):
            condense(qp, keep_x0=False)

    def test_auto_detection(self, rng):
        fixed = rand_ocp_qp(rng, N=2, nx=2, nu=1, fix_x0=True)
        free = rand_ocp_qp(rng, N=2, nx=2, nu=1, fix_x0=False)
        assert not condense(fixed)[1].keep_x0
        assert condense(free)[1].keep_x0

    @pytest.mark.parametrize("fix_x0", [False, True])
    def test_bound_writes_reach_the_next_condensing(self, rng, fix_x0):
        # condense reads the bounds its view keeps; after bound writes, which
        # keep the view, it must match a condensing of a fresh copy
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, ng=1, ns=1, fix_x0=fix_x0)
        condense(qp)
        bounds = ("lb", "ub", "lg", "ug", "sl_lb", "su_lb", "maskl", "masku")
        for f in bounds:
            n = int(rng.integers(1, 5))
            value = qp.get_field(f, n)
            value[0] = 0.0 if f.startswith("mask") else value[0] - 0.25
            qp.set_field(f, n, value)
        fresh = OcpQp(qp.dim)
        for n in range(5):
            for f in STAGE_FIELDS:
                fresh.set_field(f, n, qp.get_field(f, n))
        for n in range(4):
            for f in ("A", "B", "b"):
                fresh.set_field(f, n, qp.get_field(f, n))
        (d1, m1), (d2, m2) = condense(qp), condense(fresh)
        for f in bounds:
            assert np.array_equal(d1.get_field(f), d2.get_field(f)), f
        assert np.array_equal(m1.lam_pos, m2.lam_pos)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 5),
           fix_x0=st.booleans(), keep=st.booleans())
    def test_rows_route_through_lam_pos(self, seed, N, fix_x0, keep):
        # general rows, soft rows, masked sides and infinite bounds: every
        # dense row is its source OCP row at the rolled-out trajectory
        rng = np.random.default_rng(seed)
        qp = rand_ocp_qp(rng, N=N, nx=2, nu=2, ng=2, ns=2, fix_x0=fix_x0)
        open_sides(rng, qp, fix_x0)
        # a free initial state can only be kept
        dense, cmap = condense(qp, keep_x0=keep or not fix_x0)
        dvw = make_view(dense)
        m_c = dense.nb + dense.ng
        lam_pos = cmap.lam_pos
        # every OCP side is routed once, except those of the dropped x0 rows
        n_drop = 0 if cmap.keep_x0 else qp.dim.nx[0]
        assert np.unique(lam_pos).size == lam_pos.size == \
            make_view(qp).nc - 2 * n_drop
        # random z, the rollout from it and each side's distance to its bound
        z = rng.standard_normal(dense.nv)
        sol = QpSolution(make_view(qp))
        x = z[dense.nv - cmap.nx0:] if cmap.keep_x0 else \
            qp.get_field("lb", 0)[qp.dim.nu[0]:]
        k = 0
        for n in range(N + 1):
            nu = qp.dim.nu[n]
            sol.u(n)[:] = z[k: k + nu]
            sol.x(n)[:] = x
            k += nu
            if n < N:
                x = (qp.get_field("A", n) @ x + qp.get_field("B", n) @ sol.u(n)
                     + qp.get_field("b", n))
        val = np.concatenate([z[dense.get_field("idxb")],
                              dense.get_field("C") @ z])
        lo = np.concatenate([dense.get_field("lb"), dense.get_field("lg")])
        up = np.concatenate([dense.get_field("ub"), dense.get_field("ug")])
        gaps = ocp_row_gaps(qp, sol)[lam_pos[: 2 * m_c]]
        assert np.allclose(np.concatenate([val - lo, up - val]), gaps,
                           rtol=1e-10, atol=1e-10)
        masks = np.ones(make_view(qp).nc)
        for n, cb in enumerate(make_view(qp).blocks):
            masks[cb.c_off: cb.c_off + 2 * cb.m] = np.concatenate(
                [qp.get_field("maskl", n), qp.get_field("masku", n)])
        assert np.array_equal(np.concatenate([dense.get_field("maskl"),
                                              dense.get_field("masku")]),
                              masks[lam_pos[: 2 * m_c]])
        # a random dense point keeps its residuals at lam_pos once expanded
        point = rand_iterate(rng, dense)
        esol = expand_solution(point, cmap, qp)
        dres = compute_residuals(dense, point)
        eres = compute_residuals(qp, esol)
        assert np.array_equal(make_view(qp).act[lam_pos], dvw.act)
        assert np.allclose(eres.r_d[lam_pos], dres.r_d, rtol=1e-10, atol=1e-10)
        assert np.array_equal(eres.r_m[lam_pos], dres.r_m)

    @pytest.mark.parametrize("fix_x0", [False, True])
    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_terminal_inputs_and_zero_horizon(self, rng, N, fix_x0):
        qp = terminal_input_qp(rng, N, fix_x0=fix_x0)
        direct = solve_ocp_qp(qp, ARG)
        dense, cmap = condense(qp)
        assert cmap.keep_x0 is not fix_x0
        assert dense.nv == 2 * (N + 1) + (0 if fix_x0 else 2)
        rep = solve_dense_qp(dense, ARG)
        assert direct.status is Status.Success and rep.status is Status.Success
        esol = expand_solution(rep.solution, cmap, qp)
        for n in range(N + 1):
            assert maxabs(esol.u(n) - direct.solution.u(n)) <= 1e-6
            assert maxabs(esol.x(n) - direct.solution.x(n)) <= 1e-6
        assert compute_residuals(qp, esol).max_norm() <= 1e-6


def mixed_dims(rng, N):
    """Per-stage (nx, nu, ng) lists in runs: a stage repeats the previous
    stage's sizes or draws new ones."""
    dims = []
    for n in range(N + 1):
        if n and rng.random() < 0.6:
            dims.append(dims[-1])
        else:
            dims.append((int(rng.integers(1, 4)), int(rng.integers(0, 3)),
                         int(rng.integers(0, 3))))
    return [list(c) for c in zip(*dims)]


def rel_err(a, ref):
    return maxabs(a - ref) / max(1.0, maxabs(ref))


def condense_flops(qp, keep):
    """The nominal flop count of :func:`condense`, stage by stage."""
    d = qp.dim
    N = d.N
    nx, nu, ng = (list(map(int, a)) for a in (d.nx, d.nu, d.ng))
    total = 0
    p = nx[0] if keep else 0           # nonzero prediction columns
    for n in range(N + 1):
        w = nu[n] + nx[n]
        total += 2 * w * nx[n] + 2 * nu[n] * nx[n] * p + 2 * ng[n] * nx[n] * (p + 1)
        if n < N:
            c = nx[n + 1]
            total += 2 * c * nx[n] * (p + 1) + 2 * c * w + 2 * c * w * (c + w)
        p += nu[n]
    return total


class TestStackedCondense:
    """Condensing in runs of stages against the stage-by-stage oracle."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(0, 6),
           fix_x0=st.booleans(), keep=st.booleans())
    def test_matches_stage_by_stage_oracle(self, seed, N, fix_x0, keep):
        # mixed sizes, inputs at the terminal stage, general rows with D,
        # soft rows; a free initial state can only be kept
        rng = np.random.default_rng(seed)
        nx, nu, ng = mixed_dims(rng, N)
        qp = rand_mixed_ocp_qp(rng, nx, nu, ng, [2] * (N + 1), fix_x0=fix_x0)
        keep = keep or not fix_x0
        dense, cmap = condense(qp, keep_x0=keep)
        ref = condense_ref(qp, keep)
        H = dense.get_field("H")
        assert np.array_equal(H, H.T)
        assert rel_err(H, ref.H) <= 1e-12
        assert rel_err(dense.get_field("g"), ref.g) <= 1e-12
        # rows are matched by their OCP row (lower sides: lam/t position ->
        # row number through the inverse of the view's row table)
        row_of = np.argsort(make_view(qp)._rows)
        rows = row_of[cmap.lam_pos[: dense.nb + dense.ng]]
        nb = dense.nb
        assert np.array_equal(rows[:nb], ref.box_rows)
        for f in ("idxb", "lb", "ub"):
            assert np.array_equal(dense.get_field(f), getattr(ref, f)), f
        got, want = np.argsort(rows[nb:]), np.argsort(ref.gen_rows)
        assert np.array_equal(rows[nb:][got], ref.gen_rows[want])
        for f in ("C", "lg", "ug"):
            assert rel_err(dense.get_field(f)[got], getattr(ref, f)[want]) <= 1e-12, f
        # expansion of a random dense point: states, inputs and costates
        point = rand_iterate(rng, dense)
        esol = expand_solution(point, cmap, qp)
        v_ref, pi_ref = expand_ref(point.v, esol.lam, qp, ref)
        assert rel_err(esol.v, v_ref) <= 1e-12
        assert rel_err(esol.pi, pi_ref) <= 1e-12

    def test_runs_follow_stage_sizes(self, rng):
        qp = rand_mixed_ocp_qp(rng, [2, 2, 2, 3, 3, 3], [1, 1, 1, 1, 1, 1],
                               [0, 0, 1, 1, 1, 1], [0] * 6, fix_x0=True)
        # equal (nx, nu, ng, next nx): stage 2 differs from stage 1 in ng,
        # from stage 3 in nx; the terminal stage is a run of its own
        assert _runs(qp.dim) == [(0, 2), (2, 3), (3, 5), (5, 6)]


class TestCondenseFlops:
    """The counted flops of condensing are its nominal products' counts."""

    def test_scalar_hand_count(self):
        # stage 0 (w = 2, c = 1, p = 0): W (0, gamma) 4, prediction 2,
        # affine sweep 4, recursion 12; stage 1 (w = 1): W (0, gamma) 2
        with flop_counter() as fc:
            condense(scalar_example(), keep_x0=False)
        assert fc.flops == 24 == condense_flops(scalar_example(), False)

    @pytest.mark.parametrize("keep", [False, True])
    def test_nominal_count(self, rng, keep):
        qp = rand_mixed_ocp_qp(rng, [2, 3, 3, 3, 2], [1, 2, 2, 0, 1],
                               [1, 0, 2, 2, 1], [1] * 5, fix_x0=True)
        want = condense_flops(qp, keep)
        for _ in range(2):
            with flop_counter() as fc:
                condense(qp, keep_x0=keep)
            assert fc.flops == want


class TestIndefiniteStageCost:
    """The sweep factors nothing, so an indefinite ``Q_n`` condenses."""

    N = 5

    @pytest.mark.parametrize("n", [0, 1, 3, N])
    def test_indefinite_state_cost_condenses(self, n):
        qp = gen_mass_spring(MassSpringConfig(masses=2, horizon=self.N))
        qp.set_field("Q", n, np.diag([1.0, 1.0, 1.0, -1.0]))
        for keep in (True, False):
            dense, _ = condense(qp, keep_x0=keep)
            H = dense.get_field("H")
            H_oracle = prediction_matrix_hessian(qp, keep)
            assert np.array_equal(H, H.T)
            assert rel_err(H, H_oracle) <= 1e-12


class TestExpand:
    def test_cross_solver_equivalence(self, rng):
        for trial in range(6):
            qp = rand_ocp_qp(rng, N=5, nx=3, nu=2, fix_x0=bool(trial % 2))
            direct = solve_ocp_qp(qp, ARG)
            dense, cmap = condense(qp)
            rep = solve_dense_qp(dense, ARG)
            esol = expand_solution(rep.solution, cmap, qp)
            d_u = max(
                maxabs(direct.solution.u(n) - esol.u(n))
                for n in range(qp.dim.N)
            )
            assert d_u <= 1e-6
            d_obj = abs(objective(qp, direct.solution) - objective(qp, esol))
            assert d_obj <= 1e-8 * (1.0 + abs(objective(qp, esol)))
            eres = compute_residuals(qp, esol)
            assert eres.max_norm() <= 10.0 * 1e-7

    def test_zero_input_zero_state(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=2, nu=1, ns=0)
        for n in range(3):
            qp.set_field("b", n, np.zeros(2))
        qp.set_field("idxb", 0, np.array([0, 1, 2]))
        qp.set_field("lb", 0, np.array([-1.0, 0.0, 0.0]))
        qp.set_field("ub", 0, np.array([1.0, 0.0, 0.0]))
        dense, cmap = condense(qp, keep_x0=False)
        dsol = solve_dense_qp(dense, ARG).solution
        dsol.v[:] = 0.0
        esol = expand_solution(dsol, cmap, qp)
        for n in range(4):
            assert np.allclose(esol.x(n), 0.0)

    def test_costate_matches_dense_oracle(self):
        # scalar problem: the reconstructed dynamics multiplier equals the
        # one from the full-system Newton oracle at the solution
        qp = scalar_example()
        direct = solve_ocp_qp(qp, ARG)
        dense, cmap = condense(qp, keep_x0=False)
        rep = solve_dense_qp(dense, ARG)
        esol = expand_solution(rep.solution, cmap, qp)
        assert maxabs(esol.pi - direct.solution.pi) <= 1e-8
        # stationarity in x1: pi0 = Q1 x1
        assert abs(esol.pi[0] - esol.x(1)[0]) <= 1e-9


class TestPartial:
    def test_block_size_one_is_identity(self, rng):
        qp = rand_ocp_qp(rng, N=5, nx=3, nu=2, fix_x0=True)
        qp2, pmap = partial_condense(qp, 1)
        for n in range(qp.dim.N + 1):
            for f in ("Q", "R", "S", "q", "r", "idxb", "lb", "ub", "maskl",
                      "masku", "idxs", "Zl", "zl"):
                assert np.array_equal(qp.get_field(f, n), qp2.get_field(f, n))
        for n in range(qp.dim.N):
            for f in ("A", "B", "b"):
                assert np.array_equal(qp.get_field(f, n), qp2.get_field(f, n))
        r1 = solve_ocp_qp(qp, ARG)
        r2 = solve_ocp_qp(qp2, ARG)
        esol = partial_expand(r2.solution, pmap, qp)
        assert maxabs(esol.flat() - r1.solution.flat()) <= 1e-12 * (
            1.0 + maxabs(r1.solution.flat()))

    def test_block_size_full_matches_condense(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        qp2, pmap = partial_condense(qp, 4)
        assert qp2.dim.N == 1
        rp = solve_ocp_qp(qp2, ARG)
        esol_p = partial_expand(rp.solution, pmap, qp)
        dense, cmap = condense(qp, keep_x0=True)
        rd = solve_dense_qp(dense, ARG)
        esol_d = expand_solution(rd.solution, cmap, qp)
        for n in range(qp.dim.N):
            assert maxabs(esol_p.u(n) - esol_d.u(n)) <= 1e-6

    def test_ceil_horizon(self, rng):
        qp = rand_ocp_qp(rng, N=40, nx=2, nu=1, ng=0, ns=0)
        qp2, _ = partial_condense(qp, 8)
        assert qp2.dim.N == 5

    def test_uneven_blocks(self, rng):
        qp = rand_ocp_qp(rng, N=7, nx=2, nu=1, fix_x0=True)
        qp2, pmap = partial_condense(qp, 3)
        assert qp2.dim.N == 3  # blocks 3+3+1, then the old terminal
        r1 = solve_ocp_qp(qp, ARG)
        r2 = solve_ocp_qp(qp2, ARG)
        esol = partial_expand(r2.solution, pmap, qp)
        for n in range(qp.dim.N):
            assert maxabs(esol.u(n) - r1.solution.u(n)) <= 1e-6

    def test_boundary_states_copied_exactly(self, rng):
        qp = rand_ocp_qp(rng, N=8, nx=3, nu=2, fix_x0=True)
        qp2, pmap = partial_condense(qp, 4)
        r2 = solve_ocp_qp(qp2, ARG)
        esol = partial_expand(r2.solution, pmap, qp)
        assert np.array_equal(esol.x(0), r2.solution.x(0))
        assert np.array_equal(esol.x(4), r2.solution.x(1))
        assert np.array_equal(esol.x(8), r2.solution.x(2))

    def test_expanded_residuals(self, rng):
        qp = rand_ocp_qp(rng, N=8, nx=3, nu=2, fix_x0=True)
        qp2, pmap = partial_condense(qp, 4)
        r2 = solve_ocp_qp(qp2, ARG)
        esol = partial_expand(r2.solution, pmap, qp)
        assert compute_residuals(qp, esol).max_norm() <= 1e-6

    @given(N=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_block_is_the_condensed_stage(self, N, data, seed):
        # a block condensed with its initial state kept is a stage as it
        # stands: z = (u, x0) is the (u, x) window, the rows keep their order
        N1 = data.draw(st.integers(1, N), label="N1")
        rng = np.random.default_rng(seed)
        qp = rand_ocp_qp(rng, N=N, nx=2, nu=2, ng=2, ns=2,
                         fix_x0=bool(seed % 2))
        # one block over the whole horizon, terminal stage without data
        qp0 = empty_terminal(qp)
        qp1, pmap = partial_condense(qp0, N)
        dense, cmap = condense(qp0, keep_x0=True)
        nu = qp1.dim.nu[0]
        assert nu == dense.nv - qp.dim.nx[0]
        H, g, C = (dense.get_field(f) for f in ("H", "g", "C"))
        expect = {
            "R": H[:nu, :nu], "S": H[:nu, nu:], "Q": H[nu:, nu:],
            "r": g[:nu], "q": g[nu:], "D": C[:, :nu], "C": C[:, nu:],
            "B": cmap.pred[-1][:, :nu], "A": cmap.pred[-1][:, nu:],
            "b": cmap.gamma[-1],
        }
        for f in ("idxb", "lb", "ub", "lg", "ug", "idxs", "Zl", "Zu", "zl",
                  "zu", "sl_lb", "su_lb", "maskl", "masku"):
            expect[f] = dense.get_field(f)
        for f, value in expect.items():
            assert np.array_equal(qp1.get_field(f, 0), value), f
        # any block size: the expanded solve meets the tolerance on qp
        qp2, pmap = partial_condense(qp, N1)
        assert qp2.dim.N == -(-N // N1)
        rep = solve_ocp_qp(qp2, ARG)
        assert rep.status is Status.Success
        esol = partial_expand(rep.solution, pmap, qp)
        res = compute_residuals(qp, esol)
        assert res.res_g <= ARG.tol_stat and res.res_b <= ARG.tol_eq
        assert res.res_d <= ARG.tol_ineq and res.res_m <= ARG.tol_comp

    def test_invalid_block_size(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=2, nu=1)
        with pytest.raises(InvalidBlockSize):
            partial_condense(qp, 0)
        with pytest.raises(InvalidBlockSize, match="2.5"):
            partial_condense(qp, 2.5)

    def test_integer_block_size_types(self, rng):
        qp = rand_ocp_qp(rng, N=5, nx=2, nu=1)
        qp_a, _ = partial_condense(qp, 2)
        qp_b, _ = partial_condense(qp, np.int64(2))
        assert qp_a.dim.N == qp_b.dim.N == 3
        for n in range(qp_a.dim.N + 1):
            for f in ("Q", "R", "S", "C", "D", "lg", "ug", "idxb"):
                assert np.array_equal(qp_a.get_field(f, n), qp_b.get_field(f, n))


def block_ranges(N, N1):
    """The stage ranges of partial condensing: blocks of N1, then the terminal."""
    return [(n0, min(n0 + N1, N)) for n0 in range(0, N, N1)] + [(N, N + 1)]


class TestPartialBlocks:
    """Partial condensing against the blocks condensed as QPs of their own."""

    @settings(max_examples=60)
    @given(N=st.integers(2, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_stages_are_the_condensed_reference_blocks(self, N, data, seed):
        N1 = data.draw(st.integers(1, N), label="N1")
        fix_x0 = data.draw(st.booleans(), label="fix_x0")
        ng = data.draw(st.integers(0, 2), label="ng")
        ns = data.draw(st.integers(0, 2), label="ns")
        qp = rand_ocp_qp(np.random.default_rng(seed), N=N, nx=2, nu=2, ng=ng,
                         ns=ns, fix_x0=fix_x0)
        qp_p, _ = partial_condense(qp, N1)
        ranges = block_ranges(N, N1)
        assert qp_p.dim.N == len(ranges) - 1
        for k, (n0, n1) in enumerate(ranges):
            dense, cmap = condense(ref_sub_qp(qp, n0, n1), keep_x0=True)
            nu = qp_p.dim.nu[k]
            assert nu == dense.nv - qp.dim.nx[n0]
            H, g, C = (dense.get_field(f) for f in ("H", "g", "C"))
            expect = {
                "R": H[:nu, :nu], "S": H[:nu, nu:], "Q": H[nu:, nu:],
                "r": g[:nu], "q": g[nu:], "D": C[:, :nu], "C": C[:, nu:],
            }
            if k < qp_p.dim.N:
                expect.update(B=cmap.pred[-1][:, :nu], A=cmap.pred[-1][:, nu:],
                              b=cmap.gamma[-1])
            expect.update((f, dense.get_field(f)) for f in ROW_FIELDS)
            for f, value in expect.items():
                assert np.array_equal(qp_p.get_field(f, k), value), (k, f)

    @pytest.mark.parametrize("N1", [1, 2, 3, 7])
    def test_flops_are_the_blocks_condensing(self, rng, N1):
        # every block's count on its reference QP, less the affine term
        # W (0, gamma) = 2 nx^2 of the reference's zero-cost terminal
        # placeholder, which a block does not compute, plus the terminal
        # stage's count as a block of one stage
        qp = rand_ocp_qp(rng, N=7, nx=3, nu=2, ng=2, ns=1, fix_x0=True)
        want = 0
        for n0, n1 in block_ranges(7, N1):
            with flop_counter() as fc:
                condense(ref_sub_qp(qp, n0, n1), keep_x0=True)
            want += fc.flops - (2 * qp.dim.nx[n1] ** 2 if n1 <= 7 else 0)
        with flop_counter() as fc:
            partial_condense(qp, N1)
        assert fc.flops == want

    @pytest.mark.parametrize("N1", [1, 3])
    def test_builds_no_view(self, rng, monkeypatch, N1):
        # both directions work on the input QP's own view, cached here
        qp = rand_ocp_qp(rng, N=7, nx=3, nu=2, ng=1, ns=1, fix_x0=True)
        make_view(qp)
        builds = []
        init = view.ProblemView.__init__

        def spy(self, qp_):
            builds.append(qp_)
            init(self, qp_)

        monkeypatch.setattr(view.ProblemView, "__init__", spy)
        qp_p, pmap = partial_condense(qp, N1)
        assert builds == []
        rep = solve_ocp_qp(qp_p, ARG)
        assert builds == [qp_p]     # the solve's own view of the short QP
        esol = partial_expand(rep.solution, pmap, qp)
        assert builds == [qp_p]
        assert compute_residuals(qp, esol).max_norm() <= 1e-6

