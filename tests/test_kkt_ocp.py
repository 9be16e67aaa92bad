import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

import mpcqp.kkt_ocp as ko
from mpcqp import (
    DenseQp,
    FactorizationFailed,
    IpmArg,
    OcpQp,
    OcpQpDim,
    TreeOcpQp,
    TreeOcpQpDim,
    Status,
    compute_residuals,
    flop_counter,
    linalg,
    mode_preset,
    solve_ocp_qp,
    solve_tree_ocp_qp,
)
from mpcqp.errors import NotPositiveDefinite
from mpcqp.kkt_common import reduced_hessian, view_scales
from mpcqp.mass_spring import (
    MassSpringConfig,
    default_x0,
    gen_mass_spring,
    mass_spring_dynamics,
)
from mpcqp.view import QpSolution, StageView, make_view, solve_full_kkt

from conftest import (
    ba_ref,
    kkt_apply_blocks,
    rand_iterate,
    rand_ocp_qp,
    rand_tree_qp,
    riccati_factor_ref,
    riccati_solve_ref,
    stage_hessian_ref,
)


def scalar_lqr():
    qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0]))
    qp.set_field("Q", 0, [[1.0]])
    qp.set_field("R", 0, [[1.0]])
    qp.set_field("Q", 1, [[1.0]])
    qp.set_field("A", 0, [[1.0]])
    qp.set_field("B", 0, [[1.0]])
    return qp


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


class TestFactor:
    @pytest.mark.parametrize("variant", ["classical", "square_root"])
    def test_scalar_lqr_values(self, variant):
        qp = scalar_lqr()
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)),
                                arg=IpmArg(riccati_variant=variant))
        assert abs(fac.p_matrix(1)[0, 0] - 1.0) <= 1e-12
        assert abs(fac.K[0][0, 0] - (-0.5)) <= 1e-12
        assert abs(fac.p_matrix(0)[0, 0] - 1.5) <= 1e-12

    def test_decoupled_stages(self):
        qp = OcpQp(OcpQpDim(3, nx=[2] * 4, nu=[1] * 3 + [0]))
        for n in range(4):
            qp.set_field("Q", n, np.eye(2))
            if n < 3:
                qp.set_field("R", n, np.eye(1))
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        for n in range(4):
            assert np.allclose(fac.p_matrix(n), np.eye(2))
            assert np.allclose(fac.K[n], 0.0)

    def test_indefinite_square_root_fails_with_stage(self):
        qp = scalar_lqr()
        qp.set_field("R", 0, [[-1.0]])
        with pytest.raises(FactorizationFailed) as ei:
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              arg=IpmArg(riccati_variant="square_root"))
        assert ei.value.stage == 0

    def test_classical_tolerates_indefinite_full_space(self):
        # indefinite stage Hessian at stage 0, compensated by the successor
        # cost-to-go: the classical recursion (and the plain square-root,
        # which factors the successor-augmented block) go through, while the
        # QR array path needs the raw stage Hessian factored and fails
        qp = scalar_lqr()
        qp.set_field("Q", 0, [[-0.2]])
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)),
                                arg=IpmArg(riccati_variant="classical"))
        assert fac.p_matrix(0)[0, 0] == pytest.approx(-0.2 + 1.0 - 0.5)
        with pytest.raises(FactorizationFailed):
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              arg=IpmArg(riccati_variant="square_root"), use_qr=True)

    def test_positive_semidefinite_cost_to_go(self, rng):
        qp = rand_ocp_qp(rng, N=6, nx=4, nu=2)
        it = rand_iterate(rng, qp)
        fac = ko.riccati_factor(qp, it)
        for n in range(7):
            w = np.linalg.eigvalsh(fac.p_matrix(n))
            assert np.min(w) >= -1e-10 * max(1.0, np.max(np.abs(w)))


class TestSolve:
    def test_zero_rhs(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(np.zeros(vw.ny), np.zeros(vw.ne),
                         np.zeros(vw.nc), np.zeros(vw.nc))
        assert np.max(np.abs(step.flat())) == 0.0

    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    def test_matches_dense_oracle(self, rng, variant, use_qr):
        for _ in range(6):
            qp = rand_ocp_qp(rng, N=5, nx=4, nu=2)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
            fac = ko.riccati_factor(qp, it,
                                    arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            err = np.max(np.abs(step.flat() - ref.flat()))
            assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))

    def test_variants_agree(self, rng):
        qp = rand_ocp_qp(rng, N=6, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        s1 = ko.riccati_factor(qp, it).solve(
            res.r_g, res.r_b, res.r_d, rm)
        s2 = ko.riccati_factor(
            qp, it, arg=IpmArg(riccati_variant="square_root")).solve(
            res.r_g, res.r_b, res.r_d, rm)
        assert np.max(np.abs(s1.flat() - s2.flat())) <= 1e-8 * (
            1.0 + np.max(np.abs(s1.flat())))

    def test_fixed_x0_lqr_ratio(self):
        qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[1, 0]))
        qp.set_field("Q", 0, [[1.0]])
        qp.set_field("R", 0, [[1.0]])
        qp.set_field("Q", 1, [[1.0]])
        qp.set_field("A", 0, [[1.0]])
        qp.set_field("B", 0, [[1.0]])
        qp.set_field("idxb", 0, [1])
        qp.set_field("lb", 0, [3.0])
        qp.set_field("ub", 0, [3.0])
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = np.where(vw.act, 1e-3, 0.0)   # loose-constraint iterate
        it.t[:] = np.where(vw.act, 1e3, 0.0)
        res = compute_residuals(qp, it)
        rm = np.where(vw.act, it.lam * it.t, 0.0)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        du = step.y[0]
        dx0 = step.y[1]
        assert abs(du / dx0 - (-0.5)) <= 1e-6


class TestGains:
    def test_scalar_gain(self):
        qp = scalar_lqr()
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        K = ko.feedback_gains(fac)
        assert len(K) == 1
        assert abs(K[0][0, 0] + 0.5) <= 1e-12

    def test_gain_zero_without_coupling(self):
        qp = OcpQp(OcpQpDim(2, nx=[2] * 3, nu=[1, 1, 0]))
        for n in range(3):
            qp.set_field("Q", n, np.eye(2))
            if n < 2:
                qp.set_field("R", n, np.eye(1))
                qp.set_field("B", n, np.ones((2, 1)))
                # A = 0 and S = 0: K reduces to zero
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        for K in ko.feedback_gains(fac):
            assert np.allclose(K, 0.0)

    def test_tree_factor_has_no_stage_gains(self, rng):
        qp = rand_tree_qp(rng, [-1, 0, 0])
        fac = ko.riccati_factor(qp, rand_iterate(rng, qp))
        with pytest.raises(ValueError):
            ko.feedback_gains(fac)

    def test_long_horizon_stationary_gain(self):
        # time-invariant system: K[0] approaches the fixed point of the
        # Riccati map computed by plain iteration (independent oracle)
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        B = np.array([[0.0], [0.1]])
        Q = np.eye(2)
        R = np.eye(1)
        N = 100
        qp = OcpQp(OcpQpDim(N, nx=[2] * (N + 1), nu=[1] * N + [0]))
        for n in range(N + 1):
            qp.set_field("Q", n, Q)
            if n < N:
                qp.set_field("R", n, R)
                qp.set_field("A", n, A)
                qp.set_field("B", n, B)
        fac = ko.riccati_factor(qp, QpSolution(make_view(qp)))
        P = Q.copy()
        for _ in range(2000):
            Guu = R + B.T @ P @ B
            Gux = B.T @ P @ A
            K = -np.linalg.solve(Guu, Gux)
            P = Q + A.T @ P @ A + Gux.T @ K
            P = 0.5 * (P + P.T)
        assert np.max(np.abs(ko.feedback_gains(fac)[0] - K)) <= 1e-6


class TestViewConstants:
    """Node Hessians and [B A] stacks hoisted into the view."""

    @staticmethod
    def _assert_constants_match(qp, it):
        vw = make_view(qp)
        d = qp.dim
        sc = view_scales(vw, it.lam, it.t)
        for reg in (0.0, 1e-6):
            hess = reduced_hessian(vw, sc, reg)
            for n, cb in enumerate(vw.blocks):
                M = hess[vw.hess_off[n]: vw.hess_off[n + 1]].reshape(cb.nw, cb.nw)
                ref = stage_hessian_ref(qp._stages[n], d.nu[n], d.nx[n],
                                        cb, sc, reg)
                assert np.array_equal(M, ref)
        for lv in ko._band(vw).levels:
            for j, (_, _, BA) in enumerate(lv.edges):
                for i, n in enumerate(lv.nodes):
                    assert np.array_equal(BA[i], ba_ref(vw.out_edges[n][j][1]))

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_bit_equal_to_per_factorization_assembly(self, rng, kind):
        for _ in range(3):
            qp = (rand_ocp_qp(rng, N=4, nx=3, nu=2) if kind == "ocp"
                  else rand_tree_qp(rng, [-1, 0, 0, 1, 2, 2]))
            # an unsymmetric Q exercises the symmetrization
            Q = qp.get_field("Q", 1)
            qp.set_field("Q", 1, Q + 0.1 * np.triu(rng.standard_normal(Q.shape), 1))
            self._assert_constants_match(qp, rand_iterate(rng, qp))

    def test_node_hessian_is_not_written_by_factorization(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=2)
        vw = make_view(qp)
        before = [H.copy() for H in vw.node_hess]
        ko.riccati_factor(qp, rand_iterate(rng, qp), arg=IpmArg(reg_prim=1e-3))
        assert all(np.array_equal(H, H0) for H, H0 in zip(vw.node_hess, before))

    @pytest.mark.parametrize("field,stage", [
        ("Q", 2), ("S", 1), ("R", 0), ("A", 3), ("B", 0), ("q", 1), ("r", 0),
        ("b", 2), ("C", 1), ("D", 1), ("idxb", 1), ("idxs", 1), ("Zl", 1),
        ("Zu", 1), ("zl", 1), ("zu", 1),
    ])
    def test_set_field_after_solve_refreshes_constants(self, rng, field, stage):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        solve_ocp_qp(qp)
        old = make_view(qp)
        # a bound write before it must not carry the view past it
        qp.set_field("lb", 3, qp.get_field("lb", 3) - 0.1)
        value = qp.get_field(field, stage)
        if field in ("Q", "S", "R", "A", "B"):
            G = rng.standard_normal(value.shape)
            value = G @ G.T + np.eye(value.shape[0]) if field in ("Q", "R") else G
        elif qp._FIELDS[field].vec:
            value = value + 0.25
        qp.set_field(field, stage, value)
        vw = make_view(qp)
        if qp._FIELDS[field].vec:
            # a gradient or right-hand side: the operators and the band stay
            for name in ("H", "E", "G", "K", "band"):
                assert getattr(vw, name) is getattr(old, name), name
        else:
            assert vw.H is not old.H and vw.E is not old.E and vw.G is not old.G
            assert "band" not in vars(vw)
        it = rand_iterate(rng, qp)
        self._assert_constants_match(qp, it)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = ko.riccati_factor(qp, it).solve(res.r_g, res.r_b, res.r_d, rm)
        err = np.max(np.abs(step.flat() - ref.flat()))
        assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))

    @pytest.mark.parametrize("field", ["lbx", "ubx"])
    def test_bound_write_after_solve_refreshes_d(self, rng, field):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        solve_ocp_qp(qp)
        x0 = qp.get_field(field, 0) + (-0.25 if field == "lbx" else 0.25)
        qp.set_field(field, 0, x0)
        vw = make_view(qp)
        # stage 0 boxes all of (u, x): its x rows follow its nu input rows
        cb = vw.blocks[0]
        rows = cb.c_off + qp.dim.nu[0] + np.arange(qp.dim.nx[0])
        if field == "lbx":
            assert np.array_equal(vw.d[rows], x0)
        else:
            assert np.array_equal(vw.d[rows + cb.m], -x0)
        it = rand_iterate(rng, qp)
        self._assert_constants_match(qp, it)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = ko.riccati_factor(qp, it).solve(res.r_g, res.r_b, res.r_d, rm)
        err = np.max(np.abs(step.flat() - ref.flat()))
        assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))


    # every field that feeds only d and act, with a write that keeps the QP
    # feasible: widened bounds, a negative slack bound, a masked side
    BOUND_WRITES = [
        ("lb", lambda v: v - 0.1), ("ub", lambda v: v + 0.1),
        ("lbu", lambda v: v - 0.1), ("ubu", lambda v: v + 0.1),
        ("lbx", lambda v: v - 0.1), ("ubx", lambda v: v + 0.1),
        ("lg", lambda v: v - 0.1), ("ug", lambda v: v + 0.1),
        ("sl_lb", lambda v: v - 0.1), ("su_lb", lambda v: v - 0.1),
        ("maskl", lambda v: np.r_[0.0, v[1:]]),
        ("masku", lambda v: np.r_[v[:-1], 0.0]),
    ]
    SHARED = ["H", "E", "G", "_Et", "_Gt", "K", "hess0", "hess_off", "hess_box",
              "hess_diag", "hess_gen", "node_hess", "out_edges", "box_col",
              "_rows", "_soft", "g", "b", "slack_diag", "blocks", "band"]

    @staticmethod
    def _qp(rng, kind):
        return (rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True) if kind == "ocp"
                else rand_tree_qp(rng, [-1, 0, 0, 1, 2, 2], nb=3))

    @pytest.mark.parametrize("field,change", BOUND_WRITES)
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_bound_write_keeps_operators(self, rng, kind, field, change):
        qp = self._qp(rng, kind)
        # a factorization of the QP itself: a solve of the OCP, whose initial
        # state is fixed, factors its reduced QP's view instead
        ko.riccati_factor(qp, rand_iterate(rng, qp))
        make_view(qp).K
        old = make_view(qp)
        assert "band" in vars(old)
        d_old, act_old = old.d.copy(), old.act.copy()
        qp.set_field(field, 0, change(qp.get_field(field, 0)))
        vw = make_view(qp)
        assert vw is not old
        for name in self.SHARED:
            assert getattr(vw, name) is getattr(old, name), name
        fresh = StageView(qp, old.edges)
        assert np.array_equal(vw.d, fresh.d)
        assert np.array_equal(vw.act, fresh.act)
        assert vw.n_act == fresh.n_act
        assert not np.array_equal(vw.d, d_old) or not np.array_equal(vw.act, act_old)
        # the previous view, which earlier solutions hold, is unchanged
        assert np.array_equal(old.d, d_old)
        assert np.array_equal(old.act, act_old)
        assert make_view(qp) is vw

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_writes_in_a_row_refresh_once(self, rng, kind, monkeypatch):
        qp = self._qp(rng, kind)
        old = make_view(qp)
        calls = []
        real = StageView._set_bounds
        monkeypatch.setattr(StageView, "_set_bounds",
                            lambda self: calls.append(self) or real(self))
        for field in ("lb", "ub", "lg", "maskl"):
            qp.set_field(field, 2, qp.get_field(field, 2))
        assert calls == []
        vw = make_view(qp)
        assert calls == [vw] and vw is not old and vw.H is old.H
        assert make_view(qp) is vw and calls == [vw]

    def test_direct_revision_bump_builds_new_operators(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2, fix_x0=True)
        old = make_view(qp)
        qp._rev += 1
        qp.set_field("lbx", 0, qp.get_field("lbx", 0) - 0.1)
        assert make_view(qp).H is not old.H
        old = make_view(qp)
        qp.set_field("ubx", 0, qp.get_field("ubx", 0) + 0.1)
        qp._rev += 1
        assert make_view(qp).H is not old.H

    # the last row of stage 2, its general row, is masked on its lower side
    # (rand_ocp_qp); every write here switches one side on or off
    @pytest.mark.parametrize("field,row,value", [
        ("lb", 0, -np.inf), ("ub", -1, np.inf), ("ug", 0, np.inf),
        ("maskl", 0, 0.0), ("masku", -1, 0.0), ("maskl", -1, 1.0),
    ])
    def test_side_switch_changes_act_and_resolves(self, rng, field, row, value):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        solve_ocp_qp(qp)
        old = make_view(qp)
        cur = qp.get_field(field, 2)
        cur[row] = value
        qp.set_field(field, 2, cur)
        vw = make_view(qp)
        assert vw.H is old.H
        fresh = StageView(qp, old.edges)
        assert np.array_equal(vw.act, fresh.act) and vw.n_act == fresh.n_act
        assert not np.array_equal(vw.act, old.act)
        assert vw.n_act - old.n_act == int(vw.act.sum()) - int(old.act.sum()) != 0
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        step = ko.riccati_factor(qp, it).solve(res.r_g, res.r_b, res.r_d, rm)
        err = np.max(np.abs(step.flat() - ref.flat()))
        assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))
        assert solve_ocp_qp(qp).status == Status.Success


# fixed before the band solve replaced the node loops: both sweeps do the
# same arithmetic in another order, so they agree to a few ulps times the
# (moderate) conditioning of the random node Hessians
EQUIV_RTOL = 1e-12


@st.composite
def convex_stage_qps(draw):
    """Convex OCPs and parents-first trees of 1-9 nodes.

    Every node draws its own dimensions: ``nu = 0`` nodes anywhere, boxes,
    ``ng > 0`` general rows, soft rows, masked sides and infinite bounds.
    The node Hessians are positive definite, so every route factors.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_node = draw(st.integers(1, 9))
    if draw(st.booleans()):
        kind, parents = "ocp", [-1] + list(range(n_node - 1))
    else:
        kind = "tree"
        parents = [-1] + [draw(st.integers(0, m - 1)) for m in range(1, n_node)]
    nx = [draw(st.integers(1, 3)) for _ in range(n_node)]
    nu = [draw(st.integers(0, 2)) for _ in range(n_node)]
    nb = [draw(st.integers(0, nu[n] + nx[n])) for n in range(n_node)]
    ng = [draw(st.integers(0, 2)) for _ in range(n_node)]
    ns = [draw(st.integers(0, nb[n] + ng[n])) for n in range(n_node)]
    return _convex_qp(rng, kind, parents, nx, nu, nb, ng, ns)


@st.composite
def level_trees(draw):
    """Trees whose levels share their dimensions, so levels stack.

    Depth 1-6; every level draws a branching factor 1-3 (1 once a level
    holds six nodes) and may mix it with one child fewer, so that a level
    splits by child count and childless nodes end early.  All nodes of a
    depth share nx, nu, nb, ng and ns, and the deepest level may have
    ``nu = 0``.  Nodes are numbered breadth-first, so levels are
    contiguous, or depth-first, so they are not.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 6))
    # children[l][i]: child count of the i-th node of level l
    width, children = 1, []
    for _ in range(depth):
        b = draw(st.integers(1, 3)) if width < 6 else 1
        mix = draw(st.booleans())
        counts = [b - (mix and i % 2) for i in range(width)]
        children.append(counts)
        width = sum(counts)
        if not width:
            break
    dims = [(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
            for _ in range(len(children) + 1)]
    if draw(st.booleans()):
        dims[-1] = (dims[-1][0], 0)
    rows = [(draw(st.integers(0, nx + nu)), draw(st.integers(0, 2)))
            for nx, nu in dims]
    soft = [draw(st.integers(0, nb + ng)) for nb, ng in rows]
    # (level, index within the level) of every node, parents first
    kids = {}
    for lev, counts in enumerate(children):
        nxt = 0
        for i, c in enumerate(counts):
            kids[(lev, i)] = [(lev + 1, nxt + j) for j in range(c)]
            nxt += c
    order, parent = [], {(0, 0): None}
    if draw(st.booleans()):
        frontier = [(0, 0)]
        while frontier:
            order += frontier
            frontier = [k for node in frontier for k in kids.get(node, [])]
    else:
        stack = [(0, 0)]
        while stack:
            node = stack.pop()
            order.append(node)
            stack += kids.get(node, [])[::-1]
    index = {node: n for n, node in enumerate(order)}
    for node, ks in kids.items():
        for k in ks:
            parent[k] = node
    parents = [-1 if parent[node] is None else index[parent[node]]
               for node in order]
    lev = [node[0] for node in order]
    nx = [dims[l][0] for l in lev]
    nu = [dims[l][1] for l in lev]
    nb = [rows[l][0] for l in lev]
    ng = [rows[l][1] for l in lev]
    ns = [soft[l] for l in lev]
    return _convex_qp(rng, "tree", parents, nx, nu, nb, ng, ns)


def _convex_qp(rng, kind, parents, nx, nu, nb, ng, ns):
    """Random convex OCP or tree QP of the given dimensions.

    Positive definite node Hessians, boxes, general rows, soft rows,
    masked sides and infinite bounds.
    """
    n_node = len(parents)
    if kind == "ocp":
        qp = OcpQp(OcpQpDim(n_node - 1, nx, nu, nb, ng, ns))
    else:
        qp = TreeOcpQp(TreeOcpQpDim(parents, nx=nx, nu=nu, nb=nb, ng=ng, ns=ns))
    for n in range(n_node):
        nw = nu[n] + nx[n]
        G = rng.standard_normal((nw, nw))
        M = G @ G.T + np.eye(nw)
        qp.set_field("R", n, M[: nu[n], : nu[n]])
        qp.set_field("S", n, M[: nu[n], nu[n]:])
        qp.set_field("Q", n, M[nu[n]:, nu[n]:])
        qp.set_field("r", n, rng.standard_normal(nu[n]))
        qp.set_field("q", n, rng.standard_normal(nx[n]))
        qp.set_field("C", n, rng.standard_normal((ng[n], nx[n])))
        qp.set_field("D", n, rng.standard_normal((ng[n], nu[n])))
        m = nb[n] + ng[n]
        lo = np.where(rng.random(m) < 0.2, -np.inf, rng.uniform(-2.0, -0.5, m))
        up = np.where(rng.random(m) < 0.2, np.inf, rng.uniform(0.5, 2.0, m))
        qp.set_field("idxb", n, np.sort(rng.choice(nw, nb[n], replace=False)))
        qp.set_field("lb", n, lo[: nb[n]])
        qp.set_field("ub", n, up[: nb[n]])
        qp.set_field("lg", n, lo[nb[n]:])
        qp.set_field("ug", n, up[nb[n]:])
        qp.set_field("maskl", n, (rng.random(m) > 0.2).astype(float))
        qp.set_field("masku", n, (rng.random(m) > 0.2).astype(float))
        qp.set_field("idxs", n, np.sort(rng.choice(m, ns[n], replace=False)))
        qp.set_field("Zl", n, rng.uniform(0.5, 2.0, ns[n]))
        qp.set_field("Zu", n, rng.uniform(0.5, 2.0, ns[n]))
    for m in range(1, n_node):
        p = parents[m]
        e = m - 1 if kind == "ocp" else m
        qp.set_field("A", e, 0.5 * rng.standard_normal((nx[m], nx[p])))
        qp.set_field("B", e, rng.standard_normal((nx[m], nu[p])))
        qp.set_field("b", e, rng.standard_normal(nx[m]))
    return qp


# every factorization route: (variant, use_qr, reg_prim)
ROUTES = [
    ("classical", False, 0.0), ("square_root", False, 0.0),
    ("square_root", True, 0.0), ("classical", False, 1e-3),
    ("classical", True, 1e-3),
]


class TestBandSolveEquivalence:
    """The band solve against the node-loop solve it replaced."""

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @settings(max_examples=60)
    @given(qp=convex_stage_qps(), seed=st.integers(0, 2**32 - 1))
    def test_matches_node_loop_reference(self, variant, use_qr, reg_prim, qp, seed):
        rng = np.random.default_rng(seed)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        fac = ko.riccati_factor(
            qp, it, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim),
            use_qr=use_qr)
        for _ in range(2):
            rhs = (rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
                   rng.standard_normal(vw.nc),
                   np.where(vw.act, rng.standard_normal(vw.nc), 0.0))
            step = fac.solve(*rhs).flat()
            ref = riccati_solve_ref(fac, *rhs).flat()
            err = float(np.max(np.abs(step - ref), initial=0.0))
            assert err <= EQUIV_RTOL * max(1.0, float(np.max(np.abs(ref), initial=0.0)))


# fixed before the node kernels replaced the wrapper-based sweep: the sweeps
# do the same arithmetic except ``P = G_xx - X'X`` for ``G_xx + G_ux' K``,
# which moves results by a few ulps times the conditioning of the random
# node Hessians
SWEEP_RTOL = 1e-12


def _close(a, ref):
    err = float(np.max(np.abs(a - ref), initial=0.0))
    return err <= SWEEP_RTOL * max(1.0, float(np.max(np.abs(ref), initial=0.0)))


class TestFactorSweepEquivalence:
    """The node-kernel factor sweep against the wrapper-based sweep it replaced."""

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @settings(max_examples=120)
    @given(qp=st.one_of(convex_stage_qps(), level_trees()),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_sweep(self, variant, use_qr, reg_prim, qp, seed):
        rng = np.random.default_rng(seed)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        fac = ko.riccati_factor(qp, it, **kw)
        ref = riccati_factor_ref(qp, it, **kw)
        for n in range(vw.n_node):
            nu = qp.dim.nu[n]
            assert fac.L_uu[n].shape == ref.L_uu[n].shape
            assert _close(fac.L_uu[n], ref.L_uu[n])
            assert fac.L_xu[n].shape == ref.L_col[n][nu:].shape
            assert _close(fac.L_xu[n], ref.L_col[n][nu:])
            assert _close(fac.p_matrix(n), ref.p_matrix(n))
            assert fac.K[n].shape == ref.K[n].shape
            assert _close(fac.K[n], ref.K[n])
        assert fac.ab.shape == ref.ab.shape
        assert _close(fac.ab, ref.ab)
        rhs = (rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
               rng.standard_normal(vw.nc),
               np.where(vw.act, rng.standard_normal(vw.nc), 0.0))
        assert _close(fac.solve(*rhs).flat(), ko.riccati_solve(ref, *rhs).flat())

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @settings(max_examples=120)
    @given(qp=st.one_of(convex_stage_qps(), level_trees()),
           seed=st.integers(0, 2**32 - 1))
    def test_cost_to_go_buffer_matches_reference(self, variant, use_qr, reg_prim,
                                                 qp, seed):
        rng = np.random.default_rng(seed)
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        fac = ko.riccati_factor(qp, it, **kw)
        ref = riccati_factor_ref(qp, it, **kw)
        p = int(max(qp.dim.nx))
        assert fac.p_blocks.shape == (vw.n_node, p, p)
        for n, B in enumerate(ref.L_P if fac.sqrt else ref.P):
            nx = qp.dim.nx[n]
            assert _close(fac.p_blocks[n, :nx, :nx], B)
            assert not np.any(fac.p_blocks[n, nx:]) and not np.any(fac.p_blocks[n, :, nx:])
        # P_m times the pi block of the edge into m, for every edge
        vec = rng.standard_normal(vw.ne)
        want = np.empty(vw.ne)
        for (_, m, _), off in zip(vw.edges, vw.pi_off):
            blk = slice(off, off + qp.dim.nx[m])
            want[blk] = ref.p_matrix(m) @ vec[blk]
        assert _close(ko._p_apply(fac, vec), want)

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_indefinite_node_fails_at_reference_stage(self, rng, variant,
                                                      use_qr, reg_prim, kind):
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        for bad in range(4):
            qp = (rand_ocp_qp(rng, N=4, nx=3, nu=2) if kind == "ocp"
                  else rand_tree_qp(rng, [-1, 0, 0, 1, 2], nx=3, nu=2))
            qp.set_field("R", bad, -1e3 * np.eye(2))
            it = rand_iterate(rng, qp)
            with pytest.raises(FactorizationFailed) as got:
                ko.riccati_factor(qp, it, **kw)
            with pytest.raises(FactorizationFailed) as want:
                riccati_factor_ref(qp, it, **kw)
            assert got.value.stage == want.value.stage == bad

    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_flops_are_the_kernel_counts_with_lazy_gains(self, rng, variant,
                                                         use_qr, kind):
        # the sweep counts what the reference's kernels count, except the
        # gain solves nu^2 nx per node, which it counts when K is read
        qp = (rand_ocp_qp(rng, N=5, nx=3, nu=2) if kind == "ocp"
              else rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2]))
        it = rand_iterate(rng, qp)
        with flop_counter() as want:
            riccati_factor_ref(qp, it,
                               arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
        with flop_counter() as got:
            fac = ko.riccati_factor(qp, it,
                                    arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
        gains = sum(nu * nu * nx for nu, nx in zip(qp.dim.nu, qp.dim.nx) if nu)
        assert got.flops == want.flops - gains
        with flop_counter() as read:
            fac.K[0]
            fac.K[1]
        assert read.flops == gains

    @staticmethod
    def _ref_lag(qp, bad, order=None):
        """What the reference has not counted when node ``bad`` fails, less
        what it counted in excess.

        It forms each node's reduced Hessian (the Gram kernel's
        ``ng nw (nw + 1)``) when its sweep reaches the node, where the
        sweep forms all of them first, and it solves the gains ``K`` of the
        nodes it completed.  Its sweep is descending, or in ``order`` (see
        :func:`riccati_factor_ref`).
        """
        d = qp.dim
        order = list(range(len(d.nu) - 1, -1, -1) if order is None else order)
        at = order.index(bad)
        return (sum(d.ng[n] * (d.nu[n] + d.nx[n]) * (d.nu[n] + d.nx[n] + 1)
                    for n in order[at + 1:])
                - sum(d.nu[n] * d.nu[n] * d.nx[n] for n in order[:at]))

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @pytest.mark.parametrize("bad", [1, 2, 4, 5, 7, 30])
    def test_failing_node_inside_a_level(self, rng, variant, use_qr, reg_prim,
                                         bad):
        # levels {1, 2}, {3, 4, 5, 6} and the 36 leaves {7, ..., 42}; the
        # stacked step fails and its nodes rerun one by one, so the stage
        # and the flops counted up to the failure are the node-by-node
        # sweep's
        parents = [-1, 0, 0, 1, 1, 2, 2] + [p for p in (3, 4, 5, 6) for _ in range(9)]
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        qp = rand_tree_qp(rng, parents, nx=3, nu=2)
        level = {lv.k for lv in ko._band(make_view(qp)).levels if bad in lv.nodes}
        assert level == ({36} if bad > 6 else {4} if bad > 2 else {2})
        qp.set_field("R", bad, -1e3 * np.eye(2))
        it = rand_iterate(rng, qp)
        with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
            ko.riccati_factor(qp, it, **kw)
        with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
            riccati_factor_ref(qp, it, **kw)
        assert got.value.stage == want.value.stage == bad
        assert got_fl.flops == want_fl.flops + self._ref_lag(qp, bad)

    @pytest.mark.parametrize("bad", [3, 4, 6])
    def test_rank_deficient_stack_inside_a_level(self, rng, bad):
        # a leaf of the level {3, 4, 5, 6} whose node Hessian has a
        # direction of curvature 1e-40: dpotrf factors it, but the QR of
        # its stack [chol(M)'] is rank deficient
        parents = [-1, 0, 0, 1, 1, 2, 2]
        qp = rand_tree_qp(rng, parents, nx=3, nu=2)
        qp.set_field("R", bad, np.eye(2))
        qp.set_field("S", bad, np.zeros((2, 3)))
        qp.set_field("Q", bad, np.diag([1.0, 1.0, 1e-40]))
        m = qp.dim.nb[bad] + qp.dim.ng[bad]
        qp.set_field("maskl", bad, np.zeros(m))
        qp.set_field("masku", bad, np.zeros(m))
        it = rand_iterate(rng, qp)
        kw = dict(use_qr=True)
        with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
            ko.riccati_factor(qp, it, **kw)
        with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
            riccati_factor_ref(qp, it, **kw)
        assert "at or below" in str(got.value)
        assert got.value.stage == want.value.stage == bad
        assert got_fl.flops == want_fl.flops + self._ref_lag(qp, bad)
        # the Cholesky routes factor it
        ko.riccati_factor(qp, it, arg=IpmArg(riccati_variant="square_root"))

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @pytest.mark.parametrize("nx,nu", [([0, 2, 2], [1, 1, 0]), ([2, 2, 0], [1, 1, 0]),
                                       ([2, 0, 2], [1, 0, 0])])
    def test_stages_without_variables_match_reference(self, rng, variant, use_qr,
                                                      reg_prim, nx, nu):
        qp = OcpQp(OcpQpDim(2, nx=nx, nu=nu))
        for n in range(3):
            qp.set_field("R", n, np.eye(nu[n]))
            qp.set_field("Q", n, np.eye(nx[n]))
        for n in range(2):
            qp.set_field("A", n, 0.3 * rng.standard_normal((nx[n + 1], nx[n])))
            qp.set_field("B", n, rng.standard_normal((nx[n + 1], nu[n])))
        it = rand_iterate(rng, qp)
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        with flop_counter() as got_fl:
            fac = ko.riccati_factor(qp, it, **kw)
        with flop_counter() as want_fl:
            ref = riccati_factor_ref(qp, it, **kw)
        gains = sum(a * a * b for a, b in zip(nu, nx) if a)
        assert got_fl.flops == want_fl.flops - gains
        assert _close(fac.ab, ref.ab)
        for n in range(3):
            assert _close(fac.p_matrix(n), ref.p_matrix(n))

    @settings(max_examples=40)
    @given(qp=level_trees(), seed=st.integers(0, 2**32 - 1))
    def test_level_tree_flops_are_the_kernel_counts(self, qp, seed):
        it = rand_iterate(np.random.default_rng(seed), qp)
        gains = sum(nu * nu * nx for nu, nx in zip(qp.dim.nu, qp.dim.nx) if nu)
        for variant, use_qr in (("classical", False), ("square_root", False),
                                ("square_root", True)):
            with flop_counter() as want:
                riccati_factor_ref(qp, it,
                                   arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
            with flop_counter() as got:
                ko.riccati_factor(qp, it,
                                  arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
            assert got.flops == want.flops - gains


def _spy(monkeypatch, name):
    """Record the stack size of every call to ``ko.name``: the leading
    dimension of a (k, ., .) stack, 1 for a block."""
    real = getattr(ko, name)
    calls = []

    def kernel(A, *rest):
        calls.append(A.shape[0] if A.ndim == 3 else 1)
        return real(A, *rest)

    monkeypatch.setattr(ko, name, kernel)
    return calls


def _scalar_tree(parents, Q, R):
    """Scalar-state tree with ``A = B = 1`` on every edge; childless nodes
    have no input."""
    n_node = len(parents)
    nu = [int(n in parents) for n in range(n_node)]
    qp = TreeOcpQp(TreeOcpQpDim(parents, nx=[1] * n_node, nu=nu))
    for n in range(n_node):
        qp.set_field("Q", n, [[Q[n]]])
        if nu[n]:
            qp.set_field("R", n, [[R[n]]])
        if n:
            qp.set_field("A", n, [[1.0]])
            qp.set_field("B", n, [[1.0]])
    return qp


def _chain(Q, R):
    """Scalar chain with ``A = B = 1``; the last stage has no input."""
    N = len(Q) - 1
    qp = OcpQp(OcpQpDim(N, nx=[1] * (N + 1), nu=[1] * N + [0]))
    for n in range(N + 1):
        qp.set_field("Q", n, [[Q[n]]])
        if n < N:
            qp.set_field("R", n, [[R[n]]])
            qp.set_field("A", n, [[1.0]])
            qp.set_field("B", n, [[1.0]])
    return qp


class TestWholeBlockFallback:
    """The classical step factors whole node blocks; a node whose block is
    not positive definite takes the input-block step on its own block, also
    inside a stacked level."""

    # stage 1: G = [[2, 1], [1, -2]] is indefinite, G_uu = 2 and P1 = -2.5;
    # stage 0: G = [[7.5, -2.5], [-2.5, 7.5]], P0 = 20/3
    CHAIN = dict(Q=[10.0, -3.0, 1.0], R=[10.0, 1.0])
    # level {1, 2}: node 1 as stage 1 above, node 2 positive definite
    TREE = dict(parents=[-1, 0, 0, 1, 2], Q=[10.0, -3.0, 1.0, 1.0, 1.0],
                R=[10.0, 1.0, 1.0])

    def _agrees_with_reference(self, qp):
        it = QpSolution(make_view(qp))
        with flop_counter() as got_fl:
            fac = ko.riccati_factor(qp, it)
        with flop_counter() as want_fl:
            ref = riccati_factor_ref(qp, it)
        for n in range(len(ref.P)):
            assert _close(fac.L_uu[n], ref.L_uu[n])
            assert _close(fac.L_xu[n], ref.L_col[n][qp.dim.nu[n]:])
            assert _close(fac.p_matrix(n), ref.p_matrix(n))
        assert _close(fac.ab, ref.ab)
        gains = sum(nu * nu * nx for nu, nx in zip(qp.dim.nu, qp.dim.nx) if nu)
        assert got_fl.flops == want_fl.flops - gains
        return fac

    def test_indefinite_interior_block_of_a_chain(self, monkeypatch):
        qp = _chain(**self.CHAIN)
        reduced = _spy(monkeypatch, "cholesky_solve")
        fac = self._agrees_with_reference(qp)
        assert reduced == [1]
        assert fac.p_matrix(1)[0, 0] == pytest.approx(-2.5)
        assert fac.p_matrix(0)[0, 0] == pytest.approx(20.0 / 3.0)
        with pytest.raises(FactorizationFailed) as ei:
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              arg=IpmArg(riccati_variant="square_root"))
        assert ei.value.stage == 1

    def test_indefinite_node_alone_takes_the_input_block_step(self, monkeypatch):
        # the stacked level {1, 2} is redone node by node: node 2 factors
        # its whole block, node 1 falls back to its input block
        qp = _scalar_tree(**self.TREE)
        assert [lv.k for lv in ko._band(make_view(qp)).levels] == [2, 2, 1]
        reduced = _spy(monkeypatch, "cholesky_solve")
        fac = self._agrees_with_reference(qp)
        assert reduced == [1]
        assert fac.p_matrix(1)[0, 0] == pytest.approx(-2.5)
        assert fac.p_matrix(2)[0, 0] == pytest.approx(1.5)
        with pytest.raises(FactorizationFailed) as ei:
            ko.riccati_factor(qp, QpSolution(make_view(qp)),
                              arg=IpmArg(riccati_variant="square_root"))
        assert ei.value.stage == 1

    def test_failed_stack_is_redone_from_the_reduced_hessians(self, rng,
                                                               monkeypatch):
        # node 4 of the level {3, 4, 5, 6} has an indefinite whole block and
        # a positive definite input block.  The kernel factors the stack
        # block by block in place, so when node 4 fails it has overwritten
        # node 3's block and part of node 4's; the node-by-node redo must
        # start again from the reduced Hessians
        qp = rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2, 2], nx=3, nu=2)
        assert ko._band(make_view(qp)).levels[0].nodes == [3, 4, 5, 6]
        for n in range(7):
            qp.set_field("R", n, qp.get_field("R", n) + 1e5 * np.eye(2))
        for n in range(3):
            # the nodes above take in node 4's negative curvature
            qp.set_field("Q", n, qp.get_field("Q", n) + 1e7 * np.eye(3))
        qp.set_field("Q", 4, qp.get_field("Q", 4) - 1e3 * np.eye(3))
        it = rand_iterate(rng, qp, spread=(0.5, 2.0))
        reduced = _spy(monkeypatch, "cholesky_solve")
        fac = ko.riccati_factor(qp, it)
        ref = riccati_factor_ref(qp, it)
        assert reduced == [1]
        assert np.linalg.eigvalsh(ref.P[4])[0] < 0
        _matches_reference(qp, fac, ref)
        vw = make_view(qp)
        rhs = (rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
               rng.standard_normal(vw.nc),
               np.where(vw.act, rng.standard_normal(vw.nc), 0.0))
        assert _close(fac.solve(*rhs).flat(), ko.riccati_solve(ref, *rhs).flat())

    @settings(max_examples=60, deadline=None)
    @given(qp=st.one_of(convex_stage_qps(), level_trees()),
           seed=st.integers(0, 2**32 - 1), reg_prim=st.sampled_from([0.0, 1e-3]),
           data=st.data())
    def test_random_indefinite_blocks_match_reference(self, qp, seed, reg_prim,
                                                      data):
        # chains, parents-first trees and trees numbered breadth or depth
        # first: random nodes below the root get an indefinite whole block;
        # every input block, and the root's whole block, which absorbs the
        # negative curvature passed up to it, stay positive definite, so
        # those nodes take the input-block step, on one-node and stacked
        # levels alike
        d, rng = qp.dim, np.random.default_rng(seed)
        n_node = len(d.nx)
        assume(n_node > 1)
        for n in range(n_node):
            qp.set_field("R", n, qp.get_field("R", n) + 1e5 * np.eye(d.nu[n]))
        qp.set_field("Q", 0, qp.get_field("Q", 0) + 1e7 * np.eye(d.nx[0]))
        indefinite = data.draw(st.sets(st.integers(1, n_node - 1), min_size=1))
        for n in indefinite:
            qp.set_field("Q", n, qp.get_field("Q", n) - 1e3 * np.eye(d.nx[n]))
        it = rand_iterate(rng, qp, spread=(0.5, 2.0))
        arg = IpmArg(reg_prim=reg_prim)
        try:
            with flop_counter() as want_fl:
                ref = riccati_factor_ref(qp, it, arg=arg)
        except FactorizationFailed:
            # an ancestor's input block took in too much negative curvature
            assume(False)
        assert all(np.linalg.eigvalsh(ref.P[n])[0] < 0 for n in indefinite)
        with flop_counter() as got_fl:
            fac = ko.riccati_factor(qp, it, arg=arg)
        _matches_reference(qp, fac, ref)
        gains = sum(nu * nu * nx for nu, nx in zip(d.nu, d.nx) if nu)
        assert got_fl.flops == want_fl.flops - gains
        # then one node's input block indefinite too: every route fails at
        # the reference's stage, with its flops, when the reference visits
        # the nodes in the order of the sweep's level schedule
        inputs = [n for n in range(n_node) if d.nu[n]]
        if not inputs:
            return
        bad = data.draw(st.sampled_from(inputs))
        G_uu = ref.L_uu[bad] @ ref.L_uu[bad].T
        shift = np.linalg.eigvalsh(G_uu)[-1] + 1.0
        qp.set_field("R", bad, qp.get_field("R", bad) - shift * np.eye(d.nu[bad]))
        it = QpSolution.from_flat(make_view(qp), it.flat())
        order = [n for lv in ko._band(make_view(qp)).levels for n in lv.nodes[::-1]]
        for variant, use_qr, reg in ROUTES:
            kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant,
                                                reg_prim=reg))
            with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
                ko.riccati_factor(qp, it, **kw)
            with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
                riccati_factor_ref(qp, it, order=order, **kw)
            stage = want.value.stage
            assert got.value.stage == stage
            if variant == "classical" and not use_qr:
                assert stage == bad
            lag = TestFactorSweepEquivalence._ref_lag(qp, stage, order)
            assert got_fl.flops == want_fl.flops + lag

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_input_block_not_positive_definite_fails_at_its_stage(self, kind):
        # R1 = -5 makes G_uu = -4 at node 1: the fallback fails too, at the
        # stage and with the flops counted up to the failure of the
        # node-by-node sweep (see TestFactorSweepEquivalence._ref_lag)
        if kind == "ocp":
            qp = _chain(Q=self.CHAIN["Q"], R=[10.0, -5.0])
        else:
            qp = _scalar_tree(**dict(self.TREE, R=[10.0, -5.0, 1.0]))
        it = QpSolution(make_view(qp))
        with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
            ko.riccati_factor(qp, it)
        with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
            riccati_factor_ref(qp, it)
        assert got.value.stage == want.value.stage == 1
        lag = TestFactorSweepEquivalence._ref_lag(qp, 1)
        assert got_fl.flops == want_fl.flops + lag

    def test_indefinite_root_fails_at_stage_zero(self):
        # root G = [[2, 1], [1, -2]]: G_uu is positive definite, P0 = -2.5
        # is not
        qp = _chain(Q=[-3.0, 1.0], R=[1.0])
        it = QpSolution(make_view(qp))
        with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
            ko.riccati_factor(qp, it)
        with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
            riccati_factor_ref(qp, it)
        assert got.value.stage == want.value.stage == 0
        assert "cost-to-go" in str(got.value)
        assert got_fl.flops == want_fl.flops - 1    # the gain solve of stage 0

    @pytest.mark.parametrize("reg_prim", [0.0, 1e-3])
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_root_block_is_the_trailing_factor(self, rng, monkeypatch, kind,
                                               reg_prim):
        qp = (rand_ocp_qp(rng, N=5, nx=3, nu=2) if kind == "ocp"
              else rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2], nx=3, nu=2))
        it = rand_iterate(rng, qp)
        arg = IpmArg(reg_prim=reg_prim)
        update = _spy(monkeypatch, "cholesky_update")
        chol = _spy(monkeypatch, "cholesky_sqrt_update")
        fac = ko.riccati_factor(qp, it, arg=arg)
        ref = riccati_factor_ref(qp, it, arg=arg)
        band = fac.view.band
        assert len(update) == len(band.levels) and chol == []
        # the trailing (3, 3) triangle of the root's (5, 5) work block
        root = band.dst[(band.src >= 2 * 6) & (band.src < fac.view.hess_off[1])]
        assert root.size == 3 * 4 // 2
        got, want = fac.ab.T.ravel()[root], ref.ab.T.ravel()[root]
        assert _close(got, want)
        L0 = np.linalg.cholesky(ref.p_matrix(0))
        assert _close(got, L0.T[np.triu_indices(3)])


def _rank_deficient_qp(rng, kind):
    """``(qp, bad)``: node ``bad``'s Hessian has a direction of curvature
    1e-40 that no row of its QR stack reaches.  It is a leaf, the last
    stage of a chain or one of the stacked level {3, 4, 5, 6} of a tree."""
    if kind == "ocp":
        qp, bad = rand_ocp_qp(rng, N=3, nx=3, nu=2), 3
    else:
        qp, bad = rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2, 2], nx=3, nu=2), 4
        qp.set_field("R", bad, np.eye(2))
        qp.set_field("S", bad, np.zeros((2, 3)))
    qp.set_field("Q", bad, np.diag([1.0, 1.0, 1e-40]))
    m = qp.dim.nb[bad] + qp.dim.ng[bad]
    qp.set_field("maskl", bad, np.zeros(m))
    qp.set_field("masku", bad, np.zeros(m))
    return qp, bad


class TestReducedHessianKept:
    """The sweep factors a copy of the reduced Hessians in place: the buffer
    that :func:`kkt_common.reduced_hessian` returns, which the classical
    fallback and a failed level's node-by-node rerun read, is bit for bit
    unchanged after the sweep, whether it succeeds, falls back or fails."""

    @staticmethod
    def _sweep(monkeypatch, qp, it, **kw):
        """The failing stage (None on success), with the buffer checked."""
        real, kept = ko.reduced_hessian, []

        def spy(*args):
            hess = real(*args)
            kept.append((hess, hess.copy()))
            return hess

        monkeypatch.setattr(ko, "reduced_hessian", spy)
        stage = None
        try:
            ko.riccati_factor(qp, it, **kw)
        except FactorizationFailed as exc:
            stage = exc.stage
        (hess, before), = kept
        assert np.array_equal(hess, before)
        return stage

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_successful_sweep(self, rng, monkeypatch, variant, use_qr, reg_prim,
                              kind):
        qp = (rand_ocp_qp(rng, N=5, nx=3, nu=2) if kind == "ocp"
              else rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2, 2], nx=3, nu=2))
        arg = IpmArg(riccati_variant=variant, reg_prim=reg_prim)
        assert self._sweep(monkeypatch, qp, rand_iterate(rng, qp), arg=arg,
                           use_qr=use_qr) is None

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_classical_fallback_and_square_root_failure(self, monkeypatch, kind):
        # node 1's whole block is indefinite: the classical step falls back
        # to its input block alone (its one-node level on the chain; on the
        # tree, its stacked level redone node by node), the square-root
        # step fails there
        fb = TestWholeBlockFallback
        qp = _chain(**fb.CHAIN) if kind == "ocp" else _scalar_tree(**fb.TREE)
        it = QpSolution(make_view(qp))
        reduced = _spy(monkeypatch, "cholesky_solve")
        assert self._sweep(monkeypatch, qp, it) is None
        assert reduced == [1]
        assert self._sweep(monkeypatch, qp, it,
                           arg=IpmArg(riccati_variant="square_root")) == 1

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_qr_rank_failure(self, rng, monkeypatch, kind):
        qp, bad = _rank_deficient_qp(rng, kind)
        assert self._sweep(monkeypatch, qp, rand_iterate(rng, qp),
                           use_qr=True) == bad


def _mass_spring_tree(masses=3, horizon=8, branch_levels=2):
    """Binary scenario tree on mass-spring dynamics, as the benchmark's:
    31 nodes by default, each branch with its own sampling time, costs
    weighted by the node's probability, input and state boxes."""
    parents, ts, prob, level = [-1], [0.5], [1.0], [0]
    n = 0
    while n < len(parents):
        k = 2 if level[n] < branch_levels else 1 if level[n] < horizon else 0
        for j in range(k):
            parents.append(n)
            level.append(level[n] + 1)
            prob.append(prob[n] / k)
            ts.append(ts[n] * (1.0 + 0.1 * (j - 0.5)) if k == 2 else ts[n])
        n += 1
    nx = 2 * masses
    nu = [0 if lev == horizon else masses - 1 for lev in level]
    qp = TreeOcpQp(TreeOcpQpDim(parents, nx=[nx] * len(parents), nu=nu,
                                nb=[m + nx for m in nu]))
    for n, m in enumerate(nu):
        qp.set_field("Q", n, prob[n] * np.eye(nx))
        qp.set_field("idxb", n, np.arange(m + nx))
        qp.set_field("lb", n, np.r_[-0.5 * np.ones(m), -4.0 * np.ones(nx)])
        qp.set_field("ub", n, np.r_[0.5 * np.ones(m), 4.0 * np.ones(nx)])
        if m:
            qp.set_field("R", n, prob[n] * np.eye(m))
        if n:
            A, B = mass_spring_dynamics(masses, ts[n])
            qp.set_field("A", n, A)
            qp.set_field("B", n, B)
    qp.set_field("lbx", 0, default_x0(masses))
    qp.set_field("ubx", 0, default_x0(masses))
    return qp


class TestWorkloadFactorCalls:
    """At the iterates of the benchmark's problems no classical level falls
    back: a factorization makes one call of the fused update-and-factor
    kernel per level and none of the input-block Cholesky.  Call counts do
    not depend on the host."""

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_one_cholesky_call_per_level(self, monkeypatch, kind):
        if kind == "ocp":
            qp = gen_mass_spring(MassSpringConfig(masses=4, horizon=20))
            solve, mode, n_node = solve_ocp_qp, "balance", 21
        else:
            qp = _mass_spring_tree()
            solve, mode, n_node = solve_tree_ocp_qp, "speed", 31
        assert make_view(qp).n_node == n_node
        update = _spy(monkeypatch, "cholesky_update")
        chol = _spy(monkeypatch, "cholesky_sqrt_update")
        reduced = _spy(monkeypatch, "cholesky_solve")
        real, calls = ko.riccati_factor, []

        def factor(qp, iterate, arg=None, use_qr=False):
            counts = [len(update), len(chol), len(reduced)]
            fac = real(qp, iterate, arg=arg, use_qr=use_qr)
            calls.append((use_qr, len(update) - counts[0], len(chol) - counts[1],
                          len(reduced) - counts[2]))
            return fac

        monkeypatch.setattr(ko, "riccati_factor", factor)
        rep = solve(qp, mode_preset(mode).with_tol(1e-6))
        assert rep.status is Status.Success
        levels = len(ko._band(make_view(qp)).levels)
        assert levels == (21 if kind == "ocp" else 9)
        classical = [c[1:] for c in calls if not c[0]]
        assert len(classical) == rep.iterations
        assert classical == [(levels, 0, 0)] * rep.iterations

    @pytest.mark.parametrize("variant", ["classical", "square_root"])
    def test_cholesky_routes_factor_one_node_block_per_call(self, rng,
                                                            monkeypatch, variant):
        # the stacked levels of 2 and 4 nodes make one dpotrf per node, each
        # on that node's (w, w) block
        qp = _mass_spring_tree()
        assert sorted({lv.k for lv in ko._band(make_view(qp)).levels}) == [1, 2, 4]
        w = max(qp.dim.nu + qp.dim.nx)
        real, shapes = linalg._dpotrf, []

        def potrf(A, *args):
            shapes.append(A.shape)
            return real(A, *args)

        monkeypatch.setattr(linalg, "_dpotrf", potrf)
        ko.riccati_factor(qp, rand_iterate(rng, qp),
                          arg=IpmArg(riccati_variant=variant))
        assert len(shapes) == 31
        assert all(len(s) == 2 and s[0] == s[1] <= w for s in shapes)

    def test_robust_tree_runs_no_qr_on_leaves(self, rng, monkeypatch):
        # the QR route triangularizes one stack per node with children (27
        # of the 31) and takes chol(M) of the 4 leaves as it is, with the
        # reference's factor and flops
        qp = _mass_spring_tree()
        it = rand_iterate(rng, qp)
        arg = mode_preset("robust")
        tpqrt, geqrf = [], []
        for name, calls in (("_tpqrt", tpqrt), ("_geqrf", geqrf)):
            def counted(*a, real=getattr(linalg, name), calls=calls, **kw):
                calls.append(1)
                return real(*a, **kw)

            monkeypatch.setattr(linalg, name, counted)
        with flop_counter() as got_fl:
            fac = ko.riccati_factor(qp, it, arg=arg, use_qr=True)
        assert len(tpqrt) == 27 and geqrf == []
        with flop_counter() as want_fl:
            ref = riccati_factor_ref(qp, it, arg=arg, use_qr=True)
        gains = sum(nu * nu * nx for nu, nx in zip(qp.dim.nu, qp.dim.nx) if nu)
        assert got_fl.flops == want_fl.flops - gains
        for n in range(len(ref.P)):
            assert _close(fac.L_uu[n], ref.L_uu[n])
            assert _close(fac.L_xu[n], ref.L_col[n][qp.dim.nu[n]:])
            assert _close(fac.p_matrix(n), ref.p_matrix(n))
        assert _close(fac.ab, ref.ab)


class TestWorkloadVectorPasses:
    """Vector work per iteration on the benchmark's problems, counted, not
    timed: an iteration whose accepted corrector took no refinement
    correction makes two ratio passes, its step length coming from the
    acceptance test's pass, and a factorization forms ``P r_b`` once for
    the loop's solves; each refinement solve has its own ``r_b``."""

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_two_ratio_passes_and_one_p_product(self, monkeypatch, kind):
        from mpcqp import ipm_core, solver

        if kind == "ocp":
            qp = gen_mass_spring(MassSpringConfig(masses=4, horizon=20))
            solve, mode = solve_ocp_qp, "balance"
        else:
            qp = _mass_spring_tree()
            solve, mode = solve_tree_ocp_qp, "speed"
        passes, marks = [0], []

        def counted(fn):
            def pass_(*args, **kw):
                passes[0] += 1
                return fn(*args, **kw)
            return pass_

        def update(*args, real=solver.update_iterate_delta, **kw):
            marks.append(passes[0])
            return real(*args, **kw)

        # a ratio pass is a call of either kernel by the loop's bindings
        for name in ("max_step", "_step_ratio"):
            monkeypatch.setattr(solver, name, counted(getattr(ipm_core, name)))
        monkeypatch.setattr(solver, "update_iterate_delta", update)
        # a P r_b product is a _p_apply call on the r_b its solve was given
        real_factor, real_solve, real_apply = (ko.riccati_factor, ko.riccati_solve,
                                               ko._p_apply)
        factors, flat_solves, rb_products, current = [0], [0], [0], [None]

        def factor(*args, **kw):
            fac = real_factor(*args, **kw)
            factors[0] += 1
            return fac

        def riccati_solve(fac, r_g, r_b, r_d, r_m):
            current[0] = r_b
            return real_solve(fac, r_g, r_b, r_d, r_m)

        def p_apply(fac, vec):
            rb_products[0] += vec is current[0]
            return real_apply(fac, vec)

        def solve_flat(fac, rhs_flat, real=ko.RiccatiFactor.solve_flat):
            flat_solves[0] += 1
            return real(fac, rhs_flat)

        monkeypatch.setattr(ko, "riccati_factor", factor)
        monkeypatch.setattr(ko, "riccati_solve", riccati_solve)
        monkeypatch.setattr(ko, "_p_apply", p_apply)
        monkeypatch.setattr(ko.RiccatiFactor, "solve_flat", solve_flat)
        rep = solve(qp, mode_preset(mode).with_tol(1e-6))
        assert rep.status is Status.Success
        per_iter = np.diff([0] + marks).tolist()
        assert len(per_iter) == rep.iterations
        unrefined = [r.corrector and r.refine_steps == 0
                     for r in rep.stats.trace]
        assert sum(unrefined) >= rep.iterations // 2
        for n, plain in zip(per_iter, unrefined):
            assert n == 2 if plain else n in (2, 3)
        assert rb_products[0] == factors[0] + flat_solves[0]


class TestApplyAndFlops:
    def test_apply_zero(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=1)
        it = rand_iterate(rng, qp)
        out = kkt_apply_blocks(qp, it, QpSolution(make_view(qp)))
        assert all(np.max(np.abs(b)) == 0.0 for b in out if b.size)

    def test_solve_apply_consistency(self, rng):
        qp = rand_ocp_qp(rng, N=4, nx=3, nu=2)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        ag, ab, ad, am = kkt_apply_blocks(qp, it, step)
        rd = np.where(vw.act, res.r_d, 0.0)
        worst = max(np.max(np.abs(ag + res.r_g)), np.max(np.abs(ab + res.r_b)),
                    np.max(np.abs(ad + rd)), np.max(np.abs(am + rm)))
        assert worst <= 1e-9 * (1.0 + np.max(np.abs(step.flat())))

    def test_single_stage_matches_dense_backend(self, rng):
        # an N = 0 problem is exactly a dense QP on (u, x)
        import mpcqp.kkt_dense as kd

        qp = OcpQp(OcpQpDim(0, nx=[3], nu=[2], nb=[3], ng=[1], ns=[1]))
        G = rng.standard_normal((5, 5))
        M0 = G @ G.T + np.eye(5)
        qp.set_field("R", 0, M0[:2, :2])
        qp.set_field("S", 0, M0[:2, 2:])
        qp.set_field("Q", 0, M0[2:, 2:])
        qp.set_field("r", 0, rng.standard_normal(2))
        qp.set_field("q", 0, rng.standard_normal(3))
        qp.set_field("idxb", 0, [0, 2, 4])
        qp.set_field("lb", 0, [-1.0, -1.0, -1.0])
        qp.set_field("ub", 0, [1.0, 1.0, 1.0])
        qp.set_field("C", 0, rng.standard_normal((1, 3)))
        qp.set_field("D", 0, rng.standard_normal((1, 2)))
        qp.set_field("lg", 0, [-2.0])
        qp.set_field("ug", 0, [2.0])
        qp.set_field("idxs", 0, [1])
        qp.set_field("Zl", 0, [1.0])
        qp.set_field("Zu", 0, [2.0])
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        step = ko.riccati_factor(qp, it).solve(res.r_g, res.r_b, res.r_d, rm)

        dqp = DenseQp(5, 0, qp.dim.nb[0], qp.dim.ng[0], qp.dim.ns[0])
        M = np.zeros((5, 5))
        M[:2, :2] = qp.get_field("R", 0)
        M[:2, 2:] = qp.get_field("S", 0)
        M[2:, :2] = qp.get_field("S", 0).T
        M[2:, 2:] = qp.get_field("Q", 0)
        dqp.set_field("H", M)
        dqp.set_field("g", np.concatenate(
            [qp.get_field("r", 0), qp.get_field("q", 0)]))
        for name in ("idxb", "lb", "ub", "lg", "ug", "idxs",
                     "Zl", "Zu", "zl", "zu", "sl_lb", "su_lb",
                     "maskl", "masku"):
            dqp.set_field(name, qp.get_field(name, 0))
        dqp.set_field("C", np.hstack(
            [qp.get_field("D", 0), qp.get_field("C", 0)]))
        dit = QpSolution(make_view(dqp), it.y.copy(), it.pi.copy(),
                         it.lam.copy(), it.t.copy())
        dres = compute_residuals(dqp, dit)
        dstep = kd.factor(dqp, dit, IpmArg()).solve(
            dres.r_g, dres.r_b, dres.r_d, rm)
        # both flats are [y, (empty pi), lam, t] with identical layouts
        assert np.max(np.abs(step.flat() - dstep.flat())) <= 1e-10 * (
            1.0 + np.max(np.abs(step.flat())))

    def test_solve_flops_linear_in_horizon(self, rng):
        # a band that filled in toward dense would grow quadratically
        def count(N):
            qp = rand_ocp_qp(rng, N=N, nx=4, nu=2)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            fac = ko.riccati_factor(qp, it)
            with flop_counter() as fc:
                fac.solve(res.r_g, res.r_b, res.r_d, rm)
            return fc.flops

        c8, c16, c32 = count(8), count(16), count(32)
        assert 1.9 <= c16 / c8 <= 2.1
        assert 1.9 <= c32 / c16 <= 2.1

    def test_factor_flops_linear_in_horizon(self, rng):
        def count(N):
            qp = rand_ocp_qp(rng, N=N, nx=4, nu=2)
            it = rand_iterate(rng, qp)
            with flop_counter() as fc:
                ko.riccati_factor(qp, it)
            return fc.flops

        c8, c16, c32 = count(8), count(16), count(32)
        assert 1.9 <= c16 / c8 <= 2.1
        assert 1.9 <= c32 / c16 <= 2.1


def _matches_reference(qp, fac, ref):
    """``fac`` against the reference sweep's factor, at ``SWEEP_RTOL``."""
    for n in range(len(ref.P)):
        assert _close(fac.L_uu[n], ref.L_uu[n])
        assert _close(fac.L_xu[n], ref.L_col[n][qp.dim.nu[n]:])
        assert _close(fac.p_matrix(n), ref.p_matrix(n))
        assert _close(fac.K[n], ref.K[n])
    assert _close(fac.ab, ref.ab)


def _workspace_qp(seed, kind):
    """A chain or a breadth-first tree with stacked levels, from a seed."""
    rng = np.random.default_rng(seed)
    return (rand_ocp_qp(rng, N=5, nx=3, nu=2) if kind == "ocp"
            else rand_tree_qp(rng, [-1, 0, 0, 1, 1, 2, 2], nx=3, nu=2))


class TestWorkspace:
    """The sweep runs on a workspace kept on the view's band: built on the
    view's first factorization, reused by every later one and handed back
    also when a factorization fails.  Each factor holds its own copies of
    the buffers, so a later factorization of the view leaves it alone."""

    @staticmethod
    def _spare(qp):
        ws, = ko._band(make_view(qp)).spare
        return ws

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_consecutive_factorizations_reuse_the_buffers(self, rng, kind):
        qp = _workspace_qp(40, kind)
        first = ko.riccati_factor(qp, rand_iterate(rng, qp))
        ws = self._spare(qp)
        work, p, steps = ws.work, ws.p, ws.steps
        assert all(np.shares_memory(args[0], work) for args in steps)
        second = ko.riccati_factor(qp, rand_iterate(rng, qp))
        assert self._spare(qp) is ws
        assert ws.work is work and ws.p is p and ws.steps is steps
        for fac in (first, second):
            assert not np.shares_memory(fac.work, work)
            assert not np.shares_memory(fac.p_blocks, p)
        assert not np.shares_memory(first.work, second.work)

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_each_factor_owns_its_buffers(self, rng, kind, variant, use_qr,
                                          reg_prim):
        # A at iterate 1, then B at iterate 2 on the same view: A's reads
        # are those of a fresh view's factor at iterate 1, bit for bit
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        qp, twin = _workspace_qp(41, kind), _workspace_qp(41, kind)
        it1, it2 = rand_iterate(rng, qp), rand_iterate(rng, qp)
        a = ko.riccati_factor(qp, it1, **kw)
        ko.riccati_factor(qp, it2, **kw)
        want = ko.riccati_factor(
            twin, QpSolution.from_flat(make_view(twin), it1.flat()), **kw)
        vw = a.view
        rhs = (rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
               rng.standard_normal(vw.nc),
               np.where(vw.act, rng.standard_normal(vw.nc), 0.0))
        assert np.array_equal(a.solve(*rhs).flat(), want.solve(*rhs).flat())
        for n in range(vw.n_node):
            assert np.array_equal(a.p_matrix(n), want.p_matrix(n))
            assert np.array_equal(a.L_uu[n], want.L_uu[n])
            assert np.array_equal(a.L_xu[n], want.L_xu[n])
            assert np.array_equal(a.K[n], want.K[n])
        assert np.array_equal(a.ab, want.ab)

    def test_nested_factorization_builds_its_own(self, rng, monkeypatch):
        # a factorization of the view inside a sweep of it finds the
        # workspace checked out; both hand theirs back
        qp, twin = _workspace_qp(44, "ocp"), _workspace_qp(44, "ocp")
        it1, it2 = rand_iterate(rng, qp), rand_iterate(rng, qp)
        ko.riccati_factor(qp, it1)
        real, inner = ko.cholesky_update, []

        def update(M, terms):
            if not inner:
                inner.append(None)
                inner[0] = ko.riccati_factor(qp, it2)
            return real(M, terms)

        monkeypatch.setattr(ko, "cholesky_update", update)
        outer = ko.riccati_factor(qp, it1)
        monkeypatch.undo()
        assert len(ko._band(make_view(qp)).spare) == 2
        for fac, it in ((outer, it1), (inner[0], it2)):
            want = ko.riccati_factor(
                twin, QpSolution.from_flat(make_view(twin), it.flat()))
            assert np.array_equal(fac.ab, want.ab)
            assert np.array_equal(fac.p_blocks, want.p_blocks)

    def test_concurrent_factorizations_do_not_share_a_workspace(self, rng):
        # threads factoring one view at their own iterates, switching often:
        # a shared workspace would mix their sweeps
        import sys
        import threading

        qp, twin = _workspace_qp(45, "tree"), _workspace_qp(45, "tree")
        its = [rand_iterate(rng, qp) for _ in range(6)]
        want = [ko.riccati_factor(
            twin, QpSolution.from_flat(make_view(twin), it.flat())).ab
            for it in its]
        wrong = []

        def run(k):
            for _ in range(25):
                if not np.array_equal(ko.riccati_factor(qp, its[k]).ab, want[k]):
                    wrong.append(k)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert 1 <= len(ko._band(make_view(qp)).spare) <= 6

    def test_copied_qp_gets_its_own_workspace(self, rng):
        # a deep copy would detach a workspace's prepared views from its
        # buffers: the copy's band starts without one
        import copy

        qp = _workspace_qp(42, "tree")
        it = rand_iterate(rng, qp)
        fac = ko.riccati_factor(qp, it)
        twin = copy.deepcopy(qp)
        assert ko._band(make_view(twin)).spare == []
        it_twin = QpSolution.from_flat(make_view(twin), it.flat())
        for _ in range(2):
            got = ko.riccati_factor(twin, it_twin)
            assert np.array_equal(got.ab, fac.ab)
            assert np.array_equal(got.p_blocks, fac.p_blocks)

    def _hands_back(self, monkeypatch, qp, it, kw, stage, then):
        """A view's first sweep with ``kw``, checked as in
        :class:`TestReducedHessianKept`, fails at ``stage`` (None: it
        succeeds); the workspace it built is spare afterwards, and the next
        factorization, with ``then``, reuses it and matches the reference."""
        assert TestReducedHessianKept._sweep(monkeypatch, qp, it, **kw) == stage
        monkeypatch.undo()
        ws = self._spare(qp)
        _matches_reference(qp, ko.riccati_factor(qp, it, **then),
                           riccati_factor_ref(qp, it, **then))
        assert self._spare(qp) is ws

    @pytest.mark.parametrize("kw,stage", [
        ({}, None), (dict(arg=IpmArg(riccati_variant="square_root")), 1),
    ], ids=["classical-fallback", "square-root-failure"])
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_fallback_and_failure_hand_the_workspace_back(self, monkeypatch,
                                                          kind, kw, stage):
        # node 1's whole block is indefinite: the classical step falls back
        # to its input block (inside a stacked level on the tree); square
        # root fails there
        fb = TestWholeBlockFallback
        qp = _chain(**fb.CHAIN) if kind == "ocp" else _scalar_tree(**fb.TREE)
        self._hands_back(monkeypatch, qp, QpSolution(make_view(qp)), kw, stage, {})

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_rank_failure_hands_the_workspace_back(self, rng, monkeypatch, kind):
        qp, bad = _rank_deficient_qp(rng, kind)
        self._hands_back(monkeypatch, qp, rand_iterate(rng, qp), dict(use_qr=True),
                         bad, dict(arg=IpmArg(riccati_variant="square_root")))

    @pytest.mark.parametrize("variant,use_qr,reg_prim", ROUTES)
    def test_depth_first_tree_matches_reference(self, rng, variant, use_qr,
                                                reg_prim):
        # numbered depth first, slices cannot select the nodes of a depth:
        # every node is a one-node level, in descending order per depth,
        # with its arguments prepared on the workspace like any other
        kw = dict(use_qr=use_qr, arg=IpmArg(riccati_variant=variant, reg_prim=reg_prim))
        qp = rand_tree_qp(rng, [-1, 0, 1, 1, 0, 4, 4], nx=3, nu=2)
        levels = ko._band(make_view(qp)).levels
        assert [lv.nodes for lv in levels] == [[6], [5], [3], [2], [4], [1], [0]]
        for _ in range(2):      # the second on the kept workspace
            it = rand_iterate(rng, qp)
            _matches_reference(qp, ko.riccati_factor(qp, it, **kw),
                               riccati_factor_ref(qp, it, **kw))
        ws = self._spare(qp)
        assert len(ws.steps) == len(levels)
        assert all(np.shares_memory(args[0], ws.work)
                   and np.shares_memory(args[4], ws.p) for args in ws.steps)


class TestCostToGoApply:
    """``_p_apply`` reads a vector of full edge blocks as the blocks."""

    @pytest.mark.parametrize("variant", ["classical", "square_root"])
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_full_edge_blocks_match_the_padded_path(self, rng, monkeypatch,
                                                    kind, variant):
        qp = _workspace_qp(43, kind)
        fac = ko.riccati_factor(qp, rand_iterate(rng, qp),
                                arg=IpmArg(riccati_variant=variant))
        band, ne = fac.view.band, fac.view.ne
        assert band.p_pos == slice(None)
        # contiguous, and at an offset into a larger vector as the solve's
        # r_b is
        vecs = [rng.standard_normal(ne), rng.standard_normal(ne + 3)[3:]]
        got = [ko._p_apply(fac, v) for v in vecs]
        monkeypatch.setattr(band, "p_pos", np.arange(ne))
        for v, g in zip(vecs, got):
            assert np.array_equal(g, ko._p_apply(fac, v))


def _level_calls(monkeypatch):
    """Record ``(M, terms)`` of every update-kernel call."""
    calls = []
    for name in ("cholesky_update", "cholesky_sqrt_update", "qr_cholesky_update"):
        def kernel(M, terms, real=getattr(ko, name)):
            calls.append((M, terms))
            return real(M, terms)

        monkeypatch.setattr(ko, name, kernel)
    return calls


class TestPreparedLevels:
    """Every level's per-node operands, a one-node level's too, are prepared
    once per workspace (:meth:`RiccatiLevel.args`): every sweep hands the
    update kernels the same objects, views of that workspace's buffers.  The QR route factors
    a stacked leaf level in place, so a failure there leaves written blocks
    that the failed level's restore puts back."""

    @staticmethod
    def _operands(terms):
        """A level's prepared arrays by the buffer they view:
        ``work``, ``p``, ``qr`` (the workspace's QR scratch) and ``edges``
        (the level's ``[B A]`` stacks)."""
        nodes, (rows, products, C, blocks, R) = terms
        out = {"work": [], "p": [], "qr": [], "edges": []}
        for M_i, node_terms in nodes:
            out["work"].append(M_i)
            for Pt, BA in node_terms:
                out["p"].append(Pt)
                out["edges"].append(BA)
        for BAt, L, W in products:
            out["edges"].append(BAt)
            out["p"].append(L)
            out["qr"].append(W)
        if C is None:
            out["work"].append(R)
        else:
            out["qr"] += [C, R] + [X for U_W in blocks for X in U_W]
        return out

    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    def test_operands_are_prepared_once(self, rng, monkeypatch, variant,
                                        use_qr):
        qp = _mass_spring_tree()
        band = ko._band(make_view(qp))
        levels = band.levels
        assert sorted(lv.k for lv in levels) == [1] + [2] + [4] * 7
        calls = _level_calls(monkeypatch)
        kw = dict(arg=IpmArg(riccati_variant=variant), use_qr=use_qr)
        for _ in range(2):
            ko.riccati_factor(qp, rand_iterate(rng, qp), **kw)
        assert len(calls) == 2 * len(levels)
        first, second = calls[: len(levels)], calls[len(levels):]
        ws, = band.spare
        buffers = {"work": ws.work, "p": ws.p, "qr": ws.qr}
        for lv, (M, terms), (M2, terms2) in zip(levels, first, second):
            assert M2 is M and terms2 is terms
            ops, ops2 = self._operands(terms), self._operands(terms2)
            assert len(ops["work"]) == lv.k + (terms[1][2] is None)
            for role, arrays in ops.items():
                assert all(a is b for a, b in zip(arrays, ops2[role], strict=True))
                for X in arrays:
                    if role == "edges":
                        assert any(np.shares_memory(X, BA) for _, _, BA in lv.edges)
                    else:
                        assert np.shares_memory(X, buffers[role])
            # the QR route's rows and copy on every level with children
            assert (ops["qr"] != []) == (lv.edges != [])
        # a second workspace of the view prepares its own QR buffers
        other = ko.RiccatiWorkspace(make_view(qp), band)
        assert ws.qr.size and not np.shares_memory(other.qr, ws.qr)
        for args in other.steps:
            for X in self._operands(args[1])["qr"]:
                assert np.shares_memory(X, other.qr)
                assert not np.shares_memory(X, ws.qr)

    @staticmethod
    def _hess(monkeypatch):
        """The reduced Hessians of every sweep, as ``reduced_hessian``
        returns them."""
        real, kept = ko.reduced_hessian, []

        def spy(*args):
            kept.append(real(*args))
            return kept[-1]

        monkeypatch.setattr(ko, "reduced_hessian", spy)
        return kept

    def test_qr_leaf_level_is_the_lower_cholesky_factor(self, rng, monkeypatch):
        # the stacked leaf level {3, 4, 5, 6} takes one lower dpotrf per
        # node, in place: bit for bit the factor of its own block
        qp = _workspace_qp(46, "tree")
        leaves = ko._band(make_view(qp)).levels[0]
        assert leaves.nodes == [3, 4, 5, 6] and leaves.edges == []
        kept = self._hess(monkeypatch)
        fac = ko.riccati_factor(qp, rand_iterate(rng, qp), use_qr=True)
        w = leaves.w
        got = fac.work[leaves.hess].reshape(4, w, w).swapaxes(-1, -2)
        M = kept[0][leaves.hess].reshape(4, w, w).swapaxes(-1, -2)
        assert all(np.count_nonzero(M_i - np.diag(np.diag(M_i))) for M_i in M)
        for L_i, M_i in zip(got, M):
            assert np.array_equal(L_i, dpotrf(M_i, 1, 1)[0])

    def _fails_as_reference(self, qp, it, bad):
        with flop_counter() as got_fl, pytest.raises(FactorizationFailed) as got:
            ko.riccati_factor(qp, it, use_qr=True)
        with flop_counter() as want_fl, pytest.raises(FactorizationFailed) as want:
            riccati_factor_ref(qp, it, use_qr=True)
        assert got.value.stage == want.value.stage == bad
        assert str(got.value) == str(want.value)
        lag = TestFactorSweepEquivalence._ref_lag(qp, bad)
        assert got_fl.flops == want_fl.flops + lag

    def test_qr_leaf_failure_is_redone_from_the_reduced_hessians(
            self, rng, monkeypatch):
        # node 4 of the leaf level {3, 4, 5, 6} is not positive definite:
        # the kernel has factored node 3 in place when it fails, and the
        # node-by-node redo starts again from the reduced Hessians
        qp = _workspace_qp(47, "tree")
        leaves = ko._band(make_view(qp)).levels[0]
        qp.set_field("R", 4, -1e3 * np.eye(2))
        it = rand_iterate(rng, qp)
        kept = self._hess(monkeypatch)
        real, written = ko.qr_cholesky_update, []

        def kernel(M, terms):
            try:
                return real(M, terms)
            except NotPositiveDefinite:
                if M.shape[0] > 1:
                    hess = kept[-1][leaves.hess].reshape(M.shape).swapaxes(-1, -2)
                    written.append([not np.array_equal(a, b)
                                    for a, b in zip(M, hess)])
                raise

        monkeypatch.setattr(ko, "qr_cholesky_update", kernel)
        self._fails_as_reference(qp, it, 4)
        assert written == [[True, True, False, False]]
        # the redo failed at node 4 before reaching node 3, whose block is
        # the restored reduced Hessian, not the factor the kernel wrote
        ws, = ko._band(make_view(qp)).spare
        three = slice(leaves.hess.start, leaves.hess.start + leaves.w ** 2)
        assert np.array_equal(ws.work[three], kept[0][three])

    def test_qr_rank_failure_in_a_level_with_children(self, rng):
        # node 1 of the level {1, 2}: a direction of curvature 1e-40 that
        # neither child's rows reach
        qp = _workspace_qp(48, "tree")
        assert ko._band(make_view(qp)).levels[1].nodes == [1, 2]
        qp.set_field("R", 1, np.eye(2))
        qp.set_field("S", 1, np.zeros((2, 3)))
        qp.set_field("Q", 1, np.diag([1.0, 1.0, 1e-40]))
        for m in (3, 4):
            A = qp.get_field("A", m)
            A[:, 2] = 0.0
            qp.set_field("A", m, A)
        m = qp.dim.nb[1] + qp.dim.ng[1]
        qp.set_field("maskl", 1, np.zeros(m))
        qp.set_field("masku", 1, np.zeros(m))
        self._fails_as_reference(qp, rand_iterate(rng, qp), 1)
