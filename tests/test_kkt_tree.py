import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mpcqp.kkt_ocp as ko
from mpcqp import FactorizationFailed, IndexOutOfRange, compute_residuals, flop_counter
from mpcqp.view import QpSolution, make_view, solve_full_kkt

from conftest import ocp_chain_as_tree, rand_iterate, rand_ocp_qp, rand_tree_qp


def _rhs_from(qp, it):
    vw = make_view(qp)
    res = compute_residuals(qp, it)
    rm = np.where(vw.act, it.lam * it.t, 0.0)
    return vw, res, rm


@st.composite
def parents_first_trees(draw):
    """Parent lists of 1-9 nodes with ``parents[m] < m``."""
    n_node = draw(st.integers(1, 9))
    return [-1] + [draw(st.integers(0, m - 1)) for m in range(1, n_node)]


class TestChainEquivalence:
    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    def test_factor_and_step_match_horizon_backend(self, rng, variant, use_qr):
        # the chain tree indexes its edges by child node, the OCP by stage;
        # both must drive the recursion through exactly the same arithmetic
        qp = rand_ocp_qp(rng, N=5, nx=3, nu=2)
        tqp = ocp_chain_as_tree(qp)
        it = rand_iterate(rng, qp)
        it_t = QpSolution(make_view(tqp), it.y.copy(), it.pi.copy(),
                          it.lam.copy(), it.t.copy())
        vw, res, rm = _rhs_from(qp, it)
        with flop_counter() as fc_o:
            fo = ko.riccati_factor(qp, it, variant=variant, use_qr=use_qr)
            s_ocp = fo.solve(res.r_g, res.r_b, res.r_d, rm)
        with flop_counter() as fc_t:
            ft = ko.riccati_factor(tqp, it_t, variant=variant, use_qr=use_qr)
            s_tree = ft.solve(res.r_g, res.r_b, res.r_d, rm)
        for n in range(qp.dim.N + 1):
            assert np.array_equal(fo.p_matrix(n), ft.p_matrix(n))
            assert np.array_equal(fo.K[n], ft.K[n])
        assert np.array_equal(s_ocp.flat(), s_tree.flat())
        assert fc_o.flops == fc_t.flops


class TestTreeStructure:
    def test_symmetric_subtrees_equal_cost_to_go(self, rng):
        # root with two identical subtrees: both children carry identical P
        parents = [-1, 0, 0]
        qp = rand_tree_qp(rng, parents)
        for f in ("Q", "R", "S", "q", "r", "idxb", "lb", "ub",
                  "C", "D", "lg", "ug", "idxs", "Zl", "Zu", "zl", "zu",
                  "sl_lb", "su_lb", "maskl", "masku"):
            qp.set_field(f, 2, qp.get_field(f, 1))
        for f in ("A", "B", "b"):
            qp.set_field(f, 2, qp.get_field(f, 1))
        vw = make_view(qp)
        it = QpSolution(vw)
        lampat = rng.uniform(0.5, 2.0, vw.blocks[1].nc)
        for m in (1, 2):
            it.lam_stage(m)[:] = np.where(
                vw.act[vw.blocks[m].c_off: vw.blocks[m].c_off + vw.blocks[m].nc],
                lampat, 0.0)
            it.t_stage(m)[:] = np.where(
                vw.act[vw.blocks[m].c_off: vw.blocks[m].c_off + vw.blocks[m].nc],
                1.0, 0.0)
        it.lam_stage(0)[:] = np.where(
            vw.act[vw.blocks[0].c_off: vw.blocks[0].c_off + vw.blocks[0].nc],
            1.0, 0.0)
        it.t_stage(0)[:] = np.where(
            vw.act[vw.blocks[0].c_off: vw.blocks[0].c_off + vw.blocks[0].nc],
            1.0, 0.0)
        fac = ko.riccati_factor(qp, it)
        assert np.array_equal(fac.p_matrix(1), fac.p_matrix(2))
        # the root accumulates the sum of both children's contributions:
        # rebuild its stage matrix by hand and re-derive the root cost-to-go
        from mpcqp.kkt_common import add_reduced_hessian, block_scales

        st0 = qp._stages[0]
        M = np.zeros((3, 3))
        M[:1, :1] = st0["R"]
        M[:1, 1:] = st0["S"]
        M[1:, :1] = st0["S"].T
        M[1:, 1:] = st0["Q"]
        cb0 = vw.blocks[0]
        sc0 = block_scales(cb0, it.lam, it.t)
        G = add_reduced_hessian(cb0, sc0, M)
        for m in (1, 2):
            BA = np.hstack([qp.get_field("B", m), qp.get_field("A", m)])
            G = G + BA.T @ fac.p_matrix(m) @ BA
        K0 = -np.linalg.solve(G[:1, :1], G[:1, 1:])
        P0 = G[1:, 1:] + G[:1, 1:].T @ K0
        assert np.max(np.abs(P0 - fac.p_matrix(0))) <= 1e-11 * max(
            1.0, np.max(np.abs(P0)))

    def test_single_node_tree_is_stage_factorization(self, rng):
        qp = rand_tree_qp(rng, [-1])
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
        ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
        assert np.max(np.abs(step.flat() - ref.flat())) <= 1e-10 * (
            1.0 + np.max(np.abs(ref.flat())))

    def test_pi_stage_is_the_edge_into_node(self, rng):
        sol = rand_iterate(rng, rand_tree_qp(rng, [-1, 0, 0]))
        assert np.array_equal(sol.pi_stage(1), sol.pi[:2])
        assert np.array_equal(sol.pi_stage(2), sol.pi[2:4])
        with pytest.raises(IndexOutOfRange):
            sol.pi_stage(0)

    def test_factorization_failure_carries_node(self, rng):
        qp = rand_tree_qp(rng, [-1, 0])
        qp.set_field("R", 1, [[-2.0]])
        qp.set_field("Q", 1, -np.eye(2))
        it = rand_iterate(rng, qp)
        with pytest.raises(FactorizationFailed) as ei:
            ko.riccati_factor(qp, it, variant="square_root",
                              stage_qr_fallback=False)
        assert ei.value.stage == 1


class TestSolveOracle:
    def test_zero_rhs(self, rng):
        qp = rand_tree_qp(rng, [-1, 0, 0, 1, 1])
        it = rand_iterate(rng, qp)
        vw = make_view(qp)
        fac = ko.riccati_factor(qp, it)
        step = fac.solve(np.zeros(vw.ny), np.zeros(vw.ne),
                         np.zeros(vw.nc), np.zeros(vw.nc))
        assert np.max(np.abs(step.flat())) == 0.0

    @pytest.mark.parametrize("variant,use_qr", [
        ("classical", False), ("square_root", False), ("square_root", True),
    ])
    @given(parents=parents_first_trees(), seed=st.integers(0, 2**32 - 1))
    @example(parents=[-1, 0, 0, 1, 1, 2, 2], seed=1234)  # depth 2 binary tree
    def test_binary_tree_matches_oracle(self, variant, use_qr, parents, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            qp = rand_tree_qp(rng, parents)
            it = rand_iterate(rng, qp)
            vw, res, rm = _rhs_from(qp, it)
            ref = solve_full_kkt(qp, it, res.r_g, res.r_b, res.r_d, rm)
            fac = ko.riccati_factor(qp, it, variant=variant, use_qr=use_qr)
            step = fac.solve(res.r_g, res.r_b, res.r_d, rm)
            err = np.max(np.abs(step.flat() - ref.flat()))
            assert err <= 1e-8 * (1.0 + np.max(np.abs(ref.flat())))

    def test_sibling_permutation_permutes_solution(self, rng):
        # swapping the two (differently parameterized) sibling subtrees
        # permutes the solution blocks and changes no values
        parents = [-1, 0, 0]
        qp = rand_tree_qp(rng, parents)
        it = rand_iterate(rng, qp)
        vw, res, rm = _rhs_from(qp, it)
        step = ko.riccati_factor(qp, it).solve(
            res.r_g, res.r_b, res.r_d, rm)

        swap = rand_tree_qp(rng, parents)
        for f in ("Q", "R", "S", "q", "r", "idxb", "lb", "ub", "C", "D",
                  "lg", "ug", "idxs", "Zl", "Zu", "zl", "zu",
                  "sl_lb", "su_lb", "maskl", "masku"):
            swap.set_field(f, 0, qp.get_field(f, 0))
            swap.set_field(f, 1, qp.get_field(f, 2))
            swap.set_field(f, 2, qp.get_field(f, 1))
        for f in ("A", "B", "b"):
            swap.set_field(f, 1, qp.get_field(f, 2))
            swap.set_field(f, 2, qp.get_field(f, 1))
        vws = make_view(swap)
        its = QpSolution(vws)
        its.y[:] = it.y
        for m, ms in ((0, 0), (1, 2), (2, 1)):
            its.x(ms)[:] = it.x(m)
            its.u(ms)[:] = it.u(m)
            its.lam_stage(ms)[:] = it.lam_stage(m)
            its.t_stage(ms)[:] = it.t_stage(m)
            if m > 0:
                its.pi_stage(ms)[:] = it.pi_stage(m)
        ress = compute_residuals(swap, its)
        rms = np.where(vws.act, its.lam * its.t, 0.0)
        steps = ko.riccati_factor(swap, its).solve(
            ress.r_g, ress.r_b, ress.r_d, rms)
        for m, ms in ((0, 0), (1, 2), (2, 1)):
            assert np.max(np.abs(
                np.concatenate([step.u(m), step.x(m)])
                - np.concatenate([steps.u(ms), steps.x(ms)])
            )) <= 1e-14 * (1.0 + np.max(np.abs(step.flat())))

    def test_factor_flops_linear_in_nodes(self, rng):
        def count(depth):
            # full binary tree of the given depth
            parents = [-1]
            for m in range(1, 2 ** (depth + 1) - 1):
                parents.append((m - 1) // 2)
            qp = rand_tree_qp(rng, parents)
            it = rand_iterate(rng, qp)
            with flop_counter() as fc:
                ko.riccati_factor(qp, it)
            return fc.flops, len(parents)

        c3, n3 = count(3)
        c4, n4 = count(4)
        ratio = c4 / c3
        expect = n4 / n3
        assert abs(ratio - expect) <= 0.1 * expect
