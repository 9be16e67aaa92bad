import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpcqp import (
    DenseQp,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDim,
    NonPositiveIterate,
    OcpQp,
    OcpQpDim,
    TreeOcpQp,
    TreeOcpQpDim,
    UnknownField,
    compute_residuals,
    full_kkt_system,
    objective,
    validate,
)
from mpcqp.qp_data import ROW_FIELDS, _STAGE_VIRTUAL, errors_only
from mpcqp.view import QpSolution, make_view

from conftest import (
    ocp_chain_as_tree,
    rand_dense_qp,
    rand_iterate,
    rand_ocp_qp,
    rand_tree_qp,
)


class TestDims:
    def test_minimal_horizon(self):
        qp = OcpQp(OcpQpDim(0, nx=[1], nu=[0]))
        assert qp.dim.N == 0
        assert make_view(qp).ny == 1

    def test_nb_exceeds_vars(self):
        with pytest.raises(InvalidDim):
            OcpQpDim(0, nx=[1], nu=[0], nb=[2])

    def test_ns_exceeds_rows(self):
        with pytest.raises(InvalidDim):
            OcpQpDim(0, nx=[2], nu=[0], nb=[1], ng=[0], ns=[2])

    def test_dense_zero_init(self):
        qp = DenseQp(nv=2, ng=1)
        assert np.array_equal(qp.get_field("H"), np.zeros((2, 2)))
        assert np.array_equal(qp.get_field("C"), np.zeros((1, 2)))
        assert qp.get_field("lg")[0] == -np.inf
        assert qp.get_field("maskl")[0] == 1.0

    def test_tree_bad_parent(self):
        with pytest.raises(InvalidDim):
            TreeOcpQpDim([-1, 0, 5], nx=[1, 1, 1], nu=[0, 0, 0])

    @pytest.mark.parametrize("parents", [[-1, 0, 5], [-1, 0, 2], [0, 0, 1],
                                         [-1, -1, 0]])
    def test_tree_parent_checks_name_the_field(self, parents):
        # the checks validate() made on a corrupted record, now at construction
        with pytest.raises(InvalidDim) as got:
            TreeOcpQpDim(parents, nx=[1, 1, 1], nu=[0, 0, 0])
        assert got.value.field == "parents"

    def test_dimension_arrays_read_only(self):
        # the edge table, the storage and cached views are built from them
        ocp = OcpQpDim(2, nx=[2, 2, 2], nu=[1, 1, 0], nb=[1, 1, 1])
        tree = TreeOcpQpDim([-1, 0, 0], nx=[1, 1, 1], nu=[1, 0, 0])
        for dim, names in ((ocp, ("nx", "nu", "nb", "ng", "ns")),
                           (tree, ("parents", "nx", "nu", "nb", "ng", "ns"))):
            for name in names:
                arr = getattr(dim, name)
                with pytest.raises(ValueError, match="read-only"):
                    arr[1] = 0
        # the caller's sequences stay writeable
        nx = np.array([2, 2, 2])
        OcpQpDim(2, nx=nx, nu=[1, 1, 0])
        nx[0] = 3

    @pytest.mark.parametrize("make", [
        lambda: OcpQpDim(2.7, nx=[2, 2, 2], nu=[1, 1, 0]),
        lambda: OcpQpDim(2, nx=[2.9, 2, 2], nu=[1, 1, 0]),
        lambda: OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[0.5, 0]),
        lambda: OcpQpDim(1, nx=[1, 1], nu=[1, 0], ns=[0, np.nan]),
        lambda: TreeOcpQpDim([-1, 0.6, 1.2], nx=[1, 1, 1], nu=[0, 0, 0]),
        lambda: TreeOcpQpDim([-1, 0, 0], nx=[1, 1, 1], nu=[0, 1.5, 0]),
        lambda: DenseQp(2.5),
        lambda: DenseQp(2, nb=np.inf),
    ], ids=["N", "nx", "nb", "ns_nan", "parents", "tree_nu", "dense_nv",
            "dense_nb_inf"])
    def test_non_whole_counts_rejected(self, make):
        with pytest.raises(InvalidDim):
            make()

    def test_whole_counts_of_any_type_accepted(self):
        for N in (2, np.int64(2), 2.0):
            dim = OcpQpDim(N, nx=[2.0, np.int64(2), 2], nu=np.array([1.0, 1.0, 0.0]))
            assert dim.N == 2 and type(dim.N) is int
            assert dim.nx.tolist() == [2, 2, 2] and dim.nu.tolist() == [1, 1, 0]
        tree = TreeOcpQpDim(np.array([-1.0, 0.0, 1.0]), nx=[1, 1, 1], nu=[0, 0, 0])
        assert tree.parents.tolist() == [-1, 0, 1]
        assert DenseQp(2.0, nb=np.int64(1)).nv == 2

    def test_edge_table(self):
        chain = OcpQpDim(3, nx=[1] * 4, nu=[1] * 4)
        assert chain.edges == {0: (0, 1), 1: (1, 2), 2: (2, 3)}
        assert OcpQpDim(0, nx=[1], nu=[0]).edges == {}
        tree = TreeOcpQpDim([-1, 0, 0, 1, 2, 2], nx=[1] * 6, nu=[1] * 6)
        assert tree.edges == {1: (0, 1), 2: (0, 2), 3: (1, 3), 4: (2, 4),
                              5: (2, 5)}
        assert TreeOcpQpDim([-1], nx=[1], nu=[0]).edges == {}
        # the dynamics shapes follow the edges
        qp = TreeOcpQp(TreeOcpQpDim([-1, 0, 0], nx=[1, 2, 3], nu=[2, 0, 0]))
        for m, (p, c) in qp.dim.edges.items():
            assert qp.get_field("A", m).shape == (qp.dim.nx[c], qp.dim.nx[p])
            assert qp.get_field("B", m).shape == (qp.dim.nx[c], qp.dim.nu[p])
            assert qp.get_field("b", m).shape == (qp.dim.nx[c],)


class TestFieldAccess:
    def test_round_trip_all_ocp_fields(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=2)
        for n in range(4):
            for name in qp._stages[0]:
                val = qp.get_field(name, n)
                qp.set_field(name, n, val)
                assert np.array_equal(qp.get_field(name, n), val)
        for n in range(3):
            for name in ("A", "B", "b"):
                val = qp.get_field(name, n)
                qp.set_field(name, n, val)
                assert np.array_equal(qp.get_field(name, n), val)

    def test_symmetric_round_trip(self):
        qp = OcpQp(OcpQpDim(1, nx=[2, 2], nu=[1, 0]))
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        qp.set_field("Q", 0, Q)
        assert np.array_equal(qp.get_field("Q", 0), Q)

    def test_stage_out_of_range(self):
        qp = OcpQp(OcpQpDim(2, nx=[1] * 3, nu=[1, 1, 0], nb=[1] * 3))
        with pytest.raises(IndexOutOfRange):
            qp.set_field("lbx", 3, [0.0])
        with pytest.raises(IndexOutOfRange):
            qp.set_field("A", 2, np.eye(1))
        tree = TreeOcpQp(TreeOcpQpDim([-1, 0, 0], nx=[1] * 3, nu=[1] * 3))
        for name, value in (("A", np.eye(1)), ("B", np.eye(1)), ("b", [0.0])):
            for n in (0, 3):
                with pytest.raises(IndexOutOfRange):
                    tree.set_field(name, n, value)
                with pytest.raises(IndexOutOfRange):
                    tree.get_field(name, n)
            with pytest.raises(IndexOutOfRange):
                qp.set_field(name, -1, value)
            for n in (-1, 2):
                with pytest.raises(IndexOutOfRange):
                    qp.get_field(name, n)
        for n in (-1, 3):
            with pytest.raises(IndexOutOfRange):
                qp.get_field("Q", n)
            with pytest.raises(IndexOutOfRange):
                tree.get_field("Q", n)

    def test_unknown_field(self):
        qp = DenseQp(nv=1)
        with pytest.raises(UnknownField):
            qp.set_field("Hessian", np.eye(1))

    def test_dimension_mismatch(self):
        qp = DenseQp(nv=2)
        with pytest.raises(DimensionMismatch):
            qp.set_field("H", np.eye(3))

    def test_negative_penalty_accepted_then_flagged(self):
        qp = DenseQp(nv=1, nb=1, ns=1)
        qp.set_field("Zl", [-1.0])
        assert np.array_equal(qp.get_field("Zl"), [-1.0])
        out = validate(qp)
        assert any(v.field == "Zl" for v in out)

    @pytest.mark.parametrize("name", ["idxb", "idxs"])
    def test_non_whole_index_set_rejected(self, name):
        qp = OcpQp(OcpQpDim(1, nx=[2, 2], nu=[1, 0], nb=[3, 0], ns=[3, 0]))
        with pytest.raises(DimensionMismatch):
            qp.set_field(name, 0, [0.5, 1.7, 2.2])
        assert qp.get_field(name, 0).tolist() == [0, 1, 2]
        qp.set_field(name, 0, [0.0, np.int64(1), 2])
        assert qp.get_field(name, 0).dtype.kind == "i"
        dense = DenseQp(nv=3, nb=2, ns=2)
        with pytest.raises(DimensionMismatch):
            dense.set_field(name, [0, 1.5])

    def test_virtual_bounds_split(self):
        qp = OcpQp(OcpQpDim(1, nx=[2, 2], nu=[1, 0], nb=[3, 2]))
        qp.set_field("idxb", 0, [0, 1, 2])  # u0, x0, x1
        qp.set_field("lbu", 0, [-2.0])
        qp.set_field("lbx", 0, [5.0, 6.0])
        assert np.array_equal(qp.get_field("lb", 0), [-2.0, 5.0, 6.0])
        assert np.array_equal(qp.get_field("lbx", 0), [5.0, 6.0])
        assert np.array_equal(qp.get_field("lbu", 0), [-2.0])


class TestValidate:
    def test_fresh_is_clean(self, rng):
        assert validate(DenseQp(3, 1, 2, 1, 1)) == []
        assert validate(OcpQp(OcpQpDim(2, [2] * 3, [1, 1, 0], [2] * 3))) == []

    def test_bound_crossing_flagged(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("lb", [1.0])
        qp.set_field("ub", [0.0])
        out = validate(qp)
        assert len(out) == 1 and out[0].severity == "warning"

    def test_bound_crossing_needs_both_sides(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("lb", [1.0])
        qp.set_field("ub", [0.0])
        qp.set_field("maskl", [0.0])
        assert validate(qp) == []

    def test_asymmetric_hessian(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", [[1.0, 2.0], [0.0, 1.0]])
        assert any(v.field == "H" for v in validate(qp))

    def test_malformed_index_set(self):
        qp = DenseQp(nv=3, nb=2)
        qp.set_field("idxb", [2, 1])
        assert any(v.field == "idxb" for v in validate(qp))

    def test_tree_structure_violation(self, rng):
        # the parents cannot be corrupted after construction: the write that
        # used to simulate it raises, and the tree still validates
        from conftest import rand_tree_qp

        qp = rand_tree_qp(rng, [-1, 0, 1])
        with pytest.raises(ValueError, match="read-only"):
            qp.dim.parents[2] = 5
        assert qp.dim.parents.tolist() == [-1, 0, 1]
        assert validate(qp) == []


def _verdict_keeping(qp):
    """``(name, index)`` of every field write that keeps a passed verdict:
    the fields not ``checked`` in the catalog, and the virtual fields that
    write one of them."""
    catalog = type(qp)._FIELDS
    names = [n for n, f in catalog.items() if not f.checked]
    if qp.kind == "dense":
        return [(n, ()) for n in names]
    names += [n for n, dst in _STAGE_VIRTUAL.items() if not catalog[dst].checked]
    stages = range(len(qp.dim.nx))
    return [(n, (i,)) for n in names
            for i in (qp.dim.edges if n in catalog and catalog[n].dyn else stages)]


@st.composite
def verdict_keeping_writes(draw):
    """A valid dense, OCP or tree QP and one write to a verdict-keeping
    field: any float values, infinities and NaN included, of its shape."""
    kind = draw(st.sampled_from(["dense", "ocp", "tree"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        qp = rand_dense_qp(rng)
    elif kind == "ocp":
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=2)
    else:
        qp = rand_tree_qp(rng, [-1, 0, 0, 1])
    name, at = draw(st.sampled_from(_verdict_keeping(qp)))
    shape = np.shape(qp.get_field(name, *at))
    value = draw(arrays(np.float64, shape, elements=st.floats(width=64)))
    return qp, name, at, value


class TestVerdictKeepingFields:
    def test_catalog_flag_marks_the_blocking_checks_fields(self):
        for qp in (DenseQp(3), OcpQp(OcpQpDim(1, [1, 1], [1, 0]))):
            checked = {n for n, f in type(qp)._FIELDS.items() if f.checked}
            assert checked == {"Q", "R", "H", "Zl", "Zu", "idxb", "idxs",
                               "maskl", "masku"} & set(type(qp)._FIELDS)

    def test_row_fields_have_one_catalog_entry_for_both_types(self):
        # a stage and a dense QP cache views and keep verdicts alike on
        # their shared row fields
        stage, dense = OcpQp._FIELDS, DenseQp._FIELDS
        for name in ROW_FIELDS:
            a, b = stage[name], dense[name]
            assert (a.dtype, a.bound, a.checked) == (b.dtype, b.bound, b.checked)

    @settings(max_examples=200)
    @given(verdict_keeping_writes())
    def test_write_never_adds_a_blocking_error(self, case):
        qp, name, at, value = case
        assert errors_only(validate(qp)) == []
        qp.set_field(name, *at, value)
        assert errors_only(validate(qp)) == []


class TestResiduals:
    def test_box_qp_hand_kkt_point(self):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("H", [[1.0]])
        qp.set_field("g", [-10.0])
        qp.set_field("lb", [0.0])
        qp.set_field("ub", [2.0])
        sol = QpSolution(make_view(qp))
        sol.v[:] = 2.0
        sol.lam[:] = [0.0, 8.0]
        sol.t[:] = [2.0, 0.0]
        res = compute_residuals(qp, sol)
        assert res.max_norm() <= 1e-14
        assert res.mu == 0.0

    def test_zero_solution_unconstrained(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", np.eye(2))
        qp.set_field("g", [3.0, -4.0])
        res = compute_residuals(qp, QpSolution(make_view(qp)))
        assert res.res_g == 4.0
        assert res.mu == 0.0

    def test_masked_rows_do_not_contribute(self, rng):
        qp = rand_ocp_qp(rng, N=2, nx=2, nu=1)
        vw = make_view(qp)
        it = rand_iterate(rng, qp)
        res = compute_residuals(qp, it)
        assert np.all(res.r_d[~vw.act] == 0.0)
        assert np.all(res.r_m[~vw.act] == 0.0)

    def test_mu_zero_on_complementary_point(self, rng):
        qp = rand_ocp_qp(rng, N=2, nx=2, nu=1)
        vw = make_view(qp)
        it = QpSolution(vw)
        it.lam[:] = np.where(vw.act, 1.0, 0.0)
        it.t[:] = 0.0
        assert compute_residuals(qp, it).mu == 0.0

    def test_hard_only_matches_two_sided_formulation(self, rng):
        # ns = 0: no slack terms anywhere in the residuals
        qp = rand_ocp_qp(rng, N=2, nx=2, nu=1, ns=0)
        vw = make_view(qp)
        assert vw.ns_tot == 0
        it = rand_iterate(rng, qp)
        res = compute_residuals(qp, it)
        assert res.r_g.shape[0] == vw.nv

    def test_chain_tree_residual_identity(self, rng):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=2, mask_one=True)
        tqp = ocp_chain_as_tree(qp)
        it = rand_iterate(rng, qp)
        it_t = QpSolution(make_view(tqp), it.y.copy(), it.pi.copy(),
                          it.lam.copy(), it.t.copy())
        r1 = compute_residuals(qp, it)
        r2 = compute_residuals(tqp, it_t)
        assert np.array_equal(r1.r_g, r2.r_g)
        assert np.array_equal(r1.r_b, r2.r_b)
        assert np.array_equal(r1.r_d, r2.r_d)
        assert np.array_equal(r1.r_m, r2.r_m)

    def test_dimension_mismatch(self, rng):
        qp = rand_ocp_qp(rng, N=2, nx=2, nu=1)
        other = rand_ocp_qp(rng, N=3, nx=2, nu=1)
        with pytest.raises(DimensionMismatch):
            compute_residuals(qp, QpSolution(make_view(other)))


class TestFullKktOracle:
    def test_unconstrained_single_stage_is_hessian(self):
        qp = OcpQp(OcpQpDim(0, nx=[2], nu=[1]))
        M = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 3.0]])
        qp.set_field("R", 0, M[:1, :1])
        qp.set_field("S", 0, M[:1, 1:])
        qp.set_field("Q", 0, M[1:, 1:])
        K, rhs = full_kkt_system(qp, QpSolution(make_view(qp)))
        assert np.allclose(K, M)
        assert np.allclose(rhs, 0.0)

    def test_scalar_lqr_newton_step(self):
        # x0 fixed to a value by equal bounds; oracle step gives u0 = -x0/2
        qp = OcpQp(OcpQpDim(1, nx=[1, 1], nu=[1, 0], nb=[1, 0]))
        qp.set_field("Q", 0, [[1.0]])
        qp.set_field("R", 0, [[1.0]])
        qp.set_field("Q", 1, [[1.0]])
        qp.set_field("A", 0, [[1.0]])
        qp.set_field("B", 0, [[1.0]])
        qp.set_field("idxb", 0, [1])
        x0 = 2.0
        qp.set_field("lb", 0, [x0])
        qp.set_field("ub", 0, [x0])
        vw = make_view(qp)
        it = QpSolution(vw)
        # nearly-converged iterate: large multipliers pin the bound rows
        it.y[:] = [0.0, x0, 0.0]
        it.lam[:] = [1e8, 1e8]
        it.t[:] = [1e-8, 1e-8]
        K, rhs = full_kkt_system(qp, it)
        step = np.linalg.solve(K, rhs)
        u0 = it.y[0] + step[0]
        assert abs(u0 - (-0.5 * x0)) < 1e-6

    def test_masked_row_is_identity(self, rng):
        qp = rand_ocp_qp(rng, N=1, nx=2, nu=1, mask_one=True)
        vw = make_view(qp)
        it = rand_iterate(rng, qp)
        K, rhs = full_kkt_system(qp, it)
        row = np.flatnonzero(~vw.act)[0]
        lam_row = vw.ny + vw.ne + vw.nc + row
        expect = np.zeros(K.shape[1])
        expect[vw.ny + vw.ne + row] = 1.0
        assert np.array_equal(K[lam_row], expect)
        assert rhs[lam_row] == 0.0

    def test_nonpositive_iterate_rejected(self, rng):
        qp = rand_ocp_qp(rng, N=1, nx=2, nu=1)
        it = QpSolution(make_view(qp))
        with pytest.raises(NonPositiveIterate):
            full_kkt_system(qp, it)


class TestObjective:
    def test_quadratic_value(self):
        qp = DenseQp(nv=2)
        qp.set_field("H", np.diag([2.0, 4.0]))
        qp.set_field("g", [1.0, -1.0])
        sol = QpSolution(make_view(qp))
        sol.v[:] = [1.0, 2.0]
        assert objective(qp, sol) == pytest.approx(1.0 + 8.0 + 1.0 - 2.0)
