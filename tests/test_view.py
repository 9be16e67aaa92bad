"""The view's KKT operators against block-by-block references, and its accessors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from mpcqp import (
    DenseQp,
    DimensionMismatch,
    IndexOutOfRange,
    MassSpringConfig,
    OcpQp,
    OcpQpDim,
    TreeOcpQp,
    TreeOcpQpDim,
    UnknownField,
    gen_mass_spring,
)
from mpcqp.condensing import condense, expand_solution, partial_condense
from mpcqp.kkt_common import kkt_apply_vec
from mpcqp.solver import solve_dense_qp
from mpcqp.view import DenseView, QpSolution, StageView, make_view

from conftest import (
    con_matrix_ref,
    eq_matrix_ref,
    hess_matrix_ref,
    kkt_apply_vec_ref,
    rand_dense_qp,
    rand_ocp_qp,
    rand_tree_qp,
    residuals_ref,
    row_constants_ref,
)

# fixed before the operators were rewritten: the products only change the
# summation order, so they agree with the references to a few ulps
PRODUCT_RTOL = 1e-12


def _sym(rng, n):
    X = rng.standard_normal((n, n))
    return 0.5 * (X + X.T)


def _with_inf(rng, x, sign):
    """``x`` with about one entry in four replaced by ``sign * inf``."""
    return np.where(rng.random(x.shape) < 0.25, sign * np.inf, x)


def _rows(rng, nw, nb, ng, ns):
    """Random row data of one block: some soft, masked and infinite sides."""
    lo = rng.uniform(-2.0, -0.5, nb + ng)
    up = rng.uniform(0.5, 2.0, nb + ng)
    return {
        "idxb": np.sort(rng.choice(nw, nb, replace=False)),
        "lb": _with_inf(rng, lo[:nb], -1), "ub": _with_inf(rng, up[:nb], 1),
        "lg": _with_inf(rng, lo[nb:], -1), "ug": _with_inf(rng, up[nb:], 1),
        "idxs": np.sort(rng.choice(nb + ng, ns, replace=False)),
        "Zl": rng.uniform(0.5, 2.0, ns), "Zu": rng.uniform(0.5, 2.0, ns),
        "zl": rng.standard_normal(ns), "zu": rng.standard_normal(ns),
        "sl_lb": _with_inf(rng, rng.uniform(0.0, 0.5, ns), -1),
        "su_lb": _with_inf(rng, rng.uniform(0.0, 0.5, ns), -1),
        "maskl": (rng.random(nb + ng) > 0.2).astype(float),
        "masku": (rng.random(nb + ng) > 0.2).astype(float),
    }


@st.composite
def stage_dims(draw):
    nx = draw(st.integers(1, 3))
    nu = draw(st.integers(0, 2))
    nb = draw(st.integers(0, nu + nx))
    ng = draw(st.integers(0, 2))
    return nx, nu, nb, ng, draw(st.integers(0, nb + ng))


@st.composite
def random_qps(draw):
    """Dense, OCP and tree QPs, not necessarily feasible or convex.

    Covers soft rows, masked rows, infinite bounds, ``ne = 0`` (a dense QP
    without equalities, a one-stage OCP or a one-node tree) and stages with
    ``nb = ng = 0`` or ``nu = 0``.
    """
    kind = draw(st.sampled_from(["dense", "ocp", "tree"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        nv = draw(st.integers(1, 6))
        nb = draw(st.integers(0, nv))
        ng = draw(st.integers(0, 3))
        ne = draw(st.integers(0, 3))
        qp = DenseQp(nv, ne, nb, ng, draw(st.integers(0, nb + ng)))
        qp.set_field("H", _sym(rng, nv))
        qp.set_field("g", rng.standard_normal(nv))
        qp.set_field("A", rng.standard_normal((ne, nv)))
        qp.set_field("b", rng.standard_normal(ne))
        qp.set_field("C", rng.standard_normal((ng, nv)))
        for name, value in _rows(rng, nv, nb, ng, qp.ns).items():
            qp.set_field(name, value)
        return qp
    n_node = draw(st.integers(1, 5))
    if kind == "ocp":
        parents = [-1] + list(range(n_node - 1))
    else:
        parents = [-1] + [draw(st.integers(0, m - 1)) for m in range(1, n_node)]
    nx, nu, nb, ng, ns = (list(c) for c in zip(
        *[draw(stage_dims()) for _ in range(n_node)]
    ))
    if kind == "ocp":
        qp = OcpQp(OcpQpDim(n_node - 1, nx, nu, nb, ng, ns))
    else:
        qp = TreeOcpQp(TreeOcpQpDim(parents, nx=nx, nu=nu, nb=nb, ng=ng, ns=ns))
    for n in range(n_node):
        M = _sym(rng, nu[n] + nx[n])
        qp.set_field("R", n, M[: nu[n], : nu[n]])
        qp.set_field("S", n, M[: nu[n], nu[n]:])
        qp.set_field("Q", n, M[nu[n]:, nu[n]:])
        qp.set_field("r", n, rng.standard_normal(nu[n]))
        qp.set_field("q", n, rng.standard_normal(nx[n]))
        qp.set_field("C", n, rng.standard_normal((ng[n], nx[n])))
        qp.set_field("D", n, rng.standard_normal((ng[n], nu[n])))
        for name, value in _rows(rng, nu[n] + nx[n], nb[n], ng[n], ns[n]).items():
            qp.set_field(name, n, value)
    for m in range(1, n_node):
        p = parents[m]
        e = m - 1 if kind == "ocp" else m
        qp.set_field("A", e, rng.standard_normal((nx[m], nx[p])))
        qp.set_field("B", e, rng.standard_normal((nx[m], nu[p])))
        qp.set_field("b", e, rng.standard_normal(nx[m]))
    return qp


def _rel_err(x, ref):
    if not ref.size:
        return 0.0
    return float(np.max(np.abs(x - ref))) / max(1.0, float(np.max(np.abs(ref))))


def _point(qp, seed):
    vw = make_view(qp)
    rng = np.random.default_rng(seed)
    return QpSolution(vw, rng.standard_normal(vw.ny), rng.standard_normal(vw.ne),
                      rng.uniform(0.1, 2.0, vw.nc), rng.uniform(0.1, 2.0, vw.nc))


class TestOperators:
    @settings(max_examples=100)
    @given(random_qps())
    def test_dense_forms_equal_references(self, qp):
        vw = make_view(qp)
        assert np.array_equal(vw.hess_matrix(), hess_matrix_ref(qp))
        assert np.array_equal(vw.eq_matrix(), eq_matrix_ref(qp))
        assert np.array_equal(vw.con_matrix(), con_matrix_ref(qp))
        act, d = row_constants_ref(qp)
        assert np.array_equal(vw.act, act)
        assert np.array_equal(vw.d, d)

    @settings(max_examples=100)
    @given(random_qps(), st.integers(0, 2**32 - 1))
    def test_products_match_references(self, qp, seed):
        vw = make_view(qp)
        p = _point(qp, seed)
        H, E = hess_matrix_ref(qp), eq_matrix_ref(qp)
        C, C_all = con_matrix_ref(qp), con_matrix_ref(qp, masked=False)
        act, d = row_constants_ref(qp)
        assert _rel_err(vw.hess_y(p.y), H @ p.y) <= PRODUCT_RTOL
        assert _rel_err(vw.at_pi(p.pi), E.T @ p.pi) <= PRODUCT_RTOL
        assert _rel_err(vw.a_y(p.y), E @ p.y) <= PRODUCT_RTOL
        assert _rel_err(vw.cy(p.y), C_all @ p.y) <= PRODUCT_RTOL
        assert _rel_err(vw.ct_lam(p.lam), C.T @ p.lam) <= PRODUCT_RTOL
        # residuals from the reference matrices and the raw QP vectors
        if qp.kind == "dense":
            g_v, b = qp._data["g"], qp._data["b"]
            zl, zu = qp._data["zl"], qp._data["zu"]
        else:
            g_v = np.concatenate([a for s in qp._stages for a in (s["r"], s["q"])])
            b = np.concatenate([dyn["b"] for _, _, dyn in vw.edges] or [[]])
            zl = np.concatenate([s["zl"] for s in qp._stages])
            zu = np.concatenate([s["zu"] for s in qp._stages])
        lam = np.where(act, p.lam, 0.0)
        t = np.where(act, p.t, 0.0)
        res = vw.residuals(p)
        g = np.concatenate([g_v, zl, zu])
        assert _rel_err(res.r_g, H @ p.y + g - E.T @ p.pi - C.T @ lam) <= PRODUCT_RTOL
        assert _rel_err(res.r_b, b - E @ p.y) <= PRODUCT_RTOL
        assert _rel_err(res.r_d, np.where(act, -C_all @ p.y + d + t, 0.0)) <= PRODUCT_RTOL
        assert np.array_equal(res.r_m, np.where(act, lam * t, 0.0))


class TestFusedProducts:
    """Residuals and the KKT action in one buffer against the separate products."""

    @settings(max_examples=100)
    @given(random_qps(), st.integers(0, 2**32 - 1))
    def test_residuals_match_separate_products(self, qp, seed):
        vw = make_view(qp)
        p = _point(qp, seed)      # nonzero on masked rows too
        res = vw.residuals(p)
        r_g, r_b, r_d, r_m, mu = residuals_ref(vw, p)
        assert _rel_err(res.r_g, r_g) <= PRODUCT_RTOL
        assert _rel_err(res.r_b, r_b) <= PRODUCT_RTOL
        assert _rel_err(res.r_d, r_d) <= PRODUCT_RTOL
        assert _rel_err(res.r_m, r_m) <= PRODUCT_RTOL
        assert res.mu == pytest.approx(mu, rel=PRODUCT_RTOL, abs=0.0)
        for norm, r in ((res.res_g, r_g), (res.res_b, r_b), (res.res_d, r_d),
                        (res.res_m, r_m)):
            assert norm == pytest.approx(np.max(np.abs(r), initial=0.0),
                                         rel=PRODUCT_RTOL, abs=0.0)

    @pytest.mark.parametrize("ne,nb,ng,ns", [(2, 3, 2, 2), (0, 3, 2, 2),
                                             (2, 0, 0, 0), (0, 0, 0, 0)])
    def test_norms_are_the_block_maxima(self, rng, ne, nb, ng, ns):
        # one reduction over the buffer when no block is empty, a maximum
        # per block when the QP has no equality (ne = 0) or no inequality
        # (nc = 0) rows: the same bits either way
        qp = rand_dense_qp(rng, ne=ne, nb=nb, ng=ng, ns=ns)
        vw = make_view(qp)
        assert (vw.ne, vw.nc > 0) == (ne, nb + ng > 0)
        res = vw.residuals(_point(qp, 7))
        for norm, r in ((res.res_g, res.r_g), (res.res_b, res.r_b),
                        (res.res_d, res.r_d), (res.res_m, res.r_m)):
            assert type(norm) is float
            assert norm == float(np.max(np.abs(r), initial=0.0))

    @settings(max_examples=100)
    @given(random_qps(), st.integers(0, 2**32 - 1))
    def test_kkt_apply_matches_separate_products(self, qp, seed):
        vw = make_view(qp)
        it, d = _point(qp, seed), _point(qp, seed + 1)
        for sol in (it, d):       # the loop's invariant: zeros on masked rows
            sol.lt.reshape(2, -1)[:, ~vw.act] = 0.0
        out = kkt_apply_vec(vw, it.lam, it.t, d.flat())
        assert _rel_err(out, kkt_apply_vec_ref(vw, it.lam, it.t, d.flat())) \
            <= PRODUCT_RTOL

    def test_no_general_rows_skips_their_products(self, rng, monkeypatch):
        qp = gen_mass_spring(MassSpringConfig(masses=2, horizon=3))
        vw = make_view(qp)
        assert vw._m == vw._nb
        monkeypatch.setattr(vw, "G", None)      # any product with it raises
        monkeypatch.setattr(vw, "_Gt", None)
        p = _point(qp, 3)
        assert vw.rows_t(p.lam).dtype == float
        vw.residuals(p)
        vw.cy(p.y)
        # a view without any box row keeps its products in floating point
        empty = make_view(DenseQp(2, 0, 0, 0, 0))
        assert empty.rows_t(np.zeros(0)).dtype == float


def _kkt_ref(qp):
    """The KKT matrix's linear part over ``[y | pi | lam]`` from the reference
    blocks, with every inequality row kept (reference)."""
    H, E = hess_matrix_ref(qp), eq_matrix_ref(qp)
    C = con_matrix_ref(qp, masked=False)
    ne, nc = E.shape[0], C.shape[0]
    return np.block([[H, -E.T, -C.T],
                     [-E, np.zeros((ne, ne + nc))],
                     [-C, np.zeros((nc, ne + nc))]])


class TestKktOperator:
    """The stage view's one CSR operator ``K`` against the reference blocks."""

    @staticmethod
    def _check(qp, seed):
        vw = make_view(qp)
        K = _kkt_ref(qp)
        rng = np.random.default_rng(seed)
        z, shift = rng.standard_normal((2, K.shape[0]))
        if qp.kind != "dense":
            assert vw.K.shape == K.shape
            assert _rel_err(vw.K @ z, K @ z) <= PRODUCT_RTOL
        out = np.empty(K.shape[0])
        assert vw.kkt_product(z, out) is out
        assert _rel_err(out, K @ z) <= PRODUCT_RTOL
        vw.kkt_product(z, out, shift)
        assert _rel_err(out, K @ z + shift) <= PRODUCT_RTOL

    @settings(max_examples=100)
    @given(random_qps(), st.integers(0, 2**32 - 1))
    def test_matches_reference_blocks(self, qp, seed):
        self._check(qp, seed)

    def test_dense_view_has_no_operator(self, rng):
        assert not hasattr(make_view(rand_dense_qp(rng)), "K")

    def test_partially_condensed_qp(self, rng):
        qp, _ = partial_condense(rand_ocp_qp(rng, N=7, nx=3, nu=2, fix_x0=True), 3)
        vw = make_view(qp)
        Jg = vw.blocks[0].Jg    # the condensed state rows, dense over the inputs
        assert Jg.shape[0] > 1 and np.count_nonzero(Jg) > Jg.size // 2
        # the zeros the blocks hold are not stored
        held = sum(cb.Jg.size for cb in vw.blocks)
        assert vw.G.nnz == np.count_nonzero(vw.G.data) < held
        self._check(qp, 11)

    @pytest.mark.parametrize("N,nb,ng,ns", [(0, 2, 1, 1), (3, 0, 0, 0), (0, 0, 0, 0)])
    def test_no_equality_or_no_inequality_rows(self, rng, N, nb, ng, ns):
        qp = rand_ocp_qp(rng, N=N, nx=2, nu=1, nb=nb, ng=ng, ns=ns)
        vw = make_view(qp)
        assert (vw.ne == 0, vw.nc == 0) == (N == 0, nb + ng == 0)
        self._check(qp, 12)

    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_bound_write_copies_share_it(self, rng, kind):
        qp = (rand_ocp_qp(rng, N=4, nx=3, nu=2) if kind == "ocp"
              else rand_tree_qp(rng, [-1, 0, 0, 1]))
        views = [make_view(qp)]
        for _ in range(2):
            qp.set_field("lb", 0, qp.get_field("lb", 0) - 0.1)
            views.append(make_view(qp))
        assert len({id(vw) for vw in views}) == 3
        assert all(vw.K is views[0].K for vw in views)

    def test_expand_solution_leaves_it_unbuilt(self, rng):
        qp = rand_ocp_qp(rng, N=5, nx=3, nu=2)
        dense, cmap = condense(qp)
        expand_solution(solve_dense_qp(dense).solution, cmap, qp)
        assert "K" not in vars(make_view(qp))


class TestSolutionBuffer:
    def test_parts_are_views_of_one_buffer(self, rng):
        qp = rand_tree_qp(rng, [-1, 0, 0, 1])
        vw = make_view(qp)
        sol = _point(qp, 5)
        buf = sol.flat()
        assert buf is sol.flat()
        assert buf.shape == (vw.ny + vw.ne + 2 * vw.nc,)
        for part in (sol.y, sol.pi, sol.lam, sol.t, sol.lt):
            assert part.base is buf
        assert np.array_equal(buf, np.concatenate([sol.y, sol.pi, sol.lam, sol.t]))
        sol.t[-1] = 7.5
        assert buf[-1] == 7.5 and sol.lt[-1] == 7.5
        sol.x(1)[:] = -3.0
        assert np.all(buf[vw.x_off[1]: vw.x_off[1] + qp.dim.nx[1]] == -3.0)

    def test_from_flat_copies_and_flat_aliases(self, rng):
        qp = rand_dense_qp(rng)
        vw = make_view(qp)
        vec = rng.standard_normal(vw.ny + vw.ne + 2 * vw.nc)
        sol = QpSolution.from_flat(vw, vec)
        assert not np.shares_memory(sol.flat(), vec)
        vec[:] = 0.0
        assert np.all(sol.flat() != 0.0)
        sol.flat()[0] = 11.0
        assert sol.y[0] == 11.0
        cp = sol.copy()
        assert not np.shares_memory(cp.flat(), sol.flat())
        assert np.array_equal(cp.flat(), sol.flat())
        assert np.array_equal(cp.diff(sol).flat(), np.zeros_like(vec))
        part = QpSolution(vw, y=vec[: vw.ny])
        assert not np.shares_memory(part.y, vec)

    def test_isfinite_sees_every_part(self, rng):
        qp = rand_dense_qp(rng)
        vw = make_view(qp)
        for k in range(vw.ny + vw.ne + 2 * vw.nc):
            sol = QpSolution(vw)
            assert sol.isfinite()
            sol.flat()[k] = np.nan if k % 2 else np.inf
            assert not sol.isfinite()

    @pytest.mark.parametrize("part", ["y", "pi", "lam", "t"])
    @pytest.mark.parametrize("delta", [-3, -1, 1])
    def test_wrong_part_length_raises(self, part, delta):
        vw = make_view(gen_mass_spring(MassSpringConfig(masses=2, horizon=3)))
        n = {"y": vw.ny, "pi": vw.ne, "lam": vw.nc, "t": vw.nc}[part]
        with pytest.raises(DimensionMismatch, match=part):
            QpSolution(vw, **{part: np.zeros(n + delta)})
        with pytest.raises(DimensionMismatch, match=part):
            QpSolution(vw, **{part: np.zeros((n, 1))})

    @pytest.mark.parametrize("delta", [-3, -1, 1])
    def test_from_flat_wrong_length_raises(self, delta):
        # M2 N3: a vector 3 short used to give a t of 35 entries against nc 38
        vw = make_view(gen_mass_spring(MassSpringConfig(masses=2, horizon=3)))
        n = vw.ny + vw.ne + 2 * vw.nc
        with pytest.raises(DimensionMismatch):
            QpSolution.from_flat(vw, np.zeros(n + delta))

    @pytest.mark.parametrize("part", ["y", "pi", "lam", "t"])
    def test_residuals_check_every_part(self, part):
        qp = gen_mass_spring(MassSpringConfig(masses=2, horizon=3))
        vw = make_view(qp)
        sol = QpSolution(vw)
        parts = {name: getattr(sol, name) for name in ("y", "pi", "lam", "t")}
        parts[part] = parts[part][:-3]
        with pytest.raises(DimensionMismatch, match=part):
            vw.residuals(SimpleNamespace(**parts))

    def test_kkt_apply_checks_lengths(self):
        vw = make_view(gen_mass_spring(MassSpringConfig(masses=2, horizon=3)))
        n = vw.ny + vw.ne + 2 * vw.nc
        lam = t = np.zeros(vw.nc)
        kkt_apply_vec(vw, lam, t, np.zeros(n))
        for bad in ((lam, t, np.zeros(n - 3)), (lam, t, np.zeros(n + 1)),
                    (lam[:-1], t, np.zeros(n)), (lam, t[:-1], np.zeros(n))):
            with pytest.raises(DimensionMismatch):
                kkt_apply_vec(vw, *bad)


class TestStageAccessors:
    ACCESSORS = ["u", "x", "sl", "su", "lam_stage", "t_stage"]

    @pytest.mark.parametrize("name", ACCESSORS)
    @pytest.mark.parametrize("kind", ["ocp", "tree"])
    def test_index_outside_the_stages_raises(self, rng, kind, name):
        qp = (gen_mass_spring(MassSpringConfig(masses=2, horizon=3))
              if kind == "ocp" else rand_tree_qp(rng, [-1, 0, 0, 1]))
        sol = QpSolution(make_view(qp))
        n_node = len(make_view(qp).blocks)
        for n in (-1, n_node, n_node + 3):
            with pytest.raises(IndexOutOfRange):
                getattr(sol, name)(n)
        for n in (0, n_node - 1):
            getattr(sol, name)(n)

    @pytest.mark.parametrize("name", ["u", "x"])
    def test_dense_solution_has_no_inputs_or_states(self, name):
        sol = QpSolution(make_view(DenseQp(3, 1, 1, 1, 0)))
        with pytest.raises(UnknownField):
            getattr(sol, name)(0)

    def test_accessors_tile_the_flat_vectors(self, rng):
        qp = rand_tree_qp(rng, [-1, 0, 0, 1])
        sol = _point(qp, 7)
        n_node = qp.dim.n_node
        assert np.array_equal(
            np.concatenate([a for n in range(n_node) for a in (sol.u(n), sol.x(n))]),
            sol.v,
        )
        assert np.array_equal(np.concatenate([sol.sl(n) for n in range(n_node)]),
                              sol.sl_all)
        assert np.array_equal(np.concatenate([sol.su(n) for n in range(n_node)]),
                              sol.su_all)
        assert np.array_equal(
            np.concatenate([sol.lam_stage(n) for n in range(n_node)]), sol.lam)
        assert np.array_equal(
            np.concatenate([sol.t_stage(n) for n in range(n_node)]), sol.t)


BOUND_FIELDS = ["lb", "ub", "lg", "ug", "sl_lb", "su_lb", "maskl", "masku"]
# the fields the write sequences draw from, per QP kind
_STAGE_WRITES = set(BOUND_FIELDS) | {"lbu", "ubx", "Q", "q", "b", "Zl", "zu"}
_FIELDS_OF = {
    "dense": set(BOUND_FIELDS) | {"H", "g", "b", "Zl", "zu"},
    "ocp": _STAGE_WRITES,
    "tree": _STAGE_WRITES,
}


def _fresh_view(qp):
    """A view built from scratch, bypassing the cache."""
    if qp.kind == "dense":
        return DenseView(qp)
    return StageView(qp, make_view(qp).edges)


def _random_write(qp, rng, field):
    """Write a random value of the right shape to ``field`` at a random stage."""
    args = ()
    if qp.kind != "dense":
        n_node = len(qp._stages)
        if field == "b":
            if n_node == 1:
                return
            lo = 1 if qp.kind == "tree" else 0
            args = (int(rng.integers(lo, lo + n_node - 1)),)
        else:
            args = (int(rng.integers(0, n_node)),)
    cur = qp.get_field(field, *args)
    if field in ("maskl", "masku"):
        value = (rng.random(cur.shape) > 0.3).astype(float)
    elif field in ("H", "Q"):
        value = cur + _sym(rng, cur.shape[0])
    elif field == "Zl":
        value = rng.uniform(0.5, 2.0, cur.shape)
    else:
        value = cur + rng.uniform(-0.5, 0.5, cur.shape)
        if field in BOUND_FIELDS or field in ("lbu", "ubu", "lbx", "ubx"):
            value = _with_inf(rng, value, 1 if field[0] == "u" else -1)
    qp.set_field(field, *args, value)


class TestBoundRefresh:
    """A bound write refreshes only d, act and n_act of the cached view."""

    SHARED = ["H", "E", "G", "hess0", "hess_off", "hess_box", "hess_diag",
              "hess_gen", "blocks", "box_col", "_rows", "_soft", "g", "b",
              "slack_diag"]

    @pytest.mark.parametrize("field", BOUND_FIELDS)
    def test_dense_bound_write_keeps_operators(self, rng, field):
        qp = rand_dense_qp(rng)
        solve_dense_qp(qp)
        old = make_view(qp)
        d_old, act_old = old.d.copy(), old.act.copy()
        cur = qp.get_field(field)
        cur[-1] = 0.0 if field.startswith("mask") else cur[-1] - 0.3
        qp.set_field(field, cur)
        vw = make_view(qp)
        assert vw is not old
        for name in self.SHARED:
            assert getattr(vw, name) is getattr(old, name), name
        fresh = DenseView(qp)
        assert np.array_equal(vw.d, fresh.d)
        assert np.array_equal(vw.act, fresh.act)
        assert vw.n_act == fresh.n_act
        assert np.array_equal(old.d, d_old) and np.array_equal(old.act, act_old)
        assert not (np.array_equal(vw.d, d_old) and np.array_equal(vw.act, act_old))

    @pytest.mark.parametrize("field", ["H", "g", "A", "b", "C", "idxb", "Zl", "zl"])
    def test_dense_other_write_builds_a_new_view(self, rng, field):
        qp = rand_dense_qp(rng)
        old = make_view(qp)
        qp.set_field("lb", qp.get_field("lb") - 0.1)
        qp.set_field(field, qp.get_field(field))
        vw = make_view(qp)
        assert vw.hess0 is not old.hess0 and vw._rows is not old._rows

    @settings(max_examples=80)
    @given(random_qps(), st.integers(0, 2**32 - 1), st.lists(
        st.sampled_from(BOUND_FIELDS + ["lbu", "ubx", "view", "view", "H", "Q",
                                        "g", "q", "b", "Zl", "zu"]),
        min_size=1, max_size=12,
    ))
    def test_cached_view_equals_fresh_build(self, qp, seed, ops):
        rng = np.random.default_rng(seed)
        held = []

        def check():
            vw = make_view(qp)
            fresh = _fresh_view(qp)
            for name in ("d", "act", "g", "b"):
                assert np.array_equal(getattr(vw, name), getattr(fresh, name)), name
            assert vw.n_act == fresh.n_act
            p = _point(qp, seed)
            got, want = vw.residuals(p), fresh.residuals(p)
            for name in ("r_g", "r_b", "r_d", "r_m"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.mu == want.mu
            held.append((vw, vw.d.copy(), vw.act.copy(), vw.n_act))

        check()
        for op in ops:
            if op == "view":
                check()
            elif op in _FIELDS_OF[qp.kind]:
                _random_write(qp, rng, op)
        check()
        for vw, d, act, n_act in held:
            assert np.array_equal(vw.d, d) and np.array_equal(vw.act, act)
            assert vw.n_act == n_act
