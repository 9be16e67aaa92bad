import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dtbtrs

from mpcqp.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficient,
    SingularFactor,
)
from mpcqp import linalg
from mpcqp.linalg import (
    cholesky_factor,
    cholesky_solve,
    cholesky_sqrt_update,
    cholesky_update,
    flop_counter,
    gram,
    matmul_acc,
    qr_cholesky,
    qr_cholesky_tp,
    qr_cholesky_update,
    qr_full,
    solve_banded_triangular,
    solve_triangular,
    update_operands,
)


class TestCholesky:
    def test_identity(self):
        L = cholesky_factor(np.eye(3))
        assert np.allclose(L, np.eye(3))

    def test_hand_2x2(self):
        L = cholesky_factor(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(L @ L.T, [[4.0, 2.0], [2.0, 5.0]])

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.diag([1.0, -1.0]))

    def test_regularization_shift(self):
        M = np.diag([1.0, -0.5])
        L = cholesky_factor(M, reg=1.0)
        assert np.allclose(L @ L.T, M + np.eye(2))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 16, 64):
            G = rng.standard_normal((n, n))
            M = G @ G.T + np.eye(n)
            L = cholesky_factor(M)
            err = np.max(np.abs(L @ L.T - M))
            assert err <= 1e-12 * np.max(np.abs(M))


class TestSolveTriangular:
    def test_identity(self):
        B = np.arange(6.0).reshape(2, 3)
        assert np.allclose(solve_triangular(np.eye(2), B), B)

    def test_forward_by_hand(self):
        L = np.array([[2.0, 0.0], [1.0, 2.0]])
        X = solve_triangular(L, np.array([[2.0], [3.0]]))
        assert np.allclose(X, [[1.0], [1.0]])

    def test_zero_pivot(self):
        L = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularFactor):
            solve_triangular(L, np.ones(2))

    def test_spd_solve_residual(self):
        rng = np.random.default_rng(1)
        for n in (2, 7, 20):
            G = rng.standard_normal((n, n))
            M = G @ G.T + np.eye(n)
            b = rng.standard_normal(n)
            L = cholesky_factor(M)
            x = solve_triangular(L, solve_triangular(L, b), transpose=True)
            res = np.max(np.abs(M @ x - b))
            assert res <= 1e-10 * (
                np.max(np.abs(M)) * np.max(np.abs(x)) + np.max(np.abs(b))
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_triangular(np.eye(2), np.ones(3))


class TestQrCholesky:
    def test_orthogonal_input(self):
        R = qr_cholesky(np.eye(3))
        assert np.allclose(R, np.eye(3))

    def test_column_norm(self):
        R = qr_cholesky(np.array([[3.0], [4.0]]))
        assert np.allclose(R, [[5.0]])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            qr_cholesky(np.ones((2, 2)))

    def test_matches_normal_equation_cholesky(self):
        rng = np.random.default_rng(2)
        for m, n in ((5, 3), (8, 8), (20, 6)):
            A = rng.standard_normal((m, n)) + np.vstack(
                [np.eye(n), np.zeros((m - n, n))]
            )
            R = qr_cholesky(A)
            L = cholesky_factor(A.T @ A)
            assert np.max(np.abs(R.T - L)) <= 1e-10 * np.max(np.abs(A.T @ A))
            assert np.all(np.diag(R) >= 0.0)

    def test_too_few_rows(self):
        with pytest.raises(DimensionMismatch):
            qr_cholesky(np.ones((1, 2)))


class TestMatmulAcc:
    def test_identity_product(self):
        X = np.arange(6.0).reshape(2, 3)
        assert np.allclose(matmul_acc(1.0, np.eye(2), X, 0.0, 0.0), X)

    def test_beta_only(self):
        C = np.ones((2, 2))
        out = matmul_acc(0.0, np.zeros((2, 2)), np.zeros((2, 2)), 1.0, C)
        assert np.allclose(out, C)

    def test_dot_product(self):
        out = matmul_acc(1.0, np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]),
                         0.0, np.array([[0.0]]))
        assert np.allclose(out, [[11.0]])

    def test_transposes(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((3, 5))
        C = rng.standard_normal((4, 5))
        out = matmul_acc(2.0, A, B, -1.0, C, transA=True)
        assert np.allclose(out, 2.0 * A.T @ B - C)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul_acc(1.0, np.ones((2, 3)), np.ones((2, 3)), 0.0, 0.0)


class TestFlopCounter:
    def test_counts_and_determinism(self):
        def work():
            with flop_counter() as fc:
                matmul_acc(1.0, np.ones((4, 5)), np.ones((5, 6)), 0.0, 0.0)
                cholesky_factor(np.eye(6))
            return fc.flops

        a, b = work(), work()
        assert a == b
        assert a == 2 * 4 * 6 * 5 + 6 ** 3 // 3

    def test_nesting_accumulates(self):
        with flop_counter() as outer:
            matmul_acc(1.0, np.ones((2, 2)), np.ones((2, 2)), 0.0, 0.0)
            with flop_counter() as inner:
                matmul_acc(1.0, np.ones((2, 2)), np.ones((2, 2)), 0.0, 0.0)
        assert inner.flops == 16
        assert outer.flops == 32


def _layouts(A):
    """The same matrix as C-ordered, F-ordered and two strided arrays."""
    n = A.shape[0]
    big = np.zeros((2 * n + 1, 2 * n + 1))
    big[1::2, 1::2] = A
    lead = np.asfortranarray(np.zeros((n + 2, n + 2)))
    lead[:n, :n] = A
    return {
        "C": np.ascontiguousarray(A),
        "F": np.asfortranarray(A),
        "strided": big[1::2, 1::2],
        "F_leading_block": lead[:n, :n],
    }


LAYOUTS = ["C", "F", "strided", "F_leading_block"]


def _factor(rng, n, lower):
    G = rng.standard_normal((n, n))
    L = np.tril(G) + np.diag(np.sign(np.diag(G)) + 0.5 * np.diag(G))
    return L if lower else L.T


class TestKernelsMatchScipy:
    """The LAPACK kernels give scipy's wrappers' results bit for bit."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("ncol", [None, 3, 0])
    def test_solve_triangular(self, layout, lower, transpose, ncol):
        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            T = _layouts(_factor(rng, n, lower))[layout]
            B = rng.standard_normal(n if ncol is None else (n, ncol))
            X = solve_triangular(T, B, transpose=transpose, lower=lower)
            ref = scipy.linalg.solve_triangular(
                T, B, trans="T" if transpose else "N", lower=lower,
                check_finite=False,
            )
            assert X.shape == ref.shape
            assert np.array_equal(X, ref)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("reg", [0.0, 0.3])
    def test_cholesky(self, layout, reg):
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 8):
            G = rng.standard_normal((n, n))
            M = _layouts(G @ G.T + 0.1 * np.eye(n))[layout]
            L = cholesky_factor(M, reg=reg)
            ref = scipy.linalg.cholesky(
                M if reg == 0.0 else M + reg * np.eye(n), lower=True,
                check_finite=False,
            )
            assert np.array_equal(L, ref)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_qr_cholesky(self, layout):
        rng = np.random.default_rng(9)
        for m, n in ((1, 1), (5, 3), (8, 8), (17, 11), (40, 7), (200, 140)):
            A = rng.standard_normal((m, n))
            big = np.zeros((2 * m, 2 * n))
            big[::2, ::2] = A
            A = {"C": A, "F": np.asfortranarray(A), "strided": big[::2, ::2]}[layout]
            R = qr_cholesky(A)
            ref = scipy.linalg.qr(A, mode="r", check_finite=False)[0][:n]
            ref = np.where(np.diag(ref)[:, None] < 0.0, -ref, ref)
            assert R.shape == (n, n)
            assert np.array_equal(R, ref)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("ncol", [None, 2, 0])
    def test_zero_diagonal_raises(self, layout, lower, transpose, ncol):
        rng = np.random.default_rng(7)
        T = _factor(rng, 4, lower)
        T[2, 2] = 0.0
        B = np.ones(4 if ncol is None else (4, ncol))
        with flop_counter() as fc:
            with pytest.raises(SingularFactor):
                solve_triangular(_layouts(T)[layout], B, transpose=transpose,
                                 lower=lower)
        assert fc.flops == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("reg", [0.0, 0.5])
    def test_not_positive_definite_raises(self, layout, reg):
        M = _layouts(np.diag([2.0, 1.0, -1.0]))[layout]
        with flop_counter() as fc:
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(M, reg=reg)
        assert fc.flops == 3 ** 3 // 3


class TestKernelFlops:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_solve_triangular_counts(self, layout):
        rng = np.random.default_rng(8)
        T = _layouts(_factor(rng, 5, True))[layout]
        for B, expected in ((np.ones(5), 25), (np.ones((5, 3)), 75),
                            (np.ones((5, 0)), 0)):
            with flop_counter() as fc:
                solve_triangular(T, B)
            assert fc.flops == expected
        with flop_counter() as fc:
            solve_triangular(np.zeros((0, 0)), np.zeros(0))
        assert fc.flops == 0

    def test_cholesky_counts(self):
        for n in (0, 1, 4, 7):
            with flop_counter() as fc:
                cholesky_factor(np.eye(n))
            assert fc.flops == n ** 3 // 3


def _band(rng, n, kd):
    """A lower triangular band matrix: (dense L, LAPACK band storage of L)."""
    L = np.tril(rng.standard_normal((n, n))) - np.tril(np.ones((n, n)), -kd - 1)
    L = np.tril(L) - np.tril(L, -kd - 1)
    L[np.diag_indices(n)] = np.sign(np.diag(L)) + 0.5 * np.diag(L)
    abT = np.zeros((n, kd + 1))
    for k in range(min(kd, n - 1) + 1):
        abT[: n - k, k] = np.diag(L, -k)
    return L, abT.T


class TestBandedTriangular:
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("ncol", [None, 3])
    @pytest.mark.parametrize("n,kd", [(1, 0), (7, 2), (12, 5), (6, 5), (5, 9)])
    def test_matches_lapack_and_dense_solve(self, transpose, ncol, n, kd):
        rng = np.random.default_rng(11)
        L, ab = _band(rng, n, kd)
        B = rng.standard_normal(n if ncol is None else (n, ncol))
        X = solve_banded_triangular(ab, B, transpose=transpose)
        ref, info = dtbtrs(ab, B, uplo="L", trans="T" if transpose else "N")
        assert info == 0
        assert X.shape == B.shape
        assert np.array_equal(X, ref)
        dense = solve_triangular(L, B, transpose=transpose)
        assert np.max(np.abs(X - dense), initial=0.0) <= 1e-12 * max(
            1.0, np.max(np.abs(dense), initial=0.0))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("ncol", [None, 2])
    def test_zero_diagonal_raises_without_flops(self, transpose, ncol):
        _, ab = _band(np.random.default_rng(12), 6, 2)
        ab = np.array(ab, order="F")
        ab[0, 3] = 0.0
        with flop_counter() as fc:
            with pytest.raises(SingularFactor):
                solve_banded_triangular(ab, np.ones(6 if ncol is None else (6, ncol)),
                                        transpose=transpose)
        assert fc.flops == 0

    def test_empty_and_shape_errors(self):
        _, ab = _band(np.random.default_rng(14), 4, 1)
        with flop_counter() as fc:
            empty = solve_banded_triangular(np.zeros((3, 0)), np.zeros(0))
            no_cols = solve_banded_triangular(ab, np.zeros((4, 0)), transpose=True)
        assert empty.shape == (0,) and no_cols.shape == (4, 0)
        assert fc.flops == 0
        with pytest.raises(DimensionMismatch):
            solve_banded_triangular(np.ones((2, 4)), np.ones(5))
        with pytest.raises(DimensionMismatch):
            solve_banded_triangular(np.ones(4), np.ones(4))

    def test_flop_counts(self):
        rng = np.random.default_rng(13)
        for n, kd, ncol, expected in (
            (10, 3, None, 2 * 10 * 3 + 10 - 3 * 4),
            (10, 3, 4, 4 * (2 * 10 * 3 + 10 - 3 * 4)),
            (10, 0, None, 10),
            (5, 4, None, 25),      # a full band counts as the dense triangle
            (5, 9, 2, 50),
        ):
            _, ab = _band(rng, n, kd)
            with flop_counter() as fc:
                solve_banded_triangular(ab, np.ones(n if ncol is None else (n, ncol)))
            assert fc.flops == expected


class TestGram:
    @pytest.mark.parametrize("k,n", [(5, 3), (1, 1), (40, 17), (3, 8)])
    def test_exactly_symmetric_gram(self, k, n):
        S = np.random.default_rng(14).standard_normal((k, n))
        with flop_counter() as fc:
            X = gram(S)
        assert fc.flops == k * n * (n + 1)
        assert np.array_equal(X, X.T)
        assert np.max(np.abs(X - S.T @ S)) <= 1e-13 * np.max(np.abs(S.T @ S))

    @pytest.mark.parametrize("k,n", [(0, 3), (4, 0), (0, 0)])
    def test_empty(self, k, n):
        with flop_counter() as fc:
            X = gram(np.zeros((k, n)))
        assert np.array_equal(X, np.zeros((n, n)))
        assert fc.flops == 0

    def test_layouts_give_the_same_bits(self):
        S = np.random.default_rng(15).standard_normal((9, 6))
        big = np.zeros((18, 12))
        big[::2, ::2] = S
        X = gram(S)
        for other in (np.asfortranarray(S), big[::2, ::2]):
            assert np.array_equal(gram(other), X)


def _tp_stack(rng, n, p, zeros=0):
    """An upper-triangular U, p general rows S and a diagonal d with
    ``zeros`` zero entries."""
    G = rng.standard_normal((n, n))
    U = np.linalg.cholesky(G @ G.T + np.eye(n)).T
    S = rng.standard_normal((p, n))
    d = rng.uniform(0.1, 2.0, n)
    d[rng.choice(n, zeros, replace=False)] = 0.0
    return U, S, d


class TestQrCholeskyTp:
    @pytest.mark.parametrize("n,p", [(1, 0), (4, 3), (6, 0), (9, 20), (40, 70)])
    def test_gram_of_the_stack(self, n, p):
        rng = np.random.default_rng(16)
        U, S, d = _tp_stack(rng, n, p, zeros=n // 2)
        with flop_counter() as fc:
            R = qr_cholesky_tp(U, S, d)
        assert fc.flops == 2 * p * n * n + (2 * n ** 3) // 3
        want = U.T @ U + S.T @ S + np.diag(d * d)
        assert np.max(np.abs(R.T @ R - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(R, np.triu(R))
        assert np.all(np.diag(R) >= 0.0)
        # the same factor as the QR of the whole stack, up to rounding
        ref = qr_cholesky(np.vstack([U, S, np.diag(d)]))
        assert np.max(np.abs(R - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_inputs_unwritten_and_lower_part_unread(self):
        rng = np.random.default_rng(17)
        U, S, d = _tp_stack(rng, 5, 4)
        R = qr_cholesky_tp(U, S, d)
        noisy = U + np.tril(rng.standard_normal((5, 5)), -1)
        U_f, S_f = np.asfortranarray(noisy), np.asfortranarray(S)
        before = (U_f.copy(), S_f.copy(), d.copy())
        assert np.array_equal(qr_cholesky_tp(U_f, S_f, d), R)
        assert all(np.array_equal(a, b) for a, b in zip((U_f, S_f, d), before))

    def test_rank_deficient(self):
        U = np.diag([1.0, 1.0, 1e-40])
        with pytest.raises(RankDeficient):
            qr_cholesky_tp(U, np.ones((2, 3)) * [1.0, 1.0, 0.0], np.zeros(3))

    def test_threshold_counts_nonzero_rows(self):
        # tol = max(m, n) eps max|R_ii| with m = n + p + #(d != 0): a pivot
        # of 5 eps passes for m = 4 and fails for m = 6
        eps = np.finfo(float).eps
        U = np.diag([1.0, 5.0 * eps, 1.0])
        S = np.zeros((1, 3))
        assert qr_cholesky_tp(U, S, np.zeros(3))[1, 1] == 5.0 * eps
        with pytest.raises(RankDeficient):
            qr_cholesky_tp(U, S, np.array([1e-200, 0.0, 1e-200]))

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            qr_cholesky_tp(np.eye(3), np.ones((2, 2)), np.ones(3))
        with pytest.raises(DimensionMismatch):
            qr_cholesky_tp(np.eye(3), np.ones((2, 3)), np.ones(2))


class TestQrFull:
    @pytest.mark.parametrize("m,n", [(5, 3), (7, 7), (30, 4), (3, 0), (0, 0), (200, 7)])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_matches_scipy_bit_for_bit(self, m, n, layout):
        A = np.random.default_rng(18).standard_normal((m, n))
        A = np.asfortranarray(A) if layout == "F" else A
        with flop_counter() as fc:
            Q, R = qr_full(A)
        Q_ref, R_ref = scipy.linalg.qr(A, mode="full", check_finite=False)
        assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)
        assert fc.flops == (2 * m * n * n - (2 * n ** 3) // 3
                            + 4 * m * m * n - 4 * m * n * n + (4 * n ** 3) // 3)

    def test_too_few_rows(self):
        with pytest.raises(DimensionMismatch):
            qr_full(np.ones((2, 3)))


def _lower_factors(A):
    """The lower Cholesky factor of every block of the (k, n, n) stack A,
    one ``dpotrf`` per block."""
    return np.stack([dpotrf(a, 1, 1)[0] for a in A])


def _level(M, terms):
    """A level as its update kernels take it: a copy of the (k, n, n) stack
    M with Fortran-ordered blocks, and the terms' operands prepared on it
    (:func:`linalg.update_operands`) with scratch of their own."""
    M = np.swapaxes(M, -1, -2).copy().swapaxes(-1, -2)
    return M, update_operands(M, terms)


class TestStackedCholeskyCutoff:
    """A stacked level without terms factors block by block."""

    @staticmethod
    def _spd_stack(rng, k, n):
        G = rng.standard_normal((k, n, n))
        return G @ G.transpose(0, 2, 1) + np.eye(n)

    @pytest.mark.parametrize("kernel", [cholesky_update, cholesky_sqrt_update,
                                        qr_cholesky_update])
    @pytest.mark.parametrize("k,n", [(32, 8), (4, 8), (16, 4), (32, 2)])
    def test_wide_stack_equals_single_calls(self, k, n, kernel):
        rng = np.random.default_rng(19)
        A = self._spd_stack(rng, k, n)
        B = rng.standard_normal((k, n, 3))
        L = kernel(*_level(A, []))
        assert np.max(np.abs(L @ L.transpose(0, 2, 1) - A)) <= 1e-12 * np.max(A)
        assert np.array_equal(L, _lower_factors(A))
        # the one-block kernel takes the same dpotrf of each block, then
        # L X = B
        for L_i, A_i, B_i in zip(L, A, B):
            L2, X = cholesky_solve(A_i, B_i)
            assert np.array_equal(L2, L_i)
            assert np.max(np.abs(L2 @ X - B_i)) <= 1e-12 * np.max(np.abs(B_i))

    @pytest.mark.parametrize("kernel", [cholesky_update, cholesky_sqrt_update,
                                        qr_cholesky_update])
    @pytest.mark.parametrize("k", [4, 40])
    def test_failing_block_raises(self, k, kernel):
        rng = np.random.default_rng(21)
        A = self._spd_stack(rng, k, 3)
        A[k // 2] = -np.eye(3)
        M, prepared = _level(A, [])
        with pytest.raises(NotPositiveDefinite):
            kernel(M, prepared)
        # the blocks before the failing one hold their factors
        assert np.array_equal(M[: k // 2], _lower_factors(A[: k // 2]))
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(A[k // 2], np.ones((3, 1)))


UPDATE_RTOL = 1e-12


def _blocks_in(layout, X):
    """X with every trailing (r, c) block C- or Fortran-ordered."""
    if layout == "C":
        return np.ascontiguousarray(X)
    return np.ascontiguousarray(np.swapaxes(X, -1, -2)).swapaxes(-1, -2)


def _update_case(rng, k, w, cs, layout):
    """An update kernel's inputs: positive definite M and, per child size c
    in ``cs``, a symmetric positive definite P, its lower Cholesky factor
    and a [B A] block, each a (k, ., .) stack.  Returns
    ``(M, [(P, L, BA) ...])``."""
    shape = (k,)

    def spd(n):
        X = rng.standard_normal(shape + (n, n))
        return X @ np.swapaxes(X, -1, -2) + n * np.eye(n)

    terms = []
    for c in cs:
        P = spd(c)
        L = np.linalg.cholesky(P) if c else np.zeros(shape + (0, 0))
        BA = rng.standard_normal(shape + (c, w))
        terms.append(tuple(_blocks_in(layout, X) for X in (P, L, BA)))
    return _blocks_in(layout, spd(w)), terms


def _sqrt_rows(M, terms):
    """The stack ``[chol(M)' ; W ...]`` of the QR route, W = L' BA."""
    L_M = np.linalg.cholesky(M) if M.shape[-1] else np.zeros(M.shape)
    return np.concatenate([np.swapaxes(L_M, -1, -2)]
                          + [np.swapaxes(L, -1, -2) @ BA for _, L, BA in terms],
                          axis=-2)


def _close_rel(a, ref):
    err = float(np.max(np.abs(a - ref), initial=0.0))
    return err <= UPDATE_RTOL * max(1.0, float(np.max(np.abs(ref), initial=0.0)))


class TestUpdateKernels:
    """The Riccati level kernels against numpy on stacks."""

    SHAPES = [1, 2, 3, 24]    # a chain level, then stacked levels

    @pytest.mark.parametrize("k", SHAPES)
    @pytest.mark.parametrize("w,cs", [(5, (3,)), (5, (3, 2)), (3, (3,)), (4, ()),
                                      (4, (0, 2)), (0, (2,)), (0, ())])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_match_numpy(self, k, w, cs, layout):
        # (3, (3,)) is a node without inputs (nu = 0, [B A] = A), (4, ())
        # a leaf, (4, (0, 2)) a child without state, w = 0 a node without
        # variables
        rng = np.random.default_rng(30 + w + len(cs))
        M, terms = _update_case(rng, k, w, cs, layout)
        G = M + sum((np.swapaxes(BA, -1, -2) @ P @ BA for P, _, BA in terms),
                    np.zeros_like(M))
        ref = np.linalg.cholesky(G) if w else np.zeros(G.shape)
        # each kernel overwrites its M with the factor and returns it; the
        # stack is a level's, with its terms prepared
        for kernel, use in (
                (cholesky_update, [(P, BA) for P, _, BA in terms]),
                (cholesky_sqrt_update, [(L_m, BA) for _, L_m, BA in terms]),
                (qr_cholesky_update, [(L_m, BA) for _, L_m, BA in terms])):
            L, use = _level(M, use)
            assert kernel(L, use) is L and _close_rel(L, ref)
        if w:
            S = _sqrt_rows(M, terms)
            R = np.stack([qr_cholesky(b) for b in S.reshape(-1, *S.shape[-2:])])
            assert _close_rel(L, np.swapaxes(R, -1, -2).reshape(M.shape))
        for X in (L, ref):
            assert np.array_equal(X, np.tril(X))

    @pytest.mark.parametrize("cs", [(3, 2), ()])
    @pytest.mark.parametrize("kernel", [cholesky_update, cholesky_sqrt_update])
    def test_fortran_block_is_factored_in_place(self, monkeypatch, kernel, cs):
        # BLAS adds the terms to the block of M itself and dpotrf factors it
        # there: the matrix dpotrf is given, and the one it returns, are the
        # prepared view of M's block
        rng = np.random.default_rng(35)
        M, terms = _update_case(rng, 1, 5, cs, "F")
        M, use = _level(M, [(P if kernel is cholesky_update else L, BA)
                            for P, L, BA in terms])
        block = use[0][0][0]
        assert np.shares_memory(block, M)
        real, seen = linalg._dpotrf, []

        def potrf(A, *args):
            L, info = real(A, *args)
            seen.append(A is block and L is block)
            return L, info

        monkeypatch.setattr(linalg, "_dpotrf", potrf)
        kernel(M, use)
        assert seen == [True]

    @pytest.mark.parametrize("k", SHAPES)
    def test_qr_without_rows_is_the_cholesky_factor(self, k):
        # a leaf: chol(M)' is already triangular, so the factor is chol(M)
        # with the rank test, exactly
        rng = np.random.default_rng(31)
        M, _ = _update_case(rng, k, 4, (), "C")
        want = _lower_factors(M)
        M, use = _level(M, [])
        L = qr_cholesky_update(M, use)
        assert np.array_equal(L, want)
        assert np.array_equal(M, L)

    @pytest.mark.parametrize("k", SHAPES)
    @pytest.mark.parametrize("route", ["classical", "square_root", "qr"])
    def test_failure_leaves_inputs_unwritten(self, k, route):
        # the terms; M is the kernels' to overwrite, and the sweep keeps
        # the reduced Hessians it copies M from (see test_kkt_ocp's
        # TestReducedHessianKept)
        rng = np.random.default_rng(32)
        M, terms = _update_case(rng, k, 4, (3, 2), "F")
        M[..., 1, 1] = -100.0
        use = [(P if route == "classical" else L, BA) for P, L, BA in terms]
        kernel = {"classical": cholesky_update, "square_root": cholesky_sqrt_update,
                  "qr": qr_cholesky_update}[route]
        before = [X.copy() for t in use for X in t]
        with pytest.raises(NotPositiveDefinite):
            kernel(*_level(M, use))
        after = [X for t in use for X in t]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("k", SHAPES)
    @pytest.mark.parametrize("cs", [(), (2,)])
    def test_qr_rank_deficient_stack_raises(self, k, cs):
        # a direction of curvature 1e-40 that no W row reaches: stacks whose
        # every block qr_cholesky rejects, with their inputs unwritten; a
        # level without rows factors its blocks in place, so there M holds
        # its blocks' Cholesky factors
        rng = np.random.default_rng(33)
        M, terms = _update_case(rng, k, 3, cs, "C")
        M[...] = np.diag([1.0, 2.0, 1e-40])
        for _, _, BA in terms:
            BA[..., 2] = 0.0
        use = [(L, BA) for _, L, BA in terms]
        before = [M.copy()] + [X.copy() for t in use for X in t]
        S = _sqrt_rows(M, terms)
        for b in S.reshape(-1, *S.shape[-2:]):
            with pytest.raises(RankDeficient):
                qr_cholesky(b)
        args = _level(M, use)
        with pytest.raises(RankDeficient):
            qr_cholesky_update(*args)
        if not cs:
            before[0] = _lower_factors(before[0])
        after = [args[0]] + [X for t in use for X in t]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("k", SHAPES)
    def test_operands_need_fortran_ordered_blocks(self, k):
        # the kernels factor M's blocks in place: on C-ordered blocks LAPACK
        # would factor copies, and M would not hold the factors
        M = np.tile(np.diag([4.0, 2.0, 1.0]), (k, 1, 1))
        M[:, 0, 1] = M[:, 1, 0] = 1.0
        with pytest.raises(DimensionMismatch):
            update_operands(M, [])
        F, use = _level(M, [])
        L = cholesky_update(F, use)
        assert np.array_equal(L, _lower_factors(M))

    def test_rank_test_is_per_block(self):
        # a block 1e-20 times smaller than its neighbour passes on its own
        # scale; signs are normalized block by block and row by row
        R = np.stack([np.diag([-2.0, 3.0]), 1e-20 * np.diag([1.0, -1.0])])
        R[0, 0, 1] = 5.0
        got = linalg._rank_tested(R.copy(), 2)
        signs = np.sign(np.diagonal(R, axis1=1, axis2=2))[:, :, None]
        assert np.array_equal(got, R * signs)
        for sign in (1.0, -1.0):
            T = sign * np.stack([np.triu(np.ones((3, 3))), 2.0 * np.eye(3)])
            assert np.array_equal(linalg._rank_tested(T.copy(), 3), np.abs(T))
        bad = np.stack([np.eye(2), np.diag([1.0, 1e-17])])
        with pytest.raises(RankDeficient):
            linalg._rank_tested(bad, 2)
