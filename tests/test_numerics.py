"""Kernel checks: eigendecomposition ordering, rank cutoffs, expm, vectorization."""

import numpy as np
import pytest

from ptlab.errors import ContractError, DimensionError
from ptlab.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_square_matrix,
    devectorize,
    eigen_decompose,
    frobenius,
    frobenius_norms,
    matrix_exponential,
    needs_sign_flip,
    rank_and_nullspace,
    vectorize,
)


class TestEigenDecompose:
    def test_diagonal(self):
        values, vectors = eigen_decompose(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-14)

    def test_pauli3(self):
        values, _ = eigen_decompose(np.array([[1, 0], [0, -1]], dtype=complex))
        np.testing.assert_allclose(values, [-1.0, 1.0])

    def test_broken_2x2_catalog_point(self):
        # e=0, gamma=1, rho=2: eigenvalues +-i sqrt(3)
        H = np.array([[1.0, 2j], [2j, -1.0]])
        values, _ = eigen_decompose(H)
        np.testing.assert_allclose(sorted(values, key=lambda y: y.imag),
                                   [-1j * np.sqrt(3), 1j * np.sqrt(3)], atol=1e-12)

    def test_ordering_is_lexicographic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            values, _ = eigen_decompose(M)
            keys = [(v.real, v.imag) for v in values]
            assert keys == sorted(keys)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            values, vectors = eigen_decompose(M)
            res = np.linalg.norm(M @ vectors - vectors * values, axis=0)
            assert res.max() <= 1e-9 * np.linalg.norm(M)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            values, _ = eigen_decompose(M)
            assert abs(values.sum() - np.trace(M)) <= 1e-9 * np.linalg.norm(M)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigen_decompose(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            eigen_decompose(np.array([[np.nan, 0], [0, 1]]))


class TestRankAndNullspace:
    def test_zero_matrix(self):
        rank, null = rank_and_nullspace(np.zeros((3, 3)))
        assert rank == 0 and null.shape == (3, 3)

    def test_identity(self):
        rank, null = rank_and_nullspace(np.eye(4))
        assert rank == 4 and null.shape == (4, 0)

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            L = rng.normal(size=(7, 5)) @ rng.normal(size=(5, 9))
            rank, null = rank_and_nullspace(L)
            assert rank + null.shape[1] == 9
            if null.shape[1]:
                assert np.abs(L @ null).max() < 1e-10 * max(1.0, np.abs(L).max())
                np.testing.assert_allclose(null.T @ null, np.eye(null.shape[1]), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        L = rng.normal(size=(6, 8))
        base, _ = rank_and_nullspace(L)
        for c in (1e-3, 1e-1, 1.0, 1e2, 1e3):
            rank, _ = rank_and_nullspace(c * L)
            assert rank == base

    def test_pt_constraint_operator_nullity(self):
        # symmetry condition at the diagonal parity over 2x2 complex matrices:
        # 8 real unknowns, 4 survive
        P = np.diag([1.0, -1.0]).astype(complex)
        cols = []
        for k in range(8):
            e = np.zeros(8)
            e[k] = 1.0
            H = devectorize(e, 2, 2)
            cols.append(vectorize(P @ H - H.conj() @ P))
        _, null = rank_and_nullspace(np.column_stack(cols))
        assert null.shape[1] == 4


class TestMatrixExponential:
    def test_zero_is_exact_identity(self):
        out = matrix_exponential(np.zeros((2, 2)))
        assert np.array_equal(out, np.eye(2))

    def test_quarter_turn_generator(self):
        # exp(g pi/4) with g = [[0,-1],[1,0]] is the 45-degree rotation
        g = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(matrix_exponential(g * np.pi / 4), expected, atol=1e-14)

    def test_euler_identity_1x1(self):
        for x in (0.3, 1.0, -2.2):
            out = matrix_exponential(np.array([[1j * x]]))
            np.testing.assert_allclose(out[0, 0], np.cos(x) + 1j * np.sin(x), atol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            series = np.eye(4, dtype=complex)
            term = np.eye(4, dtype=complex)
            for k in range(1, 40):
                term = term @ A / k
                series = series + term
            np.testing.assert_allclose(matrix_exponential(A), series, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            matrix_exponential(np.ones((2, 3)))


class TestVectorization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(17)
        for rows, cols in ((1, 1), (2, 3), (4, 4), (5, 2)):
            M = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            v = vectorize(M)
            assert v.size == 2 * rows * cols
            assert np.array_equal(devectorize(v, rows, cols), M)

    def test_interleaving_convention(self):
        M = np.array([[1 + 2j, 3 + 4j]])
        np.testing.assert_array_equal(vectorize(M), [1.0, 2.0, 3.0, 4.0])

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            devectorize(np.zeros(5), 1, 2)


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-10
        assert DEFAULT_TOL.rel_tol == 1e-9
        assert DEFAULT_TOL.rank_tol_factor == 64.0

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            ToleranceConfig(abs_tol=-1.0)


class TestNeedsSignFlip:
    def test_first_decisive_diagonal_entry_sets_the_sign(self):
        assert needs_sign_flip(np.diag([-2.0, 1.0]))
        assert not needs_sign_flip(np.diag([2.0, -1.0]))
        # entries with |Re| <= 1e-12 are skipped, imaginary parts ignored
        assert needs_sign_flip(np.diag([1e-13 + 5j, -1.0]))
        assert not needs_sign_flip(np.zeros((3, 3)))


class TestStacks:
    def test_frobenius_norms_bit_equal_to_frobenius(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 1, 1), (7, 2, 2), (3, 4, 4), (2, 3, 5), (2, 3, 6, 6)):
            S = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            S *= 10.0 ** rng.integers(-8, 8, size=shape[:-2] + (1, 1))
            norms = frobenius_norms(S)
            assert norms.shape == shape[:-2]
            assert norms.ravel().tolist() == [frobenius(M) for M in S.reshape((-1,) + shape[-2:])]
        assert frobenius_norms(np.eye(3)) == frobenius(np.eye(3))

    def test_square_stack_validation(self):
        S = as_square_matrix([np.eye(2), np.ones((2, 2))], "H", stack=True)
        assert S.shape == (2, 2, 2) and S.dtype == complex
        with pytest.raises(DimensionError, match="H must be 3-dimensional, got ndim=2"):
            as_square_matrix(np.eye(2), "H", stack=True)
        with pytest.raises(DimensionError, match="H must be 2-dimensional, got ndim=3"):
            as_square_matrix(S, "H")
        with pytest.raises(DimensionError, match="non-empty"):
            as_square_matrix(np.zeros((0, 2, 2)), "H", stack=True)
        with pytest.raises(DimensionError, match=r"H must be square, got shape \(2, 2, 3\)"):
            as_square_matrix(np.zeros((2, 2, 3)), "H", stack=True)
        with pytest.raises(ContractError, match="H contains NaN or Inf"):
            as_square_matrix([np.eye(2), [[1.0, 1j * np.inf], [0.0, 1.0]]], "H", stack=True)


class TestNormOverflow:
    """Entries beyond about 1e154 overflow a plain sum of squares."""

    def test_large_entries_keep_a_finite_norm(self):
        A = np.array([[0.0, 1e200], [-1e200, 0.0]])
        S = np.array([A, np.eye(2), 1e-300 * A, 1j * A + 1e180])
        norms = frobenius_norms(S)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert frobenius_norms(A) == norms[0]
        # frobenius leaves numpy's overflow warning in place (see its docstring)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert norms.tolist() == [frobenius(M) for M in S]
            assert frobenius(1j * A) == norms[0]

    def test_norm_beyond_the_float_range_is_a_contract_error(self):
        with pytest.raises(ContractError, match="float range"):
            frobenius_norms(np.array([np.eye(2), np.full((2, 2), 1e308j)]))
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ContractError, match="float range"):
            frobenius(np.full((2, 2), 1e308))

    def test_non_finite_entries_are_not_rescaled(self):
        assert frobenius(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(frobenius_norms(np.array([[[np.nan, 1.0]]])))
