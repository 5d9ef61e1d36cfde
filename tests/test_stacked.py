"""Linear solution spaces held as (k, n, n) stacks.

The column-by-column assemblies below are the reference implementations the
stacked code replaced: one basis matrix at a time, generator sums for the
linear combinations.  The stacked code must reproduce them bit for bit.
"""

import numpy as np
import pytest

from ptlab.convert import witness_space, transpose_matrix
from ptlab.counting import _charpoly_imag_coefficients
from ptlab.metric import solve_metric_space
from ptlab.numerics import (
    DEFAULT_TOL,
    devectorize,
    hermitian_basis,
    nullspace_complex,
    rank_and_nullspace,
    real_basis,
    real_matrix_of_map,
    vectorize,
)

SIZES = range(2, 9)


def reference_witness_space(B, tol=DEFAULT_TOL):
    n = B.shape[0]
    columns = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            columns.append((E @ B - B.T @ E).ravel())
    null = nullspace_complex(np.column_stack(columns), tol)
    return [null[:, k].reshape(n, n) for k in range(null.shape[1])]


def reference_hermitian_basis(n):
    basis = []
    for k in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[k, k] = 1.0
        basis.append(E)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[k, l] = inv_sqrt2
            E[l, k] = inv_sqrt2
            basis.append(E)
            F = np.zeros((n, n), dtype=complex)
            F[k, l] = 1j * inv_sqrt2
            F[l, k] = -1j * inv_sqrt2
            basis.append(F)
    return basis


def reference_metric_basis(H, tol=DEFAULT_TOL):
    basis = reference_hermitian_basis(H.shape[0])
    system = np.column_stack([vectorize(B @ H - H.conj().T @ B) for B in basis])
    _, coeffs = rank_and_nullspace(system, tol)
    solutions = []
    for k in range(coeffs.shape[1]):
        W = sum(c * B for c, B in zip(coeffs[:, k], basis))
        solutions.append(0.5 * (W + W.conj().T))
    return solutions


def reference_transpose_witness(B, seed, budget=256, tol=DEFAULT_TOL):
    basis = reference_witness_space(B, tol)
    rng = np.random.default_rng(seed)
    candidates = list(basis)
    for _ in range(max(budget - len(basis), 16)):
        coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        candidates.append(sum(c * A for c, A in zip(coeff, basis)))
    best, best_q = None, 0.0
    for A in candidates:
        norm = np.linalg.norm(A)
        if norm <= 0:
            continue
        s = np.linalg.svd(A / norm, compute_uv=False)
        q = s[-1] / s[0]
        if q > best_q:
            best, best_q = A / norm, q
        if best_q > 1e-3:
            break
    return best


def reference_real_matrix_of_map(fn, rows, cols):
    columns = []
    for k in range(2 * rows * cols):
        e = np.zeros(2 * rows * cols)
        e[k] = 1.0
        columns.append(vectorize(fn(devectorize(e, rows, cols))))
    return np.column_stack(columns)


def sample_matrices(n):
    """A generic complex matrix, a derogatory one (every eigenvalue doubled,
    so the witness space is large and holds singular elements) and a real
    matrix with real spectrum."""
    rng = np.random.default_rng(100 + n)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    derogatory = np.diag(np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]).astype(complex)
    V = rng.normal(size=(n, n))
    real_spectrum = V @ np.diag(np.arange(n, dtype=float)) @ np.linalg.inv(V)
    return generic, derogatory, real_spectrum


class TestVectorizeStacks:
    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(5)
        for k, r, c in ((1, 1, 1), (3, 2, 3), (5, 4, 4), (2, 1, 6)):
            stack = rng.normal(size=(k, r, c)) + 1j * rng.normal(size=(k, r, c))
            flat = vectorize(stack)
            assert flat.shape == (k, 2 * r * c)
            for M, v in zip(stack, flat):
                assert np.array_equal(v, vectorize(M))
                assert np.array_equal(devectorize(v, r, c), M)

    def test_output_does_not_alias_input(self):
        M = np.array([[1 + 2j, 3 + 4j]])
        v = vectorize(M)
        v[0] = 9.0
        assert M[0, 0] == 1 + 2j

    def test_real_basis_devectorizes_unit_vectors(self):
        basis = real_basis(2, 3)
        assert basis.shape == (12, 2, 3)
        for k, E in enumerate(basis):
            assert np.array_equal(E, devectorize(np.eye(12)[k], 2, 3))


class TestAgainstColumnAssembly:
    def test_hermitian_basis(self):
        for n in range(1, 9):
            assert np.array_equal(hermitian_basis(n), np.array(reference_hermitian_basis(n)))

    def test_real_matrix_of_map(self):
        P = np.diag([1.0, 1.0, -1.0]).astype(complex)
        def fn(H):
            return P @ H - H.conj().swapaxes(-1, -2) @ P
        assert np.array_equal(real_matrix_of_map(fn, 3, 3), reference_real_matrix_of_map(fn, 3, 3))

    @pytest.mark.parametrize("n", SIZES)
    def test_witness_space(self, n):
        for B in sample_matrices(n):
            stacked = witness_space(B)
            reference = reference_witness_space(B)
            assert stacked.shape == (len(reference), n, n)
            assert np.array_equal(stacked, np.array(reference))

    @pytest.mark.parametrize("n", SIZES)
    def test_metric_basis(self, n):
        for H in sample_matrices(n):
            stacked = solve_metric_space(H).hermitian_basis
            reference = reference_metric_basis(H)
            assert stacked.shape == (len(reference), n, n)
            if reference:
                assert np.array_equal(stacked, np.array(reference))

    @pytest.mark.parametrize("n", SIZES)
    def test_transpose_witness(self, n):
        for seed, B in enumerate(sample_matrices(n)):
            assert np.array_equal(transpose_matrix(B, seed=seed).A, reference_transpose_witness(B, seed))


def test_stacked_charpoly_matches_np_poly():
    rng = np.random.default_rng(11)
    for N in range(1, 9):
        stack = rng.normal(size=(6, N, N)) + 1j * rng.normal(size=(6, N, N))
        stacked = _charpoly_imag_coefficients(stack)
        assert stacked.shape == (6, N)
        for H, imag in zip(stack, stacked):
            np.testing.assert_allclose(imag, np.poly(H)[1:].imag, rtol=0, atol=1e-12)
