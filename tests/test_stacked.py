"""Linear solution spaces held as (k, n, n) stacks.

The column-by-column assemblies below are the reference implementations the
stacked code replaced: one basis matrix at a time, generator sums for the
linear combinations.  The cluster-decoupled witness and metric solvers
must span the space of their dense reference with a Frobenius-orthonormal
basis, and transpose_matrix must give a certified witness, without building
a dense Kronecker system.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab import convert, intertwine, metric
from ptlab.convert import witness_space, transpose_matrix
from ptlab.counting import _charpoly_coefficients
from ptlab.metric import solve_metric_space
from ptlab.numerics import (
    DEFAULT_TOL,
    devectorize,
    frobenius,
    hermitian_basis,
    nullspace_complex,
    rank_and_nullspace,
    vectorize,
)

SIZES = range(2, 9)


def reference_witness_space(B):
    n = B.shape[0]
    columns = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            columns.append((E @ B - B.T @ E).ravel())
    null = nullspace_complex(np.column_stack(columns), scale=frobenius(B))
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


def reference_metric_basis(H):
    basis = reference_hermitian_basis(H.shape[0])
    system = np.column_stack([vectorize(B @ H - H.conj().T @ B) for B in basis])
    _, coeffs = rank_and_nullspace(system, scale=frobenius(H))
    solutions = []
    for k in range(coeffs.shape[1]):
        W = sum(c * B for c, B in zip(coeffs[:, k], basis))
        solutions.append(0.5 * (W + W.conj().T))
    return solutions


def dense_metric_basis(A):
    """The stacked dense metric solver (n <= 6 oracle): SVD nullspace of
    W -> W A - adj(A) W on the n^2 Hermitian basis, with the rank cut
    relative to ||A||_F."""
    n = A.shape[0]
    basis = hermitian_basis(n)
    system = vectorize(basis @ A - A.conj().T @ basis).T
    _, coeffs = rank_and_nullspace(system, scale=frobenius(A))
    W = (coeffs.T @ basis.reshape(n * n, -1)).reshape(-1, n, n)
    return 0.5 * (W + W.conj().swapaxes(-1, -2))


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


def jordan_sample(n):
    """One n-fold Jordan block in a random real frame: defective, so both
    solvers meet one cluster holding the whole spectrum."""
    rng = np.random.default_rng(200 + n)
    F = rng.normal(size=(n, n))
    J = 0.5 * np.eye(n) + np.eye(n, k=1)
    return (F @ J @ np.linalg.inv(F)).astype(complex)


def framed_samples(n):
    """J_m(0.5) + J_(n-m)(0.5), m = n - n // 2 (two blocks of one eigenvalue,
    defective from n = 3), and -1.3 times the identity, each in a random
    complex frame of condition number <= 10."""
    rng = np.random.default_rng(300 + n)
    left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = left @ np.diag(rng.uniform(1.0, 10.0, n)) @ right
    m = n - n // 2
    blocks = 0.5 * np.eye(n) + np.diag(np.arange(1, n) != m, k=1)  # J_m(0.5) + J_(n-m)(0.5)
    return V @ blocks @ np.linalg.inv(V), V @ (-1.3 * np.eye(n)) @ np.linalg.inv(V)


@contextlib.contextmanager
def recording_dense_calls():
    """Yields the list of witness_space calls, by name, in call order: the
    metric solver and transpose_matrix solve their own cluster frames and
    must not build the conversions' whole witness space."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        real = convert.witness_space
        mp.setattr(convert, "witness_space", lambda *args: calls.append("witness_space") or real(*args))
        yield calls


@contextlib.contextmanager
def recording_system_shapes():
    """Yields the list of the shapes of the systems the cluster solver hands
    to its SVD nullspace routines."""
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rank_and_nullspace", "nullspace_complex"):
            real = getattr(intertwine, name)
            mp.setattr(intertwine, name,
                       lambda L, *args, _real=real, **kw: shapes.append(np.shape(L)) or _real(L, *args, **kw))
        yield shapes


@pytest.fixture
def dense_calls():
    with recording_dense_calls() as calls:
        yield calls


def assert_same_orthonormal_span(basis, reference):
    """basis is Frobenius-orthonormal and spans the space of reference."""
    V, R = vectorize(basis).T, vectorize(reference).T
    np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12)
    q, _ = np.linalg.qr(R)
    np.testing.assert_allclose(V @ V.T, q @ q.T, rtol=0, atol=1e-10)


def witness_quality(A, B):
    """(similarity residual, sigma_min / sigma_max) of a transpose witness."""
    s = np.linalg.svd(A, compute_uv=False)
    residual = frobenius(A @ B @ np.linalg.inv(A) - B.T) / max(1.0, frobenius(B))
    return residual, s[-1] / s[0]


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


class TestAgainstColumnAssembly:
    def test_hermitian_basis(self):
        for n in range(1, 9):
            assert np.array_equal(hermitian_basis(n), np.array(reference_hermitian_basis(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_witness_space(self, n):
        """The cluster solver's basis against the dense reference: the same
        dimension and span, Frobenius-orthonormal, every element within the
        residual bound."""
        for B in sample_matrices(n) + (jordan_sample(n),) + framed_samples(n):
            basis, reference = witness_space(B), np.array(reference_witness_space(B)).reshape(-1, n, n)
            assert basis.shape == reference.shape
            # a complex-orthonormal basis and its i-multiples: a real-orthonormal basis of the same real span
            assert_same_orthonormal_span(np.concatenate([basis, 1j * basis]), np.concatenate([reference, 1j * reference]))
            bound = metric._residual_bound(DEFAULT_TOL, max(frobenius(B), 1.0), n)
            assert max(frobenius(A @ B - B.T @ A) for A in basis) <= bound

    @pytest.mark.parametrize("n", SIZES)
    def test_metric_basis(self, n, dense_calls):
        for H in sample_matrices(n) + (jordan_sample(n),):
            stacked = solve_metric_space(H).hermitian_basis
            reference = np.array(reference_metric_basis(H)).reshape(-1, n, n)
            assert stacked.shape == reference.shape
            if len(reference):
                assert_same_orthonormal_span(stacked, reference)
        assert dense_calls == []

    @pytest.mark.parametrize("n", SIZES)
    def test_transpose_witness(self, n, dense_calls):
        for k, B in enumerate(sample_matrices(n) + (jordan_sample(n),)):
            A = transpose_matrix(B).A
            residual, invertibility = witness_quality(A, B)
            assert residual < 1e-10 and invertibility > (1e-8 if k == 3 else 1e-3)  # k = 3: the Jordan sample
            assert np.array_equal(transpose_matrix(B).A, A)
            if k == 0:  # the generic sample: a simple spectrum, A = V transpose(V)
                _, V = np.linalg.eig(B.T)
                np.testing.assert_allclose(A, V @ V.T / frobenius(V @ V.T), rtol=0, atol=1e-15)
        assert dense_calls == []


@st.composite
def block_sums(draw):
    """(H, blocks): a direct sum of simple real eigenvalues, conjugate pairs,
    exactly repeated real eigenvalues and real Jordan blocks (n <= 24) in a
    complex frame of condition number <= 10.  blocks lists (eigenvalue, size)
    once per Jordan block; distinct blocks sit >= 0.6 apart."""
    kinds = draw(st.lists(st.sampled_from(["real", "pair", "repeat", "jordan"]), min_size=1, max_size=12))
    centres = draw(st.permutations(range(-6, 7)))
    blocks, n = [], 0
    for kind, centre in zip(kinds, centres):
        c = centre + draw(st.floats(-0.2, 0.2))
        if kind == "real":
            new = [(complex(c), 1)]
        elif kind == "pair":
            b = draw(st.floats(0.3, 1.5))
            new = [(complex(c, b), 1), (complex(c, -b), 1)]
        elif kind == "repeat":
            new = [(complex(c), 1)] * draw(st.integers(2, 3))
        else:
            new = [(complex(c), draw(st.integers(2, 3)))]
        if n + sum(size for _, size in new) > 24:
            break
        blocks += new
        n += sum(size for _, size in new)
    D = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        D[pos:pos + size, pos:pos + size] = lam * np.eye(size) + np.eye(size, k=1)
        pos += size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    stretch = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    V = left @ np.diag(stretch) @ right
    return V @ D @ np.linalg.inv(V), blocks


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(block_sums())
def test_cluster_solver_keeps_dimension_witness_and_cost(case):
    """The metric space has dimension sum min(p, q) over Jordan blocks
    paired by lambda = conj(mu), every basis element passes the residual
    bound, the witness is certified, and no solve builds a system beyond the
    2m^2 x m^2 Hermitian system of the largest true cluster (m its
    algebraic multiplicity): a cost guard without timings."""
    H, blocks = case
    n = H.shape[0]
    expected = sum(min(p, q) for lam, p in blocks for mu, q in blocks if lam == mu.conjugate())
    with recording_dense_calls() as dense_calls, recording_system_shapes() as shapes:
        solution = solve_metric_space(H)
        witness = transpose_matrix(H)
    assert solution.dimension == expected
    if n <= 12:
        assert len(reference_metric_basis(H)) == expected
    bound = metric._residual_bound(DEFAULT_TOL, max(frobenius(H), 1.0), n)
    assert all(frobenius(W @ H - H.conj().T @ W) <= bound for W in solution.hermitian_basis)
    residual, invertibility = witness_quality(witness.A, H)
    assert residual < 1e-10 and witness.residual < 1e-10 and invertibility > 1e-8
    assert dense_calls == []
    multiplicity = {}
    for lam, size in blocks:
        multiplicity[lam] = multiplicity.get(lam, 0) + size
    m = max(multiplicity.values())
    assert all(rows <= 2 * m * m and cols <= m * m for rows, cols in shapes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.floats(0.5, 2.0), st.integers(-3, 3), st.sampled_from([1.0, -1.0]),
       st.integers(0, 2**32 - 1))
def test_scalar_matrix_in_a_frame_keeps_full_dense_spaces(n, mantissa, exponent, sign, seed):
    """H = lambda 1 in a frame of condition number <= 10 differs from
    lambda 1 by rounding only: every matrix is a witness and every Hermitian
    matrix a metric, on the dense routes as on the cluster solver."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = left @ np.diag(rng.uniform(1.0, 10.0, n)) @ right
    H = V @ (sign * mantissa * 10.0 ** exponent * np.eye(n)) @ np.linalg.inv(V)
    assert len(witness_space(H)) == n * n
    assert len(dense_metric_basis(H)) == n * n
    assert solve_metric_space(H).dimension == n * n


def test_stacked_charpoly_matches_np_poly():
    rng = np.random.default_rng(11)
    for N in range(1, 9):
        stack = rng.normal(size=(6, N, N)) + 1j * rng.normal(size=(6, N, N))
        stacked = _charpoly_coefficients(np.linalg.eigvals(stack))[..., 1:].imag
        assert stacked.shape == (6, N)
        for H, imag in zip(stack, stacked):
            np.testing.assert_allclose(imag, np.poly(H)[1:].imag, rtol=0, atol=1e-12)
