"""Kernel checks: eigendecomposition ordering, rank cutoffs, expm, vectorization."""

import dataclasses
import inspect

import numpy as np
import pytest

import ptlab
from ptlab import counting, intertwine, numerics
from ptlab.convert import transpose_matrix, witness_space
from ptlab.errors import ContractError, DimensionError, IndeterminateStructureError
from ptlab.involutions import make_diagonal_parity
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
    nullspace_complex,
    numerical_rank,
    rank_and_nullspace,
    rank_cutoff,
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


def known_pt8(seed=5, jordan=False):
    """8 x 8 PT-symmetric matrix under diag(1_4, -1_4), with simple real
    eigenvalues -2.5 .. 2.5 and the conjugate pairs -3.5 +- 0.8 i and
    3.5 +- 1.2 i in a real frame of condition number <= 4; with jordan=True
    the eigenvalues -0.5 .. 2.5 become one Jordan block of size 3 at 0.5."""
    rng = np.random.default_rng(seed)
    D = np.diag([-3.5, -3.5, -2.5, -0.5, 0.5, 2.5, 3.5, 3.5])
    if jordan:
        D[3:6, 3:6] = 0.5 * np.eye(3) + np.eye(3, k=1)
    D[0, 1], D[1, 0], D[6, 7], D[7, 6] = 0.8, -0.8, 1.2, -1.2
    S = np.linalg.qr(rng.normal(size=(8, 8)))[0] @ np.diag(rng.uniform(0.5, 2.0, 8))
    v = np.concatenate([np.ones(4), 1j * np.ones(4)])
    return (S @ D @ np.linalg.inv(S)) * (v[:, None] / v[None, :]), make_diagonal_parity(4, 4)


def analyses(H, P):
    """Every analysis of one matrix, by name, each returning arrays to compare bit for bit."""
    def spectrum():
        report = ptlab.classify_spectrum(H)
        return [report.eigenvalues, np.array(list(report.segre)), np.array(report.reality_class.value)]

    def metric():
        solution = ptlab.solve_metric_space(H)
        return [solution.hermitian_basis, solution.positive_representative]

    def core():
        try:
            return [ptlab.find_gen_pt_operator(H).matrix]
        except IndeterminateStructureError as exc:
            return [np.array(str(exc))]

    return {
        "symmetry": lambda: [np.array(ptlab.check_symmetry(ptlab.SymmetryKind.PT, P, H).residual)],
        "spectrum": spectrum,
        "metric": metric,
        "witness": lambda: [ptlab.transpose_matrix(H).A],
        "witness_space": lambda: [witness_space(H)],
        "core": core,
        "pseudo": lambda: [ptlab.pt_to_pseudo(P, H).Q],
        "eigen_decompose": lambda: list(ptlab.eigen_decompose(H)),
    }


class TestEigenRecord:
    """One eigendecomposition per matrix and side, shared by every analysis."""

    def test_one_matrix_through_every_analysis_costs_two_eigs(self, monkeypatch):
        H, P = known_pt8()
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        eigs, values_of = [], []
        monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(np.array(a)) or eig(a))
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: values_of.append(np.array(a)) or eigvals(a))
        numerics._eig_record.cache_clear()
        for name, run in analyses(H, P).items():
            if name != "eigen_decompose":
                run()
        assert len(eigs) == 2
        assert {(a == H).all() for a in eigs} == {True, False}  # H and adj(H)
        assert any((a == H.conj().T).all() for a in eigs)
        sides = (H, H.conj().T, H.T)
        assert not any(a.shape == H.shape and any((a == M).all() for M in sides) for a in values_of)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_outputs_do_not_depend_on_the_memo(self, reverse):
        """Each analysis alone on a cold record, then all in turn on one
        record: the second pass reads the eigenpairs, clusters and frames
        the analyses before it kept (for the Jordan input, a Schur form and
        the frame of a 3-cluster), and gives the same bytes."""
        for jordan in (False, True):
            H, P = known_pt8(jordan=jordan)
            runs = list(analyses(H, P).items())
            if reverse:
                runs.reverse()
            cold = {}
            for name, run in runs:
                numerics._eig_record.cache_clear()
                cold[name] = run()
            numerics._eig_record.cache_clear()
            for name, run in runs:
                warm = run()
                assert len(warm) == len(cold[name])
                for a, b in zip(warm, cold[name]):
                    assert (a is None and b is None) or np.asarray(a).tobytes() == np.asarray(b).tobytes(), name

    def test_record_arrays_are_read_only(self):
        H, _ = known_pt8()
        for adjoint in (False, True):
            record = numerics._eigenpairs(H, adjoint)
            for array in (record.values, record.vectors, record.sigma):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_clusters_frames_and_hermitian_basis_are_read_only(self):
        """What the records keep is shared by every analysis, so no reader
        can write to it: the sorted clusters of H, the frame of adj(H) (a
        Schur frame for the Jordan input) with its blocks, the Schur form
        (T, Q) of adj(H), and the Hermitian basis, which is built once per
        size up to 16 and on each call beyond."""
        H, _ = known_pt8(jordan=True)
        ptlab.solve_metric_space(H)
        ptlab.transpose_matrix(H)
        norm = frobenius(H)
        clusters = intertwine.spectrum_clusters(numerics._eigenpairs(H), norm, DEFAULT_TOL)
        record = numerics._eigenpairs(H, adjoint=True)
        frame = intertwine.cluster_frame(record, norm, DEFAULT_TOL)
        assert frame.blocks and len(record.memo["schur"]) == 2
        arrays = [a for a in clusters if isinstance(a, np.ndarray)] + [a for a in frame if isinstance(a, np.ndarray)]
        arrays += [a for block in frame.blocks.values() for a in block] + list(record.memo["schur"])
        assert numerics.hermitian_basis(16) is numerics.hermitian_basis(16)
        assert numerics.hermitian_basis(17) is not numerics.hermitian_basis(17)
        for array in arrays + [numerics.hermitian_basis(3), numerics.hermitian_basis(17)]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_matrix_changed_in_place_gets_a_fresh_record(self):
        H, _ = known_pt8()
        before = ptlab.classify_spectrum(H).eigenvalues
        record = numerics._eigenpairs(H)
        H += np.eye(8)
        after = ptlab.classify_spectrum(H).eigenvalues
        assert numerics._eigenpairs(H) is not record
        assert np.array_equal(after, np.sort(np.linalg.eigvals(H)))
        gaps = np.abs(after[:, None] - (before + 1.0)[None, :])
        assert gaps.min(axis=0).max() < 1e-12 and gaps.min(axis=1).max() < 1e-12


def scipy_orthonormal_columns(A):
    """The thin Q of scipy.linalg.lapack's geqrf and orgqr/ungqr at their default workspaces."""
    lapack = numerics._scipy_linalg().lapack
    if np.iscomplexobj(A):
        qr, tau, *_ = lapack.zgeqrf(A)
        return lapack.zungqr(qr, tau)[0]
    qr, tau, *_ = lapack.dgeqrf(A)
    return lapack.dorgqr(qr, tau)[0]


class TestOrthonormalColumns:
    """The solvers' QR runs on numpy's lapack_lite; its Q must stay bit for
    bit the one scipy's LAPACK gives, though each library ships its own
    OpenBLAS build.  One exception: past k = 128 (LAPACK's blocked path),
    under more than one BLAS thread, the two builds round the complex
    path's threaded products differently (measured: up to 7e-15 at
    (256, 256) under two threads), so there the complex Q is held within
    64 eps.  Either library's complex Q at such sizes already depends on
    the thread count."""

    @staticmethod
    def assert_matches_scipy(A):
        q, ref = numerics._orthonormal_columns(A), scipy_orthonormal_columns(A)
        assert q.shape == ref.shape == A.shape and q.dtype == ref.dtype
        if np.iscomplexobj(A) and A.shape[1] > 128:
            assert np.abs(q - ref).max() <= 64 * numerics.MACHINE_EPS
        else:
            assert np.ascontiguousarray(q).tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_solver_shapes(self, n):
        """(2n^2, k) real as in the metric solver and (n^2, k) complex as in
        the witness solver, up to the largest space that takes the QR: a
        derogatory cluster of n - 1 beside one eigenvalue, (n - 1)^2 + 1
        elements (k > 128 from n = 13 on)."""
        rng = np.random.default_rng(n)
        for k in sorted({1, n, (n - 1) ** 2 + 1}):
            self.assert_matches_scipy(rng.normal(size=(2 * n * n, k)))
            self.assert_matches_scipy(rng.normal(size=(n * n, k)) + 1j * rng.normal(size=(n * n, k)))

    def test_square_and_blocked_shapes(self):
        rng = np.random.default_rng(0)
        for m, k in ((1, 1), (5, 5), (64, 64), (128, 128), (130, 130), (300, 129), (1024, 300)):
            self.assert_matches_scipy(rng.normal(size=(m, k)))
            self.assert_matches_scipy(rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))

    @pytest.mark.parametrize("j", range(-60, 61, 8))
    def test_scaled_family(self, j):
        rng = np.random.default_rng(7)
        for A in (rng.normal(size=(32, 10)), rng.normal(size=(25, 5)) + 1j * rng.normal(size=(25, 5))):
            self.assert_matches_scipy(4.0 ** j * A)

    def test_columns_are_orthonormal_and_span_the_input(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(18, 6)) + 1j * rng.normal(size=(18, 6))
        q = numerics._orthonormal_columns(A)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(q @ (q.conj().T @ A), A, atol=1e-13)


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

    def test_numerical_rank_matches_rank_and_nullspace(self):
        rng = np.random.default_rng(13)
        for k in range(6):
            L = rng.normal(size=(9, k)) @ rng.normal(size=(k, 7))
            assert numerical_rank(L) == rank_and_nullspace(L)[0] == k
        assert numerical_rank(np.zeros((3, 4))) == 0
        assert numerical_rank(np.zeros((0, 4))) == 0

    def test_numerical_rank_contract(self):
        with pytest.raises(DimensionError):
            numerical_rank(np.ones(3))
        with pytest.raises(ContractError):
            numerical_rank(np.array([[1.0, np.inf]]))


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
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["rel_tol"]
        assert DEFAULT_TOL.rel_tol == 1e-10
        assert rank_cutoff(1.0) == 64.0 * numerics.MACHINE_EPS

    def test_rank_decisions_and_witness_draws_take_no_setting(self):
        """Every rank decision cuts at rank_cutoff and transpose_matrix draws
        from one fixed stream: the rank kernels and the counts take no tol,
        and transpose_matrix takes no seed."""
        fixed = (numerical_rank, rank_and_nullspace, nullspace_complex, counting.count_matrix_family,
                 counting.count_operator_orbit, counting.count_real_charpoly_variety, counting.table1_report)
        for fn in fixed:
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__
        assert "seed" not in inspect.signature(transpose_matrix).parameters

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            ToleranceConfig(rel_tol=-1.0)


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


class TestNormUnderflow:
    """Entries below about 1e-154 underflow a plain sum of squares."""

    def test_tiny_entries_keep_their_norm(self):
        from ptlab.metric import solve_metric_space
        rng = np.random.default_rng(31)
        for n in (2, 3):
            left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            V = left @ np.diag(rng.uniform(1.0, 10.0, n)) @ right  # condition number <= 10
            H = V @ (1e-300 * np.eye(n)) @ np.linalg.inv(V)
            assert frobenius(H) == pytest.approx(1e-300 * np.linalg.norm(H * 1e300), rel=1e-14)
            S = np.array([H, np.eye(n), np.zeros((n, n)), 1e-170 * (H * 1e300), 1e-315 * np.eye(n)])
            assert frobenius_norms(S).tolist() == [frobenius(M) for M in S]
            assert frobenius_norms(H) == frobenius(H)
            assert solve_metric_space(H).dimension == n * n

    def test_zero_stays_zero(self):
        assert frobenius(np.zeros((2, 2))) == 0.0
        assert frobenius_norms(np.zeros((3, 2, 2))).tolist() == [0.0] * 3
