"""Parameter counts: nullspace dimensions, orbit ranks, variety dimension."""

import sys

import numpy as np
import pytest
import sympy

from ptlab import counting
from ptlab.counting import (
    FamilyKind,
    TableRow,
    count_matrix_family,
    count_operator_orbit,
    count_real_charpoly_variety,
    table1_report,
    table_columns,
    _charpoly_coefficients,
    _charpoly_imag_coefficients,
    _imag_coefficient_jacobian,
    _random_self_adjoint,
)
from ptlab.errors import DimensionError
from ptlab.numerics import DEFAULT_TOL, frobenius, real_basis
from ptlab.symmetry import DiagMetricSelfAdjointParams, construct_self_adjoint_from_diag_metric


class TestMatrixFamily:
    def test_pt_1_1(self):
        assert count_matrix_family(FamilyKind.PT, 1, 1) == 4

    def test_pseudo_2_1(self):
        assert count_matrix_family(FamilyKind.PSEUDO, 2, 1) == 9

    def test_hermitian_3(self):
        assert count_matrix_family(FamilyKind.HERMITIAN, 3, 0) == 9

    def test_real_symmetric_closed_form(self):
        for N in (2, 3, 4):
            assert count_matrix_family(FamilyKind.REAL_SYMMETRIC, N, 0) == N * (N + 1) // 2

    def test_family_dimension_is_square_of_size(self):
        for N in range(1, 7):
            for n in range(0, N // 2 + 1):
                m = N - n
                assert count_matrix_family(FamilyKind.PT, m, n) == N * N
                assert count_matrix_family(FamilyKind.PSEUDO, m, n) == N * N


class TestOperatorOrbit:
    def test_pt_1_1(self):
        assert count_operator_orbit(FamilyKind.PT, 1, 1) == 2

    def test_pseudo_2_1(self):
        assert count_operator_orbit(FamilyKind.PSEUDO, 2, 1) == 4

    @pytest.mark.parametrize("kind", [FamilyKind.PT, FamilyKind.PSEUDO])
    def test_definite_signature_is_rigid(self, kind):
        for m in (1, 2, 3):
            assert count_operator_orbit(kind, m, 0) == 0

    @pytest.mark.parametrize("kind", [FamilyKind.PT, FamilyKind.PSEUDO])
    def test_orbit_is_2mn(self, kind):
        for N in range(1, 7):
            for n in range(0, N // 2 + 1):
                m = N - n
                assert count_operator_orbit(kind, m, n) == 2 * m * n


class TestCharpolyVariety:
    def test_n2_at_pauli_base(self):
        assert count_real_charpoly_variety(2, base_point=np.diag([1.0, -1.0])) == 6

    def test_n2_at_self_adjoint_base(self):
        rng = np.random.default_rng(3)
        p = DiagMetricSelfAdjointParams(omegas=[1.0, 2.5], a=rng.normal(size=(2, 2)), b=rng.normal(size=(2, 2)))
        assert count_real_charpoly_variety(2, base_point=construct_self_adjoint_from_diag_metric(p)) == 6

    def test_n3(self):
        assert count_real_charpoly_variety(3) == 15

    def test_multiple_random_bases(self):
        rng = np.random.default_rng(5)
        for N in (2, 3, 4, 5, 6):
            for k in range(5):
                p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N),
                                                a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
                base = construct_self_adjoint_from_diag_metric(p)
                assert count_real_charpoly_variety(N, base_point=base) == 2 * N * N - N

    def test_degenerate_base_is_retried(self):
        # identity has a maximally degenerate spectrum; retries must kick in
        assert count_real_charpoly_variety(3, base_point=np.eye(3)) == 15

    def test_base_with_complex_charpoly_is_skipped(self, monkeypatch):
        # Im c_1 = 1e-4 while the coefficients grow like 8^k: one absolute
        # bound scale^N would let this base through; per coefficient it fails
        real_base = np.diag(np.arange(1.0, 9.0)).astype(complex)
        complex_base = real_base.copy()
        complex_base[0, 0] += 1e-4j
        built = _count_random_bases(monkeypatch)
        assert count_real_charpoly_variety(8, base_point=real_base) == 120
        assert built == []
        assert count_real_charpoly_variety(8, base_point=complex_base) == 120
        assert len(built) == 1

    def test_base_point_of_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            count_real_charpoly_variety(3, base_point=np.eye(2))


class TestTableReport:
    def test_columns_dim2(self):
        reports = table1_report(2)
        assert table_columns(reports)[2] == (3, 4, 6, 6)
        assert all(r.match for r in reports)

    def test_columns_dim3(self):
        reports = table1_report(3)
        columns = table_columns(reports)
        assert columns[3] == (6, 9, 13, 15)
        assert all(r.match for r in reports)

    def test_pt_and_pseudo_routes_agree(self):
        reports = table1_report(4)
        merged = [r for r in reports if r.kind is TableRow.PT_OR_PSEUDO]
        assert merged and all(r.match for r in merged)
        # orbit term present only on the merged family row
        for r in reports:
            if r.kind is not TableRow.PT_OR_PSEUDO:
                assert r.measured_operator_orbit_dim == 0

    def test_partitions_covered(self):
        reports = table1_report(4)
        splits = {(r.m, r.n) for r in reports if r.kind is TableRow.PT_OR_PSEUDO}
        assert splits == {(2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)}


def _central_difference_jacobian(H):
    """The finite-difference Jacobian of H -> Im(charpoly coefficients) that
    the count used before the exact derivative, kept here as a reference."""
    N = H.shape[0]
    h = 1e-6 * max(frobenius(H), 1.0)
    steps = h * real_basis(N, N)
    imag = _charpoly_imag_coefficients(np.concatenate([H + steps, H - steps]))
    return ((imag[:len(steps)] - imag[len(steps):]) / (2.0 * h)).T


def _exact_jacobian(H):
    return _imag_coefficient_jacobian(H, _charpoly_coefficients(np.linalg.eigvals(H)))


class TestExactJacobian:
    @pytest.mark.parametrize("N, seed", [(3, 1), (4, 2)])
    def test_matches_sympy_charpoly_derivative(self, N, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-3, 4, size=(N, N)) + 1j * rng.integers(-3, 4, size=(N, N))
        entries = sympy.Matrix(N, N, lambda a, b: sympy.Symbol(f"h{a}{b}"))
        lam = sympy.Symbol("lam")
        coeffs = entries.charpoly(lam).all_coeffs()  # det(lam - H), leading 1
        at = {entries[a, b]: sympy.Integer(int(v.real)) + sympy.I * int(v.imag)
              for (a, b), v in np.ndenumerate(values)}
        expected = np.zeros((N, 2 * N * N))
        for k in range(1, N + 1):
            for a in range(N):
                for b in range(N):
                    d = complex(sympy.diff(coeffs[k], entries[a, b]).subs(at))
                    # Im dc_k along e_ab, then along i e_ab
                    expected[k - 1, 2 * (a * N + b)] = d.imag
                    expected[k - 1, 2 * (a * N + b) + 1] = d.real
        jac = _exact_jacobian(values.astype(complex))
        np.testing.assert_allclose(jac, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("N", range(2, 9))
    def test_matches_central_difference(self, N):
        rng = np.random.default_rng(100 + N)
        for _ in range(3):
            H = _random_self_adjoint(N, rng)
            exact = _exact_jacobian(H)
            fd = _central_difference_jacobian(H)
            rows = np.linalg.norm(exact, axis=1)
            assert np.all(np.linalg.norm(fd - exact, axis=1) <= 1e-8 * rows)


def _count_random_bases(monkeypatch):
    """Record every random base point the counting module builds."""
    built = []

    def recording(N, rng):
        built.append(_random_self_adjoint(N, rng))
        return built[-1]

    monkeypatch.setattr(counting, "_random_self_adjoint", recording)
    return built


class TestSharedCutoffMargin:
    """The variety rank uses the shared machine-epsilon rank cutoff.  The
    exact Jacobian's sigma_min / sigma_max falls about 10x per N (7.8e-6 at
    worst over these bases at N = 8), so both the count and a 1e6 margin over
    the cutoff must hold at the first base point of every seed."""

    @pytest.mark.parametrize("N", range(2, 9))
    def test_first_base_succeeds_at_100_seeds(self, monkeypatch, N):
        built = _count_random_bases(monkeypatch)
        for seed in range(100):
            built.clear()
            assert count_real_charpoly_variety(N, seed=seed) == 2 * N * N - N
            assert len(built) == 1, f"seed {seed} needed {len(built) - 1} retries"
            sing = np.linalg.svd(_exact_jacobian(built[0]), compute_uv=False)
            assert sing[-1] > 1e6 * DEFAULT_TOL.rank_cutoff(sing[0])


class TestWorkCount:
    def test_table_builds_no_nullspace_and_one_base_per_dimension(self, monkeypatch):
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("ptlab")]:
            original = getattr(module, "rank_and_nullspace", None)
            if original is not None:
                monkeypatch.setattr(module, "rank_and_nullspace",
                                    lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
        built = _count_random_bases(monkeypatch)
        assert all(r.match for r in table1_report(8))
        assert calls == []
        assert len(built) == 7

    @pytest.mark.parametrize("seed", [0, 1, 20240601])
    def test_random_stream_unchanged(self, monkeypatch, seed):
        built = _count_random_bases(monkeypatch)
        assert count_real_charpoly_variety(3, base_point=np.eye(3), seed=seed) == 15
        expected = _random_self_adjoint(3, np.random.default_rng(seed))
        assert len(built) == 1 and np.array_equal(built[0], expected)
