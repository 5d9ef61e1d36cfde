"""Metric solver, weighted products, and metric transport."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab.catalog2x2 import Pt2Params, pseudo2_family, pt2_family
from ptlab.errors import DimensionError
from ptlab.metric import (
    self_adjointness_residual,
    solve_metric_space,
    transform_metric,
    weighted_inner_product,
)
from ptlab.spectra import RealityClass, classify_spectrum, jordan_block

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def in_span(basis, target, atol=1e-10):
    stack = np.column_stack([b.ravel() for b in basis])
    coeff, *_ = np.linalg.lstsq(stack, target.ravel(), rcond=None)
    return np.linalg.norm(stack @ coeff - target.ravel()) < atol


class TestSolveMetricSpace:
    def test_pauli3(self):
        sol = solve_metric_space(SIGMA3)
        assert sol.dimension == 2
        assert in_span(sol.hermitian_basis, np.eye(2, dtype=complex))
        assert sol.positive_status == "found"
        # identity itself is a valid positive representative
        assert self_adjointness_residual(np.eye(2), SIGMA3) == 0.0

    def test_pseudo_family_two_parameters(self):
        p = Pt2Params(e=0.0, gamma=2.0, rho=1.0, delta=0.0)
        fam = pseudo2_family(p)
        sol = solve_metric_space(fam.hamiltonian)
        assert sol.dimension == 2
        # the printed metric family lies in the solution span, any (u, v)
        for u, v in ((1.0, 0.0), (0.5, 1.0), (-2.0, -0.3)):
            W = u * np.array([[2.0 + v, 1.0], [1.0, 2.0 - v]], dtype=complex)
            assert in_span(sol.hermitian_basis, W)
            eigs = np.linalg.eigvalsh(W)
            np.testing.assert_allclose(sorted(eigs), sorted([u * (2.0 + np.hypot(1.0, v)), u * (2.0 - np.hypot(1.0, v))]), atol=1e-12)

    def test_defective_has_no_positive_metric(self):
        sol = solve_metric_space(jordan_block(0.0, 2))
        assert sol.positive_representative is None
        assert sol.positive_status in ("absent", "indeterminate")
        assert sol.dimension == 2

    def test_every_basis_element_solves(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            sol = solve_metric_space(H)
            scale = np.linalg.norm(H)
            for W in sol.hermitian_basis:
                assert np.abs(W - W.conj().T).max() < 1e-12
                assert np.linalg.norm(W @ H - H.conj().T @ W) < 1e-10 * max(1.0, scale)

    def test_positive_for_real_simple_spectrum(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            V = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            diag = np.sort(rng.normal(size=n))
            if np.diff(diag).min() < 0.2:
                continue
            H = V @ np.diag(diag) @ np.linalg.inv(V)
            sol = solve_metric_space(H)
            assert sol.positive_status == "found"
            W = sol.positive_representative
            assert np.linalg.eigvalsh(W).min() > 0
            assert self_adjointness_residual(W, H) < 1e-10
            found += 1
        assert found > 100

    def test_no_positive_solution_with_complex_pair(self):
        rng = np.random.default_rng(7)
        p = Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=0.3)
        H = pt2_family(p).hamiltonian  # broken: eigenvalues +- i sqrt(3)
        sol = solve_metric_space(H)
        assert sol.positive_representative is None
        dim = sol.dimension
        for _ in range(500):
            coeff = rng.normal(size=dim)
            W = sum(c * B for c, B in zip(coeff, sol.hermitian_basis))
            if np.linalg.norm(W) < 1e-12:
                continue
            assert np.linalg.eigvalsh(W).min() < 1e-12


class TestWeightedInnerProduct:
    def test_euclidean(self):
        assert weighted_inner_product(np.eye(2), [1, 0], [1, 0]) == 1.0

    def test_indefinite_direction(self):
        assert weighted_inner_product(SIGMA3, [0, 1], [0, 1]) == -1.0

    def test_metric_orthogonality_of_eigenvectors(self):
        p = Pt2Params(e=0.2, gamma=2.0, rho=1.0, delta=0.7, u=1.0, v=0.4)
        fam = pseudo2_family(p)
        overlap = weighted_inner_product(fam.metric, fam.vec_plus, fam.vec_minus)
        assert abs(overlap) < 1e-12
        overlap = weighted_inner_product(fam.metric, fam.vec_minus, fam.vec_plus)
        assert abs(overlap) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        W = W + W.conj().T
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert weighted_inner_product(W, psi, phi) == pytest.approx(
            np.conj(weighted_inner_product(W, phi, psi)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_inner_product(np.eye(2), [1, 0, 0], [1, 0])


class TestTransformMetric:
    def test_identity(self):
        W = np.array([[2.0, 1j], [-1j, 3.0]])
        np.testing.assert_allclose(transform_metric(W, np.eye(2)), W, atol=1e-14)

    def test_rotation_chart_matches_closed_form(self):
        from ptlab.catalog2x2 import Chart, chart_transformation, pt2_metric, pt2_transformed
        p = Pt2Params(e=0.1, gamma=2.0, rho=1.0, delta=0.5, u=1.2, v=0.3, theta=0.8, phi=-0.6)
        R = chart_transformation(Chart.ROTATION, p.theta, p.phi)
        W = transform_metric(pt2_metric(p), R)
        np.testing.assert_allclose(W, pt2_transformed(Chart.ROTATION, p).metric, atol=1e-12)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            W = Z @ Z.conj().T + 0.1 * np.eye(3)
            T = np.eye(3) + 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            out = transform_metric(W, T)
            assert np.abs(out - out.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(out).min() > 0

    def test_composition(self):
        rng = np.random.default_rng(17)
        W = np.diag([1.0, 2.0, 3.0]).astype(complex)
        T1 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        T2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        lhs = transform_metric(transform_metric(W, T1), T2)
        rhs = transform_metric(W, T2 @ T1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestSelfAdjointnessResidual:
    def test_hermitian_with_identity(self):
        H = np.array([[1.0, 2j], [-2j, 0.5]])
        assert self_adjointness_residual(np.eye(2), H) < 1e-15

    def test_catalog_metric_solves(self):
        p = Pt2Params(e=0.4, gamma=1.5, rho=0.7, delta=0.9, u=1.0, v=0.0)
        fam = pt2_family(p)
        assert self_adjointness_residual(fam.metric, fam.hamiltonian) < 1e-12

    def test_wrong_metric_is_positive(self):
        assert self_adjointness_residual(SIGMA3, jordan_block(0.0, 2)) > 0.1


def _similar_to_diagonal(eigenvalues, seed, stretch):
    """V diag(eigenvalues) V^-1 with V = orthogonal diag(stretch) orthogonal."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    left, _ = np.linalg.qr(rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V = left @ np.diag(stretch) @ right
    return V @ np.diag(eigenvalues) @ np.linalg.inv(V)


@st.composite
def _spectrum_and_frame(draw, complex_pair):
    n = draw(st.integers(2, 6))
    start = draw(st.floats(-2.0, 2.0))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    values = list(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    if complex_pair:
        # the first two real values become one conjugate pair; every
        # eigenvalue gap stays >= 0.1
        centre, half_width = values[0], draw(st.floats(0.05, 1.0))
        values[:2] = [centre + 1j * half_width, centre - 1j * half_width]
    stretch = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return _similar_to_diagonal(np.array(values, dtype=complex), seed, stretch)


class TestRealityAgreesWithMetric:
    """Away from exceptional points the spectrum classifier and the metric
    solver answer "is the spectrum real?" with the same cut."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_spectrum_and_frame(complex_pair=False))
    def test_real_spectrum_gives_positive_metric(self, H):
        assert classify_spectrum(H).reality_class is RealityClass.ALL_REAL_DIAGONALIZABLE
        assert solve_metric_space(H).positive_status == "found"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_spectrum_and_frame(complex_pair=True))
    def test_complex_pair_gives_neither(self, H):
        assert classify_spectrum(H).reality_class is not RealityClass.ALL_REAL_DIAGONALIZABLE
        assert solve_metric_space(H).positive_status != "found"
