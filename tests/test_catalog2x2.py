"""Closed-form 2x2 catalog against the generic machinery and frozen values."""

import cmath
import itertools
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab import catalog2x2 as cat
from ptlab.errors import ConstraintError, ContractError, SingularCaseError
from ptlab.involutions import InvolutionKind, make_diagonal_parity, verify_involution
from ptlab.metric import self_adjointness_residual, transform_metric, weighted_inner_product
from ptlab.numerics import eigen_decompose
from ptlab.symmetry import SymmetryKind, check_symmetry

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def rng_params(rng, metric_ok=False):
    while True:
        p = cat.Pt2Params(
            e=rng.normal(), gamma=rng.normal() * 2, rho=rng.normal(),
            delta=rng.uniform(-np.pi, np.pi), u=rng.normal(), v=rng.normal(),
            theta=rng.uniform(-np.pi, np.pi), phi=rng.uniform(-1.5, 1.5),
        )
        if not metric_ok:
            return p
        if p.metric_reason() is None:
            return p


class TestPauliBasis:
    def test_squares(self):
        for s in cat.PAULI:
            np.testing.assert_array_equal(s @ s, cat.SIGMA0)

    def test_product_cycle(self):
        np.testing.assert_array_equal(cat.SIGMA1 @ cat.SIGMA2, 1j * cat.SIGMA3)


def reference_pauli_combination(coeffs, identity_coeff=0.0):
    out = complex(identity_coeff) * cat.SIGMA0.copy()
    for c, s in zip(coeffs, cat.PAULI):
        out += complex(c) * s
    return out


def reference_pt2_hamiltonian(e, gamma, rho, delta):
    return reference_pauli_combination((1j * rho, gamma * math.sin(delta), gamma * math.cos(delta)), e)


def reference_pseudo2_hamiltonian(e, gamma, rho, delta):
    return np.array([
        [e + gamma, rho * cmath.exp(1j * delta)],
        [-rho * cmath.exp(-1j * delta), e - gamma],
    ])


# signed zeros, angles, and magnitudes from 1e-300 to 1e150 of either sign
_AXIS_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi, math.pi]),
    st.floats(-7.0, 7.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999), st.integers(-300, 149)),
)


class TestStackedBuilders:
    """pt2_grid / pseudo2_grid against the per-point formulas they replaced."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(_AXIS_VALUE, min_size=1, max_size=7), min_size=4, max_size=4))
    def test_grids_bit_equal_to_per_point_formulas(self, axes):
        points = list(itertools.product(*axes))
        for grid, reference, single in (
            (cat.pt2_grid, reference_pt2_hamiltonian, cat.pt2_hamiltonian),
            (cat.pseudo2_grid, reference_pseudo2_hamiltonian, cat.pseudo2_hamiltonian),
        ):
            stack = grid(*(np.array(axis) for axis in axes))
            want = np.array([reference(*point) for point in points])
            assert stack.shape == (len(points), 2, 2)
            assert np.array_equal(stack.view(np.int64), want.view(np.int64))
            for point in points[:3] + points[-3:]:
                got = single(cat.Pt2Params(*point))
                assert np.array_equal(got.view(np.int64), reference(*point).view(np.int64))

    def test_scalar_pauli_combination_unchanged(self):
        coeffs = (0.3 - 0.0j, -0.0, 2.5e-300)
        got = cat.pauli_combination(coeffs, -0.0)
        assert got.shape == (2, 2)
        assert np.array_equal(got.view(np.int64), reference_pauli_combination(coeffs, -0.0).view(np.int64))


class TestPt2Family:
    def test_pauli_reduction(self):
        fam = cat.pt2_family(cat.Pt2Params(e=0.0, gamma=1.0, rho=0.0, delta=0.0))
        np.testing.assert_array_equal(fam.hamiltonian, SIGMA3)
        assert fam.energy_plus == 1.0 and fam.energy_minus == -1.0

    def test_eigenvalue_law(self):
        fam = cat.pt2_family(cat.Pt2Params(e=1.0, gamma=2.0, rho=1.0, delta=0.0))
        assert fam.energy_plus == pytest.approx(1.0 + np.sqrt(3.0))
        assert fam.energy_minus == pytest.approx(1.0 - np.sqrt(3.0))

    def test_exceptional_point_degeneracy(self):
        fam = cat.pt2_family(cat.Pt2Params(e=0.7, gamma=1.0, rho=1.0, delta=0.2))
        assert fam.energy_plus == fam.energy_minus == 0.7
        assert fam.metric is None and "v^2 < gamma^2 - rho^2" in fam.metric_reason

    def test_eigenvectors_and_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng_params(rng)
            fam = cat.pt2_family(p)
            H = fam.hamiltonian
            for E, v in ((fam.energy_plus, fam.vec_plus), (fam.energy_minus, fam.vec_minus)):
                assert np.linalg.norm(H @ v - E * v) < 1e-10 * max(1.0, np.linalg.norm(H))

    def test_metric_identities_at_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng_params(rng, metric_ok=True)
            fam = cat.pt2_family(p)
            H, W = fam.hamiltonian, fam.metric
            assert np.linalg.norm(W @ H - H.conj().T @ W) < 1e-10 * max(1.0, np.linalg.norm(W) * np.linalg.norm(H))
            eigs = np.sort(np.linalg.eigvalsh(W))
            expect = np.sort([fam.omega_plus, fam.omega_minus])
            np.testing.assert_allclose(eigs, expect, rtol=1e-9, atol=1e-12)
            assert abs(weighted_inner_product(W, fam.vec_plus, fam.vec_minus)) < 1e-10 * np.linalg.norm(W)
            got_p = weighted_inner_product(W, fam.vec_plus, fam.vec_plus)
            got_m = weighted_inner_product(W, fam.vec_minus, fam.vec_minus)
            assert got_p.real == pytest.approx(fam.norm_plus, rel=1e-9, abs=1e-10)
            assert got_m.real == pytest.approx(fam.norm_minus, rel=1e-9, abs=1e-10)

    def test_metric_constraint_reporting(self):
        fam = cat.pt2_family(cat.Pt2Params(e=0, gamma=1.0, rho=0.0, delta=0.0, u=-1.0))
        assert fam.metric is None and "u*gamma" in fam.metric_reason
        with pytest.raises(ConstraintError):
            cat.pt2_metric(cat.Pt2Params(gamma=1.0, u=-1.0))

    @pytest.mark.parametrize("family", [cat.pt2_family, cat.pseudo2_family])
    @pytest.mark.parametrize("name, value", [("gamma", 1e200), ("rho", -1e155), ("v", 2e154)])
    def test_parameter_whose_square_overflows_is_a_constraint_error(self, family, name, value):
        # before any closed form is evaluated: no OverflowError and no numpy
        # warning (an error under this suite's warning filter)
        p = cat.Pt2Params(**{name: value})
        message = f"parameter {name} = {value:g} is too large: its square overflows"
        assert p.metric_reason() == message
        with pytest.raises(ConstraintError, match=re.escape(message)):
            p.require_metric()
        with pytest.raises(ConstraintError, match=re.escape(message)):
            family(p)

    @pytest.mark.parametrize("family", [cat.pt2_family, cat.pseudo2_family])
    @pytest.mark.parametrize("params, name", [({"gamma": 1e-170}, "gamma"), ({"gamma": 1e-160, "rho": 1e-160}, "gamma")])
    def test_parameter_whose_square_underflows_is_a_constraint_error(self, family, params, name):
        # the square is lost, yet the parameter is not negligible beside the others
        p = cat.Pt2Params(**params)
        message = f"parameter {name} = {params[name]:g} is too small: its square underflows"
        assert p.metric_reason() == message
        with pytest.raises(ConstraintError, match=re.escape(message)):
            family(p)

    @pytest.mark.parametrize("family", [cat.pt2_family, cat.pseudo2_family])
    @pytest.mark.parametrize("name, value", [("rho", -1e-160), ("v", 1e-155)])
    def test_negligible_parameter_whose_square_underflows_is_accepted(self, family, name, value):
        """Below sqrt(eps) times gamma = 1 a square is lost in gamma^2 anyway:
        the family is the one at zero up to the parameter itself."""
        p = cat.Pt2Params(**{name: value})
        assert p.metric_reason() is None
        fam, at_zero = family(p), family(cat.Pt2Params())
        assert np.abs(fam.hamiltonian - at_zero.hamiltonian).max() <= abs(value)
        assert np.abs(fam.metric - at_zero.metric).max() <= abs(value)

    def test_negligible_parameter_whose_square_underflows_constructs_from_the_cli(self, capsys):
        from ptlab.cli import main
        assert main(["construct", "--family", "pt2", "--params", '{"rho":1e-160}']) == 0
        H = json.loads(capsys.readouterr().out)["matrices"]["hamiltonian"]["data"]
        assert H == [[[1.0, 0.0], [0.0, 1e-160]], [[0.0, 1e-160], [-1.0, 0.0]]]

    def test_sign_of_u_gamma_is_decided_before_the_squares(self):
        assert cat.Pt2Params(gamma=-1e200).metric_reason() == "u*gamma > 0 violated (u = 1, gamma = -1e+200)"

    def test_sign_of_u_gamma_is_decided_by_signs_where_the_product_underflows(self):
        p = cat.Pt2Params(u=1e-200, gamma=1e-150)
        assert p.metric_reason() == "u*gamma is too small: the product of u = 1e-200 and gamma = 1e-150 underflows"
        fam = cat.pt2_family(p)  # u is not in the matrix: the metric alone is refused
        assert fam.metric is None and fam.metric_reason == p.metric_reason()
        assert cat.Pt2Params(u=-1e-200, gamma=1e-150).metric_reason() == "u*gamma > 0 violated (u = -1e-200, gamma = 1e-150)"

    def test_squares_within_the_float_range_keep_their_verdict(self):
        p = cat.Pt2Params(gamma=1e154, rho=-1e154, v=1e150)
        assert p.metric_reason() == "v^2 < gamma^2 - rho^2 violated (v^2 = 1e+300, gamma^2 - rho^2 = 0)"
        assert cat.Pt2Params(gamma=1e154, rho=1e153).metric_reason() is None


class TestPt2Charts:
    def test_identity_transform(self):
        p = cat.Pt2Params(e=0.3, gamma=1.4, rho=0.5, delta=0.8, u=1.0, v=0.2)
        chart = cat.pt2_transformed(cat.Chart.ROTATION, p)
        fam = cat.pt2_family(p)
        np.testing.assert_allclose(chart.parity, SIGMA3, atol=1e-15)
        np.testing.assert_allclose(chart.hamiltonian, fam.hamiltonian, atol=1e-15)
        np.testing.assert_allclose(chart.metric, fam.metric, atol=1e-15)

    def test_rotation_chart_entry(self):
        p = cat.Pt2Params(e=0.2, gamma=1.1, rho=0.7, delta=0.4, theta=0.9, phi=0.5)
        chart = cat.pt2_transformed(cat.Chart.ROTATION, p)
        expected_11 = 0.2 + 1.1 * np.cos(0.4) * np.cos(0.9) - 1j * 0.7 * np.sin(0.9)
        assert chart.hamiltonian[0, 0] == pytest.approx(expected_11)

    def test_boost_chart_entry(self):
        p = cat.Pt2Params(e=0.2, gamma=1.1, rho=0.7, delta=0.4, theta=0.9, phi=0.5)
        chart = cat.pt2_transformed(cat.Chart.BOOST, p)
        assert chart.hamiltonian[0, 0] == pytest.approx(0.2 + 1.1 * np.cos(0.4 + 0.9j))

    def test_closed_forms_match_numeric_transport(self):
        rng = np.random.default_rng(7)
        for chart_kind in (cat.Chart.ROTATION, cat.Chart.BOOST):
            for _ in range(100):
                p = rng_params(rng, metric_ok=True)
                chart = cat.pt2_transformed(chart_kind, p)
                fam = cat.pt2_family(p)
                R = chart.rotation
                R_inv = np.linalg.inv(R)
                np.testing.assert_allclose(chart.parity, R @ SIGMA3 @ R_inv, atol=1e-11)
                np.testing.assert_allclose(chart.hamiltonian, R @ fam.hamiltonian @ R_inv, atol=1e-9)
                np.testing.assert_allclose(chart.metric, transform_metric(fam.metric, R), atol=1e-9)

    def test_charts_give_real_involutions_and_pt_symmetry(self):
        rng = np.random.default_rng(9)
        for chart_kind in (cat.Chart.ROTATION, cat.Chart.BOOST):
            for _ in range(50):
                p = rng_params(rng)
                chart = cat.pt2_transformed(chart_kind, p)
                check = verify_involution(chart.parity, InvolutionKind.REAL_INVOLUTION)
                assert check.ok and check.signature == (1, 1)
                assert check_symmetry(SymmetryKind.PT, chart.parity, chart.hamiltonian).holds


class TestPseudo2Family:
    def test_base_frame(self):
        p = cat.Pt2Params(e=0.3, gamma=2.0, rho=1.0, delta=0.6)
        fam = cat.pseudo2_family(p)
        np.testing.assert_allclose(fam.parity, SIGMA3, atol=1e-15)
        np.testing.assert_allclose(fam.rotated_hamiltonian, fam.hamiltonian, atol=1e-15)
        assert check_symmetry(SymmetryKind.PSEUDO, SIGMA3, fam.hamiltonian).holds

    def test_metric_eigenvalues_example(self):
        fam = cat.pseudo2_family(cat.Pt2Params(e=0.0, gamma=2.0, rho=1.0, delta=0.0, u=1.0, v=0.0))
        assert fam.omega_plus == pytest.approx(3.0)
        assert fam.omega_minus == pytest.approx(1.0)

    def test_norm_example(self):
        fam = cat.pseudo2_family(cat.Pt2Params(e=0.0, gamma=2.0, rho=1.0, delta=0.0, u=1.0, v=0.0))
        assert fam.norm_plus == pytest.approx(6.0 * (2.0 + np.sqrt(3.0)))
        assert fam.norm_minus == pytest.approx(6.0 * (2.0 - np.sqrt(3.0)))

    def test_rotated_forms_match_unitary_transport(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng_params(rng, metric_ok=True)
            fam = cat.pseudo2_family(p)
            U = fam.unitary
            np.testing.assert_allclose(U @ U.conj().T, np.eye(2), atol=1e-13)
            np.testing.assert_allclose(fam.parity, U @ SIGMA3 @ U.conj().T, atol=1e-12)
            np.testing.assert_allclose(fam.rotated_hamiltonian, U @ fam.hamiltonian @ U.conj().T, atol=1e-11)
            np.testing.assert_allclose(fam.rotated_metric, U @ fam.metric @ U.conj().T, atol=1e-11)
            assert check_symmetry(SymmetryKind.PSEUDO, fam.parity, fam.rotated_hamiltonian).holds

    def test_norms_and_orthogonality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = rng_params(rng, metric_ok=True)
            fam = cat.pseudo2_family(p)
            W = fam.metric
            assert abs(weighted_inner_product(W, fam.vec_plus, fam.vec_minus)) < 1e-10 * np.linalg.norm(W)
            got_p = weighted_inner_product(W, fam.vec_plus, fam.vec_plus)
            got_m = weighted_inner_product(W, fam.vec_minus, fam.vec_minus)
            assert got_p.real == pytest.approx(fam.norm_plus, rel=1e-9, abs=1e-10)
            assert got_m.real == pytest.approx(fam.norm_minus, rel=1e-9, abs=1e-10)


class TestBrokenUnbrokenBoundary:
    def test_verdict_flips_exactly_at_gap_closure(self):
        rng = np.random.default_rng(17)
        from ptlab.spectra import classify_spectrum
        pt_op = (SymmetryKind.PT, make_diagonal_parity(1, 1))
        ps_op = (SymmetryKind.PSEUDO, make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION))
        for _ in range(200):
            gamma = rng.uniform(0.2, 2.0)
            rho = rng.uniform(0.2, 2.0)
            delta = rng.uniform(-np.pi, np.pi)
            p = cat.Pt2Params(e=rng.normal(), gamma=gamma, rho=rho, delta=delta)
            expected = gamma ** 2 >= rho ** 2
            rep_pt = classify_spectrum(cat.pt2_hamiltonian(p), symmetry=pt_op)
            rep_ps = classify_spectrum(cat.pseudo2_hamiltonian(p), symmetry=ps_op)
            assert rep_pt.unbroken == expected
            assert rep_ps.unbroken == expected


class TestCrossOperators:
    def test_pseudo_for_pt_base_at_zero_delta(self):
        p = cat.Pt2Params(e=0.5, gamma=1.5, rho=0.7, delta=0.0)
        Q = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_BASE, p)
        np.testing.assert_allclose(Q, SIGMA3, atol=1e-15)
        H = cat.pt2_hamiltonian(p)
        np.testing.assert_allclose(Q @ H @ Q, H.conj().T, atol=1e-12)

    def test_pt_for_pseudo_base_printed_form(self):
        p = cat.Pt2Params(e=0.1, gamma=2.0, rho=1.0, delta=0.8)
        Q = cat.cross_operators(cat.CrossCase.PT_FOR_PSEUDO_BASE, p)
        g, r, d = 2.0, 1.0, 0.8
        pref = 1.0 / np.sqrt(g * g - (r * np.cos(d)) ** 2)
        expected = pref * np.array([[g, r * np.cos(d)], [-r * np.cos(d), -g]])
        np.testing.assert_allclose(Q, expected, atol=1e-13)
        H = cat.pseudo2_hamiltonian(p)
        assert check_symmetry(SymmetryKind.PT, Q, H).holds

    def test_rotation_chart_case_reduces_at_phi_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = cat.Pt2Params(e=rng.normal(), gamma=rng.normal() * 2, rho=rng.normal(),
                              delta=rng.uniform(-1.2, 1.2), theta=rng.uniform(-np.pi, np.pi), phi=0.0)
            if cat.cross_normalizer(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p) < 1e-6:
                continue
            Q = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p)
            g, d, th = p.gamma, p.delta, p.theta
            in_text = np.array([
                [np.cos(d) * np.cos(th), np.cos(d) * np.sin(th) - 1j * np.sin(d)],
                [np.cos(d) * np.sin(th) + 1j * np.sin(d), -np.cos(d) * np.cos(th)],
            ])
            if in_text[0, 0].real < 0 or (abs(in_text[0, 0]) < 1e-12 and in_text[1, 1].real < 0):
                in_text = -in_text
            np.testing.assert_allclose(Q, in_text, atol=1e-10)
            # normalizer reduces to gamma^2
            assert cat.cross_normalizer(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p) == pytest.approx(g * g, rel=1e-12)

    @pytest.mark.parametrize("case,chart", [
        (cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, cat.Chart.ROTATION),
        (cat.CrossCase.PSEUDO_FOR_PT_BOOST_CHART, cat.Chart.BOOST),
    ])
    def test_chart_cases_are_valid_metric_operators(self, case, chart):
        rng = np.random.default_rng(23)
        done = 0
        while done < 100:
            p = rng_params(rng)
            if cat.cross_normalizer(case, p) < 1e-6:
                continue
            Q = cat.cross_operators(case, p)
            H = cat.pt2_transformed(chart, p).hamiltonian
            assert np.abs(Q - Q.conj().T).max() < 1e-10
            assert np.abs(Q @ Q - np.eye(2)).max() < 1e-10
            assert np.linalg.norm(Q @ H - H.conj().T @ Q) < 1e-10 * max(1.0, np.linalg.norm(H))
            done += 1

    def test_rotated_pseudo_case_gives_valid_parity(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 100:
            p = rng_params(rng)
            if cat.cross_normalizer(cat.CrossCase.PT_FOR_PSEUDO_ROTATED, p) < 1e-6:
                continue
            Q = cat.cross_operators(cat.CrossCase.PT_FOR_PSEUDO_ROTATED, p)
            H = cat.pseudo2_family(p).rotated_hamiltonian
            check = verify_involution(Q, InvolutionKind.REAL_INVOLUTION)
            assert check.ok
            assert check_symmetry(SymmetryKind.PT, Q, H).holds
            done += 1

    def test_singular_normalizer_raises(self):
        p = cat.Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=np.pi / 3)  # gamma^2 = rho^2 cos^2(delta)
        with pytest.raises(SingularCaseError, match="normalizer"):
            cat.cross_operators(cat.CrossCase.PT_FOR_PSEUDO_BASE, p)


class TestGenPt2Operator:
    def test_identity_at_origin(self):
        np.testing.assert_array_equal(cat.genpt2_operator(cat.GenPt2Params()), np.eye(2))

    def test_printed_form_at_phi_zero(self):
        p = cat.GenPt2Params(theta=0.7, delta=1.1, phi=0.0, alpha=0.0)
        expected = np.array([
            [np.cos(0.7) + 1j * np.sin(0.7) * np.sin(1.1), 1j * np.sin(0.7) * np.cos(1.1)],
            [1j * np.sin(0.7) * np.cos(1.1), np.cos(0.7) - 1j * np.sin(0.7) * np.sin(1.1)],
        ])
        np.testing.assert_allclose(cat.genpt2_operator(p), expected, atol=1e-15)

    def test_conjugate_product_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            p = cat.GenPt2Params(theta=rng.uniform(-np.pi, np.pi), delta=rng.uniform(-np.pi, np.pi),
                                 phi=rng.uniform(-2, 2), alpha=rng.uniform(-np.pi, np.pi))
            core = cat.genpt2_operator(p)
            assert np.abs(core @ core.conj() - np.eye(2)).max() < 1e-12


class TestOracleAgreement:
    """Generic machinery agrees with the catalog closed forms."""

    def test_eigensolver_matches_catalog(self):
        rng = np.random.default_rng(37)
        for _ in range(250):
            p = rng_params(rng)
            fam = cat.pt2_family(p)
            values, _ = eigen_decompose(fam.hamiltonian)
            expected = [fam.energy_plus, fam.energy_minus]
            scale = max(1.0, np.abs(expected[0]), np.abs(expected[1]))
            # multiset comparison: conjugate pairs make any fixed ordering fragile
            remaining = list(values)
            for E in expected:
                k = int(np.argmin([abs(v - E) for v in remaining]))
                assert abs(remaining.pop(k) - E) < 1e-9 * scale

    def test_metric_solver_contains_catalog_metric(self):
        from ptlab.metric import solve_metric_space
        rng = np.random.default_rng(41)
        for _ in range(60):
            p = rng_params(rng, metric_ok=True)
            fam = cat.pt2_family(p)
            sol = solve_metric_space(fam.hamiltonian)
            stack = np.column_stack([b.ravel() for b in sol.hermitian_basis])
            coeff, *_ = np.linalg.lstsq(stack, fam.metric.ravel(), rcond=None)
            assert np.linalg.norm(stack @ coeff - fam.metric.ravel()) < 1e-9 * np.linalg.norm(fam.metric)

    def test_conversion_matches_catalog_cross_operator(self):
        from ptlab.convert import pt_to_pseudo
        rng = np.random.default_rng(43)
        for _ in range(60):
            p = rng_params(rng)
            if abs(p.gamma) < 0.2 or abs(p.gamma ** 2 - p.rho ** 2) < 1e-3:
                continue
            H = cat.pt2_hamiltonian(p)
            result = pt_to_pseudo(SIGMA3, H)
            expected = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_BASE, p)
            assert result.target_kind_satisfied
            gap = min(np.abs(result.Q - expected).max(), np.abs(result.Q + expected).max())
            assert gap < 1e-9


class TestJsonFieldNames:
    def test_parameter_record_round_trip(self):
        p = cat.Pt2Params(e=0.1, gamma=0.2, rho=0.3, delta=0.4, u=0.5, v=0.6, theta=0.7, phi=0.8)
        blob = json.dumps(asdict(p))
        assert sorted(json.loads(blob)) == ["delta", "e", "gamma", "phi", "rho", "theta", "u", "v"]
        assert cat.Pt2Params(**json.loads(blob)) == p

    def test_genpt_record_round_trip(self):
        p = cat.GenPt2Params(theta=0.1, delta=0.2, phi=0.3, alpha=0.4)
        blob = json.dumps(asdict(p))
        assert sorted(json.loads(blob)) == ["alpha", "delta", "phi", "theta"]
        assert cat.GenPt2Params(**json.loads(blob)) == p


class TestJordanChainFormulas:
    def test_pt_chain_formula_consistency(self):
        p = cat.Pt2Params(e=0.4, gamma=1.0, rho=1.0, delta=0.3)
        v0, v1 = cat.pt2_jordan_chain(p)
        H = cat.pt2_hamiltonian(p)
        M = H - 0.4 * np.eye(2)
        np.testing.assert_allclose(M @ v0, np.zeros(2), atol=1e-13)
        np.testing.assert_allclose(M @ v1, v0, atol=1e-13)

    def test_pseudo_chain_formula_consistency(self):
        p = cat.Pt2Params(e=-0.8, gamma=1.4, rho=1.4, delta=-0.9)
        v0, v1 = cat.pseudo2_jordan_chain(p)
        H = cat.pseudo2_hamiltonian(p)
        M = H + 0.8 * np.eye(2)
        np.testing.assert_allclose(M @ v0, np.zeros(2), atol=1e-13)
        np.testing.assert_allclose(M @ v1, v0, atol=1e-13)

    def test_chain_requires_exceptional_point(self):
        with pytest.raises(ContractError):
            cat.pt2_jordan_chain(cat.Pt2Params(gamma=1.0, rho=0.5))

    @pytest.mark.parametrize("hamiltonian, chain", [(cat.pt2_hamiltonian, cat.pt2_jordan_chain),
                                                    (cat.pseudo2_hamiltonian, cat.pseudo2_jordan_chain)])
    @pytest.mark.parametrize("gamma", [1e-14, 1.0, 1e14])
    def test_exceptional_point_cut_is_relative_to_gamma(self, hamiltonian, chain, gamma):
        """rho = 2 gamma is refused at every scale (at gamma = 1e-14 a cut of
        1e-12 would pass it, with eigenvalues +-1.7e-14 i that v0 misses);
        at rho = gamma, v0 is an eigenvector of H, here at e = 0."""
        with pytest.raises(ContractError):
            chain(cat.Pt2Params(gamma=gamma, rho=2 * gamma, delta=0.3))
        p = cat.Pt2Params(gamma=gamma, rho=gamma, delta=0.3)
        v0, _ = chain(p)
        H = hamiltonian(p)
        assert np.linalg.norm(H @ v0) <= 1e-13 * np.linalg.norm(H) * np.linalg.norm(v0)

    def test_chain_singular_at_cos_delta_zero(self):
        with pytest.raises(SingularCaseError):
            cat.pt2_jordan_chain(cat.Pt2Params(gamma=1.0, rho=1.0, delta=np.pi / 2))
