"""Operator families: construction, verification, transport, coset elements."""

import numpy as np
import pytest

from ptlab import involutions
from ptlab.catalog2x2 import GenPt2Params, genpt2_operator
from ptlab.errors import ContractError, DimensionError
from ptlab.involutions import (
    GrassmannCosetSpec,
    InvolutionKind,
    InvolutionOperator,
    grassmann_coset_element,
    involution_operator,
    make_diagonal_parity,
    make_sip,
    operator_matrix,
    sip_similarity,
    sip_similarity_generator,
    transport,
    verify_involution,
)
from ptlab.numerics import DEFAULT_TOL, ToleranceConfig, matrix_exponential
from ptlab.spectra import classify_spectrum, jordan_block
from ptlab.symmetry import SymmetryKind, check_symmetry

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


class TestDiagonalParity:
    def test_signature_1_1_is_pauli3(self):
        op = make_diagonal_parity(1, 1)
        np.testing.assert_array_equal(op.matrix, SIGMA3)
        assert op.signature == (1, 1)

    def test_definite_signature(self):
        op = make_diagonal_parity(2, 0)
        np.testing.assert_array_equal(op.matrix, np.eye(2))

    def test_trace_is_signature_difference(self):
        op = make_diagonal_parity(2, 1)
        np.testing.assert_array_equal(op.matrix, np.diag([1.0, 1.0, -1.0]))
        assert np.trace(op.matrix).real == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            make_diagonal_parity(0, 0)


class TestSip:
    def test_n2(self):
        np.testing.assert_array_equal(make_sip(2).matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_n1(self):
        np.testing.assert_array_equal(make_sip(1).matrix, np.eye(1))

    @pytest.mark.parametrize("n,trace", [(4, 0), (5, 1), (2, 0), (7, 1)])
    def test_traces(self, n, trace):
        assert np.trace(make_sip(n).matrix).real == trace

    def test_square_is_exact_identity(self):
        for n in range(1, 9):
            S = make_sip(n).matrix
            assert np.array_equal(S @ S, np.eye(n))

    def test_invalid(self):
        with pytest.raises(DimensionError):
            make_sip(0)

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 3.5])
    def test_intertwines_jordan_block_with_adjoint(self, lam):
        for n in range(1, 9):
            S = make_sip(n).matrix
            J = jordan_block(lam, n)
            assert np.abs(S @ J @ S - J.conj().T).max() < 1e-12


class TestVerifyInvolution:
    def test_pauli3_real_involution(self):
        check = verify_involution(SIGMA3, InvolutionKind.REAL_INVOLUTION)
        assert check.ok and check.signature == (1, 1)

    def test_genpt_core_verifies(self):
        core = genpt2_operator(GenPt2Params(theta=0.0, delta=0.0, phi=1.0, alpha=0.3))
        assert verify_involution(core, InvolutionKind.ANTILINEAR_CORE).ok

    def test_shear_is_not_involution(self):
        check = verify_involution(np.array([[1.0, 1.0], [0.0, 1.0]]), InvolutionKind.REAL_INVOLUTION)
        assert not check.ok
        assert check.residuals["square"] > 1.0

    def test_complex_matrix_fails_real_kind(self):
        check = verify_involution(1j * SIGMA3, InvolutionKind.REAL_INVOLUTION)
        assert not check.ok

    def test_signature_of_nonsymmetric_parity(self):
        th, ph = 0.8, 1.1
        P = np.array([[np.cos(th), np.exp(-ph) * np.sin(th)],
                      [np.exp(ph) * np.sin(th), -np.cos(th)]], dtype=complex)
        check = verify_involution(P, InvolutionKind.REAL_INVOLUTION)
        assert check.ok and check.signature == (1, 1)

    def test_validated_constructor_rejects(self):
        with pytest.raises(ContractError):
            involution_operator(np.array([[1.0, 1.0], [0.0, 1.0]]), InvolutionKind.REAL_INVOLUTION)


REAL, HERMITIAN, CORE = InvolutionKind
STRICT_TOL = ToleranceConfig(rel_tol=1e-15)
SYMMETRY_OF = {REAL: SymmetryKind.PT, HERMITIAN: SymmetryKind.PSEUDO, CORE: SymmetryKind.GEN_PT}


def _rotated_parity(theta=0.8, phi=1.1):
    return np.array([[np.cos(theta), np.exp(-phi) * np.sin(theta)],
                     [np.exp(phi) * np.sin(theta), -np.cos(theta)]], dtype=complex)


RECORDED = {
    "diagonal_parity": lambda: make_diagonal_parity(2, 1),
    "diagonal_metric": lambda: make_diagonal_parity(1, 2, HERMITIAN),
    "diagonal_core": lambda: make_diagonal_parity(1, 1, CORE),
    "definite_parity": lambda: make_diagonal_parity(0, 3),
    "sip": lambda: make_sip(3),
    "sip_as_parity": lambda: make_sip(4, REAL),
    "involution_operator": lambda: involution_operator(_rotated_parity(), REAL),
    # identities off by about 1e-12: inside the default thresholds, outside the strict ones
    "involution_operator_near": lambda: involution_operator(np.diag([1.0 + 1e-12, -1.0]), REAL),
    "retagged": lambda: make_diagonal_parity(1, 1).retagged(HERMITIAN),
    "retagged_core": lambda: make_sip(2).retagged(CORE),
    "transported": lambda: transport(make_diagonal_parity(1, 1), np.array([[1.0, 0.3], [0.2, 1.1]])),
}


def _verdict(fn):
    """(result fields) of fn(), or the type and message of the error it raises."""
    try:
        result = fn()
    except ContractError as exc:
        return type(exc), str(exc)
    if hasattr(result, "operator_residuals"):
        return result.holds, result.residual, result.operator_residuals
    return result.ok, result.residuals, result.signature


class TestRecordedVerification:
    """Operators from the validating constructors carry the check they
    passed; judged from that record they get the verdicts of a full check."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT_TOL], ids=["default", "strict"])
    @pytest.mark.parametrize("name", RECORDED)
    def test_same_verdicts_as_the_bare_matrix(self, name, tol):
        op = RECORDED[name]()
        assert op.verification is not None and op.verification.kind is op.kind
        bare = np.array(op.matrix)
        rng = np.random.default_rng(4)
        H = rng.normal(size=bare.shape) + 1j * rng.normal(size=bare.shape)
        for kind in InvolutionKind:  # the recorded kind, and the others through the full check
            got = verify_involution(op, kind, tol)
            want = verify_involution(bare, kind, tol)
            assert (got.kind, got.ok, got.residuals, got.signature) == (want.kind, want.ok, want.residuals, want.signature)
            assert _verdict(lambda: check_symmetry(SYMMETRY_OF[kind], op, H, tol)) == \
                _verdict(lambda: check_symmetry(SYMMETRY_OF[kind], bare, H, tol))

    def test_strict_tolerance_rejects_what_the_default_accepts(self):
        op = RECORDED["involution_operator_near"]()
        assert verify_involution(op, REAL).ok
        strict = verify_involution(op, REAL, STRICT_TOL)
        assert not strict.ok and strict.signature is None and "trace" not in strict.residuals

    def test_accepts_an_operator_without_a_record(self):
        op = InvolutionOperator(kind=REAL, matrix=SIGMA3)
        assert op.verification is None
        check = verify_involution(op, REAL)
        assert check.ok and check.signature == (1, 1)
        assert verify_involution(make_diagonal_parity(1, 1), REAL).ok

    def test_hand_built_non_involution_is_rejected(self):
        shear = InvolutionOperator(kind=REAL, matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))
        H = np.diag([1.0, 2.0]).astype(complex)
        assert not verify_involution(shear, REAL).ok
        with pytest.raises(ContractError, match="real_involution"):
            check_symmetry(SymmetryKind.PT, shear, H)
        with pytest.raises(ContractError, match="real_involution"):
            classify_spectrum(H, symmetry=(SymmetryKind.PT, shear))

    def test_recorded_operator_is_not_verified_again(self, monkeypatch):
        calls = []
        signature = involutions._signature_from_eigenvalues
        monkeypatch.setattr(involutions, "_signature_from_eigenvalues",
                            lambda *args: calls.append(1) or signature(*args))
        op = make_diagonal_parity(1, 1)
        H = np.array([[1.0, 0.5j], [0.5j, -1.0]])
        report = classify_spectrum(H, symmetry=(SymmetryKind.PT, op))
        assert report.symmetry_holds and calls == []
        check_symmetry(SymmetryKind.PT, op.matrix, H)  # a bare matrix is checked in full
        assert calls == [1]


class TestTransport:
    def test_identity_leaves_operator(self):
        op = make_diagonal_parity(1, 1)
        out = transport(op, np.eye(2))
        np.testing.assert_allclose(out.matrix, op.matrix, atol=1e-14)

    def test_parity_along_rotation_chart(self):
        th, ph = 0.7, -0.4
        R = np.diag([np.exp(-ph / 2), np.exp(ph / 2)]) @ np.array(
            [[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]])
        out = transport(make_diagonal_parity(1, 1), R)
        expected = np.array([[np.cos(th), np.exp(-ph) * np.sin(th)],
                             [np.exp(ph) * np.sin(th), -np.cos(th)]])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_metric_along_unitary(self):
        th, ph = 0.9, 0.3
        U = np.diag([np.exp(-1j * ph / 2), np.exp(1j * ph / 2)]) @ np.array(
            [[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]], dtype=complex)
        op = make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION)
        out = transport(op, U)
        expected = np.array([[np.cos(th), np.exp(-1j * ph) * np.sin(th)],
                             [np.exp(1j * ph) * np.sin(th), -np.cos(th)]])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_complex_transport_of_real_involution_rejected(self):
        with pytest.raises(ContractError):
            transport(make_diagonal_parity(1, 1), np.array([[1j, 0], [0, 1]]))

    def test_nonunitary_transport_of_metric_rejected(self):
        op = make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION)
        with pytest.raises(ContractError):
            transport(op, np.diag([2.0, 1.0]))

    def test_random_transports_preserve_kind_and_signature(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 50:
            m = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            if m + n < 1 or m + n > 6:
                continue
            dim = m + n
            kind = rng.choice(["real", "hermitian", "antilinear"])
            if kind == "real":
                op = make_diagonal_parity(m, n)
                T = np.eye(dim) + 0.4 * rng.normal(size=(dim, dim))
            elif kind == "hermitian":
                op = make_diagonal_parity(m, n, InvolutionKind.HERMITIAN_INVOLUTION)
                Z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                T, _ = np.linalg.qr(Z)
            else:
                op = InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE,
                                        matrix=np.diag(np.exp(1j * rng.normal(size=dim))))
                T = (np.eye(dim) + 0.4 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
            out = transport(op, T)
            check = verify_involution(out.matrix, op.kind)
            assert check.ok
            if op.kind is not InvolutionKind.ANTILINEAR_CORE:
                assert out.signature == op.signature
                assert abs(np.trace(out.matrix) - np.trace(op.matrix)) < 1e-8
            count += 1


class TestGrassmannCoset:
    def test_scalar_quarter_turn(self):
        spec = GrassmannCosetSpec(m=1, n=1, b=np.array([[1.0]]), x=np.pi / 4)
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) * (np.sqrt(2) / 2)
        np.testing.assert_allclose(grassmann_coset_element(spec), expected, atol=1e-14)

    def test_zero_flow_is_identity(self):
        spec = GrassmannCosetSpec(m=2, n=1, b=np.ones((2, 1)), x=0.0)
        np.testing.assert_allclose(grassmann_coset_element(spec), np.eye(3), atol=1e-15)

    def test_unitary_for_random_block(self):
        rng = np.random.default_rng(31)
        spec = GrassmannCosetSpec(m=2, n=1, b=rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)), x=0.7)
        U = grassmann_coset_element(spec)
        assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12

    def test_matches_exponential_for_random_specs(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            x = float(rng.uniform(-2, 2))
            spec = GrassmannCosetSpec(m=m, n=n, b=b, x=x)
            U = grassmann_coset_element(spec)
            np.testing.assert_allclose(U, matrix_exponential(spec.generator() * x), atol=1e-11)

    def test_zero_block_limit(self):
        spec = GrassmannCosetSpec(m=2, n=2, b=np.zeros((2, 2)), x=1.3)
        np.testing.assert_allclose(grassmann_coset_element(spec), np.eye(4), atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            GrassmannCosetSpec(m=2, n=2, b=np.ones((2, 1)), x=0.1)


class TestSipSimilarity:
    def test_n2_closed_form(self):
        q, q_inv = sip_similarity(2)
        np.testing.assert_allclose(q, np.array([[1, -1], [1, 1]]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(q @ SIGMA3 @ q_inv, make_sip(2).matrix, atol=1e-15)

    def test_n1_trivial(self):
        q, q_inv = sip_similarity(1)
        np.testing.assert_array_equal(q, np.eye(1))
        np.testing.assert_array_equal(q_inv, np.eye(1))

    def test_n3_odd_form(self):
        q, q_inv = sip_similarity(3)
        parity = make_diagonal_parity(2, 1).matrix
        assert np.abs(q @ parity @ q_inv - make_sip(3).matrix).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 10))
    def test_similarity_and_inverse(self, n):
        q, q_inv = sip_similarity(n)
        np.testing.assert_allclose(q @ q_inv, np.eye(n), atol=1e-12)
        parity = make_diagonal_parity((n + 1) // 2, n // 2).matrix
        assert np.abs(q @ parity @ q_inv - make_sip(n).matrix).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 10))
    def test_q_is_exponential_of_generator(self, n):
        q, _ = sip_similarity(n)
        g = sip_similarity_generator(n)
        np.testing.assert_allclose(q, matrix_exponential(g * np.pi / 4), atol=1e-12)


class TestOperatorMatrix:
    def test_unwraps_operator_and_validates_arrays(self):
        op = make_sip(3)
        assert operator_matrix(op) is op.matrix
        assert np.array_equal(operator_matrix([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(DimensionError):
            operator_matrix(np.ones((2, 3)))


def test_sip_similarity_inverse_is_an_independent_transpose():
    for n in range(1, 8):
        q, q_inv = sip_similarity(n)
        assert np.array_equal(q_inv, q.T)
        q_inv[0, 0] = 7.0
        assert q[0, 0] != 7.0
