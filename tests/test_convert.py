"""Transpose witnesses and the three conversion directions."""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ptlab
from ptlab import catalog2x2 as cat
from ptlab import convert, involutions, metric
from ptlab.convert import (
    ConversionResult,
    WitnessMethod,
    gen_pt_to_pseudo,
    pseudo_to_pt,
    pt_to_pseudo,
    transpose_from_jordan,
    transpose_matrix,
    witness_space,
)
from ptlab.errors import ContractError, NumericalError
from ptlab.involutions import (InvolutionKind, InvolutionOperator, make_diagonal_parity, make_sip,
                               operator_matrix, verify_involution)
from ptlab.numerics import (DEFAULT_TOL, frobenius, matrix_exponential, needs_sign_flip, nullspace_complex,
                            rank_and_nullspace, vectorize)
from ptlab.spectra import build_pt_jordan, jordan_block
from ptlab.symmetry import SymmetryKind, check_symmetry

NONE_EXISTS = "no Hermitian involution exists in the constrained family"
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
PSEUDO_P0 = make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION)
SIGMA3_CORE = InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=SIGMA3)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def reference_convert(H, P, to_pseudo, tol=DEFAULT_TOL):
    """The candidate hunt the stacked screen replaced: one candidate at a
    time, in order, through every cut.  The closed-form rows are computed
    with the operations convert._convert uses, so the rows agree bit for bit."""
    M = np.asarray(H, dtype=complex)
    P = operator_matrix(P)
    n = M.shape[0]
    norm_m = frobenius(M)
    scale = norm_m if norm_m > 0 else 1.0
    eye = np.eye(n)

    if to_pseudo:
        def build_q(A):
            return A.conj() @ P
        def structure_gap(Q):
            return Q - Q.conj().swapaxes(-1, -2)
        def intertwine(Q):
            return frobenius(Q @ M - M.conj().T @ Q)
        real_scalar_required = False
    else:
        def build_q(A):
            return P.conj() @ A
        def structure_gap(Q):
            return Q - Q.conj()
        def intertwine(Q):
            return frobenius(Q @ M - M.conj() @ Q)
        real_scalar_required = True

    basis = convert.witness_space(M, tol)
    directions = np.stack([basis, 1j * basis], 1).reshape(-1, n, n)
    q_dirs = build_q(directions)
    _, coeff_basis = rank_and_nullspace(vectorize(structure_gap(q_dirs)).T)
    fdim = coeff_basis.shape[1]
    q_family = coeff_basis.T @ q_dirs.reshape(-1, n * n)
    a_family = coeff_basis.T @ directions.reshape(-1, n * n)

    def q_and_a(z):
        return (z @ q_family).reshape(n, n), (z @ a_family).reshape(n, n)

    if fdim == 0:
        return ConversionResult(Q=None, hermitian=False, involutory=False,
                                target_kind_satisfied=False,
                                residuals=(float("inf"), float("inf"), float("inf")),
                                note="constrained family is empty")

    candidates = []
    q_flat = vectorize(q_family.reshape(fdim, n, n)).T
    target = vectorize(np.eye(n, dtype=complex))
    z_id, *_ = np.linalg.lstsq(q_flat, target, rcond=None)
    if np.linalg.norm(q_flat @ z_id - target) <= 1e-10 * np.sqrt(n):
        candidates.append(z_id)
    candidates += list(np.eye(fdim))
    traces = np.trace(q_family.reshape(fdim, n, n), axis1=1, axis2=2).real
    tnull = np.zeros((fdim, 0))
    if np.any(np.abs(traces) > 1e-14):
        _, tnull = rank_and_nullspace(traces.reshape(1, -1))
        candidates += list(tnull.T)
    # the top eigenvectors of C_ij = Re tr(F_i F_j) / n on the traceless slice and the family
    C = (q_family @ q_family.reshape(fdim, n, n).swapaxes(1, 2).reshape(fdim, n * n).T).real / n
    if tnull.shape[1] > 1:
        candidates.append(tnull @ np.linalg.eigh(tnull.T @ C @ tnull)[1][:, -1])
    if fdim > 1:
        candidates.append(np.linalg.eigh(C)[1][:, -1])

    intertwine_cut = 1e-10 * norm_m

    def hunt():
        saw_degenerate = False
        for z in candidates:
            Q, A = q_and_a(z)
            norm = frobenius(Q)
            if norm <= 1e-13:
                continue
            Q, A = Q / norm, A / norm
            c = complex(np.trace(Q @ Q)) / n
            if frobenius(Q @ Q - c * eye) > 1e-9:
                continue
            if real_scalar_required and abs(c.imag) > 1e-10:
                continue
            if c.real <= 1e-12:
                saw_degenerate = True
                continue
            root = np.sqrt(c.real)
            Qn, An = Q / root, A / root
            if intertwine(Qn) > intertwine_cut:
                continue
            return *((-Qn, -An) if needs_sign_flip(Qn) else (Qn, An)), saw_degenerate
        return None, None, saw_degenerate

    Qn, An, saw_degenerate = hunt()

    if Qn is None:
        return ConversionResult(Q=None, hermitian=False, involutory=False,
                                target_kind_satisfied=False,
                                residuals=(float("inf"), float("inf"), float("inf")),
                                degenerate=saw_degenerate,
                                note="no involutory element found in the constrained family within budget")

    herm_res = frobenius(Qn - Qn.conj().T)
    struct_res = frobenius(structure_gap(Qn))
    inv_res = frobenius(Qn @ Qn - eye)
    int_res = intertwine(Qn) / scale
    target_kind = SymmetryKind.PSEUDO if to_pseudo else SymmetryKind.PT
    op_kind = InvolutionKind.HERMITIAN_INVOLUTION if to_pseudo else InvolutionKind.REAL_INVOLUTION
    qualifies = verify_involution(Qn, op_kind, tol).ok
    target_ok = bool(qualifies and check_symmetry(target_kind, Qn, M, tol).holds)
    return ConversionResult(
        Q=Qn,
        hermitian=bool(herm_res <= 1e-9),
        involutory=bool(inv_res <= 1e-8),
        target_kind_satisfied=target_ok,
        residuals=(float(struct_res), float(inv_res), float(int_res)),
        degenerate=False,
        witness=An,
    )


def assert_bytes_equal(result, reference):
    """Every field of two ConversionResults equal, arrays and floats bit for bit."""
    for field in dataclasses.fields(ConversionResult):
        got, want = getattr(result, field.name), getattr(reference, field.name)
        if isinstance(want, (np.ndarray, tuple)) and got is not None:
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field.name
        else:
            assert got == want, field.name


def kron_witness_space(B, tol=DEFAULT_TOL):
    """The oracle for witness_space, whose signature it keeps to stand in for
    it: the SVD nullspace of the whole equation's n^2 x n^2 system, built by
    two np.kron calls, with the rank cut relative to ||B||_F."""
    M = np.asarray(B, dtype=complex)
    n = M.shape[0]
    eye = np.eye(n)
    return nullspace_complex(np.kron(eye, M.T) - np.kron(M.T, eye), scale=frobenius(M)).T.reshape(-1, n, n)


def witness_residual(A, B):
    return np.linalg.norm(A @ B @ np.linalg.inv(A) - B.T) / max(1.0, np.linalg.norm(B))


class TestTransposeWitness:
    def test_jordan_block_admits_sip(self):
        J = jordan_block(1.3, 2)
        S = make_sip(2).matrix
        assert witness_residual(S, J) < 1e-14
        result = transpose_matrix(J)
        assert result.residual < 1e-10

    def test_symmetric_matrix(self):
        B = np.array([[1.0, 2.0], [2.0, -0.7]], dtype=complex)
        # the identity is a witness; whatever the search picks must work too
        assert witness_residual(np.eye(2), B) < 1e-14
        result = transpose_matrix(B)
        assert result.residual < 1e-10

    def test_random_4x4(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        result = transpose_matrix(B)
        assert result.residual < 1e-10
        assert result.method is WitnessMethod.NULLSPACE_SEARCH

    def test_many_random_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert transpose_matrix(B).residual < 1e-9

    def test_defective_inputs(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                H, _ = build_pt_jordan(m, n, 0.4)
                assert transpose_matrix(H).residual < 1e-9

    def test_witness_space_contains_commutant_scale(self):
        # witness space of a diagonalizable matrix has dimension >= n
        rng = np.random.default_rng(7)
        B = rng.normal(size=(3, 3))
        assert len(witness_space(B)) >= 3

    def test_jordan_recipe(self):
        H, T = build_pt_jordan(2, 2, -0.6)
        A = transpose_from_jordan(T, [4])
        assert witness_residual(A, H) < 1e-12

    def test_jordan_recipe_direct_sum(self):
        H = np.zeros((5, 5), dtype=complex)
        H[:3, :3] = jordan_block(1.0, 3)
        H[3:, 3:] = jordan_block(-2.0, 2)
        A = transpose_from_jordan(np.eye(5), [3, 2])
        assert witness_residual(A, H) < 1e-12

    def test_jordan_recipe_validates_sizes(self):
        with pytest.raises(ContractError):
            transpose_from_jordan(np.eye(3), [2, 2])

    def test_jordan_recipe_when_every_draw_is_singular(self, monkeypatch):
        """With no candidate invertible on any frame, the closed form of a
        given Jordan frame is returned, and without one the search raises."""
        monkeypatch.setattr(convert, "_invertibility", lambda A: 0.0)
        H, T = build_pt_jordan(2, 1, 0.5)
        result = transpose_matrix(H, jordan_witness=(T, [3]))
        assert result.method is WitnessMethod.JORDAN_RECIPE and result.residual <= 1e-10
        with pytest.raises(NumericalError, match="no invertible transpose witness"):
            transpose_matrix(H)


def assert_witness_basis(basis, reference, B):
    """basis has the dimension and the span of the Kronecker oracle's
    (orthonormal) reference, is Frobenius-orthonormal, and every element
    meets the residual bound of the cluster solvers."""
    V, R = basis.reshape(len(basis), -1).T, reference.reshape(len(reference), -1).T
    assert V.shape == R.shape
    np.testing.assert_allclose(V.conj().T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(V @ V.conj().T, R @ R.conj().T, rtol=0, atol=1e-10)
    bound = metric._residual_bound(DEFAULT_TOL, max(frobenius(B), 1.0), B.shape[0])
    assert max(frobenius(A @ B - B.T @ A) for A in basis) <= bound


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_space_bytes_match_the_kron_system(n):
    """witness_space against the Kronecker system of the whole equation, as
    an oracle: the same dimension and span, an orthonormal basis and certified
    elements, on simple, symmetric, scalar, derogatory and Jordan inputs."""
    rng = np.random.default_rng(900 + n)
    X = rng.normal(size=(n, n))
    inputs = {"random": X + 1j * rng.normal(size=(n, n)), "real_symmetric": X + X.T, "scalar": 1.3 * np.eye(n),
              "derogatory": np.diag(np.concatenate([np.full(n - n // 2, 0.5), np.full(n // 2, -2.0)]))}
    if n >= 2:
        inputs["pt_jordan"] = build_pt_jordan(n // 2, n - n // 2, 0.7)[0]
        blocks = np.zeros((n, n), dtype=complex)  # two Jordan blocks of one eigenvalue, moved off the frame
        blocks[:n - n // 2, :n - n // 2] = jordan_block(0.5, n - n // 2)
        blocks[n - n // 2:, n - n // 2:] = jordan_block(0.5, n // 2)
        T = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        inputs["derogatory"] = T @ blocks @ np.linalg.inv(T)
    for name, B in inputs.items():
        assert_witness_basis(witness_space(B), kron_witness_space(B), np.asarray(B, dtype=complex))


def test_witness_space_merges_a_cluster_whose_solutions_miss(monkeypatch):
    """J_2(0.5) + diag(2, -1) in a complex frame, with the Jordan cluster's
    first small-system solve pushed off its equation (E_11 added to one
    solution): that element misses the residual bound, its cluster is named
    and merged with its nearest neighbour, and the merged frame gives the
    oracle's space."""
    rng = np.random.default_rng(31)
    T = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    B = T @ (np.diag([0.5, 0.5, 2.0, -1.0]) + np.diag([1.0, 0.0, 0.0], k=1)) @ np.linalg.inv(T)
    sizes = []
    solve = convert.pair_solutions

    def spoiled(Ma, Mb, adjoint, scale):
        Y = solve(Ma, Mb, adjoint, scale)
        sizes.append(len(Ma))
        if len(sizes) == 1:
            Y[0, -1, -1] += 1.0
        return Y

    monkeypatch.setattr(convert, "pair_solutions", spoiled)
    basis = witness_space(B)
    assert sizes == [2, 3]
    assert_witness_basis(basis, kron_witness_space(B), B)


class TestPtToPseudo:
    def test_base_catalog_operator_recovered(self):
        p = cat.Pt2Params(e=0.2, gamma=1.7, rho=0.9, delta=0.8)
        H = cat.pt2_hamiltonian(p)
        result = pt_to_pseudo(SIGMA3, H)
        assert result.hermitian and result.involutory and result.target_kind_satisfied
        expected = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_BASE, p)
        assert min(np.abs(result.Q - expected).max(), np.abs(result.Q + expected).max()) < 1e-10

    def test_rotation_chart_operator_recovered(self):
        p = cat.Pt2Params(e=0.1, gamma=1.5, rho=0.6, delta=0.5, theta=1.1, phi=0.0)
        chart = cat.pt2_transformed(cat.Chart.ROTATION, p)
        result = pt_to_pseudo(chart.parity, chart.hamiltonian)
        assert result.hermitian and result.involutory and result.target_kind_satisfied
        expected = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p)
        assert min(np.abs(result.Q - expected).max(), np.abs(result.Q + expected).max()) < 1e-9

    def test_real_symmetric_coincidence(self):
        # for real-symmetric H and symmetric parity the two conditions coincide,
        # so the parity itself is already a valid metric operator
        th = 0.6
        P = np.array([[np.cos(th), np.sin(th)], [np.sin(th), -np.cos(th)]], dtype=complex)
        H = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
        H = 0.5 * (P @ H @ P + H)  # symmetrize into the commuting family
        assert check_symmetry(SymmetryKind.PT, P, H).holds
        assert check_symmetry(SymmetryKind.PSEUDO, P, H).holds
        result = pt_to_pseudo(P, H)
        assert result.hermitian and result.involutory and result.target_kind_satisfied

    def test_requires_source_symmetry(self):
        with pytest.raises(ContractError):
            pt_to_pseudo(SIGMA3, np.diag([1j, 0.0]))

    def test_catalog_grid_always_succeeds(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 150:
            p = cat.Pt2Params(e=rng.normal(), gamma=rng.normal() * 2, rho=rng.normal(),
                              delta=rng.uniform(-np.pi, np.pi))
            if abs(p.gamma) < 0.1 or abs(p.gamma ** 2 - p.rho ** 2) < 1e-4:
                continue
            H = cat.pt2_hamiltonian(p)
            result = pt_to_pseudo(SIGMA3, H)
            assert result.hermitian and result.involutory and result.target_kind_satisfied
            done += 1

    def test_determinism(self):
        p = cat.Pt2Params(e=0.2, gamma=1.7, rho=0.9, delta=0.8)
        H = cat.pt2_hamiltonian(p)
        first = pt_to_pseudo(SIGMA3, H)
        second = pt_to_pseudo(SIGMA3, H)
        np.testing.assert_array_equal(first.Q, second.Q)


def no_witness_space(M, tol):
    raise AssertionError("witness_space ran")


def pt2_direct_sum(rng, gap, broken):
    """O (H1 + H2) transpose(O), O real orthogonal, H1 and H2 pt2 matrices
    with gamma^2 - rho^2 of one sign (|.| >= 0.1) whose spectra come gap
    apart: one real eigenvalue of each for an unbroken pair, the two
    conjugate pairs for a broken one.  Returns (H, parity O (sigma3 +
    sigma3) transpose(O), Hermitian involution O (Pt1 + Pt2)
    transpose(O)), Pt_k the catalog's Hermitian involution of H_k."""
    def params(**fixed):
        while True:
            p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                              delta=rng.uniform(-np.pi, np.pi))
            p = dataclasses.replace(p, **fixed)
            if abs(p.gamma ** 2 - p.rho ** 2) >= 0.1 and (p.rho ** 2 > p.gamma ** 2) == broken:
                return p

    p1 = params()
    if broken:  # the same imaginary parts, real parts gap apart
        p2 = params(e=p1.e + gap, gamma=p1.gamma, rho=p1.rho)
    else:
        p2 = params()
        p2 = dataclasses.replace(p2, e=p1.e + np.sqrt(p1.gamma ** 2 - p1.rho ** 2) + gap
                                 - np.sqrt(p2.gamma ** 2 - p2.rho ** 2))

    def framed(A, B):
        return O @ np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), B]]) @ O.T

    O = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    pseudo = [cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_BASE, p) for p in (p1, p2)]
    return framed(cat.pt2_hamiltonian(p1), cat.pt2_hamiltonian(p2)), framed(SIGMA3, SIGMA3), framed(*pseudo)


class TestClosedFormInvolution:
    """PT -> pseudo on a simple spectrum decides the family in eigen-coordinates
    before the screen: a proven miss says so, and an involution the screen
    misses is built in closed form."""

    def test_simple_real_spectrum_has_none(self, monkeypatch):
        rng = np.random.default_rng(3)
        S = rng.normal(size=(3, 3))
        H = (S @ np.diag([-1.0, 0.5, 2.0]) @ np.linalg.inv(S)).astype(complex)  # real: PT-symmetric under 1
        assert reference_convert(H, np.eye(3), True).Q is None
        monkeypatch.setattr(convert, "witness_space", no_witness_space)
        result = pt_to_pseudo(np.eye(3), H)
        assert result.Q is None and not result.degenerate and result.note == NONE_EXISTS

    def test_sigma1_direct_sum_converts(self):
        """diag(0.3 +- 0.7i, -1 +- 0.2i) under sigma1 + sigma1, which is a
        Hermitian involution for it as well: the screen misses it, and each
        pair of the closed form keeps a free phase, set to 0."""
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.kron(np.eye(2), sigma1)
        H = np.diag([0.3 + 0.7j, 0.3 - 0.7j, -1.0 + 0.2j, -1.0 - 0.2j])
        assert reference_convert(H, P, True).Q is None
        result = pt_to_pseudo(P, H)
        assert result.target_kind_satisfied and result.hermitian and result.involutory and result.note is None
        np.testing.assert_allclose(result.Q, P, rtol=0, atol=1e-15)
        np.testing.assert_allclose(result.witness.conj() @ P, result.Q, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("broken", [False, True])
    def test_near_coincident_direct_sums_never_say_none(self, broken):
        """Direct sums in real orthogonal frames hold a Hermitian involution
        by construction; with eigenvalues of the two blocks 1e-10 to 1e-6
        apart, whose eigenvectors rounding can mix, the answer is that
        involution or "not found", never "none exists"."""
        rng = np.random.default_rng(7 + broken)
        for gap in np.geomspace(1e-10, 1e-6, 5):
            for _ in range(3):
                H, P, Q = pt2_direct_sum(rng, gap, broken)
                assert np.abs(Q @ Q - np.eye(4)).max() < 1e-12 and np.abs(Q - Q.conj().T).max() < 1e-12
                assert np.abs(Q @ H - H.conj().T @ Q).max() < 1e-12
                result = pt_to_pseudo(P, H)
                assert result.note != NONE_EXISTS
                assert result.Q is None or result.target_kind_satisfied

    def test_near_coincident_pseudo_orthogonal_frames_never_say_none(self):
        """S diag(lam) inv(S) with S real and E-orthogonal (S^T E S = E, E =
        diag(1, -1, 1, -1)) is real, so PT-symmetric under 1, and E is a
        Hermitian involution for it.  Its eigenvectors are not orthogonal,
        so when two eigenvalues are 1e-10 to 1e-6 apart, rounding mixes
        eigenvectors inside one tree of the closed form: the eigenvector
        sensitivity eps ||H|| kappa / gap must keep the answer from "none
        exists" (without it 11 of these 20 draws said so)."""
        E = np.diag([1.0, -1.0, 1.0, -1.0])
        rng = np.random.default_rng(5)
        for gap in np.geomspace(1e-10, 1e-6, 5):
            for _ in range(4):
                W = rng.normal(size=(4, 4))
                S = matrix_exponential(0.4 * E @ (W - W.T)).real
                values = rng.permutation(4) + rng.uniform(-0.2, 0.2, 4)
                values[1] = values[0] + gap
                H = (S @ np.diag(values) @ np.linalg.inv(S)).astype(complex)
                assert np.abs(E @ H @ E - H.conj().T).max() < 1e-12
                result = pt_to_pseudo(np.eye(4), H)
                assert result.note != NONE_EXISTS
                assert result.Q is None or result.target_kind_satisfied


class TestPseudoToPt:
    def test_base_catalog_operator_recovered(self):
        p = cat.Pt2Params(e=0.1, gamma=2.0, rho=1.0, delta=0.8)
        H = cat.pseudo2_hamiltonian(p)
        result = pseudo_to_pt(PSEUDO_P0, H)
        assert result.involutory and result.target_kind_satisfied
        expected = cat.cross_operators(cat.CrossCase.PT_FOR_PSEUDO_BASE, p)
        assert min(np.abs(result.Q - expected).max(), np.abs(result.Q + expected).max()) < 1e-10

    def test_hermitian_diagonal_gets_identity(self):
        result = pseudo_to_pt(np.eye(2), np.diag([1.5, -0.25]).astype(complex))
        np.testing.assert_array_equal(result.Q, np.eye(2))
        assert result.target_kind_satisfied

    def test_degenerate_normalizer_reported(self):
        # gamma^2 = rho^2 cos^2(delta): the candidate squares to zero
        p = cat.Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=np.pi / 3)
        H = cat.pseudo2_hamiltonian(p)
        result = pseudo_to_pt(PSEUDO_P0, H)
        assert not result.target_kind_satisfied
        assert result.degenerate

    def test_found_parities_are_valid(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 100:
            p = cat.Pt2Params(e=rng.normal(), gamma=rng.normal() * 2, rho=rng.normal(),
                              delta=rng.uniform(-np.pi, np.pi))
            if p.gamma ** 2 - (p.rho * np.cos(p.delta)) ** 2 < 1e-3:
                continue
            H = cat.pseudo2_hamiltonian(p)
            result = pseudo_to_pt(PSEUDO_P0, H)
            assert result.involutory and result.target_kind_satisfied
            assert verify_involution(result.Q, InvolutionKind.REAL_INVOLUTION).ok
            assert check_symmetry(SymmetryKind.PT, result.Q, H).holds
            done += 1

    def test_requires_source_symmetry(self):
        with pytest.raises(ContractError):
            pseudo_to_pt(PSEUDO_P0, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("a", [0.3 + 0.7j, -1.0 + 0.2j, 2.0 - 3.0j, 1j])
    def test_broken_phase_pair_gets_sigma1(self, a):
        """diag(a, conj(a)) under sigma1: the family {[[0, x], [y, 0]]} only
        squares to multiples of 1 and its basis rows are nilpotent, so the
        closed-form row decides it: sigma1 up to sign, whatever else ran."""
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        result = pseudo_to_pt(sigma1, np.diag([a, np.conj(a)]))
        assert result.target_kind_satisfied
        assert min(np.abs(result.Q - sigma1).max(), np.abs(result.Q + sigma1).max()) < 1e-12
        assert np.linalg.cond(result.Q) == pytest.approx(1.0, abs=1e-12)


class TestGenPtToPseudo:
    def test_real_symmetric_trivial(self):
        """A real symmetric H under the identity core is PT-symmetric under
        the identity parity, and conj(1) = 1 makes the two conversions one
        call: every field byte-equal."""
        H = np.array([[1.0, 2.0], [2.0, -0.5]], dtype=complex)
        result = gen_pt_to_pseudo(np.eye(2), H)
        assert result.target_kind_satisfied
        assert_bytes_equal(result, pt_to_pseudo(np.eye(2), H))

    def test_agrees_with_pt_route_in_2x2(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 25:
            p = cat.Pt2Params(e=rng.normal(), gamma=rng.normal() * 2, rho=rng.normal(),
                              delta=rng.uniform(-np.pi, np.pi))
            if abs(p.gamma) < 0.3 or abs(p.gamma ** 2 - p.rho ** 2) < 1e-3:
                continue
            H = cat.pt2_hamiltonian(p)
            core = InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=SIGMA3)
            via_pt = pt_to_pseudo(SIGMA3, H)
            via_gen = gen_pt_to_pseudo(core, H)
            assert via_gen.target_kind_satisfied
            gap = min(np.abs(via_pt.Q - via_gen.Q).max(), np.abs(via_pt.Q + via_gen.Q).max())
            assert gap < 1e-8
            done += 1

    def test_witness_satisfies_unit_constraint(self):
        """The witness A is a transpose witness of H, and Q = conj(A core)."""
        p = cat.Pt2Params(e=0.4, gamma=1.2, rho=0.5, delta=0.9)
        H = cat.pt2_hamiltonian(p)
        result = gen_pt_to_pseudo(SIGMA3_CORE, H)
        A = result.witness
        assert result.target_kind_satisfied
        np.testing.assert_allclose(result.Q, (A @ SIGMA3).conj(), rtol=0, atol=1e-15)
        assert witness_residual(A, H) < 1e-8

    def test_diag_phase_flags_reported(self):
        from ptlab.symmetry import DiagPhaseGenPtParams, construct_gen_pt_diag, gen_pt_diag_operator
        rng = np.random.default_rng(19)
        p = DiagPhaseGenPtParams(phases=[0.7, -0.4], r=rng.normal(size=(2, 2)))
        H = construct_gen_pt_diag(p)
        result = gen_pt_to_pseudo(gen_pt_diag_operator(p.phases), H)
        assert isinstance(result, ConversionResult)
        assert all(np.isfinite(result.residuals)) or result.Q is None

    def test_empty_constraint_set_is_reported(self):
        # generic self-adjoint N = 3 with the core find_gen_pt_operator builds:
        # the closed form proves that no Hermitian involution exists
        from ptlab.symmetry import (DiagMetricSelfAdjointParams,
                                    construct_self_adjoint_from_diag_metric, find_gen_pt_operator)
        rng = np.random.default_rng(23)
        p = DiagMetricSelfAdjointParams(omegas=[1.0, 3.0, 0.7],
                                        a=rng.normal(size=(3, 3)), b=rng.normal(size=(3, 3)))
        H = construct_self_adjoint_from_diag_metric(p)
        core = find_gen_pt_operator(H)
        result = gen_pt_to_pseudo(core, H)
        assert result.Q is None
        assert result.note == NONE_EXISTS

    def test_requires_source_symmetry(self):
        with pytest.raises(ContractError):
            gen_pt_to_pseudo(np.eye(2), np.diag([1j, 0.0]))


def pt2_params(rng):
    while True:
        p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                          delta=rng.uniform(-np.pi, np.pi))
        if abs(p.gamma) >= 0.15 and abs(p.gamma ** 2 - p.rho ** 2) >= 1e-3:
            return p


def known_pt_matrix(rng, n, pairs=None):
    """Simple real eigenvalues and conjugate pairs (by default a random number
    of them) in a real frame, moved by diag(1, .., 1, i, .., i) into a
    PT-symmetric matrix under the parity diag(1_m, -1_(n-m)), m = n // 2."""
    pairs = int(rng.integers(0, n // 2 + 1)) if pairs is None else pairs
    D = np.diag(rng.permutation(np.arange(n) - (n - 1) / 2.0) + rng.uniform(-0.25, 0.25, n))
    for k in range(pairs):
        b = rng.uniform(0.5, 1.5)
        D[2 * k, 2 * k + 1], D[2 * k + 1, 2 * k] = b, -b
        D[2 * k + 1, 2 * k + 1] = D[2 * k, 2 * k]
    S = np.linalg.qr(rng.normal(size=(n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, n))
    v = np.concatenate([np.ones(n // 2), 1j * np.ones(n - n // 2)])
    return (S @ D @ np.linalg.inv(S)) * (v[:, None] / v[None, :])


def screen_draws(kind, n, count, seed):
    """(H, source operator, PT -> pseudo?) draws of the classes the
    conversions meet: hits in the head, empty families, and misses in the
    head whose family and traceless slice each hold a product of two elements
    that is no multiple of the identity, where the closed-form rows miss too;
    derogatory real matrices (J2 blocks at one eigenvalue, P = 1) give the
    long families of those misses.
    A degenerate family and a hit in the closed-form rows (which no natural
    draw tried reaches) are built by hand below."""
    rng = np.random.default_rng(seed)
    m = n // 2
    parity = make_diagonal_parity(m, n - m)
    for _ in range(count):
        if kind == "pt2":
            yield cat.pt2_hamiltonian(pt2_params(rng)), SIGMA3, True
        elif kind == "pt2_chart":
            p = dataclasses.replace(pt2_params(rng), theta=rng.uniform(-np.pi, np.pi), phi=rng.uniform(-1.2, 1.2))
            chart = cat.pt2_transformed(cat.Chart.ROTATION if rng.uniform() < 0.5 else cat.Chart.BOOST, p)
            yield chart.hamiltonian, chart.parity, True
        elif kind == "pseudo2":
            yield cat.pseudo2_hamiltonian(pt2_params(rng)), PSEUDO_P0, False
        elif kind == "pt_block":
            H = ptlab.construct_pt_block(ptlab.PtBlockParams(
                m=m, n=n - m, A=rng.normal(size=(m, m)), B=rng.normal(size=(m, n - m)),
                C=rng.normal(size=(n - m, m)), D=rng.normal(size=(n - m, n - m))))
            yield H, parity, True
        elif kind == "known":
            yield known_pt_matrix(rng, n), parity, True
        elif kind == "pt_jordan":
            yield build_pt_jordan(m, n - m, float(rng.uniform(-2.0, 2.0)))[0], parity, True
        elif kind == "pseudo_block":
            X, Y = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in (m, n - m))
            H = ptlab.construct_pseudo_block(ptlab.PseudoBlockParams(
                m=m, n=n - m, A=X + X.conj().T, B=rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m)),
                D=Y + Y.conj().T))
            yield H, make_diagonal_parity(m, n - m, InvolutionKind.HERMITIAN_INVOLUTION), False
        elif kind == "rotated_hermitian":
            H = ptlab.construct_rotated_hermitian(ptlab.RotatedHermitianParams(
                n=n, a=rng.normal(size=(n, n)), b=rng.normal(size=(n, n))))
            yield H, make_sip(n), False
        elif kind == "derogatory":  # J2 blocks (and a J1 at odd n) at one real eigenvalue, in a real frame
            D = rng.uniform(-2.0, 2.0) * np.eye(n) + np.diag(np.arange(n - 1) % 2 == 0, 1)
            S = np.linalg.qr(rng.normal(size=(n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, n))
            yield S @ D @ np.linalg.inv(S), make_diagonal_parity(n, 0), True


SCREEN_CASES = ([("pt2", 2), ("pt2_chart", 2), ("pseudo2", 2)]
                + [(kind, n) for kind in ("pt_block", "known", "pt_jordan") for n in range(2, 7)]
                + [(kind, n) for kind in ("pseudo_block", "rotated_hermitian") for n in range(3, 7)]
                + [("derogatory", n) for n in range(4, 9)])


PARITY_CASES = ([("pt2", 2), ("pseudo2", 2)]
                + [(kind, n) for kind in ("pt_block", "pseudo_block", "rotated_hermitian", "known", "pt_jordan")
                   for n in range(2, 7)]
                + [("known", 8)])


@pytest.mark.parametrize("kind, n", PARITY_CASES)
def test_conversions_agree_with_the_kron_witness_space(kind, n, monkeypatch):
    """pt_to_pseudo and pseudo_to_pt reach the same verdicts and note on
    witness_space's cluster-frame basis as on the Kronecker oracle's basis."""
    def outcome(result):
        return (result.target_kind_satisfied, result.hermitian, result.involutory, result.degenerate, result.note)

    for H, P, to_pseudo in screen_draws(kind, n, 4, seed=3000 + 10 * n + len(kind)):
        fn = pt_to_pseudo if to_pseudo else pseudo_to_pt
        result = fn(P, H)
        with monkeypatch.context() as mp:
            mp.setattr(convert, "witness_space", kron_witness_space)
            assert outcome(result) == outcome(fn(P, H))


def test_mixed_spectrum_conversion_builds_no_kronecker_system(monkeypatch):
    """pt_to_pseudo at n = 24 on simple real eigenvalues and conjugate pairs
    hands no SVD a system with n^2 columns: a cost guard without timings."""
    n = 24
    H = known_pt_matrix(np.random.default_rng(2424), n, pairs=n // 4)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda A, *args, **kw: shapes.append(np.shape(A)) or svd(A, *args, **kw))
    pt_to_pseudo(make_diagonal_parity(n // 2, n - n // 2), H)
    assert shapes and max(shape[-1] for shape in shapes) < n * n


# the kinds whose gen_pt_to_pseudo, with the parity as the core, the golden
# hashes pin: the closed form decides every one of their draws
CLOSED_FORM_GENPT_KINDS = ("pt2", "pt2_chart", "pt_block")


def digest(result):
    """sha256 over every field of a result dataclass that its repr shows, or
    over a bare value (an array, None, an exception): arrays and tuples by
    dtype, shape and bytes, the rest by repr."""
    h = hashlib.sha256()
    if dataclasses.is_dataclass(result):
        items = [(field.name, getattr(result, field.name)) for field in dataclasses.fields(result) if field.repr]
    else:
        items = [("value", result)]
    for name, value in items:
        if isinstance(value, (np.ndarray, tuple)):
            value = np.asarray(value)
            h.update(f"{name}:{value.dtype.str}{value.shape}:".encode() + value.tobytes())
        else:
            h.update(f"{name}:{value!r}".encode())
    return h.hexdigest()


def conversion_hashes():
    """{"kind/n": [sha256, ...]} over two SCREEN_CASES draws per case: the
    conversion from each draw's source operator, then, on the
    CLOSED_FORM_GENPT_KINDS, gen_pt_to_pseudo with the parity as the core.
    Each hash covers every field of the ConversionResult (digest).  Recapture
    tests/golden/convert_hashes.json with
    json.dumps(conversion_hashes(), indent=2) + "\\n"."""
    hashes = {}
    for kind, n in SCREEN_CASES:
        row = hashes[f"{kind}/{n}"] = []
        for H, P, to_pseudo in screen_draws(kind, n, 2, seed=6000 + 10 * n + len(kind)):
            row.append(digest((pt_to_pseudo if to_pseudo else pseudo_to_pt)(P, H)))
            if kind in CLOSED_FORM_GENPT_KINDS:
                row.append(digest(gen_pt_to_pseudo(InvolutionOperator(InvolutionKind.ANTILINEAR_CORE,
                                                                      operator_matrix(P)), H)))
    return hashes


def test_conversions_match_the_golden_hashes():
    """Every field of every conversion in conversion_hashes is byte-equal to
    the capture in tests/golden/convert_hashes.json."""
    assert conversion_hashes() == json.loads((GOLDEN / "convert_hashes.json").read_text(encoding="utf-8"))


def random_draws(count_per_n=20, seed=2100):
    """count_per_n matrices at each n = 1..8, cycling through four recipes:
    a real Gaussian matrix, a complex Gaussian one, a real one in a complex
    frame (similar to a real matrix, so it has a gen-PT core), and a
    Hermitian one."""
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        for k in range(count_per_n):
            R, X = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            if k % 4 == 0:
                yield R.astype(complex)
            elif k % 4 == 1:
                yield R + 1j * X
            elif k % 4 == 2:
                S = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                yield S @ R @ np.linalg.inv(S)
            else:
                yield 0.5 * (R + 1j * X + (R + 1j * X).conj().T)


def library_hashes():
    """{"kind/n" or "random/n": [[sha256] * 5, ...]}: per draw, the digest
    of classify_spectrum, solve_metric_space, transpose_matrix,
    find_gen_pt_operator and witness_space (or of the PtlabError one
    raises), over two SCREEN_CASES draws per case and the 160 random_draws.
    Recapture tests/golden/library_hashes.json with
    json.dumps(library_hashes(), indent=2) + "\\n"."""
    def outputs(H):
        def guarded(fn):
            try:
                return fn(H)
            except ptlab.PtlabError as exc:
                return exc
        return [digest(guarded(fn)) for fn in (ptlab.classify_spectrum, ptlab.solve_metric_space,
                                               ptlab.transpose_matrix, ptlab.find_gen_pt_operator, witness_space)]

    hashes = {}
    for kind, n in SCREEN_CASES:
        hashes[f"{kind}/{n}"] = [outputs(H) for H, _, _ in screen_draws(kind, n, 2, seed=9000 + 10 * n + len(kind))]
    for H in random_draws():
        hashes.setdefault(f"random/{H.shape[0]}", []).append(outputs(H))
    return hashes


def test_library_outputs_match_the_golden_hashes():
    """The spectrum report, metric solution, transpose witness, gen-PT core
    and witness-space basis of every draw in library_hashes are byte-equal
    to the capture in tests/golden/library_hashes.json."""
    assert library_hashes() == json.loads((GOLDEN / "library_hashes.json").read_text(encoding="utf-8"))


def spy_on_generators(monkeypatch):
    """The seeds of the random generators that ptlab code builds, in call
    order."""
    seeds = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if sys._getframe(1).f_globals["__name__"].startswith("ptlab"):
            seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return seeds


class TestScreenAgainstScalarHunt:
    """The screen returns what the reference hunt returns, and no conversion
    builds a random generator."""

    @pytest.fixture(autouse=True)
    def no_generators(self, monkeypatch):
        seeds = spy_on_generators(monkeypatch)
        yield
        assert seeds == []

    @pytest.mark.parametrize("kind, n", SCREEN_CASES)
    def test_byte_equal_results(self, kind, n):
        """Byte-equal to the hunt (pt_block and known draws at n >= 3 and
        pt_jordan at n >= 5 miss the head and reach the closed-form rows),
        but where PT -> pseudo decides a simple spectrum in closed form: a
        proven miss the hunt misses too differs in its note alone; a
        closed-form involution the hunt misses (known draws whose
        eigenvector blocks are orthogonal) is certified; and on one tree,
        where the involution is unique up to sign and the screen is
        skipped, the hunt's hit is the same Q to rounding, with every
        verdict field equal."""
        verdicts = ("hermitian", "involutory", "target_kind_satisfied", "degenerate", "note")
        for H, P, to_pseudo in screen_draws(kind, n, 4, seed=1000 * n + len(kind)):
            fn = pt_to_pseudo if to_pseudo else pseudo_to_pt
            result, reference = fn(P, H), reference_convert(H, P, to_pseudo)
            _, one_tree = convert._closed_form_involution(np.asarray(H, dtype=complex), frobenius(H),
                                                          DEFAULT_TOL) if to_pseudo else (None, False)
            if reference.Q is None and result.note == NONE_EXISTS:
                result = dataclasses.replace(result, note=reference.note)
            elif reference.Q is None and result.Q is not None:
                assert to_pseudo and result.target_kind_satisfied and result.note is None
                continue
            elif one_tree and result.target_kind_satisfied:
                assert all(getattr(result, f) == getattr(reference, f) for f in verdicts) and result.note is None
                np.testing.assert_allclose(result.Q, reference.Q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(result.witness, reference.witness, rtol=0, atol=1e-12)
                continue
            assert_bytes_equal(result, reference)

    def test_one_tree_hit_builds_no_witness_space(self, monkeypatch):
        """A pt2 PT -> pseudo hit is the closed form's unique involution: no
        witness space or nullspace is computed.  A pt_jordan draw at n = 5,
        a defective spectrum, still takes the screen.  A cost guard without
        timings."""
        calls = []

        def spy(name):
            fn = getattr(convert, name)
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("witness_space", "rank_and_nullspace"):
            monkeypatch.setattr(convert, name, spy(name))
        for H, P, _ in screen_draws("pt2", 2, 4, seed=2026):
            assert pt_to_pseudo(P, H).target_kind_satisfied
        assert calls == []
        H, P, _ = next(screen_draws("pt_jordan", 5, 1, seed=5005))
        assert pt_to_pseudo(P, H).Q is None
        assert calls.count("witness_space") == 1

    def test_identity_row_comes_first(self):
        """PT -> pseudo on H = 1/2 with P = 1: a repeated eigenvalue, so the
        closed form cannot decide it and the screen runs.  Every matrix
        intertwines, the family of Hermitian matrices holds many
        involutions, and the identity, screened before the family basis, is
        the one returned (a family basis row first would return an
        involution a distance 1 from it)."""
        H = 0.5 * np.eye(2, dtype=complex)
        result = pt_to_pseudo(np.eye(2), H)
        np.testing.assert_array_equal(result.Q, np.eye(2))
        assert result.target_kind_satisfied

    def test_degenerate_family(self):
        p = cat.Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=np.pi / 3)
        H = cat.pseudo2_hamiltonian(p)
        result = pseudo_to_pt(PSEUDO_P0, H)
        assert result.degenerate
        assert_bytes_equal(result, reference_convert(H, PSEUDO_P0, False))

    def test_outcome_mix(self):
        """The draws above reach a hit in the head; a miss in the head and in
        the closed-form rows on a defective spectrum, which PT -> pseudo
        cannot decide in closed form; on simple spectra a proven miss, and
        a Hermitian involution the screen misses (a known draw, whose
        eigenvector blocks are orthogonal) built in closed form; and an
        empty constrained family."""
        H, P, _ = next(screen_draws("pt2", 2, 1, seed=2002))
        assert pt_to_pseudo(P, H).target_kind_satisfied
        H, P, _ = next(screen_draws("pt_jordan", 5, 1, seed=5005))
        result = pt_to_pseudo(P, H)
        assert result.Q is None and not result.degenerate
        assert result.note == "no involutory element found in the constrained family within budget"
        H, P, _ = next(screen_draws("pt_block", 4, 1, seed=4004))
        assert pt_to_pseudo(P, H).note == NONE_EXISTS
        H, P, _ = next(screen_draws("known", 5, 1, seed=5005))
        assert reference_convert(H, P, True).Q is None and pt_to_pseudo(P, H).target_kind_satisfied
        for kind in ("pseudo_block", "rotated_hermitian"):
            H, P, _ = next(screen_draws(kind, 4, 1, seed=4004))
            assert pseudo_to_pt(P, H).note == "constrained family is empty"

    def test_hit_in_the_closed_form_rows(self, monkeypatch):
        """A real family spanned by u = 0.6 sigma1 + i sigma2 and
        v = 0.6 sigma3 + i sigma2: every element squares to a multiple of the
        identity, -0.64 for u and v, and u v + v u = -2, so the head misses
        and the top eigenvector of C, along u - v, gives (sigma3 - sigma1) /
        sqrt(2) up to sign, with condition number 1."""
        u = np.array([[0.0, 1.6], [-0.4, 0.0]], dtype=complex)
        v = np.array([[0.6, 1.0], [-1.0, -0.6]], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: np.array([u, v]))
        H = 0.5 * np.eye(2, dtype=complex)  # every matrix intertwines
        result = pseudo_to_pt(np.eye(2), H)
        assert result.target_kind_satisfied
        expected = (SIGMA3 - np.array([[0.0, 1.0], [1.0, 0.0]])) / np.sqrt(2)
        assert min(np.abs(result.Q - expected).max(), np.abs(result.Q + expected).max()) < 1e-12
        assert np.linalg.cond(result.Q) == pytest.approx(1.0, abs=1e-12)
        assert_bytes_equal(result, reference_convert(H, np.eye(2), False))

    def test_clifford_family_of_negative_squares_is_degenerate(self, monkeypatch):
        """span{J (x) 1, sigma1 (x) J} at n = 4, J = i sigma2: the two
        elements anticommute and square to -1, so every element squares to a
        negative multiple of 1 and no real rescaling gives an involution."""
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        basis = np.array([np.kron(J, np.eye(2)), np.kron([[0.0, 1.0], [1.0, 0.0]], J)], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: basis)
        H = 0.5 * np.eye(4, dtype=complex)
        result = pseudo_to_pt(np.eye(4), H)
        assert result.Q is None and result.degenerate
        assert_bytes_equal(result, reference_convert(H, np.eye(4), False))

    def test_intertwining_cut(self, monkeypatch):
        """A family spanned by sigma1 and sigma3, whose elements all square to
        multiples of the identity, where only sigma1 commutes with
        H = sigma1 / 2: head candidates before sigma1 fail the intertwining
        cut alone."""
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: np.array([sigma1, SIGMA3]))
        H = 0.5 * sigma1
        result = pseudo_to_pt(np.eye(2), H)
        np.testing.assert_array_equal(result.Q, sigma1)
        assert_bytes_equal(result, reference_convert(H, np.eye(2), False))

    def test_hit_in_the_traceless_slice(self, monkeypatch):
        """The family spanned by 1 and sigma3 + 1/2, with H = sigma2 / 2:
        the identity (row 0) does not commute past H, the family basis (rows
        1 and 2) holds no involution, and the traceless slice (row 3,
        sigma3 up to sign whatever basis the SVD picks) hits.  The slice is
        built (a second rank_and_nullspace call) only after those rows miss:
        with H = sigma3 / 2 the identity hits and it is not built."""
        sigma2 = np.array([[0.0, -1j], [1j, 0.0]])
        basis = np.array([np.eye(2), SIGMA3 + 0.5 * np.eye(2)], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: basis)
        systems = []
        rank_and_nullspace = convert.rank_and_nullspace
        monkeypatch.setattr(convert, "rank_and_nullspace",
                            lambda A: systems.append(A.shape) or rank_and_nullspace(A))
        np.testing.assert_allclose(pseudo_to_pt(np.eye(2), 0.5 * SIGMA3).Q, np.eye(2), rtol=0, atol=1e-15)
        assert len(systems) == 1
        systems.clear()
        H = 0.5 * sigma2
        result = pseudo_to_pt(np.eye(2), H)
        np.testing.assert_allclose(np.abs(result.Q), np.eye(2), rtol=0, atol=1e-15)
        assert systems[1:] == [(1, 2)]  # the trace row of the two-element family
        assert_bytes_equal(result, reference_convert(H, np.eye(2), False))

    def test_traceless_row_among_the_single_rows(self, monkeypatch):
        """A two-element family without the identity, spanned by
        sigma1 + 1/2 and sigma3 + 1/2, with H = (sigma1 - sigma3) / 2: the
        basis rows miss, and the traceless row, built only then, is the
        third row and hits, as pt2 conversions do; no stack of rows is
        measured."""
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        basis = np.array([sigma1 + 0.5 * np.eye(2), SIGMA3 + 0.5 * np.eye(2)])
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: basis)
        stacks = []
        norms = convert.frobenius_norms
        monkeypatch.setattr(convert, "frobenius_norms", lambda S: stacks.append(len(S)) or norms(S))
        H = 0.5 * (sigma1 - SIGMA3)
        result = pseudo_to_pt(np.eye(2), H)
        np.testing.assert_allclose(result.Q, (SIGMA3 - sigma1) / np.sqrt(2), rtol=0, atol=1e-15)
        assert stacks == []
        assert_bytes_equal(result, reference_convert(H, np.eye(2), False))

    def test_vanishing_row_among_the_single_rows(self, monkeypatch):
        """A family with the nilpotent E13 among its basis rows and no other
        element squaring to a vanishing multiple of the identity (traceless
        combinations of E13 and the trace -1 element included): there is no
        hit, and `degenerate` comes from that basis row."""
        nilpotent = np.zeros((3, 3))
        nilpotent[0, 2] = 1.0
        basis = np.array([[[1, 2, -2], [-2, 1, -1], [0, -2, 2]], nilpotent,
                          [[0, 2, 1], [1, -1, 1], [-2, 0, 0]]], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: basis)
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        result = pseudo_to_pt(np.eye(3), H)
        assert result.Q is None and result.degenerate
        assert_bytes_equal(result, reference_convert(H, np.eye(3), False))

    def test_single_element_family(self, monkeypatch):
        """A one-element family whose element squares to a negative multiple
        of the identity: the first row is the whole head, every candidate is
        degenerate, and the closed-form rows, which would be multiples of
        that row, are not built."""
        u = np.array([[0.0, 1.6], [-0.4, 0.0]], dtype=complex)
        monkeypatch.setattr(convert, "witness_space", lambda M, tol: u[None])
        H = 0.5 * np.eye(2, dtype=complex)
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda C: eighs.append(C) or eigh(C))
        result = pseudo_to_pt(np.eye(2), H)
        assert result.Q is None and result.degenerate and eighs == []
        assert_bytes_equal(result, reference_convert(H, np.eye(2), False))


def _clifford_generators():
    """Pairwise anticommuting generators, real and Hermitian, at n = 2 and 4:
    every real combination of them squares to a multiple of the identity."""
    s1, s3 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    s2, J, one = np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)
    return {(True, 2): [s1, s3, J],
            (True, 4): [np.kron(s1, one), np.kron(s3, one), np.kron(J, s1), np.kron(J, s3), np.kron(J, J)],
            (False, 2): [s1, s2, s3],
            (False, 4): [np.kron(s1, one), np.kron(s2, one), np.kron(s3, s1), np.kron(s3, s2), np.kron(s3, s3)]}


CLIFFORD = _clifford_generators()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
# families whose head misses: the closed-form row hits at draw 48 and flags
# two generators that square to -1 as degenerate at draw 10
@example(True, 4, 3, "none", 1e-5, True, 48)
@example(True, 4, 3, "perturbed", 2e-3, True, 48)
@example(True, 4, 3, "extra", 1e-5, True, 48)
@example(True, 4, 2, "none", 1e-5, True, 10)
@given(st.booleans(), st.sampled_from([2, 4]), st.integers(1, 3), st.sampled_from(["none", "extra", "perturbed"]),
       st.sampled_from([1e-5, 5e-4, 2e-3, 1e-1]), st.booleans(), st.integers(0, 2 ** 16))
def test_clifford_families_byte_equal_with_the_scalar_hunt(real, n, k, change, eps, scalar_h, draw):
    """Families spanned by mixed Clifford generators (real for pseudo -> PT,
    Hermitian for PT -> pseudo, with the identity as the source operator),
    some with a random extra element or one element moved by eps: the
    screen gives what the scalar hunt gives.  An unchanged family with a
    scalar H (every element intertwines) holds an involution exactly when
    some generator squares to +1, and then the conversion finds one."""
    rng = np.random.default_rng(draw)
    gens = np.array(CLIFFORD[real, n])[rng.permutation(len(CLIFFORD[real, n]))[:k]]
    basis = np.einsum("ij,jab->iab", np.linalg.qr(rng.normal(size=(k, k)))[0], gens).astype(complex)
    R = rng.normal(size=(n, n)) + (0 if real else 1j) * rng.normal(size=(n, n))
    R = R if real else R + R.conj().T
    if change == "extra":
        basis = np.insert(basis, int(rng.integers(0, k + 1)), R / frobenius(R), axis=0)
    elif change == "perturbed":
        basis[0] += eps * R / frobenius(R)
    # every matrix intertwines with a multiple of 1, only diagonal ones with a simple real diagonal
    H = (0.5 * np.eye(n) if scalar_h else np.diag(rng.permutation(n) + rng.uniform(0.1, 0.4, n))).astype(complex)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convert, "witness_space", lambda M, tol: basis)
        # the closed form reads H's own eigenvectors, not the family given here
        mp.setattr(convert, "_closed_form_involution", lambda M, norm, tol: (None, False))
        fn = pseudo_to_pt if real else pt_to_pseudo
        result = fn(np.eye(n), H)
        assert_bytes_equal(result, reference_convert(H, np.eye(n), not real))
    if change == "none" and scalar_h:
        assert (result.Q is not None) == any(np.trace(g @ g).real > 0 for g in gens)


def spy_on_measure(monkeypatch):
    """The matrices involutions._measure is called on, in call order."""
    measured = []
    measure = involutions._measure

    def spy(A, kind, tol):
        measured.append(A)
        return measure(A, kind, tol)

    monkeypatch.setattr(involutions, "_measure", spy)
    monkeypatch.setattr(convert, "_measure", spy)
    return measured


class TestMeasureOnce:
    """A conversion judges a source operator that carries a record from that
    record, and measures the Q it returns once."""

    @pytest.mark.parametrize("kind, n, hits", [("pt2", 2, True), ("pseudo2", 2, True), ("pt_jordan", 3, True),
                                               ("pt_block", 4, False), ("pseudo_block", 4, False),
                                               ("rotated_hermitian", 3, False)])
    def test_pt_and_pseudo_sources(self, kind, n, hits, monkeypatch):
        measured = spy_on_measure(monkeypatch)
        for H, P, to_pseudo in screen_draws(kind, n, 2, seed=7000 + n):
            convert_fn = pt_to_pseudo if to_pseudo else pseudo_to_pt
            op = make_diagonal_parity(1, 1) if kind == "pt2" else P
            assert op.verification is not None
            measured.clear()
            result = convert_fn(op, H)
            assert (result.Q is not None) == hits
            assert len(measured) == hits and all(A is result.Q for A in measured)
            bare = np.array(op.matrix)
            measured.clear()
            convert_fn(bare, H)
            assert len(measured) == 1 + hits
            np.testing.assert_array_equal(measured[0], bare)

    @pytest.mark.parametrize("kind, n", [("genpt2", 2), ("genpt_diag", 2), ("pt2", 2), ("genpt_diag", 3)])
    def test_gen_pt_source(self, kind, n, monkeypatch):
        hits = n == 2  # the genpt_diag draws at n = 3 hold no Hermitian involution
        measured = spy_on_measure(monkeypatch)
        for H, K in genpt_draws(kind, n, 3, seed=8000 + n):
            core = involutions.involution_operator(operator_matrix(K), InvolutionKind.ANTILINEAR_CORE)
            assert core.verification is not None
            measured.clear()
            result = gen_pt_to_pseudo(core, H)
            assert (result.Q is not None) == hits
            assert len(measured) == hits and all(A is result.Q for A in measured)
            bare = np.array(core.matrix)
            measured.clear()
            gen_pt_to_pseudo(bare, H)
            assert len(measured) == 1 + hits
            np.testing.assert_array_equal(measured[0], bare)


def genpt_draws(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if kind == "genpt2":
            K = cat.genpt2_operator(cat.GenPt2Params(theta=rng.uniform(-np.pi, np.pi), delta=rng.uniform(-np.pi, np.pi),
                                                     phi=rng.uniform(-1.0, 1.0), alpha=rng.uniform(-np.pi, np.pi)))
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            yield A + K @ A.conj() @ K.conj(), K  # K conj(H) = H K because K conj(K) = 1
        elif kind == "genpt_diag":
            phases = rng.uniform(-np.pi, np.pi, n)
            H = ptlab.construct_gen_pt_diag(ptlab.DiagPhaseGenPtParams(phases=phases, r=rng.normal(size=(n, n))))
            yield H, ptlab.gen_pt_diag_operator(phases)
        elif kind == "pt2":
            yield cat.pt2_hamiltonian(pt2_params(rng)), SIGMA3_CORE


def near_exceptional_genpt2(rng, distance):
    """A genpt2 matrix at distance `distance` (in a unit direction) from a
    traceless exceptional point of unit norm, shifted by a real multiple of
    the identity, and its core.  The traceless part of a generalized-PT 2x2
    matrix has a real determinant, so the exceptional points sit on the
    zero set of that quadratic form between a positive and a negative
    value."""
    K = cat.genpt2_operator(cat.GenPt2Params(theta=rng.uniform(-np.pi, np.pi), delta=rng.uniform(-np.pi, np.pi),
                                             phi=rng.uniform(-1.0, 1.0), alpha=rng.uniform(-np.pi, np.pi)))

    def traceless_draw():
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        X = A + K @ A.conj() @ K.conj()
        return X - np.trace(X) / 2 * np.eye(2)

    while True:
        X, Y = traceless_draw(), traceless_draw()
        dx, dy = np.linalg.det(X).real, np.linalg.det(Y).real
        if dx * dy < 0:
            break
    b = np.linalg.det(X + Y).real - dx - dy  # det(X + t Y) = dx + b t + dy t^2
    t = (-b + np.sqrt(b * b - 4 * dx * dy)) / (2 * dy)
    E = (X + t * Y) / frobenius(X + t * Y)
    return E + distance * Y / frobenius(Y) + rng.normal() * np.eye(2), K


def near_coincident(rng, n, gap, real):
    """T diag(mu) inv(T) with mu_1 = mu_0 + gap, T a complex frame of
    condition number 10; real: mu real but for one conjugate pair at n >= 4,
    so the matrix is similar to a real one."""
    values = rng.uniform(-50, 50, n) + (0j if real else 1j * rng.uniform(-50, 50, n))
    if real and n >= 4:
        values[2:4] = rng.uniform(-50, 50) + np.array([1j, -1j]) * rng.uniform(5, 15)
    values[1] = values[0] + gap * (1 if real else np.exp(1j * rng.uniform(0, 2 * np.pi)))
    left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    T = left @ np.diag(np.r_[1.0, 10.0, rng.uniform(1.0, 10.0, n - 2)]) @ right
    return T @ np.diag(values) @ np.linalg.inv(T)


class TestGenPtOnConjugateCore:
    """gen_pt_to_pseudo decides the family Q = conj(A core) over every
    transpose witness A on the PT -> pseudo path, conj(core) as the parity."""

    def test_genpt2_draws_convert_or_say_none_exists(self):
        """Real-spectrum genpt2 draws convert or say "none exists"; a miss of
        any draw has Q None and a note."""
        real = 0
        for H, K in genpt_draws("genpt2", 2, 200, seed=5):
            result = gen_pt_to_pseudo(K, H)
            if result.target_kind_satisfied:
                assert result.hermitian and result.involutory and result.note is None
            else:
                assert result.Q is None and result.note is not None
            if np.all(np.abs(np.linalg.eigvals(H).imag) <= 1e-9 * frobenius(H)):
                real += 1
                assert result.target_kind_satisfied or result.note == NONE_EXISTS
        assert real > 100

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hermitian_input_certifies(self, n):
        """A Hermitian H with the core find_gen_pt_operator builds for it:
        the identity is a Hermitian involution in the family."""
        from ptlab.symmetry import find_gen_pt_operator
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = 0.5 * (X + X.conj().T)
            result = gen_pt_to_pseudo(find_gen_pt_operator(H), H)
            assert result.target_kind_satisfied and result.note is None

    def test_near_coincident_draw_stays_a_hit(self):
        """Two real eigenvalues 1e-10 apart in a frame of condition number 10:
        the closed form's rounding bound exceeds 2 there, and the candidate,
        which the caller certifies anyway, is the hit."""
        from ptlab.symmetry import find_gen_pt_operator
        H = near_coincident(np.random.default_rng(101), 2, 1e-10, True)
        result = gen_pt_to_pseudo(find_gen_pt_operator(H), H)
        assert result.target_kind_satisfied and result.note is None

    @pytest.mark.parametrize("distance", [1e-6, 1e-7])
    def test_near_exceptional_points_never_say_none(self, distance):
        """Near an exceptional point (eigenvector condition number 1e3 to
        1e4) rounding could explain a miss: the answer is a certified Q or
        "not found", never "none exists"."""
        rng = np.random.default_rng(int(round(-np.log10(distance))))
        for _ in range(3):
            H, K = near_exceptional_genpt2(rng, distance)
            s = np.linalg.svd(np.linalg.eig(H.T)[1], compute_uv=False)
            assert s[0] / s[-1] > 500
            result = gen_pt_to_pseudo(K, H)
            assert result.note != NONE_EXISTS
            assert result.Q is None or result.target_kind_satisfied

    def test_conversions_leave_scipy_optimize_unimported(self):
        """Simple spectra, a Jordan block and a repeated eigenvalue through
        the conversions: no scipy.optimize."""
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from ptlab import catalog2x2 as cat
            from ptlab.convert import gen_pt_to_pseudo, pt_to_pseudo
            K = cat.genpt2_operator(cat.GenPt2Params(theta=0.3, delta=-1.1, phi=0.4, alpha=0.9))
            A = np.array([[0.3 + 1.0j, -1.2], [0.7, 0.5 - 0.4j]])
            assert gen_pt_to_pseudo(K, A + K @ A.conj() @ K.conj()).Q is not None
            H = cat.pt2_hamiltonian(cat.Pt2Params(e=0.2, gamma=1.7, rho=0.9, delta=0.8))
            assert pt_to_pseudo(np.diag([1.0, -1.0]), H).target_kind_satisfied
            assert gen_pt_to_pseudo(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])).target_kind_satisfied
            F = np.array([[2.0, 1.0, 0.0], [0.5, 1.0, -1.0], [1.0, 0.0, 1.0]])
            gen_pt_to_pseudo(np.eye(3), F @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(F))
            assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
        """)
        src = os.path.dirname(os.path.dirname(ptlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
