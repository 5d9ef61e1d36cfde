"""Membership checks, canonical constructors, and the operator finder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab import involutions, symmetry
from ptlab.errors import ContractError
from ptlab.involutions import InvolutionKind, InvolutionOperator, make_diagonal_parity, make_sip
from ptlab.numerics import DEFAULT_TOL, ToleranceConfig
from ptlab.spectra import jordan_block
from ptlab.symmetry import (
    DiagMetricSelfAdjointParams,
    DiagPhaseGenPtParams,
    PseudoBlockParams,
    PtBlockParams,
    RotatedHermitianParams,
    SymmetryKind,
    check_symmetry,
    construct_gen_pt_diag,
    construct_pseudo_block,
    construct_pt_block,
    construct_rotated_hermitian,
    construct_self_adjoint_from_diag_metric,
    find_gen_pt_operator,
    gen_pt_diag_operator,
)

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def random_pseudo_hamiltonian(rng, e=None, gamma=None, rho=None, delta=None):
    e = rng.normal() if e is None else e
    gamma = rng.normal() if gamma is None else gamma
    rho = rng.normal() if rho is None else rho
    delta = rng.uniform(-np.pi, np.pi) if delta is None else delta
    return np.array([[e + gamma, rho * np.exp(1j * delta)],
                     [-rho * np.exp(-1j * delta), e - gamma]])


class TestCheckSymmetry:
    def test_block_form_is_pt(self):
        H = np.array([[1.0, 1j], [1j, 2.0]])
        assert check_symmetry(SymmetryKind.PT, SIGMA3, H).holds

    def test_imaginary_diagonal_is_not_pt(self):
        H = np.diag([1j, 0.0])
        report = check_symmetry(SymmetryKind.PT, SIGMA3, H)
        assert not report.holds and report.residual > 0.1

    def test_pseudo_family_holds_for_any_parameters(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            H = random_pseudo_hamiltonian(rng)
            assert check_symmetry(SymmetryKind.PSEUDO, SIGMA3, H).holds

    def test_real_matrix_is_gen_pt_for_identity(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(4, 4))
        op = InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=np.eye(4, dtype=complex))
        assert check_symmetry(SymmetryKind.GEN_PT, op, H).holds

    def test_kind_operator_mismatch_raises(self):
        H = np.array([[1.0, 1j], [1j, 2.0]])
        with pytest.raises(ContractError):
            check_symmetry(SymmetryKind.PT, 1j * SIGMA3, H)

    def test_zero_matrix_is_symmetric(self):
        assert check_symmetry(SymmetryKind.PT, SIGMA3, np.zeros((2, 2))).holds


class TestPtBlock:
    def test_1x1_blocks(self):
        p = PtBlockParams(m=1, n=1, A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[2.0]])
        np.testing.assert_array_equal(construct_pt_block(p), np.array([[1, 1j], [1j, 2]]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = PtBlockParams(m=m, n=n, A=rng.normal(size=(m, m)), B=rng.normal(size=(m, n)),
                              C=rng.normal(size=(n, m)), D=rng.normal(size=(n, n)))
            H = construct_pt_block(p)
            report = check_symmetry(SymmetryKind.PT, make_diagonal_parity(m, n), H)
            assert report.holds and report.residual == 0.0

    def test_jordan_coupling_blocks(self):
        m, n, lam = 2, 2, 1.5
        B = np.zeros((m, n))
        B[m - 1, 0] = 1.0
        p = PtBlockParams(m=m, n=n, A=jordan_block(lam, m).real, B=B,
                          C=np.zeros((n, m)), D=jordan_block(lam, n).real)
        H = construct_pt_block(p)
        T = np.diag([1.0, 1.0, 1j, 1j])
        np.testing.assert_allclose(T @ H @ np.linalg.inv(T), jordan_block(lam, m + n), atol=1e-14)

    def test_zero_blocks(self):
        p = PtBlockParams(m=1, n=1, A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]])
        H = construct_pt_block(p)
        assert not np.any(H)
        assert check_symmetry(SymmetryKind.PT, SIGMA3, H).holds


class TestPseudoBlock:
    def test_1x1_blocks(self):
        p = PseudoBlockParams(m=1, n=1, A=[[2.0]], B=[[1.0]], D=[[0.0]])
        np.testing.assert_array_equal(construct_pseudo_block(p), np.array([[2, 1j], [1j, 0]]))

    def test_vanishing_coupling_is_hermitian(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = A + A.conj().T
        D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        D = D + D.conj().T
        H = construct_pseudo_block(PseudoBlockParams(m=2, n=2, A=A, B=np.zeros((2, 2)), D=D))
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_residual_for_random_2_1(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = A + A.conj().T
        B = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        D = np.array([[rng.normal()]], dtype=complex)
        H = construct_pseudo_block(PseudoBlockParams(m=2, n=1, A=A, B=B, D=D))
        P = make_diagonal_parity(2, 1, InvolutionKind.HERMITIAN_INVOLUTION).matrix
        assert np.linalg.norm(P @ H - H.conj().T @ P) < 1e-12

    def test_non_hermitian_block_rejected(self):
        p = PseudoBlockParams(m=2, n=1, A=np.array([[0, 1], [0, 0]], dtype=complex),
                              B=np.zeros((2, 1)), D=np.zeros((1, 1)))
        with pytest.raises(ContractError):
            construct_pseudo_block(p)


class TestRotatedHermitian:
    def test_jordan_block_data(self):
        lam = 0.8
        a = np.zeros((2, 2))
        a[0, 0] = lam
        a[0, 1] = 1.0
        H = construct_rotated_hermitian(RotatedHermitianParams(n=2, a=a, b=np.zeros((2, 2))))
        np.testing.assert_array_equal(H, jordan_block(lam, 2))

    def test_jordan_block_data_n4(self):
        lam = -1.2
        a = np.zeros((4, 4))
        for i in range(2):
            a[i, i] = lam
            a[i, i + 1] = 1.0
        H = construct_rotated_hermitian(RotatedHermitianParams(n=4, a=a, b=np.zeros((4, 4))))
        np.testing.assert_array_equal(H, jordan_block(lam, 4))

    def test_zero_data(self):
        H = construct_rotated_hermitian(RotatedHermitianParams(n=3, a=np.zeros((3, 3)), b=np.zeros((3, 3))))
        assert not np.any(H)

    def test_random_instances_are_sip_pseudo_hermitian(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            p = RotatedHermitianParams(n=n, a=rng.normal(size=(n, n)), b=rng.normal(size=(n, n)))
            H = construct_rotated_hermitian(p)
            S = make_sip(n).matrix
            assert np.linalg.norm(S @ H - H.conj().T @ S) < 1e-12


class TestGenPtDiag:
    def test_zero_phases_gives_real_matrix(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=(3, 3))
        H = construct_gen_pt_diag(DiagPhaseGenPtParams(phases=np.zeros(3), r=r))
        np.testing.assert_array_equal(H, r)

    def test_half_pi_phases(self):
        p = DiagPhaseGenPtParams(phases=[np.pi, 0.0], r=np.array([[0.0, 1.0], [1.0, 0.0]]))
        H = construct_gen_pt_diag(p)
        np.testing.assert_allclose(H[0, 1], 1j, atol=1e-15)
        np.testing.assert_allclose(H[1, 0], -1j, atol=1e-15)

    def test_one_sided_zero_allowed(self):
        p = DiagPhaseGenPtParams(phases=[0.4, -0.2], r=np.array([[1.0, 0.0], [2.0, -1.0]]))
        H = construct_gen_pt_diag(p)
        core = gen_pt_diag_operator(p.phases)
        assert H[0, 1] == 0 and H[1, 0] != 0
        assert check_symmetry(SymmetryKind.GEN_PT, core, H).holds

    def test_commutes_with_phase_core(self):
        rng = np.random.default_rng(17)
        for N in (2, 3, 4):
            p = DiagPhaseGenPtParams(phases=rng.uniform(-np.pi, np.pi, N), r=rng.normal(size=(N, N)))
            H = construct_gen_pt_diag(p)
            core = gen_pt_diag_operator(p.phases)
            assert np.linalg.norm(core @ H.conj() - H @ core) < 1e-12


def reference_self_adjoint_from_diag_metric(p):
    """The entry-by-entry loop the vectorized constructor replaced."""
    w = p.omegas
    N = w.size
    H = np.zeros((N, N), dtype=complex)
    for i in range(N):
        H[i, i] = p.a[i, i]
        for j in range(i + 1, N):
            z = p.a[i, j] + 1j * p.b[i, j]
            H[i, j] = 2.0 * w[j] / (w[i] + w[j]) * z
            H[j, i] = 2.0 * w[i] / (w[i] + w[j]) * z.conj()
    return H


class TestDiagMetricSelfAdjoint:
    def test_equal_weights_is_hermitian(self):
        rng = np.random.default_rng(19)
        p = DiagMetricSelfAdjointParams(omegas=np.full(3, 1.7), a=rng.normal(size=(3, 3)), b=rng.normal(size=(3, 3)))
        H = construct_self_adjoint_from_diag_metric(p)
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_mirror_ratio(self):
        p = DiagMetricSelfAdjointParams(omegas=[1.0, 3.0],
                                        a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        b=np.zeros((2, 2)))
        H = construct_self_adjoint_from_diag_metric(p)
        assert H[0, 1] == pytest.approx(1.5)
        assert H[1, 0] == pytest.approx(0.5)
        assert abs(H[0, 1] / H[1, 0]) == pytest.approx(3.0)

    def test_diagonal_only_is_real_diagonal(self):
        p = DiagMetricSelfAdjointParams(omegas=[1.0, 2.0], a=np.diag([0.3, -0.7]), b=np.zeros((2, 2)))
        H = construct_self_adjoint_from_diag_metric(p)
        np.testing.assert_array_equal(H, np.diag([0.3, -0.7]).astype(complex))

    def test_self_adjointness_is_structural(self):
        rng = np.random.default_rng(23)
        for N in (2, 3, 4, 5):
            p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N),
                                            a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
            H = construct_self_adjoint_from_diag_metric(p)
            W = p.metric
            assert np.linalg.norm(W @ H - H.conj().T @ W) < 1e-13

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_bit_equal_to_entry_loop(self, signed_zeros):
        """Signbits included: with a and b drawn from {+-0.0, +-1.5} every
        entry's real and imaginary zeros keep the loop's sign."""
        rng = np.random.default_rng(31)
        for N in range(1, 9):
            for _ in range(20):
                if signed_zeros:
                    a, b = rng.choice([0.0, -0.0, 1.5, -1.5], size=(2, N, N))
                else:
                    a, b = rng.normal(size=(2, N, N))
                p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N), a=a, b=b)
                H = construct_self_adjoint_from_diag_metric(p)
                expected = reference_self_adjoint_from_diag_metric(p)
                assert np.array_equal(H.view(np.uint64), expected.view(np.uint64))

    def test_mirror_phase_property(self):
        rng = np.random.default_rng(29)
        p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, 4),
                                        a=rng.normal(size=(4, 4)), b=rng.normal(size=(4, 4)))
        H = construct_self_adjoint_from_diag_metric(p)
        for i in range(4):
            assert abs(H[i, i].imag) < 1e-14
            for j in range(i + 1, 4):
                prod = H[i, j] * H[j, i]
                assert abs(prod.imag) < 1e-12
                assert abs(H[i, j] / H[j, i]) == pytest.approx(p.omegas[j] / p.omegas[i])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ContractError):
            DiagMetricSelfAdjointParams(omegas=[1.0, -0.5], a=np.zeros((2, 2)), b=np.zeros((2, 2)))


class TestFindGenPtOperator:
    def test_real_matrix_gets_identity(self):
        rng = np.random.default_rng(31)
        H = rng.normal(size=(3, 3))
        op = find_gen_pt_operator(H)
        np.testing.assert_array_equal(op.matrix, np.eye(3))

    def test_unpaired_spectrum_gives_none(self):
        assert find_gen_pt_operator(np.diag([1j, 2j])) is None

    def test_random_self_adjoint_matrices(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            N = int(rng.integers(2, 5))
            p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N),
                                            a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
            H = construct_self_adjoint_from_diag_metric(p)
            op = find_gen_pt_operator(H)
            assert op is not None
            report = check_symmetry(SymmetryKind.GEN_PT, op, H)
            assert report.holds and report.residual < 1e-10

    def test_conjugate_pair_spectrum_is_found(self):
        # real matrix with a complex pair, then a complex similarity
        rng = np.random.default_rng(41)
        base = np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        T = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        H = T @ base @ np.linalg.inv(T)
        op = find_gen_pt_operator(H)
        assert op is not None
        assert check_symmetry(SymmetryKind.GEN_PT, op, H).holds

    @pytest.mark.parametrize("eps", [2e-8, 5e-9])
    def test_pair_inside_the_reality_cut_is_realified_as_a_pair(self, eps):
        # 1 +- i eps counts as real, yet its two eigenvectors are complex:
        # only the rotation block of the pair realifies them
        rng = np.random.default_rng(17)
        V = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = V @ np.diag([1 + 1j * eps, 1 - 1j * eps]) @ np.linalg.inv(V)
        op = find_gen_pt_operator(H)
        assert op is not None
        assert check_symmetry(SymmetryKind.GEN_PT, op, H).holds

    def test_own_jordan_construction_is_covered(self):
        from ptlab.spectra import build_pt_jordan
        H, _ = build_pt_jordan(2, 1, 0.5)
        op = find_gen_pt_operator(H)
        assert op is not None
        assert check_symmetry(SymmetryKind.GEN_PT, op, H).holds

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceConfig(rel_tol=1e-15)],
                             ids=["default", "strict"])
    def test_cores_carry_their_verification(self, monkeypatch, tol):
        """The identity, a sign-battery core and a realified core come with
        the record of their check: a later GEN_PT check measures nothing and
        gives the verdict and residuals of a check of the bare matrix."""
        from ptlab.spectra import build_pt_jordan
        rng = np.random.default_rng(41)
        base = np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        T = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        cases = {"identity": base, "battery": build_pt_jordan(2, 1, 0.5)[0],
                 "realified": T @ base @ np.linalg.inv(T)}
        measure = involutions._measure
        for name, H in cases.items():
            op = find_gen_pt_operator(H)
            diagonal = np.array_equal(op.matrix, np.diag(np.diag(op.matrix)))
            assert diagonal == (name != "realified")
            calls = []
            monkeypatch.setattr(involutions, "_measure", lambda *args: calls.append(1) or measure(*args))
            recorded = check_symmetry(SymmetryKind.GEN_PT, op, H, tol)
            assert calls == []
            bare = check_symmetry(SymmetryKind.GEN_PT, np.array(op.matrix), H, tol)
            assert calls == [1]
            monkeypatch.undo()
            assert (recorded.holds, recorded.residual, recorded.operator_residuals) == \
                (bare.holds, bare.residual, bare.operator_residuals)


def realifiable_matrix(seed, n, pairs, b_scale):
    """A non-real matrix similar to a real one: distinct real eigenvalues and
    conjugate pairs c +- i b (b down to b_scale) in a real frame of singular
    values in [0.5, 2], moved by Diag(1, .., 1, i, .., i)."""
    rng = np.random.default_rng(seed)
    D = np.diag(rng.permutation(np.arange(n) - (n - 1) / 2.0) + rng.uniform(-0.25, 0.25, n))
    for k in range(pairs):
        D[2 * k, 2 * k + 1] = b_scale * rng.uniform(1.0, 3.0)
        D[2 * k + 1, 2 * k] = -D[2 * k, 2 * k + 1]
        D[2 * k + 1, 2 * k + 1] = D[2 * k, 2 * k]
    S = np.linalg.qr(rng.normal(size=(n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, n)) @ np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.concatenate([np.ones(n // 2), 1j * np.ones(n - n // 2)])
    return (S @ D @ np.linalg.inv(S)) * (v[:, None] / v[None, :])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10), pair_share=st.floats(0.0, 1.0),
       b_scale=st.sampled_from([0.5, 1e-3, 1e-9]))
def test_realifying_columns_are_within_sqrt2_of_the_eigenvectors(seed, n, pair_share, b_scale):
    """cond(columns) <= sqrt(2) cond(V): the columns are V times a permutation
    and a block diagonal of 1s and unitary / sqrt(2) blocks, so past the
    1e-7 gate on V they are far from singular."""
    H = realifiable_matrix(seed, n, int(pair_share * (n // 2)), b_scale)
    calls = []
    build = symmetry._realifying_columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_realifying_columns", lambda V, *rest: calls.append((V, build(V, *rest))) or calls[-1][1])
        core = find_gen_pt_operator(H)
    assert core is not None and len(calls) == 1
    V, columns = calls[0]
    s_v, s_c = (np.linalg.svd(X, compute_uv=False) for X in (V, columns))
    assert s_c[0] / s_c[-1] <= np.sqrt(2) * (s_v[0] / s_v[-1]) * (1 + 1e-9)
    assert s_c[-1] > 1e-10 * s_c[0]


class TestClosureProperties:
    """Every constructor's advertised membership holds across random draws."""

    def test_pt_block_closure(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            if m + n > 5:
                continue
            p = PtBlockParams(m=m, n=n, A=rng.normal(size=(m, m)), B=rng.normal(size=(m, n)),
                              C=rng.normal(size=(n, m)), D=rng.normal(size=(n, n)))
            H = construct_pt_block(p)
            assert check_symmetry(SymmetryKind.PT, make_diagonal_parity(m, n), H).holds

    def test_pseudo_block_closure(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            if m + n > 5:
                continue
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            p = PseudoBlockParams(m=m, n=n, A=A + A.conj().T,
                                  B=rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)),
                                  D=D + D.conj().T)
            H = construct_pseudo_block(p)
            op = make_diagonal_parity(m, n, InvolutionKind.HERMITIAN_INVOLUTION)
            assert check_symmetry(SymmetryKind.PSEUDO, op, H).holds

    def test_rotated_hermitian_closure(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = RotatedHermitianParams(n=n, a=rng.normal(size=(n, n)), b=rng.normal(size=(n, n)))
            H = construct_rotated_hermitian(p)
            assert check_symmetry(SymmetryKind.PSEUDO, make_sip(n), H).holds

    def test_gen_pt_diag_closure(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            N = int(rng.integers(2, 6))
            p = DiagPhaseGenPtParams(phases=rng.uniform(-np.pi, np.pi, N), r=rng.normal(size=(N, N)))
            H = construct_gen_pt_diag(p)
            core = gen_pt_diag_operator(p.phases)
            assert check_symmetry(SymmetryKind.GEN_PT, core, H).holds

    def test_diag_metric_closure_and_finder(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            N = int(rng.integers(2, 6))
            p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N),
                                            a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
            H = construct_self_adjoint_from_diag_metric(p)
            assert find_gen_pt_operator(H) is not None


class TestTransportCovariance:
    def test_pt_under_real_similarity(self):
        rng = np.random.default_rng(67)
        p = PtBlockParams(m=1, n=1, A=[[0.4]], B=[[1.1]], C=[[-0.6]], D=[[0.9]])
        H0 = construct_pt_block(p)
        for _ in range(50):
            R = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
            P = R @ SIGMA3 @ np.linalg.inv(R)
            H = R @ H0 @ np.linalg.inv(R)
            assert check_symmetry(SymmetryKind.PT, P, H).holds

    def test_pseudo_under_unitary(self):
        rng = np.random.default_rng(71)
        H0 = random_pseudo_hamiltonian(rng)
        for _ in range(50):
            Z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            U, _ = np.linalg.qr(Z)
            P = U @ SIGMA3 @ U.conj().T
            H = U @ H0 @ U.conj().T
            assert check_symmetry(SymmetryKind.PSEUDO, P, H).holds

    def test_gen_pt_under_invertible(self):
        rng = np.random.default_rng(73)
        H0 = rng.normal(size=(3, 3))  # identity-core symmetric
        for _ in range(50):
            L = np.eye(3) + 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            L_inv = np.linalg.inv(L)
            core = L @ L_inv.conj()
            H = L @ H0 @ L_inv
            assert check_symmetry(SymmetryKind.GEN_PT, core, H).holds


class TestGenPtSpectralPairing:
    def test_eigenvalues_closed_under_conjugation(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            N = int(rng.integers(2, 5))
            p = DiagPhaseGenPtParams(phases=rng.uniform(-np.pi, np.pi, N), r=rng.normal(size=(N, N)))
            L = np.eye(N) + 0.4 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
            H = L @ construct_gen_pt_diag(p) @ np.linalg.inv(L)
            values = np.linalg.eigvals(H)
            # every eigenvalue has a conjugate partner in the multiset
            dist = np.abs(values[:, None] - values.conj()[None, :])
            assert dist.min(axis=1).max() < 1e-8 * max(1.0, np.abs(values).max())
