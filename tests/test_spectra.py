"""Spectrum classification, phase alignment, Jordan machinery, collapse scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab import spectra
from ptlab.catalog2x2 import (
    Pt2Params,
    pseudo2_family,
    pseudo2_hamiltonian,
    pseudo2_jordan_chain,
    pt2_family,
    pt2_hamiltonian,
    pt2_jordan_chain,
)
from ptlab.errors import ContractError, DimensionError
from ptlab.involutions import InvolutionKind, InvolutionOperator, make_diagonal_parity
from ptlab.numerics import DEFAULT_TOL, MACHINE_EPS, ToleranceConfig, frobenius_norms
from ptlab.spectra import (
    RealityClass,
    _cluster_single_linkage,
    _segre_staircase,
    align_pt_phases,
    build_pt_jordan,
    classify_spectra,
    classify_spectrum,
    degeneration_scan,
    jordan_block,
    jordan_chain,
)
from ptlab.symmetry import SymmetryKind, _intertwining, check_symmetry

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
PT_SYM = (SymmetryKind.PT, make_diagonal_parity(1, 1))


class TestClassifySpectrum:
    def test_unbroken_catalog_point(self):
        H = pt2_family(Pt2Params(e=0.0, gamma=2.0, rho=1.0, delta=1.1)).hamiltonian
        report = classify_spectrum(H, symmetry=PT_SYM)
        assert report.reality_class is RealityClass.ALL_REAL_DIAGONALIZABLE
        assert report.unbroken is True
        np.testing.assert_allclose(sorted(report.eigenvalues.real), [-np.sqrt(3), np.sqrt(3)], atol=1e-12)

    def test_broken_catalog_point(self):
        H = pt2_family(Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=0.0)).hamiltonian
        report = classify_spectrum(H, symmetry=PT_SYM)
        assert report.reality_class is RealityClass.CONJUGATE_PAIRS
        assert report.unbroken is False
        imag = np.sort(report.eigenvalues.imag)
        np.testing.assert_allclose(imag, [-np.sqrt(3), np.sqrt(3)], atol=1e-12)

    def test_huge_entries_keep_their_verdict(self):
        # the Frobenius scale of entries beyond 1e154 once overflowed, which
        # made every reality cut infinite and every eigenvalue "real"
        report = classify_spectrum(np.array([[0.0, 1e200], [-1e200, 0.0]]))
        assert report.reality_class is RealityClass.CONJUGATE_PAIRS
        np.testing.assert_allclose(np.sort(report.eigenvalues.imag), [-1e200, 1e200], rtol=1e-12)

    def test_jordan_block_segre(self):
        report = classify_spectrum(jordan_block(5.0, 3))
        assert report.reality_class is RealityClass.ALL_REAL_DEFECTIVE
        assert report.block_sizes(5.0) == [3]

    def test_direct_sum_segre(self):
        H = np.zeros((5, 5), dtype=complex)
        H[:3, :3] = jordan_block(1.0, 3)
        H[3:, 3:] = jordan_block(1.0, 2)
        report = classify_spectrum(H)
        assert report.block_sizes(1.0) == [2, 3]

    def test_mixed_class(self):
        H = np.diag([1.0, 2j, -2j]).astype(complex)
        report = classify_spectrum(H)
        assert report.reality_class is RealityClass.MIXED

    def test_unpaired_complex_is_mixed(self):
        report = classify_spectrum(np.diag([1j, 2j]))
        assert report.reality_class is RealityClass.MIXED

    def test_exceptional_point_counts_as_real(self):
        # gamma = rho: single defective real eigenvalue e
        H = pt2_family(Pt2Params(e=0.5, gamma=1.0, rho=1.0, delta=0.4)).hamiltonian
        report = classify_spectrum(H, symmetry=PT_SYM)
        assert report.unbroken is True
        assert report.reality_class in (RealityClass.ALL_REAL_DEFECTIVE, RealityClass.ALL_REAL_DIAGONALIZABLE)

    def test_segre_invariant_under_similarity(self):
        rng = np.random.default_rng(3)
        seeds = [
            np.diag([1.0, 2.0, 3.0]).astype(complex),
            jordan_block(0.0, 3),
            None,  # J_2(1) + simple 2
        ]
        H3 = np.zeros((3, 3), dtype=complex)
        H3[:2, :2] = jordan_block(1.0, 2)
        H3[2, 2] = 2.0
        seeds[2] = H3
        for H in seeds:
            base = classify_spectrum(H)
            for _ in range(50):
                T = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
                moved = classify_spectrum(T @ H @ np.linalg.inv(T))
                base_segre = sorted((round(k.real, 4), tuple(v)) for k, v in base.segre.items())
                moved_segre = sorted((round(k.real, 4), tuple(v)) for k, v in moved.segre.items())
                assert base_segre == moved_segre

    def test_pt_spectrum_conjugation_closed(self):
        rng = np.random.default_rng(5)
        P = make_diagonal_parity(2, 2)
        for _ in range(200):
            blocks = [rng.normal(size=(2, 2)) for _ in range(4)]
            H = np.block([[blocks[0], 1j * blocks[1]], [1j * blocks[2], blocks[3]]])
            values = np.linalg.eigvals(H)
            dist = np.abs(values[:, None] - values.conj()[None, :])
            assert dist.min(axis=1).max() < 1e-8 * max(1.0, np.abs(values).max())


class TestAlignPtPhases:
    def test_already_aligned(self):
        values, vectors = align_pt_phases(SIGMA3, SIGMA3)
        for k in range(2):
            v = vectors[:, k]
            np.testing.assert_allclose(SIGMA3 @ v.conj(), v, atol=1e-12)

    def test_catalog_point(self):
        H = pt2_family(Pt2Params(e=0.0, gamma=2.0, rho=1.0, delta=0.4)).hamiltonian
        values, raw = np.linalg.eig(H)
        # before alignment the antilinear eigenvalue is a pure phase
        P = SIGMA3
        for k in range(2):
            v = raw[:, k]
            lam = (v.conj() @ (P @ v.conj())) / (v.conj() @ v)
            assert abs(abs(lam) - 1.0) < 1e-8
        _, aligned = align_pt_phases(P, H)
        for k in range(2):
            v = aligned[:, k]
            np.testing.assert_allclose(P @ v.conj(), v, atol=1e-10)
            rayleigh = (v.conj() @ H @ v) / (v.conj() @ v)
            assert np.linalg.norm(H @ v - rayleigh * v) < 1e-8

    def test_broken_symmetry_rejected(self):
        H = pt2_family(Pt2Params(e=0.0, gamma=1.0, rho=2.0, delta=0.0)).hamiltonian
        with pytest.raises(ContractError, match="complex"):
            align_pt_phases(SIGMA3, H)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ContractError):
            align_pt_phases(SIGMA3, np.diag([1j, 0.0]))


class TestJordanChain:
    def test_plain_jordan_block(self):
        chain = jordan_chain(jordan_block(0.0, 2), 0.0)
        v0, v1 = chain.vectors
        np.testing.assert_allclose(v0, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(v1, [0.0, 1.0], atol=1e-12)

    def test_matches_pt_catalog_formula(self):
        p = Pt2Params(e=0.3, gamma=1.2, rho=1.2, delta=0.5)
        H = pt2_family(p).hamiltonian
        chain = jordan_chain(H, 0.3)
        c0, c1 = pt2_jordan_chain(p)
        # numerical chain agrees up to the scale/phase of v0 and alpha freedom
        v0, v1 = chain.vectors
        scale = c0[np.argmax(np.abs(c0))] / v0[np.argmax(np.abs(v0))]
        M = H - 0.3 * np.eye(2)
        np.testing.assert_allclose(M @ (scale * v1), scale * v0, atol=1e-10)
        np.testing.assert_allclose(M @ c1, c0, atol=1e-12)

    def test_pseudo_catalog_formula(self):
        p = Pt2Params(e=-0.2, gamma=0.9, rho=0.9, delta=1.3)
        H = pseudo2_family(p).hamiltonian
        c0, c1 = pseudo2_jordan_chain(p)
        M = H - (-0.2) * np.eye(2)
        np.testing.assert_allclose(M @ c0, 0.0 * c0, atol=1e-12)
        np.testing.assert_allclose(M @ c1, c0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5])
    def test_chain_relations_with_alpha(self, alpha):
        H, _ = build_pt_jordan(2, 2, 1.0)
        chain = jordan_chain(H, 1.0)
        vectors = chain.with_alpha(alpha)
        M = H - np.eye(4)
        assert np.linalg.norm(M @ vectors[0]) < 1e-10
        for k in range(1, len(vectors)):
            assert np.linalg.norm(M @ vectors[k] - vectors[k - 1]) < 1e-8

    def test_pt_eigenvector_property_for_real_alpha(self):
        p = Pt2Params(e=0.0, gamma=1.0, rho=1.0, delta=0.3)
        H = pt2_family(p).hamiltonian
        P = SIGMA3
        for alpha in (0.0, 1.0, -2.5):
            v0, v1 = pt2_jordan_chain(p, alpha=alpha)
            lam0 = (P @ v0.conj())[0] / v0[0]
            assert abs(abs(lam0) - 1.0) < 1e-12
            np.testing.assert_allclose(P @ v0.conj(), lam0 * v0, atol=1e-12)
            np.testing.assert_allclose(P @ v1.conj(), lam0 * v1, atol=1e-12)

    def test_simple_eigenvalue_rejected(self):
        with pytest.raises(ContractError):
            jordan_chain(np.diag([1.0, 2.0]), 1.0)

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(ContractError):
            jordan_chain(jordan_block(0.0, 2), 5.0)


class TestBuildPtJordan:
    def test_minimal_case(self):
        H, T = build_pt_jordan(1, 1, 0.0)
        np.testing.assert_array_equal(H, np.array([[0, 1j], [0, 0]]))
        np.testing.assert_array_equal(T, np.diag([1.0, 1j]))
        np.testing.assert_array_equal(T @ H @ np.linalg.inv(T), jordan_block(0.0, 2))

    def test_2_1_segre(self):
        H, T = build_pt_jordan(2, 1, 3.0)
        report = classify_spectrum(H)
        assert report.block_sizes(3.0) == [3]
        assert report.reality_class is RealityClass.ALL_REAL_DEFECTIVE

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pt_symmetric_and_exactly_similar(self, m, n):
        lam = -0.7
        H, T = build_pt_jordan(m, n, lam)
        parity = make_diagonal_parity(m, n)
        assert check_symmetry(SymmetryKind.PT, parity, H).holds
        assert np.array_equal(T @ H @ np.linalg.inv(T), jordan_block(lam, m + n))


class TestDegenerationScan:
    def test_limits(self):
        eps = np.logspace(-2, -6, 9)
        for family in ("pt2", "pseudo2"):
            scan = degeneration_scan(1.0, 1.0, eps, family=family)
            assert scan.omega_large[-1] == pytest.approx(2.0, rel=1e-4)
            assert scan.omega_small[-1] / eps[-1] == pytest.approx(0.5, rel=1e-3)

    def test_slopes_near_one(self):
        eps = np.logspace(-2, -6, 9)
        for family in ("pt2", "pseudo2"):
            scan = degeneration_scan(1.3, 0.8, eps, family=family)
            assert scan.fitted_exponents["omega_small"] == pytest.approx(1.0, abs=0.05)
            assert scan.fitted_exponents["norm_plus"] == pytest.approx(1.0, abs=0.05)
            assert scan.fitted_exponents["norm_minus"] == pytest.approx(1.0, abs=0.05)

    def test_negative_parameters(self):
        eps = np.logspace(-2, -5, 7)
        scan = degeneration_scan(-1.0, -2.0, eps, family="pt2")
        assert np.all(scan.omega_small > 0)
        assert scan.omega_large[-1] == pytest.approx(4.0, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ContractError):
            degeneration_scan(1.0, 1.0, [0.5, 0.9], family="pt2")  # increasing
        with pytest.raises(ContractError):
            degeneration_scan(1.0, 1.0, [1.5], family="pt2")  # outside (0, 1)
        with pytest.raises(ContractError):
            degeneration_scan(1.0, -1.0, [0.1], family="pt2")  # u * gamma < 0
        with pytest.raises(ContractError):
            degeneration_scan(1.0, 1.0, [0.1], family="bogus")

    def test_csv_rows(self):
        scan = degeneration_scan(1.0, 1.0, [1e-2, 1e-3], family="pseudo2")
        rows = list(scan.rows())
        assert len(rows) == 2 and len(rows[0]) == 5


# ---------------------------------------------------------------- stacks

def reference_classify_spectrum(H, tol=DEFAULT_TOL, symmetry=None):
    """classify_spectrum as it was before classify_spectra existed: one
    matrix, one eigvals call, the scalar cluster and staircase code for every
    spectrum, and the intertwining residual of one matrix.  The operator is
    assumed valid."""
    A = np.asarray(H, dtype=complex)
    n = A.shape[0]
    scale = max(float(np.linalg.norm(A)), 1.0)
    values = np.linalg.eigvals(A)
    order = np.lexsort((values.imag, values.real))
    values = values[order]

    cluster_cut = max(10.0 * tol.rel_tol * scale, 4.0 * MACHINE_EPS ** (1.0 / n) * scale)
    clusters = _cluster_single_linkage(values, cluster_cut)
    centers = [complex(np.mean(values[list(c)])) for c in clusters]
    radii = [max((abs(values[j] - ctr) for j in cluster), default=0.0) for cluster, ctr in zip(clusters, centers)]

    ambiguous = False
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            if abs(centers[a] - centers[b]) < 10.0 * cluster_cut:
                ambiguous = True

    reality_cut = max(tol.abs_tol, tol.rel_tol * scale, 4.0 * np.sqrt(MACHINE_EPS) * scale)
    segre = {}
    all_real, any_real, paired = True, False, True
    defective = False
    leftovers = []
    for cluster, center, radius in zip(clusters, centers, radii):
        mult = len(cluster)
        is_real = abs(center.imag) <= reality_cut
        key = complex(center.real, 0.0) if is_real else center
        if is_real:
            any_real = True
        else:
            all_real = False
            leftovers.append((center, mult))
        sizes = _segre_staircase(A, key, mult, radius, tol)
        if sizes is None:
            ambiguous = True
            sizes = [1] * mult
        if any(s > 1 for s in sizes):
            defective = True
        segre[key] = sizes
    pool = list(leftovers)
    while pool:
        center, mult = pool.pop(0)
        match = None
        for i, (other, omult) in enumerate(pool):
            if abs(other - center.conjugate()) <= max(2 * reality_cut, cluster_cut) and omult == mult:
                match = i
                break
        if match is None:
            paired = False
            break
        pool.pop(match)

    if all_real:
        reality = RealityClass.ALL_REAL_DEFECTIVE if defective else RealityClass.ALL_REAL_DIAGONALIZABLE
    elif not any_real and paired:
        reality = RealityClass.CONJUGATE_PAIRS
    else:
        reality = RealityClass.MIXED

    unbroken = holds = None
    if symmetry is not None:
        kind, operator = symmetry
        P = operator.matrix
        if kind is SymmetryKind.PT:
            gap = P @ A - A.conj() @ P
        elif kind is SymmetryKind.PSEUDO:
            gap = P @ A - A.conj().T @ P
        else:
            gap = P @ A.conj() - A @ P
        holds = bool(np.linalg.norm(gap) <= max(tol.abs_tol, tol.rel_tol * np.linalg.norm(A)))
        unbroken = bool(holds and all_real)
    return values, reality, segre, ambiguous, unbroken, holds


def _symmetry(choice, n):
    """(kind, operator) for a stack of n x n matrices, or None."""
    m = (n + 1) // 2
    if choice == "pt":
        return SymmetryKind.PT, make_diagonal_parity(m, n - m)
    if choice == "pseudo":
        return SymmetryKind.PSEUDO, make_diagonal_parity(m, n - m, InvolutionKind.HERMITIAN_INVOLUTION)
    if choice == "genpt":
        return SymmetryKind.GEN_PT, InvolutionOperator(InvolutionKind.ANTILINEAR_CORE, np.eye(n))
    return None


def _frame(rng, n):
    """V = orthogonal diag(0.5..2) orthogonal, well conditioned."""
    left, _ = np.linalg.qr(rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return left @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ right


def _stack_member(rng, n, shape, symmetry):
    """One n x n matrix of the given spectral shape."""
    if shape == "generic":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if shape == "pairs":  # real, so the spectrum is closed under conjugation
        return rng.normal(size=(n, n)).astype(complex)
    if shape == "symmetric" and symmetry is not None:
        kind, operator = symmetry
        d = np.diagonal(operator.matrix).real
        R = rng.normal(size=(n, n))
        if kind is SymmetryKind.PT:
            return R * np.where(np.outer(d, d) > 0, 1.0, 1j)
        if kind is SymmetryKind.PSEUDO:
            M = R + 1j * rng.normal(size=(n, n))
            return d[:, None] * (M + M.conj().T)
        return R.astype(complex)
    if shape == "exceptional" and n == 2:
        gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        p = Pt2Params(e=rng.uniform(-1, 1), gamma=gamma, rho=abs(gamma), delta=rng.uniform(-3, 3))
        return (pt2_hamiltonian if rng.random() < 0.5 else pseudo2_hamiltonian)(p)
    if shape == "jordan":
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        choices = [0.0, 1.0, -1.0, 0.5 + 0.5j, 0.5 - 0.5j, 2j, -2j, 1.0 + 1e-9]
        J = np.zeros((n, n), dtype=complex)
        pos = 0
        for size in sizes:
            J[pos:pos + size, pos:pos + size] = jordan_block(choices[rng.integers(len(choices))], size)
            pos += size
        V = _frame(rng, n)
        return V @ J @ np.linalg.inv(V)
    # near-degenerate: conjugate pairs, nearly real values and values
    # 10^-k apart, so that cuts and gaps meet at every order of magnitude
    values = []
    while len(values) < n:
        z = complex(rng.normal(), rng.normal())
        tiny = 10.0 ** -int(rng.integers(2, 13))
        draw = rng.random()
        if draw < 0.3 and len(values) + 2 <= n:
            values += [z, z.conjugate() + tiny]
        elif draw < 0.5:
            values.append(complex(z.real, tiny))
        elif draw < 0.7 and values:
            values.append(values[-1] + tiny * rng.choice([1.0, 1j]))
        else:
            values.append(z)
    V = _frame(rng, n)
    return V @ np.diag(values) @ np.linalg.inv(V)


SHAPES = ("generic", "pairs", "symmetric", "exceptional", "jordan", "near")


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6))
    symmetry = _symmetry(draw(st.sampled_from(["none", "pt", "pseudo", "genpt"])), n)
    tol = draw(st.sampled_from([DEFAULT_TOL, ToleranceConfig(abs_tol=1e-3)]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.array([_stack_member(rng, n, shape, symmetry) for shape in shapes]) * scale
    return stack, tol, symmetry


class TestClassifySpectra:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_stacks())
    def test_batch_equals_scalar(self, case):
        stack, tol, symmetry = case
        reports = classify_spectra(stack, tol, symmetry)
        assert len(reports) == stack.shape[0]
        for H, report in zip(stack, reports):
            values, reality, segre, ambiguous, unbroken, holds = reference_classify_spectrum(H, tol, symmetry)
            assert report.eigenvalues.tobytes() == values.tobytes()
            assert report.reality_class is reality
            assert list(report.segre.items()) == list(segre.items())
            assert report.ambiguous is ambiguous
            assert report.unbroken is unbroken
            assert report.symmetry_holds is holds

    @pytest.mark.parametrize("values, tol", [
        # the pairing cut (2e-3) is wider than the 1e-3 gap: two candidate
        # partners for 1 + i, so the greedy pairing decides (it leaves one over)
        ([1 + 1j, 1 - 1j, 1.001 - 1j], ToleranceConfig(abs_tol=1e-3)),
        ([1 + 1j, 0.9982 - 1j, 1.0018 - 1j], ToleranceConfig(abs_tol=1e-3)),
        # 1 + 1e-6 i is not real, yet within the pairing cut of its own conjugate
        ([1 + 1e-6j, 3 + 2j, 3 - 2j], DEFAULT_TOL),
        ([1 + 1e-6j, 1 - 1e-6j, 3 + 2j, 3 - 2j], DEFAULT_TOL),
    ])
    def test_batch_equals_scalar_at_the_pairing_cut(self, values, tol):
        stack = np.array([np.diag(values), np.diag(values[::-1]), np.diag(np.conj(values))], dtype=complex)
        for H, report in zip(stack, classify_spectra(stack, tol)):
            expected = reference_classify_spectrum(H, tol)
            assert (report.reality_class, report.segre, report.ambiguous) == expected[1:4]

    @pytest.mark.parametrize("kind", list(SymmetryKind))
    def test_stacked_residuals_match_check_symmetry(self, kind):
        rng = np.random.default_rng(11)
        _, operator = _symmetry({SymmetryKind.PT: "pt", SymmetryKind.PSEUDO: "pseudo",
                                 SymmetryKind.GEN_PT: "genpt"}[kind], 4)
        symmetric = [_stack_member(rng, 4, "symmetric", (kind, operator)) for _ in range(4)]
        stack = np.array(symmetric + [_stack_member(rng, 4, "generic", None) for _ in range(4)])
        scale = frobenius_norms(stack)
        holds, raw, _ = _intertwining(kind, operator.matrix, stack, scale, DEFAULT_TOL)
        for k, H in enumerate(stack):
            report = check_symmetry(kind, operator, H)
            assert (bool(holds[k]), float(raw[k] / scale[k])) == (report.holds, report.residual)
        assert holds.tolist() == [True] * 4 + [False] * 4

    def test_operator_checked_once_per_call(self):
        stack = np.array([jordan_block(1.0, 2)] * 3)
        with pytest.raises(ContractError, match="real_involution"):
            classify_spectra(stack, symmetry=(SymmetryKind.PT, np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(DimensionError, match=r"operator is \(3, 3\) but H is \(2, 2\)"):
            classify_spectra(stack, symmetry=(SymmetryKind.PT, make_diagonal_parity(2, 1)))

    def test_stack_validation(self):
        with pytest.raises(DimensionError):
            classify_spectra(np.eye(2))
        with pytest.raises(DimensionError):
            classify_spectra(np.zeros((2, 2, 3)))
        bad = np.array([np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(ContractError, match="NaN or Inf"):
            classify_spectra(bad)

    def test_only_points_near_exceptional_set_take_the_cluster_path(self, monkeypatch):
        calls = []
        cluster_path = spectra._cluster_path
        monkeypatch.setattr(spectra, "_cluster_path",
                            lambda A, *rest: calls.append(A.copy()) or cluster_path(A, *rest))
        gammas = np.linspace(0.0, 2.0, 21)
        stack = np.array([pt2_hamiltonian(Pt2Params(gamma=g, rho=1.0)) for g in gammas])
        reports = classify_spectra(stack, symmetry=PT_SYM)
        # rho = gamma = 1 is the one point without a clear eigenvalue gap
        assert [H.tolist() for H in calls] == [stack[10].tolist()]
        assert [r.unbroken for r in reports] == [bool(g >= 1.0) for g in gammas]
        assert reports[10].block_sizes(0.0) == [2]
