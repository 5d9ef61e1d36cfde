"""Spectrum classification, phase alignment, Jordan machinery, collapse scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptlab import spectra
from ptlab.catalog2x2 import (
    Chart,
    Pt2Params,
    pseudo2_family,
    pseudo2_hamiltonian,
    pseudo2_jordan_chain,
    pt2_family,
    pt2_hamiltonian,
    pt2_jordan_chain,
    pt2_transformed,
)
from ptlab.errors import ContractError, DimensionError
from ptlab.intertwine import eigen_clusters
from ptlab.involutions import InvolutionKind, InvolutionOperator, make_diagonal_parity, make_sip
from ptlab.numerics import DEFAULT_TOL, MACHINE_EPS, ToleranceConfig, frobenius, frobenius_norms
from ptlab.spectra import (
    RealityClass,
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


def defective_n16(seed=0):
    """J_2(1) + diag(3, ..., 16) in a frame of condition number 3."""
    rng = np.random.default_rng(seed)
    J = np.zeros((16, 16), dtype=complex)
    J[:2, :2] = jordan_block(1.0, 2)
    J[2:, 2:] = np.diag(np.arange(3.0, 17.0))
    left, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    right, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    V = left @ np.diag(np.linspace(1.0, 3.0, 16)) @ right
    return V @ J @ np.linalg.inv(V)


class TestClassifySpectrum:
    def test_separated_eigenvalues_stay_apart_beyond_n8(self):
        # a cut of 4 eps^(1/n) ||H||_F once merged each of these spectra into one cluster
        report = classify_spectrum(np.diag(np.arange(1.0, 11.0)))
        assert report.segre == {complex(k): [1] for k in range(1, 11)}
        assert report.reality_class is RealityClass.ALL_REAL_DIAGONALIZABLE and not report.ambiguous
        M = np.random.default_rng(12).normal(size=(12, 12))
        report = classify_spectrum(M + M.T)
        assert list(report.segre.values()) == [[1]] * 12 and not report.ambiguous

    def test_defective_eigenvalue_at_n16(self):
        report = classify_spectrum(defective_n16())
        assert report.block_sizes(1.0) == [2]
        assert sorted(report.segre.values()) == [[1]] * 14 + [[2]]
        assert report.reality_class is RealityClass.ALL_REAL_DEFECTIVE and not report.ambiguous

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

    @pytest.mark.parametrize("H, sizes", [
        # the pseudo2 exceptional point at rho = gamma = 1e200
        (pseudo2_hamiltonian(Pt2Params(gamma=1e200, rho=1e200)), [2]),
        (jordan_block(0.0, 3) * 1e200, [3]),
        (jordan_block(1.0, 3) * 1e120, [3]),  # its cube is past the float range
    ])
    def test_staircase_powers_stay_in_range(self, H, sizes):
        # the powers of the rank staircase once overflowed (a numpy warning,
        # an error under this suite's warning filter)
        report = classify_spectrum(H)
        assert list(report.segre.values()) == [sizes] and not report.ambiguous
        assert report.reality_class is RealityClass.ALL_REAL_DEFECTIVE

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

    @pytest.mark.parametrize("H, segre", [
        # 1 +- 1e-8 i: two lone clusters, both real, mirrored across the axis
        ([[1.0, 1e-8], [-1e-8, 1.0]], {1.0: [1, 1]}),
        (np.diag([1 + 1e-8j, 1 - 1e-8j, 5.0]), {1.0: [1, 1], 5.0: [1]}),
        # two real eigenvalues on one side of the axis, with one projection
        (np.diag([1 + 1e-9j, 1 + 3e-8j]), {1.0: [1, 1]}),
    ])
    def test_real_clusters_with_one_projection_keep_every_block(self, H, segre):
        report = classify_spectrum(np.asarray(H, dtype=complex))
        assert report.reality_class is RealityClass.ALL_REAL_DIAGONALIZABLE
        assert {round(key.real, 12): sizes for key, sizes in report.segre.items()} == segre
        assert sum(map(sum, report.segre.values())) == len(H)

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

    def test_simple_spectrum_means_lone_eigenvalue_discs(self):
        # 1e-9 apart with orthogonal eigenvectors: two discs of radius ~1e-14
        # (a fixed 1e-8 gap cut once refused this spectrum)
        values, _ = align_pt_phases(SIGMA3, np.diag([1.0, 1.0 + 1e-9]))
        np.testing.assert_array_equal(values, [1.0, 1.0 + 1e-9])
        H, _ = build_pt_jordan(1, 1, 1.0)
        with pytest.raises(ContractError, match="simple spectrum"):
            align_pt_phases(make_diagonal_parity(1, 1), H)


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

    def test_chain_at_n16(self):
        H = defective_n16()
        v0, v1 = jordan_chain(H, 1.0).vectors
        M = H - np.eye(16)
        assert np.linalg.norm(M @ v0) < 1e-10 and np.linalg.norm(M @ v1 - v0) < 1e-8

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
    """classify_spectrum without the gap screen: one matrix, the sorted
    eigenvalues and eigenvectors of one eig call for every spectrum, the
    clusters of intertwine.eigen_clusters, the scalar staircase for each
    cluster of more than one eigenvalue, one Segre entry per real axis
    projection of the real clusters, a plain greedy conjugate pairing of
    the cluster discs, and the intertwining residual of one matrix.  The
    operator is assumed valid."""
    A = np.asarray(H, dtype=complex)
    norm = float(np.linalg.norm(A))
    scale = max(norm, 1.0)
    values, vectors = np.linalg.eig(A)
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    radii, labels = eigen_clusters(values, vectors, np.linalg.svd(vectors, compute_uv=False), norm, tol)
    clusters = [np.flatnonzero(labels == a).tolist() for a in sorted(set(labels.tolist()))]
    centers = [complex(np.mean(values[c])) for c in clusters]
    spans = [max(abs(values[j] - ctr) + radii[j] for j in c) for c, ctr in zip(clusters, centers)]

    ambiguous = False
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            if abs(centers[a] - centers[b]) < 10.0 * (spans[a] + spans[b]):
                ambiguous = True

    reality_cut = max(tol.abs_tol, tol.rel_tol * scale, 4.0 * np.sqrt(MACHINE_EPS) * scale)
    # two real clusters of one size, each nearer the other's conjugate than
    # its own, merge; greedily, smallest member first
    taken = set()
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            ca, cb = centers[a], centers[b]
            if (a not in taken and b not in taken and max(abs(ca.imag), abs(cb.imag)) <= reality_cut
                    and len(clusters[a]) == len(clusters[b])
                    and abs(cb - ca.conjugate()) < 2 * min(abs(ca.imag), abs(cb.imag))):
                taken.update((a, b))
                clusters[a], clusters[b] = sorted(clusters[a] + clusters[b]), []
                centers[a] = complex(np.mean(values[clusters[a]]))
    keep = [k for k, cluster in enumerate(clusters) if cluster]
    clusters, centers, spans = ([x[k] for k in keep] for x in (clusters, centers, spans))
    segre = {}
    all_real, any_real, paired = True, False, True
    defective = False
    leftovers = []
    for cluster, center, span in zip(clusters, centers, spans):
        mult = len(cluster)
        is_real = abs(center.imag) <= reality_cut
        if mult == 1:
            center = complex(values[cluster[0]])
        key = complex(center.real, 0.0) if is_real else center
        if is_real:
            any_real = True
        else:
            all_real = False
            leftovers.append((center, mult, span))
        sizes = [1]
        if mult > 1:
            sizes = _segre_staircase(A, key, mult, max(abs(values[j] - center) for j in cluster), tol)
        if sizes is None:
            ambiguous = True
            sizes = [1] * mult
        if any(s > 1 for s in sizes):
            defective = True
        segre[key] = sorted(segre.get(key, []) + sizes)
    pool = list(leftovers)
    while pool:
        center, mult, span = pool.pop(0)
        match = None
        for i, (other, omult, ospan) in enumerate(pool):
            if abs(other - center.conjugate()) <= max(2 * reality_cut, span + ospan) and omult == mult:
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


def _report_fields(report):
    return (report.eigenvalues.tobytes(), report.reality_class, list(report.segre.items()),
            report.unbroken, report.symmetry_holds, report.ambiguous)


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

    @staticmethod
    def _half_symmetric_stack(rng, kind, P, K):
        """K random n x n matrices, the even ones made to satisfy kind's
        identity with the real involution or core P."""
        n = P.shape[0]
        X = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
        mirror = P @ (X.conj().swapaxes(-1, -2) if kind is SymmetryKind.PSEUDO else X.conj()) @ P
        X[::2] = 0.5 * (X[::2] + mirror[::2])
        return X

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("kind", list(SymmetryKind))
    @pytest.mark.parametrize("shape", ["diagonal", "sip"])
    def test_one_product_per_stack_is_bit_equal_for_signed_permutations(self, n, kind, shape):
        # the sweep's shape (K = 100): P times the panel of all matrices is one
        # product, and so is the panel of their conjugates or adjoints times P
        family = {SymmetryKind.PT: InvolutionKind.REAL_INVOLUTION,
                  SymmetryKind.PSEUDO: InvolutionKind.HERMITIAN_INVOLUTION,
                  SymmetryKind.GEN_PT: InvolutionKind.ANTILINEAR_CORE}[kind]
        operator = make_diagonal_parity(1, n - 1, family) if shape == "diagonal" else make_sip(n, family)
        stack = self._half_symmetric_stack(np.random.default_rng(n), kind, operator.matrix, 100)
        scale = frobenius_norms(stack)
        holds, raw, _ = _intertwining(kind, operator, stack, scale, DEFAULT_TOL)
        for k, H in enumerate(stack):
            report = check_symmetry(kind, operator, H)
            assert raw[k] == _intertwining(kind, operator, H, scale[k], DEFAULT_TOL)[1]
            assert (bool(holds[k]), float(raw[k] / scale[k])) == (report.holds, report.residual)
        assert holds.tolist() == [True, False] * 50

    @pytest.mark.parametrize("n", [2, 4])
    def test_one_product_per_stack_rounds_like_the_plain_product_for_a_dense_parity(self, n):
        # a chart parity is a dense real involution: the stacked products may
        # round differently from the per-matrix ones, in the last bits only
        chart = pt2_transformed(Chart.BOOST, Pt2Params(gamma=1.3, rho=0.4, theta=0.9, phi=0.6))
        P = np.kron(np.eye(n // 2), chart.parity)
        stack = self._half_symmetric_stack(np.random.default_rng(7 + n), SymmetryKind.PT, P, 100)
        scale = frobenius_norms(stack)
        holds, raw, _ = _intertwining(SymmetryKind.PT, P, stack, scale, DEFAULT_TOL)
        for k, H in enumerate(stack):
            report = check_symmetry(SymmetryKind.PT, P, H)
            assert bool(holds[k]) == report.holds
            assert abs(raw[k] / scale[k] - report.residual) <= 64 * MACHINE_EPS * frobenius(P)
        assert holds.tolist() == [True, False] * 50

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

    def test_table_indexes_and_iterates_like_the_scalar_reports(self):
        rng = np.random.default_rng(8)
        symmetry = _symmetry("pt", 3)
        stack = np.array([_stack_member(rng, 3, shape, symmetry) for shape in SHAPES if shape != "exceptional"])
        table = classify_spectra(stack, symmetry=symmetry)
        expected = [_report_fields(classify_spectrum(H, symmetry=symmetry)) for H in stack]
        assert len(table) == len(stack) == 5
        assert [_report_fields(r) for r in table] == expected
        assert _report_fields(table[-1]) == expected[-1]
        assert _report_fields(table[-5]) == expected[0]
        assert _report_fields(table[-2]) == expected[3]  # a stored Segre dict, by negative index
        assert [_report_fields(r) for r in table[1:4]] == expected[1:4]
        for k in (5, -6):
            with pytest.raises(IndexError):
                table[k]
        assert table.eigenvalues.shape == (5, 3)
        assert table.unbroken.tolist() == [r[3] for r in expected]
        assert table.symmetry_holds.tolist() == [r[4] for r in expected]
        assert table.ambiguous.tolist() == [r[5] for r in expected]
        # a Segre dict is stored only for the points that took the cluster
        # path (this draw's Jordan matrix, and its near-degenerate one, whose
        # conjugate distance of 1e-6 lies between two reality cuts and the
        # pairing cut); the others build theirs on access
        assert list(table.segre) == [3, 4]

    def test_no_screen_at_sizes_no_spectrum_can_pass(self, monkeypatch):
        # ten eigenvalues 10 cluster cuts (40 eps^(1/10) ||H||_F) apart do not
        # fit in the disc |z| <= ||H||_F, so no eigvals is spent on a screen
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: pytest.fail("screened"))
        stack = np.array([np.diag(np.arange(1.0, 11.0)), jordan_block(2.0, 10)])
        table = classify_spectra(stack)
        assert list(table.segre) == [0, 1]
        assert table[0].segre == {complex(k): [1] for k in range(1, 11)}
        assert table[1].segre == {2.0: [10]}

    def test_table_without_symmetry_has_no_verdict_columns(self):
        table = classify_spectra(np.array([jordan_block(1.0, 2), np.diag([1.0, 2.0])]))
        assert table.unbroken is None and table.symmetry_holds is None
        assert [r.unbroken for r in table] == [None, None]
        assert [r.reality_class for r in table] == [RealityClass.ALL_REAL_DEFECTIVE,
                                                    RealityClass.ALL_REAL_DIAGONALIZABLE]

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
