"""Parameter counts: nullspace dimensions, orbit ranks, variety dimension.

The dense route the pair blocks replaced (the real matrix of each map over
all 2 N^2 real coordinates, and its full SVD) is kept here as their oracle,
and so is the search for the distinct blocks of any stack of diagonal base
operators that the closed-form parity blocks replaced.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
    _imag_coefficient_jacobian,
)
from ptlab.errors import ContractError, DimensionError, IndeterminateStructureError
from ptlab.numerics import devectorize, frobenius, hermitian_basis, numerical_rank, rank_cutoff, vectorize
from ptlab.symmetry import DiagMetricSelfAdjointParams, construct_self_adjoint_from_diag_metric


def real_basis(rows, cols):
    """(2 rows cols, rows, cols) stack devectorizing each real unit vector:
    unit real entries and unit imaginary entries, in vectorize order."""
    return np.eye(2 * rows * cols).view(complex).reshape(-1, rows, cols)


def real_matrix_of_map(fn, rows, cols):
    """Real matrix, on vectorize coordinates, of a real-linear map fn of
    (k, rows, cols) stacks of complex matrices, called once on real_basis."""
    return vectorize(fn(real_basis(rows, cols))).T


def reference_real_matrix_of_map(fn, rows, cols):
    columns = []
    for k in range(2 * rows * cols):
        e = np.zeros(2 * rows * cols)
        e[k] = 1.0
        columns.append(vectorize(fn(devectorize(e, rows, cols))))
    return np.column_stack(columns)


def antihermitian_basis(n):
    return 1j * hermitian_basis(n)


DENSE_CONDITIONS = {
    FamilyKind.PT: lambda P0, H: P0 @ H - H.conj() @ P0,
    FamilyKind.PSEUDO: lambda P0, H: P0 @ H - H.conj().swapaxes(-1, -2) @ P0,
    FamilyKind.HERMITIAN: lambda P0, H: H - H.conj().swapaxes(-1, -2),
    FamilyKind.REAL_SYMMETRIC: lambda P0, H: np.concatenate([H - H.conj(), H - H.swapaxes(-1, -2)], axis=-2),
}


def dense_family_system(kind, P0):
    N = P0.shape[0]
    return real_matrix_of_map(lambda H: DENSE_CONDITIONS[kind](P0, H), N, N)


def dense_orbit_system(kind, P0):
    """Columns: X P0 - P0 X over the units of gl(N, R) or the u(N) basis."""
    N = P0.shape[0]
    generators = np.eye(N * N, dtype=complex).reshape(N * N, N, N) if kind is FamilyKind.PT else antihermitian_basis(N)
    return vectorize(generators @ P0 - P0 @ generators).T


def diag_parities(N, ns) -> np.ndarray:
    """(S, M, M) stack of the parities diag(1_m, -1_n), m = N - n, one per split n of
    ns (N one size, or one per split), each zero-padded to the largest size M."""
    sizes, ns = np.broadcast_arrays(N, ns)
    axis = np.arange(sizes.max())
    signs = np.where(axis < (sizes - ns)[:, None], 1.0, np.where(axis < sizes[:, None], -1.0, 0.0))
    return (signs[:, :, None] * np.eye(len(axis))).astype(complex)


def distinct(rows: np.ndarray, member: np.ndarray, S: int) -> tuple:
    """The distinct rows of a (K, w) array, equal when their bytes are, and the (S, U)
    number of times each occurs among the rows of each of S members."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], np.bincount(member * len(first) + inverse, minlength=S * len(first)).reshape(S, -1)


def pair_blocks(P0s: np.ndarray, sizes=None) -> tuple:
    """The block set counting._map_dims takes, for any stack of diagonal base operators:
    ((distinct pair diagonals (p_a, p_b), a < b, their (S, U) counts), (distinct
    entries p_a, their counts)) over a (S, M, M) stack of diag(p), member s holding
    its first sizes[s] entries (default: all M)."""
    S, M = P0s.shape[0], P0s.shape[-1]
    if np.any(P0s[:, ~np.eye(M, dtype=bool)]):
        raise ContractError("pair blocks need a diagonal base operator")
    p = np.diagonal(P0s, axis1=-2, axis2=-1)
    sizes = np.broadcast_to(M if sizes is None else sizes, S)[:, None]
    a, b = np.triu_indices(M, 1)
    pair_member, pair = np.nonzero(b < sizes)
    entry_member, entry = np.nonzero(np.arange(M) < sizes)
    return (distinct(np.stack([p[pair_member, a[pair]], p[pair_member, b[pair]]], axis=-1), pair_member, S),
            distinct(p[entry_member, entry, None], entry_member, S))


def block_table(blocks) -> dict:
    """{block as a tuple: its column of counts} of a block set, in no order (a real
    and a complex block of equal values compare and hash equal)."""
    return {tuple(row.tolist()): counts.tolist() for rows, c in blocks for row, counts in zip(rows, c.T)}


def pair_block_ranks_against_dense(P0s, blocks=None):
    """Yield (dense system function, kind, index, pair-block rank, dense
    system) for the four families and both orbits at each base operator of
    a stack of diagonal ones, after checking that the kernel's singular values
    of the blocks it holds (each distinct block as often as it holds it, each
    read on its map's columns, the zero padding beyond them), sorted, are
    those of the dense system within 1e-12 sigma_max.  The blocks default to
    the oracle's search over P0s."""
    blocks = pair_blocks(P0s) if blocks is None else blocks
    sigma = counting._block_singular_values(blocks)
    dims = counting._map_dims(blocks)
    systems = [(dense_family_system, kind) for kind in FamilyKind]
    systems += [(dense_orbit_system, kind) for kind in (FamilyKind.PT, FamilyKind.PSEUDO)]
    assert sigma.shape == (len(systems), sum(len(rows) for rows, _ in blocks), 4)
    for m, (dense_system, kind) in enumerate(systems):
        per_block_kind = np.split(sigma[m], [len(blocks[0][0])])
        widths = [len(basis) for basis in counting._MAPS[m][1]]
        for s, width in zip(per_block_kind, widths):
            assert not s[:, width:].any()
        for index, P0 in enumerate(P0s):
            dense = dense_system(kind, P0)
            expected = np.linalg.svd(dense, compute_uv=False)
            held = np.concatenate([np.repeat(s[:, :width], counts[index], axis=0).ravel()
                                   for (_, counts), s, width in zip(blocks, per_block_kind, widths)])
            assert held.shape == expected.shape == (dense.shape[1],)
            np.testing.assert_allclose(np.sort(held), np.sort(expected), rtol=0, atol=1e-12 * expected[0])
            rank = dims[m, index] if dense_system is dense_orbit_system else dense.shape[1] - dims[m, index]
            yield dense_system, kind, index, rank, dense


class TestDenseOracle:
    def test_real_basis_devectorizes_unit_vectors(self):
        basis = real_basis(2, 3)
        assert basis.shape == (12, 2, 3)
        for k, E in enumerate(basis):
            assert np.array_equal(E, devectorize(np.eye(12)[k], 2, 3))

    def test_real_matrix_of_map_matches_column_assembly(self):
        P = np.diag([1.0, 1.0, -1.0]).astype(complex)
        def fn(H):
            return P @ H - H.conj().swapaxes(-1, -2) @ P
        assert np.array_equal(real_matrix_of_map(fn, 3, 3), reference_real_matrix_of_map(fn, 3, 3))

    @pytest.mark.parametrize("N", range(1, 7))
    def test_pair_blocks_match_dense_systems(self, N):
        """Every split (m, n) of N at once, n = 0 (definite) to N, for the four
        families and both orbits: the closed-form parity blocks' singular values
        are the dense system's within 1e-12 sigma_max, and the counts are the
        dense counts."""
        ns = np.arange(N + 1)
        blocks = counting._parity_blocks(N - ns, ns)
        for dense_system, kind, n, rank, dense in pair_block_ranks_against_dense(diag_parities(N, ns), blocks):
            dense_rank = numerical_rank(dense)
            assert rank == dense_rank
            if dense_system is dense_family_system:
                assert count_matrix_family(kind, N - n, n) == dense.shape[1] - dense_rank
            else:
                assert count_operator_orbit(kind, N - n, n) == dense_rank

    def test_general_diagonal_bases_match_dense_systems(self):
        """The block argument needs only a diagonal base operator.  Random
        complex diagonals that share entries, so that the stack factors their
        common blocks once: member 1 shares the block (p_0, p_1) with member 0,
        member 2 is member 1 scaled by 1e-15, and member 3 holds blocks of
        members 0 and 2 both.  Each is ranked under the cut of the largest
        singular value among the blocks it holds, as the dense system is."""
        p = np.random.default_rng(7).normal(size=(4, 4, 2)).view(complex)[..., 0]
        p[1, :2] = p[0, :2]
        p[2] = 1e-15 * p[1]
        p[3] = np.concatenate([p[0, :2], p[2, 2:]])
        blocks = pair_blocks(p[:, :, None] * np.eye(4))
        assert [len(rows) for rows, _ in blocks] == [6 + 5 + 6 + 4, 4 + 2 + 4 + 0]  # shared blocks once
        for *_, rank, dense in pair_block_ranks_against_dense(p[:, :, None] * np.eye(4)):
            assert rank == numerical_rank(dense)

    def test_non_diagonal_base_operator_is_rejected(self):
        """The oracle's search must not read blocks off a base it does not cover."""
        P0 = diag_parities(3, [1])
        P0[0, 0, 2] = 1e-300  # exact guard: any nonzero entry off the diagonal
        with pytest.raises(ContractError):
            pair_blocks(P0)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_parity_blocks_are_the_distinct_blocks(self, N):
        """The closed-form multiplicities are the oracle's distinct blocks and
        counts at every split (m, n) of N, alone and with the splits of all
        dimensions up to N stacked as the table stacks them: no block nobody
        holds, so (-1, -1) only where some n >= 2."""
        for n in range(N + 1):
            assert block_table(counting._parity_blocks(N - n, n)) == block_table(pair_blocks(diag_parities(N, [n])))
        dims, ns = np.array([(dim, n) for dim in range(1, N + 1) for n in range(dim + 1)]).T
        assert block_table(counting._parity_blocks(dims - ns, ns)) == block_table(
            pair_blocks(diag_parities(dims, ns), dims))

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_empty_split_is_rejected(self, kind):
        for count in (count_matrix_family, count_operator_orbit):
            for m, n in ((0, 0), (-1, 2), (2, -1)):
                with pytest.raises(ContractError):
                    count(kind, m, n)

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(r.match for r in table1_report(8))
            for N in range(1, 7):
                for n in range(N + 1):
                    for kind in FamilyKind:
                        count_matrix_family(kind, N - n, n)
                        count_operator_orbit(kind, N - n, n)


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

    @pytest.mark.parametrize("N", range(1, 9))
    def test_default_base_agrees_with_chebyshev_base_point(self, N):
        """The default count (the zero-padded stacked adjugate pass, as in the
        table) equals the count at the same base given as base_point; a repeated
        node makes that base derogatory, an imaginary shift its polynomial complex."""
        count = count_real_charpoly_variety(N)
        assert count == count_real_charpoly_variety(N, base_point=_chebyshev_base(N)) == 2 * N * N - N
        if N >= 2:
            assert [r.total for r in table1_report(N) if r.kind is TableRow.SELF_ADJOINT_OR_GEN_PT][-1] == count
            repeated = _chebyshev_base(N)
            repeated[1, 1] = repeated[0, 0]
            with pytest.raises(IndeterminateStructureError):
                count_real_charpoly_variety(N, base_point=repeated)
        shifted = _chebyshev_base(N)
        shifted[0, 0] += 1e-3j
        with pytest.raises(ContractError):
            count_real_charpoly_variety(N, base_point=shifted)

    def test_derogatory_base_is_indeterminate(self):
        # a repeated eigenvalue in two Jordan blocks drops the derivative to rank N - 1
        for base in (np.eye(3), np.diag([1.0, 1.0, 2.0])):
            with pytest.raises(IndeterminateStructureError):
                count_real_charpoly_variety(3, base_point=base)

    def test_base_with_complex_charpoly_is_rejected(self):
        # Im c_1 = 1e-4 while the coefficients grow like 8^k: one absolute
        # bound scale^N would let this base through; per coefficient it fails
        real_base = np.diag(np.arange(1.0, 9.0)).astype(complex)
        complex_base = real_base.copy()
        complex_base[0, 0] += 1e-4j
        assert count_real_charpoly_variety(8, base_point=real_base) == 120
        with pytest.raises(ContractError):
            count_real_charpoly_variety(8, base_point=complex_base)

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

    def test_splits_match_one_split_counts(self):
        """The table ranks every split of every dimension in one stack; each
        split counts as it does alone, the definite n = 0 included (it holds
        no (-1, -1) block, which must not set its cut)."""
        reports = table1_report(8)
        assert {r.n for r in reports if r.kind is TableRow.PT_OR_PSEUDO} == set(range(5))
        for r in reports:
            if r.kind is TableRow.PT_OR_PSEUDO:
                for kind in (FamilyKind.PT, FamilyKind.PSEUDO):
                    assert r.measured_matrix_dim == count_matrix_family(kind, r.m, r.n)
                    assert r.measured_operator_orbit_dim == count_operator_orbit(kind, r.m, r.n)
            elif r.kind is not TableRow.SELF_ADJOINT_OR_GEN_PT:
                assert r.measured_matrix_dim == count_matrix_family(FamilyKind[r.kind.name], r.m, r.n)

    def test_partitions_covered(self):
        reports = table1_report(4)
        splits = {(r.m, r.n) for r in reports if r.kind is TableRow.PT_OR_PSEUDO}
        assert splits == {(2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)}


def _random_self_adjoint(N, rng):
    """A random base point with a real characteristic polynomial: self-adjoint
    under a random positive diagonal metric."""
    params = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, size=N),
                                         a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
    return construct_self_adjoint_from_diag_metric(params)


def _chebyshev_base(N):
    return np.diag(np.cos(np.pi * (np.arange(N) + 0.5) / N)).astype(complex)


def _charpoly_imag_coefficients(stack):
    """(K, N) imaginary parts of c_1..c_N for each matrix of a (K, N, N) stack."""
    return _charpoly_coefficients(np.linalg.eigvals(stack))[..., 1:].imag


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


def _variety_cut(H, sing):
    """The variety rank cut at base H, sing the Jacobian's singular values: the
    shared rank cutoff of max(sigma_max, max(||H||_F, 1)^(N-1))."""
    return rank_cutoff(max(sing[0], max(frobenius(H), 1.0) ** (len(H) - 1)))


def _unit_base(H):
    """H as count_real_charpoly_variety ranks a given base point: scaled by the
    power of two nearest 1 / ||H||_F (H = 0 as it is)."""
    norm = frobenius(H)
    return H * 2.0 ** -round(math.log2(norm)) if norm else H


class TestSharedCutoffMargin:
    """The variety rank uses the shared machine-epsilon rank cutoff, so the
    smallest singular value of the exact Jacobian must clear it by 1e6."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_margin_at_chebyshev_base(self, N):
        """The default base diag(d): only the imaginary diagonal columns of the
        Jacobian are nonzero, and sigma_min / sigma_max falls about 2x per N.
        The margin holds against the variety cut, which ||H||_F^(N-1) sets from
        N = 4 on (128 against sigma_max 5.5 at N = 8)."""
        base = _chebyshev_base(N)
        jacobian = _exact_jacobian(base)
        imag_diagonal = 2 * (N + 1) * np.arange(N) + 1
        assert not np.delete(jacobian, imag_diagonal, axis=1).any()
        sing = np.linalg.svd(jacobian, compute_uv=False)
        assert sing[-1] > 1e6 * _variety_cut(base, sing)
        assert count_real_charpoly_variety(N) == 2 * N * N - N

    @pytest.mark.parametrize("N", range(2, 9))
    def test_first_base_succeeds_at_100_seeds(self, N):
        """Random self-adjoint base points, one per seed, given as base_point
        and ranked at _unit_base: sigma_min / sigma_max falls about 10x per N
        (4.6e-7 at worst over these bases at N = 8), and each base counts with
        the 1e6 margin over the cut of sigma_max (3.2e7 at worst), which also
        sets the variety cut at norm about 1."""
        for seed in range(100):
            base = _random_self_adjoint(N, np.random.default_rng(seed))
            assert count_real_charpoly_variety(N, base_point=base) == 2 * N * N - N
            base = _unit_base(base)
            sing = np.linalg.svd(_exact_jacobian(base), compute_uv=False)
            assert sing[-1] > 1e6 * rank_cutoff(sing[0])
            assert sing[-1] > 1e5 * _variety_cut(base, sing)


def _skewed_frame_pair(rng):
    """(T diag(lam) T^-1, T diag(lam') T^-1) for N in 2..6 distinct integers lam
    in -9..9, lam' = lam with lam_1 repeated as lam_0 (a derogatory base), and a
    complex frame T = U diag(s) V with U, V unitary and s in [1, 10]."""
    N = int(rng.integers(2, 7))
    lam = rng.choice(np.arange(-9.0, 10.0), size=N, replace=False)
    repeated = lam.copy()
    repeated[1] = lam[0]
    U, V = np.linalg.qr(rng.normal(size=(2, N, N)) + 1j * rng.normal(size=(2, N, N)))[0]
    T = U * rng.uniform(1.0, 10.0, N) @ V
    T_inv = np.linalg.inv(T)
    return T * lam @ T_inv, T * repeated @ T_inv


class TestSkewedDerogatoryBases:
    def test_cut_follows_the_adjugate_scale(self):
        """A skewed frame makes sigma_max of the Jacobian much smaller than the
        ||H||^(N-1) rounding in B_{N-1}: at the scale given, under a cut from
        sigma_max alone, 4 derogatory bases of these 500 counted 2 N^2 - N
        (sigma_N up to 5.4x that cut).  Ranked at _unit_base under the variety
        cut, every derogatory base is indeterminate, its sigma_N below 0.1x the
        cut (0.017x at most), and every non-derogatory twin counts, its sigma_N
        above 1e3x the cut (9.5e7x at least)."""
        rng = np.random.default_rng(5)
        for _ in range(500):
            H, derogatory = _skewed_frame_pair(rng)
            N = len(H)
            assert count_real_charpoly_variety(N, base_point=H) == 2 * N * N - N
            with pytest.raises(IndeterminateStructureError):
                count_real_charpoly_variety(N, base_point=derogatory)
            H, derogatory = _unit_base(H), _unit_base(derogatory)
            sing = np.linalg.svd(_exact_jacobian(H), compute_uv=False)
            assert sing[N - 1] > 1e3 * _variety_cut(H, sing)
            sing = np.linalg.svd(_exact_jacobian(derogatory), compute_uv=False)
            assert sing[N - 1] < 0.1 * _variety_cut(derogatory, sing)


@st.composite
def _jordan_in_complex_frame(draw, block_sizes):
    """T J T^-1 for J one Jordan block J_b(lambda_0), b drawn from block_sizes,
    plus diag(lambda_1, ...), the lambdas distinct integers, and a complex
    frame T = U diag(s) V with U, V unitary and s in [1, 10]: cond(T) <= 10."""
    b = draw(st.sampled_from(block_sizes))
    N = draw(st.integers(b, 6))
    eigs = draw(st.lists(st.integers(-5, 5), min_size=N - b + 1, max_size=N - b + 1, unique=True))
    J = np.diag(eigs[:1] * b + eigs[1:]) + np.diag([1.0] * (b - 1) + [0.0] * (N - b), 1)
    s = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=N, max_size=N)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, V = np.linalg.qr(rng.normal(size=(2, N, N)) + 1j * rng.normal(size=(2, N, N)))[0]
    T = U * s @ V
    return T @ J @ np.linalg.inv(T)


@st.composite
def _integer_jordan_bases(draw, derogatory=False):
    """P J P^-1, exact in floats, for an integer Jordan matrix J of size N <= 4
    (blocks of any sizes, eigenvalues in -2..2, so derogatory ones too; with
    derogatory, the first two blocks share an eigenvalue) and a unimodular
    integer P, a product of elementary matrices 1 +- e_ij."""
    N = draw(st.integers(2, 4))
    cuts = sorted(draw(st.sets(st.integers(1, N - 1), min_size=int(derogatory))))
    sizes = np.diff([0, *cuts, N])
    eigs = draw(st.lists(st.integers(-2, 2), min_size=len(sizes), max_size=len(sizes)))
    if derogatory:
        eigs[1] = eigs[0]
    chain = np.ones(N - 1, dtype=int)
    chain[np.array(cuts, dtype=int) - 1] = 0
    J = np.diag(np.repeat(eigs, sizes)) + np.diag(chain, 1)
    P, P_inv = np.eye(N, dtype=int), np.eye(N, dtype=int)
    for i, shift, c in draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(1, N - 1), st.sampled_from([-1, 1])),
                                     max_size=3)):
        E = np.eye(N, dtype=int)
        E[i, (i + shift) % N] = c
        P, P_inv = P @ E, (2 * np.eye(N, dtype=int) - E) @ P_inv
    return P @ J @ P_inv


def _minimal_polynomial_degree(H):
    """Exact degree of the minimal polynomial of an integer matrix: the rank of
    its powers 1, H, ..., H^N as vectors."""
    M = sympy.Matrix(H.tolist())
    return sympy.Matrix.hstack(*[(M ** k).reshape(M.rows ** 2, 1) for k in range(M.rows + 1)]).rank()


class TestBasePointContract:
    """A given base point counts 2 N^2 - N where the derivative has rank N and
    is indeterminate below: the rank is the degree of the minimal polynomial."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_jordan_in_complex_frame(block_sizes=(1,)))
    def test_diagonalizable_in_complex_frame(self, H):
        N = len(H)
        assert count_real_charpoly_variety(N, base_point=H) == 2 * N * N - N

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_jordan_in_complex_frame(block_sizes=(2, 3)))
    def test_one_jordan_block_in_complex_frame(self, H):
        N = len(H)
        assert count_real_charpoly_variety(N, base_point=H) == 2 * N * N - N

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_integer_jordan_bases())
    def test_rank_is_minimal_polynomial_degree(self, H):
        N, degree = len(H), _minimal_polynomial_degree(H)
        assert numerical_rank(_exact_jacobian(H.astype(complex))) == degree
        if degree == N:
            assert count_real_charpoly_variety(N, base_point=H) == 2 * N * N - N

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_jordan_in_complex_frame(block_sizes=(1, 2, 3)), st.integers(-40, 40))
    def test_same_count_at_every_scale(self, H, j):
        """The variety is a cone: 4^j H counts as H does, also where the
        Jacobian's rows, which grow as ||H||^(k-1), fall far below a cut of
        fixed size; and a base whose polynomial is not real is refused at
        every scale."""
        N, c = len(H), 4.0 ** j
        assert count_real_charpoly_variety(N, base_point=c * H) == 2 * N * N - N
        with pytest.raises(ContractError):
            count_real_charpoly_variety(N, base_point=c * (H + 1e-4j * np.eye(N)))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_integer_jordan_bases(derogatory=True))
    def test_derogatory_base_is_indeterminate(self, H):
        assert _minimal_polynomial_degree(H) < len(H)
        with pytest.raises(IndeterminateStructureError):
            count_real_charpoly_variety(len(H), base_point=H)


class TestWorkCount:
    def test_table_builds_no_nullspace_and_one_base_per_dimension(self, monkeypatch):
        """No rank_and_nullspace, no random generator: one adjugate pass on the
        Chebyshev diagonal bases of every dimension, zero-padded to max_dim."""
        calls, generators, bases = [], [], []
        for module in [m for name, m in sys.modules.items() if name.startswith("ptlab")]:
            original = getattr(module, "rank_and_nullspace", None)
            if original is not None:
                monkeypatch.setattr(module, "rank_and_nullspace",
                                    lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: generators.append(1) or default_rng(*a, **k))
        jacobian = counting._imag_coefficient_jacobian
        monkeypatch.setattr(counting, "_imag_coefficient_jacobian",
                            lambda H, coeffs: bases.append(H) or jacobian(H, coeffs))
        for max_dim in range(2, 9):
            bases.clear()
            assert all(r.match for r in table1_report(max_dim))
            assert calls == [] and generators == []
            assert len(bases) == 1 and bases[0].shape == (max_dim - 1, max_dim, max_dim)
            for N, H in enumerate(bases[0], start=2):
                expected = np.zeros((max_dim, max_dim), dtype=complex)
                expected[:N, :N] = _chebyshev_base(N)
                np.testing.assert_array_equal(H, expected)

    def test_table_svds_are_pair_blocks(self, monkeypatch):
        """table1_report takes two stacked SVDs whatever max_dim.  One factors the
        real systems of the six maps on the distinct blocks of its parities only,
        zero-padded to 8 x 4: the pair diagonals (1, 1), (1, -1) and, from N = 4
        on, (-1, -1), then the entries 1 and -1.  The other factors the
        zero-padded N x N Jacobian blocks of the variety rows, N = 2..max_dim."""
        shapes, factored = [], []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        singular_values = counting._block_singular_values
        monkeypatch.setattr(counting, "_block_singular_values",
                            lambda blocks: factored.append(blocks) or singular_values(blocks))
        for max_dim in range(2, 9):
            shapes.clear()
            factored.clear()
            assert all(r.match for r in table1_report(max_dim))
            assert len(shapes) == 2 and len(factored) == 1
            (pair_rows, _), (entry_rows, _) = factored[0]
            pairs = {(1.0, 1.0), (1.0, -1.0)} | ({(-1.0, -1.0)} if max_dim >= 4 else set())
            assert not pair_rows.imag.any() and not entry_rows.imag.any()
            assert sorted(map(tuple, pair_rows.real.tolist())) == sorted(pairs)
            assert sorted(entry_rows.real.ravel().tolist()) == [-1.0, 1.0]
            assert sorted(shapes) == sorted([(6, len(pairs) + 2, 8, 4), (max_dim - 1, max_dim, max_dim)])

    def test_table_reads_parity_blocks_in_closed_form(self, monkeypatch):
        """No block search and no parity stack: table1_report calls no np.unique
        and no np.diagonal, and its one np.eye lifts the Chebyshev diagonals (the
        old route built an (S, M, M) stack of parities from another).  One
        _parity_blocks call takes the (m, n) of every split, and the SVD kernel
        factors exactly what it returns."""
        called, parities, factored = {"unique": [], "diagonal": [], "eye": []}, [], []
        for name, calls in called.items():
            monkeypatch.setattr(np, name, lambda *a, _f=getattr(np, name), _c=calls, **k: _c.append(a) or _f(*a, **k))
        parity_blocks = counting._parity_blocks
        monkeypatch.setattr(counting, "_parity_blocks",
                            lambda ms, ns: parities.append(((ms, ns), parity_blocks(ms, ns))) or parities[-1][1])
        singular_values = counting._block_singular_values
        monkeypatch.setattr(counting, "_block_singular_values",
                            lambda blocks: factored.append(blocks) or singular_values(blocks))
        for max_dim in range(2, 9):
            for calls in (*called.values(), parities, factored):
                calls.clear()
            assert all(r.match for r in table1_report(max_dim))
            assert called == {"unique": [], "diagonal": [], "eye": [(max_dim,)]}
            splits = [(dim - n, n) for dim in range(2, max_dim + 1) for n in range(dim // 2 + 1)]
            assert len(parities) == 1 and list(zip(*parities[0][0])) == splits
            assert len(factored) == 1 and factored[0] is parities[0][1]
