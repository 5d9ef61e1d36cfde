"""Real-parameter counts of the matrix families, measured numerically.

Each family size is a nullspace dimension of the real-linearized defining
conditions; each operator-orbit size is the rank of a commutator map (group
dimension minus stabilizer dimension).  Only singular values are computed:
the counts need ranks, not bases.  The family of matrices with a real
characteristic polynomial is a variety, not a linear space, so its dimension
comes from the rank of the exact derivative of the imaginary-coefficient map
at a smooth base point, read off the adjugate coefficients of Faddeev and
LeVerrier.

Expected closed forms, dimension N split as m + n where applicable:

    real symmetric          N (N + 1) / 2
    Hermitian               N^2
    PT / pseudo family      N^2           (matrices at a fixed operator)
    operator orbit          2 m n
    real-charpoly variety   2 N^2 - N
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, IndeterminateStructureError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    antihermitian_basis,
    as_square_matrix,
    frobenius,
    numerical_rank,
    real_matrix_of_map,
    vectorize,
)
from .symmetry import DiagMetricSelfAdjointParams, construct_self_adjoint_from_diag_metric


class FamilyKind(enum.Enum):
    PT = "pt"
    PSEUDO = "pseudo"
    HERMITIAN = "hermitian"
    REAL_SYMMETRIC = "real_symmetric"


class TableRow(enum.Enum):
    REAL_SYMMETRIC = "real_symmetric"
    HERMITIAN = "hermitian"
    PT_OR_PSEUDO = "pt_or_pseudo"
    SELF_ADJOINT_OR_GEN_PT = "self_adjoint_or_gen_pt"


@dataclass(frozen=True)
class CountReport:
    kind: TableRow
    m: int
    n: int
    measured_matrix_dim: int
    measured_operator_orbit_dim: int
    total: int
    expected: int
    match: bool


def _diag_parity(m: int, n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(n)])).astype(complex)


def count_matrix_family(kind: FamilyKind, m: int, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Nullspace dimension of the family's defining linear conditions over
    the 2 N^2 real coordinates of a complex N x N matrix."""
    N = m + n
    if N < 1:
        raise ContractError("need m + n >= 1")
    P0 = _diag_parity(m, n)

    # each condition maps a (k, N, N) stack of matrices
    if kind is FamilyKind.PT:
        def condition(H):
            return P0 @ H - H.conj() @ P0
    elif kind is FamilyKind.PSEUDO:
        def condition(H):
            return P0 @ H - H.conj().swapaxes(-1, -2) @ P0
    elif kind is FamilyKind.HERMITIAN:
        def condition(H):
            return H - H.conj().swapaxes(-1, -2)
    else:
        def condition(H):
            return np.concatenate([H - H.conj(), H - H.swapaxes(-1, -2)], axis=-2)

    system = real_matrix_of_map(condition, N, N)
    return system.shape[1] - numerical_rank(system, tol)


def count_operator_orbit(kind: FamilyKind, m: int, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Orbit dimension of the base operator under its transformation group.

    Real similarities for the parity (stabilizer: block-diagonal real
    invertibles), unitaries for the indefinite metric (stabilizer: block
    unitaries); both equal the rank of X -> [X, P0] over the group's Lie
    algebra and come out 2 m n.
    """
    N = m + n
    if N < 1:
        raise ContractError("need m + n >= 1")
    if kind not in (FamilyKind.PT, FamilyKind.PSEUDO):
        return 0
    P0 = _diag_parity(m, n)
    if kind is FamilyKind.PT:
        generators = np.eye(N * N, dtype=complex).reshape(N * N, N, N)
    else:
        generators = antihermitian_basis(N)
    return numerical_rank(vectorize(generators @ P0 - P0 @ generators).T, tol)


def _charpoly_coefficients(roots: np.ndarray) -> np.ndarray:
    """Coefficients c_0 = 1, c_1, ..., c_N of the monic polynomial with the
    given roots (last axis), by the same root convolution as np.poly, run on
    a whole stack of root sets at once."""
    coeffs = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        coeffs[..., 1:k + 2] -= roots[..., k:k + 1] * coeffs[..., :k + 1]
    return coeffs


def _charpoly_imag_coefficients(stack: np.ndarray) -> np.ndarray:
    """(K, N) imaginary parts of c_1..c_N for each matrix of a (K, N, N) stack."""
    return _charpoly_coefficients(np.linalg.eigvals(stack))[..., 1:].imag


def _imag_coefficient_jacobian(H: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Exact (N, 2 N^2) real Jacobian of H -> (Im c_1, ..., Im c_N) in
    vectorize coordinates, where det(lambda - H) = sum_k c_k lambda^(N-k).

    Jacobi's formula gives dc_k[E] = -tr(B_{k-1} E) with the adjugate
    coefficients B_0 = 1, B_k = H B_{k-1} + c_k 1 (Faddeev-LeVerrier).  A
    real direction E = e_ab contributes -Im (B_{k-1})_ba, an imaginary one
    E = i e_ab contributes -Re (B_{k-1})_ba: together the entries of
    -i conj(B_{k-1})^T.
    """
    N = H.shape[0]
    B = np.empty((N, N, N), dtype=complex)
    B[0] = np.eye(N)
    for k in range(1, N):
        B[k] = H @ B[k - 1]
        B[k].flat[::N + 1] += coeffs[k]
    return vectorize(-1j * B.conj().swapaxes(-1, -2))


def _random_self_adjoint(N: int, rng) -> np.ndarray:
    params = DiagMetricSelfAdjointParams(
        omegas=rng.uniform(0.5, 2.0, size=N),
        a=rng.normal(size=(N, N)),
        b=rng.normal(size=(N, N)),
    )
    return construct_self_adjoint_from_diag_metric(params)


def count_real_charpoly_variety(N: int, base_point=None, tol: ToleranceConfig = DEFAULT_TOL,
                                seed: int = 20240601, attempts: int = 8) -> int:
    """Dimension of {H : characteristic polynomial real} near a base point.

    Measured as 2 N^2 minus the rank of the exact derivative of
    H -> Im(charpoly coefficients), built from the adjugate coefficients of
    the base point.  The base point must have a real characteristic
    polynomial and simple spectrum; a rank-deficient derivative triggers
    retries at fresh random self-adjoint base points and, past the attempt
    budget, an indeterminate error.
    """
    if N < 1:
        raise ContractError("need N >= 1")
    rng = np.random.default_rng(seed)
    given = [] if base_point is None else [as_square_matrix(base_point, "base_point")]
    if given and given[0].shape != (N, N):
        raise DimensionError(f"base_point must be {N}x{N}, got shape {given[0].shape}")
    fresh = (_random_self_adjoint(N, rng) for _ in range(attempts - len(given)))  # built only when reached
    for base in itertools.chain(given, fresh):
        scale = max(frobenius(base), 1.0)
        eigs = np.linalg.eigvals(base)
        coeffs = _charpoly_coefficients(eigs)
        # c_k is a sum of k-fold eigenvalue products, so |c_k| <= C(N, k) scale^k
        if (np.abs(coeffs[1:].imag) > 1e-8 * scale ** np.arange(1, N + 1)).any():
            continue
        gaps = np.abs(eigs[:, None] - eigs[None, :])
        gaps[np.eye(N, dtype=bool)] = np.inf
        if N > 1 and gaps.min() < 1e-6 * scale:
            continue
        if numerical_rank(_imag_coefficient_jacobian(base, coeffs), tol) == N:
            return 2 * N * N - N
    raise IndeterminateStructureError(
        f"derivative of the imaginary-coefficient map stayed rank-deficient over {attempts} base points"
    )


def _closed_form(kind: TableRow, m: int, n: int) -> int:
    N = m + n
    if kind is TableRow.REAL_SYMMETRIC:
        return N * (N + 1) // 2
    if kind is TableRow.HERMITIAN:
        return N * N
    if kind is TableRow.PT_OR_PSEUDO:
        return N * N + 2 * m * n
    return 2 * N * N - N


def _report(kind: TableRow, m: int, n: int, matrix_dim: int, orbit_dim: int = 0, agree: bool = True) -> CountReport:
    total = matrix_dim + orbit_dim
    expected = _closed_form(kind, m, n)
    return CountReport(kind=kind, m=m, n=n, measured_matrix_dim=matrix_dim, measured_operator_orbit_dim=orbit_dim,
                       total=total, expected=expected, match=agree and total == expected)


def table1_report(max_dim: int, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 20240601) -> list:
    """Measured vs expected parameter counts for dimensions 2..max_dim.

    The merged family row is computed twice (parity route and metric route)
    and reported once; a disagreement between the two routes clears the match
    flag.  All (m, n) splits of each dimension are covered.
    """
    if max_dim < 2:
        raise ContractError("need max_dim >= 2")
    reports = []
    for dim in range(2, max_dim + 1):
        reports.append(_report(TableRow.REAL_SYMMETRIC, dim, 0,
                               count_matrix_family(FamilyKind.REAL_SYMMETRIC, dim, 0, tol)))
        reports.append(_report(TableRow.HERMITIAN, dim, 0, count_matrix_family(FamilyKind.HERMITIAN, dim, 0, tol)))
        for n in range(0, dim // 2 + 1):
            m = dim - n
            pt_dim = count_matrix_family(FamilyKind.PT, m, n, tol)
            ps_dim = count_matrix_family(FamilyKind.PSEUDO, m, n, tol)
            pt_orbit = count_operator_orbit(FamilyKind.PT, m, n, tol)
            ps_orbit = count_operator_orbit(FamilyKind.PSEUDO, m, n, tol)
            reports.append(_report(TableRow.PT_OR_PSEUDO, m, n, pt_dim, pt_orbit,
                                   agree=pt_dim == ps_dim and pt_orbit == ps_orbit))
        reports.append(_report(TableRow.SELF_ADJOINT_OR_GEN_PT, dim, 0,
                               count_real_charpoly_variety(dim, tol=tol, seed=seed)))
    return reports


def table_columns(reports) -> dict:
    """Per-dimension best-split totals in table row order
    (real symmetric, Hermitian, PT-or-pseudo, self-adjoint-or-generalized)."""
    dims = sorted({r.m + r.n for r in reports})
    columns = {}
    for dim in dims:
        row = []
        for kind in (TableRow.REAL_SYMMETRIC, TableRow.HERMITIAN, TableRow.PT_OR_PSEUDO, TableRow.SELF_ADJOINT_OR_GEN_PT):
            entries = [r for r in reports if r.kind is kind and r.m + r.n == dim]
            row.append(max(r.total for r in entries))
        columns[dim] = tuple(row)
    return columns


CSV_COLUMNS = ("kind", "m", "n", "matrix_dim", "orbit_dim", "total", "expected", "match")


def report_rows(reports):
    for r in reports:
        yield (r.kind.value, r.m, r.n, r.measured_matrix_dim, r.measured_operator_orbit_dim,
               r.total, r.expected, r.match)
