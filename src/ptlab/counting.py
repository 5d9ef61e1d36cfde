"""Real-parameter counts of the matrix families, measured numerically.

Each family size is a nullspace dimension of the real-linearized defining
conditions; each operator-orbit size is the rank of a commutator map (group
dimension minus stabilizer dimension).  The family of matrices with a real
characteristic polynomial is a variety, not a linear space, so its dimension
comes from the rank of a finite-difference derivative of the
imaginary-coefficient map at a smooth base point.

Expected closed forms, dimension N split as m + n where applicable:

    real symmetric          N (N + 1) / 2
    Hermitian               N^2
    PT / pseudo family      N^2           (matrices at a fixed operator)
    operator orbit          2 m n
    real-charpoly variety   2 N^2 - N
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IndeterminateStructureError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    antihermitian_basis,
    as_square_matrix,
    frobenius,
    rank_and_nullspace,
    real_basis,
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
    _, null = rank_and_nullspace(system, tol)
    return null.shape[1]


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
    rank, _ = rank_and_nullspace(vectorize(generators @ P0 - P0 @ generators).T, tol)
    return rank


def _charpoly_imag_coefficients(stack: np.ndarray) -> np.ndarray:
    """Imaginary parts of the N trailing characteristic-polynomial
    coefficients of each matrix in a (K, N, N) stack, shape (K, N).

    The monic polynomial is built from the eigenvalues by the same root
    convolution as np.poly, run on all K matrices at once.
    """
    roots = np.linalg.eigvals(stack)
    coeffs = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        coeffs[..., 1:k + 2] -= roots[..., k:k + 1] * coeffs[..., :k + 1]
    return coeffs[..., 1:].imag


def _random_self_adjoint(N: int, rng) -> np.ndarray:
    params = DiagMetricSelfAdjointParams(
        omegas=rng.uniform(0.5, 2.0, size=N),
        a=rng.normal(size=(N, N)),
        b=rng.normal(size=(N, N)),
    )
    return construct_self_adjoint_from_diag_metric(params)


# Finite-difference Jacobians carry ~1e-10 relative noise, far above the
# machine-epsilon rank cutoff; the nonzero singular values are O(1) at a
# simple-spectrum base point, so one loose dedicated cutoff is safe.
FD_RANK_CUTOFF = 1e-6


def count_real_charpoly_variety(N: int, base_point=None, tol: ToleranceConfig = DEFAULT_TOL,
                                seed: int = 20240601, attempts: int = 8) -> int:
    """Dimension of {H : characteristic polynomial real} near a base point.

    Measured as 2 N^2 minus the rank of the central finite-difference
    derivative of H -> Im(charpoly coefficients).  The base point must have a
    real characteristic polynomial and simple spectrum; a rank-deficient
    derivative triggers retries at fresh random self-adjoint base points and,
    past the attempt budget, an indeterminate error.
    """
    if N < 1:
        raise ContractError("need N >= 1")
    rng = np.random.default_rng(seed)
    bases = []
    if base_point is not None:
        bases.append(as_square_matrix(base_point, "base_point"))
    while len(bases) < attempts:
        bases.append(_random_self_adjoint(N, rng))

    for base in bases:
        scale = max(frobenius(base), 1.0)
        if np.max(np.abs(_charpoly_imag_coefficients(base[None]))) > 1e-8 * scale ** N:
            continue
        eigs = np.linalg.eigvals(base)
        gaps = np.abs(eigs[:, None] - eigs[None, :])
        gaps[np.eye(N, dtype=bool)] = np.inf
        if N > 1 and gaps.min() < 1e-6 * scale:
            continue
        h = 1e-6 * scale
        steps = h * real_basis(N, N)
        imag = _charpoly_imag_coefficients(np.concatenate([base + steps, base - steps]))
        jac = ((imag[:len(steps)] - imag[len(steps):]) / (2.0 * h)).T
        sing = np.linalg.svd(jac, compute_uv=False)
        rank = int(np.sum(sing > FD_RANK_CUTOFF * max(sing[0], 1e-300)))
        if rank == N:
            return 2 * N * N - rank
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
        rs = count_matrix_family(FamilyKind.REAL_SYMMETRIC, dim, 0, tol)
        reports.append(CountReport(
            kind=TableRow.REAL_SYMMETRIC, m=dim, n=0,
            measured_matrix_dim=rs, measured_operator_orbit_dim=0,
            total=rs, expected=_closed_form(TableRow.REAL_SYMMETRIC, dim, 0),
            match=rs == _closed_form(TableRow.REAL_SYMMETRIC, dim, 0),
        ))
        hm = count_matrix_family(FamilyKind.HERMITIAN, dim, 0, tol)
        reports.append(CountReport(
            kind=TableRow.HERMITIAN, m=dim, n=0,
            measured_matrix_dim=hm, measured_operator_orbit_dim=0,
            total=hm, expected=_closed_form(TableRow.HERMITIAN, dim, 0),
            match=hm == _closed_form(TableRow.HERMITIAN, dim, 0),
        ))
        for n in range(0, dim // 2 + 1):
            m = dim - n
            pt_dim = count_matrix_family(FamilyKind.PT, m, n, tol)
            ps_dim = count_matrix_family(FamilyKind.PSEUDO, m, n, tol)
            pt_orbit = count_operator_orbit(FamilyKind.PT, m, n, tol)
            ps_orbit = count_operator_orbit(FamilyKind.PSEUDO, m, n, tol)
            expected = _closed_form(TableRow.PT_OR_PSEUDO, m, n)
            agree = pt_dim == ps_dim and pt_orbit == ps_orbit
            total = pt_dim + pt_orbit
            reports.append(CountReport(
                kind=TableRow.PT_OR_PSEUDO, m=m, n=n,
                measured_matrix_dim=pt_dim, measured_operator_orbit_dim=pt_orbit,
                total=total, expected=expected,
                match=agree and total == expected,
            ))
        sa = count_real_charpoly_variety(dim, tol=tol, seed=seed)
        reports.append(CountReport(
            kind=TableRow.SELF_ADJOINT_OR_GEN_PT, m=dim, n=0,
            measured_matrix_dim=sa, measured_operator_orbit_dim=0,
            total=sa, expected=_closed_form(TableRow.SELF_ADJOINT_OR_GEN_PT, dim, 0),
            match=sa == _closed_form(TableRow.SELF_ADJOINT_OR_GEN_PT, dim, 0),
        ))
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
