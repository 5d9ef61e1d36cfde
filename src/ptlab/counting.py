"""Real-parameter counts of the matrix families, measured numerically.

Each family size is a nullspace dimension of the real-linearized defining
conditions; each operator-orbit size is the rank of a commutator map (group
dimension minus stabilizer dimension).  Only singular values are computed:
the counts need ranks, not bases.  At a diagonal base operator diag(p), each
of these maps sends a matrix supported on an entry pair {(a, b), (b, a)} to
one supported on the same pair, acting there as on the 2 x 2 principal block
with base diag(p_a, p_b) (a diagonal entry: the 1 x 1 block p_a).  So the real
system is block diagonal up to a permutation; it is ranked on blocks of at
most 8 x 4.  Every base operator here is a parity diag(1_m, -1_n), whose blocks
are five, with multiplicities in closed form: C(m, 2) pairs (1, 1), m n pairs
(1, -1), C(n, 2) pairs (-1, -1), m entries 1 and n entries -1.  The real
systems of all six maps (four family conditions, two orbit commutators) on the
blocks that some split of the table holds are factored in one stacked SVD, and
each split counts, per map, its blocks' singular values, times their
multiplicities, above the cut set by the largest among the blocks it holds.
The family of matrices with a real characteristic polynomial is a variety, not
a linear space: its dimension is 2 N^2 minus the rank of the exact derivative
of the imaginary-coefficient map (from the adjugate coefficients of Faddeev
and LeVerrier) where that rank is N, the implicit-function condition.  The
rank cut follows the larger of sigma_max and max(||H||_F, 1)^(N-1), the size
of the last adjugate coefficient and so of its rounding; the variety is a
cone, so a given base point is first scaled, exactly, by the power of two
nearest 1 / ||H||_F.  The default base point is diag(d) at the N Chebyshev
nodes cos(pi (k + 1/2) / N): real and distinct, so the polynomial is real,
and only the N imaginary diagonal directions move it, through a block of
determinant +- the Vandermonde of d.  The table builds these blocks for all
its dimensions in one adjugate pass on zero-padded diagonals and ranks them in
one more stacked SVD.

Expected closed forms, dimension N split as m + n where applicable:

    real symmetric          N (N + 1) / 2
    Hermitian               N^2
    PT / pseudo family      N^2           (matrices at a fixed operator)
    operator orbit          2 m n
    real-charpoly variety   2 N^2 - N
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, IndeterminateStructureError
from .numerics import as_square_matrix, frobenius, rank_cutoff, vectorize


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


# The maps see a base operator diag(p) as c = p[..., :, None] and r = p[..., None, :]
# (diag(p) H = c * H, H diag(p) = H * r).  A family is the kernel of its condition, an
# orbit the image of X -> X P0 - P0 X on gl(N, R) (for a parity) or u(N) (a metric).
_CONDITIONS = {
    FamilyKind.PT: lambda c, r, H: c * H - H.conj() * r,
    FamilyKind.PSEUDO: lambda c, r, H: c * H - H.conj().swapaxes(-1, -2) * r,
    FamilyKind.HERMITIAN: lambda c, r, H: H - H.conj().swapaxes(-1, -2),
    FamilyKind.REAL_SYMMETRIC: lambda c, r, H: np.concatenate([H - H.conj(), H - H.swapaxes(-1, -2)], axis=-2),
}
# (pair, diagonal) bases, on the entries (0, 1), (1, 0) of a 2 x 2 block and on a 1 x 1 block
_REAL_UNITS = (np.array([[[0, 1], [0, 0]], [[0, 1j], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1j, 0]]]),
               np.array([[[1]], [[1j]]]))
_LIE_ALGEBRAS = {
    FamilyKind.PT: (_REAL_UNITS[0][[0, 2]], _REAL_UNITS[1][:1]),
    FamilyKind.PSEUDO: (np.array([[[0, 1j], [1j, 0]], [[0, -1], [1, 0]]]) / np.sqrt(2.0), _REAL_UNITS[1][1:]),
}
_SUPPORTS = (~np.eye(2, dtype=bool), np.ones((1, 1), dtype=bool))


# The distinct blocks of a parity diag(1_m, -1_n): pair diagonals (p_a, p_b), a < b, then entries p_a.
_PARITY_PAIRS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
_PARITY_ENTRIES = np.array([[1.0], [-1.0]])


def _parity_blocks(ms, ns) -> tuple:
    """((pair diagonals, their (S, U) counts), (entries, their (S, V) counts)) of the
    parities diag(1_m, -1_n), one member per (m, n) of ms, ns: C(m, 2) pairs (1, 1),
    m n pairs (1, -1) and C(n, 2) pairs (-1, -1); m entries 1 and n entries -1.  Only
    the blocks some member holds are kept."""
    m, n = np.broadcast_arrays(ms, ns)
    counts = np.array([m * (m - 1) // 2, m * n, n * (n - 1) // 2, m, n]).reshape(5, -1).T
    if counts.min() < 0 or (m + n < 1).any():  # C(m, 2) >= 0 for every integer m
        raise ContractError("need m, n >= 0 and m + n >= 1")
    held = counts.any(axis=0)
    return ((_PARITY_PAIRS[held[:3]], counts[:, :3][:, held[:3]]),
            (_PARITY_ENTRIES[held[3:]], counts[:, 3:][:, held[3:]]))


def _commutator(c, r, X):
    return X * r - c * X


# The six maps in kernel order: the four family conditions, then the two orbit commutators.
_MAPS = tuple((_CONDITIONS[kind], _REAL_UNITS) for kind in FamilyKind) + tuple(
    (_commutator, _LIE_ALGEBRAS[kind]) for kind in _LIE_ALGEBRAS)
# Per map and block kind, the block's supported entries in every block-sized slab of the
# map's output (the real-symmetric condition stacks two slabs); the output shape depends
# on the block kind only, so a unit base gives it.
_MASKS = tuple(tuple(np.tile(support, (image(1.0, 1.0, basis).shape[-2] // len(support), 1))
                     for basis, support in zip(bases, _SUPPORTS)) for image, bases in _MAPS)


def _block_singular_values(blocks) -> np.ndarray:
    """(6, U, 4) singular values of the real system of X -> image(diag(p), X) over the
    block's basis, for each map of _MAPS on each of the U distinct pair, then diagonal,
    blocks p of a block set as _parity_blocks returns it: its supported entries
    (_MASKS), real parts then imaginary parts, zero-padded to 8 x 4 and factored in
    one stacked SVD.  No block is wide: the padding adds exact zeros."""
    stack = np.zeros((len(_MAPS), sum(len(p) for p, _ in blocks), 8, 4))
    start = 0
    for kind, (p, _) in enumerate(blocks):
        c, r, stop = p[:, None, :, None], p[:, None, None, :], start + len(p)
        for m, (image, bases) in enumerate(_MAPS):
            images = image(c, r, bases[kind])  # (U, basis, rows, cols), or without U if image ignores the base
            entries = images[..., _MASKS[m][kind]].swapaxes(-1, -2)
            k, w = entries.shape[-2:]
            stack[m, start:stop, :k, :w] = entries.real
            stack[m, start:stop, k:2 * k, :w] = entries.imag
        start = stop
    return np.linalg.svd(stack, compute_uv=False)


def _map_dims(blocks) -> np.ndarray:
    """(6, S) dimensions, in _MAPS order, at each of the S members of a block set as
    _parity_blocks returns it: the nullspace of each family condition, then the rank
    of each orbit commutator.  Each distinct block is factored once, and each member
    counts, per map, its blocks' singular values above the cut of the largest among
    them."""
    counts = np.concatenate([c for _, c in blocks], axis=1)
    sigma = _block_singular_values(blocks)
    cut = rank_cutoff(np.max((counts > 0) * sigma[:, None, :, 0], axis=-1))
    rank = np.sum(counts * np.sum(sigma[:, None] > cut[..., None, None], axis=-1), axis=-1)
    columns = sum(c.sum(axis=1) * len(basis) for (_, c), basis in zip(blocks, _REAL_UNITS))  # 2 N^2
    return np.concatenate([columns - rank[:len(FamilyKind)], rank[len(FamilyKind):]])


def count_matrix_family(kind: FamilyKind, m: int, n: int) -> int:
    """Nullspace dimension of the family's defining linear conditions over
    the 2 N^2 real coordinates of a complex N x N matrix."""
    return int(_map_dims(_parity_blocks(m, n))[list(FamilyKind).index(kind), 0])


def count_operator_orbit(kind: FamilyKind, m: int, n: int) -> int:
    """Orbit dimension of the base operator under its transformation group.

    Real similarities for the parity (stabilizer: block-diagonal real
    invertibles), unitaries for the indefinite metric (stabilizer: block
    unitaries); both equal the rank of X -> [X, P0] over the group's Lie
    algebra and come out 2 m n.
    """
    dims = _map_dims(_parity_blocks(m, n))[len(FamilyKind):, 0]
    return int(dict(zip(_LIE_ALGEBRAS, dims)).get(kind, 0))


def _charpoly_coefficients(roots: np.ndarray) -> np.ndarray:
    """Coefficients c_0 = 1, c_1, ..., c_N of the monic polynomial with the
    given roots (last axis), by the same root convolution as np.poly, run on
    a whole stack of root sets at once."""
    coeffs = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        coeffs[..., 1:k + 2] -= roots[..., k:k + 1] * coeffs[..., :k + 1]
    return coeffs


def _imag_coefficient_jacobian(H: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Exact (..., N, 2 N^2) real Jacobian of H -> (Im c_1, ..., Im c_N) in
    vectorize coordinates, where det(lambda - H) = sum_k c_k lambda^(N-k), for
    each matrix of a (..., N, N) stack and its (..., N + 1) coefficients.

    Jacobi's formula gives dc_k[E] = -tr(B_{k-1} E) with the adjugate
    coefficients B_0 = 1, B_k = H B_{k-1} + c_k 1 (Faddeev-LeVerrier).  A
    real direction E = e_ab contributes -Im (B_{k-1})_ba, an imaginary one
    E = i e_ab contributes -Re (B_{k-1})_ba: together the entries of
    -i conj(B_{k-1})^T.
    """
    N = H.shape[-1]
    B = np.zeros(H.shape[:-2] + (N, N, N), dtype=complex)
    flat = B.reshape(H.shape[:-2] + (N, N * N))  # a view: its diagonal entries step N + 1
    flat[..., 0, ::N + 1] = 1.0
    for k in range(1, N):
        B[..., k, :, :] = H @ B[..., k - 1, :, :]
        flat[..., k, ::N + 1] += coeffs[..., k, None]
    return vectorize(-1j * B.conj().swapaxes(-1, -2))


def _variety_dims(jacobians: np.ndarray, sizes, scales) -> np.ndarray:
    """2 N^2 minus the rank of each derivative of the imaginary-coefficient map in a
    zero-padded (S, M, w) stack, N the array sizes[s], ranked in one stacked SVD under their
    own cuts.  A cut follows the larger of sigma_max and scales[s] = max(||H||_F, 1)^(N-1),
    the size of the entries of B_{N-1} and so of their rounding: a skewed frame can make
    sigma_max much smaller.  Below rank N (a derogatory base point) the dimension is
    undecided."""
    sigma = np.linalg.svd(jacobians, compute_uv=False)
    rank = np.sum(sigma > rank_cutoff(np.maximum(sigma[:, :1], scales[:, None])), axis=1)
    if np.any(rank < sizes):
        raise IndeterminateStructureError("derivative of the imaginary-coefficient map is rank-deficient")
    return 2 * sizes * sizes - rank


def _chebyshev_variety_dims(sizes) -> np.ndarray:
    """Variety dimension for each size N at diag(d), d the N Chebyshev nodes, from
    the derivative's imaginary diagonal columns (its only nonzero ones there), in one
    adjugate pass on diagonals zero-padded to the largest size M: a padded base is
    block diagonal, so its rows k < N and columns a < N are those of size N."""
    sizes = np.asarray(sizes)[:, None]
    M = int(sizes.max())
    inside = np.arange(M) < sizes
    d = np.where(inside, np.cos(np.pi * (np.arange(M) + 0.5) / sizes), 0.0)
    jacobians = _imag_coefficient_jacobian(d[:, :, None] * np.eye(M), _charpoly_coefficients(d))
    scales = np.maximum(np.linalg.norm(d, axis=1), 1.0) ** (sizes[:, 0] - 1)
    return _variety_dims(jacobians[..., 1::2][..., ::M + 1] * (inside[:, :, None] & inside[:, None, :]), sizes[:, 0],
                         scales)


def count_real_charpoly_variety(N: int, base_point=None) -> int:
    """Dimension of {H : characteristic polynomial real} near a base point,
    by default diag of the N Chebyshev nodes: 2 N^2 minus the rank of the exact
    derivative of H -> Im(charpoly coefficients) there, the same at c H for
    every c > 0.  A given base point must have a real characteristic
    polynomial (else a ContractError); below rank N the dimension is an
    IndeterminateStructureError.
    """
    if N < 1:
        raise ContractError("need N >= 1")
    if base_point is None:
        return int(_chebyshev_variety_dims([N])[0])
    base = as_square_matrix(base_point, "base_point")
    if base.shape != (N, N):
        raise DimensionError(f"base_point must be {N}x{N}, got shape {base.shape}")
    norm = frobenius(base)
    if norm > 0:  # the variety is a cone: B / 2^round(log2 ||B||), of norm about 1, in two exact factors
        e = -round(math.log2(norm))  # (2^e alone overflows for a subnormal B)
        base = base * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)
    scale = max(frobenius(base), 1.0)
    coeffs = _charpoly_coefficients(np.linalg.eigvals(base))
    # c_k is a sum of k-fold eigenvalue products, so |c_k| <= C(N, k) scale^k
    if (np.abs(coeffs[1:].imag) > 1e-8 * scale ** np.arange(1, N + 1)).any():
        raise ContractError("base_point must have a real characteristic polynomial")
    return int(_variety_dims(_imag_coefficient_jacobian(base, coeffs)[None], np.array([N]),
                             np.array([scale ** (N - 1)]))[0])


def table1_report(max_dim: int) -> list:
    """Measured vs expected parameter counts for dimensions 2..max_dim.

    The merged family row is computed twice (parity route and metric route)
    and reported once; a disagreement between the two routes clears the match
    flag.  All (m, n) splits of each dimension are covered, and all are ranked
    together: the six maps on the five parity blocks take one stacked SVD.  The
    variety row of every dimension is ranked at its Chebyshev diagonal base, all
    in one adjugate pass and one more stacked SVD.
    """
    if max_dim < 2:
        raise ContractError("need max_dim >= 2")
    dims, ms, ns = zip(*[(dim, dim - n, n) for dim in range(2, max_dim + 1) for n in range(dim // 2 + 1)])
    maps = _map_dims(_parity_blocks(ms, ns)).tolist()  # _MAPS order: PT, pseudo, Hermitian, symmetric, 2 orbits
    variety = _chebyshev_variety_dims(range(2, max_dim + 1)).tolist()
    reports = []
    for N, m, n, pt, pseudo, hermitian, symmetric, pt_orbit, pseudo_orbit in zip(dims, ms, ns, *maps):
        if n == 0:  # these ignore the base operator: once per dimension
            expected = N * (N + 1) // 2
            reports += [CountReport(TableRow.REAL_SYMMETRIC, N, 0, symmetric, 0, symmetric, expected,
                                    symmetric == expected),
                        CountReport(TableRow.HERMITIAN, N, 0, hermitian, 0, hermitian, N * N, hermitian == N * N)]
        total, expected = pt + pt_orbit, N * N + 2 * m * n
        reports.append(CountReport(TableRow.PT_OR_PSEUDO, m, n, pt, pt_orbit, total, expected,
                                   pt == pseudo and pt_orbit == pseudo_orbit and total == expected))
        if n == N // 2:
            measured, expected = variety[N - 2], 2 * N * N - N
            reports.append(CountReport(TableRow.SELF_ADJOINT_OR_GEN_PT, N, 0, measured, 0, measured, expected,
                                       measured == expected))
    return reports


_TABLE_ROWS = tuple(TableRow)


def table_columns(reports) -> dict:
    """Per-dimension best-split totals in table row order
    (real symmetric, Hermitian, PT-or-pseudo, self-adjoint-or-generalized)."""
    best = {}
    for r in reports:
        totals = best.setdefault(r.m + r.n, {})
        row = _TABLE_ROWS.index(r.kind)  # found by identity: an enum member hashes in Python code
        totals[row] = max(totals.get(row, r.total), r.total)
    return {dim: tuple(best[dim][row] for row in range(len(_TABLE_ROWS))) for dim in sorted(best)}


CSV_COLUMNS = ("kind", "m", "n", "matrix_dim", "orbit_dim", "total", "expected", "match")


def report_rows(reports):
    for r in reports:
        yield (r.kind.value, r.m, r.n, r.measured_matrix_dim, r.measured_operator_orbit_dim,
               r.total, r.expected, r.match)
