"""Dense complex matrix kernels used by every other module.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): eigendecomposition with a deterministic ordering, SVD-based rank and
nullspace decisions with one audited cutoff, the matrix exponential, and the
real vectorization that turns complex matrices into flat real vectors for
parameter counting and linear constraint solves.

All matrices in scope are small (desk scale, <= 64x64); no sparse paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractError, DimensionError, NumericalError

MACHINE_EPS = float(np.finfo(np.float64).eps)
_FOUR_SQRT_EPS = 4.0 * np.sqrt(MACHINE_EPS)


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared tolerance knobs.

    rank_tol_factor multiplies (largest singular value * machine epsilon)
    for every numerical rank decision, so all parameter counts hang off a
    single audited cutoff.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    rank_tol_factor: float = 64.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "rank_tol_factor"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ContractError(f"{name} must be a nonnegative finite real, got {value!r}")

    def rank_cutoff(self, sigma_max: float) -> float:
        return self.rank_tol_factor * sigma_max * MACHINE_EPS


DEFAULT_TOL = ToleranceConfig()


def _reality_cut(tol: ToleranceConfig, scale):
    """Largest |Im| of an eigenvalue still counted as real, at matrix norm scale
    (a float, or an array of scales giving an array of cuts).  For scale >= 0,
    max(a, b) * scale is bit-equal to max(a * scale, b * scale): rounding is
    monotone."""
    return np.maximum(tol.abs_tol, max(tol.rel_tol, _FOUR_SQRT_EPS) * scale)


def _cluster_cut(tol: ToleranceConfig, scale, n: int):
    """Eigenvalue gap below which an n x n spectrum merges into one cluster;
    a k-fold defective block smears its eigenvalues by about scale eps^(1/k).
    scale may be an array of scales, one per matrix of a stack."""
    return max(10.0 * tol.rel_tol, 4.0 * MACHINE_EPS ** (1.0 / n)) * scale


def as_matrix(M, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Validate and return M as a finite complex128 2-d array, or with
    stack=True as a (K, r, c) stack of such matrices."""
    A = np.asarray(M, dtype=complex)
    ndim = 3 if stack else 2
    if A.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got ndim={A.ndim}")
    if A.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.isfinite(A).all():
        raise ContractError(f"{name} contains NaN or Inf entries")
    return A


def as_square_matrix(M, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    A = as_matrix(M, name, stack=stack)
    if A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def _rescaled_norm(a: np.ndarray) -> float:
    """Frobenius norm of finite entries whose sum of squares overflows,
    taken as s * ||a / s|| with s the largest |Re| or |Im| of an entry."""
    s = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    norm = s * float(np.linalg.norm(a / s))
    if norm == np.inf:
        raise ContractError("Frobenius norm exceeds the float range")
    return norm


def frobenius(M) -> float:
    """Frobenius norm; where the squares of entries beyond about 1e154
    overflow, the norm is taken again on rescaled entries, and a norm beyond
    the float range is a ContractError.

    numpy still warns about the overflow it recovers from: suppressing that
    (np.errstate) would double the cost of this hot call on small matrices.
    """
    A = np.asarray(M)
    norm = float(np.linalg.norm(A))
    if norm == np.inf and np.isfinite(A).all():
        norm = _rescaled_norm(A)
    return norm


def _root_sum_squares(F: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(F.real, F.real) + np.vecdot(F.imag, F.imag))


@np.errstate(over="raise")
def frobenius_norms(S) -> np.ndarray:
    """Frobenius norms over the last two axes of an (..., r, c) stack; each is
    bit-equal to frobenius of that matrix (the same real and imaginary dot
    products, and the same rescaling where they overflow, here without a
    numpy warning)."""
    F = np.asarray(S, dtype=complex)
    F = F.reshape(F.shape[:-2] + (-1,))
    try:
        return _root_sum_squares(F)
    except FloatingPointError:  # a sum of squares overflowed
        pass
    with np.errstate(over="ignore"):
        norms = np.array(_root_sum_squares(F))
    flat, rows = norms.reshape(-1), F.reshape(-1, F.shape[-1])
    for k in np.flatnonzero((flat == np.inf) & np.isfinite(rows).all(axis=-1)):
        flat[k] = _rescaled_norm(rows[k])
    return norms


def vectorize(M) -> np.ndarray:
    """Complex matrix -> flat real vector, interleaved (Re, Im), row-major.

    The last two axes are flattened, so a (k, r, c) stack of matrices gives a
    (k, 2 r c) array of vectors.  The round trip through devectorize is
    bit-exact.
    """
    A = np.array(M, dtype=complex, order="C")  # a fresh copy: the view below aliases nothing
    lead = A.shape[:-2] if A.ndim > 2 else ()
    return A.reshape(lead + (-1,)).view(float)


def devectorize(vec, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.size != 2 * rows * cols:
        raise DimensionError(f"expected {2 * rows * cols} reals for a {rows}x{cols} matrix, got {v.size}")
    return (v[0::2] + 1j * v[1::2]).reshape(rows, cols)


def eigen_decompose(M, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvalues and right eigenvectors, sorted lexicographically by (Re, Im).

    Returns (eigenvalues, vectors) with vectors[:, k] the unit eigenvector for
    eigenvalues[k].  The ordering is deterministic so downstream golden-file
    tests stay stable.
    """
    A = as_square_matrix(M)
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    scale = frobenius(A)
    residual = np.linalg.norm(A @ vectors - vectors * values[np.newaxis, :], axis=0)
    bound = max(tol.rel_tol * max(scale, 1.0), 64.0 * MACHINE_EPS)
    if np.any(residual > bound):  # pragma: no cover - defensive
        raise NumericalError(f"eigenpair residual {residual.max():.3e} exceeds {bound:.3e}")
    return values, vectors


def rank_and_nullspace(L, tol: ToleranceConfig = DEFAULT_TOL):
    """Numerical rank and an orthonormal nullspace basis of a real matrix.

    Returns (rank, basis) where basis has one column per nullspace direction.
    """
    A = np.asarray(L, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d real matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ContractError("rank_and_nullspace requires finite entries")
    if A.size == 0 or not np.any(A):
        cols = A.shape[1] if A.ndim == 2 else 0
        return 0, np.eye(cols)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    cutoff = tol.rank_cutoff(s[0]) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return rank, vt[rank:].T.copy()


def nullspace_complex(L, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a complex matrix."""
    A = np.asarray(L, dtype=complex)
    if A.size == 0 or not np.any(A):
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    cutoff = tol.rank_cutoff(s[0]) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T.copy()


def matrix_exponential(A) -> np.ndarray:
    """exp(A) by scaling-and-squaring (scipy); exp(0) is exactly the identity."""
    M = as_square_matrix(A)
    if not np.any(M):
        return np.eye(M.shape[0], dtype=complex)
    return np.asarray(scipy.linalg.expm(M), dtype=complex)


def solve_or_raise(T, B=None):
    """T^{-1} B (or T^{-1}), raising NumericalError when T is singular."""
    A = as_square_matrix(T, "transformation")
    n = A.shape[0]
    sigma = np.linalg.svd(A, compute_uv=False)
    if sigma[-1] <= 64.0 * n * MACHINE_EPS * sigma[0]:
        raise NumericalError(f"transformation is singular to working precision (cond ~ {sigma[0] / max(sigma[-1], 1e-300):.2e})")
    rhs = np.eye(n, dtype=complex) if B is None else np.asarray(B, dtype=complex)
    return np.linalg.solve(A, rhs)


def needs_sign_flip(Q: np.ndarray) -> bool:
    """Overall-sign convention for returned operators: True when the first
    diagonal entry of Q with |Re| > 1e-12 is negative."""
    for entry in np.diagonal(Q).real:
        if abs(entry) > 1e-12:
            return bool(entry < 0)
    return False


def real_basis(rows: int, cols: int) -> np.ndarray:
    """(2 rows cols, rows, cols) stack devectorizing each real unit vector:
    unit real entries and unit imaginary entries, in vectorize order."""
    return np.eye(2 * rows * cols).view(complex).reshape(-1, rows, cols)


def real_matrix_of_map(fn, rows: int, cols: int) -> np.ndarray:
    """Real matrix of a real-linear map on complex matrices.

    fn maps a (k, rows, cols) stack of complex matrices to a stack of complex
    matrices of fixed shape; it is called once, on real_basis(rows, cols),
    and the result acts on vectorize(...) coordinates.  Conjugations inside
    fn are allowed since the basis is real.
    """
    return vectorize(fn(real_basis(rows, cols))).T


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices as an
    (n^2, n, n) stack: the diagonal units, then for each k < l the real and
    the imaginary symmetric pair."""
    rows, cols = np.triu_indices(n, 1)
    real = n + 2 * np.arange(rows.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[real, rows, cols] = inv_sqrt2
    basis[real, cols, rows] = inv_sqrt2
    basis[real + 1, rows, cols] = 1j * inv_sqrt2
    basis[real + 1, cols, rows] = -1j * inv_sqrt2
    return basis


def antihermitian_basis(n: int) -> np.ndarray:
    return 1j * hermitian_basis(n)
