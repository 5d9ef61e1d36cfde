"""Dense complex matrix kernels used by every other module.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): eigendecomposition with a deterministic ordering, SVD-based rank and
nullspace decisions with one audited cutoff, the matrix exponential, and the
real vectorization that turns complex matrices into flat real vectors for
parameter counting and linear constraint solves.

The eigenpairs of a single matrix H, or of adj(H), come from one shared
record per matrix and side (_eigenpairs): one LAPACK eig, memoized on the
matrix's bytes in a small LRU, with read-only values and vectors and the
singular values of the vectors taken on first use.  classify_spectrum,
find_gen_pt_operator and eigen_decompose read the H side, solve_metric_space
the adjoint side, and the transpose witnesses its conjugate (transpose(H) =
conj(adj(H)), and conjugation is exact), so one matrix taken through every
analysis costs two eigendecompositions.  What ptlab.intertwine derives from
a record lives on it too (_Eigenpairs.memo): the clusters of the sorted H
spectrum with their pairing and Jordan verdict, which every solver reads,
and on the adjoint side their map onto adj(H), the first cluster frame and
the Schur form of adj(H).  So each matrix is clustered once, on the H
side, and adj(H) takes one Schur decomposition.

scipy.linalg is imported on first use, through _scipy_linalg, by the two
routines that need it: the Schur form and its reordering in
ptlab.intertwine, taken only for a frame with a cluster of more than one
eigenvalue beside others, and matrix_exponential.  The QRs of the metric
and witness solvers come from numpy's own LAPACK (_orthonormal_columns).
Every other path runs on numpy alone, so `ptlab sweep`, `count`,
`construct` and `jordan` never load scipy, nor do `classify` and `convert`
on any other spectrum; `python -X importtime -c "import ptlab.cli"` shows
what an import costs.

All matrices in scope are small (desk scale, <= 64x64); no sparse paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ContractError, DimensionError, NumericalError

MACHINE_EPS = float(np.finfo(np.float64).eps)
_FOUR_SQRT_EPS = 4.0 * np.sqrt(MACHINE_EPS)
# Below this Frobenius norm every square of an entry underflows (to a
# subnormal or to zero); scaling such entries by a power of two is exact and
# lifts them clear.
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
_TINY_NORM_SCALE = 2.0 ** 600


@dataclass(frozen=True)
class ToleranceConfig:
    """The one tolerance of the cuts, rel_tol: each cut is a multiple of the
    norm of the matrix it judges.  Numerical rank decisions take no
    tolerance: they all cut at rank_cutoff."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not np.isfinite(self.rel_tol) or self.rel_tol < 0:
            raise ContractError(f"rel_tol must be a nonnegative finite real, got {self.rel_tol!r}")


DEFAULT_TOL = ToleranceConfig()


def rank_cutoff(sigma_max):
    """The rank cut of every numerical rank decision: 64 sigma_max eps,
    sigma_max the largest singular value (a float, or an array of them)."""
    return 64.0 * sigma_max * MACHINE_EPS


@lru_cache(maxsize=1)
def _scipy_linalg():
    """The scipy.linalg module, imported on the first call and kept by the
    cache after it, so a process that never needs a scipy routine never
    pays the import: about 0.25 s and 25 MB of resident memory on a 2-vCPU
    Xeon host."""
    import scipy.linalg

    return scipy.linalg


def _orthonormal_columns(A: np.ndarray) -> np.ndarray:
    """The thin Householder Q of an (m, k) array, m >= k: LAPACK's geqrf and
    orgqr (ungqr for complex A) from numpy's own lapack_lite, at
    scipy.linalg.lapack's default workspace max(3k, 1), so Q is bit for bit
    the one scipy returns.  (Past k = 128, under more than one BLAS thread,
    a complex Q may differ in its last bits: the two libraries' OpenBLAS
    builds split the threaded products of LAPACK's blocked path apart.)
    np.linalg.qr is no substitute: its optimal workspace takes wider blocks,
    which give another Q at large k, and its set-up costs more than the
    factorization at these sizes."""
    m, k = A.shape
    if np.iscomplexobj(A):
        geqrf, orgqr, dtype = lapack_lite.zgeqrf, lapack_lite.zungqr, complex
    else:
        geqrf, orgqr, dtype = lapack_lite.dgeqrf, lapack_lite.dorgqr, float
    q = np.array(A.T, dtype=dtype, order="C")  # column-major (m, k), factored in place
    lwork = max(3 * k, 1)
    tau, work = np.empty(k, dtype), np.empty(lwork, dtype)
    geqrf(m, k, q, m, tau, work, lwork, 0)
    orgqr(m, k, k, q, m, tau, work, lwork, 0)
    return q.T


def _scale(norm: float) -> float:
    """A cut's unit where it divides by a matrix norm or must not be 0: the norm, or 1.0 for H = 0."""
    return norm if norm > 0 else 1.0


def _reality_cut(tol: ToleranceConfig, scale):
    """Largest |Im| of an eigenvalue still counted as real at matrix norm scale (a float, or an array)."""
    return max(tol.rel_tol, _FOUR_SQRT_EPS) * scale


def _cluster_cut(tol: ToleranceConfig, scale, n: int):
    """Twice the largest eigenvalue disc radius of intertwine.eigen_clusters
    for an n x n matrix, and the gap unit of the stacked spectrum screen; a
    k-fold defective block smears its eigenvalues by about scale eps^(1/k).
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


def _upscaled_norm(a: np.ndarray) -> float:
    """Frobenius norm of entries whose sum of squares underflows."""
    return float(np.linalg.norm(a * _TINY_NORM_SCALE)) / _TINY_NORM_SCALE


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
    overflow, or those of a nonzero matrix of norm below about 1e-154
    underflow, the norm is taken again on rescaled entries, and a norm beyond
    the float range is a ContractError.

    numpy still warns about the overflow it recovers from: suppressing that
    here (np.errstate) would double the cost of this hot call on small
    matrices, so the CLI commands that load user matrices silence it once.
    """
    A = np.asarray(M)
    norm = float(np.linalg.norm(A))
    if norm == np.inf and np.isfinite(A).all():
        norm = _rescaled_norm(A)
    elif norm < _NORM_FLOOR and np.count_nonzero(A):
        norm = _upscaled_norm(A)
    return norm


def _root_sum_squares(F: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(F.real, F.real) + np.vecdot(F.imag, F.imag))


@np.errstate(over="raise", under="raise")
def frobenius_norms(S) -> np.ndarray:
    """Frobenius norms over the last two axes of an (..., r, c) stack; each is
    bit-equal to frobenius of that matrix (the same real and imaginary dot
    products, and the same rescaling where they overflow or underflow, here
    without a numpy warning)."""
    F = np.asarray(S, dtype=complex)
    F = F.reshape(F.shape[:-2] + (-1,))
    try:
        return _root_sum_squares(F)
    except FloatingPointError:  # a square overflowed or underflowed
        pass
    with np.errstate(over="ignore", under="ignore"):
        norms = np.array(_root_sum_squares(F))
        rows = F.reshape(-1, F.shape[-1])
        flat = norms.reshape(-1)
        for k in np.flatnonzero((flat == np.inf) & np.isfinite(rows).all(axis=-1)):
            flat[k] = _rescaled_norm(rows[k])
        for k in np.flatnonzero((flat < _NORM_FLOOR) & rows.any(axis=-1)):
            flat[k] = _upscaled_norm(rows[k])
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Eigenpairs:
    """Eigenvalues and unit right eigenvectors (columns) of one matrix in
    LAPACK's order, both read-only, with the matrix itself; sigma, the
    singular values of vectors, is computed on first use and shared by every
    reader, and memo keeps what other modules derive from the eigenpairs
    (ptlab.intertwine's clusters, frame and Schur form), under keys of
    their own."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    memo: dict = field(default_factory=dict)

    @cached_property
    def sigma(self) -> np.ndarray:
        return _read_only(np.linalg.svd(self.vectors, compute_uv=False))


@lru_cache(maxsize=8)
def _eig_record(data: bytes, n: int, adjoint: bool) -> _Eigenpairs:
    A = np.frombuffer(data, dtype=complex).reshape(n, n)
    R = _read_only(A.conj().T) if adjoint else A
    try:
        values, vectors = np.linalg.eig(R)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return _Eigenpairs(R, _read_only(values), _read_only(vectors))


def _eigenpairs(A: np.ndarray, adjoint: bool = False) -> _Eigenpairs:
    """The shared eigen record of a matrix validated by as_square_matrix, or
    with adjoint=True of adj(A): one np.linalg.eig per matrix and side while
    it stays among the last few asked for.  The record is keyed on A's
    bytes, so a matrix changed in place gets a fresh one."""
    return _eig_record(A.tobytes(), A.shape[0], adjoint)


def eigen_decompose(M, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvalues and right eigenvectors, sorted lexicographically by (Re, Im).

    Returns (eigenvalues, vectors) with vectors[:, k] the unit eigenvector for
    eigenvalues[k], taken from M's shared eigen record (_eigenpairs).  The
    ordering is deterministic so downstream golden-file tests stay stable.
    """
    A = as_square_matrix(M)
    record = _eigenpairs(A)
    order = np.lexsort((record.values.imag, record.values.real))
    values = record.values[order]
    vectors = record.vectors[:, order]
    scale = frobenius(A)
    residual = np.linalg.norm(A @ vectors - vectors * values[np.newaxis, :], axis=0)
    bound = max(tol.rel_tol, 64.0 * MACHINE_EPS) * scale
    if np.any(residual > bound):  # pragma: no cover - defensive
        raise NumericalError(f"eigenpair residual {residual.max():.3e} exceeds {bound:.3e}")
    return values, vectors


def _finite_real_matrix(L, name: str) -> np.ndarray:
    A = np.asarray(L, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d real matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ContractError(f"{name} requires finite entries")
    return A


def numerical_rank(L) -> int:
    """Numerical rank of a real matrix, from its singular values alone.

    The rank cut is relative to the largest singular value; the zero matrix
    has rank 0.
    """
    A = _finite_real_matrix(L, "numerical_rank")
    if A.size == 0 or not np.any(A):
        return 0
    return _numerical_rank(np.linalg.svd(A, compute_uv=False), None)


def rank_and_nullspace(L, scale: float | None = None):
    """Numerical rank and an orthonormal nullspace basis of a real matrix.

    Returns (rank, basis) where basis has one column per nullspace direction.
    The rank cut is relative to scale when given (the norm of the matrix the
    system was built from, whose rounding sets its noise floor), else to the
    largest singular value.
    """
    A = _finite_real_matrix(L, "rank_and_nullspace")
    if A.size == 0 or not np.any(A):
        return 0, np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])  # vt square either way; U unread
    rank = _numerical_rank(s, scale)
    return rank, vt[rank:].T.copy()


def _numerical_rank(s: np.ndarray, scale: float | None) -> int:
    """Count of the singular values s (descending) above the shared rank cut."""
    if not s.size:
        return 0
    return int(np.sum(s > rank_cutoff(s[0] if scale is None else scale)))


def nullspace_complex(L, scale: float | None = None) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a complex matrix; the rank
    cut is taken as in rank_and_nullspace."""
    A = np.asarray(L, dtype=complex)
    if A.size == 0 or not np.any(A):
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])  # vh square either way; U unread
    rank = _numerical_rank(s, scale)
    return vh[rank:].conj().T.copy()


def matrix_exponential(A) -> np.ndarray:
    """exp(A) by scaling-and-squaring (scipy.linalg.expm, imported on the
    first nonzero A); exp(0) is exactly the identity."""
    M = as_square_matrix(A)
    if not np.any(M):
        return np.eye(M.shape[0], dtype=complex)
    return np.asarray(_scipy_linalg().expm(M), dtype=complex)


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


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices as an
    (n^2, n, n) stack: the diagonal units, then for each k < l the real and
    the imaginary symmetric pair; read-only.  The n^4 entries of a basis up
    to n = 16 (1 MiB) are built once while it stays among the last few
    asked for; larger ones, asked for by the dense one-cluster solves whose
    n^6 cost dwarfs them, are built on each call and not kept."""
    return _kept_hermitian_basis(n) if n <= 16 else _hermitian_basis(n)


def _hermitian_basis(n: int) -> np.ndarray:
    rows, cols = np.triu_indices(n, 1)
    real = n + 2 * np.arange(rows.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[real, rows, cols] = inv_sqrt2
    basis[real, cols, rows] = inv_sqrt2
    basis[real + 1, rows, cols] = 1j * inv_sqrt2
    basis[real + 1, cols, rows] = -1j * inv_sqrt2
    return _read_only(basis)


_kept_hermitian_basis = lru_cache(maxsize=8)(_hermitian_basis)
