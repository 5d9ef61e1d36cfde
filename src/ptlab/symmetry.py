"""Membership checks and canonical constructors for the three matrix classes.

A matrix H belongs to a class when an operator O of the right family
intertwines it the right way:

* parity-conjugation symmetric (PT):   O H = conj(H) O,  O a real involution
* pseudo-Hermitian:                    O H = adj(H) O,   O a Hermitian involution
* generalized PT:                      O conj(H) = H O,  O an antilinear core

Constructors build the canonical block/diagonal-frame representative for each
class; check_symmetry reports the intertwining residual for any pair.
find_gen_pt_operator pairs the eigenvalue clusters of H that classify_spectrum
reads, kept on H's shared eigen record (intertwine.spectrum_clusters), so it
clusters nothing of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, IndeterminateStructureError
from .involutions import (
    InvolutionKind,
    InvolutionOperator,
    _exact,
    _measure,
    _recorded,
    operator_matrix,
    verify_involution,
)
from .intertwine import spectrum_clusters
from .numerics import DEFAULT_TOL, ToleranceConfig, _eigenpairs, as_matrix, as_square_matrix, frobenius, frobenius_norms


class SymmetryKind(enum.Enum):
    PT = "pt"
    PSEUDO = "pseudo"
    GEN_PT = "gen_pt"


_REQUIRED_OPERATOR_KIND = {
    SymmetryKind.PT: InvolutionKind.REAL_INVOLUTION,
    SymmetryKind.PSEUDO: InvolutionKind.HERMITIAN_INVOLUTION,
    SymmetryKind.GEN_PT: InvolutionKind.ANTILINEAR_CORE,
}


@dataclass(frozen=True)
class SymmetryReport:
    kind: SymmetryKind
    holds: bool
    residual: float
    operator_residuals: dict


def _intertwining(kind: SymmetryKind, O, A: np.ndarray, scale, tol: ToleranceConfig):
    """(holds, gap norm, operator check) of kind's intertwining identity.

    A is one n x n matrix or a (K, n, n) stack and scale its Frobenius
    norm (one per matrix); holds and the gap norm then carry one entry per
    matrix.  The operator O is checked against the kind's family once,
    whatever the size of the stack, and from its record when it carries one
    (see ptlab.involutions).  Each product of the identity is one BLAS call
    for the whole stack: P times the n x Kn panel [A_1 ... A_K] (or of their
    conjugates), and the Kn x n panel of the conjugates or adjoints of the
    A_k times P; for one matrix these are the plain products.  For a
    diagonal or permutation P of +-1 entries every product entry is one
    exact term, so each gap of a stack equals that of its matrix alone bit
    for bit; a dense P may differ from it by rounding.
    """
    P = operator_matrix(O)
    if P.shape != A.shape[-2:]:
        raise DimensionError(f"operator is {P.shape} but H is {A.shape[-2:]}")
    op_check = verify_involution(O, _REQUIRED_OPERATOR_KIND[kind], tol)
    if not op_check.ok:
        raise ContractError(
            f"{kind.value} needs a {_REQUIRED_OPERATOR_KIND[kind].value} operator; residuals {op_check.residuals}"
        )
    # the identity P L = R P with L and R read off A
    if kind is SymmetryKind.PT:
        L, R = A, A.conj()
    elif kind is SymmetryKind.PSEUDO:
        L, R = A, A.conj().swapaxes(-1, -2)
    else:
        L, R = A.conj(), A
    n = len(P)
    left = P @ L.swapaxes(0, -2).reshape(n, -1)  # P [L_1 ... L_K]
    right = R.reshape(-1, n) @ P  # [R_1; ...; R_K] P
    gap = left.reshape(n, -1, n).swapaxes(0, 1).reshape(A.shape) - right.reshape(A.shape)
    raw = frobenius_norms(gap)
    return raw <= np.maximum(tol.abs_tol, tol.rel_tol * scale), raw, op_check


def check_symmetry(kind: SymmetryKind, O, H, tol: ToleranceConfig = DEFAULT_TOL) -> SymmetryReport:
    """Verdict and residual for the intertwining identity of `kind`.

    The operator is validated against the kind's family first; a mismatch is
    a contract error (the identity would be meaningless), while a failing
    intertwining check is just reported.
    """
    A = as_square_matrix(H, "H")
    scale = frobenius(A)
    holds, raw, op_check = _intertwining(kind, O, A, scale, tol)
    return SymmetryReport(
        kind=kind,
        holds=bool(holds),
        residual=float(raw / scale if scale > 0 else raw),
        operator_residuals=op_check.residuals,
    )


@dataclass(frozen=True)
class PtBlockParams:
    """Real blocks (A, B; C, D) of the diagonal-parity PT canonical form."""

    m: int
    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name, want in (("A", (self.m, self.m)), ("B", (self.m, self.n)), ("C", (self.n, self.m)), ("D", (self.n, self.n))):
            block = np.asarray(getattr(self, name), dtype=float)
            if block.shape != want:
                raise DimensionError(f"block {name} must have shape {want}, got {block.shape}")
            if not np.all(np.isfinite(block)):
                raise ContractError(f"block {name} contains NaN or Inf")
            object.__setattr__(self, name, block)


def construct_pt_block(p: PtBlockParams) -> np.ndarray:
    """[[A, iB], [iC, D]] with all blocks real; exactly parity-conjugation
    symmetric for the diagonal parity of signature (m, n)."""
    top = np.hstack([p.A.astype(complex), 1j * p.B])
    bottom = np.hstack([1j * p.C, p.D.astype(complex)])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class PseudoBlockParams:
    """Hermitian A, D and free complex B of the diagonal-metric canonical form."""

    m: int
    n: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B") if self.m and self.n else np.zeros((self.m, self.n), dtype=complex)
        D = as_matrix(self.D, "D")
        if A.shape != (self.m, self.m) or D.shape != (self.n, self.n) or B.shape != (self.m, self.n):
            raise DimensionError(f"blocks must be ({self.m},{self.m}), ({self.m},{self.n}), ({self.n},{self.n})")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "D", D)

    def validate_hermitian(self, tol: ToleranceConfig = DEFAULT_TOL):
        for name, block in (("A", self.A), ("D", self.D)):
            if block.size and frobenius(block - block.conj().T) > tol.abs_tol * max(1.0, frobenius(block)):
                raise ContractError(f"block {name} must be Hermitian")


def construct_pseudo_block(p: PseudoBlockParams, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """[[A, iB], [i adj(B), D]]; pseudo-Hermitian for Diag{1_m, -1_n}.

    With B = 0 the output is the Hermitian block-diagonal limit.
    """
    p.validate_hermitian(tol)
    top = np.hstack([p.A, 1j * p.B])
    bottom = np.hstack([1j * p.B.conj().T, p.D])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class RotatedHermitianParams:
    """Data of the anti-diagonal-metric canonical form.

    a[i, j] (and b[i, j]) feed entry (i, j) on or above the anti-diagonal,
    0-indexed: positions with i + j <= n - 1.  On the anti-diagonal itself
    (i + j == n - 1) the entry is real and b is ignored.  Entries below are
    the conjugates of their mirror across the anti-diagonal.
    """

    n: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.n, self.n) or b.shape != (self.n, self.n):
            raise DimensionError(f"a and b must be {self.n}x{self.n} real arrays")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ContractError("a and b must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def construct_rotated_hermitian(p: RotatedHermitianParams) -> np.ndarray:
    """Matrix that is pseudo-Hermitian for the anti-diagonal permutation S_n.

    Looks like a Hermitian matrix reflected onto the anti-diagonal; setting
    the diagonal data to lambda and the first superdiagonal data to 1 yields
    a Jordan block of order n.
    """
    n = p.n
    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i + j < n - 1:
                H[i, j] = p.a[i, j] + 1j * p.b[i, j]
            elif i + j == n - 1:
                H[i, j] = p.a[i, j]
            else:
                mi, mj = n - 1 - j, n - 1 - i
                if mi + mj < n - 1:
                    H[i, j] = p.a[mi, mj] - 1j * p.b[mi, mj]
                else:
                    H[i, j] = p.a[mi, mj]
    return H


@dataclass(frozen=True)
class DiagPhaseGenPtParams:
    """Real amplitudes r[i, j] and diagonal phases of the diagonal-core form."""

    phases: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        r = np.asarray(self.r, dtype=float)
        N = phases.size
        if r.shape != (N, N):
            raise DimensionError(f"r must be {N}x{N} to match {N} phases")
        if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(r))):
            raise ContractError("phases and r must be finite")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "r", r)


def gen_pt_diag_operator(phases) -> np.ndarray:
    """Diagonal antilinear core Diag{e^{i alpha_k}} (pure phases)."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    return np.diag(np.exp(1j * phases))


def construct_gen_pt_diag(p: DiagPhaseGenPtParams) -> np.ndarray:
    """Entry (i, j) carries amplitude r[i, j] and phase (alpha_i - alpha_j)/2,
    which makes the matrix commute with Diag{e^{i alpha}} followed by
    conjugation."""
    alpha = p.phases
    phase = np.exp(1j * (alpha[:, None] - alpha[None, :]) / 2.0)
    return p.r * phase


@dataclass(frozen=True)
class DiagMetricSelfAdjointParams:
    """Positive metric eigenvalues plus real symmetric/antisymmetric data.

    a[i, j] for i <= j carries the shared real part of the (i, j) mirror pair
    (diagonal included); b[i, j] for i < j the shared imaginary part.
    """

    omegas: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        N = omegas.size
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (N, N) or b.shape != (N, N):
            raise DimensionError(f"a and b must be {N}x{N}")
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ContractError("omegas, a, b must be finite")
        if np.any(omegas <= 0):
            raise ContractError(f"all metric eigenvalues must be positive, got {omegas}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def metric(self) -> np.ndarray:
        return np.diag(self.omegas).astype(complex)


def construct_self_adjoint_from_diag_metric(p: DiagMetricSelfAdjointParams) -> np.ndarray:
    """Most general matrix self-adjoint under the diagonal metric Diag{omega}.

    Diagonal entries are real; mirrored off-diagonal entries share phase up to
    conjugation and their moduli sit in the ratio omega_j / omega_i.  All
    omegas equal reduces to a plain Hermitian matrix.
    """
    w = p.omegas
    i, j = np.nonzero(~np.tri(w.size, dtype=bool))  # the strict upper triangle, row by row
    z = p.a[i, j] + 1j * p.b[i, j]
    H = np.diag(p.a.diagonal()).astype(complex)  # triangles by index: adding triu and tril turns -0.0 into +0.0
    H[i, j] = 2.0 * w[j] / (w[i] + w[j]) * z
    H[j, i] = 2.0 * w[i] / (w[i] + w[j]) * z.conj()
    return H


def _realifying_columns(vectors: np.ndarray, real: np.ndarray, pairs, labels: np.ndarray) -> np.ndarray:
    """Columns V Pi B of a similarity that makes the eigendecomposition real:
    real eigenvalues keep their eigenvector, and each conjugate pair (v, w),
    mirrored real clusters included, takes [v w] [[1, i], [1, -i]] / 2, which
    turns diag(lam, conj lam) into the real rotation-scale block (paired
    clusters pair their members in index order).  Those blocks are unitaries
    over sqrt(2), so cond(columns) <= sqrt(2) cond(V)."""
    if not pairs:
        return vectors[:, real]
    members = {}
    for k, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(k)
    v, w = ([k for pair in pairs for k in members[pair[side]]] for side in (0, 1))
    lone = real.copy()
    lone[v + w] = False  # mirrored real clusters join the pairs
    v, w = vectors[:, v], vectors[:, w]
    return np.hstack([vectors[:, lone], np.stack([0.5 * (v + w), 0.5 * 1j * (v - w)], axis=2).reshape(vectors.shape[0], -1)])


def find_gen_pt_operator(H, tol: ToleranceConfig = DEFAULT_TOL):
    """Antilinear core making H generalized-PT symmetric, if one is found.

    H similar to a real matrix is what the symmetry demands, so the search
    builds a similarity that realifies H from an eigendecomposition, pairing
    conjugate eigenvalues into real 2x2 rotation blocks.  Returns None when
    the eigenvalue clusters do not pair under conjugation: the clusters and
    pairs are those classify_spectrum reads, kept on H's shared eigen record
    (intertwine.spectrum_clusters), with the eigenvectors in the (Re, Im)
    order of the sorted spectrum.  A defective real cluster is one real
    unit, and two real clusters that mirror each other across the axis are
    one pair.  Defective inputs are handled only via a small battery of
    exact candidates (identity and diagonal sign patterns, which cover this
    package's own Jordan constructions); anything beyond that raises
    IndeterminateStructureError rather than guessing.  The core carries the
    record of the check it passed (exact for the identity and the battery),
    so symmetry checks with it do not verify it again.
    """
    A = as_square_matrix(H, "H")
    N = A.shape[0]
    norm = frobenius(A)
    scale = max(norm, 1.0)
    if frobenius(A - A.conj()) <= tol.abs_tol * scale:
        return _exact(InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=np.eye(N, dtype=complex)))

    record = _eigenpairs(A)
    clusters = spectrum_clusters(record, norm, tol)
    if clusters.pairs is None:
        return None
    sigma = record.sigma

    # Defectiveness shows up as an ill-conditioned eigenvector matrix; the
    # eigenvector route is then meaningless and only exact candidates remain.
    miss = "spectrum is conjugation-closed but H appears defective; Jordan-level realification is not certified here"
    if sigma[-1] > 1e-7 * sigma[0]:
        columns = _realifying_columns(clusters.vectors, clusters.real, clusters.pairs, clusters.labels)  # cond < sqrt(2) 1e7: safe to invert
        core = columns @ np.linalg.inv(columns.conj())
        intertwine = frobenius(core @ A.conj() - A @ core)
        record = _measure(core, InvolutionKind.ANTILINEAR_CORE, tol)
        core_check = record.check(tol)
        if core_check.ok and intertwine <= max(tol.abs_tol, tol.rel_tol * scale):
            return _recorded(InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=core), record)
        miss = f"constructed operator misses its invariants (intertwining {intertwine:.3e}, core {core_check.residuals})"
    # the battery: the identity, then Diag(1_m, -1_(N-m)) for m = 0..N, all checked as one stack
    signs = np.vstack([np.ones(N), np.where(np.arange(N) < np.arange(N + 1)[:, None], 1.0, -1.0)])
    hits = np.flatnonzero(frobenius_norms(signs[:, :, None] * A.conj() - A * signs[:, None, :]) <= tol.abs_tol * scale)
    if hits.size:  # the first exact core D, with D conj(A) = A D
        return _exact(InvolutionOperator(kind=InvolutionKind.ANTILINEAR_CORE, matrix=np.diag(signs[hits[0]]).astype(complex)))
    raise IndeterminateStructureError(miss)
