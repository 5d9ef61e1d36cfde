"""Solve the self-adjointness equation W H = adj(H) W and certify positivity.

The Hermitian solutions W form a real linear space; when H is diagonalizable
with an all-real spectrum the space contains positive-definite elements and H
is self-adjoint in the weighted inner product <psi| W |phi>.  With indefinite
W the same pairing is a finite-dimensional Krein (Pontrjagin) product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import (
    DEFAULT_TOL,
    MACHINE_EPS,
    ToleranceConfig,
    _eigenvector_cuts,
    _reality_cut,
    as_square_matrix,
    frobenius,
    frobenius_norms,
    hermitian_basis,
    rank_and_nullspace,
    solve_or_raise,
    vectorize,
)


@dataclass(frozen=True)
class MetricSolution:
    """Real basis of Hermitian solutions plus a positive representative.

    hermitian_basis is a (dimension, n, n) stack, one solution per entry,
    orthonormal in the real Frobenius product Re tr(adj(W1) W2).
    positive_status is one of "found", "absent", "indeterminate"; the last
    marks near-defective inputs where positivity sits inside the rank cutoff
    (the smallest metric eigenvalue collapses linearly in the distance to the
    exceptional point, so no verdict is certified there).
    """

    hermitian_basis: np.ndarray
    positive_representative: np.ndarray | None
    dimension: int
    positive_status: str
    note: str | None = None


def self_adjointness_residual(W, H) -> float:
    """|| W H - adj(H) W ||_F / max(1, ||W|| ||H||)."""
    Wm = as_square_matrix(W, "W")
    Hm = as_square_matrix(H, "H")
    if Wm.shape != Hm.shape:
        raise DimensionError(f"W is {Wm.shape} but H is {Hm.shape}")
    gap = Wm @ Hm - Hm.conj().T @ Wm
    return float(frobenius(gap) / max(1.0, frobenius(Wm) * frobenius(Hm)))


def weighted_inner_product(W, psi, phi) -> complex:
    """adj(psi) W phi; conjugate-symmetric whenever W is Hermitian."""
    Wm = as_square_matrix(W, "W")
    a = np.asarray(psi, dtype=complex).ravel()
    b = np.asarray(phi, dtype=complex).ravel()
    if a.size != Wm.shape[0] or b.size != Wm.shape[0]:
        raise DimensionError(f"vectors must have length {Wm.shape[0]}, got {a.size} and {b.size}")
    return complex(a.conj() @ Wm @ b)


def transform_metric(W0, T) -> np.ndarray:
    """Metric companion of a similarity: W = adj(inv(T)) W0 inv(T).

    Preserves Hermiticity, and positive definiteness when present.
    """
    W = as_square_matrix(W0, "W0")
    T_inv = solve_or_raise(T)
    return T_inv.conj().T @ W @ T_inv


def _residual_bound(tol: ToleranceConfig, scale: float, n: int) -> float:
    """Largest ||W H - adj(H) W||_F that a W built from computed eigenvectors
    (a unit-norm basis element, or the dyad sum) may leave as a solution."""
    return max(tol.abs_tol * scale, 1e3 * n * MACHINE_EPS * scale)


def _dense_metric_basis(A: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """SVD nullspace of W -> W A - adj(A) W on the n^2 Hermitian basis, with
    the rank cut relative to ||A||_F: for A = lambda 1 up to rounding the
    system holds only rounding noise, which a cut relative to its own
    largest singular value would read as rank."""
    n = A.shape[0]
    basis = hermitian_basis(n)
    system = vectorize(basis @ A - A.conj().T @ basis).T
    _, coeffs = rank_and_nullspace(system, tol, scale=frobenius(A))
    W = (coeffs.T @ basis.reshape(n * n, -1)).reshape(-1, n, n)
    return 0.5 * (W + W.conj().swapaxes(-1, -2))  # exact Hermitizing of roundoff


def _eigenvector_metric_basis(A, values, vectors, kappa, tol):
    """Metric basis from adj(A) = U diag(mu) inv(U), or None when the
    eigenvectors cannot decide it.

    W = U Z adj(U) solves W A = adj(A) W exactly when Z_ij (mu_i - conj(mu_j))
    = 0, so the Hermitian Z run over E_ii for each real mu_i and E_ij + E_ji,
    i (E_ij - E_ji) for each pair i < j with mu_i = conj(mu_j).  A distance
    |mu_i - conj(mu_j)| counts as a pair up to pair_cut and as none from
    gap_cut on (numerics._eigenvector_cuts), so both routes count the same
    dimension; anything between is left to the dense route.
    """
    n = A.shape[0]
    norm = frobenius(A)
    scale = max(norm, 1.0)
    cuts = _eigenvector_cuts(tol, kappa, norm)
    if cuts is None:
        return None
    pair_cut, gap_cut = cuts
    dist = np.abs(values[:, None] - values.conj()[None, :])
    if np.any((dist > pair_cut) & (dist < gap_cut)):
        return None
    rows, cols = np.nonzero(np.triu(dist <= pair_cut))
    if rows.size == 0:
        return np.zeros((0, n, n), dtype=complex)
    off = rows < cols
    rows, cols = np.concatenate([rows, rows[off]]), np.concatenate([cols, cols[off]])
    phase = np.concatenate([np.ones(off.size), np.full(np.count_nonzero(off), 1j)])
    # X = phase u_i adj(u_j), W = X + adj(X)
    X = phase[:, None, None] * vectors.T[rows, :, None] * vectors.T.conj()[cols, None, :]
    W = X + X.conj().swapaxes(-1, -2)
    q, _ = np.linalg.qr(vectorize(W).T)  # Frobenius-orthonormal, same real span
    W = np.ascontiguousarray(q.T).view(complex).reshape(-1, n, n)
    W = 0.5 * (W + W.conj().swapaxes(-1, -2))
    if np.any(frobenius_norms(W @ A - A.conj().T @ W) > _residual_bound(tol, scale, n)):
        return None
    return W


def solve_metric_space(H, tol: ToleranceConfig = DEFAULT_TOL) -> MetricSolution:
    """All Hermitian solutions of W H = adj(H) W, with a positive one if any.

    The equation is real-linear on the n^2-dimensional real space of Hermitian
    matrices.  When adj(H) = U diag(mu) inv(U) with a well-conditioned U and
    every distance |mu_i - conj(mu_j)| is clearly a pair or clearly not one,
    the basis is U Z adj(U) over the pairs (see _eigenvector_metric_basis):
    one element per ordered pair mu_i = conj(mu_j), the sum of min(p, q) over
    paired Jordan blocks of a diagonalizable H.  Defective, near-coincident
    or ill-conditioned inputs, and any such basis that fails its residual
    check, take the SVD nullspace of the dense 2n^2 x n^2 real system
    instead.  Either way the basis is Frobenius-orthonormal; the two routes
    span the same space with different elements.  The positive representative is the classic biorthogonal sum of
    left-eigenvector dyads, which lands in the solution space exactly when
    the spectrum is real and H is diagonalizable.
    """
    A = as_square_matrix(H, "H")
    n = A.shape[0]
    scale = max(frobenius(A), 1.0)
    values, vectors = np.linalg.eig(A.conj().T)
    cond = np.linalg.svd(vectors, compute_uv=False)
    kappa = cond[0] / cond[-1] if cond[-1] > 0 else np.inf
    solutions = _eigenvector_metric_basis(A, values, vectors, kappa, tol)
    if solutions is None:
        solutions = _dense_metric_basis(A, tol)

    positive, status, note = None, "absent", None
    reality = np.max(np.abs(values.imag)) if values.size else 0.0
    if reality <= _reality_cut(tol, scale):
        if cond[-1] > 1e-8 * cond[0]:
            vecs = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
            W = vecs @ vecs.conj().T
            W = 0.5 * (W + W.conj().T)
            raw_residual = frobenius(W @ A - A.conj().T @ W)
            if raw_residual <= _residual_bound(tol, scale, n):
                eigs = np.linalg.eigvalsh(W)
                cutoff = tol.rank_cutoff(float(eigs[-1]))
                if eigs[0] > cutoff:
                    positive, status = W, "found"
                else:
                    status = "indeterminate"
                    note = "smallest metric eigenvalue sits inside the rank cutoff; expect it to scale linearly in the distance to the exceptional point"
            else:
                status = "indeterminate"
                note = "left-eigenvector dyad sum does not solve the self-adjointness equation to tolerance"
        else:
            status = "absent"
            note = "no eigenvector basis (defective); a positive metric does not exist"
    elif values.size:
        note = "spectrum has a complex pair; only indefinite Hermitian solutions exist"

    return MetricSolution(
        hermitian_basis=solutions,
        positive_representative=positive,
        dimension=len(solutions),
        positive_status=status,
        note=note,
    )
