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
    _reality_cut,
    as_square_matrix,
    frobenius,
    hermitian_basis,
    rank_and_nullspace,
    solve_or_raise,
    vectorize,
)


@dataclass(frozen=True)
class MetricSolution:
    """Real basis of Hermitian solutions plus a positive representative.

    hermitian_basis is a (dimension, n, n) stack, one solution per entry.
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


def solve_metric_space(H, tol: ToleranceConfig = DEFAULT_TOL) -> MetricSolution:
    """All Hermitian solutions of W H = adj(H) W, with a positive one if any.

    The equation is real-linear on the n^2-dimensional real space of Hermitian
    matrices; the basis comes from an SVD nullspace of that map.  The positive
    representative is the classic biorthogonal sum of left-eigenvector dyads,
    which lands in the solution space exactly when the spectrum is real and H
    is diagonalizable.
    """
    A = as_square_matrix(H, "H")
    n = A.shape[0]
    scale = max(frobenius(A), 1.0)
    basis = hermitian_basis(n)
    system = vectorize(basis @ A - A.conj().T @ basis).T
    _, coeffs = rank_and_nullspace(system, tol)
    W = (coeffs.T @ basis.reshape(n * n, -1)).reshape(-1, n, n)
    solutions = 0.5 * (W + W.conj().swapaxes(-1, -2))  # exact Hermitizing of roundoff

    positive, status, note = None, "absent", None
    values, vectors = np.linalg.eig(A.conj().T)
    reality = np.max(np.abs(values.imag)) if values.size else 0.0
    if reality <= _reality_cut(tol, scale):
        cond = np.linalg.svd(vectors, compute_uv=False)
        if cond[-1] > 1e-8 * cond[0]:
            vecs = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
            W = vecs @ vecs.conj().T
            W = 0.5 * (W + W.conj().T)
            raw_residual = frobenius(W @ A - A.conj().T @ W)
            if raw_residual <= max(tol.abs_tol * scale, 1e3 * n * MACHINE_EPS * scale):
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
