"""Solve the self-adjointness equation W H = adj(H) W and certify positivity.

The Hermitian solutions W form a real linear space; when H is diagonalizable
with an all-real spectrum the space contains positive-definite elements and H
is self-adjoint in the weighted inner product <psi| W |phi>.  With indefinite
W the same pairing is a finite-dimensional Krein (Pontrjagin) product.  The
space is solved cluster by cluster on H's one clustering (ptlab.intertwine),
so a defective input costs the small systems of its clusters, not the
dense 2n^2 x n^2 one.  The QR of each attempt's
solutions comes from numpy's own LAPACK (numerics._orthonormal_columns);
scipy.linalg loads only for a Schur frame (ptlab.intertwine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import (
    DEFAULT_TOL,
    MACHINE_EPS,
    ToleranceConfig,
    _eigenpairs,
    _orthonormal_columns,
    as_square_matrix,
    frobenius,
    frobenius_norms,
    rank_cutoff,
    solve_or_raise,
    vectorize,
)
from .intertwine import cluster_discs, conjugate_map, hermitian_solutions, pair_solutions, solve_clustered


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
    return max(tol.rel_tol, 1e3 * n * MACHINE_EPS) * scale


def _metric_attempt(A, values, norm, tol):
    """solve_clustered's attempt for W H = adj(H) W on the frame of adj(H) =
    U M inv(U): W = U Z adj(U) over the Hermitian Z with M Z = Z adj(M).

    Clusters a, b couple when the disc of a (intertwine.cluster_discs) meets
    the conjugate of the disc of b (for two lone eigenvalues, |mu_i - conj(mu_j)| <= r_i + r_j), so
    no exact pair mu_i = conj(mu_j) is missed.  Two lone eigenvalues take
    the closed form: Z = E_ii for a self-paired mu_i, E_ij + E_ji and
    i(E_ij - E_ji) for a pair i < j.  A pair with a larger cluster takes its
    small system: the Hermitian one for a with itself, else the complex
    Z_ab with M_a Z_ab = Z_ab adj(M_b), each giving Z_ab and i Z_ab at
    (a, b) and their adjoints at (b, a).  The elements are made
    Frobenius-orthonormal (one QR) and Hermitized; when one misses the
    residual bound, the clusters of the elements that miss it are named.  The
    frame of one cluster takes its Hermitian system alone, as the dense
    solve of the whole equation.
    """
    n = A.shape[0]

    def attempt(frame):
        labels, radii, U, single, blocks, final = frame
        if final and blocks:  # one cluster in the identity frame: the dense system, orthonormal already
            return hermitian_solutions(blocks[0][1], norm), set()
        centres, spans = cluster_discs(values, radii, labels) if blocks else (values, radii)
        near = np.abs(centres[:, None] - centres.conj()[None, :]) <= spans[:, None] + spans[None, :]
        rows, cols = np.nonzero(near & single[:, None] & single[None, :] if blocks else near)
        upper = rows <= cols
        rows, cols = rows[upper], cols[upper]
        off = rows < cols
        rows, cols = np.concatenate([rows, rows[off]]), np.concatenate([cols, cols[off]])
        phase = np.concatenate([np.ones(off.size), np.full(np.count_nonzero(off), 1j)])
        pieces = [phase[:, None, None] * U.T[rows, :, None] * U.T.conj()[cols, None, :]]  # phase u_i adj(u_j)
        owners = [(rows, cols)]
        for a, (members, Ma) in blocks.items():
            Ua = U[:, members]
            for b in np.unique(labels[near[members[0]]]):
                if b == a:  # X + adj(X) = Ua Z adj(Ua)
                    X = 0.5 * Ua @ hermitian_solutions(Ma, norm) @ Ua.conj().T
                elif b not in blocks or b > a:  # two larger clusters meet once
                    Z = pair_solutions(Ma, blocks[b][1] if b in blocks else values[[b], None], True, norm)
                    X = Ua @ np.concatenate([Z, 1j * Z]) @ U[:, labels == b].conj().T
                else:
                    continue
                pieces.append(X)
                owners.append((np.full(len(X), a), np.full(len(X), b)))
        X = np.concatenate(pieces) if blocks else pieces[0]
        W = X + X.conj().swapaxes(-1, -2)
        if not len(W):
            return W, set()
        # Frobenius-orthonormal, same real span
        Q = _orthonormal_columns(vectorize(W).T).T.view(complex).reshape(-1, n, n)
        Q = 0.5 * (Q + Q.conj().swapaxes(-1, -2))
        bound = _residual_bound(tol, norm, n)
        if final or not np.any(frobenius_norms(Q @ A - A.conj().T @ Q) > bound):
            return Q, set()
        W = W / frobenius_norms(W)[:, None, None]
        miss = frobenius_norms(W @ A - A.conj().T @ W) > bound
        first, second = (np.concatenate(side) for side in zip(*owners))
        return Q, set(first[miss].tolist()) | set(second[miss].tolist()) or set(labels.tolist())

    return attempt


def solve_metric_space(H, tol: ToleranceConfig = DEFAULT_TOL) -> MetricSolution:
    """All Hermitian solutions of W H = adj(H) W, with a positive one if any.

    The equation is real-linear on the n^2-dimensional real space of Hermitian
    matrices.  It is solved on the cluster frame of adj(H) = U M inv(U)
    (ptlab.intertwine, _metric_attempt), from the eigenpairs of adj(H) in
    H's shared eigen record (numerics._eigenpairs, the adjoint side, whose
    conjugates are the eigenpairs of the transpose witnesses) and the
    cluster frame kept on it (intertwine.cluster_frame), which the witness
    solvers conjugate: the basis is
    U Z adj(U) over the Hermitian Z with M Z = Z adj(M), one closed-form
    element per ordered pair of single eigenvalues mu_i = conj(mu_j) and the
    small system of each pair of clusters that can couple, so its dimension
    is the sum of min(p, q) over the Jordan blocks paired by
    lambda = conj(mu).  A basis whose element misses the residual bound, or
    a frame whose columns are nearly dependent, has its clusters merged and
    is solved again; the last frame is the dense 2n^2 x n^2 system of one
    cluster, the only O(n^6) case.  The basis is Frobenius-orthonormal.  The positive representative
    is the classic biorthogonal sum of left-eigenvector dyads, which lands in
    the solution space exactly when the spectrum is real and H is
    diagonalizable, both read off H's clusters as classify_spectrum reads them.
    """
    A = as_square_matrix(H, "H")
    n = A.shape[0]
    norm = frobenius(A)
    record = _eigenpairs(A, adjoint=True)
    solutions = solve_clustered(record, norm, tol, _metric_attempt(A, record.values, norm, tol))
    clusters, _ = conjugate_map(record, norm, tol)

    positive, status, note = None, "absent", None
    if not clusters.real.all():
        note = "spectrum has a complex pair; only indefinite Hermitian solutions exist"
    elif clusters.defective:
        note = "no eigenvector basis (defective); a positive metric does not exist"
    else:
        vecs = record.vectors / np.linalg.norm(record.vectors, axis=0, keepdims=True)
        W = vecs @ vecs.conj().T
        W = 0.5 * (W + W.conj().T)
        if frobenius(W @ A - A.conj().T @ W) > _residual_bound(tol, norm, n):
            status, note = "indeterminate", "left-eigenvector dyad sum does not solve the self-adjointness equation to tolerance"
        elif (eigs := np.linalg.eigvalsh(W))[0] > rank_cutoff(float(eigs[-1])):
            positive, status = W, "found"
        else:
            status, note = "indeterminate", ("smallest metric eigenvalue sits inside the rank cutoff; expect it to "
                                             "scale linearly in the distance to the exceptional point")

    return MetricSolution(
        hermitian_basis=solutions,
        positive_representative=positive,
        dimension=len(solutions),
        positive_status=status,
        note=note,
    )
