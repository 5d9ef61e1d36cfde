"""Transpose witnesses and conversions between the three symmetry pictures.

Every square matrix B is similar to its transpose; an invertible A with
A B inv(A) = transpose(B) is a transpose witness.  transpose_matrix first
tries V transpose(V) over the eigenvectors V of transpose(B), and otherwise
builds one on the eigenvalue clusters of transpose(B) (ptlab.intertwine)
from a random combination of each cluster's small-system solutions, with a
closed-form fallback assembled from a known Jordan similarity.  The
eigenpairs of transpose(B) = conj(adj(B)) are the conjugates of those in
the shared eigen record of adj(B) (numerics._eigenpairs), which
solve_metric_space reads too; conjugation is exact.  Both witness solvers
conjugate the cluster frame of adj(B) kept on that record
(intertwine.cluster_frame), built once from H's one clustering.  The
conversions take the whole witness space from witness_space, on the same
cluster frame (_frame_space).  They judge the caller's operator from its
verification record when it carries one, and measure each Q they return or
weigh once, for its verdicts and residuals.

The conversions ride on the witness space:

* PT -> pseudo:   every witness A gives Q = conj(A) P with Q H = adj(H) Q;
                  a Hermitian involutory Q in that family exhibits H as
                  pseudo-Hermitian.
* pseudo -> PT:   every witness A gives Q = conj(P) A with Q H = conj(H) Q;
                  a real involutory Q is a parity for H.
* gen-PT -> pseudo: K conj(H) = H K and K conj(K) = 1 give
                  conj(K) H = conj(H) conj(K), so conj(K) stands where
                  PT -> pseudo takes P: Q = conj(A K) with Q H = adj(H) Q.

Hermiticity/reality are real-linear constraints stacked onto the witness
coefficients.  The involution is screened over candidate rows, all
deterministic, in one loop over a lazy sequence: the identity when it lies
in the family, the family basis, a traceless slice, then at most two
closed-form rows, the top eigenvectors of C_ij = Re tr(F_i F_j) / n on the
traceless slice and on the whole family.  When every F_i F_j + F_j F_i is
2 C_ij 1 (a Clifford family), Q(z)^2 = (z^T C z) 1, so an involution exists
exactly when C has a positive eigenvalue, and its top eigenvector is one; on
any other family the combinations squaring to a multiple of 1 lie on a
proper algebraic subset.  Each row is built only once every row before it
has missed, and each goes through the cuts once.  The first row whose Q^2
is a positive multiple of the identity, rescaled to Q^2 = 1, and whose Q
intertwines is the hit.

PT -> pseudo (and so gen-PT -> pseudo) decides its family in
eigen-coordinates first, whenever H has a simple spectrum with
well-conditioned eigenvectors and an exact conjugate pairing
(_closed_form_involution): Q^2 = 1 then fixes each eigenvector's
coefficient up to sign, or one phase per pair of blocks whose eigenvectors
are orthogonal, and every other entry is a check.  So it has three
outcomes, in this order:

1. "no Hermitian involution exists in the constrained family": the check
   misses by far more than rounding, or than the eigenvector sensitivity of
   near-coincident eigenvalues could explain; no witness space is built.
2. A certified Q.  When the phase walk joins every eigenvector into one
   tree, the Hermitian involution is unique up to sign, and the
   closed-form candidate is returned when it certifies, with no witness
   space or screen built.  Otherwise the screen's first hit, as above;
   where the screen misses, the closed-form candidate when it certifies.
3. "no involutory element found in the constrained family within budget":
   clustered, defective, ill-conditioned or near-coincident spectra, which
   the closed form cannot decide, when the screen misses too.

pseudo -> PT always takes the screen.  No conversion draws random numbers.
The QR of the witness solutions comes from numpy's own LAPACK
(numerics._orthonormal_columns); scipy.linalg loads only for a Schur frame
(ptlab.intertwine), so a conversion on any other spectrum runs on numpy
alone.
transpose_matrix draws from one fixed stream (_SEED): a call is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .intertwine import _conditioning_floor, cluster_frame, conjugate_map, pair_solutions, solve_clustered
from .involutions import InvolutionKind, InvolutionOperator, _measure, _recorded, make_sip, operator_matrix
from .metric import _residual_bound
from .numerics import (
    DEFAULT_TOL,
    MACHINE_EPS,
    ToleranceConfig,
    _eigenpairs,
    _orthonormal_columns,
    _scale,
    as_square_matrix,
    frobenius,
    frobenius_norms,
    needs_sign_flip,
    rank_and_nullspace,
    vectorize,
)
from .symmetry import SymmetryKind, check_symmetry

_SEED = 42  # the fixed stream of transpose_matrix's draws
DEFAULT_BUDGET = 256


class WitnessMethod(enum.Enum):
    NULLSPACE_SEARCH = "nullspace_search"
    JORDAN_RECIPE = "jordan_recipe"


@dataclass(frozen=True)
class TransposeWitness:
    A: np.ndarray
    method: WitnessMethod
    residual: float


def witness_space(B, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Frobenius-orthonormal complex basis of all A with A B = transpose(B) A,
    a (k, n, n) stack, on transpose_matrix's cluster frame (_frame_space).
    When a basis element misses the metric solver's residual bound, the
    clusters of the elements that miss it (else every cluster) are merged;
    the one-cluster frame solves the whole equation, rank cut at ||B||_F.
    """
    M = as_square_matrix(B, "B")
    norm = frobenius(M)
    bound = _residual_bound(tol, norm, M.shape[0])

    def attempt(frame):
        _, space, elements, owners = _frame_space(frame, norm)
        if frame.final or not np.any(_witness_gaps(space, M) > bound):
            return space, set()
        return space, set(owners[_witness_gaps(elements, M) > bound].tolist()) or set(frame.labels.tolist())

    return solve_clustered(_eigenpairs(M, adjoint=True), norm, tol, attempt)


def _invertibility(A: np.ndarray) -> float:
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def transpose_from_jordan(F, block_sizes) -> np.ndarray:
    """Closed-form witness transpose(F) (S_{m1} + S_{m2} + ...) F, valid when
    F B inv(F) is in Jordan form with the given block sizes."""
    Fm = as_square_matrix(F, "F")
    n = Fm.shape[0]
    if sum(block_sizes) != n:
        raise ContractError(f"block sizes {tuple(block_sizes)} do not sum to {n}")
    S = np.zeros((n, n), dtype=complex)
    pos = 0
    for size in block_sizes:
        S[pos:pos + size, pos:pos + size] = make_sip(size).matrix
        pos += size
    return Fm.T @ S @ Fm


def _similarity_residual(A: np.ndarray, M: np.ndarray, scale: float) -> float:
    return float(frobenius(A @ M @ np.linalg.inv(A) - M.T) / scale)


def _frame_space(frame, norm: float):
    """(clusters, space, elements, owners) on a cluster frame adj(B) =
    U M inv(U), read as the frame transpose(B) = conj(U) T inv(conj(U)),
    T = conj(M) (conjugation is exact): (Ua, Y) per larger cluster, its
    columns of conj(U) and the solutions Y of T_a Y = Y transpose(T_a); the
    elements u transpose(u) per lone eigenvector u of transpose(B) and
    Ua Y transpose(Ua) per Y (clusters are apart, so Y is block diagonal),
    with the cluster of each; and their span made Frobenius-orthonormal by
    one QR (the one cluster's Y are already)."""
    labels, _, U, single, blocks, final = frame
    U = U.conj()
    clusters = [(U[:, members], pair_solutions(Ma.conj(), Ma.conj(), False, norm))
                for members, Ma in blocks.values()]
    if final and blocks:  # one cluster in the identity frame: its solutions as they stand
        Y = clusters[0][1]
        return clusters, Y, Y, np.zeros(len(Y), dtype=int)
    lone = U[:, single]
    elements = np.concatenate([lone.T[:, :, None] * lone.T[:, None, :]] + [Ua @ Y @ Ua.T for Ua, Y in clusters])
    owners = np.concatenate([labels[single]] + [np.full(len(Y), a) for a, (_, Y) in zip(blocks, clusters)])
    q = _orthonormal_columns(elements.reshape(len(elements), -1).T)
    return clusters, q.T.reshape(elements.shape), elements, owners


def _witness_gaps(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """||A M - transpose(M) A||_F / ||A||_F over a (k, n, n) stack."""
    return frobenius_norms(A @ M - M.T @ A) / frobenius_norms(A)


def transpose_matrix(B, tol: ToleranceConfig = DEFAULT_TOL, *, jordan_witness=None) -> TransposeWitness:
    """Invertible A with A B inv(A) = transpose(B), normalized to unit
    Frobenius norm.

    The first candidate is A = V transpose(V), V the unit eigenvectors of
    transpose(B), the conjugates of those in adj(B)'s shared eigen record
    (numerics._eigenpairs): transpose(B) V = V D gives
    A B = V D transpose(V) = transpose(B) A for every diagonalizable B.
    When it misses the rule below (as for a defective B), A = U Y
    transpose(U) on the cluster frame of adj(B) (intertwine.cluster_frame),
    conjugated: transpose(B) = U M inv(U), over the Y with M Y =
    Y transpose(M) (_frame_space).  The first draw gives a lone eigenvalue
    the block 1 (U has unit columns) and each larger cluster a random
    combination of its small system's solutions, of Frobenius norm sqrt(m)
    like the m x m identity.  Later draws take random elements of the
    frame's witness space, isotropic in the Frobenius product; all come from
    one fixed stream (_SEED).  Draws stop at the first A with
    sigma_min / sigma_max > 1e-3 whose similarity residual (relative to
    ||B||_F) is within 1e-10; after DEFAULT_BUDGET draws the best one is
    returned if it is above 1e-8.  A residual that misses the cut names the
    clusters whose elements leave the largest intertwining gaps, and the
    frame is merged and solved again; the last frame is the full equation,
    one cluster holding every eigenvalue.
    When even that finds nothing above 1e-8, jordan_witness = (F,
    block_sizes), available for this package's own constructions, gives the
    closed form (which would be a bug, and is raised as such otherwise).  The method is reported as NULLSPACE_SEARCH.
    """
    M = as_square_matrix(B, "B")
    norm = frobenius(M)
    scale, cut = _scale(norm), 1e-10
    record = _eigenpairs(M, adjoint=True)
    vectors = record.vectors.conj()
    A = vectors @ vectors.T
    A = A / frobenius(A)
    if _invertibility(A) > 1e-3:
        residual = _similarity_residual(A, M, scale)
        if residual <= cut:
            return TransposeWitness(A, WitnessMethod.NULLSPACE_SEARCH, residual)

    def attempt(frame):
        clusters, space, elements, owners = _frame_space(frame, norm)
        lone = frame.U[:, frame.single].conj()
        rng = np.random.default_rng(_SEED)
        best, best_q = None, 0.0
        for draw in range(DEFAULT_BUDGET):
            if draw == 0:  # lone eigenvalues weighted 1, each cluster a random element of norm sqrt(m)
                A = lone @ lone.T
                for Ua, Y in clusters:
                    Ya = (([1, 1j] @ rng.normal(size=(2, len(Y)))) @ Y.reshape(len(Y), -1)).reshape(Y.shape[1:])
                    A = A + np.sqrt(len(Ua.T)) / frobenius(Ya) * Ua @ Ya @ Ua.T
            else:  # a random element of the whole space, isotropic in the Frobenius product
                A = np.tensordot([1, 1j] @ rng.normal(size=(2, len(space))), space, 1)
            A = A / frobenius(A)
            q = _invertibility(A)
            if q <= max(best_q, 1e-8):
                continue
            residual = _similarity_residual(A, M, scale)
            if residual > cut and not frame.final:
                if q <= 1e-3:  # inversion may explain the miss; draw again
                    continue
                gaps = _witness_gaps(elements, M)
                return None, set(owners[gaps >= 0.5 * gaps.max()].tolist())
            best, best_q = TransposeWitness(A, WitnessMethod.NULLSPACE_SEARCH, residual), q
            if best_q > 1e-3:
                break
        return (best, best_q), None if best_q > 1e-3 else set() if best_q > 1e-8 else set(frame.labels.tolist())

    witness, q = solve_clustered(record, norm, tol, attempt)
    if q > 1e-8:
        return witness
    if jordan_witness is None:
        raise NumericalError(
            "no invertible transpose witness found within budget; "
            "a witness always exists, so this is a bug-level diagnostic"
        )
    F, sizes = jordan_witness
    A = transpose_from_jordan(F, sizes)
    return TransposeWitness(A=A, method=WitnessMethod.JORDAN_RECIPE, residual=_similarity_residual(A, M, scale))


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one conversion attempt.

    residuals = (structure, involution, intertwining): structure is
    Hermiticity of Q for the pseudo-targets and reality for the parity
    target; intertwining is the target identity scaled by ||H||.  A missing
    valid Q is a reported outcome (Q None, flags False, residuals inf),
    never an exception, and note says which: "constrained family is empty",
    "no Hermitian involution exists in the constrained family" (PT -> pseudo
    and gen-PT -> pseudo, proven on a simple spectrum), or "no involutory
    element found in the constrained family within budget" where the screen
    missed without a proof.  A returned Q has note None, and witness is the
    transpose witness A it was built from: Q = conj(A) P, conj(P) A or
    conj(A K) for a parity P, a Hermitian involution P or a core K.
    degenerate marks misses where some candidate squared to a multiple c 1
    with c <= 1e-12, vanishing or negative, which no real rescaling turns
    into the identity.
    """

    Q: np.ndarray | None
    hermitian: bool
    involutory: bool
    target_kind_satisfied: bool
    residuals: tuple
    degenerate: bool = False
    witness: np.ndarray | None = None
    note: str | None = None


def _missed(note: str, degenerate: bool = False) -> ConversionResult:
    return ConversionResult(Q=None, hermitian=False, involutory=False, target_kind_satisfied=False,
                            residuals=(float("inf"), float("inf"), float("inf")), degenerate=degenerate, note=note)


def _convert(H, P, target_kind: SymmetryKind, tol) -> ConversionResult:
    M = as_square_matrix(H, "H")
    n = M.shape[0]
    norm = frobenius(M)
    eye = np.eye(n)

    if target_kind is SymmetryKind.PSEUDO:
        op_kind, structure = InvolutionKind.HERMITIAN_INVOLUTION, "hermiticity"
        def build_q(A):
            return A.conj() @ P
        def structure_gap(Q):
            return Q - Q.conj().swapaxes(-1, -2)
        def intertwine_gap(Q):
            return Q @ M - M.conj().T @ Q
    else:
        op_kind, structure = InvolutionKind.REAL_INVOLUTION, "reality"
        def build_q(A):
            return P.conj() @ A
        def structure_gap(Q):
            return Q - Q.conj()
        def intertwine_gap(Q):
            return Q @ M - M.conj() @ Q

    # on a simple spectrum the PT -> pseudo family is decided before any screen
    closed, one_tree = _closed_form_involution(M, norm, tol) if target_kind is SymmetryKind.PSEUDO else (None, False)
    if closed == []:
        return _missed("no Hermitian involution exists in the constrained family")

    def certified(Q, A):
        """The result for a hit (Q, A), sign-normalized and measured once: Q's
        family check and then the target symmetry check read that record."""
        if needs_sign_flip(Q):
            Q, A = -Q, -A
        record = _measure(Q, op_kind, tol)  # the one measurement of Q
        struct_res, inv_res = record.residuals[structure], record.residuals["square"]
        herm_res = struct_res if op_kind is InvolutionKind.HERMITIAN_INVOLUTION else frobenius(Q - Q.conj().T)
        target_ok = record.check(tol).ok and check_symmetry(
            target_kind, _recorded(InvolutionOperator(op_kind, Q), record), M, tol).holds
        return ConversionResult(
            Q=Q,
            hermitian=bool(herm_res <= 1e-9),
            involutory=bool(inv_res <= 1e-8),
            target_kind_satisfied=target_ok,
            residuals=(float(struct_res), float(inv_res), float(frobenius(intertwine_gap(Q)) / _scale(norm))),
            degenerate=False,
            witness=A,
        )

    def closed_form():
        """The closed-form candidate Q = conj(A) P when it certifies, else None."""
        result = certified(closed[0], (closed[0] @ np.linalg.inv(P)).conj())
        return result if result.target_kind_satisfied else None

    # on one tree the Hermitian involution is unique up to sign: no screen
    if one_tree and (result := closed_form()) is not None:
        return result

    basis = witness_space(M, tol)
    directions = np.stack([basis, 1j * basis], 1).reshape(-1, n, n)  # real span of the witnesses
    q_dirs = build_q(directions)
    _, coeff_basis = rank_and_nullspace(vectorize(structure_gap(q_dirs)).T)
    fdim = coeff_basis.shape[1]
    # the constrained family, one flattened element per coefficient direction
    q_family = coeff_basis.T @ q_dirs.reshape(-1, n * n)
    a_family = coeff_basis.T @ directions.reshape(-1, n * n)

    if fdim == 0:
        return _missed("constrained family is empty")

    def rows():
        """The coefficient rows, in order, each built only once every row
        before it has missed: the identity when it lies in the family
        (canonical choice), the family basis, the traceless slice, then,
        for a family of more than one element (a one-element one has only
        multiples of its basis row), the closed-form rows."""
        q_flat = vectorize(q_family.reshape(fdim, n, n)).T
        target = vectorize(np.eye(n, dtype=complex))
        z_id, *_ = np.linalg.lstsq(q_flat, target, rcond=None)
        if np.linalg.norm(q_flat @ z_id - target) <= 1e-10 * np.sqrt(n):
            yield z_id
        yield from np.eye(fdim)
        traces = np.trace(q_family.reshape(fdim, n, n), axis1=1, axis2=2).real
        tnull = np.zeros((fdim, 0))
        if np.any(np.abs(traces) > 1e-14):
            _, tnull = rank_and_nullspace(traces.reshape(1, -1))
        yield from tnull.T
        if fdim > 1:
            # C_ij = Re tr(F_i F_j) / n: on a Clifford family Q(z)^2 = (z^T C z) 1,
            # so the top eigenvector of C hits whenever any row does
            C = (q_family @ q_family.reshape(fdim, n, n).swapaxes(1, 2).reshape(fdim, n * n).T).real / n
            if tnull.shape[1] > 1:
                yield tnull @ np.linalg.eigh(tnull.T @ C @ tnull)[1][:, -1]
            yield np.linalg.eigh(C)[1][:, -1]

    # the first row whose Q, scaled to Q^2 = 1, meets every cut is the hit;
    # a Q^2 = c 1 with c <= 1e-12 (vanishing or negative) marks the miss degenerate
    intertwine_cut = 1e-10 * norm
    saw_degenerate = False
    for z in rows():
        Q = (z @ q_family).reshape(n, n)
        size = frobenius(Q)
        if size <= 1e-13:
            continue
        Q = Q / size
        QQ = Q @ Q
        c = complex(np.trace(QQ)) / n
        if frobenius(QQ - c * eye) > 1e-9:
            continue
        if c.real <= 1e-12:
            saw_degenerate = True
            continue
        root = np.sqrt(c.real)
        Q = Q / root
        if frobenius(intertwine_gap(Q)) <= intertwine_cut:
            return certified(Q, (z @ a_family).reshape(n, n) / size / root)

    if closed and not one_tree and (result := closed_form()) is not None:  # the screen missed it
        return result
    return _missed("no involutory element found in the constrained family within budget", saw_degenerate)


def pt_to_pseudo(P, H, tol: ToleranceConfig = DEFAULT_TOL) -> ConversionResult:
    """Hermitian (ideally involutory) Q with Q H = adj(H) Q, from a parity.

    Requires H to actually be symmetric under P.  Decided in this order:
    on a simple spectrum with well-conditioned eigenvectors and an exact
    conjugate pairing, the closed form first (_closed_form_involution),
    which may prove that no Hermitian involution exists (note "no Hermitian
    involution exists in the constrained family").  When its phase walk
    joins every eigenvector into one tree, that involution is unique up to
    sign, and the closed-form Q is returned when it certifies; otherwise
    the screen of the witness family, whose first hit is returned; where
    the screen misses, the closed form's candidate when it certifies.
    Clustered, defective, ill-conditioned or near-coincident spectra the
    closed form cannot decide end in "no involutory element found in the
    constrained family within budget" when the screen misses.
    """
    report = check_symmetry(SymmetryKind.PT, P, H, tol)  # judged from P's record when it has one
    if not report.holds:
        raise ContractError(f"H is not symmetric under the given parity (residual {report.residual:.3e})")
    return _convert(H, operator_matrix(P), SymmetryKind.PSEUDO, tol)


def pseudo_to_pt(Ptilde, H, tol: ToleranceConfig = DEFAULT_TOL) -> ConversionResult:
    """Real involutory Q with Q H = conj(H) Q, from a Hermitian involution.

    On success Q is a valid parity for H.  Families whose candidates square
    to a vanishing or negative multiple of the identity are reported
    degenerate (no real rescaling exists).
    """
    report = check_symmetry(SymmetryKind.PSEUDO, Ptilde, H, tol)  # judged from Ptilde's record when it has one
    if not report.holds:
        raise ContractError(f"H is not pseudo-Hermitian under the given metric (residual {report.residual:.3e})")
    return _convert(H, operator_matrix(Ptilde), SymmetryKind.PT, tol)


def _spanning_phases(weight: np.ndarray, X: np.ndarray, Y: np.ndarray, cut: float):
    """(phase, tree) for the phase differences of e_i conj(e_j) X_ij = Y_ij.

    Prim's tree grows from vertex 0 on the largest weight[i, j] (i in the
    tree, j not; ties to the smallest i, then j), and each edge it takes sets
    phase[j] = phase[i] + angle(X_ij) - angle(Y_ij).  When no edge into the
    tree weighs more than cut, the first vertex left out starts a new tree at
    phase 0; tree names each vertex's tree by that first vertex.  Each tree
    keeps one free phase, and the entries off its edges are the caller's
    checks.
    """
    m = weight.shape[0]
    w, ax, ay = weight.tolist(), np.angle(X).tolist(), np.angle(Y).tolist()
    phase, tree = [0.0] * m, [0] * m
    best, parent = list(w[0]), [0] * m  # the heaviest edge into each vertex left out
    outside = list(range(1, m))
    while outside:
        j = max(outside, key=lambda k: (best[k], -parent[k]))
        if best[j] > cut:
            i = parent[j]
            phase[j] = phase[i] + ax[i][j] - ay[i][j]
            tree[j] = tree[i]
        else:  # no edge into the tree above cut: the first vertex left out starts a new one
            j = outside[0]
            tree[j] = j
        outside.remove(j)
        row = w[j]
        for k in outside:
            if row[k] > best[k] or (row[k] == best[k] and j < parent[k]):
                best[k], parent[k] = row[k], j
    return np.array(phase), np.array(tree)


def _closed_form_involution(M: np.ndarray, norm: float, tol: ToleranceConfig):
    """Hermitian involutions Q with Q M = adj(M) Q for a simple spectrum, M
    of Frobenius norm `norm`: ([Q], one_tree) (a candidate the caller
    certifies), ([], False) when none exists, or (None, False) when the
    spectrum cannot decide it.  one_tree says the phase walk joined every
    eigenvector into one tree, so that Q is the only Hermitian involution up
    to sign.

    With adj(M) = U diag(mu) inv(U), U the unit eigenvectors of the shared
    record, the Q with Q M = adj(M) Q are Q = U C adj(U) over the C with
    diag(mu) C = C diag(conj(mu)).  On a simple spectrum with an exact
    conjugate pairing p (mu_p(i) = conj(mu_i); p(i) = i for a real mu_i)
    those are C = diag(e) Pi_p, C[i, p(i)] = e_i, and Q is Hermitian exactly
    when e_p(i) = conj(e_i).  With G = adj(U) U, K = inv(G) and X_ik =
    G[p(i), p(k)], Q^2 = 1 then reads e_i conj(e_k) X_ik = K_ik.  The
    diagonal fixes |e_i|^2 = K_ii / X_ii, and the entry (p(i), p(k)) gives
    the phase difference of (i, k) again, conjugated; each pair takes the
    larger of the two |X|, and _spanning_phases walks the tree.  The weights
    are p-invariant, so p maps trees onto trees, and Hermiticity spends each
    tree's free phase: a tree that p maps onto itself is fixed up to sign at
    its first vertex, a pair of trees that p swaps keeps one free phase (as
    for sigma1 + sigma1 on diag(a, conj a, b, conj b)), set to 0.  Every
    entry of C G C - K is then a check, on rho_ik = |(C G C - K)_ik| /
    (|e_i| |e_k|) <= 2, with C made Hermitian.

    Were there a Hermitian involution, the candidate would be it times a
    unit factor constant on each tree, so rho would be rounding inside a
    tree and at most 2 cut across two trees (whose |X_ik| <= cut).  U
    carries the error delta = eps (n + ||M||_F kappa / gap), where two
    eigenvalues gap apart can mix their eigenvectors (kappa = cond(U)), G
    the same, K the relative error delta / sigma_min(U)^2, and a tree edge
    (|X| > cut) turns that into a phase error at most 1 / cut times larger.
    So the answer is [] only when some rho_ik exceeds 1e3 delta (1 + 1 /
    sigma_min^2)(1 + n / cut), plus 2 cut across trees; a pair that
    rounding could mix raises that bound and is left undecided, never
    "none"; a bound of 2 or more never gives [] (rho <= 2), and the
    candidate goes to the caller to certify.  The gate: every eigenvalue
    alone in the cluster frame of adj(M) (intertwine.cluster_frame, the
    frame witness_space solves on), U past that frame's conditioning gate
    (intertwine._conditioning_floor), and H's clusters (conjugate_map) must
    pair every non-real eigenvalue and mirror no real ones;
    repeated, defective, ill-conditioned or unpaired spectra give None.
    """
    n = M.shape[0]
    record = _eigenpairs(M, adjoint=True)
    frame = cluster_frame(record, norm, tol)
    s, values = record.sigma, record.values
    if not frame.single.all() or s[-1] < _conditioning_floor(s, norm, tol):
        return None, False
    clusters, nearest = conjugate_map(record, norm, tol)
    if clusters.pairs is None or any(clusters.real[a] for a, _ in clusters.pairs):
        return None, False
    gap = np.sort(np.abs(values[:, None] - values), axis=None)[n] if n > 1 else np.inf  # past the n zeros
    cut = 1e-2
    rounding = 1e3 * MACHINE_EPS * (n + norm * s[0] / s[-1] / gap) * (1.0 + s[-1] ** -2) * (1.0 + n / cut)
    p, slot = list(range(n)), np.argsort(nearest).tolist()  # every eigenvalue alone: nearest is a permutation
    for a, b in clusters.pairs:
        p[slot[a]], p[slot[b]] = slot[b], slot[a]
    q = np.array(p)
    U = record.vectors
    G = U.conj().T @ U
    K = np.linalg.inv(G)
    cosine = np.abs(G)
    cosine = np.maximum(cosine, cosine.T)  # symmetric, so the weights below are p-invariant too
    swapped, X = cosine[q[:, None], q], G[q[:, None], q]
    own = swapped >= cosine  # entry (i, k) itself, else (p(i), p(k)) conjugated
    phase, tree = _spanning_phases(np.maximum(swapped, cosine), np.where(own, X, G.conj()),
                                   np.where(own, K, K[q[:, None], q].conj()), cut)
    offset = {}
    for i, (a, b) in enumerate(zip(tree.tolist(), tree[q].tolist())):  # e_p(i) = conj(e_i) at each tree's first i
        if a not in offset:
            t = phase[i] + phase[p[i]]
            offset[a], offset[b] = (-t / 2, -t / 2) if a == b else (0.0, -t)
    modulus = np.sqrt(K.diagonal().real / X.diagonal().real)
    e = modulus * np.exp(1j * (phase + [offset[a] for a in tree.tolist()]))
    e = 0.5 * (e + e[q].conj())  # C = diag(e) Pi_p made Hermitian
    rho = np.abs(e[:, None] * X * e.conj() - K) / np.outer(modulus, modulus)
    if np.any(rho > rounding + 2 * cut * (tree[:, None] != tree)):
        return [], False
    return [(U * e) @ U[:, q].conj().T], not tree.any()


def gen_pt_to_pseudo(Pbar, H, tol: ToleranceConfig = DEFAULT_TOL) -> ConversionResult:
    """Hermitian (ideally involutory) Q with Q H = adj(H) Q, from a
    generalized-PT core K.

    Requires H to actually carry the generalized symmetry for K.  From
    K conj(H) = H K and K conj(K) = 1 follows conj(K) H = conj(H) conj(K),
    so conj(K) stands where pt_to_pseudo takes a parity: the family
    Q = conj(A K) over every transpose witness A holds every Q with
    Q H = adj(H) Q, and it is decided as pt_to_pseudo decides its family,
    with the same outcomes and notes.  witness is that A.
    """
    report = check_symmetry(SymmetryKind.GEN_PT, Pbar, H, tol)  # judged from Pbar's record when it has one
    if not report.holds:
        raise ContractError(f"H lacks the generalized symmetry for this core (residual {report.residual:.3e})")
    return _convert(H, operator_matrix(Pbar).conj(), SymmetryKind.PSEUDO, tol)
