"""Transpose witnesses and conversions between the three symmetry pictures.

Every square matrix B is similar to its transpose; an invertible A with
A B inv(A) = transpose(B) is a transpose witness.  For a diagonalizable B
with well-conditioned eigenvectors V of transpose(B) the witness is
V transpose(V); otherwise witnesses are found from the nullspace of the
linear map A -> A B - transpose(B) A, with a closed-form fallback assembled
from a known Jordan similarity.

The conversions ride on the witness space:

* PT -> pseudo:   every witness A gives Q = conj(A) P with Q H = adj(H) Q;
                  a Hermitian involutory Q in that family exhibits H as
                  pseudo-Hermitian.
* pseudo -> PT:   every witness A gives Q = conj(P) A with Q H = conj(H) Q;
                  a real involutory Q is a parity for H.
* gen-PT -> pseudo: Q = core A intertwines adj(H) with H when A conj(A) = 1;
                  candidates are filtered on that identity.

Hermiticity/reality are real-linear constraints stacked onto the witness
coefficients; the involution is hunted over candidates (family basis, then a
traceless slice, then seeded random draws) and enforced by scalar rescaling
whenever Q^2 is a positive multiple of the identity.  Searches are
deterministic for a fixed seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .involutions import InvolutionKind, make_sip, operator_matrix, verify_involution
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_square_matrix,
    frobenius,
    needs_sign_flip,
    nullspace_complex,
    rank_and_nullspace,
    vectorize,
)
from .symmetry import SymmetryKind, check_symmetry

DEFAULT_SEED = 42
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
    """Complex basis of all A with A B = transpose(B) A, as a (k, n, n) stack.

    In row-major coordinates vec(A B) = kron(1, transpose(B)) vec(A) and
    vec(transpose(B) A) = kron(transpose(B), 1) vec(A); the basis is the SVD
    nullspace of their difference.
    """
    M = as_square_matrix(B, "B")
    n = M.shape[0]
    eye = np.eye(n)
    null = nullspace_complex(np.kron(eye, M.T) - np.kron(M.T, eye), tol)
    return null.T.reshape(-1, n, n)


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


def _eigenvector_witness(M: np.ndarray, tol: ToleranceConfig, scale: float) -> TransposeWitness | None:
    """V transpose(V) over the unit eigenvectors V of transpose(M), normalized,
    when it is well conditioned and certified; None otherwise."""
    _, V = np.linalg.eig(M.T)
    A = V @ V.T
    norm = frobenius(A)
    if norm == 0:
        return None
    A = A / norm
    if _invertibility(A) <= 1e-3:
        return None
    residual = _similarity_residual(A, M, scale)
    if residual > max(tol.abs_tol, 1e-10):
        return None
    return TransposeWitness(A=A, method=WitnessMethod.NULLSPACE_SEARCH, residual=residual)


def transpose_matrix(B, tol: ToleranceConfig = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                     budget: int = DEFAULT_BUDGET, jordan_witness=None) -> TransposeWitness:
    """Invertible A with A B inv(A) = transpose(B).

    The first candidate is A = V transpose(V), V the unit eigenvectors of
    transpose(B): transpose(B) V = V D gives A B = V D transpose(V) =
    transpose(B) A, so it lies in the witness space of every diagonalizable
    B, and its method is reported as NULLSPACE_SEARCH.  It is returned
    (normalized to unit Frobenius norm) when it passes the hunt's own
    stopping rule, sigma_min / sigma_max > 1e-3, and its similarity residual
    is within max(abs_tol, 1e-10).  Otherwise (defective or ill-conditioned
    B) the search hunts the dense witness nullspace for a well-conditioned
    element, as it would without the first candidate; jordan_witness =
    (F, block_sizes), available for this package's own constructions,
    switches on the closed-form fallback if the hunt comes up empty (which
    would be a bug, and is raised as such otherwise).
    """
    M = as_square_matrix(B, "B")
    scale = max(frobenius(M), 1.0)
    witness = _eigenvector_witness(M, tol, scale)
    if witness is not None:
        return witness

    basis = witness_space(M, tol)
    rng = np.random.default_rng(seed)

    k, n = len(basis), M.shape[0]
    draws = rng.normal(size=(max(budget - k, 16), 2, k))
    randoms = ((draws[:, 0] + 1j * draws[:, 1]) @ basis.reshape(k, n * n)).reshape(-1, n, n)
    best, best_q = None, 0.0
    for A in np.concatenate([basis, randoms]):
        norm = frobenius(A)
        if norm <= 0:
            continue
        q = _invertibility(A / norm)
        if q > best_q:
            best, best_q = A / norm, q
        if best_q > 1e-3:
            break
    method = WitnessMethod.NULLSPACE_SEARCH
    if best is None or best_q <= 1e-8:
        if jordan_witness is not None:
            F, sizes = jordan_witness
            best = transpose_from_jordan(F, sizes)
            method = WitnessMethod.JORDAN_RECIPE
        else:
            raise NumericalError(
                "no invertible transpose witness found within budget; "
                "a witness always exists, so this is a bug-level diagnostic"
            )
    return TransposeWitness(A=best, method=method, residual=_similarity_residual(best, M, scale))


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one conversion attempt.

    residuals = (structure, involution, intertwining): structure is
    Hermiticity of Q for the pseudo-targets and reality for the parity
    target; intertwining is the target identity scaled by ||H||.  A missing
    valid Q is a reported outcome (flags False), never an exception.
    degenerate marks searches that only met candidates squaring to a
    vanishing multiple of the identity, which no rescaling can repair.
    """

    Q: np.ndarray | None
    hermitian: bool
    involutory: bool
    target_kind_satisfied: bool
    residuals: tuple
    degenerate: bool = False
    witness: np.ndarray | None = None
    note: str | None = None


def _sign_normalize_pair(Q: np.ndarray, A: np.ndarray):
    return (-Q, -A) if needs_sign_flip(Q) else (Q, A)


class _Direction(enum.Enum):
    PT_TO_PSEUDO = "pt_to_pseudo"
    PSEUDO_TO_PT = "pseudo_to_pt"


def _convert(H, P, direction: _Direction, tol, seed, budget) -> ConversionResult:
    M = as_square_matrix(H, "H")
    n = M.shape[0]
    scale = max(frobenius(M), 1.0)
    eye = np.eye(n)

    if direction is _Direction.PT_TO_PSEUDO:
        def build_q(A):
            return A.conj() @ P
        def structure_gap(Q):
            return Q - Q.conj().swapaxes(-1, -2)
        def intertwine(Q):
            return frobenius(Q @ M - M.conj().T @ Q)
        real_scalar_required = False
    else:
        def build_q(A):
            return P.conj() @ A
        def structure_gap(Q):
            return Q - Q.conj()
        def intertwine(Q):
            return frobenius(Q @ M - M.conj() @ Q)
        real_scalar_required = True

    basis = witness_space(M, tol)
    directions = np.stack([basis, 1j * basis], 1).reshape(-1, n, n)  # real span of the witnesses
    q_dirs = build_q(directions)
    _, coeff_basis = rank_and_nullspace(vectorize(structure_gap(q_dirs)).T, tol)
    fdim = coeff_basis.shape[1]
    # the constrained family, one flattened element per coefficient direction
    q_family = coeff_basis.T @ q_dirs.reshape(-1, n * n)
    a_family = coeff_basis.T @ directions.reshape(-1, n * n)

    def q_and_a(z):
        return (z @ q_family).reshape(n, n), (z @ a_family).reshape(n, n)

    if fdim == 0:
        return ConversionResult(Q=None, hermitian=False, involutory=False,
                                target_kind_satisfied=False,
                                residuals=(float("inf"), float("inf"), float("inf")),
                                note="constrained family is empty")

    rng = np.random.default_rng(seed)
    candidates = []
    # canonical choice first: the identity, when it lies in the family
    q_flat = vectorize(q_family.reshape(fdim, n, n)).T
    target = vectorize(np.eye(n, dtype=complex))
    z_id, *_ = np.linalg.lstsq(q_flat, target, rcond=None)
    if np.linalg.norm(q_flat @ z_id - target) <= 1e-10 * np.sqrt(n):
        candidates.append(z_id)
    candidates += list(np.eye(fdim))
    traces = np.trace(q_family.reshape(fdim, n, n), axis1=1, axis2=2).real
    if np.any(np.abs(traces) > 1e-14):
        _, tnull = rank_and_nullspace(traces.reshape(1, -1), tol)
        candidates += list(tnull.T)
        if tnull.shape[1]:
            candidates += list(rng.normal(size=(min(16, budget), tnull.shape[1])) @ tnull.T)
    candidates += list(rng.normal(size=(budget, fdim)))

    intertwine_cut = max(tol.abs_tol * scale, 1e-10 * scale)

    def hunt():
        saw_degenerate = False
        for z in candidates:
            Q, A = q_and_a(z)
            norm = frobenius(Q)
            if norm <= 1e-13:
                continue
            Q, A = Q / norm, A / norm
            c = complex(np.trace(Q @ Q)) / n
            if frobenius(Q @ Q - c * eye) > 1e-9:
                continue
            if real_scalar_required and abs(c.imag) > 1e-10:
                continue
            if c.real <= 1e-12:
                saw_degenerate = True
                continue
            root = np.sqrt(c.real)
            Qn, An = Q / root, A / root
            if intertwine(Qn) > intertwine_cut:
                continue
            return *_sign_normalize_pair(Qn, An), saw_degenerate
        return None, None, saw_degenerate

    Qn, An, saw_degenerate = hunt()

    if Qn is None:
        return ConversionResult(Q=None, hermitian=False, involutory=False,
                                target_kind_satisfied=False,
                                residuals=(float("inf"), float("inf"), float("inf")),
                                degenerate=saw_degenerate,
                                note="no involutory element found in the constrained family within budget")

    herm_res = frobenius(Qn - Qn.conj().T)
    struct_res = frobenius(structure_gap(Qn))
    inv_res = frobenius(Qn @ Qn - eye)
    int_res = intertwine(Qn) / scale
    if direction is _Direction.PSEUDO_TO_PT:
        target_kind = SymmetryKind.PT
        op_kind = InvolutionKind.REAL_INVOLUTION
    else:
        target_kind = SymmetryKind.PSEUDO
        op_kind = InvolutionKind.HERMITIAN_INVOLUTION
    qualifies = verify_involution(Qn, op_kind, tol).ok
    target_ok = bool(qualifies and check_symmetry(target_kind, Qn, M, tol).holds)
    return ConversionResult(
        Q=Qn,
        hermitian=bool(herm_res <= max(tol.abs_tol, 1e-9)),
        involutory=bool(inv_res <= max(tol.abs_tol, 1e-8)),
        target_kind_satisfied=target_ok,
        residuals=(float(struct_res), float(inv_res), float(int_res)),
        degenerate=False,
        witness=An,
    )


def pt_to_pseudo(P, H, tol: ToleranceConfig = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                 budget: int = DEFAULT_BUDGET) -> ConversionResult:
    """Hermitian (ideally involutory) Q with Q H = adj(H) Q, from a parity.

    Requires H to actually be symmetric under P.
    """
    Pm = operator_matrix(P)
    report = check_symmetry(SymmetryKind.PT, Pm, H, tol)
    if not report.holds:
        raise ContractError(f"H is not symmetric under the given parity (residual {report.residual:.3e})")
    return _convert(H, Pm, _Direction.PT_TO_PSEUDO, tol, seed, budget)


def pseudo_to_pt(Ptilde, H, tol: ToleranceConfig = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                 budget: int = DEFAULT_BUDGET) -> ConversionResult:
    """Real involutory Q with Q H = conj(H) Q, from a Hermitian involution.

    On success Q is a valid parity for H.  Families whose candidates square
    to a vanishing or negative multiple of the identity are reported
    degenerate (no real rescaling exists).
    """
    Pm = operator_matrix(Ptilde)
    report = check_symmetry(SymmetryKind.PSEUDO, Pm, H, tol)
    if not report.holds:
        raise ContractError(f"H is not pseudo-Hermitian under the given metric (residual {report.residual:.3e})")
    return _convert(H, Pm, _Direction.PSEUDO_TO_PT, tol, seed, budget)


def _unit_witnesses(basis, n, rng, budget):
    """Witness-space elements with A conj(A) = 1, by damped least squares.

    The constraint is quadratic in the witness coefficients, so candidates
    come from seeded multi-start least-squares refinement of
    A conj(A) - 1 = 0; the solution set carries a free phase (and sign),
    handled downstream.
    """
    from scipy.optimize import least_squares

    dim = 2 * len(basis)
    if dim == 0:
        return []
    directions = np.stack([basis, 1j * basis], 1).reshape(dim, n * n)
    eye = np.eye(n)

    def build(z):
        return (z @ directions).reshape(n, n)

    def residual(z):
        A = build(z)
        return vectorize(A @ A.conj() - eye)

    found = []
    starts = max(budget // 16, 8)
    for trial in range(starts):
        z0 = rng.normal(size=dim)
        try:
            sol = least_squares(residual, z0, xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=400)
        except Exception:  # pragma: no cover - optimizer hiccup
            continue
        if sol.cost > 1e-22:
            continue
        A = build(sol.x)
        if frobenius(A @ A.conj() - eye) > 1e-9:
            continue
        if all(frobenius(A - B) > 1e-6 and frobenius(A + B) > 1e-6 for B in found):
            found.append(A)
        if len(found) >= 12:
            break
    return found


def _best_hermitian_phase(Q: np.ndarray) -> complex:
    """Phase w (|w| = 1) minimizing || w Q - adj(w Q) ||_F.

    Expanding the norm shows the optimum aligns w^2 with tr(Q^2).
    """
    t = complex(np.trace(Q @ Q))
    if abs(t) < 1e-30:
        return 1.0 + 0.0j
    return np.exp(-1j * np.angle(t) / 2.0)


def gen_pt_to_pseudo(Pbar, H, tol: ToleranceConfig = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                     budget: int = DEFAULT_BUDGET) -> ConversionResult:
    """Q = core * A over transpose witnesses restricted to A conj(A) = 1.

    Every such Q intertwines adj(H) with H; Hermiticity and involution are
    then properties to report, not constraints of the search.  Candidates are
    ranked so a Hermitian involutory Q (a full indefinite-metric operator) is
    returned when one exists; an empty constraint set within budget is a
    reported outcome.
    """
    Pm = operator_matrix(Pbar)
    report = check_symmetry(SymmetryKind.GEN_PT, Pm, H, tol)
    if not report.holds:
        raise ContractError(f"H lacks the generalized symmetry for this core (residual {report.residual:.3e})")
    M = as_square_matrix(H, "H")
    n = M.shape[0]
    scale = max(frobenius(M), 1.0)
    eye = np.eye(n)
    rng = np.random.default_rng(seed)

    basis = witness_space(M, tol)
    candidates = []
    # the identity is a witness exactly when H is symmetric; cheap and common
    if frobenius(M - M.T) <= tol.abs_tol * scale:
        candidates.append(eye.astype(complex))
    candidates.extend(_unit_witnesses(basis, n, rng, budget))

    if not candidates:
        return ConversionResult(Q=None, hermitian=False, involutory=False,
                                target_kind_satisfied=False,
                                residuals=(float("inf"), float("inf"), float("inf")),
                                note="no witness with A conj(A) = 1 found within budget")

    best = None
    for idx, A in enumerate(candidates):
        Q = Pm @ A
        # the free phase of A rotates Q; spend it on Hermiticity
        w = _best_hermitian_phase(Q)
        chosen = None
        for phase in (w, 1.0 + 0.0j):
            Qp, Ap = _sign_normalize_pair(phase * Q, phase * A)
            herm = frobenius(Qp - Qp.conj().T)
            inv = frobenius(Qp @ Qp - eye)
            inter = frobenius(Qp @ M.conj().T - M @ Qp) / scale
            is_herm = herm <= max(tol.abs_tol, 1e-9)
            is_inv = inv <= max(tol.abs_tol, 1e-8)
            target_ok = bool(
                is_herm and is_inv
                and verify_involution(Qp, InvolutionKind.HERMITIAN_INVOLUTION, tol).ok
                and check_symmetry(SymmetryKind.PSEUDO, Qp, M, tol).holds
            )
            key = (target_ok, is_herm, is_inv, -(herm + inv + inter))
            entry = (key, Qp, Ap, (float(herm), float(inv), float(inter)), is_herm, is_inv, target_ok)
            if chosen is None or key > chosen[0]:
                chosen = entry
        if idx == 0 and chosen[0][0]:
            # the canonical (earliest) candidate fully qualifies; keep it
            best = chosen
            break
        if best is None or chosen[0] > best[0]:
            best = chosen

    _, Qp, Ap, residuals, is_herm, is_inv, target_ok = best
    return ConversionResult(
        Q=Qp,
        hermitian=is_herm,
        involutory=is_inv,
        target_kind_satisfied=target_ok,
        residuals=residuals,
        witness=Ap,
    )
