"""The three operator families behind the symmetry classes.

* real involutions        P = conj(P), P^2 = 1   (parity operators)
* Hermitian involutions   P = adj(P),  P^2 = 1   (indefinite Krein metrics)
* antilinear cores        P conj(P) = 1          (combined with conjugation
                                                  they square to the identity)

plus the machinery that transports them: real/unitary/arbitrary similarity,
the anti-diagonal involutory permutation S_n, the closed-form similarity
between S_n and a diagonal signature matrix, and coset elements of
U(m+n) / (U(m) x U(n)) in closed form.

An operator built by make_diagonal_parity, make_sip, involution_operator,
transport or symmetry.find_gen_pt_operator records, on its .verification
field, the check of its own kind that it passed: the residual of each
defining identity, the Frobenius scale and, for the two involution kinds,
the signature and the trace gap.  None of these depends on a tolerance, and
the exact constructions (diagonal parities and cores, and S_n) write them
down rather than measure them.
verify_involution, and through it every symmetry check, judges such an
operator from its record: only the thresholds of the ToleranceConfig it is
given are applied again, so the verdict and the residuals are those a full
check of the matrix gives under that tolerance.  A bare matrix, an operator
built directly as InvolutionOperator(kind, matrix), and a check of a kind
other than the recorded one are checked in full, every time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, NumericalError
from .numerics import (
    DEFAULT_TOL,
    MACHINE_EPS,
    ToleranceConfig,
    as_matrix,
    as_square_matrix,
    frobenius,
    solve_or_raise,
)


class InvolutionKind(enum.Enum):
    REAL_INVOLUTION = "real_involution"
    HERMITIAN_INVOLUTION = "hermitian_involution"
    ANTILINEAR_CORE = "antilinear_core"


@dataclass(frozen=True)
class InvolutionCheck:
    """Outcome of verify_involution: per-identity residuals, never raises."""

    kind: InvolutionKind
    ok: bool
    residuals: dict = field(default_factory=dict)
    signature: tuple | None = None


def _identity_threshold(tol: ToleranceConfig, n: int, scale: float) -> float:
    return max(tol.rel_tol * scale, 16.0 * n * MACHINE_EPS * scale * scale)


class VerificationRecord(NamedTuple):
    """Tolerance-free measurements behind verify_involution for one kind.

    residuals holds the defining identities' residuals; signature and
    trace_gap are taken only when those identities hold (they are None for
    antilinear cores, which have no trace identity).
    """

    kind: InvolutionKind
    dim: int
    scale: float
    residuals: dict
    signature: tuple | None = None
    trace_gap: float | None = None

    def check(self, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionCheck:
        residuals = dict(self.residuals)
        threshold = _identity_threshold(tol, self.dim, self.scale)
        ok = all(r <= threshold for r in residuals.values())
        signature = None
        if ok and self.kind is not InvolutionKind.ANTILINEAR_CORE:
            signature = self.signature
            residuals["trace"] = self.trace_gap
            ok = self.trace_gap <= max(tol.rel_tol * self.scale, 1e-6)
        return InvolutionCheck(kind=self.kind, ok=bool(ok), residuals=residuals, signature=signature)


@dataclass(frozen=True)
class InvolutionOperator:
    kind: InvolutionKind
    matrix: np.ndarray
    signature: tuple | None = None
    # set only by the constructors that verified the matrix (see the module docstring)
    verification: VerificationRecord | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix, "operator").copy())
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def retagged(self, kind: InvolutionKind, tol: ToleranceConfig = DEFAULT_TOL) -> "InvolutionOperator":
        """Same matrix under a different kind tag, revalidated."""
        return involution_operator(self.matrix, kind, tol)


def operator_matrix(O) -> np.ndarray:
    """The matrix of an InvolutionOperator, or O validated as a square matrix."""
    if isinstance(O, InvolutionOperator):
        return O.matrix
    return as_square_matrix(O, "operator")


def _signature_from_eigenvalues(O: np.ndarray, hermitian: bool) -> tuple:
    # Involutions are diagonalizable with eigenvalues +-1, so counting signs
    # of the real parts is robust: a miscount would need an O(1) perturbation.
    values = np.linalg.eigvalsh(O) if hermitian else np.linalg.eigvals(O)
    plus = int(np.sum(values.real > 0.0))
    return (plus, O.shape[0] - plus)


# The defining identities of each kind, as maps of (A, 1) that vanish on the family.
_IDENTITIES = {
    InvolutionKind.REAL_INVOLUTION: {"reality": lambda A, eye: A - A.conj(), "square": lambda A, eye: A @ A - eye},
    InvolutionKind.HERMITIAN_INVOLUTION: {"hermiticity": lambda A, eye: A - A.conj().T,
                                          "square": lambda A, eye: A @ A - eye},
    InvolutionKind.ANTILINEAR_CORE: {"conjugate_product": lambda A, eye: A @ A.conj() - eye},
}


def _measure(A: np.ndarray, kind: InvolutionKind, tol: ToleranceConfig) -> VerificationRecord:
    """The record of a full check of matrix A as the given kind; the signature
    is taken only when the identities hold under tol."""
    n = A.shape[0]
    scale = max(1.0, frobenius(A))
    eye = np.eye(n)
    residuals = {name: frobenius(gap(A, eye)) for name, gap in _IDENTITIES[kind].items()}
    threshold = _identity_threshold(tol, n, scale)
    if kind is InvolutionKind.ANTILINEAR_CORE or not all(r <= threshold for r in residuals.values()):
        return VerificationRecord(kind, n, scale, residuals)
    signature = _signature_from_eigenvalues(A, kind is InvolutionKind.HERMITIAN_INVOLUTION)
    trace_gap = float(abs(np.trace(A).real - (signature[0] - signature[1])))
    return VerificationRecord(kind, n, scale, residuals, signature, trace_gap)


def _recorded(op: InvolutionOperator, record: VerificationRecord) -> InvolutionOperator:
    object.__setattr__(op, "verification", record)
    return op


def _exact(op: InvolutionOperator) -> InvolutionOperator:
    """op with the record of a check its matrix passes exactly: for a
    diagonal of +-1 or S_n, with the signature op carries, every identity
    residual and the trace gap are 0 in floating point, and the Frobenius
    norm is sqrt(dim)."""
    spectrum = (None, None) if op.kind is InvolutionKind.ANTILINEAR_CORE else (op.signature, 0.0)
    residuals = dict.fromkeys(_IDENTITIES[op.kind], 0.0)
    return _recorded(op, VerificationRecord(op.kind, op.dim, max(1.0, math.sqrt(op.dim)), residuals, *spectrum))


def verify_involution(O, kind: InvolutionKind, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionCheck:
    """Check exactly the defining identities of the given kind.

    O is a matrix or an InvolutionOperator; an operator that recorded a check
    of this kind is judged from its record under tol's thresholds.  Failing
    checks are reported in the result, not raised.
    """
    record = O.verification if isinstance(O, InvolutionOperator) else None
    if record is None or record.kind is not kind:
        record = _measure(operator_matrix(O), kind, tol)
    return record.check(tol)


def involution_operator(matrix, kind: InvolutionKind, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionOperator:
    """Validated constructor; raises ContractError when the identities fail."""
    A = operator_matrix(matrix)
    record = _measure(A, kind, tol)
    check = record.check(tol)
    if not check.ok:
        raise ContractError(f"matrix does not satisfy the {kind.value} identities: residuals {check.residuals}")
    return _recorded(InvolutionOperator(kind=kind, matrix=A, signature=check.signature), record)


def make_diagonal_parity(m: int, n: int, kind: InvolutionKind = InvolutionKind.REAL_INVOLUTION) -> InvolutionOperator:
    """Diag{1,...,1,-1,...,-1} with signature (m, n).

    The same diagonal matrix serves as the base parity and as the base
    indefinite metric; pick the tag via `kind` or use .retagged().
    """
    if m < 0 or n < 0 or m + n < 1:
        raise DimensionError(f"need m, n >= 0 with m + n >= 1, got ({m}, {n})")
    diag = np.concatenate([np.ones(m), -np.ones(n)])
    return _exact(InvolutionOperator(kind=kind, matrix=np.diag(diag).astype(complex), signature=(m, n)))


def make_sip(n: int, kind: InvolutionKind = InvolutionKind.HERMITIAN_INVOLUTION) -> InvolutionOperator:
    """Anti-diagonal unit matrix S_n (units on the skew-diagonal)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    S = np.fliplr(np.eye(n)).astype(complex)
    plus = (n + 1) // 2
    return _exact(InvolutionOperator(kind=kind, matrix=S, signature=(plus, n - plus)))


def transport(op: InvolutionOperator, T, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionOperator:
    """Move an operator along a transformation that preserves its kind.

    Real involutions ride real similarities, Hermitian involutions unitary
    ones, antilinear cores any invertible T via T O (T^{-1})*.  The input kind
    is re-validated eagerly and the output re-verified.
    """
    A = as_square_matrix(T, "transformation")
    if A.shape[0] != op.dim:
        raise DimensionError(f"transformation is {A.shape[0]}x{A.shape[0]} but operator is {op.dim}x{op.dim}")
    check = verify_involution(op, op.kind, tol)
    if not check.ok:
        raise ContractError(f"input operator fails its own {op.kind.value} invariants: {check.residuals}")
    scale = max(1.0, frobenius(A))
    if op.kind is InvolutionKind.REAL_INVOLUTION:
        if frobenius(A - A.conj()) > tol.rel_tol * scale:
            raise ContractError("real involutions transport along real transformations only")
        out = A @ op.matrix @ solve_or_raise(A)
    elif op.kind is InvolutionKind.HERMITIAN_INVOLUTION:
        if frobenius(A @ A.conj().T - np.eye(op.dim)) > tol.rel_tol * scale:
            raise ContractError("Hermitian involutions transport along unitary transformations only")
        out = A @ op.matrix @ A.conj().T
    else:
        out = A @ op.matrix @ solve_or_raise(A).conj()
    record = _measure(out, op.kind, tol)
    result = record.check(tol)
    if not result.ok:
        raise NumericalError(f"transported operator lost its {op.kind.value} invariants: residuals {result.residuals}")
    return _recorded(InvolutionOperator(kind=op.kind, matrix=out, signature=result.signature), record)


@dataclass(frozen=True)
class GrassmannCosetSpec:
    """Off-diagonal block b and flow parameter x of a U(m+n) coset element."""

    m: int
    n: int
    b: np.ndarray
    x: float

    def __post_init__(self):
        B = as_matrix(self.b, "b")
        if B.shape != (self.m, self.n):
            raise DimensionError(f"b must be {self.m}x{self.n}, got {B.shape}")
        object.__setattr__(self, "b", B)
        if not np.isfinite(self.x):
            raise ContractError("x must be finite")

    def generator(self) -> np.ndarray:
        """Anti-Hermitian generator with the square diagonal blocks removed."""
        m, n = self.m, self.n
        a = np.zeros((m + n, m + n), dtype=complex)
        a[:m, m:] = self.b
        a[m:, :m] = -self.b.conj().T
        return a


def _cos_and_sinc_of_sqrt(M: np.ndarray, x: float):
    # M is Hermitian PSD; returns cos(sqrt(M) x) and sin(sqrt(M) x)/sqrt(M),
    # with the 0-eigenvalue limit sin(0 x)/0 = x.
    w, Q = np.linalg.eigh(M)
    s = np.sqrt(np.clip(w, 0.0, None))
    cos_part = (Q * np.cos(s * x)) @ Q.conj().T
    sinc = np.where(s > 1e-150, np.sin(s * x) / np.where(s > 1e-150, s, 1.0), x)
    sinc_part = (Q * sinc) @ Q.conj().T
    return cos_part, sinc_part


def grassmann_coset_element(spec: GrassmannCosetSpec) -> np.ndarray:
    """Closed-form unitary coset element exp(a x) of U(m+n)/(U(m) x U(n))."""
    b, x = spec.b, spec.x
    cos_m, _ = _cos_and_sinc_of_sqrt(b @ b.conj().T, x)
    cos_n, sinc_n = _cos_and_sinc_of_sqrt(b.conj().T @ b, x)
    top = np.hstack([cos_m, b @ sinc_n])
    bottom = np.hstack([-sinc_n @ b.conj().T, cos_n])
    return np.vstack([top, bottom])


def sip_similarity(n_total: int):
    """Closed-form q with q Diag{1..1,-1..-1} q^{-1} = S_{n_total}.

    Even sizes pair the diagonal parity of signature (k, k); odd sizes use
    (k+1, k) with an untouched middle direction.  Both q and q^{-1} are
    returned; q equals exp(g pi/4) = (1 + g) / sqrt(2) off the middle
    direction, for the skew generator g of sip_similarity_generator.
    """
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    q = inv_sqrt2 * sip_similarity_generator(n_total)
    np.fill_diagonal(q, inv_sqrt2)
    if n_total % 2:
        q[n_total // 2, n_total // 2] = 1.0  # the untouched middle direction
    return q, q.T.copy()  # q is real orthogonal


def sip_similarity_generator(n_total: int) -> np.ndarray:
    """Skew generator g with exp(g pi/4) equal to sip_similarity's q."""
    if n_total < 1:
        raise DimensionError(f"need n_total >= 1, got {n_total}")
    if n_total == 1:
        return np.zeros((1, 1), dtype=complex)
    if n_total % 2 == 0:
        k = n_total // 2
        S = np.fliplr(np.eye(k))
        return np.block([[np.zeros((k, k)), -S], [S, np.zeros((k, k))]]).astype(complex)
    k = (n_total - 1) // 2
    S = np.fliplr(np.eye(k))
    z = np.zeros((k, 1))
    return np.block(
        [[np.zeros((k, k)), z, -S], [z.T, np.zeros((1, 1)), z.T], [S, z, np.zeros((k, k))]]
    ).astype(complex)
