"""The three operator families behind the symmetry classes.

* real involutions        P = conj(P), P^2 = 1   (parity operators)
* Hermitian involutions   P = adj(P),  P^2 = 1   (indefinite Krein metrics)
* antilinear cores        P conj(P) = 1          (combined with conjugation
                                                  they square to the identity)

plus the machinery that transports them: real/unitary/arbitrary similarity,
the anti-diagonal involutory permutation S_n, the closed-form similarity
between S_n and a diagonal signature matrix, and coset elements of
U(m+n) / (U(m) x U(n)) in closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, NumericalError
from .numerics import (
    DEFAULT_TOL,
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


@dataclass(frozen=True)
class InvolutionOperator:
    kind: InvolutionKind
    matrix: np.ndarray
    signature: tuple | None = None

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


def verify_involution(O, kind: InvolutionKind, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionCheck:
    """Check exactly the defining identities of the given kind.

    Failing checks are reported in the result, not raised.
    """
    A = as_square_matrix(O, "operator")
    n = A.shape[0]
    eye = np.eye(n)
    scale = max(1.0, frobenius(A))
    residuals = {}
    if kind is InvolutionKind.REAL_INVOLUTION:
        residuals["reality"] = frobenius(A - A.conj())
        residuals["square"] = frobenius(A @ A - eye)
    elif kind is InvolutionKind.HERMITIAN_INVOLUTION:
        residuals["hermiticity"] = frobenius(A - A.conj().T)
        residuals["square"] = frobenius(A @ A - eye)
    elif kind is InvolutionKind.ANTILINEAR_CORE:
        residuals["conjugate_product"] = frobenius(A @ A.conj() - eye)
    else:  # pragma: no cover
        raise ContractError(f"unknown involution kind {kind!r}")
    threshold = max(tol.abs_tol * scale, 16.0 * n * np.finfo(float).eps * scale * scale)
    ok = all(r <= threshold for r in residuals.values())
    signature = None
    if ok and kind is not InvolutionKind.ANTILINEAR_CORE:
        signature = _signature_from_eigenvalues(A, kind is InvolutionKind.HERMITIAN_INVOLUTION)
        trace_gap = abs(np.trace(A).real - (signature[0] - signature[1]))
        residuals["trace"] = float(trace_gap)
        ok = trace_gap <= max(tol.abs_tol * scale, 1e-6)
    return InvolutionCheck(kind=kind, ok=bool(ok), residuals={k: float(v) for k, v in residuals.items()}, signature=signature)


def involution_operator(matrix, kind: InvolutionKind, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionOperator:
    """Validated constructor; raises ContractError when the identities fail."""
    check = verify_involution(matrix, kind, tol)
    if not check.ok:
        raise ContractError(f"matrix does not satisfy the {kind.value} identities: residuals {check.residuals}")
    return InvolutionOperator(kind=kind, matrix=np.asarray(matrix, dtype=complex), signature=check.signature)


def make_diagonal_parity(m: int, n: int, kind: InvolutionKind = InvolutionKind.REAL_INVOLUTION) -> InvolutionOperator:
    """Diag{1,...,1,-1,...,-1} with signature (m, n).

    The same diagonal matrix serves as the base parity and as the base
    indefinite metric; pick the tag via `kind` or use .retagged().
    """
    if m < 0 or n < 0 or m + n < 1:
        raise DimensionError(f"need m, n >= 0 with m + n >= 1, got ({m}, {n})")
    diag = np.concatenate([np.ones(m), -np.ones(n)])
    return InvolutionOperator(kind=kind, matrix=np.diag(diag).astype(complex), signature=(m, n))


def make_sip(n: int, kind: InvolutionKind = InvolutionKind.HERMITIAN_INVOLUTION) -> InvolutionOperator:
    """Anti-diagonal unit matrix S_n (units on the skew-diagonal)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    S = np.fliplr(np.eye(n)).astype(complex)
    plus = (n + 1) // 2
    return InvolutionOperator(kind=kind, matrix=S, signature=(plus, n - plus))


def transport(op: InvolutionOperator, T, tol: ToleranceConfig = DEFAULT_TOL) -> InvolutionOperator:
    """Move an operator along a transformation that preserves its kind.

    Real involutions ride real similarities, Hermitian involutions unitary
    ones, antilinear cores any invertible T via T O (T^{-1})*.  The input kind
    is re-validated eagerly and the output re-verified.
    """
    A = as_square_matrix(T, "transformation")
    if A.shape[0] != op.dim:
        raise DimensionError(f"transformation is {A.shape[0]}x{A.shape[0]} but operator is {op.dim}x{op.dim}")
    check = verify_involution(op.matrix, op.kind, tol)
    if not check.ok:
        raise ContractError(f"input operator fails its own {op.kind.value} invariants: {check.residuals}")
    scale = max(1.0, frobenius(A))
    if op.kind is InvolutionKind.REAL_INVOLUTION:
        if frobenius(A - A.conj()) > tol.abs_tol * scale:
            raise ContractError("real involutions transport along real transformations only")
        out = A @ op.matrix @ solve_or_raise(A)
    elif op.kind is InvolutionKind.HERMITIAN_INVOLUTION:
        if frobenius(A @ A.conj().T - np.eye(op.dim)) > tol.abs_tol * scale:
            raise ContractError("Hermitian involutions transport along unitary transformations only")
        out = A @ op.matrix @ A.conj().T
    else:
        out = A @ op.matrix @ solve_or_raise(A).conj()
    result = verify_involution(out, op.kind, tol)
    if not result.ok:
        raise NumericalError(f"transported operator lost its {op.kind.value} invariants: residuals {result.residuals}")
    return InvolutionOperator(kind=op.kind, matrix=out, signature=result.signature)


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
