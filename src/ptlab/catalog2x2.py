"""Closed-form 2x2 catalog for all three symmetry classes.

Every object here is an exact formula evaluation (no numerical solves), which
makes the catalog the golden oracle for the generic machinery: base-frame
matrices, eigenvalues and eigenvectors, metric operators with their
eigenvalues and weighted norms, the two transformation charts with their
transported parity/metric, the cross operators tying the PT and
pseudo-Hermitian pictures together, Jordan-chain vectors at the exceptional
point, and the general antilinear core.

Parameter records serialize to JSON with field names e, gamma, rho, delta,
u, v, theta, phi, alpha.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConstraintError, ContractError, SingularCaseError
from .numerics import needs_sign_flip

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)


def pauli_combination(coeffs, identity_coeff=0.0) -> np.ndarray:
    """identity_coeff * 1 + coeffs . (sigma1, sigma2, sigma3).

    The coefficients may be arrays; they broadcast together and give a
    (..., 2, 2) stack, each matrix the combination of its coefficients.
    """
    out = np.asarray(identity_coeff, dtype=complex)[..., None, None] * SIGMA0
    for c, s in zip(coeffs, PAULI):
        out = out + np.asarray(c, dtype=complex)[..., None, None] * s
    return out


def _grid_axes(e, gamma, rho, delta):
    """The four axes as float arrays broadcasting over the e x gamma x rho x
    delta grid, delta varying fastest."""
    shapes = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))
    return [np.asarray(a, dtype=float).reshape(shape) for a, shape in zip((e, gamma, rho, delta), shapes)]


def _pointwise(fn, *axes):
    """fn at every point of the subgrid spanned by some grid axes (given in
    grid order), one Python call per point.

    Products with complex numbers go through here: numpy's complex multiply
    may fuse a multiply and an add, which rounds an underflowing product to
    a zero of another sign than Python's scalar arithmetic does.
    """
    values = [fn(*point) for point in itertools.product(*(a.reshape(-1).tolist() for a in axes))]
    return np.array(values).reshape(np.broadcast_shapes(*(a.shape for a in axes)))


def _require_finite(params):
    """ContractError naming the first field of a parameter record that is not finite."""
    for f in fields(params):
        if not math.isfinite(float(getattr(params, f.name))):
            raise ContractError(f"parameter {f.name} must be finite")


@dataclass(frozen=True)
class Pt2Params:
    """Four matrix parameters, two metric constants, two chart angles."""

    e: float = 0.0
    gamma: float = 1.0
    rho: float = 0.0
    delta: float = 0.0
    u: float = 1.0
    v: float = 0.0
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(self)

    def metric_reason(self) -> str | None:
        """None when the positive-metric constraints hold, else the violation."""
        if self.u * self.gamma <= 0:
            return f"u*gamma > 0 violated (u*gamma = {self.u * self.gamma:g})"
        if self.v ** 2 >= self.gamma ** 2 - self.rho ** 2:
            return (
                f"v^2 < gamma^2 - rho^2 violated "
                f"(v^2 = {self.v ** 2:g}, gamma^2 - rho^2 = {self.gamma ** 2 - self.rho ** 2:g})"
            )
        return None

    def require_metric(self):
        reason = self.metric_reason()
        if reason is not None:
            raise ConstraintError(reason)


@dataclass(frozen=True)
class Pt2Family:
    hamiltonian: np.ndarray
    energy_plus: complex
    energy_minus: complex
    vec_plus: np.ndarray
    vec_minus: np.ndarray
    metric: np.ndarray | None
    omega_plus: float | None
    omega_minus: float | None
    norm_plus: float | None
    norm_minus: float | None
    metric_reason: str | None


def pt2_grid(e, gamma, rho, delta) -> np.ndarray:
    """(K, 2, 2) stack of the PT-family matrix at every point of the grid
    e x gamma x rho x delta, in loop order e -> gamma -> rho -> delta."""
    e, gamma, rho, delta = _grid_axes(e, gamma, rho, delta)
    coeffs = (_pointwise(lambda r: 1j * r, rho),
              gamma * _pointwise(math.sin, delta),
              gamma * _pointwise(math.cos, delta))
    return pauli_combination(coeffs, e).reshape(-1, 2, 2)


def pt2_hamiltonian(p: Pt2Params) -> np.ndarray:
    return pt2_grid(p.e, p.gamma, p.rho, p.delta)[0]


def pt2_metric(p: Pt2Params) -> np.ndarray:
    p.require_metric()
    return p.u * pauli_combination(
        (0.0,
         p.v * math.sin(p.delta) - p.rho * math.cos(p.delta),
         p.v * math.cos(p.delta) + p.rho * math.sin(p.delta)),
        p.gamma,
    )


def pt2_family(p: Pt2Params, normalization=(1.0, 1.0)) -> Pt2Family:
    """Base-frame family: matrix, spectrum, eigenvectors, metric data.

    The eigenvector choice dodges the accidental degeneracy at
    rho = +-gamma sin(delta); normalization holds the two free constants
    (default 1, which is what the printed weighted-norm formulas assume).
    The four metric fields are None, with metric_reason set, whenever the
    positivity constraints fail.
    """
    g, r, d = p.gamma, p.rho, p.delta
    root = cmath.sqrt(complex(g * g - r * r))
    e_plus, e_minus = p.e + root, p.e - root
    phase = g * cmath.exp(1j * d)
    n_plus, n_minus = normalization
    vec_plus = n_plus * np.array([phase - 1j * r + root, phase + 1j * r - root])
    vec_minus = n_minus * np.array([phase - 1j * r - root, phase + 1j * r + root])

    reason = p.metric_reason()
    metric = omega_plus = omega_minus = norm_plus = norm_minus = None
    if reason is None:
        metric = pt2_metric(p)
        spread = math.sqrt(r * r + p.v * p.v)
        omega_plus = p.u * (g + spread)
        omega_minus = p.u * (g - spread)
        gap = math.sqrt(g * g - r * r)
        norm_plus = 4.0 * abs(n_plus) ** 2 * p.u * g * gap * (gap + p.v)
        norm_minus = 4.0 * abs(n_minus) ** 2 * p.u * g * gap * (gap - p.v)
    return Pt2Family(
        hamiltonian=pt2_hamiltonian(p),
        energy_plus=e_plus,
        energy_minus=e_minus,
        vec_plus=vec_plus,
        vec_minus=vec_minus,
        metric=metric,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        norm_plus=norm_plus,
        norm_minus=norm_minus,
        metric_reason=reason,
    )


class Chart(enum.Enum):
    """The two inequivalent coset charts of real 2x2 similarities."""

    ROTATION = "rotation"
    BOOST = "boost"


@dataclass(frozen=True)
class Pt2Chart:
    rotation: np.ndarray
    parity: np.ndarray
    hamiltonian: np.ndarray
    metric: np.ndarray | None
    metric_reason: str | None


def chart_transformation(chart: Chart, theta: float, phi: float) -> np.ndarray:
    """Real similarity of the chart: a plane rotation or a hyperbolic boost,
    both followed by the diagonal exp(-phi sigma3 / 2) stretch."""
    stretch = np.diag([math.exp(-phi / 2.0), math.exp(phi / 2.0)]).astype(complex)
    if chart is Chart.ROTATION:
        half = np.array([[math.cos(theta / 2.0), -math.sin(theta / 2.0)],
                         [math.sin(theta / 2.0), math.cos(theta / 2.0)]], dtype=complex)
    else:
        half = np.array([[math.cosh(theta / 2.0), -math.sinh(theta / 2.0)],
                         [-math.sinh(theta / 2.0), math.cosh(theta / 2.0)]], dtype=complex)
    return stretch @ half


def pt2_transformed(chart: Chart, p: Pt2Params) -> Pt2Chart:
    """Chart closed forms: transformation, transported parity, matrix, metric."""
    e, g, r, d, th, ph = p.e, p.gamma, p.rho, p.delta, p.theta, p.phi
    R = chart_transformation(chart, th, ph)
    reason = p.metric_reason()
    mix = r * math.sin(d) + p.v * math.cos(d)
    metric = None
    if chart is Chart.ROTATION:
        parity = np.array([[math.cos(th), math.exp(-ph) * math.sin(th)],
                           [math.exp(ph) * math.sin(th), -math.cos(th)]], dtype=complex)
        ham = np.array([
            [e + g * math.cos(d) * math.cos(th) - 1j * r * math.sin(th),
             (g * math.cos(d) * math.sin(th) - 1j * g * math.sin(d) + 1j * r * math.cos(th)) * math.exp(-ph)],
            [(g * math.cos(d) * math.sin(th) + 1j * g * math.sin(d) + 1j * r * math.cos(th)) * math.exp(ph),
             e - g * math.cos(d) * math.cos(th) + 1j * r * math.sin(th)],
        ])
        if reason is None:
            off = math.sin(th) * mix + 1j * (r * math.cos(d) - p.v * math.sin(d))
            metric = p.u * np.array([
                [(g + math.cos(th) * mix) * math.exp(ph), off],
                [off.conjugate(), (g - math.cos(th) * mix) * math.exp(-ph)],
            ])
    else:
        parity = np.array([[math.cosh(th), math.exp(-ph) * math.sinh(th)],
                           [-math.exp(ph) * math.sinh(th), -math.cosh(th)]], dtype=complex)
        arg = complex(d, th)
        ham = np.array([
            [e + g * cmath.cos(arg), -1j * (g * cmath.sin(arg) - r) * math.exp(-ph)],
            [1j * (g * cmath.sin(arg) + r) * math.exp(ph), e - g * cmath.cos(arg)],
        ])
        if reason is None:
            off = g * math.sinh(th) + 1j * (r * math.cos(d) - p.v * math.sin(d))
            metric = p.u * np.array([
                [(g * math.cosh(th) + mix) * math.exp(ph), off],
                [off.conjugate(), (g * math.cosh(th) - mix) * math.exp(-ph)],
            ])
    return Pt2Chart(rotation=R, parity=parity, hamiltonian=ham, metric=metric, metric_reason=reason)


@dataclass(frozen=True)
class Pseudo2Family:
    hamiltonian: np.ndarray
    energy_plus: complex
    energy_minus: complex
    vec_plus: np.ndarray
    vec_minus: np.ndarray
    metric: np.ndarray | None
    omega_plus: float | None
    omega_minus: float | None
    norm_plus: float | None
    norm_minus: float | None
    unitary: np.ndarray
    parity: np.ndarray
    rotated_hamiltonian: np.ndarray
    rotated_metric: np.ndarray | None
    metric_reason: str | None


def _frame_vectors(theta: float, phi: float):
    nr = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    nth = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)])
    nph = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return nr, nth, nph


def pseudo2_grid(e, gamma, rho, delta) -> np.ndarray:
    """(K, 2, 2) stack of the pseudo-Hermitian-family matrix at every point of
    the grid e x gamma x rho x delta, in loop order e -> gamma -> rho -> delta."""
    e, gamma, rho, delta = _grid_axes(e, gamma, rho, delta)
    out = np.empty((e.size, gamma.size, rho.size, delta.size, 2, 2), dtype=complex)
    out[..., 0, 0] = e + gamma
    up, down = _pointwise(lambda d: cmath.exp(1j * d), delta), _pointwise(lambda d: cmath.exp(-1j * d), delta)
    out[..., 0, 1] = _pointwise(lambda r, z: r * z, rho, up)
    out[..., 1, 0] = _pointwise(lambda r, z: -r * z, rho, down)
    out[..., 1, 1] = e - gamma
    return out.reshape(-1, 2, 2)


def pseudo2_hamiltonian(p: Pt2Params) -> np.ndarray:
    return pseudo2_grid(p.e, p.gamma, p.rho, p.delta)[0]


def pseudo2_metric(p: Pt2Params) -> np.ndarray:
    p.require_metric()
    return p.u * np.array([
        [p.gamma + p.v, p.rho * cmath.exp(1j * p.delta)],
        [p.rho * cmath.exp(-1j * p.delta), p.gamma - p.v],
    ])


def pseudo2_family(p: Pt2Params, normalization=(1.0, 1.0)) -> Pseudo2Family:
    """Diag-metric family plus its unitary transport along the (theta, phi) coset.

    The transported parity is the unit-vector Pauli combination n . sigma, and
    the transported matrix/metric are given in the spherical frame
    (n, n_theta, n_phi) exactly as closed forms.
    """
    e, g, r, d = p.e, p.gamma, p.rho, p.delta
    root = cmath.sqrt(complex(g * g - r * r))
    n_plus, n_minus = normalization
    vec_plus = n_plus * np.array([g + root, -r * cmath.exp(-1j * d)])
    vec_minus = n_minus * np.array([g - root, -r * cmath.exp(-1j * d)])

    reason = p.metric_reason()
    metric = omega_plus = omega_minus = norm_plus = norm_minus = rotated_metric = None
    if reason is None:
        metric = pseudo2_metric(p)
        spread = math.sqrt(r * r + p.v * p.v)
        omega_plus = p.u * (g + spread)
        omega_minus = p.u * (g - spread)
        gap = math.sqrt(g * g - r * r)
        norm_plus = 2.0 * abs(n_plus) ** 2 * p.u * gap * (g + gap) * (gap + p.v)
        norm_minus = 2.0 * abs(n_minus) ** 2 * p.u * gap * (g - gap) * (gap - p.v)

    half_phi = np.diag([cmath.exp(-1j * p.phi / 2.0), cmath.exp(1j * p.phi / 2.0)])
    half_theta = np.array([[math.cos(p.theta / 2.0), -math.sin(p.theta / 2.0)],
                           [math.sin(p.theta / 2.0), math.cos(p.theta / 2.0)]], dtype=complex)
    unitary = half_phi @ half_theta
    nr, nth, nph = _frame_vectors(p.theta, p.phi)
    parity = pauli_combination(nr)
    rotated_ham = pauli_combination(g * nr + 1j * r * math.sin(d) * nth + 1j * r * math.cos(d) * nph, e)
    if reason is None:
        rotated_metric = p.u * pauli_combination(p.v * nr + r * math.cos(d) * nth - r * math.sin(d) * nph, g)
    return Pseudo2Family(
        hamiltonian=pseudo2_hamiltonian(p),
        energy_plus=p.e + root,
        energy_minus=p.e - root,
        vec_plus=vec_plus,
        vec_minus=vec_minus,
        metric=metric,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        norm_plus=norm_plus,
        norm_minus=norm_minus,
        unitary=unitary,
        parity=parity,
        rotated_hamiltonian=rotated_ham,
        rotated_metric=rotated_metric,
        metric_reason=reason,
    )


class CrossCase(enum.Enum):
    """Which closed-form cross operator to evaluate.

    PSEUDO_FOR_PT_BASE    Hermitian involution making the PT base matrix
                          pseudo-Hermitian.
    PT_FOR_PSEUDO_BASE    real parity making the pseudo base matrix
                          PT-symmetric.
    PT_FOR_PSEUDO_ROTATED real parity for the unitarily transported
                          pseudo-Hermitian matrix (normalizer Delta_1).
    PSEUDO_FOR_PT_ROTATION_CHART  Hermitian involution for the rotation-chart
                          PT matrix (normalizer Delta_2).
    PSEUDO_FOR_PT_BOOST_CHART     Hermitian involution for the boost-chart
                          PT matrix (normalizer Delta_3).
    """

    PSEUDO_FOR_PT_BASE = "pseudo_for_pt_base"
    PT_FOR_PSEUDO_BASE = "pt_for_pseudo_base"
    PT_FOR_PSEUDO_ROTATED = "pt_for_pseudo_rotated"
    PSEUDO_FOR_PT_ROTATION_CHART = "pseudo_for_pt_rotation_chart"
    PSEUDO_FOR_PT_BOOST_CHART = "pseudo_for_pt_boost_chart"


NORMALIZER_FLOOR = 1e-10


def cross_normalizer(case: CrossCase, p: Pt2Params) -> float:
    """The squared prefactor of the case; the formula degenerates at zero."""
    g, r, d, th, ph = p.gamma, p.rho, p.delta, p.theta, p.phi
    if case is CrossCase.PSEUDO_FOR_PT_BASE:
        return 1.0
    if case is CrossCase.PT_FOR_PSEUDO_BASE:
        return g * g - (r * math.cos(d)) ** 2
    if case is CrossCase.PT_FOR_PSEUDO_ROTATED:
        return (g * g * (math.cos(d) * math.cos(th) * math.sin(ph) - math.sin(d) * math.cos(ph)) ** 2
                + (g * g - r * r) * (math.sin(d) * math.cos(th) * math.sin(ph) + math.cos(d) * math.cos(ph)) ** 2)
    if case is CrossCase.PSEUDO_FOR_PT_ROTATION_CHART:
        return (g * g * math.cos(d) ** 2 * (math.sin(th) ** 2 * math.cosh(ph) ** 2 + math.cos(th) ** 2)
                + (g * math.sin(d) * math.cosh(ph) + r * math.cos(th) * math.sinh(ph)) ** 2)
    if case is CrossCase.PSEUDO_FOR_PT_BOOST_CHART:
        return (g * g * math.cos(d) ** 2 * (1.0 + math.sinh(th) ** 2 * math.cosh(ph) ** 2)
                + (g * math.sin(d) * math.cosh(th) * math.cosh(ph) + r * math.sinh(ph)) ** 2)
    raise ContractError(f"unknown cross case {case!r}")  # pragma: no cover


def cross_operators(case: CrossCase, p: Pt2Params) -> np.ndarray:
    """Closed-form operator converting a matrix between the two pictures.

    The sign ambiguity of the printed prefactors is fixed by making the (1,1)
    entry nonnegative (falling through to the (2,2) entry when it vanishes).
    Raises SingularCaseError when the normalizer is not strictly positive.
    """
    g, r, d, th, ph = p.gamma, p.rho, p.delta, p.theta, p.phi
    delta2 = cross_normalizer(case, p)
    if delta2 <= NORMALIZER_FLOOR:
        raise SingularCaseError(f"normalizer of {case.value} vanishes ({delta2:g} <= {NORMALIZER_FLOOR:g})")
    pref = 1.0 / math.sqrt(delta2)
    if case is CrossCase.PSEUDO_FOR_PT_BASE:
        out = pauli_combination((0.0, math.sin(d), math.cos(d)))
    elif case is CrossCase.PT_FOR_PSEUDO_BASE:
        out = pref * np.array([[g, r * math.cos(d)], [-r * math.cos(d), -g]], dtype=complex)
    elif case is CrossCase.PT_FOR_PSEUDO_ROTATED:
        p12 = g * math.sin(th) * math.cos(ph) + r * math.cos(d) * math.cos(ph) + r * math.sin(d) * math.cos(th) * math.sin(ph)
        p21 = g * math.sin(th) * math.cos(ph) - r * math.cos(d) * math.cos(ph) - r * math.sin(d) * math.cos(th) * math.sin(ph)
        out = pref * np.array([[g * math.cos(th), p12], [p21, -g * math.cos(th)]], dtype=complex)
    elif case is CrossCase.PSEUDO_FOR_PT_ROTATION_CHART:
        top = g * math.cos(d) * math.sin(th) * math.cosh(ph) - 1j * g * math.sin(d) * math.cosh(ph) - 1j * r * math.cos(th) * math.sinh(ph)
        out = pref * np.array([
            [g * math.cos(d) * math.cos(th), top],
            [top.conjugate(), -g * math.cos(d) * math.cos(th)],
        ])
    else:
        top = (-g * math.cos(d) * math.sinh(th) * math.sinh(ph)
               - 1j * g * math.sin(d) * math.cosh(th) * math.cosh(ph)
               - 1j * r * math.sinh(ph))
        out = pref * np.array([
            [g * math.cos(d) * math.cosh(th), top],
            [top.conjugate(), -g * math.cos(d) * math.cosh(th)],
        ])
    return -out if needs_sign_flip(out) else out


@dataclass(frozen=True)
class GenPt2Params:
    """Angles of the general 2x2 antilinear core, alpha the global phase."""

    theta: float = 0.0
    delta: float = 0.0
    phi: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(self)


def genpt2_operator(p: GenPt2Params) -> np.ndarray:
    """General 2x2 antilinear core; satisfies P conj(P) = 1 identically."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    sd, cd = math.sin(p.delta), math.cos(p.delta)
    t = math.tanh(p.phi)
    front = math.cosh(p.phi) * cmath.exp(1j * p.alpha)
    return front * np.array([
        [c + 1j * s * sd, 1j * (s * cd - t)],
        [1j * (s * cd + t), c - 1j * s * sd],
    ])


def _require_exceptional(p: Pt2Params):
    # the printed chain formulas assume rho = gamma != 0 exactly
    if p.gamma == 0.0 or abs(p.rho - p.gamma) > 1e-12 * max(1.0, abs(p.gamma)):
        raise ContractError("the chain formulas hold at rho = gamma != 0 only")


def pt2_jordan_chain(p: Pt2Params, alpha=0.0):
    """Closed-form chain (v0, v1 + alpha v0) of the PT family at rho = gamma.

    The single eigenvalue is e; cos(delta) = 0 degenerates the formula.
    """
    _require_exceptional(p)
    g, d = p.gamma, p.delta
    if abs(math.cos(d)) < 1e-12:
        raise SingularCaseError("chain formula degenerates at cos(delta) = 0")
    v0 = np.array([1.0 - math.sin(d), 1j * math.cos(d)])
    v1 = np.array([(1.0 - math.sin(d)) / (g * math.cos(d)), 0.0], dtype=complex)
    return v0, v1 + alpha * v0


def pseudo2_jordan_chain(p: Pt2Params, alpha=0.0):
    """Closed-form chain of the pseudo family at rho = gamma (eigenvalue e)."""
    _require_exceptional(p)
    g, d = p.gamma, p.delta
    v0 = np.array([1.0, -cmath.exp(-1j * d)])
    v1 = np.array([0.0, cmath.exp(-1j * d) / g])
    return v0, v1 + alpha * v0
