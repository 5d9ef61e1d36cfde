"""Spectrum classification, Jordan structure, and exceptional-point scans.

classify_spectrum clusters eigenvalues, decides reality and conjugate
pairing per cluster, and extracts Segre characteristics (Jordan block sizes
per eigenvalue) from the numerical rank staircase of powers.  The clusters
are those of intertwine.eigen_clusters: each eigenvalue gets a disc whose
radius is its condition number times the rank cutoff of ||H||, and a
cluster is a connected set of overlapping discs (Golub & Van Loan, Matrix
Computations, section 7.2.2).  A k-fold defective block smears its computed
eigenvalues by roughly ||H|| eps^(1/k), and its nearly parallel
eigenvectors give it discs wide enough to hold the smear; the
dimension-power cut ||H|| eps^(1/n) is left only as the cap on the radii
and as the gap screen that decides well-separated spectra without
eigenvectors (at sizes n < 10, for the default tolerances; beyond them no
spectrum can pass it).  classify_spectra does the same for a whole (K, n, n)
stack, deciding well-separated spectra with array operations and sending
only the rest through the cluster and staircase code.  It returns a
SpectrumTable, one array per verdict field, which builds a point's
SpectrumReport only when that point is indexed; classify_spectrum is the
first entry of the table of a stack of one.  Each matrix is clustered
once: the cluster path reads the clusters and Jordan verdict of
intertwine.sorted_clusters, a lone matrix those kept on its shared eigen
record (intertwine.spectrum_clusters), which every other solver reads too.
Its screen takes the smallest gap first and sends a spectrum that fails
the gap cuts straight to the cluster path.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, ContractError, DimensionError
from .intertwine import Clusters, sorted_clusters, spectrum_clusters
from .involutions import operator_matrix
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    _cluster_cut,
    _eigenpairs,
    _reality_cut,
    as_square_matrix,
    frobenius,
    frobenius_norms,
)
from .symmetry import SymmetryKind, _intertwining, check_symmetry
from . import catalog2x2


class RealityClass(enum.Enum):
    ALL_REAL_DIAGONALIZABLE = "all_real_diagonalizable"
    ALL_REAL_DEFECTIVE = "all_real_defective"
    CONJUGATE_PAIRS = "conjugate_pairs"
    MIXED = "mixed"


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    reality_class: RealityClass
    segre: dict
    unbroken: bool | None = None
    symmetry_holds: bool | None = None
    ambiguous: bool = False

    def block_sizes(self, eigenvalue, atol=None):
        """Segre characteristic of the cluster nearest eigenvalue, if within
        atol.  By default atol is 1e-8 times the largest |eigenvalue|, or the
        largest distance of an eigenvalue from its nearest Segre key when
        that is wider, so it scales with H: a zero spectrum matches exactly."""
        if atol is None:
            spread = max(min(abs(key - v) for key in self.segre) for v in self.eigenvalues.tolist())
            atol = max(1e-8 * float(np.abs(self.eigenvalues).max()), spread)
        lam = min(self.segre, key=lambda key: abs(key - eigenvalue))
        if abs(lam - eigenvalue) > atol:
            raise KeyError(f"no cluster near {eigenvalue}")
        return self.segre[lam]


def jordan_block(lam, n: int) -> np.ndarray:
    """lam on the diagonal, units on the first superdiagonal."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    return lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)


def _cluster_path(clusters: Clusters):
    """Segre characteristics and conjugate pairing for one matrix from its
    clusters and their Jordan verdict (intertwine.sorted_clusters): a lone
    eigenvalue has Segre [1], a larger cluster (two real clusters that
    conjugate_pairs mirrors across the axis are one) the block sizes of the
    verdict; real clusters with one projection on the real axis join their
    block lists.  The point is ambiguous when two cluster discs come within
    10x of touching, or the verdict is undecided.

    Returns (segre, ambiguous, all_real, any_real, paired, defective).
    """
    values, _, _, labels, centres, spans, real, pairs, jordan, defective, undecided = clusters
    heads = np.flatnonzero(labels == np.arange(values.size))
    near = np.abs(centres[heads, None] - centres[heads]) < 10.0 * (spans[heads, None] + spans[heads])
    np.fill_diagonal(near, False)
    mirrored = {max(pair) for pair in pairs or () if real[pair[0]]}
    segre = {}
    # a lone eigenvalue keys its Segre entry (real ones with one real part share it), a larger cluster its verdict's
    for key, head in zip(np.where(real[heads], values.real[heads], values[heads]).tolist(), heads.tolist()):
        if head not in mirrored:
            key, sizes = jordan.get(head, (key, [1]))
            segre[key] = sorted(segre[key] + sizes) if key in segre else sizes
    return segre, bool(near.any()) or undecided, bool(real.all()), bool(real.any()), pairs is not None, defective


_REALITY_CLASSES = tuple(RealityClass)


@dataclass(frozen=True, eq=False)
class SpectrumTable(Sequence):
    """Verdicts for a (K, n, n) stack, one column per field.

    eigenvalues is the (K, n) array of sorted spectra and reality the index
    of each point's class in RealityClass; unbroken and symmetry_holds are
    boolean arrays, or None when no symmetry was given.  segre holds the
    Segre dict of each point that went through the cluster path, by index;
    real marks the eigenvalues that every other point keys as real, each
    with Segre [1].  As a sequence, the table builds each point's
    SpectrumReport on access.
    """

    eigenvalues: np.ndarray
    reality: np.ndarray
    unbroken: np.ndarray | None
    symmetry_holds: np.ndarray | None
    ambiguous: np.ndarray
    segre: dict
    real: np.ndarray

    def __len__(self) -> int:
        return len(self.ambiguous)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # negative indices, and IndexError past either end
        segre = self.segre.get(k)
        if segre is None:
            row = zip(self.eigenvalues[k].tolist(), self.real[k].tolist())
            segre = {complex(lam.real, 0.0) if is_real else lam: [1] for lam, is_real in row}
        return SpectrumReport(
            eigenvalues=self.eigenvalues[k],
            reality_class=_REALITY_CLASSES[self.reality.item(k)],
            segre=segre,
            unbroken=None if self.unbroken is None else self.unbroken.item(k),
            symmetry_holds=None if self.symmetry_holds is None else self.symmetry_holds.item(k),
            ambiguous=self.ambiguous.item(k),
        )


def classify_spectra(stack, tol: ToleranceConfig = DEFAULT_TOL, symmetry=None) -> SpectrumTable:
    """classify_spectrum for every matrix of a (K, n, n) stack, in one pass.

    The stack is validated, its Frobenius norms and eigenvalues are computed
    (one stacked eigvals, each row sorted by (Re, Im)), and the reality and
    cluster cuts are taken once, as arrays.  A point whose eigenvalues are
    all at least 10 cluster cuts apart, whose smallest gap exceeds twice the
    conjugate-pairing cut max(2 reality cut, cluster cut), and whose
    non-real eigenvalues lie within two reality cuts of a conjugate or
    beyond the pairing cut from every one, is decided right there: no disc
    of intertwine.eigen_clusters (at most half a cluster cut wide) can then
    reach another, so every eigenvalue is its own cluster with Segre [1],
    nothing is ambiguous, and the reality class follows from the reality
    mask and the (then unique) conjugate partners.  Every other point --
    near an exceptional point, a degenerate or defective spectrum, or a
    pairing that the disc radii decide -- takes the cluster path: its
    eigenvalues and eigenvectors from one eig stacked over all such points,
    eigen_clusters for the clusters, and the rank staircase for the block
    sizes of each cluster of more than one eigenvalue.  A stack of one
    matrix (classify_spectrum) reads the matrix's shared eigen record
    (numerics._eigenpairs) instead, for the screen and the cluster path
    alike, and the clusters kept on it (intertwine.spectrum_clusters); its
    eig values are bit-equal to those of eigvals, and
    find_gen_pt_operator reads the same record and clusters.  Its screen
    (_screen_lone) stops at the smallest gap when that fails the gap cuts,
    before any conjugate gap is taken.  At sizes n where no n eigenvalues
    within the matrix norm can lie 10 cluster cuts apart (n >= 10 at the
    default tolerances) the screen is skipped: every point takes the
    cluster path.

    The verdicts come back as one SpectrumTable of columns; indexing or
    iterating it gives, per matrix, the report classify_spectrum gives for
    that matrix alone.

    symmetry, when given, is a (SymmetryKind, operator) pair; the operator is
    checked once per call, and the intertwining identity is taken for the
    whole stack in two BLAS products (symmetry._intertwining).
    """
    return _classify_stack(as_square_matrix(stack, "H", stack=True), tol, symmetry)


def _screen_lone(record, norm: float, tol: ToleranceConfig):
    """The screen of _classify_stack for a stack of one, on the values of the
    matrix's shared eigen record, which it leaves as it is: (values, real,
    simple, paired), shaped as for a stack.  The smallest gap comes first,
    and a spectrum that fails the gap cuts takes the cluster path with no
    conjugate gap taken."""
    n = record.values.size
    cluster_cut, reality_cut = _cluster_cut(tol, norm, n), _reality_cut(tol, norm)
    pair_cut = max(2 * reality_cut, cluster_cut)
    values = np.sort(record.values, kind="stable")  # a stable complex sort is the (Re, Im) order
    gap = np.abs(values[:, None] - values)
    np.fill_diagonal(gap, np.inf)
    min_gap = gap.min()
    if min_gap >= 10.0 * cluster_cut and min_gap > 2.0 * pair_cut:
        conj_gap = np.abs(values - values.conj()[:, None])  # conj_gap[i, j] = |v_j - conj(v_i)|
        np.fill_diagonal(conj_gap, np.inf)
        partner = conj_gap <= 2 * reality_cut
        if not ((conj_gap <= pair_cut) > partner).any():
            real = np.abs(values.imag) <= reality_cut
            return values[None], real[None], np.ones(1, dtype=bool), (real | partner.any(axis=1)).all(keepdims=True)
    return np.empty((1, n), dtype=complex), np.zeros((1, n), dtype=bool), *np.zeros((2, 1), dtype=bool)


def _classify_stack(S: np.ndarray, tol: ToleranceConfig, symmetry) -> SpectrumTable:
    """classify_spectra of a stack already validated by as_square_matrix."""
    K, n = S.shape[:2]
    # a lone matrix reads its shared eigen record, for the screen and the
    # cluster path alike: its eig values are bit-equal to eigvals
    lone = _eigenpairs(S[0]) if K == 1 else None
    norms = frobenius_norms(S)
    # n eigenvalues pairwise g apart inside |z| <= ||H||_2 <= ||H||_F have
    # g <= 2 ||H||_F / (sqrt(n) - 1) (their discs of radius g/2 are disjoint
    # inside the disc of radius ||H||_F + g/2), so once 10 cluster cuts exceed
    # that bound the screen decides nothing and is skipped
    if 10.0 * _cluster_cut(tol, 1.0, n) * (n ** 0.5 - 1.0) > 2.0:
        values, real = np.empty((K, n), dtype=complex), np.zeros((K, n), dtype=bool)
        simple, paired = np.zeros((2, K), dtype=bool)
    elif lone:
        values, real, simple, paired = _screen_lone(lone, float(norms[0]), tol)
    else:
        # a stable complex sort is the lexicographic (Re, Im) order of lexsort
        values = np.sort(np.linalg.eigvals(S), axis=-1, kind="stable")
        cluster_cut, reality_cut = _cluster_cut(tol, norms, n), _reality_cut(tol, norms)
        pair_cut = np.maximum(2 * reality_cut, cluster_cut)
        # gap[k, i, j] = |v_j - v_i| and conj_gap[k, i, j] = |v_j - conj(v_i)|, infinite for j = i
        dist = np.abs(values[:, None, :] - np.array((values, values.conj()))[:, :, :, None])
        dist.reshape(-1, n * n)[:, :: n + 1] = np.inf
        gap, conj_gap = dist
        min_gap = gap.min(axis=(1, 2))
        real = np.abs(values.imag) <= reality_cut[:, None]
        # eigenvalue j within two reality cuts of conj(eigenvalue i): where the
        # gaps exceed twice the pairing cut, a conjugate distance within that cut
        # joins two non-real eigenvalues, and each has at most one partner.  The
        # cluster discs decide a distance between two reality cuts and the
        # pairing cut, so such a point takes the cluster path
        partner = conj_gap <= 2 * reality_cut[:, None, None]
        unsure = ((conj_gap <= pair_cut[:, None, None]) > partner).any(axis=(1, 2))
        simple = (min_gap >= 10.0 * cluster_cut) & (min_gap > 2.0 * pair_cut) & ~unsure
        paired = (real | partner.any(axis=2)).all(axis=1)
    all_real, any_real = real.all(axis=1), real.any(axis=1)
    ambiguous, defective = np.zeros((2, K), dtype=bool)

    # the points left take one stacked eig and one stacked SVD of its vectors,
    # a lone matrix the clusters kept on its record; their eigenvalues,
    # sorted as above with the columns in their order, are their values
    segre, rest = {}, (~simple).nonzero()[0]
    if rest.size and not lone:
        w, vectors = np.linalg.eig(S[rest])
        sigma = np.linalg.svd(vectors, compute_uv=False)
    for i, k in enumerate(rest.tolist()):
        norm = float(norms[k])
        clusters = spectrum_clusters(lone, norm, tol) if lone else sorted_clusters(S[k], w[i], vectors[i], sigma[i], norm, tol)
        values[k] = clusters.values
        segre[k], ambiguous[k], all_real[k], any_real[k], paired[k], defective[k] = _cluster_path(clusters)
    # codes in RealityClass order: conjugate pairs (paired with no real
    # eigenvalue) or mixed, then all real (diagonalizable or defective)
    reality = 3 - (paired > any_real)
    np.copyto(reality, defective, where=all_real)

    holds = unbroken = None
    if symmetry is not None:
        kind, operator = symmetry
        holds = _intertwining(kind, operator, S, norms, tol)[0]
        unbroken = holds & all_real
    return SpectrumTable(values, reality, unbroken, holds, ambiguous, segre, real)


def classify_spectrum(H, tol: ToleranceConfig = DEFAULT_TOL, symmetry=None) -> SpectrumReport:
    """Eigenvalues, reality class, Segre characteristics, broken/unbroken.

    symmetry, when given, is a (SymmetryKind, operator) pair; the unbroken
    verdict is then "the symmetry holds and every eigenvalue is real".
    """
    return _classify_stack(as_square_matrix(H, "H")[None], tol, symmetry)[0]


def align_pt_phases(O, H, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvectors rephased so that P conj(v) = v for each of them.

    Requires an unbroken, simple spectrum (every eigenvalue alone in its
    cluster, read from H's shared record as intertwine.spectrum_clusters);
    with a broken symmetry the
    eigenstates stop being eigenstates of the antilinear involution and the
    call is a contract error naming the first complex eigenvalue.
    """
    P = operator_matrix(O)
    A = as_square_matrix(H, "H")
    report = check_symmetry(SymmetryKind.PT, P, A, tol)
    if not report.holds:
        raise ContractError(f"H is not symmetric under the given parity (residual {report.residual:.3e})")
    clusters = spectrum_clusters(_eigenpairs(A), frobenius(A), tol)
    if not clusters.real.all():
        raise ContractError(f"symmetry is broken: eigenvalue {clusters.values[~clusters.real][0]} is complex")
    if np.any(clusters.labels != np.arange(clusters.labels.size)):
        raise ContractError("phase alignment needs a simple spectrum")
    values, vectors = clusters.values.copy(), clusters.vectors
    # rotating each vector by the half phase of its antilinear eigenvalue makes it a fixed point
    lam_pt = np.vecdot(vectors, P @ vectors.conj(), axis=0) / np.vecdot(vectors, vectors, axis=0)
    aligned = np.sqrt(lam_pt) * vectors
    residual = np.linalg.norm(P @ aligned.conj() - aligned, axis=0)
    for k in range(values.size):
        if abs(abs(lam_pt[k]) - 1.0) > 1e-6:
            raise ContractError(f"eigenvector {k} is not an eigenvector of the antilinear symmetry (|lambda| = {abs(lam_pt[k]):.6f})")
        if residual[k] > 1e-8 * max(1.0, np.linalg.norm(aligned[:, k])):
            raise ContractError(f"phase alignment failed for eigenvector {k} (residual {residual[k]:.3e})")
    return values, aligned


@dataclass(frozen=True)
class JordanChain:
    """Chain vectors at a defective eigenvalue, with the documented freedom
    that any multiple of the eigenvector can be added to the next link."""

    eigenvalue: complex
    vectors: list

    def with_alpha(self, alpha) -> list:
        out = [self.vectors[0]]
        for k in range(1, len(self.vectors)):
            out.append(self.vectors[k] + alpha * self.vectors[k - 1])
        return out


def jordan_chain(H, lam, tol: ToleranceConfig = DEFAULT_TOL) -> JordanChain:
    """Chain (v0, v1, ...) with (H - lam) v0 = 0 and (H - lam) v_{k+1} = v_k.

    Needs geometric multiplicity one and algebraic multiplicity at least two
    at lam, whose block sizes are those of the classify_spectrum cluster
    nearest lam (within one cluster cut); a diagonalizable eigenvalue is a
    contract error.  Links are minimum-norm least-squares solutions, so the
    stored chain is the canonical alpha = 0 representative of
    JordanChain.with_alpha.
    """
    A = as_square_matrix(H, "H")
    n = A.shape[0]
    scale = frobenius(A)
    report = classify_spectrum(A, tol)
    try:
        sizes = report.block_sizes(lam, atol=_cluster_cut(tol, scale, n))
    except KeyError:
        raise ContractError(f"{lam} is not an eigenvalue of H") from None
    if sizes == [1]:
        raise ContractError(f"eigenvalue {lam} is simple; there is no Jordan chain")
    if len(sizes) != 1:
        raise ContractError(f"eigenvalue {lam} has geometric multiplicity {len(sizes)}; chain extraction expects one block")
    depth = sizes[0]
    M = A - complex(lam) * np.eye(n)
    _, _, vh = np.linalg.svd(M)
    v0 = vh[-1].conj()
    # fix the overall phase: largest entry real positive, for determinism
    pivot = int(np.argmax(np.abs(v0)))
    v0 = v0 * (abs(v0[pivot]) / v0[pivot])
    vectors = [v0]
    for _ in range(depth - 1):
        nxt, *_ = np.linalg.lstsq(M, vectors[-1], rcond=None)
        residual = np.linalg.norm(M @ nxt - vectors[-1])
        if residual > max(tol.rel_tol * scale, 1e-6 * np.linalg.norm(vectors[-1])):
            raise ContractError(f"chain relation unsolvable at depth {len(vectors)} (residual {residual:.3e})")
        # strip the eigenvector component so alpha = 0 is well defined
        nxt = nxt - (v0.conj() @ nxt) / (v0.conj() @ v0) * v0
        vectors.append(nxt)
    return JordanChain(eigenvalue=complex(lam), vectors=vectors)


def build_pt_jordan(m: int, n: int, lam: float):
    """Parity-symmetric matrix similar to one Jordan block of size m + n.

    Returns (H, T) with T H T^{-1} the Jordan block; H carries Jordan blocks
    of size m and n on the diagonal coupled through one imaginary unit entry,
    and is symmetric under the diagonal parity of signature (m, n).  T is
    Diag{1_m, i 1_n} and the relation is exact in floating point.
    """
    if m < 1 or n < 1:
        raise DimensionError(f"need m, n >= 1, got ({m}, {n})")
    if abs(float(lam) - lam) > 0:
        raise ContractError("the construction expects a real eigenvalue")
    N = m + n
    H = np.zeros((N, N), dtype=complex)
    H[:m, :m] = jordan_block(float(lam), m)
    H[m:, m:] = jordan_block(float(lam), n)
    H[m - 1, m] = 1j
    T = np.diag(np.concatenate([np.ones(m), 1j * np.ones(n)]))
    return H, T


@dataclass(frozen=True)
class DegenerationScan:
    """Metric collapse data on the approach to an exceptional point."""

    family: str
    u: float
    gamma: float
    epsilons: np.ndarray
    omega_small: np.ndarray
    omega_large: np.ndarray
    norm_plus: np.ndarray
    norm_minus: np.ndarray
    fitted_exponents: dict = field(default_factory=dict)
    fitted_prefactors: dict = field(default_factory=dict)

    CSV_COLUMNS = ("epsilon", "omega_small", "omega_large", "norm_plus", "norm_minus")

    def rows(self):
        for k in range(self.epsilons.size):
            yield (self.epsilons[k], self.omega_small[k], self.omega_large[k], self.norm_plus[k], self.norm_minus[k])


def _loglog_fit(x, y):
    slope, intercept = np.polyfit(np.log(x), np.log(np.abs(y)), 1)
    with np.errstate(over="ignore"):  # degeneration_scan refuses a prefactor past the float range
        return float(slope), float(np.exp(intercept))


def degeneration_scan(u: float, gamma: float, epsilons, family: str = "pt2") -> DegenerationScan:
    """Track metric eigenvalues and eigenvector norms as the gap closes.

    The gap parameter follows rho^2 = gamma^2 (1 - eps), approaching the
    exceptional point from the side where the metric stays positive (v is
    pinned to 0 to avoid a double limit).  Expected leading behavior:
    omega_small ~ u gamma eps / 2, omega_large -> 2 u gamma, and both
    eigenvector norms shrink linearly in eps.  A metric, eigenvalue of it,
    eigenvector norm or fitted prefactor past the float range is a
    ConstraintError naming u, and one that underflows names u and gamma.
    """
    if family not in ("pt2", "pseudo2"):
        raise ContractError(f"family must be 'pt2' or 'pseudo2', got {family!r}")
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size == 0:
        raise ContractError("need at least one epsilon")
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ContractError("epsilons must lie strictly inside (0, 1)")
    if (rounded := eps[1.0 - eps == 1.0]).size:  # rho would round to |gamma|: the exceptional point itself
        raise ContractError(f"epsilon = {rounded[0]:g} is too small: 1 - epsilon rounds to 1")
    if eps.size > 1 and not np.all(np.diff(eps) < 0):
        raise ContractError("epsilons must be strictly decreasing")
    if not (u > 0 < gamma or u < 0 > gamma):  # by signs: a product that underflows keeps them
        raise ContractError("need u * gamma > 0 for a positive metric family")

    overflow = f"parameter u = {u:g} is too large: the metric or an eigenvector norm leaves the float range"
    omega_small, omega_large, norm_plus, norm_minus = series = np.empty((4, eps.size))
    with np.errstate(over="ignore", invalid="ignore"):  # a family past the float range is refused below
        for k, e_k in enumerate(eps):
            rho = abs(gamma) * np.sqrt(1.0 - e_k)
            params = catalog2x2.Pt2Params(e=0.0, gamma=gamma, rho=rho, delta=0.0, u=u, v=0.0)
            fam = catalog2x2.pt2_family(params) if family == "pt2" else catalog2x2.pseudo2_family(params)
            if fam.metric is None:  # a square or product out of range, or rho rounded to gamma
                raise ConstraintError(fam.metric_reason)
            if not np.isfinite(fam.metric).all():  # eigvalsh may return finite values for a NaN entry
                raise ConstraintError(overflow)
            w_eigs = np.linalg.eigvalsh(fam.metric)
            omega_small[k] = w_eigs.min()
            omega_large[k] = w_eigs.max()
            norm_plus[k] = np.real(fam.vec_plus.conj() @ fam.metric @ fam.vec_plus)
            norm_minus[k] = np.real(fam.vec_minus.conj() @ fam.metric @ fam.vec_minus)
    if not np.isfinite(series).all():
        raise ConstraintError(overflow)
    if (np.abs(series) < np.finfo(float).tiny).any():  # the fit takes their logarithms
        raise ConstraintError(f"parameters u = {u:g} and gamma = {gamma:g} are too small: "
                              "the metric or an eigenvector norm underflows")

    exponents, prefactors = {}, {}
    if eps.size >= 2:
        for name, series in (("omega_small", omega_small), ("norm_plus", norm_plus), ("norm_minus", norm_minus)):
            slope, pref = _loglog_fit(eps, series)
            exponents[name] = slope
            prefactors[name] = pref
    if not np.isfinite(list(prefactors.values())).all():
        raise ConstraintError(overflow)
    return DegenerationScan(
        family=family,
        u=float(u),
        gamma=float(gamma),
        epsilons=eps,
        omega_small=omega_small,
        omega_large=omega_large,
        norm_plus=norm_plus,
        norm_minus=norm_minus,
        fitted_exponents=exponents,
        fitted_prefactors=prefactors,
    )
